//! Checked mode for the IR [`pom_ir::PassManager`]: a translation-
//! validation hook proving that a pass rewrite preserved the function's
//! observable effect.
//!
//! IR passes (`simplify-bounds`, `collapse-unit-loops`) restructure
//! loops without changing which cells each statement writes.
//! [`check_pass`] exploits that: it runs the function on the compiled
//! executor ([`pom_ir::interp`], no memory, declared layouts) and records
//! every `(statement, array, element)` a store instance writes, before
//! and after the rewrite, and rejects the pass when the two footprints
//! differ or when only one side faults. The enumeration is bounded; a
//! function too large to enumerate, or one that faults on both sides, is
//! accepted with a note (structural verification still runs).
//!
//! Install with [`check_hook`]:
//!
//! ```
//! use pom_ir::PassManager;
//! let pm = PassManager::standard().check_each(pom_verify::check_hook());
//! ```

use pom_ir::interp::{Fault, Program};
use pom_ir::AffineFunc;
use std::collections::BTreeSet;

/// Default cap on enumerated store instances per function.
const DEFAULT_LIMIT: usize = 1 << 16;

/// One recorded store instance: `(stmt, array id, flat element)`.
type Footprint<'a> = BTreeSet<(&'a str, usize, usize)>;

/// Why a footprint walk stopped early.
enum Stop {
    /// More than the limit's store instances.
    Limit,
    /// The executor faulted.
    Fault(Fault),
}

impl From<Fault> for Stop {
    fn from(f: Fault) -> Self {
        Stop::Fault(f)
    }
}

/// The write footprint of `prog`, walked on the compiled executor.
fn footprint<'a>(prog: &Program<'a>, limit: usize) -> Result<Footprint<'a>, Stop> {
    let mut out = Footprint::new();
    prog.layout_only()
        .walk(prog.ops(), &mut |inst, _| {
            out.insert((inst.store.op.stmt.as_str(), inst.dest.0, inst.dest.1));
            if out.len() > limit {
                Err(Stop::Limit)
            } else {
                Ok(())
            }
        })
        .map(|()| out)
}

/// Validates that a pass rewrite preserved the per-statement write
/// footprint of `before`.
///
/// # Errors
///
/// A rendered diff naming the pass and up to three differing store
/// instances on each side, or the fault of the one side that faults.
pub fn check_pass(pass: &str, before: &AffineFunc, after: &AffineFunc) -> Result<(), String> {
    let (bp, ap) = (Program::new(before), Program::new(after));
    let (b, a) = match (footprint(&bp, DEFAULT_LIMIT), footprint(&ap, DEFAULT_LIMIT)) {
        (Ok(b), Ok(a)) => (b, a),
        (Ok(_), Err(Stop::Fault(e))) => {
            return Err(format!("pass `{pass}` made `{}` fault: {e}", before.name))
        }
        (Err(Stop::Fault(e)), Ok(_)) => {
            return Err(format!(
                "pass `{pass}` changed `{}` from faulting ({e}) to not faulting",
                before.name
            ))
        }
        // Too large to enumerate, or faulting on both sides: nothing to
        // compare; structural verification still guards the rewrite.
        _ => return Ok(()),
    };
    if b == a {
        return Ok(());
    }
    let fmt_side = |prog: &Program<'_>, side: &Footprint, other: &Footprint| -> Vec<String> {
        let layouts = prog.layout_only();
        side.difference(other)
            .take(3)
            .map(|&(stmt, id, flat)| {
                let shape = layouts.arrays.shape(id).unwrap_or(&[]);
                format!("{stmt}: {}{}", prog.arrays()[id], subscripts(shape, flat))
            })
            .collect()
    };
    let lost = fmt_side(&bp, &b, &a);
    let gained = fmt_side(&ap, &a, &b);
    let mut msg = format!(
        "pass `{pass}` changed the write footprint of `{}` \
         ({} instances before, {} after)",
        before.name,
        b.len(),
        a.len()
    );
    if !lost.is_empty() {
        msg.push_str(&format!("; lost: {}", lost.join(", ")));
    }
    if !gained.is_empty() {
        msg.push_str(&format!("; gained: {}", gained.join(", ")));
    }
    Err(msg)
}

/// `[i][j]…`: the row-major element `flat` of an array of `shape`.
fn subscripts(shape: &[usize], mut flat: usize) -> String {
    let mut idx = vec![0; shape.len()];
    for (i, &n) in idx.iter_mut().zip(shape).rev() {
        *i = flat % n.max(1);
        flat /= n.max(1);
    }
    idx.iter().map(|i| format!("[{i}]")).collect()
}

/// A ready-to-install [`pom_ir::CheckHook`] wrapping [`check_pass`].
pub fn check_hook() -> pom_ir::CheckHook {
    Box::new(check_pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_ir::{
        AffineOp, CollapseUnitLoops, ForOp, HlsAttrs, MemRefDecl, Pass, PassIssue, PassManager,
        SimplifyBounds, StoreOp,
    };
    use pom_poly::{AccessFn, Bound, LinearExpr};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    fn sample_func() -> AffineFunc {
        let mut f = AffineFunc::new("f");
        f.memrefs
            .push(MemRefDecl::new("A", &[8], pom_dsl::DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("A", vec![LinearExpr::var("i")]),
            value: pom_dsl::Expr::Const(1.0),
        };
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0), Bound::new(LinearExpr::constant_expr(-5), 1)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(store)],
        }));
        f
    }

    #[test]
    fn footprint_preserving_pipeline_passes_checked_mode() {
        let mut f = sample_func();
        PassManager::standard()
            .check_each(check_hook())
            .run(&mut f)
            .expect("standard pipeline preserves footprints");
    }

    #[test]
    fn footprint_breaking_pass_is_rejected() {
        /// A deliberately broken rewrite: shrinks every upper bound by
        /// one, dropping the last iteration of each loop.
        struct DropLastIteration;
        impl Pass for DropLastIteration {
            fn name(&self) -> &'static str {
                "drop-last-iteration"
            }
            fn run(&self, func: &mut AffineFunc) -> Result<(), pom_poly::PolyError> {
                func.walk_mut(&mut |op| {
                    if let AffineOp::For(l) = op {
                        for b in &mut l.ubs {
                            b.expr = b.expr.clone() - 1;
                        }
                    }
                });
                Ok(())
            }
        }
        let mut f = sample_func();
        let (pass, issue) = PassManager::new()
            .verify_each(true)
            .add(DropLastIteration)
            .check_each(check_hook())
            .run(&mut f)
            .unwrap_err();
        assert_eq!(pass, "drop-last-iteration");
        let PassIssue::Check(msg) = issue else {
            panic!("expected Check issue, got {issue:?}");
        };
        assert!(msg.contains("changed the write footprint"), "{msg}");
        assert!(msg.contains("lost: S: A[7]"), "{msg}");
    }

    #[test]
    fn collapse_and_simplify_survive_direct_check() {
        let mut f = sample_func();
        let before = f.clone();
        SimplifyBounds.run(&mut f).unwrap();
        check_pass("simplify-bounds", &before, &f).expect("simplify preserves");
        let before = f.clone();
        CollapseUnitLoops.run(&mut f).unwrap();
        check_pass("collapse-unit-loops", &before, &f).expect("collapse preserves");
    }

    #[test]
    fn a_fault_on_one_side_rejects_and_on_both_is_not_enumerable() {
        // Shifting the store one element right writes A[8] of an 8-cell
        // array on the last iteration.
        let f = sample_func();
        let mut shifted = f.clone();
        shifted.walk_mut(&mut |op| {
            if let AffineOp::Store(s) = op {
                s.dest.indices[0] = s.dest.indices[0].clone() + 1;
            }
        });
        let msg = check_pass("shift", &f, &shifted).unwrap_err();
        assert!(msg.contains("made `f` fault"), "{msg}");
        assert!(check_pass("unshift", &shifted, &f).is_err());
        assert_eq!(check_pass("p", &shifted, &shifted.clone()), Ok(()));
    }

    #[test]
    fn symbolic_bounds_are_skipped_not_rejected() {
        // The executor reads the unbound `n` as 0 on both sides, as every
        // walk of affine semantics does.
        let mut f = sample_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            l.ubs = vec![Bound::new(LinearExpr::var("n"), 1)];
        }
        assert_eq!(check_pass("p", &f.clone(), &f), Ok(()));
    }
}
