//! Checked mode for the IR [`pom_ir::PassManager`]: a translation-
//! validation hook proving that a pass rewrite preserved the function's
//! observable effect.
//!
//! IR passes (`simplify-bounds`, `collapse-unit-loops`,
//! `materialize-unroll`) restructure loops without changing which cells
//! each statement writes. [`check_pass`] exploits that: it executes the
//! loop structure abstractly — enumerating iteration points from the
//! constant bounds, evaluating `affine.if` guards, and recording every
//! `(statement, array, cell)` a store touches — before and after the
//! rewrite, and rejects the pass when the two footprints differ. The
//! enumeration is bounded; a function too large to enumerate is accepted
//! with a note (structural verification still runs).
//!
//! Install with [`check_hook`]:
//!
//! ```
//! use pom_ir::PassManager;
//! let pm = PassManager::standard().check_each(pom_verify::check_hook());
//! ```

use pom_ir::{AffineFunc, AffineOp};
use std::collections::{BTreeSet, HashMap};

/// Default cap on enumerated store instances per function.
const DEFAULT_LIMIT: usize = 1 << 16;

/// One recorded store instance: `(stmt, array, cell indices)`.
type Footprint = BTreeSet<(String, String, Vec<i64>)>;

/// Enumerates the write footprint of `func`, or `None` when bounds are
/// non-constant at the top level or the instance count exceeds `limit`.
fn footprint(func: &AffineFunc, limit: usize) -> Option<Footprint> {
    let mut out = Footprint::new();
    let mut env: HashMap<String, i64> = HashMap::new();
    if walk(&func.body, &mut env, &mut out, limit) {
        Some(out)
    } else {
        None
    }
}

fn walk(
    ops: &[AffineOp],
    env: &mut HashMap<String, i64>,
    out: &mut Footprint,
    limit: usize,
) -> bool {
    for op in ops {
        match op {
            AffineOp::For(l) => {
                if l.lbs
                    .iter()
                    .chain(&l.ubs)
                    .any(|b| b.expr.vars().any(|v| !env.contains_key(v)))
                {
                    return false;
                }
                let lb = l.lbs.iter().map(|b| b.eval_lower(env)).max();
                let ub = l.ubs.iter().map(|b| b.eval_upper(env)).min();
                let (Some(lb), Some(ub)) = (lb, ub) else {
                    return false;
                };
                for v in lb..=ub {
                    env.insert(l.iv.clone(), v);
                    if !walk(&l.body, env, out, limit) {
                        env.remove(&l.iv);
                        return false;
                    }
                }
                env.remove(&l.iv);
            }
            AffineOp::If(i) => {
                if i.conds
                    .iter()
                    .any(|c| c.expr.vars().any(|v| !env.contains_key(v)))
                {
                    return false;
                }
                if i.conds.iter().all(|c| c.satisfied(env)) && !walk(&i.body, env, out, limit) {
                    return false;
                }
            }
            AffineOp::Store(s) => {
                if s.dest
                    .indices
                    .iter()
                    .any(|e| e.vars().any(|v| !env.contains_key(v)))
                {
                    return false;
                }
                let cell: Vec<i64> = s.dest.indices.iter().map(|e| e.eval_partial(env)).collect();
                out.insert((s.stmt.clone(), s.dest.array.clone(), cell));
                if out.len() > limit {
                    return false;
                }
            }
        }
    }
    true
}

/// Validates that a pass rewrite preserved the per-statement write
/// footprint of `before`.
///
/// # Errors
///
/// A rendered diff naming the pass and up to three differing store
/// instances on each side.
pub fn check_pass(pass: &str, before: &AffineFunc, after: &AffineFunc) -> Result<(), String> {
    let (Some(b), Some(a)) = (
        footprint(before, DEFAULT_LIMIT),
        footprint(after, DEFAULT_LIMIT),
    ) else {
        // Not enumerable (symbolic bounds or too large): nothing to
        // compare; structural verification still guards the rewrite.
        return Ok(());
    };
    if b == a {
        return Ok(());
    }
    let fmt_side = |side: &Footprint, other: &Footprint| -> Vec<String> {
        side.difference(other)
            .take(3)
            .map(|(stmt, array, cell)| {
                let idx: Vec<String> = cell.iter().map(|x| x.to_string()).collect();
                format!("{stmt}: {array}[{}]", idx.join("]["))
            })
            .collect()
    };
    let lost = fmt_side(&b, &a);
    let gained = fmt_side(&a, &b);
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
    fn symbolic_bounds_are_skipped_not_rejected() {
        let mut f = sample_func();
        if let AffineOp::For(l) = &mut f.body[0] {
            l.ubs = vec![Bound::new(LinearExpr::var("n"), 1)];
        }
        assert_eq!(check_pass("p", &f.clone(), &f), Ok(()));
    }
}
