//! IR passes over the affine dialect, MLIR-style: a [`PassManager`]
//! running named rewrites with optional inter-pass verification.
//!
//! Shipped passes:
//!
//! * [`SimplifyBounds`] — interval analysis over the loop nest drops
//!   dominated bound candidates (`max(0, -4*i0)` → `0` when `i0 >= 0`),
//!   cleaning both the printed IR and the emitted HLS C.
//! * [`CollapseUnitLoops`] — loops with a constant single-iteration range
//!   are inlined by substituting the induction variable.
//! * [`MaterializeUnroll`] — fully unrolls loops whose unroll factor
//!   covers a constant trip count, replicating the body with the iv
//!   substituted (what the HLS tool does spatially, made explicit).

use crate::ops::{AffineFunc, AffineOp};
use crate::verify::{verify, VerifyError};
use pom_poly::{ceil_div, floor_div, Bound, LinearExpr};
use std::collections::HashMap;
use std::fmt;

/// An IR rewrite.
pub trait Pass {
    /// The pass name (diagnostics).
    fn name(&self) -> &'static str;
    /// Rewrites the function in place.
    fn run(&self, func: &mut AffineFunc);
}

/// Why a pipeline stopped: a structural invariant broke or a
/// translation-validation hook rejected a rewrite.
#[derive(Debug)]
pub enum PassIssue {
    /// The verifier found the IR structurally invalid.
    Verify(VerifyError),
    /// The check hook rejected a pass's rewrite (rendered certificate).
    Check(String),
}

impl fmt::Display for PassIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassIssue::Verify(e) => write!(f, "{e}"),
            PassIssue::Check(msg) => write!(f, "pass check failed:\n{msg}"),
        }
    }
}

/// A per-pass translation-validation hook: `(pass name, before, after)`.
/// In practice `pom-verify`'s checked mode, which proves each rewrite
/// preserves per-statement write footprints. A hook rather than a direct
/// dependency: the verify crate sits *above* the IR crate.
pub type CheckHook = Box<dyn Fn(&str, &AffineFunc, &AffineFunc) -> Result<(), String>>;

/// Runs a sequence of passes, optionally verifying after each.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
    check: Option<CheckHook>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables verification after every pass.
    pub fn verify_each(mut self, on: bool) -> Self {
        self.verify_each = on;
        self
    }

    /// Attaches a translation-validation hook, called after every pass
    /// with the pass name and the function before/after the rewrite
    /// (checked mode). An `Err` aborts the pipeline, naming the pass.
    pub fn check_each(mut self, hook: CheckHook) -> Self {
        self.check = Some(hook);
        self
    }

    /// Appends a pass.
    #[allow(clippy::should_implement_trait)] // builder method, not arithmetic
    pub fn add(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// The standard cleanup pipeline.
    pub fn standard() -> Self {
        PassManager::new()
            .verify_each(true)
            .add(SimplifyBounds)
            .add(CollapseUnitLoops)
    }

    /// Runs all passes.
    ///
    /// # Errors
    ///
    /// Returns the failing pass name and the issue when `verify_each` is
    /// enabled and a pass breaks an invariant, or when the `check_each`
    /// hook rejects a rewrite.
    pub fn run(&self, func: &mut AffineFunc) -> Result<(), (String, PassIssue)> {
        for p in &self.passes {
            let before = self.check.as_ref().map(|_| func.clone());
            p.run(func);
            if self.verify_each {
                verify(func).map_err(|e| (p.name().to_string(), PassIssue::Verify(e)))?;
            }
            if let (Some(hook), Some(before)) = (&self.check, &before) {
                hook(p.name(), before, func)
                    .map_err(|m| (p.name().to_string(), PassIssue::Check(m)))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// SimplifyBounds
// ---------------------------------------------------------------------

/// Drops loop-bound candidates dominated under interval analysis.
pub struct SimplifyBounds;

/// The `[min, max]` interval of an affine expression given iv ranges.
fn expr_interval(e: &LinearExpr, ranges: &HashMap<String, (i64, i64)>) -> Option<(i64, i64)> {
    let mut lo = e.constant();
    let mut hi = e.constant();
    for (v, c) in e.terms() {
        let &(vlo, vhi) = ranges.get(v)?;
        if c >= 0 {
            lo += c * vlo;
            hi += c * vhi;
        } else {
            lo += c * vhi;
            hi += c * vlo;
        }
    }
    Some((lo, hi))
}

fn bound_interval(
    b: &Bound,
    lower: bool,
    ranges: &HashMap<String, (i64, i64)>,
) -> Option<(i64, i64)> {
    let (lo, hi) = expr_interval(&b.expr, ranges)?;
    Some(if lower {
        (ceil_div(lo, b.div), ceil_div(hi, b.div))
    } else {
        (floor_div(lo, b.div), floor_div(hi, b.div))
    })
}

fn prune_bounds(bs: &mut Vec<Bound>, lower: bool, ranges: &HashMap<String, (i64, i64)>) {
    if bs.len() <= 1 {
        return;
    }
    let intervals: Vec<Option<(i64, i64)>> = bs
        .iter()
        .map(|b| bound_interval(b, lower, ranges))
        .collect();
    let mut keep = vec![true; bs.len()];
    for i in 0..bs.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..bs.len() {
            if i == j || !keep[j] {
                continue;
            }
            let (Some(a), Some(b)) = (intervals[i], intervals[j]) else {
                continue;
            };
            // For lower bounds (max semantics), i dominates j when
            // min(i) >= max(j); for upper bounds (min semantics), when
            // max(i) <= min(j). Break ties by index to keep one.
            let dominates = if lower { a.0 >= b.1 } else { a.1 <= b.0 };
            let strict_or_first = a != b || i < j;
            if dominates && strict_or_first {
                keep[j] = false;
            }
        }
    }
    let mut idx = 0;
    bs.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

fn simplify_ops(ops: &mut [AffineOp], ranges: &mut HashMap<String, (i64, i64)>) {
    for op in ops {
        match op {
            AffineOp::For(l) => {
                prune_bounds(&mut l.lbs, true, ranges);
                prune_bounds(&mut l.ubs, false, ranges);
                // Range of this iv for the inner scope.
                let lo = l
                    .lbs
                    .iter()
                    .filter_map(|b| bound_interval(b, true, ranges))
                    .map(|(lo, _)| lo)
                    .max();
                let hi = l
                    .ubs
                    .iter()
                    .filter_map(|b| bound_interval(b, false, ranges))
                    .map(|(_, hi)| hi)
                    .min();
                if let (Some(lo), Some(hi)) = (lo, hi) {
                    ranges.insert(l.iv.clone(), (lo, hi.max(lo)));
                }
                simplify_ops(&mut l.body, ranges);
                ranges.remove(&l.iv);
            }
            AffineOp::If(i) => simplify_ops(&mut i.body, ranges),
            AffineOp::Store(_) => {}
        }
    }
}

impl Pass for SimplifyBounds {
    fn name(&self) -> &'static str {
        "simplify-bounds"
    }
    fn run(&self, func: &mut AffineFunc) {
        let mut ranges = HashMap::new();
        simplify_ops(&mut func.body, &mut ranges);
    }
}

// ---------------------------------------------------------------------
// CollapseUnitLoops
// ---------------------------------------------------------------------

/// Inlines loops with a constant one-iteration range.
pub struct CollapseUnitLoops;

fn substitute_ops(ops: &mut Vec<AffineOp>, name: &str, value: i64) {
    let rep = LinearExpr::constant_expr(value);
    for op in ops {
        match op {
            AffineOp::For(l) => {
                for b in l.lbs.iter_mut().chain(l.ubs.iter_mut()) {
                    b.expr = b.expr.substituted(name, &rep);
                }
                substitute_ops(&mut l.body, name, value);
            }
            AffineOp::If(i) => {
                for c in &mut i.conds {
                    *c = c.substituted(name, &rep);
                }
                substitute_ops(&mut i.body, name, value);
            }
            AffineOp::Store(s) => {
                for e in &mut s.dest.indices {
                    *e = e.substituted(name, &rep);
                }
                s.value = s.value.substituted(name, &rep);
            }
        }
    }
}

fn collapse_ops(ops: &mut Vec<AffineOp>) {
    let mut i = 0;
    while i < ops.len() {
        let replace = if let AffineOp::For(l) = &mut ops[i] {
            collapse_ops(&mut l.body);
            // Loops carrying HLS attributes are kept: the attribute is the
            // information (a pipelined trip-1 loop still pipelines its
            // body under flattening).
            match (!l.attrs.any()).then(|| l.const_trip_count()).flatten() {
                Some(1) => {
                    let env = HashMap::new();
                    let v = l.lbs.iter().map(|b| b.eval_lower(&env)).max().unwrap_or(0);
                    let mut body = std::mem::take(&mut l.body);
                    substitute_ops(&mut body, &l.iv, v);
                    Some(body)
                }
                _ => None,
            }
        } else {
            if let AffineOp::If(f) = &mut ops[i] {
                collapse_ops(&mut f.body);
            }
            None
        };
        match replace {
            Some(body) => {
                let n = body.len();
                ops.splice(i..=i, body);
                i += n;
            }
            None => i += 1,
        }
    }
}

impl Pass for CollapseUnitLoops {
    fn name(&self) -> &'static str {
        "collapse-unit-loops"
    }
    fn run(&self, func: &mut AffineFunc) {
        collapse_ops(&mut func.body);
    }
}

// ---------------------------------------------------------------------
// MaterializeUnroll
// ---------------------------------------------------------------------

/// Fully unrolls loops whose requested unroll factor covers their constant
/// trip count — making the spatial replication explicit in the IR.
pub struct MaterializeUnroll;

fn unroll_ops(ops: &mut Vec<AffineOp>) {
    let mut i = 0;
    while i < ops.len() {
        let replace = if let AffineOp::For(l) = &mut ops[i] {
            unroll_ops(&mut l.body);
            match (l.attrs.unroll_factor, l.const_trip_count()) {
                (Some(f), Some(trip)) if f >= trip && trip >= 1 => {
                    let env = HashMap::new();
                    let lb = l.lbs.iter().map(|b| b.eval_lower(&env)).max().unwrap_or(0);
                    let mut expanded = Vec::new();
                    for k in 0..trip {
                        let mut copy = l.body.clone();
                        substitute_ops(&mut copy, &l.iv, lb + k);
                        expanded.extend(copy);
                    }
                    Some(expanded)
                }
                _ => None,
            }
        } else {
            if let AffineOp::If(f) = &mut ops[i] {
                unroll_ops(&mut f.body);
            }
            None
        };
        match replace {
            Some(body) => {
                let n = body.len();
                ops.splice(i..=i, body);
                i += n;
            }
            None => i += 1,
        }
    }
}

impl Pass for MaterializeUnroll {
    fn name(&self) -> &'static str {
        "materialize-unroll"
    }
    fn run(&self, func: &mut AffineFunc) {
        unroll_ops(&mut func.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{HlsAttrs, MemRefDecl};
    use crate::ops::{ForOp, StoreOp};
    use pom_dsl::{DataType, MemoryState};
    use pom_poly::AccessFn;

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    /// `for i in 0..=3 { for j in max(0, i-10)..=min(7, i+100) { A[j] += 1 } }`
    fn redundant_bounds_func() -> AffineFunc {
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("A", &[8], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("A", vec![LinearExpr::var("j")]),
            value: pom_dsl::Expr::Load(AccessFn::new("A", vec![LinearExpr::var("j")])) + 1.0,
        };
        let inner = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![cb(0), Bound::new(LinearExpr::var("i") - 10, 1)],
            ubs: vec![cb(7), Bound::new(LinearExpr::var("i") + 100, 1)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(store)],
        };
        let outer = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(3)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(inner)],
        };
        f.body.push(AffineOp::For(outer));
        f
    }

    #[test]
    fn simplify_bounds_drops_dominated_candidates() {
        let mut f = redundant_bounds_func();
        let before_exec = run_interp(&f);
        PassManager::standard().run(&mut f).expect("passes verify");
        if let AffineOp::For(outer) = &f.body[0] {
            if let AffineOp::For(inner) = &outer.body[0] {
                assert_eq!(inner.lbs.len(), 1, "i-10 dominated by 0: {:?}", inner.lbs);
                assert_eq!(inner.ubs.len(), 1, "i+100 dominated by 7: {:?}", inner.ubs);
            } else {
                panic!("inner loop missing");
            }
        }
        assert_eq!(run_interp(&f), before_exec, "semantics preserved");
    }

    #[test]
    fn collapse_unit_loops_inlines() {
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("A", &[8], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("A", vec![LinearExpr::var("i") + LinearExpr::var("one")]),
            value: pom_dsl::Expr::Const(1.0),
        };
        let unit = ForOp {
            extra: Vec::new(),
            iv: "one".into(),
            lbs: vec![cb(3)],
            ubs: vec![cb(3)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(store)],
        };
        let outer = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(2)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(unit)],
        };
        f.body.push(AffineOp::For(outer));
        let before = run_interp(&f);
        PassManager::new()
            .verify_each(true)
            .add(CollapseUnitLoops)
            .run(&mut f)
            .expect("verifies");
        // The unit loop is gone; the store index became i + 3.
        if let AffineOp::For(outer) = &f.body[0] {
            assert!(matches!(outer.body[0], AffineOp::Store(_)));
            if let AffineOp::Store(s) = &outer.body[0] {
                assert_eq!(s.dest.indices[0], LinearExpr::var("i") + 3);
            }
        }
        assert_eq!(run_interp(&f), before);
    }

    #[test]
    fn materialize_unroll_replicates_body() {
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("A", &[8], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("A", vec![LinearExpr::var("j")]),
            value: pom_dsl::Expr::Affine(LinearExpr::var("j") * 2),
        };
        let inner = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(3)],
            attrs: HlsAttrs {
                unroll_factor: Some(4),
                ..Default::default()
            },
            body: vec![AffineOp::Store(store)],
        };
        f.body.push(AffineOp::For(inner));
        let before = run_interp(&f);
        PassManager::new()
            .verify_each(true)
            .add(MaterializeUnroll)
            .run(&mut f)
            .expect("verifies");
        assert_eq!(f.body.len(), 4, "four replicated stores");
        assert!(f.body.iter().all(|op| matches!(op, AffineOp::Store(_))));
        assert_eq!(run_interp(&f), before);
    }

    #[test]
    fn partial_unroll_is_left_alone() {
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("A", &[8], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("A", vec![LinearExpr::var("j")]),
            value: pom_dsl::Expr::Const(1.0),
        };
        let inner = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs {
                unroll_factor: Some(2),
                ..Default::default()
            },
            body: vec![AffineOp::Store(store)],
        };
        f.body.push(AffineOp::For(inner));
        PassManager::new()
            .add(MaterializeUnroll)
            .run(&mut f)
            .unwrap();
        assert!(matches!(f.body[0], AffineOp::For(_)), "factor < trip kept");
    }

    #[test]
    fn check_hook_sees_before_and_after_and_can_reject() {
        let mut f = redundant_bounds_func();
        let err = PassManager::new()
            .add(SimplifyBounds)
            .check_each(Box::new(|pass, before, after| {
                assert_eq!(pass, "simplify-bounds");
                assert_ne!(before, after, "rewrite visible to the hook");
                Err("rejected by test hook".to_string())
            }))
            .run(&mut f)
            .unwrap_err();
        assert_eq!(err.0, "simplify-bounds");
        assert!(matches!(err.1, PassIssue::Check(ref m) if m.contains("rejected by test hook")));
        assert!(err.1.to_string().contains("pass check failed"));

        let mut f = redundant_bounds_func();
        PassManager::standard()
            .check_each(Box::new(|_, _, _| Ok(())))
            .run(&mut f)
            .expect("accepting hook does not abort");
    }

    fn run_interp(f: &AffineFunc) -> Vec<f64> {
        let mut mem = MemoryState::new();
        for m in &f.memrefs {
            mem.insert(m.name.clone(), pom_dsl::ArrayData::zeros(&m.shape));
        }
        crate::interp::execute_func(f, &mut mem);
        f.memrefs
            .iter()
            .flat_map(|m| mem.array(&m.name).unwrap().data().to_vec())
            .collect()
    }
}
