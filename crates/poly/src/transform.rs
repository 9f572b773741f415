//! Statement-level polyhedral representation and the loop transformations
//! of Table II (Section V-B of the paper).
//!
//! Each statement carries its iteration *domain* (a [`BasicSet`] over the
//! current, possibly transformed, loop iterators), the *static schedule
//! dimensions* of the classic `2d+1` representation (sequence constants
//! interleaved with the loops, driving the lexicographic execution order),
//! and the affine expressions mapping current iterators back to the
//! *original* iterators — which keeps access functions and statement
//! bodies evaluable after any chain of transformations.
//!
//! Every transformation is a manipulation of integer sets and affine maps,
//! exactly as the paper performs on its polyhedral IR: e.g. tiling `i` by
//! 8 rewrites the domain through `i = 8*i0 + i1 ∧ 0 <= i1 < 8` and
//! projects `i` out.

use crate::constraint::Constraint;
use crate::dependence::{AccessFn, DepKind, Dependence, DependenceAnalysis};
use crate::expr::LinearExpr;
use crate::set::BasicSet;
use std::collections::HashMap;
use std::fmt;

/// A statement (one `compute` of the DSL) in polyhedral form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StmtPoly {
    name: String,
    dims: Vec<String>,
    domain: BasicSet,
    statics: Vec<i64>,
    orig_dims: Vec<String>,
    orig_exprs: Vec<LinearExpr>,
}

impl StmtPoly {
    /// Creates a statement from rectangular bounds `(name, lb, ub)`
    /// (inclusive), in loop order outermost first.
    pub fn new(name: impl Into<String>, bounds: &[(&str, i64, i64)]) -> Self {
        let domain = BasicSet::from_bounds(bounds);
        let dims: Vec<String> = bounds.iter().map(|(n, _, _)| n.to_string()).collect();
        StmtPoly {
            name: name.into(),
            statics: vec![0; dims.len() + 1],
            orig_dims: dims.clone(),
            orig_exprs: dims.iter().map(LinearExpr::var).collect(),
            dims,
            domain,
        }
    }

    /// Creates a statement from an arbitrary (possibly non-rectangular)
    /// domain.
    pub fn from_domain(name: impl Into<String>, domain: BasicSet) -> Self {
        let dims = domain.dims().to_vec();
        StmtPoly {
            name: name.into(),
            statics: vec![0; dims.len() + 1],
            orig_dims: dims.clone(),
            orig_exprs: dims.iter().map(LinearExpr::var).collect(),
            dims,
            domain,
        }
    }

    /// Statement name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current loop iterators, outermost first.
    pub fn dims(&self) -> &[String] {
        &self.dims
    }

    /// The current iteration domain.
    pub fn domain(&self) -> &BasicSet {
        &self.domain
    }

    /// The `2d+1` static sequence constants (`len == dims.len() + 1`).
    pub fn statics(&self) -> &[i64] {
        &self.statics
    }

    /// The original iterator names (before any transformation).
    pub fn orig_dims(&self) -> &[String] {
        &self.orig_dims
    }

    /// The expression of an original iterator in terms of the current
    /// iterators.
    pub fn orig_expr(&self, orig: &str) -> Option<&LinearExpr> {
        let i = self.orig_dims.iter().position(|d| d == orig)?;
        Some(&self.orig_exprs[i])
    }

    /// Rewrites an expression over the original iterators into the current
    /// iterator space.
    pub fn to_current(&self, expr: &LinearExpr) -> LinearExpr {
        // Simultaneous substitution: replacements are not themselves
        // rewritten, so orig names that coincide with current names
        // (identity dims) cannot be captured — this replaces the old
        // two-phase `__orig_*` placeholder rename without the per-call
        // string formatting.
        let subs: Vec<(crate::DimId, &LinearExpr)> = self
            .orig_dims
            .iter()
            .zip(&self.orig_exprs)
            .map(|(d, e)| (crate::DimId::intern(d), e))
            .collect();
        expr.try_substituted_many(&subs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Rewrites an access function into the current iterator space.
    pub fn access_to_current(&self, access: &AccessFn) -> AccessFn {
        AccessFn::new(
            access.array.clone(),
            access.indices.iter().map(|e| self.to_current(e)).collect(),
        )
    }

    /// Index of a current iterator.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d == name)
    }

    /// Sets the outermost sequence constant, ordering whole loop nests.
    pub fn set_order(&mut self, order: i64) {
        self.statics[0] = order;
    }

    // ------------------------------------------------------------------
    // Table II transformations
    // ------------------------------------------------------------------

    /// `s.interchange(i, j)` — swaps two loop levels.
    ///
    /// # Panics
    ///
    /// Panics if either iterator is unknown.
    pub fn interchange(&mut self, a: &str, b: &str) {
        let ia = self.require_dim(a);
        let ib = self.require_dim(b);
        self.dims.swap(ia, ib);
        let order: Vec<&str> = self.dims.iter().map(String::as_str).collect();
        self.domain.reorder_dims(&order);
    }

    /// `s.split(i, t, i0, i1)` — strip-mines loop `i` with factor `t`,
    /// producing outer `i0` and inner `i1` with `i = t*i0 + i1`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is unknown or `t < 1`.
    pub fn split(&mut self, i: &str, t: i64, i0: &str, i1: &str) {
        assert!(t >= 1, "split factor must be >= 1, got {t}");
        let pos = self.require_dim(i);
        let replacement = LinearExpr::term(i0, t) + LinearExpr::var(i1);
        self.domain.substitute(i, &replacement);
        self.domain.replace_dim(i, &[i0, i1]);
        self.domain.add_constraint(Constraint::ge(
            LinearExpr::var(i1),
            LinearExpr::constant_expr(0),
        ));
        self.domain.add_constraint(Constraint::lt(
            LinearExpr::var(i1),
            LinearExpr::constant_expr(t),
        ));
        self.dims
            .splice(pos..=pos, [i0.to_string(), i1.to_string()]);
        self.statics.insert(pos + 1, 0);
        for e in &mut self.orig_exprs {
            *e = e.substituted(i, &replacement);
        }
    }

    /// `s.tile(i, j, t1, t2, i0, j0, i1, j1)` — tiles two *adjacent* loop
    /// levels, producing the order `(i0, j0, i1, j1)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` and `j` are not adjacent loop levels (`j` directly
    /// inside `i`).
    #[allow(clippy::too_many_arguments)]
    pub fn tile(
        &mut self,
        i: &str,
        j: &str,
        t1: i64,
        t2: i64,
        i0: &str,
        j0: &str,
        i1: &str,
        j1: &str,
    ) {
        let pi = self.require_dim(i);
        let pj = self.require_dim(j);
        assert_eq!(
            pj,
            pi + 1,
            "tile requires adjacent loop levels; {i} at {pi}, {j} at {pj}"
        );
        self.split(i, t1, i0, i1);
        self.split(j, t2, j0, j1);
        // Order now: ..., i0, i1, j0, j1, ... -> swap i1 and j0.
        self.interchange(i1, j0);
    }

    /// `s.skew(i, j, f, i2, j2)` — skews loop `j` by `f` times loop `i`:
    /// `i2 = i`, `j2 = f*i + j`. The classic wavefront transformation that
    /// turns dependence direction `(<, >)`-style conflicts into `(<, <)`.
    ///
    /// # Panics
    ///
    /// Panics if either iterator is unknown or `f == 0`.
    pub fn skew(&mut self, i: &str, j: &str, f: i64, i2: &str, j2: &str) {
        assert!(f != 0, "skew factor must be non-zero");
        self.require_dim(i);
        self.require_dim(j);
        // Inverse relations: i = i2, j = j2 - f*i2.
        let j_rep = LinearExpr::var(j2) - LinearExpr::term(i2, f);
        let i_rep = LinearExpr::var(i2);
        self.domain.substitute(j, &j_rep);
        self.domain.substitute(i, &i_rep);
        self.domain.replace_dim(j, &[j2]);
        self.domain.replace_dim(i, &[i2]);
        for e in &mut self.orig_exprs {
            *e = e.substituted(j, &j_rep);
            *e = e.substituted(i, &i_rep);
        }
        for d in &mut self.dims {
            if d == i {
                *d = i2.to_string();
            } else if d == j {
                *d = j2.to_string();
            }
        }
    }

    /// Renames a current iterator (used when fusing loops of two
    /// statements under a shared name).
    pub fn rename_dim(&mut self, from: &str, to: &str) {
        if from == to {
            return;
        }
        let pos = self.require_dim(from);
        self.dims[pos] = to.to_string();
        self.domain.rename_dim(from, to);
        for e in &mut self.orig_exprs {
            *e = e.renamed(from, to);
        }
    }

    /// `s1.after(s2, j)` — schedules `self` after `other`, sharing all
    /// loops up to and including level `j` of `other` (Table II).
    ///
    /// The shared loops of `self` are renamed to `other`'s iterator names.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not an iterator of `other`, or `self` has fewer
    /// loop levels than are being shared.
    pub fn after(&mut self, other: &StmtPoly, j: &str) {
        let depth = other
            .dim_index(j)
            .unwrap_or_else(|| panic!("iterator {j} not found in {}", other.name))
            + 1;
        assert!(
            self.dims.len() >= depth,
            "{} has fewer than {depth} loop levels",
            self.name
        );
        // Two-phase rename: the shared names may permute this statement's
        // own dims (e.g. fusing an interchanged statement), so go through
        // fresh temporaries first.
        for k in 0..depth {
            let mine = self.dims[k].clone();
            self.rename_dim(&mine, &format!("__after_tmp_{k}"));
        }
        for k in 0..depth {
            let shared = other.dims[k].clone();
            self.rename_dim(&format!("__after_tmp_{k}"), &shared);
            self.statics[k] = other.statics[k];
        }
        self.statics[depth] = other.statics[depth] + 1;
    }

    /// Schedules `self` entirely after `other` (no shared loops).
    pub fn after_all(&mut self, other: &StmtPoly) {
        self.statics[0] = other.statics[0] + 1;
    }

    // ------------------------------------------------------------------
    // Analysis helpers
    // ------------------------------------------------------------------

    /// Runs dependence analysis between two accesses expressed over the
    /// *original* iterators, in the *current* (transformed) space.
    pub fn analyze_dependence(
        &self,
        src: &AccessFn,
        dst: &AccessFn,
        kind: DepKind,
    ) -> Vec<Dependence> {
        let src_cur = self.access_to_current(src);
        let dst_cur = self.access_to_current(dst);
        DependenceAnalysis::new().analyze_pair(&src_cur, &dst_cur, kind, &self.dims, &self.domain)
    }

    /// Enumerates the *original* iteration vectors of all instances, used
    /// to verify that transformations preserve the computation set.
    pub fn enumerate_original_instances(&self, limit: usize) -> Vec<Vec<i64>> {
        self.domain
            .enumerate_flat(limit)
            .iter()
            .map(|p| {
                let assignment: HashMap<String, i64> =
                    self.dims.iter().cloned().zip(p.iter().copied()).collect();
                self.orig_exprs
                    .iter()
                    .map(|e| e.eval(&assignment))
                    .collect()
            })
            .collect()
    }

    /// The trip count of the whole nest (product of points), for tests and
    /// latency estimation on small domains.
    pub fn instance_count(&self, limit: usize) -> usize {
        self.domain.enumerate_flat(limit).len()
    }

    fn require_dim(&self, name: &str) -> usize {
        self.dim_index(name)
            .unwrap_or_else(|| panic!("iterator {name} not found in statement {}", self.name))
    }
}

impl fmt::Display for StmtPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: dims=({}) statics={:?} domain={}",
            self.name,
            self.dims.join(", "),
            self.statics,
            self.domain
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn orig_set(s: &StmtPoly) -> BTreeSet<Vec<i64>> {
        s.enumerate_original_instances(100_000)
            .into_iter()
            .collect()
    }

    #[test]
    fn interchange_preserves_instances() {
        let mut s = StmtPoly::new("S", &[("i", 0, 3), ("j", 0, 5)]);
        let before = orig_set(&s);
        s.interchange("i", "j");
        assert_eq!(s.dims(), &["j".to_string(), "i".to_string()]);
        assert_eq!(orig_set(&s), before);
    }

    #[test]
    fn split_preserves_instances() {
        let mut s = StmtPoly::new("S", &[("i", 0, 31)]);
        let before = orig_set(&s);
        s.split("i", 8, "i0", "i1");
        assert_eq!(s.dims(), &["i0".to_string(), "i1".to_string()]);
        assert_eq!(orig_set(&s), before);
        assert_eq!(s.instance_count(100_000), 32);
    }

    #[test]
    fn split_non_divisible_factor() {
        // 0..=30 split by 8: 31 instances, partial last tile.
        let mut s = StmtPoly::new("S", &[("i", 0, 30)]);
        s.split("i", 8, "i0", "i1");
        assert_eq!(s.instance_count(100_000), 31);
    }

    #[test]
    fn paper_tiling_example() {
        // Section V-B: tiling {S(t, i) : 0<=t<=31, 0<=i<=31} at i by 8
        // gives {S(t,i0,i1) : 0<=t<=31, 0<=i0<=3, 0<=i1<=7}.
        let mut s = StmtPoly::new("S", &[("t", 0, 31), ("i", 0, 31)]);
        s.split("i", 8, "i0", "i1");
        assert_eq!(s.instance_count(2_000_000), 32 * 32);
        let (lbs, ubs) = s.domain().bounds_of("i0");
        let empty = HashMap::new();
        let lb = lbs
            .iter()
            .map(|(e, d)| crate::ceil_div(e.eval_partial(&empty), *d))
            .max()
            .unwrap();
        let ub = ubs
            .iter()
            .map(|(e, d)| crate::floor_div(e.eval_partial(&empty), *d))
            .min()
            .unwrap();
        assert_eq!((lb, ub), (0, 3));
    }

    #[test]
    fn tile_2d_order_and_instances() {
        let mut s = StmtPoly::new("S", &[("i", 0, 31), ("j", 0, 31)]);
        let before = orig_set(&s);
        s.tile("i", "j", 4, 4, "i0", "j0", "i1", "j1");
        assert_eq!(
            s.dims(),
            &[
                "i0".to_string(),
                "j0".to_string(),
                "i1".to_string(),
                "j1".to_string()
            ]
        );
        assert_eq!(orig_set(&s), before);
    }

    #[test]
    fn skew_preserves_instances_and_changes_dependence() {
        let mut s = StmtPoly::new("S", &[("t", 0, 3), ("i", 0, 3)]);
        let before = orig_set(&s);
        s.skew("t", "i", 1, "t2", "i2");
        assert_eq!(orig_set(&s), before);
        // Skewed domain is non-rectangular: i2 in [t2, t2+3].
        assert!(s.domain().contains(&[3, 6]));
        assert!(!s.domain().contains(&[0, 4]));

        // Jacobi-style dependence (1, -1) becomes (1, 0) after skewing:
        // write A[t][i], read A[t-1][i+1].
        let w = AccessFn::new("A", vec![LinearExpr::var("t"), LinearExpr::var("i")]);
        let r = AccessFn::new(
            "A",
            vec![LinearExpr::var("t") - 1, LinearExpr::var("i") + 1],
        );
        let deps = s.analyze_dependence(&w, &r, DepKind::Flow);
        assert!(deps
            .iter()
            .any(|d| d.distance == Some(crate::DistanceVector(vec![1, 0]))));
    }

    #[test]
    fn orig_expr_tracks_transformations() {
        let mut s = StmtPoly::new("S", &[("i", 0, 31)]);
        s.split("i", 8, "i0", "i1");
        let e = s.orig_expr("i").unwrap();
        assert_eq!(e.coeff("i0"), 8);
        assert_eq!(e.coeff("i1"), 1);

        // Access A[i+1] in current space: A[8*i0 + i1 + 1].
        let acc = AccessFn::new("A", vec![LinearExpr::var("i") + 1]);
        let cur = s.access_to_current(&acc);
        assert_eq!(cur.indices[0].coeff("i0"), 8);
        assert_eq!(cur.indices[0].constant(), 1);
    }

    #[test]
    fn after_shares_loops_and_sequences() {
        let s1 = StmtPoly::new("S1", &[("t", 0, 9), ("i", 1, 30)]);
        let mut s2 = StmtPoly::new("S2", &[("u", 0, 9), ("m", 1, 30)]);
        s2.after(&s1, "t");
        assert_eq!(s2.dims()[0], "t");
        assert_eq!(s2.statics()[0], s1.statics()[0]);
        assert_eq!(s2.statics()[1], s1.statics()[1] + 1);
    }

    #[test]
    fn interchange_then_dependence_moves_level() {
        // BICG q[i] case: carried at level 1 (j); after interchange the
        // dependence is carried at level... i is now inner so level 0.
        let mut s = StmtPoly::new("S", &[("i", 0, 15), ("j", 0, 15)]);
        let acc = AccessFn::new("q", vec![LinearExpr::var("i")]);
        let before = s.analyze_dependence(&acc, &acc, DepKind::Flow);
        assert!(before
            .iter()
            .any(|d| d.carried_level == Some(1) && d.carried_distance() == Some(1)));
        s.interchange("i", "j");
        let after = s.analyze_dependence(&acc, &acc, DepKind::Flow);
        // Now the reuse of q[i] happens along j, which is the *outer* loop:
        // carried at level 0.
        assert!(after
            .iter()
            .any(|d| d.carried_level == Some(0) && d.carried_distance() == Some(1)));
    }

    #[test]
    #[should_panic(expected = "iterator z not found")]
    fn unknown_iterator_panics() {
        let mut s = StmtPoly::new("S", &[("i", 0, 3)]);
        s.interchange("z", "i");
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn tile_requires_adjacent_levels() {
        let mut s = StmtPoly::new("S", &[("i", 0, 3), ("k", 0, 3), ("j", 0, 3)]);
        s.tile("i", "j", 2, 2, "i0", "j0", "i1", "j1");
    }
}
