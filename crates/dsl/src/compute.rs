//! The `compute` operation: a statement over an iteration domain.

use crate::expr::Expr;
use crate::types::Var;
use pom_poly::{AccessFn, BasicSet, StmtPoly};
use std::fmt;

/// One `compute` of the DSL (Fig. 4, L8): an iteration domain given by
/// ordered iterators (outermost first), a body expression, and the store
/// destination.
#[derive(Clone, Debug, PartialEq)]
pub struct Compute {
    name: String,
    iters: Vec<Var>,
    body: Expr,
    store: AccessFn,
}

impl Compute {
    /// Creates a compute.
    ///
    /// # Panics
    ///
    /// Panics if no iterators are given.
    pub fn new(name: impl Into<String>, iters: &[Var], body: Expr, store: AccessFn) -> Self {
        let name = name.into();
        assert!(!iters.is_empty(), "compute {name} needs iterators");
        Compute {
            name,
            iters: iters.to_vec(),
            body,
            store,
        }
    }

    /// The compute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered iterators, outermost first.
    pub fn iters(&self) -> &[Var] {
        &self.iters
    }

    /// The body expression.
    pub fn body(&self) -> &Expr {
        &self.body
    }

    /// The store destination.
    pub fn store(&self) -> &AccessFn {
        &self.store
    }

    /// Iterator names in loop order.
    pub fn iter_names(&self) -> Vec<String> {
        self.iters.iter().map(|v| v.name().to_string()).collect()
    }

    /// All loads of the body.
    pub fn loads(&self) -> Vec<&AccessFn> {
        self.body.loads()
    }

    /// The iteration domain as an integer set (inclusive upper bounds).
    pub fn domain(&self) -> BasicSet {
        let bounds: Vec<(&str, i64, i64)> = self
            .iters
            .iter()
            .map(|v| (v.name(), v.lb(), v.ub() - 1))
            .collect();
        BasicSet::from_bounds(&bounds)
    }

    /// The statement-level polyhedral representation: identity schedule
    /// over the declared domain — the entry point into the polyhedral IR.
    pub fn to_stmt_poly(&self) -> StmtPoly {
        StmtPoly::from_domain(self.name.clone(), self.domain())
    }

    /// Total number of statement instances.
    pub fn trip_count(&self) -> u64 {
        self.iters.iter().map(|v| v.extent() as u64).product()
    }

    /// Reduction dimensions: iterators absent from the store pattern
    /// (paper Fig. 8③).
    pub fn reduction_dims(&self) -> Vec<usize> {
        self.store.reduction_dims(&self.iter_names())
    }

    /// True when the compute both reads and writes its store target — an
    /// update/accumulation statement.
    pub fn is_update(&self) -> bool {
        self.loads().iter().any(|l| l.array == self.store.array)
    }
}

impl fmt::Display for Compute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let iters: Vec<String> = self.iters.iter().map(|v| v.name().to_string()).collect();
        write!(
            f,
            "compute {}[{}]: {} = {}",
            self.name,
            iters.join(", "),
            self.store,
            self.body
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataType, Placeholder};

    fn gemm_compute() -> Compute {
        let i = Var::new("i", 0, 32);
        let j = Var::new("j", 0, 32);
        let k = Var::new("k", 0, 32);
        let a = Placeholder::new("A", &[32, 32], DataType::F32);
        let b = Placeholder::new("B", &[32, 32], DataType::F32);
        let c = Placeholder::new("C", &[32, 32], DataType::F32);
        Compute::new(
            "s",
            &[k.clone(), i.clone(), j.clone()],
            a.at(&[&i, &j]) + b.at(&[&i, &k]) * c.at(&[&k, &j]),
            a.access(&[&i, &j]),
        )
    }

    #[test]
    fn gemm_structure() {
        let s = gemm_compute();
        assert_eq!(s.iter_names(), ["k", "i", "j"]);
        assert_eq!(s.trip_count(), 32 * 32 * 32);
        assert_eq!(s.loads().len(), 3);
        assert!(s.is_update());
        // Store A(i, j) under iterators (k, i, j): reduction dim is k (0).
        assert_eq!(s.reduction_dims(), vec![0]);
    }

    #[test]
    fn domain_matches_ranges() {
        let s = gemm_compute();
        let d = s.domain();
        assert_eq!(d.dim_count(), 3);
        assert_eq!(d.contains(&[31, 31, 31]), Ok(true));
        assert_eq!(d.contains(&[32, 0, 0]), Ok(false));
    }

    #[test]
    fn stmt_poly_roundtrip() {
        let s = gemm_compute();
        let sp = s.to_stmt_poly();
        assert_eq!(sp.name(), "s");
        assert_eq!(sp.dims().len(), 3);
    }

    #[test]
    fn display_shows_statement() {
        let s = gemm_compute();
        let text = s.to_string();
        assert!(text.contains("compute s"));
        assert!(text.contains("A[i][j]"));
    }

    #[test]
    #[should_panic(expected = "needs iterators")]
    fn empty_iterators_panic() {
        let a = Placeholder::new("A", &[4], DataType::F32);
        let i = Var::new("i", 0, 4);
        Compute::new("s", &[], a.at(&[&i]), a.access(&[&i]));
    }
}
