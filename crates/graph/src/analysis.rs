//! Fine-grained per-node dependence analysis (Fig. 8③) and
//! transformation hints.

use pom_dsl::Compute;
use pom_poly::{DepKind, Dependence, DependenceAnalysis};
use std::fmt;

/// The guidance the analysis attaches to a node — consumed by the DSE
/// engine's dependence-aware transformation stage (Section VI-A).
///
/// POM's FPGA-friendly shape keeps loops that *carry* dependences
/// outermost (executed sequentially) and parallel loops innermost (tiled,
/// pipelined, and unrolled) — Fig. 8's guidance of "swapping the inner
/// loop `k` with tight dependencies with the outer loop".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hint {
    /// Carried levels already form an outermost prefix; keep the order.
    KeepOrder,
    /// A dependence is carried at an inner level while an outer level is
    /// parallel: move the carried loop outward by interchanging.
    Interchange {
        /// The inner loop (by iterator name) carrying the tight dependence.
        carried: String,
        /// The parallel outer loop to interchange it with.
        outer: String,
    },
    /// Every loop level carries a dependence: restructure with loop
    /// skewing (wavefront) of `inner` by `outer`.
    Skew {
        /// The outer loop of the wavefront.
        outer: String,
        /// The loop to skew.
        inner: String,
        /// Skew factor (the smallest making all dependences lexicographically
        /// carried by `outer`).
        factor: i64,
    },
    /// A non-uniform dependence was found: set an HLS `DEPENDENCE` pragma
    /// and keep the order (the paper's conservative guidance).
    DependencePragma,
}

impl fmt::Display for Hint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hint::KeepOrder => write!(f, "keep current loop order"),
            Hint::Interchange { carried, outer } => write!(
                f,
                "loop-carried dependence can be alleviated by interchanging the inner loop {carried} with the outer loop {outer}"
            ),
            Hint::Skew {
                outer,
                inner,
                factor,
            } => write!(f, "skew {inner} by {factor}*{outer} (wavefront)"),
            Hint::DependencePragma => {
                write!(f, "non-uniform dependence: set HLS DEPENDENCE pragma")
            }
        }
    }
}

/// The result of fine-grained analysis on one node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeAnalysis {
    /// Iterator names of the nest, outermost first.
    pub dims: Vec<String>,
    /// Reduction dimensions (indices into `dims`), from the store pattern.
    pub reduction_dims: Vec<usize>,
    /// All self-dependences of the node (store↔load on the same array plus
    /// the store's output dependence).
    pub deps: Vec<Dependence>,
    /// Per loop level: the minimal carried distance, if any dependence is
    /// carried there (`None` = level is dependence-free / parallel).
    pub carried_by_level: Vec<Option<i64>>,
    /// The transformation hint.
    pub hint: Hint,
}

impl NodeAnalysis {
    /// Analyzes a compute.
    pub fn of(c: &Compute) -> NodeAnalysis {
        let dims = c.iter_names();
        let domain = c.domain();
        let an = DependenceAnalysis::new();
        let store = c.store();
        let mut deps: Vec<Dependence> = Vec::new();
        // An analysis that overflows `i64` answers "may depend".
        let mut pair = |src, dst, kind| match an.analyze_pair(src, dst, kind, &dims, &domain) {
            Ok(found) => deps.extend(found),
            Err(_) => deps.push(Dependence::unknown(kind, &store.array, dims.len())),
        };

        // Flow: store -> each later read of the same array.
        // Anti: each read -> store.
        for load in c.loads() {
            if load.array == store.array {
                pair(store, load, DepKind::Flow);
                pair(load, store, DepKind::Anti);
            }
        }
        // Output: store -> store.
        pair(store, store, DepKind::Output);

        let mut carried_by_level: Vec<Option<i64>> = vec![None; dims.len()];
        let mut non_uniform = false;
        for d in &deps {
            match (d.carried_level, &d.distance) {
                (Some(l), Some(dist)) => {
                    let v = dist.0[l];
                    carried_by_level[l] = Some(match carried_by_level[l] {
                        Some(cur) => cur.min(v),
                        None => v,
                    });
                }
                (Some(l), None) => {
                    non_uniform = true;
                    carried_by_level[l] = Some(carried_by_level[l].unwrap_or(1));
                }
                (None, _) => {}
            }
        }

        let hint = compute_hint(&dims, &carried_by_level, non_uniform, &deps);
        NodeAnalysis {
            dims,
            reduction_dims: c.reduction_dims(),
            deps,
            carried_by_level,
            hint,
        }
    }

    /// True when any loop level carries a dependence.
    pub fn has_carried_dependence(&self) -> bool {
        self.carried_by_level.iter().any(Option::is_some)
    }

    /// Loop levels with no carried dependence — freely parallelizable.
    pub fn parallel_levels(&self) -> Vec<usize> {
        self.carried_by_level
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// True when a dependence is carried at a level that has a *parallel*
    /// level above it — the misplaced "tight dependence" the stage-1 DSE
    /// moves outward (inner carried levels with everything parallel below
    /// them are the FPGA-friendly shape already).
    pub fn has_misplaced_carried_dependence(&self) -> bool {
        let mut seen_parallel = false;
        for c in &self.carried_by_level {
            match c {
                None => seen_parallel = true,
                Some(_) if seen_parallel => return true,
                Some(_) => {}
            }
        }
        false
    }
}

fn compute_hint(
    dims: &[String],
    carried: &[Option<i64>],
    non_uniform: bool,
    deps: &[Dependence],
) -> Hint {
    if non_uniform {
        return Hint::DependencePragma;
    }
    let n = dims.len();
    if n == 0 {
        return Hint::KeepOrder;
    }
    let carried_levels: Vec<usize> = (0..n).filter(|&l| carried[l].is_some()).collect();
    let parallel_levels: Vec<usize> = (0..n).filter(|&l| carried[l].is_none()).collect();

    if carried_levels.is_empty() {
        return Hint::KeepOrder;
    }
    if parallel_levels.is_empty() {
        // Every level carries a dependence (stencil-like): skew the
        // innermost by the outermost. The factor must make every
        // dependence distance lexicographically carried by the outer loop
        // with a non-negative inner entry.
        let mut factor = 1i64;
        for d in deps {
            if let (Some(dist), Some(_)) = (&d.distance, d.carried_level) {
                if dist.0.len() >= 2 {
                    let (d_outer, d_inner) = (dist.0[0], dist.0[dist.0.len() - 1]);
                    if d_outer > 0 && d_inner < 0 {
                        let needed = (-d_inner + d_outer - 1) / d_outer;
                        factor = factor.max(needed);
                    }
                }
            }
        }
        return Hint::Skew {
            outer: dims[0].clone(),
            inner: dims[n - 1].clone(),
            factor,
        };
    }
    // Carried-prefix check: the FPGA-friendly shape.
    let prefix_ok = carried_levels
        .iter()
        .zip(0..)
        .all(|(&l, expect)| l == expect);
    if prefix_ok {
        return Hint::KeepOrder;
    }
    // Some parallel level sits above a carried level: move the innermost
    // such carried loop outward past the outermost parallel loop.
    let carried_inner = *carried_levels.last().expect("non-empty");
    let parallel_outer = *parallel_levels.first().expect("non-empty");
    Hint::Interchange {
        carried: dims[carried_inner].clone(),
        outer: dims[parallel_outer].clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::{DataType, Function};

    #[test]
    fn gemm_reduction_outermost_keeps_order() {
        // GEMM written (k, i, j) as in the paper's Fig. 4: the carried
        // reduction loop is already outermost — keep.
        let mut f = Function::new("gemm");
        let k = f.var("k", 0, 16);
        let i = f.var("i", 0, 16);
        let j = f.var("j", 0, 16);
        let a = f.placeholder("A", &[16, 16], DataType::F32);
        let b = f.placeholder("B", &[16, 16], DataType::F32);
        let c = f.placeholder("C", &[16, 16], DataType::F32);
        f.compute(
            "s",
            &[k.clone(), i.clone(), j.clone()],
            c.at(&[&i, &j]) + a.at(&[&i, &k]) * b.at(&[&k, &j]),
            c.access(&[&i, &j]),
        );
        let an = NodeAnalysis::of(f.find_compute("s").unwrap());
        assert_eq!(an.reduction_dims, vec![0]);
        assert_eq!(an.carried_by_level, vec![Some(1), None, None]);
        assert_eq!(an.hint, Hint::KeepOrder);
        assert!(!an.has_misplaced_carried_dependence());
        assert_eq!(an.parallel_levels(), vec![1, 2]);
    }

    #[test]
    fn gemm_reduction_innermost_hints_interchange_outward() {
        // Paper Fig. 8: the inner loop k with tight dependences should be
        // swapped with the outer loop.
        let mut f = Function::new("gemm");
        let i = f.var("i", 0, 16);
        let j = f.var("j", 0, 16);
        let k = f.var("k", 0, 16);
        let a = f.placeholder("A", &[16, 16], DataType::F32);
        let b = f.placeholder("B", &[16, 16], DataType::F32);
        let c = f.placeholder("C", &[16, 16], DataType::F32);
        f.compute(
            "s",
            &[i.clone(), j.clone(), k.clone()],
            c.at(&[&i, &j]) + a.at(&[&i, &k]) * b.at(&[&k, &j]),
            c.access(&[&i, &j]),
        );
        let an = NodeAnalysis::of(f.find_compute("s").unwrap());
        assert_eq!(an.carried_by_level, vec![None, None, Some(1)]);
        assert!(an.has_misplaced_carried_dependence());
        match &an.hint {
            Hint::Interchange { carried, outer } => {
                assert_eq!(carried, "k");
                assert_eq!(outer, "i");
            }
            other => panic!("expected interchange hint, got {other:?}"),
        }
    }

    #[test]
    fn bicg_statements_have_asymmetric_hints() {
        // S1: s[j] += r[i]*A[i][j] -> carried at i (outer): keep.
        // S2: q[i] += A[i][j]*p[j] -> carried at j (inner): interchange.
        let mut f = Function::new("bicg");
        let i = f.var("i", 0, 16);
        let j = f.var("j", 0, 16);
        let a = f.placeholder("A", &[16, 16], DataType::F32);
        let p = f.placeholder("p", &[16], DataType::F32);
        let q = f.placeholder("q", &[16], DataType::F32);
        let r = f.placeholder("r", &[16], DataType::F32);
        let s = f.placeholder("s", &[16], DataType::F32);
        f.compute(
            "S1",
            &[i.clone(), j.clone()],
            s.at(&[&j]) + r.at(&[&i]) * a.at(&[&i, &j]),
            s.access(&[&j]),
        );
        f.compute(
            "S2",
            &[i.clone(), j.clone()],
            q.at(&[&i]) + a.at(&[&i, &j]) * p.at(&[&j]),
            q.access(&[&i]),
        );
        let a1 = NodeAnalysis::of(f.find_compute("S1").unwrap());
        let a2 = NodeAnalysis::of(f.find_compute("S2").unwrap());
        assert_eq!(a1.hint, Hint::KeepOrder);
        assert_eq!(a1.carried_by_level, vec![Some(1), None]);
        assert!(!a1.has_misplaced_carried_dependence());
        match &a2.hint {
            Hint::Interchange { carried, outer } => {
                assert_eq!(carried, "j");
                assert_eq!(outer, "i");
            }
            other => panic!("expected interchange, got {other:?}"),
        }
        assert!(a2.has_misplaced_carried_dependence());
    }

    #[test]
    fn seidel_hints_skew() {
        let mut f = Function::new("seidel");
        let i = f.var("i", 1, 15);
        let j = f.var("j", 1, 15);
        let a = f.placeholder("A", &[16, 16], DataType::F32);
        let im1 = i.expr() - 1;
        let jm1 = j.expr() - 1;
        f.compute(
            "s",
            &[i.clone(), j.clone()],
            (a.at(&[im1.clone(), j.expr()]) + a.at(&[i.expr(), jm1.clone()]) + a.at(&[&i, &j]))
                / 3.0,
            a.access(&[&i, &j]),
        );
        let an = NodeAnalysis::of(f.find_compute("s").unwrap());
        assert_eq!(an.carried_by_level, vec![Some(1), Some(1)]);
        match &an.hint {
            Hint::Skew {
                outer,
                inner,
                factor,
            } => {
                assert_eq!(outer, "i");
                assert_eq!(inner, "j");
                assert_eq!(*factor, 1);
            }
            other => panic!("expected skew, got {other:?}"),
        }
    }

    #[test]
    fn jacobi_time_stencil_keeps_time_outermost() {
        // B[t][i] = f(B[t-1][i-1..i+1]): carried only at t, which is
        // already outermost — the FPGA-friendly shape.
        let mut f = Function::new("jacobi");
        let t = f.var("t", 1, 8);
        let i = f.var("i", 1, 15);
        let b = f.placeholder("B", &[9, 16], DataType::F32);
        let tm1 = t.expr() - 1;
        let im1 = i.expr() - 1;
        let ip1 = i.expr() + 1;
        f.compute(
            "s",
            &[t.clone(), i.clone()],
            (b.at(&[tm1.clone(), im1.clone()])
                + b.at(&[tm1.clone(), i.expr()])
                + b.at(&[tm1.clone(), ip1.clone()]))
                / 3.0,
            b.access(&[&t, &i]),
        );
        let an = NodeAnalysis::of(f.find_compute("s").unwrap());
        assert_eq!(an.carried_by_level[0], Some(1));
        assert_eq!(an.carried_by_level[1], None);
        assert_eq!(an.hint, Hint::KeepOrder);
        assert!(!an.has_misplaced_carried_dependence());
    }

    #[test]
    fn elementwise_is_fully_parallel() {
        let mut f = Function::new("scale");
        let i = f.var("i", 0, 16);
        let a = f.placeholder("A", &[16], DataType::F32);
        let b = f.placeholder("B", &[16], DataType::F32);
        f.compute(
            "s",
            std::slice::from_ref(&i),
            a.at(&[&i]) * 2.0,
            b.access(&[&i]),
        );
        let an = NodeAnalysis::of(f.find_compute("s").unwrap());
        assert!(!an.has_carried_dependence());
        assert_eq!(an.hint, Hint::KeepOrder);
        assert_eq!(an.parallel_levels(), vec![0]);
    }

    #[test]
    fn hint_display() {
        let h = Hint::Interchange {
            carried: "k".into(),
            outer: "i".into(),
        };
        assert!(h.to_string().contains("inner loop k with the outer loop i"));
        assert!(Hint::KeepOrder.to_string().contains("keep"));
    }
}
