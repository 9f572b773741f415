//! Property-based tests (proptest) on the polyhedral engine's invariants:
//! projection soundness, transformation bijectivity, codegen exactness,
//! integer-system solving, and schedule ordering.

use pom::poly::{astbuild, fm, AstBuilder, BasicSet, Constraint, LinearExpr, StmtPoly};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A small random rectangular domain of `ndims` dimensions.
fn arb_domain(ndims: usize) -> impl Strategy<Value = Vec<(String, i64, i64)>> {
    proptest::collection::vec((0i64..4, 1i64..6), ndims).prop_map(|ranges| {
        ranges
            .into_iter()
            .enumerate()
            .map(|(i, (lb, extent))| (format!("d{i}"), lb, lb + extent))
            .collect()
    })
}

fn build_set(bounds: &[(String, i64, i64)]) -> BasicSet {
    let refs: Vec<(&str, i64, i64)> = bounds
        .iter()
        .map(|(n, lb, ub)| (n.as_str(), *lb, *ub))
        .collect();
    BasicSet::from_bounds(&refs)
}

/// A random transformation step applied to a statement.
#[derive(Clone, Debug)]
enum Step {
    Interchange(usize, usize),
    Split(usize, i64),
    Skew(i64),
}

fn arb_steps(ndims: usize) -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (0..ndims, 0..ndims).prop_map(|(a, b)| Step::Interchange(a, b)),
        (0..ndims, 2i64..5).prop_map(|(d, f)| Step::Split(d, f)),
        (1i64..3).prop_map(Step::Skew),
    ];
    proptest::collection::vec(step, 0..4)
}

fn apply_steps(s: &mut StmtPoly, steps: &[Step]) {
    let mut fresh = 0;
    for st in steps {
        let dims = s.dims().to_vec();
        match st {
            Step::Interchange(a, b) => {
                let (a, b) = (a % dims.len(), b % dims.len());
                if a != b {
                    s.interchange(&dims[a], &dims[b]);
                }
            }
            Step::Split(d, f) => {
                let d = d % dims.len();
                fresh += 1;
                s.split(&dims[d], *f, &format!("sp{fresh}o"), &format!("sp{fresh}i"))
                    .expect("small factors fit i64");
            }
            Step::Skew(f) => {
                if dims.len() >= 2 {
                    fresh += 1;
                    s.skew(
                        &dims[0],
                        &dims[dims.len() - 1],
                        *f,
                        &format!("sk{fresh}a"),
                        &format!("sk{fresh}b"),
                    )
                    .expect("small factors fit i64");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fourier–Motzkin projection soundness: every point of the set maps
    /// to a point of the projection.
    #[test]
    fn fm_projection_is_sound(bounds in arb_domain(3), extra in 0i64..3) {
        let mut set = build_set(&bounds);
        // A non-rectangular coupling constraint: d0 + d1 <= ub0 + ub1 - extra.
        let coupled = LinearExpr::var("d0") + LinearExpr::var("d1");
        let cap = bounds[0].2 + bounds[1].2 - extra;
        set.add_constraint(Constraint::le(coupled, LinearExpr::constant_expr(cap)));

        let points = set.enumerate_points(&set.level_bounds().unwrap(), 100_000).unwrap();
        let projected = set.project_out(&["d1"]).unwrap();
        for p in points.iter() {
            // Drop d1 (index 1).
            let kept = vec![p[0], p[2]];
            prop_assert!(
                projected.contains(&kept) == Ok(true),
                "projection lost point {kept:?} from {p:?}"
            );
        }
    }

    /// Feasibility agrees with enumeration on small systems.
    #[test]
    fn feasibility_matches_enumeration(bounds in arb_domain(2), cut in -2i64..8) {
        let mut set = build_set(&bounds);
        set.add_constraint(Constraint::ge(
            LinearExpr::var("d0") + LinearExpr::var("d1"),
            LinearExpr::constant_expr(cut),
        ));
        let nonempty = !set
            .enumerate_points(&set.level_bounds().unwrap(), 100_000)
            .unwrap()
            .is_empty();
        prop_assert_eq!(!set.is_empty(), nonempty);
        prop_assert_eq!(fm::feasible(set.constraints()), nonempty);
    }

    /// Every transformation chain preserves the multiset of original
    /// iteration instances (transformations are bijections on the domain).
    #[test]
    fn transformations_preserve_instances(
        bounds in arb_domain(2),
        steps in arb_steps(2),
    ) {
        let refs: Vec<(&str, i64, i64)> = bounds
            .iter()
            .map(|(n, lb, ub)| (n.as_str(), *lb, *ub))
            .collect();
        let mut s = StmtPoly::new("S", &refs);
        let before: BTreeMap<Vec<i64>, usize> =
            count(s.enumerate_original_instances(100_000).unwrap());
        apply_steps(&mut s, &steps);
        let after: BTreeMap<Vec<i64>, usize> =
            count(s.enumerate_original_instances(100_000).unwrap());
        prop_assert_eq!(before, after, "steps: {:?}", steps);
    }

    /// The generated AST executes every original instance exactly once.
    #[test]
    fn codegen_executes_each_instance_once(
        bounds in arb_domain(2),
        steps in arb_steps(2),
    ) {
        let refs: Vec<(&str, i64, i64)> = bounds
            .iter()
            .map(|(n, lb, ub)| (n.as_str(), *lb, *ub))
            .collect();
        let mut s = StmtPoly::new("S", &refs);
        apply_steps(&mut s, &steps);
        let expected: BTreeMap<Vec<i64>, usize> =
            count(s.enumerate_original_instances(100_000).unwrap());

        let mut builder = AstBuilder::new();
        builder.add_stmt(s);
        let ast = builder.build().unwrap();
        let mut executed: BTreeMap<Vec<i64>, usize> = BTreeMap::new();
        astbuild::execute(&ast, &mut |_, args| {
            *executed.entry(args.to_vec()).or_insert(0) += 1;
        });
        prop_assert_eq!(expected, executed, "steps: {:?}", steps);
    }

    /// `solve_integer_system` returns genuine solutions: `A·p == b` and
    /// `A·v == 0` for every nullspace basis vector.
    #[test]
    fn integer_solver_returns_solutions(
        a in proptest::collection::vec(proptest::collection::vec(-3i64..4, 3), 2),
        x0 in proptest::collection::vec(-3i64..4, 3),
    ) {
        // Construct b = A·x0 so the system is solvable by design.
        let b: Vec<i64> = a
            .iter()
            .map(|row| row.iter().zip(&x0).map(|(c, x)| c * x).sum())
            .collect();
        let solved = pom::poly::dependence::solve_integer_system(&a, &b).unwrap();
        prop_assert!(solved.is_some(), "solvable system reported unsolvable");
        let (p, basis) = solved.unwrap();
        for (row, bi) in a.iter().zip(&b) {
            let lhs: i64 = row.iter().zip(&p).map(|(c, x)| c * x).sum();
            prop_assert_eq!(lhs, *bi, "particular is not a solution");
            for v in &basis {
                let nv: i64 = row.iter().zip(v).map(|(c, x)| c * x).sum();
                prop_assert_eq!(nv, 0, "basis vector not in the nullspace");
            }
        }
    }

    /// `after` produces a lexicographically consistent interleaving: for
    /// every shared outer iteration, all S1 instances precede all S2
    /// instances within that iteration, and the loop is shared (each outer
    /// value appears in one contiguous run).
    #[test]
    fn after_interleaves_in_schedule_order(extent in 2i64..6, inner in 1i64..4) {
        let s1 = StmtPoly::new("S1", &[("t", 0, extent - 1), ("i", 0, inner - 1)]);
        let mut s2 = StmtPoly::new("S2", &[("u", 0, extent - 1), ("m", 0, inner - 1)]);
        s2.after(&s1, "t");
        let mut builder = AstBuilder::new();
        builder.add_stmt(s1);
        builder.add_stmt(s2);
        let ast = builder.build().unwrap();
        let mut trace: Vec<(String, i64)> = Vec::new();
        astbuild::execute(&ast, &mut |name, args| {
            trace.push((name.to_string(), args[0]));
        });
        prop_assert_eq!(trace.len() as i64, 2 * extent * inner);
        // Within each t value, S1's run precedes S2's run.
        for t in 0..extent {
            let s1_last = trace
                .iter()
                .rposition(|(n, tv)| n == "S1" && *tv == t)
                .unwrap();
            let s2_first = trace
                .iter()
                .position(|(n, tv)| n == "S2" && *tv == t)
                .unwrap();
            prop_assert!(s1_last < s2_first, "t = {t}: trace {:?}", trace);
        }
    }
}

fn count(v: Vec<Vec<i64>>) -> BTreeMap<Vec<i64>, usize> {
    let mut m = BTreeMap::new();
    for x in v {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}
