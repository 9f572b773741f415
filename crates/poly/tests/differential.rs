//! Differential proptest suite: the dense interned-space kernel against
//! the preserved name-keyed seed implementation (`pom_poly::reference`).
//!
//! Every property materializes one randomly generated constraint system
//! into *both* representations and demands identical observable behavior:
//! rendering, evaluation, feasibility, emptiness, projection (compared on
//! integer points, since the dense kernel may drop syntactically redundant
//! rows the reference keeps), per-dimension bounds, point enumeration, and
//! full dependence analysis. The vendored proptest is deterministic (the
//! RNG seed derives from the test name), so a green run pins the dense
//! kernel to the seed semantics for these generators permanently — for
//! bounds, where projecting outermost first is itself exact. Elsewhere
//! `bounds_of` may be tighter than the reference (its innermost-first
//! chain keeps exactly the integer projection), with the same integer
//! points: `exact_chain_is_tighter_than_outermost_first` pins one such
//! system, `inexact_chain_falls_back_to_outermost_first` the fallback.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

use pom_poly::reference;

/// Dimension names used by every generated system. The prefix keeps the
/// global intern table's entries for this suite recognizable; interning is
/// process-wide and append-only, so sharing names across cases is fine.
const DIMS: [&str; 3] = ["dp_i", "dp_j", "dp_k"];

/// One abstract constraint: `kind` (0 = equality, else inequality),
/// a coefficient per dimension in `DIMS`, and a constant.
type Spec = (i64, Vec<i64>, i64);

fn spec_strategy() -> impl Strategy<Value = Vec<Spec>> {
    vec((0i64..4, vec(-3i64..4, 3), -8i64..9), 1..6)
}

fn dense_expr(coeffs: &[i64], constant: i64) -> pom_poly::LinearExpr {
    let mut e = pom_poly::LinearExpr::constant_expr(constant);
    for (d, &c) in DIMS.iter().zip(coeffs) {
        e.set_coeff(*d, c);
    }
    e
}

fn ref_expr(coeffs: &[i64], constant: i64) -> reference::LinearExpr {
    let mut e = reference::LinearExpr::constant_expr(constant);
    for (d, &c) in DIMS.iter().zip(coeffs) {
        e.set_coeff(*d, c);
    }
    e
}

fn materialize(spec: &[Spec]) -> (Vec<pom_poly::Constraint>, Vec<reference::Constraint>) {
    let dense = spec
        .iter()
        .map(|(kind, coeffs, c)| {
            let e = dense_expr(coeffs, *c);
            if *kind == 0 {
                pom_poly::Constraint::eq_zero(e)
            } else {
                pom_poly::Constraint::ge_zero(e)
            }
        })
        .collect();
    let named = spec
        .iter()
        .map(|(kind, coeffs, c)| {
            let e = ref_expr(coeffs, *c);
            if *kind == 0 {
                reference::Constraint::eq_zero(e)
            } else {
                reference::Constraint::ge_zero(e)
            }
        })
        .collect();
    (dense, named)
}

/// Both sets over the box `0 <= d <= 4` per dimension plus the random
/// system — bounded domains keep enumeration and projection small.
fn materialize_sets(spec: &[Spec]) -> (pom_poly::BasicSet, reference::BasicSet) {
    let bounds: Vec<(&str, i64, i64)> = DIMS.iter().map(|d| (*d, 0, 4)).collect();
    let mut dense = pom_poly::BasicSet::from_bounds(&bounds);
    let mut named = reference::BasicSet::from_bounds(&bounds);
    let (dc, nc) = materialize(spec);
    for c in dc {
        dense.add_constraint(c);
    }
    for c in nc {
        named.add_constraint(c);
    }
    (dense, named)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interning round-trip: a dense expression renders and evaluates
    /// exactly like the `BTreeMap`-backed original.
    #[test]
    fn expr_display_and_eval_match(
        coeffs in vec(-9i64..10, 3),
        constant in -20i64..21,
        point in vec(-5i64..6, 3),
    ) {
        let d = dense_expr(&coeffs, constant);
        let n = ref_expr(&coeffs, constant);
        prop_assert_eq!(d.to_string(), n.to_string());
        let assignment: HashMap<String, i64> = DIMS
            .iter()
            .zip(&point)
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        prop_assert_eq!(d.eval(&assignment), n.eval(&assignment));
        prop_assert_eq!(d.coeff_gcd(), n.coeff_gcd());
        prop_assert_eq!(d.is_zero(), n.is_zero());
        prop_assert_eq!(d.is_constant(), n.is_constant());
    }

    /// Fourier–Motzkin feasibility agrees on raw constraint systems.
    #[test]
    fn feasible_matches(spec in spec_strategy()) {
        let (dense, named) = materialize(&spec);
        prop_assert_eq!(
            pom_poly::fm::feasible(&dense),
            reference::fm::feasible(&named)
        );
    }

    /// `BasicSet::is_empty` agrees on bounded domains.
    #[test]
    fn is_empty_matches(spec in spec_strategy()) {
        let (dense, named) = materialize_sets(&spec);
        prop_assert_eq!(dense.is_empty(), named.is_empty());
    }

    /// Projection agrees on integer points. The dense kernel drops
    /// syntactically redundant rows before fan-out, so the emitted
    /// constraint lists may differ — but they must describe the same
    /// integer set.
    #[test]
    fn projection_integer_points_match(spec in spec_strategy()) {
        let (dense, named) = materialize(&spec);
        let dense_proj = pom_poly::fm::eliminate(&dense, "dp_k").into_constraints();
        let named_proj = reference::fm::eliminate(&named, "dp_k").into_constraints();
        for i in -2i64..7 {
            for j in -2i64..7 {
                let p: HashMap<String, i64> = [
                    ("dp_i".to_string(), i),
                    ("dp_j".to_string(), j),
                ]
                .into();
                let in_dense = dense_proj.iter().all(|c| c.satisfied(&p));
                let in_named = named_proj.iter().all(|c| c.satisfied(&p));
                prop_assert_eq!(in_dense, in_named, "point ({}, {})", i, j);
            }
        }
    }

    /// Per-dimension bounds agree *effectively*: what codegen consumes is
    /// `max` over the lower bound terms and `min` over the upper bound
    /// terms, and the dense kernel may drop a redundant parallel bound the
    /// reference keeps — so the term lists are compared by the loop bound
    /// they produce at every probe assignment of the outer dimensions,
    /// not syntactically.
    #[test]
    fn bounds_of_matches(spec in spec_strategy()) {
        fn ceil_div(a: i64, b: i64) -> i64 {
            -((-a).div_euclid(b))
        }
        let (dense, named) = materialize_sets(&spec);
        // Bounds of an empty set are meaningless (and the dense kernel is
        // more eager about proving emptiness: it simplifies before a
        // zero-variable projection where the reference returns the raw
        // rows). Emptiness itself agrees — `is_empty_matches` pins that.
        if dense.is_empty() {
            continue;
        }
        for (idx, d) in DIMS.iter().enumerate() {
            let (dlo, dhi) = dense.bounds_of(d);
            let (nlo, nhi) = named.bounds_of(d);
            // Probe every assignment of the outer dims in a small box.
            let outer = &DIMS[..idx];
            let mut probes = vec![HashMap::new()];
            for o in outer {
                probes = probes
                    .into_iter()
                    .flat_map(|p: HashMap<String, i64>| {
                        (-1i64..6).map(move |v| {
                            let mut q = p.clone();
                            q.insert(o.to_string(), v);
                            q
                        })
                    })
                    .collect();
            }
            for p in &probes {
                let dense_lb = dlo.iter().map(|(e, k)| ceil_div(e.eval(p), *k)).max();
                let named_lb = nlo.iter().map(|(e, k)| ceil_div(e.eval(p), *k)).max();
                prop_assert_eq!(dense_lb, named_lb, "lower bound of {} at {:?} spec {:?}", d, p, spec);
                let dense_ub = dhi.iter().map(|(e, k)| e.eval(p).div_euclid(*k)).min();
                let named_ub = nhi.iter().map(|(e, k)| e.eval(p).div_euclid(*k)).min();
                prop_assert_eq!(dense_ub, named_ub, "upper bound of {} at {:?}", d, p);
            }
        }
    }

    /// Point membership and exhaustive enumeration agree.
    #[test]
    fn contains_and_enumeration_match(spec in spec_strategy(), probe in vec(-1i64..6, 3)) {
        let (dense, named) = materialize_sets(&spec);
        prop_assert_eq!(dense.contains(&probe), named.contains(&probe));
        prop_assert_eq!(dense.enumerate_points(500), named.enumerate_points(500));
        prop_assert_eq!(dense.count_points(), named.count_points());
    }

    /// The fallible enumerator returns the reference enumeration, and
    /// `None` exactly when that holds more than `limit` points or the
    /// walk meets a dimension without a lower or an upper bound. The
    /// outermost dimension is the one left unboxed, so the walk always
    /// reaches it.
    #[test]
    fn try_enumerate_points_matches(
        spec in spec_strategy(),
        limit in 0usize..60,
        boxed_from in 0usize..2,
    ) {
        let mut system: Vec<Spec> = Vec::new();
        for d in boxed_from..DIMS.len() {
            let mut unit = vec![0; DIMS.len()];
            unit[d] = 1;
            system.push((1, unit.clone(), 0)); // d >= 0
            unit[d] = -1;
            system.push((1, unit, 4)); // d <= 4
        }
        system.extend(spec.iter().cloned());
        let (dc, nc) = materialize(&system);
        let mut dense = pom_poly::BasicSet::universe(&DIMS);
        let mut named = reference::BasicSet::universe(&DIMS);
        dc.into_iter().for_each(|c| dense.add_constraint(c));
        nc.into_iter().for_each(|c| named.add_constraint(c));

        let (lbs, ubs) = named.bounds_of(DIMS[0]);
        let expected = if lbs.is_empty() || ubs.is_empty() {
            None
        } else {
            let all = named.enumerate_points(1_000_000);
            (all.len() <= limit).then_some(all)
        };
        prop_assert_eq!(dense.try_enumerate_points(limit), expected, "limit {} system {:?}", limit, system);
    }

    /// The one-table form of `bounds_of`: `level_bounds()[k]` is
    /// `bounds_of(dims[k])` term for term, on boxed sets and on the raw
    /// (possibly unbounded) system alike.
    #[test]
    fn level_bounds_match_bounds_of(spec in spec_strategy()) {
        let (boxed, _) = materialize_sets(&spec);
        let mut open = pom_poly::BasicSet::universe(&DIMS);
        materialize(&spec).0.into_iter().for_each(|c| open.add_constraint(c));
        for set in [boxed, open] {
            let levels = set.level_bounds();
            prop_assert_eq!(levels.len(), DIMS.len());
            for (k, d) in DIMS.iter().enumerate() {
                prop_assert_eq!(&levels[k], &set.bounds_of(d), "level {} of {}", k, set);
            }
        }
    }

    /// Enumerating from a level-bounds table walks exactly like
    /// `try_enumerate_points`, `None` cases included: the table built one
    /// `bounds_of` at a time and the one `level_bounds` returns give the
    /// same answer. Same systems as `try_enumerate_points_matches`.
    #[test]
    fn enumeration_from_level_bounds_matches(
        spec in spec_strategy(),
        limit in 0usize..60,
        boxed_from in 0usize..2,
    ) {
        let mut system: Vec<Spec> = Vec::new();
        for d in boxed_from..DIMS.len() {
            let mut unit = vec![0; DIMS.len()];
            unit[d] = 1;
            system.push((1, unit.clone(), 0)); // d >= 0
            unit[d] = -1;
            system.push((1, unit, 4)); // d <= 4
        }
        system.extend(spec.iter().cloned());
        let mut dense = pom_poly::BasicSet::universe(&DIMS);
        materialize(&system).0.into_iter().for_each(|c| dense.add_constraint(c));

        let by_dim: Vec<pom_poly::LevelBounds> = DIMS.iter().map(|d| dense.bounds_of(d)).collect();
        let expected = dense.try_enumerate_points(limit);
        prop_assert_eq!(dense.try_enumerate_points_with(&by_dim, limit), expected.clone());
        prop_assert_eq!(
            dense.try_enumerate_points_with(&dense.level_bounds(), limit),
            expected,
            "limit {} system {:?}", limit, system
        );
    }

    /// Projection through the `BasicSet` surface agrees on the surviving
    /// integer points.
    #[test]
    fn project_out_matches(spec in spec_strategy()) {
        let (dense, named) = materialize_sets(&spec);
        let dp = dense.project_out(&["dp_k"]);
        let np = named.project_out(&["dp_k"]);
        prop_assert_eq!(dp.dims(), np.dims());
        prop_assert_eq!(dp.enumerate_points(500), np.enumerate_points(500));
    }

    /// Full dependence analysis — distance vectors, direction vectors,
    /// carried levels — renders identically for random affine accesses on
    /// a 2-D nest.
    #[test]
    fn dependence_matches(
        wc in vec(-2i64..3, 2),
        woff in -2i64..3,
        rc in vec(-2i64..3, 2),
        roff in -2i64..3,
    ) {
        let dims = ["dp_i".to_string(), "dp_j".to_string()];
        let bounds = [("dp_i", 0i64, 7i64), ("dp_j", 0, 7)];

        let idx = |c: &[i64], off: i64| -> pom_poly::LinearExpr {
            let mut e = pom_poly::LinearExpr::constant_expr(off);
            e.set_coeff("dp_i", c[0]);
            e.set_coeff("dp_j", c[1]);
            e
        };
        let ridx = |c: &[i64], off: i64| -> reference::LinearExpr {
            let mut e = reference::LinearExpr::constant_expr(off);
            e.set_coeff("dp_i", c[0]);
            e.set_coeff("dp_j", c[1]);
            e
        };

        let dense_domain = pom_poly::BasicSet::from_bounds(&bounds);
        let named_domain = reference::BasicSet::from_bounds(&bounds);
        let dw = pom_poly::AccessFn::new("A", vec![idx(&wc, 0), idx(&wc, woff)]);
        let dr = pom_poly::AccessFn::new("A", vec![idx(&rc, 0), idx(&rc, roff)]);
        let nw = reference::AccessFn::new("A", vec![ridx(&wc, 0), ridx(&wc, woff)]);
        let nr = reference::AccessFn::new("A", vec![ridx(&rc, 0), ridx(&rc, roff)]);

        let dense_deps = pom_poly::DependenceAnalysis::new().analyze_pair(
            &dw, &dr, pom_poly::DepKind::Flow, &dims, &dense_domain,
        );
        let named_deps = reference::DependenceAnalysis::new().analyze_pair(
            &nw, &nr, reference::dependence::DepKind::Flow, &dims, &named_domain,
        );
        let render_d: Vec<String> = dense_deps.iter().map(|d| d.to_string()).collect();
        let render_n: Vec<String> = named_deps.iter().map(|d| d.to_string()).collect();
        prop_assert_eq!(render_d, render_n);
    }
}

/// Dimension names of the POM-shaped systems, outermost first.
const EX: [&str; 3] = ["ex_x", "ex_y", "ex_z"];

/// One POM-shaped system over `EX`: `(y_shape, z_shape, tile, extent,
/// skew, low, width)`. `x` is a box; `y` a box, a skew row over `x`, or
/// the intra-tile dimension under `x` (`0 <= tile·x + y <= extent`); `z`
/// a box, a skew row over `y` or over `x` and `y`, the intra-tile
/// dimension under `y`, or a split of it (the tile's upper row only).
type Shape = (u8, u8, i64, i64, i64, i64, i64);

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        (0u8..3, 0u8..5),
        (2i64..5, 3i64..13),
        (-2i64..3, -2i64..3, 0i64..5),
    )
        .prop_map(|((y_shape, z_shape), (tile, extent), (skew, low, width))| {
            (y_shape, z_shape, tile, extent, skew, low, width)
        })
}

/// The rows `coeffs·(x, y, z) + constant >= 0` of a shape.
fn shape_rows(shape: Shape) -> Vec<([i64; 3], i64)> {
    let (y_shape, z_shape, tile, extent, skew, low, width) = shape;
    let mut rows = vec![([1, 0, 0], -low), ([-1, 0, 0], low + width)];
    // `low <= coeffs·p <= low + width`.
    let mut band = |coeffs: [i64; 3]| {
        rows.push((coeffs, -low));
        rows.push((coeffs.map(|c| -c), low + width));
    };
    match y_shape {
        0 => band([0, 1, 0]),
        1 => band([-skew, 1, 0]),
        _ => {}
    }
    match z_shape {
        0 => band([0, 0, 1]),
        1 => band([0, -skew, 1]),
        2 => band([-skew, -1, 1]),
        _ => {}
    }
    if y_shape == 2 {
        rows.extend([([tile, 1, 0], 0), ([-tile, -1, 0], extent)]);
        rows.extend([([0, 1, 0], 0), ([0, -1, 0], tile - 1)]);
    }
    if z_shape >= 3 {
        if z_shape == 3 {
            rows.push(([0, tile, 1], 0));
        }
        rows.push(([0, -tile, -1], extent));
        rows.extend([([0, 0, 1], 0), ([0, 0, -1], tile - 1)]);
    }
    rows
}

fn shape_set(rows: &[([i64; 3], i64)]) -> pom_poly::BasicSet {
    let mut set = pom_poly::BasicSet::universe(&EX);
    for (coeffs, constant) in rows {
        let mut e = pom_poly::LinearExpr::constant_expr(*constant);
        for (d, &c) in EX.iter().zip(coeffs) {
            e.set_coeff(*d, c);
        }
        set.add_constraint(pom_poly::Constraint::ge_zero(e));
    }
    set
}

/// Every point of a shape, by brute force over a box that holds them
/// all (`|x| <= 6`, so `|y| <= 20` and `|z| <= 50`).
fn shape_points(rows: &[([i64; 3], i64)]) -> Vec<[i64; 3]> {
    let mut points = Vec::new();
    for x in -6..=6 {
        for y in -20..=20 {
            for z in -50..=50 {
                let p = [x, y, z];
                let holds = rows.iter().all(|(coeffs, constant)| {
                    coeffs.iter().zip(p).map(|(c, v)| c * v).sum::<i64>() + constant >= 0
                });
                if holds {
                    points.push(p);
                }
            }
        }
    }
    points
}

/// Walks `levels` like the enumerator does and checks, at every prefix
/// it reaches, that the level's bounds are exactly the brute-force fiber:
/// the values the next dimension takes over the points with that prefix.
fn check_fibers(levels: &[pom_poly::LevelBounds], points: &[[i64; 3]], prefix: &mut Vec<i64>) {
    let k = prefix.len();
    if k == EX.len() {
        return;
    }
    let env: HashMap<String, i64> = EX
        .iter()
        .map(|d| d.to_string())
        .zip(prefix.iter().copied())
        .collect();
    let (lbs, ubs) = &levels[k];
    let lb = lbs
        .iter()
        .map(|(e, d)| pom_poly::ceil_div(e.eval_partial(&env), *d))
        .max();
    let ub = ubs
        .iter()
        .map(|(e, d)| pom_poly::floor_div(e.eval_partial(&env), *d))
        .min();
    let (Some(lb), Some(ub)) = (lb, ub) else {
        panic!("level {k} unbounded at {prefix:?}");
    };
    let mut fiber: Vec<i64> = points
        .iter()
        .filter(|p| p[..k] == prefix[..])
        .map(|p| p[k])
        .collect();
    fiber.sort_unstable();
    fiber.dedup();
    let expected: Vec<i64> = (lb..=ub).collect();
    prop_assert_eq!(&fiber, &expected, "level {} at {:?}", k, prefix);
    for v in lb..=ub {
        prefix.push(v);
        check_fibers(levels, points, prefix);
        prefix.pop();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On the systems POM's transformations build — boxes under tile,
    /// split and skew rows — every projection step is exact, so the
    /// level bounds are the integer projection itself: at every prefix
    /// the walk reaches, a level's bounds give exactly the values the
    /// set's points take there, and the walk reaches no other prefix.
    #[test]
    fn level_bounds_are_exact_fibers_on_pom_shapes(shape in shape_strategy()) {
        let rows = shape_rows(shape);
        let set = shape_set(&rows);
        let points = shape_points(&rows);
        check_fibers(&set.level_bounds(), &points, &mut Vec::new());
        let walked: Vec<Vec<i64>> = points.iter().map(|p| p.to_vec()).collect();
        prop_assert_eq!(set.enumerate_points(100_000), walked, "shape {:?}", shape);
    }

    /// The flat enumeration is the nested one, point for point, `None`
    /// cases included; both are the reference enumeration. Same systems
    /// as `try_enumerate_points_matches`.
    #[test]
    fn flat_enumeration_matches_nested(
        spec in spec_strategy(),
        limit in 0usize..60,
        boxed_from in 0usize..2,
    ) {
        let mut system: Vec<Spec> = Vec::new();
        for d in boxed_from..DIMS.len() {
            let mut unit = vec![0; DIMS.len()];
            unit[d] = 1;
            system.push((1, unit.clone(), 0)); // d >= 0
            unit[d] = -1;
            system.push((1, unit, 4)); // d <= 4
        }
        system.extend(spec.iter().cloned());
        let (dc, nc) = materialize(&system);
        let mut dense = pom_poly::BasicSet::universe(&DIMS);
        let mut named = reference::BasicSet::universe(&DIMS);
        dc.into_iter().for_each(|c| dense.add_constraint(c));
        nc.into_iter().for_each(|c| named.add_constraint(c));

        let (lbs, ubs) = named.bounds_of(DIMS[0]);
        let expected = if lbs.is_empty() || ubs.is_empty() {
            None
        } else {
            let all = named.enumerate_points(1_000_000);
            (all.len() <= limit).then_some(all)
        };
        let flat = dense.try_enumerate_flat(&dense.level_bounds(), limit);
        if let Some(points) = &flat {
            prop_assert_eq!(points.arity(), DIMS.len());
            prop_assert_eq!(points.iter().len(), points.len());
            prop_assert_eq!(points.is_empty(), points.iter().next().is_none());
        }
        let nested = flat.map(|p| p.iter().map(<[i64]>::to_vec).collect::<Vec<_>>());
        prop_assert_eq!(&nested, &expected, "limit {} system {:?}", limit, system);
        prop_assert_eq!(dense.try_enumerate_points(limit), expected);
    }
}

/// The `(max lower, min upper)` bound of level `idx` at every probe
/// assignment of the dimensions before it, as `bounds_of_matches` probes.
fn probe_bounds(
    eval: impl Fn(&HashMap<String, i64>) -> (Option<i64>, Option<i64>),
    idx: usize,
) -> Vec<(Option<i64>, Option<i64>)> {
    let mut probes = vec![HashMap::new()];
    for o in &DIMS[..idx] {
        probes = probes
            .into_iter()
            .flat_map(|p: HashMap<String, i64>| {
                (-1i64..6).map(move |v| {
                    let mut q = p.clone();
                    q.insert(o.to_string(), v);
                    q
                })
            })
            .collect();
    }
    probes.iter().map(eval).collect()
}

fn dense_bounds_at(
    bounds: &pom_poly::LevelBounds,
    p: &HashMap<String, i64>,
) -> (Option<i64>, Option<i64>) {
    let (lbs, ubs) = bounds;
    (
        lbs.iter()
            .map(|(e, k)| pom_poly::ceil_div(e.eval(p), *k))
            .max(),
        ubs.iter()
            .map(|(e, k)| pom_poly::floor_div(e.eval(p), *k))
            .min(),
    )
}

/// The system on which projecting innermost first without the exactness
/// condition gives bounds the reference does not: its first step
/// eliminates `dp_k` between rows with coefficients 3 and −2. Level
/// bounds must fall back to projecting outermost first, so that
/// `level_bounds` and `bounds_of` agree with the reference at every
/// probe, as `bounds_of_matches` demands of all systems.
#[test]
fn inexact_chain_falls_back_to_outermost_first() {
    let spec: Vec<Spec> = vec![
        (0, vec![2, -3, 3], -4),
        (3, vec![2, -3, -1], 3),
        (3, vec![3, 0, -2], 6),
    ];
    let (dense, named) = materialize_sets(&spec);
    assert!(!dense.is_empty());
    let levels = dense.level_bounds();
    for (idx, d) in DIMS.iter().enumerate() {
        let (nlo, nhi) = named.bounds_of(d);
        let want = probe_bounds(
            |p| {
                (
                    nlo.iter()
                        .map(|(e, k)| pom_poly::ceil_div(e.eval(p), *k))
                        .max(),
                    nhi.iter()
                        .map(|(e, k)| pom_poly::floor_div(e.eval(p), *k))
                        .min(),
                )
            },
            idx,
        );
        assert_eq!(
            probe_bounds(|p| dense_bounds_at(&levels[idx], p), idx),
            want,
            "level_bounds of {d}"
        );
        let by_dim = dense.bounds_of(d);
        assert_eq!(
            probe_bounds(|p| dense_bounds_at(&by_dim, p), idx),
            want,
            "bounds_of {d}"
        );
    }
}

/// Where the innermost-first chain is exact but projecting outermost
/// first is not, `bounds_of` is strictly tighter than the reference — and
/// still right. Only `dp_i` is boxed (`materialize_sets` boxes every
/// dimension, which makes the `dp_j` step inexact and hides this). The
/// chain eliminates `dp_k` (every lower row on it is `+1`), tightening
/// `-2i+2j+1 >= 0` to `j >= i`, then `dp_j` (every upper row is `-1` after
/// tightening) and gets `dp_i <= 1`; the reference eliminates `dp_j` first
/// and keeps `dp_i <= 2`, though no integer point has `dp_i = 2`.
#[test]
fn exact_chain_is_tighter_than_outermost_first() {
    let spec: Vec<Spec> = vec![
        (1, vec![1, 0, 0], 0),
        (1, vec![-1, 0, 0], 4),
        (1, vec![-1, 0, 1], 0),
        (1, vec![1, 2, -3], 1),
        (1, vec![1, -2, 0], 1),
    ];
    let (dc, nc) = materialize(&spec);
    let mut dense = pom_poly::BasicSet::universe(&DIMS);
    for c in dc {
        dense.add_constraint(c);
    }
    let mut named = reference::BasicSet::universe(&DIMS);
    for c in nc {
        named.add_constraint(c);
    }
    // The integer points agree, and none has `dp_i = 2`.
    let points = dense.enumerate_points(1000);
    assert_eq!(points, named.enumerate_points(1000));
    assert!(!points.is_empty());
    assert!(points.iter().all(|p| p[0] <= 1));

    let levels = dense.level_bounds();
    for (idx, d) in DIMS.iter().enumerate() {
        let (nlo, nhi) = named.bounds_of(d);
        let wide = probe_bounds(
            |p| {
                (
                    nlo.iter()
                        .map(|(e, k)| pom_poly::ceil_div(e.eval(p), *k))
                        .max(),
                    nhi.iter()
                        .map(|(e, k)| pom_poly::floor_div(e.eval(p), *k))
                        .min(),
                )
            },
            idx,
        );
        let tight = probe_bounds(|p| dense_bounds_at(&levels[idx], p), idx);
        assert_eq!(
            probe_bounds(|p| dense_bounds_at(&dense.bounds_of(d), p), idx),
            tight,
            "bounds_of {d} == level_bounds"
        );
        // The chain's bounds lie inside the reference's at every probe.
        for ((tlo, thi), (wlo, whi)) in tight.iter().zip(&wide) {
            assert!(tlo.is_some() && thi.is_some(), "{d} unbounded");
            assert!(wlo.is_none_or(|w| tlo.unwrap() >= w), "{d} lower");
            assert!(whi.is_none_or(|w| thi.unwrap() <= w), "{d} upper");
        }
        if idx == 0 {
            assert_eq!(
                (tight[0], wide[0]),
                ((Some(0), Some(1)), (Some(0), Some(2)))
            );
        }
    }
}

/// A zero-dimension set's points are a count with no coordinates: one
/// empty point when its constraints hold, none when they do not.
#[test]
fn zero_dimension_flat_enumeration() {
    let point = pom_poly::BasicSet::universe(&[]);
    let points = point
        .try_enumerate_flat(&point.level_bounds(), 10)
        .expect("bounded");
    assert_eq!((points.arity(), points.len()), (0, 1));
    assert_eq!(points.iter().collect::<Vec<_>>(), vec![&[] as &[i64]]);
    assert_eq!(
        point.enumerate_points(10),
        reference::BasicSet::universe(&[]).enumerate_points(10)
    );
    assert_eq!(point.try_enumerate_flat(&[], 0), None);

    let empty = point.with_constraint(pom_poly::Constraint::ge_zero(
        pom_poly::LinearExpr::constant_expr(-1),
    ));
    let none = empty.try_enumerate_flat(&[], 10).expect("bounded");
    assert!(none.is_empty());
    assert_eq!(none.iter().count(), 0);
    assert_eq!(empty.enumerate_points(10), Vec::<Vec<i64>>::new());
}
