//! `bench-poly` — microbenchmarks for the dense polyhedral kernel.
//!
//! Times the interned dense kernel (`pom_poly`) against the preserved
//! name-keyed seed implementation (`pom_poly::reference`) on identical
//! inputs, over two workloads modeled on the Table III suite:
//!
//! * **FM projection** — Fourier–Motzkin elimination over iteration
//!   domains and dependence systems (boxes, tiled nests, skewed stencils,
//!   wavefronts), with the size constant cycled per iteration so the
//!   projection memo sees a realistic hit/miss mix.
//! * **Dependence sweep** — full `analyze_pair` runs (distance vectors,
//!   direction vectors, carried levels) for the suite's access patterns.
//!
//! Wall-clock numbers do not travel between machines, but the *ratio*
//! dense-vs-reference does, so CI gates on the speedup and on FNV-1a
//! fingerprints of end-to-end DSE results (schedule + QoR) against the
//! committed `BENCH_poly_baseline.json` — any schedule or QoR divergence
//! fails the job even when the timings are fine. Each fingerprint kernel's
//! Fourier–Motzkin elimination count is recorded beside its fingerprint
//! and gated at +10 %, so the loop-bound derivation cannot drift back to
//! one projection per level unnoticed. Those searches run serially, each
//! on a fresh thread (the projection memo is per thread), so the counts
//! are the same on every machine and every run.

use crate::experiments::common::{col, paper_options, Cell, Column, Report};
use crate::kernels;
use pom::{auto_dse_with, DseConfig, Function};
use pom_poly::{fnv1a64, reference};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One microbenchmark's measurements.
#[derive(Clone, Debug, Default)]
pub struct PolyBenchRow {
    /// Workload name (`fm_*` or `dep_*`).
    pub name: &'static str,
    /// Wall seconds of the reference (seed) kernel.
    pub ref_s: f64,
    /// Wall seconds of the dense kernel.
    pub dense_s: f64,
    /// `ref_s / dense_s`.
    pub speedup: f64,
    /// Dense and reference results agree (on integer points for
    /// projections, on rendered dependences for sweeps).
    pub identical: bool,
}

/// The whole report: microbench rows plus end-to-end DSE fingerprints.
#[derive(Clone, Debug)]
pub struct PolyBenchReport {
    /// Per-workload rows, FM projections first.
    pub rows: Vec<PolyBenchRow>,
    /// Aggregate FM speedup (total reference seconds / total dense).
    pub fm_speedup: f64,
    /// Aggregate dependence-sweep speedup.
    pub dep_speedup: f64,
    /// Per DSE kernel: the FNV-1a fingerprint of `(schedule, QoR,
    /// groups)` and the search's FM eliminations (`DseStats::poly`).
    pub fingerprints: Vec<(&'static str, u64, u64)>,
    /// Dense-kernel counters accumulated over the benchmark's dense runs.
    pub stats: pom_poly::PolyStats,
}

/// One abstract constraint row: equality flag, `(dim index, coeff)`
/// terms, constant. Materialized into both representations.
type RowSpec = (bool, Vec<(usize, i64)>, i64);

/// An FM workload: a constraint system over `dims`, with `elim` the
/// dimensions to project out (in order).
struct FmSpec {
    name: &'static str,
    dims: &'static [&'static str],
    elim: &'static [&'static str],
    rows: Vec<RowSpec>,
    /// Largest extent, for the sampled identity check.
    extent: i64,
}

/// `lo <= dims[d] < hi` as two inequality rows.
fn bound(rows: &mut Vec<RowSpec>, d: usize, lo: i64, hi: i64) {
    rows.push((false, vec![(d, 1)], -lo));
    rows.push((false, vec![(d, -1)], hi - 1));
}

/// The FM workloads at size `n`, modeled on the Table III kernels.
fn fm_suite(n: i64) -> Vec<FmSpec> {
    let t = n / 4 + 1;
    let mut suite = Vec::new();

    // GEMM dependence system: source (i,j,k) and target (i',j',k') both
    // in the box, related by the reduction distance (0, 0, 1).
    let mut rows = Vec::new();
    for d in 0..6 {
        bound(&mut rows, d, 0, n);
    }
    rows.push((true, vec![(0, 1), (3, -1)], 0));
    rows.push((true, vec![(1, 1), (4, -1)], 0));
    rows.push((true, vec![(2, 1), (5, -1)], -1));
    suite.push(FmSpec {
        name: "fm_gemm_dep",
        dims: &["i", "j", "k", "ip", "jp", "kp"],
        elim: &["ip", "jp", "kp", "k"],
        rows,
        extent: n,
    });

    // Tiled GEMM: three 16-wide tile loops around three point loops.
    let mut rows = Vec::new();
    for d in 0..3 {
        // 0 <= i0 and 16*i0 <= i < min(16*i0 + 16, n)
        rows.push((false, vec![(d, 1)], 0));
        rows.push((false, vec![(d + 3, 1), (d, -16)], 0));
        rows.push((false, vec![(d + 3, -1), (d, 16)], 15));
        rows.push((false, vec![(d + 3, -1)], n - 1));
    }
    suite.push(FmSpec {
        name: "fm_gemm_tiled",
        dims: &["i0", "j0", "k0", "i", "j", "k"],
        elim: &["k", "j", "i"],
        rows,
        extent: n,
    });

    // BICG dependence on the row-sum: j = j', i' = i + 1.
    let mut rows = Vec::new();
    for d in 0..4 {
        bound(&mut rows, d, 0, n);
    }
    rows.push((true, vec![(1, 1), (3, -1)], 0));
    rows.push((true, vec![(0, 1), (2, -1)], -1));
    suite.push(FmSpec {
        name: "fm_bicg_dep",
        dims: &["i", "j", "ip", "jp"],
        elim: &["ip", "jp", "j"],
        rows,
        extent: n,
    });

    // Jacobi-2d after time skewing: t <= i < t + n, t + i <= j < t + i + n.
    let mut rows = Vec::new();
    bound(&mut rows, 0, 0, t);
    rows.push((false, vec![(1, 1), (0, -1)], 0));
    rows.push((false, vec![(1, -1), (0, 1)], n - 1));
    rows.push((false, vec![(2, 1), (0, -1), (1, -1)], 0));
    rows.push((false, vec![(2, -1), (0, 1), (1, 1)], n - 1));
    suite.push(FmSpec {
        name: "fm_jacobi2d_skew",
        dims: &["t", "i", "j"],
        elim: &["j", "i"],
        rows,
        extent: n + t + n,
    });

    // Seidel wavefront: box plus t <= i + j <= t + 2n.
    let mut rows = Vec::new();
    bound(&mut rows, 0, 0, t);
    bound(&mut rows, 1, 1, n - 1);
    bound(&mut rows, 2, 1, n - 1);
    rows.push((false, vec![(1, 1), (2, 1), (0, -1)], 0));
    rows.push((false, vec![(1, -1), (2, -1), (0, 1)], 2 * n));
    suite.push(FmSpec {
        name: "fm_seidel_wavefront",
        dims: &["t", "i", "j"],
        elim: &["j", "t"],
        rows,
        extent: n,
    });

    suite
}

fn dense_system(spec: &FmSpec) -> Vec<pom_poly::Constraint> {
    spec.rows
        .iter()
        .map(|(eq, terms, c)| {
            let mut e = pom_poly::LinearExpr::constant_expr(*c);
            for (d, k) in terms {
                e.set_coeff(spec.dims[*d], *k);
            }
            if *eq {
                pom_poly::Constraint::eq_zero(e)
            } else {
                pom_poly::Constraint::ge_zero(e)
            }
        })
        .collect()
}

fn ref_system(spec: &FmSpec) -> Vec<reference::Constraint> {
    spec.rows
        .iter()
        .map(|(eq, terms, c)| {
            let mut e = reference::LinearExpr::constant_expr(*c);
            for (d, k) in terms {
                e.set_coeff(spec.dims[*d], *k);
            }
            if *eq {
                reference::Constraint::eq_zero(e)
            } else {
                reference::Constraint::ge_zero(e)
            }
        })
        .collect()
}

/// Projections agree on integer points sampled over a small grid of the
/// surviving dimensions (the dense kernel may drop redundant rows, so
/// the constraint lists are compared semantically, not syntactically).
fn projections_agree(spec: &FmSpec) -> bool {
    let dense = match pom_poly::fm::eliminate_all(&dense_system(spec), spec.elim) {
        pom_poly::fm::Projection::Feasible(cs) => Some(cs),
        pom_poly::fm::Projection::Infeasible => None,
    };
    let named = match reference::fm::eliminate_all(&ref_system(spec), spec.elim) {
        reference::fm::Projection::Feasible(cs) => Some(cs),
        reference::fm::Projection::Infeasible => None,
    };
    let (Some(dense), Some(named)) = (&dense, &named) else {
        return dense.is_none() == named.is_none();
    };
    let rem: Vec<&str> = spec
        .dims
        .iter()
        .filter(|d| !spec.elim.contains(d))
        .copied()
        .collect();
    let samples = [-1, 0, 1, spec.extent / 2, spec.extent - 1, spec.extent];
    let mut points: Vec<HashMap<String, i64>> = vec![HashMap::new()];
    for d in &rem {
        points = points
            .into_iter()
            .flat_map(|p| {
                samples.iter().map(move |v| {
                    let mut q = p.clone();
                    q.insert(d.to_string(), *v);
                    q
                })
            })
            .collect();
    }
    points
        .iter()
        .all(|p| dense.iter().all(|c| c.satisfied(p)) == named.iter().all(|c| c.satisfied(p)))
}

/// A dependence workload: one closure per size variant per
/// representation, each running the full analysis and returning rendered
/// results for the identity check. The uniform-access box workload covers
/// the constant-time fast path (representation-independent arithmetic);
/// the remaining workloads drive the FM-backed dependence paths the dense
/// kernel accelerates: skewed non-rectangular domains (per-dimension
/// bound projection), non-uniform access pairs (feasibility over doubled
/// dimensions), and exact realizability checks.
struct DepWork {
    name: &'static str,
    dense: Vec<Box<dyn Fn() -> Vec<String>>>,
    named: Vec<Box<dyn Fn() -> Vec<String>>>,
}

fn dexpr(terms: &[(&str, i64)], c: i64) -> pom_poly::LinearExpr {
    let mut e = pom_poly::LinearExpr::constant_expr(c);
    for (d, k) in terms {
        e.set_coeff(*d, *k);
    }
    e
}

fn rexpr(terms: &[(&str, i64)], c: i64) -> reference::LinearExpr {
    let mut e = reference::LinearExpr::constant_expr(c);
    for (d, k) in terms {
        e.set_coeff(*d, *k);
    }
    e
}

fn dense_analyze(
    dims: &[&str],
    domain: pom_poly::BasicSet,
    write: pom_poly::AccessFn,
    reads: Vec<pom_poly::AccessFn>,
) -> Box<dyn Fn() -> Vec<String>> {
    let dims: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    Box::new(move || {
        let analysis = pom_poly::DependenceAnalysis::new();
        let mut out = Vec::new();
        for read in &reads {
            for d in analysis.analyze_pair(&write, read, pom_poly::DepKind::Flow, &dims, &domain) {
                out.push(d.to_string());
            }
        }
        out
    })
}

fn ref_analyze(
    dims: &[&str],
    domain: reference::BasicSet,
    write: reference::AccessFn,
    reads: Vec<reference::AccessFn>,
) -> Box<dyn Fn() -> Vec<String>> {
    let dims: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    Box::new(move || {
        let analysis = reference::DependenceAnalysis::new();
        let mut out = Vec::new();
        for read in &reads {
            for d in analysis.analyze_pair(
                &write,
                read,
                reference::dependence::DepKind::Flow,
                &dims,
                &domain,
            ) {
                out.push(d.to_string());
            }
        }
        out
    })
}

fn dense_realizable(
    dims: &[&str],
    domain: pom_poly::BasicSet,
    vecs: Vec<Vec<i64>>,
) -> Box<dyn Fn() -> Vec<String>> {
    let dims: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    Box::new(move || {
        let analysis = pom_poly::DependenceAnalysis::new();
        vecs.iter()
            .map(|v| format!("{v:?}={}", analysis.distance_realizable(v, &dims, &domain)))
            .collect()
    })
}

fn ref_realizable(
    dims: &[&str],
    domain: reference::BasicSet,
    vecs: Vec<Vec<i64>>,
) -> Box<dyn Fn() -> Vec<String>> {
    let dims: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    Box::new(move || {
        let analysis = reference::DependenceAnalysis::new();
        vecs.iter()
            .map(|v| format!("{v:?}={}", analysis.distance_realizable(v, &dims, &domain)))
            .collect()
    })
}

/// Inequality rows of the time-skewed Jacobi-2d domain: `0 <= t < T`,
/// `t <= i < t + n`, `t <= j < t + n` — non-rectangular, so realizability
/// falls back to per-dimension Fourier–Motzkin bound projection.
fn skew_rows(n: i64) -> Vec<(Vec<(&'static str, i64)>, i64)> {
    let t = n / 4 + 1;
    vec![
        (vec![("t", 1)], 0),
        (vec![("t", -1)], t - 1),
        (vec![("i", 1), ("t", -1)], 0),
        (vec![("i", -1), ("t", 1)], n - 1),
        (vec![("j", 1), ("t", -1)], 0),
        (vec![("j", -1), ("t", 1)], n - 1),
    ]
}

/// Inequality rows of the Seidel wavefront domain: the box plus
/// `t <= i + j <= t + 2n`.
fn wavefront_rows(n: i64) -> Vec<(Vec<(&'static str, i64)>, i64)> {
    let t = n / 4 + 1;
    vec![
        (vec![("t", 1)], 0),
        (vec![("t", -1)], t - 1),
        (vec![("i", 1)], -1),
        (vec![("i", -1)], n - 2),
        (vec![("j", 1)], -1),
        (vec![("j", -1)], n - 2),
        (vec![("i", 1), ("j", 1), ("t", -1)], 0),
        (vec![("i", -1), ("j", -1), ("t", 1)], 2 * n),
    ]
}

fn dense_domain(dims: &[&str], rows: &[(Vec<(&'static str, i64)>, i64)]) -> pom_poly::BasicSet {
    let mut s = pom_poly::BasicSet::universe(dims);
    for (terms, c) in rows {
        s.add_constraint(pom_poly::Constraint::ge_zero(dexpr(terms, *c)));
    }
    s
}

fn ref_domain(dims: &[&str], rows: &[(Vec<(&'static str, i64)>, i64)]) -> reference::BasicSet {
    let mut s = reference::BasicSet::universe(dims);
    for (terms, c) in rows {
        s.add_constraint(reference::Constraint::ge_zero(rexpr(terms, *c)));
    }
    s
}

fn dep_works() -> Vec<DepWork> {
    let mut works = Vec::new();

    // GEMM reduction: uniform accesses over a rectangular box — the
    // constant-time fast path, representation-independent by design;
    // kept for coverage of the common case.
    let mut dense = Vec::new();
    let mut named = Vec::new();
    for &n in &SIZES {
        let dims = ["i", "j", "k"];
        let bounds = [("i", 0, n - 1), ("j", 0, n - 1), ("k", 0, n - 1)];
        dense.push(dense_analyze(
            &dims,
            pom_poly::BasicSet::from_bounds(&bounds),
            pom_poly::AccessFn::new("C", vec![dexpr(&[("i", 1)], 0), dexpr(&[("j", 1)], 0)]),
            vec![pom_poly::AccessFn::new(
                "C",
                vec![dexpr(&[("i", 1)], 0), dexpr(&[("j", 1)], 0)],
            )],
        ));
        named.push(ref_analyze(
            &dims,
            reference::BasicSet::from_bounds(&bounds),
            reference::AccessFn::new("C", vec![rexpr(&[("i", 1)], 0), rexpr(&[("j", 1)], 0)]),
            vec![reference::AccessFn::new(
                "C",
                vec![rexpr(&[("i", 1)], 0), rexpr(&[("j", 1)], 0)],
            )],
        ));
    }
    works.push(DepWork {
        name: "dep_gemm_uniform",
        dense,
        named,
    });

    // Time-skewed Jacobi-2d: uniform t-1 neighbor reads of A[t][i-t][j-t],
    // but the skewed domain is non-rectangular, so every `analyze_pair`
    // projects per-dimension bounds through FM.
    let mut dense = Vec::new();
    let mut named = Vec::new();
    for &n in &SIZES {
        let dims = ["t", "i", "j"];
        let rows = skew_rows(n);
        let dense_reads = [0i64, -1, 1]
            .iter()
            .map(|&di| {
                pom_poly::AccessFn::new(
                    "A",
                    vec![
                        dexpr(&[("t", 1)], -1),
                        dexpr(&[("i", 1), ("t", -1)], di),
                        dexpr(&[("j", 1), ("t", -1)], 0),
                    ],
                )
            })
            .collect();
        let named_reads = [0i64, -1, 1]
            .iter()
            .map(|&di| {
                reference::AccessFn::new(
                    "A",
                    vec![
                        rexpr(&[("t", 1)], -1),
                        rexpr(&[("i", 1), ("t", -1)], di),
                        rexpr(&[("j", 1), ("t", -1)], 0),
                    ],
                )
            })
            .collect();
        dense.push(dense_analyze(
            &dims,
            dense_domain(&dims, &rows),
            pom_poly::AccessFn::new(
                "A",
                vec![
                    dexpr(&[("t", 1)], 0),
                    dexpr(&[("i", 1), ("t", -1)], 0),
                    dexpr(&[("j", 1), ("t", -1)], 0),
                ],
            ),
            dense_reads,
        ));
        named.push(ref_analyze(
            &dims,
            ref_domain(&dims, &rows),
            reference::AccessFn::new(
                "A",
                vec![
                    rexpr(&[("t", 1)], 0),
                    rexpr(&[("i", 1), ("t", -1)], 0),
                    rexpr(&[("j", 1), ("t", -1)], 0),
                ],
            ),
            named_reads,
        ));
    }
    works.push(DepWork {
        name: "dep_jacobi2d_skew",
        dense,
        named,
    });

    // Non-uniform access pair: A[2i] written, A[i+j] read — the
    // conservative path builds a doubled-dimension system and decides it
    // with FM feasibility.
    let mut dense = Vec::new();
    let mut named = Vec::new();
    for &n in &SIZES {
        let dims = ["i", "j"];
        let bounds = [("i", 0, n - 1), ("j", 0, n - 1)];
        dense.push(dense_analyze(
            &dims,
            pom_poly::BasicSet::from_bounds(&bounds),
            pom_poly::AccessFn::new("A", vec![dexpr(&[("i", 2)], 0)]),
            vec![pom_poly::AccessFn::new(
                "A",
                vec![dexpr(&[("i", 1), ("j", 1)], 0)],
            )],
        ));
        named.push(ref_analyze(
            &dims,
            reference::BasicSet::from_bounds(&bounds),
            reference::AccessFn::new("A", vec![rexpr(&[("i", 2)], 0)]),
            vec![reference::AccessFn::new(
                "A",
                vec![rexpr(&[("i", 1), ("j", 1)], 0)],
            )],
        ));
    }
    works.push(DepWork {
        name: "dep_nonuniform",
        dense,
        named,
    });

    // Exact realizability on the Seidel wavefront: each candidate vector
    // is one shifted-system FM feasibility check.
    let mut dense = Vec::new();
    let mut named = Vec::new();
    let candidates = || -> Vec<Vec<i64>> {
        vec![
            vec![1, 0, 0],
            vec![1, 1, 0],
            vec![0, 1, 1],
            vec![1, -1, 0],
            vec![2, 0, -1],
        ]
    };
    for &n in &SIZES {
        let dims = ["t", "i", "j"];
        let rows = wavefront_rows(n);
        dense.push(dense_realizable(
            &dims,
            dense_domain(&dims, &rows),
            candidates(),
        ));
        named.push(ref_realizable(
            &dims,
            ref_domain(&dims, &rows),
            candidates(),
        ));
    }
    works.push(DepWork {
        name: "dep_realizable",
        dense,
        named,
    });

    works
}

/// Size constants cycled through the timed loops: each iteration sees a
/// different variant, so the projection memo gets a realistic mix of
/// first-time misses and repeat hits instead of one key hit forever.
const SIZES: [i64; 4] = [31, 63, 127, 255];

/// The e2e fingerprint kernels: small enough for CI, spanning dense
/// linear algebra, both stencil schedules, and the two networks, whose
/// searches walk back over several steps (vgg16 8, resnet18 14).
fn fingerprint_suite() -> Vec<(&'static str, Function)> {
    vec![
        ("gemm", kernels::gemm(32)),
        ("bicg", kernels::bicg(32)),
        ("seidel", kernels::seidel(8)),
        ("vgg16", kernels::vgg16(1)),
        ("resnet18", kernels::resnet18(1)),
    ]
}

/// Runs the full benchmark: `iters` timed iterations per workload.
pub fn run_suite(iters: usize) -> PolyBenchReport {
    let stats_before = pom_poly::PolyStats::snapshot();
    let mut rows = Vec::new();

    // FM projection: materialize every (workload, size) variant up front
    // so the timed loops measure elimination, not system construction.
    let fm_specs: Vec<Vec<FmSpec>> = SIZES.iter().map(|n| fm_suite(*n)).collect();
    let workloads = fm_specs[0].len();
    for w in 0..workloads {
        let dense_variants: Vec<Vec<pom_poly::Constraint>> =
            fm_specs.iter().map(|s| dense_system(&s[w])).collect();
        let ref_variants: Vec<Vec<reference::Constraint>> =
            fm_specs.iter().map(|s| ref_system(&s[w])).collect();
        let elim = fm_specs[0][w].elim;

        let identical = fm_specs.iter().all(|s| projections_agree(&s[w]));

        let t = Instant::now();
        for it in 0..iters {
            let cs = &dense_variants[it % dense_variants.len()];
            std::hint::black_box(pom_poly::fm::eliminate_all(cs, elim));
        }
        let dense_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for it in 0..iters {
            let cs = &ref_variants[it % ref_variants.len()];
            std::hint::black_box(reference::fm::eliminate_all(cs, elim));
        }
        let ref_s = t.elapsed().as_secs_f64();

        rows.push(PolyBenchRow {
            name: fm_specs[0][w].name,
            ref_s,
            dense_s,
            speedup: ref_s / dense_s.max(1e-9),
            identical,
        });
    }
    let fm_ref: f64 = rows.iter().map(|r| r.ref_s).sum();
    let fm_dense: f64 = rows.iter().map(|r| r.dense_s).sum();

    // Dependence sweep: domains and accesses materialized up front inside
    // the closures, so the timed loops run analysis only.
    for work in dep_works() {
        let identical = work.dense.iter().zip(&work.named).all(|(d, r)| d() == r());

        let t = Instant::now();
        for it in 0..iters {
            std::hint::black_box(work.dense[it % work.dense.len()]());
        }
        let dense_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for it in 0..iters {
            std::hint::black_box(work.named[it % work.named.len()]());
        }
        let ref_s = t.elapsed().as_secs_f64();

        rows.push(PolyBenchRow {
            name: work.name,
            ref_s,
            dense_s,
            speedup: ref_s / dense_s.max(1e-9),
            identical,
        });
    }
    let dep_ref: f64 = rows.iter().map(|r| r.ref_s).sum::<f64>() - fm_ref;
    let dep_dense: f64 = rows.iter().map(|r| r.dense_s).sum::<f64>() - fm_dense;

    // End-to-end fingerprints: the schedule, QoR, and group configs of a
    // DSE run, hashed deterministically. A dense-kernel change that shifts
    // any schedule or QoR shows up here as a new fingerprint. The search
    // is serial (schedules are byte-identical at any worker count) and
    // runs on a thread of its own, so it starts from a cold projection
    // memo: its FM elimination count depends neither on the machine's
    // core count nor on what ran earlier in this process.
    let opts = paper_options();
    let cfg = DseConfig {
        workers: 1,
        ..DseConfig::default()
    };
    let fingerprints = fingerprint_suite()
        .into_iter()
        .map(|(name, f)| {
            let r = std::thread::scope(|s| {
                s.spawn(|| auto_dse_with(&f, &opts, &cfg).expect("DSE compiles"))
                    .join()
                    .expect("fingerprint search thread")
            });
            let mut blob = r.function.to_string();
            let _ = write!(blob, "\n{:?}\n{:?}", r.compiled.qor, r.groups);
            (name, fnv1a64(blob.as_bytes()), r.stats.poly.eliminations)
        })
        .collect();

    PolyBenchReport {
        fm_speedup: fm_ref / fm_dense.max(1e-9),
        dep_speedup: dep_ref / dep_dense.max(1e-9),
        rows,
        fingerprints,
        stats: pom_poly::PolyStats::snapshot().delta(&stats_before),
    }
}

const COLUMNS: &[Column<PolyBenchRow>] = &[
    col("name", "Workload", |r| r.name.into()),
    col("ref_s", "Reference (s)", |r| r.ref_s.into()),
    col("dense_s", "Dense (s)", |r| r.dense_s.into()),
    col("speedup", "Speedup", |r| r.speedup.into()),
    col("identical", "Identical", |r| r.identical.into()),
];

/// The table and `BENCH_poly.json` of a run, gated by [`gate`] against
/// `baseline`. Fingerprints are hex strings, to dodge JSON's 53-bit
/// integer ceiling; [`parse_baseline`] reads the same file back.
pub fn report(r: &PolyBenchReport, baseline: Option<&Baseline>) -> Report {
    let mut out = Report::new(
        "Polyhedral kernel — dense interned vs name-keyed reference",
        "rows",
        COLUMNS,
        &r.rows,
    );
    let fingerprints = r.fingerprints.iter().map(|&(kernel, fp, eliminations)| {
        Cell::Obj(vec![
            ("kernel", kernel.into()),
            ("fp", Cell::Str(format!("{fp:016x}"))),
            ("fm_eliminations", eliminations.into()),
        ])
    });
    let st = &r.stats;
    out.summary = vec![
        ("fm_speedup", r.fm_speedup.into()),
        ("dep_speedup", r.dep_speedup.into()),
        ("fingerprints", Cell::List(fingerprints.collect())),
        (
            "poly_stats",
            Cell::Obj(vec![
                ("eliminations", st.eliminations.into()),
                ("combinations_generated", st.combinations_generated.into()),
                ("combinations_dropped", st.combinations_dropped.into()),
                ("memo_hits", st.memo_hits.into()),
                ("memo_misses", st.memo_misses.into()),
                ("peak_constraints", st.peak_constraints.into()),
            ]),
        ),
    ];
    out.fails = gate(r, baseline);
    out
}

/// The committed baseline: aggregate speedups plus per-kernel
/// fingerprints and FM elimination counts. Parsed with plain string
/// search — the file is flat and the repo has no JSON dependency.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Aggregate FM speedup recorded when the baseline was committed.
    pub fm_speedup: f64,
    /// Aggregate dependence-sweep speedup at baseline time.
    pub dep_speedup: f64,
    /// `(kernel, fingerprint)` pairs that must match exactly.
    pub fingerprints: Vec<(String, u64)>,
    /// `(kernel, FM eliminations)` pairs a run may exceed by at most
    /// 10 %; a kernel without a recorded count is not gated.
    pub fm_eliminations: Vec<(String, u64)>,
}

/// Extracts `"key": <number>` from flat JSON.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a committed baseline file.
pub fn parse_baseline(text: &str) -> Option<Baseline> {
    let fm_speedup = json_number(text, "fm_speedup")?;
    let dep_speedup = json_number(text, "dep_speedup")?;
    let mut fingerprints = Vec::new();
    let mut fm_eliminations = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"kernel\":") {
        rest = &rest[at + 9..];
        let name_start = rest.find('"')? + 1;
        let name_end = name_start + rest[name_start..].find('"')?;
        let name = rest[name_start..name_end].to_string();
        let fp_at = rest.find("\"fp\":")? + 5;
        let fp_rest = rest[fp_at..].trim_start();
        let fp_start = 1; // skip opening quote
        let fp_end = fp_start + fp_rest[fp_start..].find('"')?;
        let fp = u64::from_str_radix(&fp_rest[fp_start..fp_end], 16).ok()?;
        let entry = &rest[..rest.find('}').unwrap_or(rest.len())];
        if let Some(n) = json_number(entry, "fm_eliminations") {
            fm_eliminations.push((name.clone(), n as u64));
        }
        fingerprints.push((name, fp));
        rest = &rest[fp_at..];
    }
    Some(Baseline {
        fm_speedup,
        dep_speedup,
        fingerprints,
        fm_eliminations,
    })
}

/// Gate failures against a baseline, as printable messages (empty = pass).
pub fn gate(report: &PolyBenchReport, baseline: Option<&Baseline>) -> Vec<String> {
    let mut fails = Vec::new();
    for row in &report.rows {
        if !row.identical {
            fails.push(format!(
                "{}: dense kernel diverged from the reference semantics",
                row.name
            ));
        }
    }
    if report.fm_speedup < 5.0 {
        fails.push(format!(
            "FM projection speedup {:.2}x below the 5x floor",
            report.fm_speedup
        ));
    }
    if report.dep_speedup < 5.0 {
        fails.push(format!(
            "dependence sweep speedup {:.2}x below the 5x floor",
            report.dep_speedup
        ));
    }
    if let Some(b) = baseline {
        // The >10% regression gate, in machine-portable form: a dense
        // slowdown shows up as a drop in the dense-vs-reference ratio.
        if report.fm_speedup < 0.9 * b.fm_speedup {
            fails.push(format!(
                "FM speedup {:.2}x regressed >10% vs baseline {:.2}x",
                report.fm_speedup, b.fm_speedup
            ));
        }
        if report.dep_speedup < 0.9 * b.dep_speedup {
            fails.push(format!(
                "dependence speedup {:.2}x regressed >10% vs baseline {:.2}x",
                report.dep_speedup, b.dep_speedup
            ));
        }
        for (kernel, want) in &b.fingerprints {
            match report.fingerprints.iter().find(|(k, ..)| k == kernel) {
                Some((_, got, _)) if got == want => {}
                Some((_, got, _)) => fails.push(format!(
                    "{kernel}: DSE fingerprint {got:016x} != baseline {want:016x} \
                     (schedule or QoR changed)"
                )),
                None => fails.push(format!("{kernel}: fingerprint missing from report")),
            }
        }
        for (kernel, want) in &b.fm_eliminations {
            let found = report.fingerprints.iter().find(|(k, ..)| k == kernel);
            if let Some(&(_, _, got)) = found {
                if got.saturating_mul(10) > want.saturating_mul(11) {
                    fails.push(format!(
                        "{kernel}: {got} FM eliminations, >10% over baseline {want} \
                         (loop bounds projected per level again?)"
                    ));
                }
            }
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_and_dependences_agree_at_all_sizes() {
        for n in SIZES {
            for spec in fm_suite(n) {
                assert!(projections_agree(&spec), "{} at {n}", spec.name);
            }
        }
        for work in dep_works() {
            for (d, r) in work.dense.iter().zip(&work.named) {
                assert_eq!(d(), r(), "{}", work.name);
            }
        }
    }

    #[test]
    fn json_and_baseline_round_trip() {
        let report = PolyBenchReport {
            rows: vec![PolyBenchRow {
                name: "fm_gemm_dep",
                ref_s: 1.0,
                dense_s: 0.1,
                speedup: 10.0,
                identical: true,
            }],
            fm_speedup: 10.0,
            dep_speedup: 8.0,
            fingerprints: vec![("gemm", 0xdead_beef_1234_5678, 200)],
            stats: pom_poly::PolyStats::default(),
        };
        let json = super::report(&report, None).to_json();
        assert!(json.contains("\"fm_speedup\": 10.000000"));
        assert!(json.contains("\"fp\": \"deadbeef12345678\""));
        let b = parse_baseline(&json).expect("parses");
        assert_eq!(b.fm_speedup, 10.0);
        assert_eq!(
            b.fingerprints,
            vec![("gemm".to_string(), 0xdead_beef_1234_5678)]
        );
        assert_eq!(b.fm_eliminations, vec![("gemm".to_string(), 200)]);
        // A matching baseline gates clean; a shifted fingerprint fails.
        assert!(gate(&report, Some(&b)).is_empty());
        let mut bad = b.clone();
        bad.fingerprints[0].1 ^= 1;
        assert!(!gate(&report, Some(&bad)).is_empty());
        // Up to 10 % more FM eliminations than the baseline pass; more
        // fail, and a baseline without counts does not gate them.
        let mut grown = report.clone();
        grown.fingerprints[0].2 = 220;
        assert!(gate(&grown, Some(&b)).is_empty());
        grown.fingerprints[0].2 = 221;
        assert_eq!(gate(&grown, Some(&b)).len(), 1);
        let mut uncounted = b.clone();
        uncounted.fm_eliminations.clear();
        assert!(gate(&grown, Some(&uncounted)).is_empty());
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: the fingerprint primitive must never drift, or
        // every committed baseline silently invalidates.
        assert_eq!(pom_poly::fnv1a64(b"pom"), 0x779b_5519_564f_2a37);
    }
}
