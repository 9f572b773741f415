//! DSE stage 1: dependence-aware code transformation (Section VI-A).
//!
//! Iteratively re-checks loop-carried dependences after each
//! transformation, as the paper describes: interchange moves carried
//! loops *outward* (the FPGA-friendly shape keeps parallel loops
//! innermost, where they are unrolled, and pipelines the tile loop above
//! them — cf. Fig. 8's guidance of swapping the tightly dependent inner
//! loop `k` with the outer loop); skewing (optionally followed by an
//! interchange) restructures stencils whose every level is carried; and a
//! conservative fusion pass merges independent, compatible nests
//! (Fig. 10③).
//!
//! Each statement's dependences are analysed once. A statement with a
//! non-uniform dependence is frozen; every other one has constant
//! distance vectors, and since interchange and skew are unimodular, each
//! transformed vector is a dependence of the moved statement. Every trial
//! move is therefore re-checked on its transformed vectors — legal when
//! all stay lexicographically non-negative, scored by the levels they
//! carry — and the applied move's vectors become the statement's profile
//! for the next iteration (DESIGN.md §8, "Stage 1 scores on distance
//! vectors"). [`reanalysis_disagreements`] keeps the re-analysing search
//! as the oracle of that equivalence.

use crate::compile::{apply_schedule, carried_levels, self_dependences};
use pom_dsl::{Compute, Function};
use pom_graph::DepGraph;
use pom_poly::{lex_non_negative, StmtPoly};

/// A candidate stage-1 move on one statement.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Move {
    Interchange(usize, usize),
    Skew { factor: i64, interchange: bool },
}

/// The per-statement dependence profile in the current (transformed)
/// space.
#[derive(Clone, Debug)]
struct Profile {
    /// Minimal carried distance per level (`None` = parallel level).
    carried: Vec<Option<i64>>,
    /// All distance vectors (used for legality checks).
    vectors: Vec<Vec<i64>>,
    /// True when a non-uniform dependence exists (conservatively frozen).
    non_uniform: bool,
}

impl Profile {
    fn parallel_count(&self) -> usize {
        self.carried.iter().filter(|c| c.is_none()).count()
    }

    /// Number of (parallel above carried) inversions: the FPGA-friendly
    /// shape wants carried levels outermost.
    fn inversions(&self) -> usize {
        let mut inv = 0;
        for p in 0..self.carried.len() {
            if self.carried[p].is_none() {
                inv += self.carried[p + 1..].iter().filter(|c| c.is_some()).count();
            }
        }
        inv
    }

    fn score(&self) -> (usize, isize) {
        (self.parallel_count(), -(self.inversions() as isize))
    }

    fn is_ideal(&self) -> bool {
        self.inversions() == 0 && (self.parallel_count() > 0 || self.carried.is_empty())
    }

    /// The profile after `m`, read off the transformed distance vectors,
    /// or `None` when `m` makes one of them lexicographically negative
    /// (illegal). For a uniform profile each transformed vector is a
    /// dependence of the moved statement — interchange and skew are
    /// unimodular — carried at its first nonzero component. A dependence
    /// with free (reuse) directions is held as one representative vector
    /// per carried level, so a re-analysis may report other members of the
    /// same set; its carried levels and distances are what
    /// [`reanalysis_disagreements`] checks against.
    fn after(&self, m: &Move) -> Option<Profile> {
        let vectors = self
            .vectors
            .iter()
            .map(|v| transform_vector(v, m))
            .collect::<Option<Vec<_>>>()?;
        let mut carried = vec![None; self.carried.len()];
        for v in &vectors {
            if let Some(l) = v.iter().position(|&x| x != 0) {
                carried[l] = Some(carried[l].map_or(v[l], |c: i64| c.min(v[l])));
            }
        }
        Some(Profile {
            carried,
            vectors,
            non_uniform: false,
        })
    }
}

fn profile(c: &Compute, s: &StmtPoly) -> Profile {
    let deps = self_dependences(c, s);
    let mut vectors = Vec::new();
    let mut non_uniform = false;
    for d in deps.iter().filter(|d| d.carried_level.is_some()) {
        match &d.distance {
            Some(v) => vectors.push(v.0.clone()),
            None => non_uniform = true,
        }
    }
    Profile {
        carried: carried_levels(&deps, s.dims().len()),
        vectors,
        non_uniform,
    }
}

/// Transforms a distance vector under a move. Returns `None` when the
/// move makes it lexicographically negative (illegal).
fn transform_vector(v: &[i64], m: &Move) -> Option<Vec<i64>> {
    let mut out = v.to_vec();
    match m {
        Move::Interchange(a, b) => out.swap(*a, *b),
        Move::Skew {
            factor,
            interchange,
        } => {
            let n = out.len();
            if n >= 2 {
                out[n - 1] += factor * out[0];
                if *interchange {
                    out.swap(0, n - 1);
                }
            }
        }
    }
    lex_non_negative(out.iter().copied()).then_some(out)
}

fn apply_move(s: &mut StmtPoly, m: &Move, fresh: &mut usize) -> Vec<pom_dsl::Primitive> {
    let dims = s.dims().to_vec();
    let name = s.name().to_string();
    match m {
        Move::Interchange(a, b) => {
            s.interchange(&dims[*a], &dims[*b]);
            vec![pom_dsl::Primitive::Interchange {
                stmt: name,
                i: dims[*a].clone(),
                j: dims[*b].clone(),
            }]
        }
        Move::Skew {
            factor,
            interchange,
        } => {
            *fresh += 1;
            let n = dims.len();
            let i2 = format!("{}_w{}", dims[0], fresh);
            let j2 = format!("{}_w{}", dims[n - 1], fresh);
            s.skew(&dims[0], &dims[n - 1], *factor, &i2, &j2);
            let mut prims = vec![pom_dsl::Primitive::Skew {
                stmt: name.clone(),
                i: dims[0].clone(),
                j: dims[n - 1].clone(),
                factor: *factor,
                i2: i2.clone(),
                j2: j2.clone(),
            }];
            if *interchange {
                s.interchange(&i2, &j2);
                prims.push(pom_dsl::Primitive::Interchange {
                    stmt: name,
                    i: i2,
                    j: j2,
                });
            }
            prims
        }
    }
}

/// The trial moves of a statement with `depth` loops: every interchange,
/// then skews by 1 and 2, each with and without the follow-up interchange.
fn candidates(depth: usize) -> Vec<Move> {
    let mut out: Vec<Move> = Vec::new();
    for a in 0..depth {
        for b in (a + 1)..depth {
            out.push(Move::Interchange(a, b));
        }
    }
    for factor in 1..=2 {
        for interchange in [false, true] {
            out.push(Move::Skew {
                factor,
                interchange,
            });
        }
    }
    out
}

/// True when stage 1 leaves a statement alone: already ideal, frozen by a
/// non-uniform dependence, or too shallow to move.
fn settled(prof: &Profile, depth: usize) -> bool {
    prof.is_ideal() || prof.non_uniform || depth < 2
}

/// The legal trial move that improves `prof`'s score most (first on
/// ties), with the profile it leads to.
fn best_move(prof: &Profile, depth: usize) -> Option<(Move, Profile)> {
    if settled(prof, depth) {
        return None;
    }
    let mut best: Option<(Move, Profile)> = None;
    for m in candidates(depth) {
        let Some(p2) = prof.after(&m) else {
            continue;
        };
        let sc = p2.score();
        if sc > prof.score() && best.as_ref().is_none_or(|(_, b)| sc > b.score()) {
            best = Some((m, p2));
        }
    }
    best
}

/// Stage 1: per-statement dependence-aware transformation with iterative
/// re-checking (bounded by `max_iters`), followed by conservative fusion.
pub fn dependence_aware_transform(f: &Function, max_iters: usize) -> Function {
    dependence_aware_transform_on(f, max_iters, &DepGraph::build(f))
}

/// [`dependence_aware_transform`] over `f`'s dependence graph, built by
/// the caller. Stage 1 records schedule primitives only, and the graph
/// reads only the computes, so a search builds it once and hands it on
/// to stage 2.
pub(crate) fn dependence_aware_transform_on(
    f: &Function,
    max_iters: usize,
    graph: &DepGraph,
) -> Function {
    let mut g = f.clone();
    let mut stmts = apply_schedule(&g);
    let mut profiles: Vec<Profile> = g
        .computes()
        .iter()
        .zip(&stmts)
        .map(|(c, s)| profile(c, s))
        .collect();
    let mut fresh = 0usize;
    for _ in 0..max_iters {
        let mut new_prims = Vec::new();
        for (s, prof) in stmts.iter_mut().zip(&mut profiles) {
            if let Some((m, next)) = best_move(prof, s.dims().len()) {
                new_prims.extend(apply_move(s, &m, &mut fresh));
                *prof = next;
            }
        }
        if new_prims.is_empty() {
            break;
        }
        for p in new_prims {
            g.record(p);
        }
    }
    conservative_fuse(&mut g, graph, &stmts);
    g
}

/// Stage 1 as it ran before trial scores came from distance vectors —
/// each iteration replays the schedule, and each legal trial move is
/// applied to a copy of its statement, whose dependences are analysed
/// again — checked against the vector-derived profiles at every step.
/// Returns one line per disagreement: a trial whose transformed vectors
/// carry other levels or distances than the re-analysed statement, a
/// carried-forward profile whose carried levels differ from the next
/// iteration's re-analysis, or a final schedule that differs from
/// [`dependence_aware_transform`]'s. Empty when the two searches agree.
///
/// The vectors themselves are not compared: where a dependence has free
/// (reuse) directions, the analysis keeps one representative vector per
/// carried level, and after a move it may pick another member of the
/// same dependence set than the transformed representative.
pub fn reanalysis_disagreements(f: &Function, max_iters: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut g = f.clone();
    let mut carried: Vec<Option<Profile>> = vec![None; g.computes().len()];
    let mut fresh = 0usize;
    for iter in 0..max_iters {
        let stmts = apply_schedule(&g);
        let mut new_prims = Vec::new();
        for ((c, s), kept) in g.computes().iter().zip(&stmts).zip(&mut carried) {
            let prof = profile(c, s);
            if let Some(k) = kept.as_ref().filter(|k| k.carried != prof.carried) {
                out.push(format!(
                    "{}: iteration {iter} carried {k:?}, re-analysis {prof:?}",
                    c.name()
                ));
            }
            let depth = s.dims().len();
            if settled(&prof, depth) {
                continue;
            }
            let mut best: Option<(Move, Profile)> = None;
            for m in candidates(depth) {
                let Some(derived) = prof.after(&m) else {
                    continue;
                };
                let mut trial = s.clone();
                let mut trial_fresh = fresh + 1000; // trial names never recorded
                apply_move(&mut trial, &m, &mut trial_fresh);
                let p2 = profile(c, &trial);
                if derived.carried != p2.carried {
                    out.push(format!(
                        "{}: iteration {iter} {m:?} vectors {derived:?}, re-analysis {p2:?}",
                        c.name()
                    ));
                }
                let sc = p2.score();
                if sc > prof.score() && best.as_ref().is_none_or(|(_, b)| sc > b.score()) {
                    best = Some((m, derived));
                }
            }
            if let Some((m, derived)) = best {
                new_prims.extend(apply_move(&mut s.clone(), &m, &mut fresh));
                *kept = Some(derived);
            }
        }
        if new_prims.is_empty() {
            break;
        }
        for p in new_prims {
            g.record(p);
        }
    }
    let (graph, stmts) = (DepGraph::build(&g), apply_schedule(&g));
    conservative_fuse(&mut g, &graph, &stmts);
    let vectors = dependence_aware_transform(f, max_iters);
    if vectors.schedule() != g.schedule() {
        out.push(format!(
            "schedule: vectors {:?}, re-analysis {:?}",
            vectors.schedule(),
            g.schedule()
        ));
    }
    out
}

/// Constant `(lb, ub)` extents per level, when the (possibly transformed)
/// domain is a constant rectangle.
fn const_extents(s: &StmtPoly) -> Option<Vec<(i64, i64)>> {
    let env = std::collections::HashMap::new();
    let mut out = Vec::new();
    for d in s.dims() {
        let (lbs, ubs) = s.domain().bounds_of(d);
        if lbs.iter().any(|(e, _)| !e.is_constant()) || ubs.iter().any(|(e, _)| !e.is_constant()) {
            return None;
        }
        let lb = lbs
            .iter()
            .map(|(e, d)| {
                let v = e.eval_partial(&env);
                -((-v).div_euclid(*d))
            })
            .max()?;
        let ub = ubs
            .iter()
            .map(|(e, d)| e.eval_partial(&env).div_euclid(*d))
            .min()?;
        out.push((lb, ub));
    }
    Some(out)
}

/// Conservative fusion (Fig. 10③): adjacent independent nests with equal
/// constant extents are fused (interleaved at the innermost level).
/// `stmts` are `g`'s statements with its schedule applied.
fn conservative_fuse(g: &mut Function, graph: &DepGraph, stmts: &[StmtPoly]) {
    let n = g.computes().len();
    let mut fused_into: Vec<Option<usize>> = vec![None; n];
    let mut prims = Vec::new();
    for b in 1..n {
        let a = b - 1;
        // Only fuse chains rooted at an unfused statement.
        if fused_into[a].is_some() {
            continue;
        }
        let dep_edge = graph.dependence_map()[a][b] || graph.dependence_map()[b][a];
        if dep_edge {
            continue;
        }
        let (sa, sb) = (&stmts[a], &stmts[b]);
        if sa.dims().len() != sb.dims().len() {
            continue;
        }
        let (Some(ea), Some(eb)) = (const_extents(sa), const_extents(sb)) else {
            continue;
        };
        if ea != eb {
            continue;
        }
        let innermost = sa.dims().last().expect("non-empty").clone();
        prims.push(pom_dsl::Primitive::After {
            stmt: sb.name().to_string(),
            other: sa.name().to_string(),
            level: Some(innermost),
        });
        fused_into[b] = Some(a);
    }
    for p in prims {
        g.record(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use pom_dsl::DataType;

    /// BICG (paper Fig. 10): S1 = s-statement (keep), S2 = q-statement
    /// (interchange), then fusion.
    fn bicg(n: usize) -> Function {
        let mut f = Function::new("bicg");
        let i = f.var("i", 0, n as i64);
        let j = f.var("j", 0, n as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let s = f.placeholder("s", &[n], DataType::F32);
        let q = f.placeholder("q", &[n], DataType::F32);
        let p = f.placeholder("p", &[n], DataType::F32);
        let r = f.placeholder("r", &[n], DataType::F32);
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
        f
    }

    #[test]
    fn bicg_split_interchange_merge() {
        let f = bicg(32);
        let g = dependence_aware_transform(&f, 8);
        // S2 must be interchanged (its reduction j moves outward), S1 kept.
        let inter: Vec<_> = g
            .schedule()
            .iter()
            .filter(|p| matches!(p, pom_dsl::Primitive::Interchange { .. }))
            .collect();
        assert_eq!(inter.len(), 1, "only S2 interchanges: {:?}", g.schedule());
        assert_eq!(inter[0].stmt(), Some("S2"));
        // And the two nests are fused.
        assert!(g
            .schedule()
            .iter()
            .any(|p| matches!(p, pom_dsl::Primitive::After { .. })));
        // The fused result has carried deps only at the outer level for
        // both statements.
        let stmts = apply_schedule(&g);
        for (c, s) in g.computes().iter().zip(&stmts) {
            let prof = profile(c, s);
            assert!(prof.carried[1].is_none(), "{}: inner parallel", c.name());
            assert!(prof.carried[0].is_some(), "{}: outer carried", c.name());
        }
        // One shared nest in the lowered IR.
        let compiled = compile(&g, &CompileOptions::default()).expect("compiles");
        assert_eq!(compiled.affine.body.len(), 1);
    }

    #[test]
    fn gemm_reduction_moves_outermost() {
        // GEMM written (i, j, k): stage 1 moves the carried k outward.
        let n = 16usize;
        let mut f = Function::new("gemm");
        let i = f.var("i", 0, n as i64);
        let j = f.var("j", 0, n as i64);
        let k = f.var("k", 0, n as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let b = f.placeholder("B", &[n, n], DataType::F32);
        let c = f.placeholder("C", &[n, n], DataType::F32);
        f.compute(
            "s",
            &[i.clone(), j.clone(), k.clone()],
            c.at(&[&i, &j]) + a.at(&[&i, &k]) * b.at(&[&k, &j]),
            c.access(&[&i, &j]),
        );
        let g = dependence_aware_transform(&f, 8);
        let stmts = apply_schedule(&g);
        let prof = profile(g.computes().first().unwrap(), &stmts[0]);
        assert!(prof.carried[0].is_some(), "reduction outermost");
        assert!(prof.carried[1].is_none());
        assert!(prof.carried[2].is_none());
    }

    #[test]
    fn seidel_gets_skewed() {
        let n = 16usize;
        let mut f = Function::new("seidel");
        let i = f.var("i", 1, (n - 1) as i64);
        let j = f.var("j", 1, (n - 1) as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let im1 = i.expr() - 1;
        let jm1 = j.expr() - 1;
        f.compute(
            "s",
            &[i.clone(), j.clone()],
            (a.at(&[im1.clone(), j.expr()]) + a.at(&[i.expr(), jm1.clone()]) + a.at(&[&i, &j]))
                / 3.0,
            a.access(&[&i, &j]),
        );
        let g = dependence_aware_transform(&f, 8);
        assert!(
            g.schedule()
                .iter()
                .any(|p| matches!(p, pom_dsl::Primitive::Skew { .. })),
            "stencil needs skewing: {:?}",
            g.schedule()
        );
        // After stage 1, the inner level is parallel.
        let stmts = apply_schedule(&g);
        let prof = profile(g.computes().first().unwrap(), &stmts[0]);
        let n_levels = prof.carried.len();
        assert!(prof.carried[n_levels - 1].is_none(), "{:?}", prof.carried);
    }

    #[test]
    fn illegal_interchange_is_rejected() {
        // Jacobi time loop: dep (1, -1) forbids plain (t, i) interchange.
        let v = vec![1, -1];
        assert!(transform_vector(&v, &Move::Interchange(0, 1)).is_none());
        // Skew by 1 fixes it: (1, 0).
        assert_eq!(
            transform_vector(
                &v,
                &Move::Skew {
                    factor: 1,
                    interchange: false
                }
            ),
            Some(vec![1, 0])
        );
    }

    #[test]
    fn dependent_nests_are_not_fused() {
        let n = 8usize;
        let mut f = Function::new("chain");
        let i = f.var("i", 0, n as i64);
        let x = f.placeholder("X", &[n], DataType::F32);
        let y = f.placeholder("Y", &[n], DataType::F32);
        let z = f.placeholder("Z", &[n], DataType::F32);
        f.compute(
            "S1",
            std::slice::from_ref(&i),
            x.at(&[&i]) * 2.0,
            y.access(&[&i]),
        );
        f.compute(
            "S2",
            std::slice::from_ref(&i),
            y.at(&[&i]) + 1.0,
            z.access(&[&i]),
        );
        let g = dependence_aware_transform(&f, 4);
        assert!(
            !g.schedule()
                .iter()
                .any(|p| matches!(p, pom_dsl::Primitive::After { .. })),
            "producer-consumer nests must stay sequenced"
        );
    }

    #[test]
    fn independent_equal_nests_are_fused() {
        let n = 8usize;
        let mut f = Function::new("par");
        let i = f.var("i", 0, n as i64);
        let x = f.placeholder("X", &[n], DataType::F32);
        let y = f.placeholder("Y", &[n], DataType::F32);
        let u = f.placeholder("U", &[n], DataType::F32);
        let v = f.placeholder("V", &[n], DataType::F32);
        f.compute(
            "S1",
            std::slice::from_ref(&i),
            x.at(&[&i]) * 2.0,
            u.access(&[&i]),
        );
        f.compute(
            "S2",
            std::slice::from_ref(&i),
            y.at(&[&i]) * 3.0,
            v.access(&[&i]),
        );
        let g = dependence_aware_transform(&f, 4);
        assert!(g
            .schedule()
            .iter()
            .any(|p| matches!(p, pom_dsl::Primitive::After { .. })));
    }

    #[test]
    fn stage1_preserves_semantics() {
        use pom_dsl::{reference_execute, MemoryState};
        use pom_ir::execute_func;
        let f = bicg(10);
        let g = dependence_aware_transform(&f, 8);
        let mut ref_mem = MemoryState::for_function_seeded(&f, 11);
        reference_execute(&f, &mut ref_mem);
        let compiled = compile(&g, &CompileOptions::default()).expect("compiles");
        let mut ir_mem = MemoryState::for_function_seeded(&f, 11);
        execute_func(&compiled.affine, &mut ir_mem);
        for arr in ["s", "q"] {
            assert_eq!(
                ref_mem.array(arr).unwrap().data(),
                ir_mem.array(arr).unwrap().data(),
                "array {arr} differs after stage-1 transforms"
            );
        }
    }
}
