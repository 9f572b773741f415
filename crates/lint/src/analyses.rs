//! The shipped lint analyses (POM001–POM010).

use crate::context::{walk_loops, walk_stores, LintContext};
use crate::{Analysis, Diagnostic, LintCode, Location};
use pom_ir::AffineOp;
use pom_poly::{fm, AccessFn, Constraint, LinearExpr};
use std::collections::{BTreeMap, BTreeSet};

fn path_ivs(path: &[crate::context::LoopFrame]) -> Vec<String> {
    path.iter().map(|f| f.iv.clone()).collect()
}

/// POM001: a declared `pipeline_ii` must be at least the recurrence MII
/// of any dependence carried at that loop — `ceil(chain / distance)`, the
/// same bound the estimator enforces (paper Section VI-A).
pub struct IiFeasibility;

impl Analysis for IiFeasibility {
    fn name(&self) -> &'static str {
        "ii-feasibility"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        walk_loops(cx.func, &mut |l, path| {
            let Some(ii) = l.attrs.pipeline_ii else {
                return;
            };
            let Some(dep) = cx.deps.carried_at(&l.iv) else {
                return;
            };
            let rec_mii = dep.rec_mii(0);
            if (ii.max(1) as u64) < rec_mii {
                out.push(
                    Diagnostic::new(
                        LintCode::IiInfeasible,
                        Location::in_loops(&cx.func.name, &path_ivs(path)),
                        format!(
                            "loop %{} declares pipeline II = {ii}, but the dependence on \
                             `{}` carried at this loop (distance {}, chain latency {}) \
                             forces II >= {rec_mii}",
                            l.iv, dep.array, dep.distance, dep.chain_latency
                        ),
                    )
                    .with_suggestion(format!(
                        "declare pipeline II >= {rec_mii} on %{}, or lengthen the carried \
                         distance with a loop transformation (split/interchange/skew)",
                        l.iv
                    )),
                );
            }
        });
    }
}

/// POM002: every affine access must stay inside its memref's shape for
/// all points of the governing domain (loop bounds plus `if` guards),
/// proven by Fourier–Motzkin projection (paper Section V-B).
///
/// FM is exact over the rationals and tightens each constraint by its
/// coefficient gcd, but divided bounds that reference *outer ivs* (tile
/// edge loops such as `for x in ceil(j/2)..=floor(k/3)`) leave non-unit
/// coefficients the tightening cannot touch, and eliminating such an iv
/// keeps the dark-shadow sliver — a rational witness with no integer
/// point. The check therefore conjoins the integer interval facts of
/// `pom-verify`'s value-range analysis for the ivs in scope at each
/// store (including the contradictory pair of an empty loop),
/// eliminating false positives on min/max- and floor-clamped boundary
/// indices.
pub struct BoundsCheck;

impl Analysis for BoundsCheck {
    fn name(&self) -> &'static str {
        "bounds-check"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let ranges = pom_verify::analyze_ranges(cx.func);
        let mut reported: BTreeSet<(String, String, usize, bool)> = BTreeSet::new();
        walk_stores(cx.func, &mut |site| {
            // Integer interval facts for the ivs in scope at this store.
            // A bottom interval (`lo > hi`, both finite) contributes a
            // contradictory pair: the loop never runs, so no access in
            // its body can breach.
            let mut range_facts: Vec<Constraint> = Vec::new();
            for frame in site.loop_path {
                let Some(r) = ranges.iv_ranges.get(&frame.iv) else {
                    continue;
                };
                if r.lo != i64::MIN {
                    range_facts.push(Constraint::ge(
                        LinearExpr::var(&frame.iv),
                        LinearExpr::constant_expr(r.lo),
                    ));
                }
                if r.hi != i64::MAX {
                    range_facts.push(Constraint::le(
                        LinearExpr::var(&frame.iv),
                        LinearExpr::constant_expr(r.hi),
                    ));
                }
            }
            let mut accesses: Vec<&AccessFn> = vec![&site.store.dest];
            accesses.extend(site.store.value.loads());
            for acc in accesses {
                let Some(m) = cx.func.memref(&acc.array) else {
                    continue;
                };
                for (d, (idx, &size)) in acc.indices.iter().zip(&m.shape).enumerate() {
                    for (low_side, breach) in [
                        (
                            true,
                            Constraint::le(idx.clone(), LinearExpr::constant_expr(-1)),
                        ),
                        (
                            false,
                            Constraint::ge(idx.clone(), LinearExpr::constant_expr(size as i64)),
                        ),
                    ] {
                        let key = (site.store.stmt.clone(), acc.array.clone(), d, low_side);
                        if reported.contains(&key) {
                            continue;
                        }
                        let mut cs = site.constraints.to_vec();
                        cs.extend(range_facts.iter().cloned());
                        cs.push(breach);
                        if fm::feasible(&cs) {
                            reported.insert(key);
                            let bound_txt = if low_side {
                                "below 0".to_string()
                            } else {
                                format!("at or above the extent {size}")
                            };
                            out.push(
                                Diagnostic::new(
                                    LintCode::OutOfBounds,
                                    Location::in_loops(&cx.func.name, &path_ivs(site.loop_path))
                                        .with_stmt(&site.store.stmt),
                                    format!(
                                        "access `{}[...]` index {d} (`{idx}`) can evaluate \
                                         {bound_txt} within its loop domain",
                                        acc.array
                                    ),
                                )
                                .with_suggestion(format!(
                                    "shrink the loop bounds, guard the access with an \
                                     `affine.if`, or grow `{}` along dimension {d}",
                                    acc.array
                                )),
                            );
                        }
                    }
                }
            }
        });
    }
}

/// POM003: concurrent accesses of a pipelined/unrolled body must not
/// exceed the ports its array partition provides (`banks x
/// ports_per_bank`), and the partitioning itself must fit the device's
/// BRAM budget (paper Section VI-B). Mirrors the estimator's ResMII and
/// BRAM accounting, so a clean design is one whose declared II the
/// estimator can actually honour.
pub struct PortPressure;

impl Analysis for PortPressure {
    fn name(&self) -> &'static str {
        "port-pressure"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        // (a) Port demand per outermost pipelined loop.
        walk_loops(cx.func, &mut |l, path| {
            let Some(ii) = l.attrs.pipeline_ii else {
                return;
            };
            if path[..path.len() - 1]
                .iter()
                .any(|f| f.pipeline_ii.is_some())
            {
                return; // inner loops fold into the outer pipeline's body
            }
            let mut unrolled: Vec<(String, u64)> = Vec::new();
            let mut accesses: BTreeMap<String, u64> = BTreeMap::new();
            collect_concurrent_accesses(&l.body, &mut unrolled, &mut accesses);
            for (array, n) in &accesses {
                let banks = cx
                    .func
                    .memref(array)
                    .map(|m| m.banks().max(1) as u64)
                    .unwrap_or(1);
                let ports = (banks * cx.model.ports_per_bank).max(1);
                let res_mii = n.div_ceil(ports);
                if res_mii > ii.max(1) as u64 {
                    let want_banks = n.div_ceil(cx.model.ports_per_bank);
                    out.push(
                        Diagnostic::new(
                            LintCode::PortPressure,
                            Location::in_loops(&cx.func.name, &path_ivs(path)),
                            format!(
                                "`{array}` serves {n} concurrent accesses per iteration of \
                                 pipelined loop %{} through {banks} bank(s) x {} port(s); \
                                 memory alone forces II >= {res_mii} > declared {ii}",
                                l.iv, cx.model.ports_per_bank
                            ),
                        )
                        .with_suggestion(format!(
                            "cyclically partition `{array}` into >= {want_banks} banks to \
                             feed the unrolled units, or declare pipeline II >= {res_mii}"
                        )),
                    );
                }
            }
        });

        // (b) BRAM budget of the partitioning (the estimator's accounting).
        let mut bram = 0u64;
        for m in &cx.func.memrefs {
            bram += pom_hls::bram18k_units(m.bits(), m.banks().max(1) as u64);
        }
        if bram > cx.device.bram18k {
            out.push(
                Diagnostic::new(
                    LintCode::PortPressure,
                    Location::func_scope(&cx.func.name),
                    format!(
                        "the arrays and their partitions map to {bram} BRAM18K units, \
                         exceeding the device budget of {}",
                        cx.device.bram18k
                    ),
                )
                .with_suggestion(
                    "reduce array partition factors or array extents, or target a larger device",
                ),
            );
        }
    }
}

/// Counts per-array concurrent accesses of a pipelined body, treating
/// every inner loop as fully unrolled (Vitis pipeline semantics), by the
/// estimator's [`pom_hls::port_demand`].
fn collect_concurrent_accesses(
    ops: &[AffineOp],
    unrolled: &mut Vec<(String, u64)>,
    out: &mut BTreeMap<String, u64>,
) {
    for op in ops {
        match op {
            AffineOp::Store(s) => {
                for (array, n) in pom_hls::port_demand(s, unrolled) {
                    *out.entry(array.to_string()).or_insert(0) += n;
                }
            }
            AffineOp::If(i) => collect_concurrent_accesses(&i.body, unrolled, out),
            AffineOp::For(l) => {
                let trip = l.const_trip_count().unwrap_or(1).max(1) as u64;
                unrolled.push((l.iv.clone(), trip));
                collect_concurrent_accesses(&l.body, unrolled, out);
                unrolled.pop();
            }
        }
    }
}

/// POM004: every dependence must stay lexicographically non-negative
/// under the current schedule — the paper's stage-1 invariant, made
/// checkable on demand. Both checks are the validator's own: a compute's
/// original-space self-dependences re-expressed through its schedule map
/// ([`pom_verify::reversed_dependence`], one finding per statement), and
/// the producer/consumer order ([`pom_verify::order_violations`], one
/// finding per violating pair).
pub struct ScheduleLegality;

impl Analysis for ScheduleLegality {
    fn name(&self) -> &'static str {
        "schedule-legality"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(src) = cx.source else {
            return; // needs the scheduled DSL source
        };
        let computes = src.function.computes();
        for (c, s) in computes.iter().zip(src.stmts) {
            let deps = pom_verify::self_dependences(c);
            if let Some((d, level)) = pom_verify::reversed_dependence(c, s, &deps) {
                out.push(
                    Diagnostic::new(
                        LintCode::IllegalSchedule,
                        Location::func_scope(&cx.func.name).with_stmt(c.name()),
                        format!(
                            "{} — the schedule is illegal",
                            d.reversed_at(&s.dims()[level])
                        ),
                    )
                    .with_suggestion(
                        "undo the reordering (interchange/skew) of the carrying loop, or \
                         skew the nest until the dependence is non-negative again",
                    ),
                );
            }
        }

        for (pi, ci) in pom_verify::order_violations(src.function, src.stmts) {
            let (p, c) = (&computes[pi], &computes[ci]);
            out.push(
                Diagnostic::new(
                    LintCode::IllegalSchedule,
                    Location::func_scope(&cx.func.name).with_stmt(c.name()),
                    format!(
                        "statement `{}` reads `{}` produced by `{}` but is scheduled before it",
                        c.name(),
                        p.store().array,
                        p.name()
                    ),
                )
                .with_suggestion(format!(
                    "schedule `{}` after `{}` (e.g. `{}.after({}, ...)`)",
                    c.name(),
                    p.name(),
                    c.name(),
                    p.name()
                )),
            );
        }
    }
}

/// POM005: dead code — memrefs never accessed at all, and stores to
/// never-read arrays that are provably overwritten by a later iteration
/// of an enclosing loop (the destination does not vary with it and no
/// guard makes the store conditional along it). Live-out stores — the
/// last write to each cell of an output array — are never flagged.
pub struct DeadCode;

impl Analysis for DeadCode {
    fn name(&self) -> &'static str {
        "dead-code"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let mut loaded: BTreeSet<&str> = BTreeSet::new();
        let mut stored: BTreeSet<&str> = BTreeSet::new();
        cx.func.walk(&mut |op| {
            if let AffineOp::Store(s) = op {
                stored.insert(&s.dest.array);
                for l in s.value.loads() {
                    loaded.insert(&l.array);
                }
            }
        });

        for m in &cx.func.memrefs {
            if !loaded.contains(m.name.as_str()) && !stored.contains(m.name.as_str()) {
                out.push(
                    Diagnostic::new(
                        LintCode::DeadCode,
                        Location::func_scope(&cx.func.name),
                        format!("memref `{}` is never accessed", m.name),
                    )
                    .with_suggestion(format!("remove the `{}` declaration", m.name)),
                );
            }
        }

        let loaded_owned: BTreeSet<String> = loaded.iter().map(|s| s.to_string()).collect();
        walk_stores(cx.func, &mut |site| {
            let array = &site.store.dest.array;
            if loaded_owned.contains(array) {
                return;
            }
            for frame in site.loop_path {
                let Some(trip) = frame.trip else {
                    continue;
                };
                if trip <= 1 || site.guarded_ivs.contains(&frame.iv) {
                    continue;
                }
                if !site.store.dest.indices.iter().any(|e| e.uses(&frame.iv)) {
                    out.push(
                        Diagnostic::new(
                            LintCode::DeadCode,
                            Location::in_loops(&cx.func.name, &path_ivs(site.loop_path))
                                .with_stmt(&site.store.stmt),
                            format!(
                                "store to `{array}` overwrites the same cells on every \
                                 iteration of %{} and `{array}` is never read — all but \
                                 the final iteration are dead",
                                frame.iv
                            ),
                        )
                        .with_suggestion(format!(
                            "hoist the store out of %{}, or remove it",
                            frame.iv
                        )),
                    );
                    break;
                }
            }
        });
    }
}

/// POM006: the declared pipeline II must survive pom-bank's *exact*
/// bank-conflict analysis. Where POM003 spreads raw access counts
/// evenly over the partition's banks, this analysis maps every access
/// through the declared `hls.array_partition` congruence classes —
/// discounting same-iteration forwarded reads and dead writes — and
/// flags loops whose worst per-bank demand provably cannot be served
/// within the declared II. The same condition is what fails a
/// conflict-freedom certificate in `pom_verify::bank_report`.
pub struct BankConflict;

impl Analysis for BankConflict {
    fn name(&self) -> &'static str {
        "bank-conflict"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let ports = cx.model.ports_per_bank.max(1);
        // Full loop paths for nicer locations; analyze_func only
        // reports the pipelined loop's own iv.
        let mut paths: BTreeMap<String, Vec<String>> = BTreeMap::new();
        walk_loops(cx.func, &mut |l, path| {
            paths.insert(l.iv.clone(), path_ivs(path));
        });
        for rep in pom_bank::analyze_func(cx.func) {
            let Some(min_ii) = rep.analysis.min_feasible_ii(ports) else {
                continue; // inexact: claim nothing
            };
            if min_ii <= rep.declared_ii {
                continue;
            }
            let Some(worst) = rep
                .analysis
                .profiles
                .iter()
                .filter(|p| p.exact)
                .max_by_key(|p| p.max_demand)
            else {
                continue;
            };
            let path = paths
                .get(&rep.iv)
                .cloned()
                .unwrap_or_else(|| vec![rep.iv.clone()]);
            let suggestion =
                match pom_bank::minimal_conflict_free_factors(cx.func, &worst.array, ports) {
                    Some(factors) => format!(
                        "cyclically partition `{}` with factors {factors:?} (the minimal \
                     conflict-free partitioning), or declare pipeline II >= {min_ii}",
                        worst.array
                    ),
                    None => format!(
                        "declare pipeline II >= {min_ii} on %{}; no partitioning of `{}` \
                     separates these accesses",
                        rep.iv, worst.array
                    ),
                };
            out.push(
                Diagnostic::new(
                    LintCode::BankConflict,
                    Location::in_loops(&cx.func.name, &path),
                    format!(
                        "`{}` is partitioned into {} bank(s) but {} same-cycle accesses \
                         of pipelined loop %{} provably collide in one bank; {} port(s) \
                         per bank force II >= {min_ii} > declared {}",
                        worst.array, worst.banks, worst.max_demand, rep.iv, ports, rep.declared_ii
                    ),
                )
                .with_suggestion(suggestion),
            );
        }
    }
}

/// POM007/POM008/POM009: pom-live's whole-function liveness analysis.
/// One polyhedral pass yields all three findings:
///
/// * **POM007** (warning) — an array's exact live windows are strictly
///   smaller than its declared extents; folding storage to
///   `e_d mod W_d` is proven behaviour-preserving and the claim can be
///   replayed as a `buffer-contracted` certificate through pom-verify.
/// * **POM008** (error) — every store of one statement to an array is
///   overwritten by a later statement before any read observes it.
/// * **POM009** (note) — the minimal buffer depth each
///   producer→consumer flow would need as a FIFO/stream.
pub struct Liveness;

impl Analysis for Liveness {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let computed;
        let report = match cx.live {
            Some(r) => r,
            None => {
                computed = pom_live::analyze_func(cx.func);
                &computed
            }
        };
        for al in &report.arrays {
            if !al.contracted() {
                continue;
            }
            let spelled = |v: &[i64]| {
                v.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join("x")
            };
            out.push(
                Diagnostic::new(
                    LintCode::OversizedBuffer,
                    Location::func_scope(&cx.func.name),
                    format!(
                        "array `{}` declares {} cell(s) ({} bits) but its live window \
                         is [{}] = {} cell(s) ({} bits); the contraction is \
                         certificate-checked (`pomc --emit verify`)",
                        al.array,
                        al.declared_cells(),
                        al.declared_bits(),
                        spelled(&al.windows),
                        al.contracted_cells(),
                        al.contracted_bits()
                    ),
                )
                .with_suggestion(format!(
                    "fold `{}` to [{}] storage indexed by `e mod W` per dimension",
                    al.array,
                    spelled(&al.windows)
                )),
            );
        }
        for ds in &report.dead_stores {
            out.push(Diagnostic::new(
                LintCode::DeadStoreToArray,
                Location::func_scope(&cx.func.name).with_stmt(&ds.stmt),
                format!(
                    "every store of `{}` to `{}` is overwritten by `{}` before \
                     any read observes it",
                    ds.stmt, ds.array, ds.killer
                ),
            ));
        }
        for fd in &report.depths {
            out.push(Diagnostic::new(
                LintCode::BufferDepth,
                Location::func_scope(&cx.func.name).with_stmt(&fd.producer),
                format!(
                    "flow `{}` -> `{}` through `{}` needs a buffer of depth {} \
                     element(s) if streamed",
                    fd.producer, fd.consumer, fd.array, fd.depth
                ),
            ));
        }
    }
}

/// A channel whose measured stall share of the dataflow makespan exceeds
/// this percentage draws a POM010 warning.
pub const CHANNEL_STALL_PCT: u64 = 10;

/// POM010: a dataflow channel spends more than [`CHANNEL_STALL_PCT`]% of
/// the simulated makespan blocked on push or pop. Unlike the static
/// POM009 sizing note, this is a *measured* claim — it only fires when
/// the caller attaches the per-channel figures of a `pom-sim` dataflow
/// co-simulation ([`LintContext::with_channels`]), so a purely static
/// lint run never reports it. The diagnostic names the channel and the
/// exact positional minimal deadlock-free depth `pom-dataflow` computed
/// for its element streams.
pub struct ChannelPressure;

impl Analysis for ChannelPressure {
    fn name(&self) -> &'static str {
        "channel-pressure"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(channels) = cx.channels else {
            return;
        };
        for ch in channels {
            let stall = ch.stall_cycles();
            if ch.total_cycles == 0 || stall * 100 <= ch.total_cycles * CHANNEL_STALL_PCT {
                continue;
            }
            let pct = stall * 100 / ch.total_cycles;
            let kind = if ch.pingpong { "ping-pong" } else { "FIFO" };
            let d = Diagnostic::new(
                LintCode::ChannelPressure,
                Location::func_scope(&cx.func.name).with_stmt(&ch.producer),
                format!(
                    "dataflow channel `{}` ({} -> {}) stalls {stall} of {} simulated \
                     cycle(s) ({pct}%): {} pop-blocked, {} push-blocked on its \
                     depth-{} {kind}",
                    ch.array,
                    ch.producer,
                    ch.consumers.join(", "),
                    ch.total_cycles,
                    ch.stall_pop,
                    ch.stall_push,
                    ch.capacity
                ),
            );
            let d = if ch.pingpong {
                d.with_suggestion(format!(
                    "the stages around `{}` are rate-mismatched; rebalance their IIs \
                     (dataflow DSE rate-matching) — the buffer itself is deadlock-free \
                     at depth >= {}",
                    ch.array, ch.min_depth
                ))
            } else {
                d.with_suggestion(format!(
                    "deepen the `{}` FIFO beyond {} element(s) (minimal deadlock-free \
                     depth {}; try {})",
                    ch.array,
                    ch.capacity,
                    ch.min_depth,
                    (ch.capacity * 2).max(ch.min_depth)
                ))
            };
            out.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LintContext, Linter, Severity};
    use pom_dsl::{DataType, Function};
    use pom_hls::{CarriedDep, CostModel, DepSummary, DeviceSpec};
    use pom_ir::{AffineFunc, ForOp, HlsAttrs, IfOp, MemRefDecl, PartitionInfo, StoreOp};
    use pom_poly::{Bound, StmtPoly};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    fn load(array: &str, idx: Vec<LinearExpr>) -> pom_dsl::Expr {
        pom_dsl::Expr::Load(AccessFn::new(array, idx))
    }

    /// The acceptance-criteria function: an infeasible pipeline II, an
    /// out-of-bounds access, and a dead store, all in one kernel.
    fn pathological() -> (AffineFunc, DepSummary) {
        let mut f = AffineFunc::new("bad");
        f.memrefs.push(MemRefDecl::new("acc", &[1], DataType::F32));
        f.memrefs.push(MemRefDecl::new("x", &[8], DataType::F32));
        f.memrefs.push(MemRefDecl::new("dbg", &[4], DataType::F32));
        f.memrefs
            .push(MemRefDecl::new("ghost", &[4], DataType::F32));

        // for i in 0..7 pipeline_ii=1:
        //   acc[0] = acc[0] + x[i + 2]   (OOB: i + 2 reaches 9 > 7;
        //                                 II: carried chain fadd=4, dist 1)
        //   dbg[0] = x[i]                (dead: dbg never read, invariant in i)
        let acc_store = StoreOp {
            stmt: "s".into(),
            dest: AccessFn::new("acc", vec![LinearExpr::zero()]),
            value: load("acc", vec![LinearExpr::zero()])
                + load("x", vec![LinearExpr::var("i") + 2]),
        };
        let dbg_store = StoreOp {
            stmt: "d".into(),
            dest: AccessFn::new("dbg", vec![LinearExpr::zero()]),
            value: load("x", vec![LinearExpr::var("i")]),
        };
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::Store(acc_store), AffineOp::Store(dbg_store)],
        }));

        let mut deps = DepSummary::new();
        deps.insert(
            "i",
            CarriedDep {
                array: "acc".into(),
                distance: 1,
                chain_latency: 4,
            },
        );
        (f, deps)
    }

    fn ctx<'a>(
        f: &'a AffineFunc,
        deps: &'a DepSummary,
        model: &'a CostModel,
        device: &'a DeviceSpec,
    ) -> LintContext<'a> {
        LintContext::new(f, deps, model, device)
    }

    #[test]
    fn pathological_function_yields_all_three_codes() {
        let (f, deps) = pathological();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::standard().run(&ctx(&f, &deps, &model, &device));

        let pom1 = report.with_code(LintCode::IiInfeasible);
        assert_eq!(pom1.len(), 1, "{}", report.render("bad"));
        assert_eq!(pom1[0].severity, Severity::Error);
        assert!(
            pom1[0].message.contains("forces II >= 4"),
            "{}",
            pom1[0].message
        );
        assert!(pom1[0].suggestion.as_deref().unwrap().contains(">= 4"));

        let pom2 = report.with_code(LintCode::OutOfBounds);
        assert_eq!(pom2.len(), 1, "{}", report.render("bad"));
        assert!(pom2[0].message.contains("`x[...]`"), "{}", pom2[0].message);
        assert!(pom2[0].message.contains("extent 8"), "{}", pom2[0].message);

        let pom5 = report.with_code(LintCode::DeadCode);
        assert_eq!(pom5.len(), 2, "{}", report.render("bad"));
        assert!(pom5
            .iter()
            .any(|d| d.message.contains("`ghost` is never accessed")));
        assert!(pom5.iter().any(|d| d.message.contains("store to `dbg`")));

        assert!(report.has_errors());
        let rendered = report.render("bad");
        assert!(rendered.contains("error[POM001]"), "{rendered}");
        assert!(rendered.contains("error[POM002]"), "{rendered}");
        assert!(rendered.contains("warning[POM005]"), "{rendered}");
    }

    #[test]
    fn feasible_ii_and_in_bounds_are_clean() {
        // Same shape but II = 4 declared, in-bounds access, no dead store.
        let mut f = AffineFunc::new("ok");
        f.memrefs.push(MemRefDecl::new("acc", &[1], DataType::F32));
        f.memrefs.push(MemRefDecl::new("x", &[8], DataType::F32));
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs {
                pipeline_ii: Some(4),
                ..Default::default()
            },
            body: vec![AffineOp::Store(StoreOp {
                stmt: "s".into(),
                dest: AccessFn::new("acc", vec![LinearExpr::zero()]),
                value: load("acc", vec![LinearExpr::zero()])
                    + load("x", vec![LinearExpr::var("i")]),
            })],
        }));
        let mut deps = DepSummary::new();
        deps.insert(
            "i",
            CarriedDep {
                array: "acc".into(),
                distance: 1,
                chain_latency: 4,
            },
        );
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::standard().run(&ctx(&f, &deps, &model, &device));
        assert!(report.is_clean(), "{}", report.render("ok"));
    }

    #[test]
    fn channel_pressure_fires_only_above_threshold() {
        let f = AffineFunc::new("df");
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let obs = |stall_pop: u64, stall_push: u64, pingpong: bool| crate::ChannelObservation {
            array: "tmp".into(),
            producer: "s0".into(),
            consumers: vec!["s1".into()],
            capacity: 16,
            pingpong,
            stall_pop,
            stall_push,
            total_cycles: 1000,
            min_depth: 3,
        };

        // 5% stall share: below the 10% threshold, no finding.
        let quiet = [obs(30, 20, false)];
        let cx = ctx(&f, &deps, &model, &device).with_channels(&quiet);
        let report = Linter::standard().run(&cx);
        assert!(
            report.with_code(LintCode::ChannelPressure).is_empty(),
            "{}",
            report.render("df")
        );

        // 40% stall share on a FIFO: warns and suggests a deeper FIFO.
        let hot = [obs(250, 150, false)];
        let cx = ctx(&f, &deps, &model, &device).with_channels(&hot);
        let report = Linter::standard().run(&cx);
        let found = report.with_code(LintCode::ChannelPressure);
        assert_eq!(found.len(), 1, "{}", report.render("df"));
        assert_eq!(found[0].severity, Severity::Warning);
        assert!(found[0].message.contains("`tmp`"), "{}", found[0].message);
        assert!(found[0].message.contains("(40%)"), "{}", found[0].message);
        let help = found[0].suggestion.as_deref().unwrap();
        assert!(help.contains("deepen"), "{help}");
        assert!(help.contains("minimal deadlock-free depth 3"), "{help}");
        assert!(help.contains("try 32"), "{help}");

        // Same share on a ping-pong buffer: the fix is rate-matching,
        // not depth.
        let pp = [obs(250, 150, true)];
        let cx = ctx(&f, &deps, &model, &device).with_channels(&pp);
        let report = Linter::standard().run(&cx);
        let found = report.with_code(LintCode::ChannelPressure);
        assert_eq!(found.len(), 1, "{}", report.render("df"));
        let help = found[0].suggestion.as_deref().unwrap();
        assert!(help.contains("rate-mismatched"), "{help}");

        // Without observations attached the analysis is silent.
        let report = Linter::standard().run(&ctx(&f, &deps, &model, &device));
        assert!(report.with_code(LintCode::ChannelPressure).is_empty());
    }

    #[test]
    fn bounds_check_respects_if_guards() {
        // for i in 0..7 { if (i <= 5) { y[i + 2] = x[i] } } — guarded
        // access is in bounds; without the guard it would breach.
        let mut f = AffineFunc::new("guarded");
        f.memrefs.push(MemRefDecl::new("x", &[8], DataType::F32));
        f.memrefs.push(MemRefDecl::new("y", &[8], DataType::F32));
        let store = StoreOp {
            stmt: "s".into(),
            dest: AccessFn::new("y", vec![LinearExpr::var("i") + 2]),
            value: load("x", vec![LinearExpr::var("i")]),
        };
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::If(IfOp {
                conds: vec![Constraint::le(
                    LinearExpr::var("i"),
                    LinearExpr::constant_expr(5),
                )],
                body: vec![AffineOp::Store(store)],
            })],
        }));
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::new()
            .register(BoundsCheck)
            .run(&ctx(&f, &deps, &model, &device));
        assert!(report.is_clean(), "{}", report.render("guarded"));

        // Drop the guard: now i + 2 reaches 9.
        let mut f2 = f.clone();
        f2.body = vec![AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(StoreOp {
                stmt: "s".into(),
                dest: AccessFn::new("y", vec![LinearExpr::var("i") + 2]),
                value: load("x", vec![LinearExpr::var("i")]),
            })],
        })];
        let report = Linter::new()
            .register(BoundsCheck)
            .run(&ctx(&f2, &deps, &model, &device));
        assert_eq!(report.error_count(), 1, "{}", report.render("unguarded"));
    }

    #[test]
    fn bounds_check_discharges_rational_only_breach_via_ranges() {
        // A tile-edge nest whose innermost loop is empty, but only
        // integrally so:
        //
        //   for t0 in 5..=5 { for t1 in 8..=8 {
        //     for i in ceil(t0/2)..=floor(t1/3) { A[3i - t0 - 2] = ... } } }
        //
        // FM sees `2i >= t0` and `3i <= t1` — non-unit coefficients on an
        // outer-iv bound that gcd tightening cannot touch — and keeps
        // the rational sliver i in [2.5, 8/3], where the overflow breach
        // `3i - t0 - 2 >= 1` of the extent-1 array holds at i = 8/3. The
        // integer interval facts (i in [ceil(5/2), floor(8/3)] = [3, 2],
        // an empty loop) discharge the false positive.
        let mut f = AffineFunc::new("clamped");
        f.memrefs.push(MemRefDecl::new("a", &[1], DataType::F32));
        f.memrefs.push(MemRefDecl::new("b", &[1], DataType::F32));
        let idx = LinearExpr::var("i") * 3 - LinearExpr::var("t0") - 2;
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "t0".into(),
            lbs: vec![cb(5)],
            ubs: vec![cb(5)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(ForOp {
                extra: Vec::new(),
                iv: "t1".into(),
                lbs: vec![cb(8)],
                ubs: vec![cb(8)],
                attrs: HlsAttrs::none(),
                body: vec![AffineOp::For(ForOp {
                    extra: Vec::new(),
                    iv: "i".into(),
                    lbs: vec![Bound::new(LinearExpr::var("t0"), 2)],
                    ubs: vec![Bound::new(LinearExpr::var("t1"), 3)],
                    attrs: HlsAttrs::none(),
                    body: vec![AffineOp::Store(StoreOp {
                        stmt: "s".into(),
                        dest: AccessFn::new("a", vec![idx.clone()]),
                        value: load("b", vec![idx]),
                    })],
                })],
            })],
        }));
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();

        // The raw constraint stack alone is rationally feasible at the
        // breach — this is exactly the false positive being discharged.
        let raw = vec![
            Constraint::ge(LinearExpr::var("t0"), LinearExpr::constant_expr(5)),
            Constraint::le(LinearExpr::var("t0"), LinearExpr::constant_expr(5)),
            Constraint::ge(LinearExpr::var("t1"), LinearExpr::constant_expr(8)),
            Constraint::le(LinearExpr::var("t1"), LinearExpr::constant_expr(8)),
            Constraint::ge_zero(LinearExpr::var("i") * 2 - LinearExpr::var("t0")),
            Constraint::ge_zero(LinearExpr::var("t1") - LinearExpr::var("i") * 3),
            Constraint::ge(
                LinearExpr::var("i") * 3 - LinearExpr::var("t0") - 2,
                LinearExpr::constant_expr(1),
            ),
        ];
        assert!(pom_poly::fm::feasible(&raw), "rational witness exists");

        let report = Linter::new()
            .register(BoundsCheck)
            .run(&ctx(&f, &deps, &model, &device));
        assert!(report.is_clean(), "{}", report.render("clamped"));
    }

    #[test]
    fn port_pressure_flags_underpartitioned_unroll() {
        // Pipelined i with inner fully-unrolled j of trip 8 accessing
        // x[j]: 8 concurrent reads on an unpartitioned 2-port array.
        let mut f = AffineFunc::new("ports");
        f.memrefs.push(MemRefDecl::new("x", &[64], DataType::F32));
        f.memrefs.push(MemRefDecl::new("y", &[64], DataType::F32));
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::For(ForOp {
                extra: Vec::new(),
                iv: "j".into(),
                lbs: vec![cb(0)],
                ubs: vec![cb(7)],
                attrs: HlsAttrs {
                    unroll_factor: Some(8),
                    ..Default::default()
                },
                body: vec![AffineOp::Store(StoreOp {
                    stmt: "s".into(),
                    dest: AccessFn::new("y", vec![LinearExpr::var("j")]),
                    value: load("x", vec![LinearExpr::var("j")]),
                })],
            })],
        }));
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::new()
            .register(PortPressure)
            .run(&ctx(&f, &deps, &model, &device));
        assert_eq!(report.warning_count(), 2, "{}", report.render("ports"));
        assert!(report.diagnostics[0].message.contains("forces II >= 4"));

        // Partition both arrays by 4: 8 accesses / (4 banks x 2 ports) = 1.
        for m in &mut f.memrefs {
            m.partition = Some(PartitionInfo {
                factors: vec![4],
                style: pom_dsl::PartitionStyle::Cyclic,
            });
        }
        let report = Linter::new()
            .register(PortPressure)
            .run(&ctx(&f, &deps, &model, &device));
        assert!(report.is_clean(), "{}", report.render("ports"));
    }

    #[test]
    fn bram_budget_overflow_warns() {
        let mut f = AffineFunc::new("big");
        // 512 x 512 x 32 bits, partitioned 16-way: 16 banks x 32 BRAM18K
        // each = 512 > 280.
        let mut m = MemRefDecl::new("A", &[512, 512], DataType::F32);
        m.partition = Some(PartitionInfo {
            factors: vec![16, 1],
            style: pom_dsl::PartitionStyle::Cyclic,
        });
        f.memrefs.push(m);
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::new()
            .register(PortPressure)
            .run(&ctx(&f, &deps, &model, &device));
        assert_eq!(report.warning_count(), 1, "{}", report.render("big"));
        assert!(report.diagnostics[0].message.contains("BRAM18K"));
    }

    #[test]
    fn illegal_interchange_is_flagged() {
        // A[i][j] = A[i-1][j+1]: flow distance (1, -1). Interchanging
        // makes the dependence lexicographically negative.
        let n = 8i64;
        let mut f = Function::new("stencil");
        let i = f.var("i", 1, n);
        let j = f.var("j", 0, n - 1);
        let a = f.placeholder("A", &[n as usize, n as usize], DataType::F32);
        f.compute(
            "s",
            &[i.clone(), j.clone()],
            a.at(&[i.expr() - 1, j.expr() + 1]),
            a.access(&[&i, &j]),
        );

        let legal_stmts: Vec<StmtPoly> = f.computes().iter().map(|c| c.to_stmt_poly()).collect();

        f.interchange("s", "i", "j");
        let mut bad = f.computes()[0].to_stmt_poly();
        bad.interchange("i", "j");
        let bad_stmts = vec![bad];

        // A dummy affine func: POM004 reads only the DSL source + stmts.
        let af = AffineFunc::new("stencil");
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();

        let cx_ok = LintContext::new(&af, &deps, &model, &device).with_source(&f, &legal_stmts);
        let report = Linter::new().register(ScheduleLegality).run(&cx_ok);
        assert!(report.is_clean(), "{}", report.render("stencil"));

        let cx_bad = LintContext::new(&af, &deps, &model, &device).with_source(&f, &bad_stmts);
        let report = Linter::new().register(ScheduleLegality).run(&cx_bad);
        assert_eq!(report.error_count(), 1, "{}", report.render("stencil"));
        assert!(
            report.diagnostics[0].message.contains("reversed order"),
            "{}",
            report.diagnostics[0].message
        );
    }

    #[test]
    fn consumer_scheduled_before_producer_is_flagged() {
        let n = 8usize;
        let mut f = Function::new("pair");
        let i = f.var("i", 0, n as i64);
        let x = f.placeholder("X", &[n], DataType::F32);
        let y = f.placeholder("Y", &[n], DataType::F32);
        let z = f.placeholder("Z", &[n], DataType::F32);
        f.compute(
            "P",
            std::slice::from_ref(&i),
            x.at(&[&i]) * 2.0,
            y.access(&[&i]),
        );
        f.compute(
            "C",
            std::slice::from_ref(&i),
            y.at(&[&i]) + 1.0,
            z.access(&[&i]),
        );

        let mut p_stmt = f.computes()[0].to_stmt_poly();
        let mut c_stmt = f.computes()[1].to_stmt_poly();
        // Legal order: P at 0, C at 1.
        p_stmt.set_order(0);
        c_stmt.set_order(1);
        let af = AffineFunc::new("pair");
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let good = vec![p_stmt.clone(), c_stmt.clone()];
        let cx = LintContext::new(&af, &deps, &model, &device).with_source(&f, &good);
        assert!(Linter::new().register(ScheduleLegality).run(&cx).is_clean());

        // Illegal: C scheduled wholly before P.
        p_stmt.set_order(1);
        c_stmt.set_order(0);
        let bad = vec![p_stmt, c_stmt];
        let cx = LintContext::new(&af, &deps, &model, &device).with_source(&f, &bad);
        let report = Linter::new().register(ScheduleLegality).run(&cx);
        assert_eq!(report.error_count(), 1, "{}", report.render("pair"));
        assert!(report.diagnostics[0].message.contains("scheduled"));
    }

    #[test]
    fn reduction_store_is_not_dead() {
        // acc[0] = acc[0] + x[i]: the accumulator is read, so the
        // invariant destination is not a dead store.
        let mut f = AffineFunc::new("red");
        f.memrefs.push(MemRefDecl::new("acc", &[1], DataType::F32));
        f.memrefs.push(MemRefDecl::new("x", &[8], DataType::F32));
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(StoreOp {
                stmt: "s".into(),
                dest: AccessFn::new("acc", vec![LinearExpr::zero()]),
                value: load("acc", vec![LinearExpr::zero()])
                    + load("x", vec![LinearExpr::var("i")]),
            })],
        }));
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::new()
            .register(DeadCode)
            .run(&ctx(&f, &deps, &model, &device));
        assert!(report.is_clean(), "{}", report.render("red"));
    }

    /// b[i] = a[i] + a[i+1] + a[i+2] at the given II, with `a`
    /// cyclically partitioned by `factor` (0 = unpartitioned).
    fn bank_stencil(factor: i64, ii: i64) -> AffineFunc {
        let mut f = AffineFunc::new("st");
        f.memrefs.push(MemRefDecl::new("a", &[64], DataType::F32));
        f.memrefs.push(MemRefDecl::new("b", &[64], DataType::F32));
        if factor > 0 {
            f.memref_mut("a").unwrap().partition = Some(PartitionInfo {
                factors: vec![factor],
                style: pom_dsl::PartitionStyle::Cyclic,
            });
        }
        let v = LinearExpr::var("i");
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(31)],
            attrs: HlsAttrs {
                pipeline_ii: Some(ii),
                ..Default::default()
            },
            body: vec![AffineOp::Store(StoreOp {
                stmt: "s".into(),
                dest: AccessFn::new("b", vec![v.clone()]),
                value: load("a", vec![v.clone()])
                    + load("a", vec![v.clone() + 1])
                    + load("a", vec![v + 2]),
            })],
        }));
        f
    }

    #[test]
    fn bank_conflict_flags_infeasible_ii_and_suggests_the_minimal_factor() {
        // 3 same-cycle reads of one unpartitioned bank through 2 ports:
        // II >= 2, declared 1.
        let f = bank_stencil(0, 1);
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::new()
            .register(BankConflict)
            .run(&ctx(&f, &deps, &model, &device));
        let pom6 = report.with_code(LintCode::BankConflict);
        assert_eq!(pom6.len(), 1, "{}", report.render("st"));
        assert_eq!(pom6[0].severity, Severity::Warning);
        assert!(
            pom6[0].message.contains("force II >= 2"),
            "{}",
            pom6[0].message
        );
        let help = pom6[0].suggestion.as_deref().unwrap();
        assert!(help.contains("factors [2]"), "{help}");
    }

    #[test]
    fn bank_conflict_is_silent_when_partitioned_or_feasible() {
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        // Cyclic factor 3 separates the window: conflict-free.
        let f = bank_stencil(3, 1);
        let report = Linter::new()
            .register(BankConflict)
            .run(&ctx(&f, &deps, &model, &device));
        assert!(report.is_clean(), "{}", report.render("st"));
        // Middle band: the conflict exists but declared II = 2 absorbs it.
        let f = bank_stencil(0, 2);
        let report = Linter::new()
            .register(BankConflict)
            .run(&ctx(&f, &deps, &model, &device));
        assert!(report.is_clean(), "{}", report.render("st"));
    }

    #[test]
    fn guarded_boundary_store_is_not_dead() {
        // for t in 0..3 { for i in 0..7 { if (i == t) out[0] = x[i] } }:
        // out never read, dest invariant in both loops, but the guard
        // makes the store conditional — not provably dead.
        let mut f = AffineFunc::new("bnd");
        f.memrefs.push(MemRefDecl::new("out", &[1], DataType::F32));
        f.memrefs.push(MemRefDecl::new("x", &[8], DataType::F32));
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "t".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(3)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(ForOp {
                extra: Vec::new(),
                iv: "i".into(),
                lbs: vec![cb(0)],
                ubs: vec![cb(7)],
                attrs: HlsAttrs::none(),
                body: vec![AffineOp::If(IfOp {
                    conds: vec![Constraint::eq(LinearExpr::var("i"), LinearExpr::var("t"))],
                    body: vec![AffineOp::Store(StoreOp {
                        stmt: "s".into(),
                        dest: AccessFn::new("out", vec![LinearExpr::zero()]),
                        value: load("x", vec![LinearExpr::var("i")]),
                    })],
                })],
            })],
        }));
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::new()
            .register(DeadCode)
            .run(&ctx(&f, &deps, &model, &device));
        assert!(report.is_clean(), "{}", report.render("bnd"));
    }

    fn lv_loop(body: Vec<AffineOp>) -> AffineOp {
        AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(15)],
            attrs: HlsAttrs::none(),
            body,
        })
    }

    fn lv_memrefs(f: &mut AffineFunc) {
        f.memrefs.push(MemRefDecl::new("x", &[16], DataType::F32));
        f.memrefs.push(MemRefDecl::new("T", &[16], DataType::F32));
        f.memrefs.push(MemRefDecl::new("y", &[16], DataType::F32));
    }

    #[test]
    fn liveness_reports_contraction_and_depth() {
        // for i in 0..15 { T[i] = x[i] * 2; y[i] = T[i] + 1 }: each T
        // value dies in the iteration that made it — window [1],
        // stream depth 1.
        let mut f = AffineFunc::new("lv");
        lv_memrefs(&mut f);
        let i = LinearExpr::var("i");
        f.body.push(lv_loop(vec![
            AffineOp::Store(StoreOp {
                stmt: "s1".into(),
                dest: AccessFn::new("T", vec![i.clone()]),
                value: load("x", vec![i.clone()]) * 2.0,
            }),
            AffineOp::Store(StoreOp {
                stmt: "s2".into(),
                dest: AccessFn::new("y", vec![i.clone()]),
                value: load("T", vec![i.clone()]) + 1.0,
            }),
        ]));
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::new()
            .register(Liveness)
            .run(&ctx(&f, &deps, &model, &device));

        let pom7 = report.with_code(LintCode::OversizedBuffer);
        assert_eq!(pom7.len(), 1, "{}", report.render("lv"));
        assert!(pom7[0].message.contains("`T`"), "{}", pom7[0].message);
        assert!(
            pom7[0].message.contains("live window"),
            "{}",
            pom7[0].message
        );
        assert!(pom7[0].suggestion.as_deref().unwrap().contains("e mod W"));

        assert!(report.with_code(LintCode::DeadStoreToArray).is_empty());
        let pom9 = report.with_code(LintCode::BufferDepth);
        assert!(
            pom9.iter()
                .any(|d| d.message.contains("`s1` -> `s2`") && d.message.contains("depth 1")),
            "{}",
            report.render("lv")
        );
    }

    #[test]
    fn liveness_reports_covered_dead_store() {
        // p: for i { T[i] = 7.0 }   — every store overwritten by s1's
        // own nest before any read; s2 then consumes T.
        let mut f = AffineFunc::new("lv");
        lv_memrefs(&mut f);
        let i = LinearExpr::var("i");
        f.body.push(lv_loop(vec![AffineOp::Store(StoreOp {
            stmt: "p".into(),
            dest: AccessFn::new("T", vec![i.clone()]),
            value: pom_dsl::Expr::from(7.0f64),
        })]));
        f.body.push(lv_loop(vec![AffineOp::Store(StoreOp {
            stmt: "s1".into(),
            dest: AccessFn::new("T", vec![i.clone()]),
            value: load("x", vec![i.clone()]) * 2.0,
        })]));
        f.body.push(lv_loop(vec![AffineOp::Store(StoreOp {
            stmt: "s2".into(),
            dest: AccessFn::new("y", vec![i.clone()]),
            value: load("T", vec![i.clone()]) + 1.0,
        })]));
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::new()
            .register(Liveness)
            .run(&ctx(&f, &deps, &model, &device));
        let pom8 = report.with_code(LintCode::DeadStoreToArray);
        assert_eq!(pom8.len(), 1, "{}", report.render("lv"));
        assert_eq!(pom8[0].severity, Severity::Error);
        assert!(
            pom8[0].message.contains("`p`") && pom8[0].message.contains("`s1`"),
            "{}",
            pom8[0].message
        );
    }
}
