//! The shipped lint analyses (POM001–POM010).

use crate::context::{walk_loops, walk_stores, LintContext};
use crate::{Analysis, Diagnostic, LintCode, Location};
use pom_hls::estimate::loop_trip;
use pom_hls::port_res_mii;
use pom_ir::{AffineFunc, AffineOp, ForOp};
use pom_poly::{fm, AccessFn, Constraint, LinearExpr};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
/// exceed the ports its array partition provides, and the partitioning
/// itself must fit the device's BRAM budget (paper Section VI-B). The
/// port half prices each array with the estimator's own
/// [`pom_hls::port_res_mii`] from the declared II up — pom-bank's exact
/// per-bank demand where that applies, with the write-backs of an array
/// read and written back placed in the cycles they land, the even-spread
/// `ceil(accesses / (banks x ports_per_bank))` elsewhere — and the BRAM
/// half with its accounting, so a clean design is one whose declared II
/// the estimator can actually honour.
pub struct PortPressure;

impl Analysis for PortPressure {
    fn name(&self) -> &'static str {
        "port-pressure"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        // (a) Port demand per outermost pipelined loop. pom-bank reports
        // the same loops in the same program order.
        let ports_per_bank = cx.model.ports_per_bank;
        let banks = |array: &str| cx.func.memref(array).map_or(1, |m| m.banks().max(1) as u64);
        let timing = pom_hls::WriteTiming {
            model: cx.model,
            deps: cx.deps,
        };
        let bank = pom_bank::analyze_timed(cx.func, &timing);
        for ((l, ivs, accesses), rep) in pipelined_accesses(cx.func).into_iter().zip(&bank) {
            let ii = l.attrs.pipeline_ii.unwrap_or(1);
            let mut arrays = port_res_mii(
                Some(&rep.analysis),
                ii.max(1) as u64,
                accesses.iter().map(|(a, &n)| (a.as_str(), n)),
                banks,
                ports_per_bank,
            );
            arrays.sort_by(|a, b| a.array.cmp(&b.array));
            for p in arrays {
                let res_mii = p.res_mii();
                if res_mii <= ii.max(1) as u64 {
                    continue;
                }
                let (array, n, banks) = (&p.array, p.demand, banks(&p.array));
                let (message, suggestion) = if let Some((_, peak)) = &p.in_flight {
                    // The repair's factors name the dimension whose cyclic
                    // factor separates the rows read from those written back.
                    let factors = pom_bank::minimal_conflict_free_factors(
                        cx.func,
                        array,
                        ports_per_bank,
                        Some(&timing),
                    );
                    let current = cx
                        .func
                        .memref(array)
                        .map(|m| pom_bank::ArrayBanks::of(m).dims);
                    let separate = factors
                        .zip(current)
                        .and_then(|(fs, cur)| {
                            let dim = (0..fs.len())
                                .find(|&d| cur.get(d).is_none_or(|b| b.factor != fs[d]))?;
                            Some(format!(
                                "cyclically partition `{array}` by {} along dim {} to put the \
                                 rows it reads and the rows it writes back in different banks, \
                                 or ",
                                fs[dim],
                                dim + 1
                            ))
                        })
                        .unwrap_or_default();
                    (
                        format!(
                            "a write-back of `{array}` lands at cycle offset {} of pipelined \
                             loop %{}'s II-{ii} schedule on bank {}, which then serves {} \
                             accesses through {ports_per_bank} port(s); memory alone forces \
                             II >= {res_mii} > declared {ii}",
                            peak.offset, l.iv, peak.bank, peak.demand
                        ),
                        format!("{separate}declare pipeline II >= {res_mii}"),
                    )
                } else if p.exact {
                    (
                        format!(
                            "`{array}` puts {n} same-cycle accesses per iteration of pipelined \
                             loop %{} on one of its {banks} bank(s) x {ports_per_bank} \
                             port(s); memory alone forces II >= {res_mii} > declared {ii}",
                            l.iv
                        ),
                        format!(
                            "partition `{array}` as POM006 suggests, or declare pipeline \
                             II >= {res_mii}"
                        ),
                    )
                } else {
                    (
                        format!(
                            "`{array}` serves {n} concurrent accesses per iteration of \
                             pipelined loop %{} through {banks} bank(s) x {ports_per_bank} \
                             port(s); memory alone forces II >= {res_mii} > declared {ii}",
                            l.iv
                        ),
                        format!(
                            "cyclically partition `{array}` into >= {} banks to feed the \
                             unrolled units, or declare pipeline II >= {res_mii}",
                            n.div_ceil(ports_per_bank)
                        ),
                    )
                };
                out.push(
                    Diagnostic::new(
                        LintCode::PortPressure,
                        Location::in_loops(&cx.func.name, &ivs),
                        message,
                    )
                    .with_suggestion(suggestion),
                );
            }
        }

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

/// An outermost pipelined loop, the ivs of its loops (outermost first,
/// its own last) and its body's concurrent accesses per array.
type PipelineAccesses<'a> = (&'a ForOp, Vec<String>, BTreeMap<String, u64>);

/// Every outermost pipelined loop of `func` with its accesses, each
/// enclosing iv bound at its midpoint, as the estimator binds them.
fn pipelined_accesses(func: &AffineFunc) -> Vec<PipelineAccesses<'_>> {
    fn walk<'a>(
        ops: &'a [AffineOp],
        ivs: &mut Vec<String>,
        env: &mut HashMap<String, i64>,
        found: &mut Vec<PipelineAccesses<'a>>,
    ) {
        for op in ops {
            match op {
                AffineOp::For(l) => {
                    let (lb, ub, _) = loop_trip(l, env);
                    env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
                    ivs.push(l.iv.clone());
                    if l.attrs.pipeline_ii.is_some() {
                        let mut accesses = BTreeMap::new();
                        collect_concurrent_accesses(&l.body, &mut Vec::new(), env, &mut accesses);
                        found.push((l, ivs.clone(), accesses));
                    } else {
                        walk(&l.body, ivs, env, found);
                    }
                    ivs.pop();
                    env.remove(&l.iv);
                }
                AffineOp::If(i) => walk(&i.body, ivs, env, found),
                AffineOp::Store(_) => {}
            }
        }
    }
    let mut found = Vec::new();
    walk(&func.body, &mut Vec::new(), &mut HashMap::new(), &mut found);
    found
}

/// Counts per-array concurrent accesses of a pipelined body, treating
/// every inner loop as fully unrolled (Vitis pipeline semantics), the
/// way the estimator's pipeline body counts them: each loop's copies are
/// its [`loop_trip`] with the enclosing ivs at their midpoints (a
/// constant-bounds empty loop has none), each access's demand its
/// [`pom_hls::port_demand`].
fn collect_concurrent_accesses(
    ops: &[AffineOp],
    unrolled: &mut Vec<(String, u64)>,
    env: &mut HashMap<String, i64>,
    out: &mut BTreeMap<String, u64>,
) {
    for op in ops {
        match op {
            AffineOp::Store(s) => {
                for (array, n) in pom_hls::port_demand(s, unrolled) {
                    let total = out.entry(array.to_string()).or_insert(0);
                    *total = total.saturating_add(n);
                }
            }
            AffineOp::If(i) => collect_concurrent_accesses(&i.body, unrolled, env, out),
            AffineOp::For(l) => {
                let (lb, ub, trip) = loop_trip(l, env);
                if trip == 0 {
                    continue;
                }
                env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
                unrolled.push((l.iv.clone(), trip));
                collect_concurrent_accesses(&l.body, unrolled, env, out);
                unrolled.pop();
                env.remove(&l.iv);
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
            let deps = match pom_verify::self_dependences(c) {
                Ok(deps) => deps,
                Err(e) => {
                    out.push(Diagnostic::new(
                        LintCode::IllegalSchedule,
                        Location::func_scope(&cx.func.name).with_stmt(c.name()),
                        format!(
                            "the dependences of `{}` cannot be analysed ({e}) — the schedule \
                             may be illegal",
                            c.name()
                        ),
                    ));
                    continue;
                }
            };
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
        let timing = pom_hls::WriteTiming {
            model: cx.model,
            deps: cx.deps,
        };
        for rep in pom_bank::analyze_timed(cx.func, &timing) {
            let an = &rep.analysis;
            let Some(min_ii) = an.feasible_ii(rep.declared_ii, ports) else {
                continue; // inexact: claim nothing
            };
            if min_ii <= rep.declared_ii {
                continue;
            }
            let Some(worst) = an
                .profiles
                .iter()
                .filter(|p| p.exact)
                .max_by_key(|p| an.demand(p))
            else {
                continue;
            };
            let path = paths
                .get(&rep.iv)
                .cloned()
                .unwrap_or_else(|| vec![rep.iv.clone()]);
            let suggestion = match pom_bank::minimal_conflict_free_factors(
                cx.func,
                &worst.array,
                ports,
                Some(&timing),
            ) {
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
                        worst.array,
                        worst.banks,
                        an.demand(worst),
                        rep.iv,
                        ports,
                        rep.declared_ii
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

/// A channel whose predicted stall share of the dataflow makespan
/// exceeds this percentage draws a POM010 warning.
pub const CHANNEL_STALL_PCT: u64 = 10;

/// The static start/finish schedule POM010 judges a dataflow plan by.
///
/// Every stage starts at cycle 0 as a concurrent process and runs for
/// its estimated latency, but it cannot start before each input channel
/// holds what its first read needs, nor finish before that channel's last
/// element is written. A ping-pong consumer needs its producer's last
/// element; a FIFO consumer needs the first `min_depth` elements, which
/// is the whole stream once `min_depth` reaches the footprint. A producer
/// writes a channel's final values evenly over the channel's
/// [`written`](crate::ChannelShape::written) window, placed on the
/// producer's own predicted timeline (stretched when its inputs hold it
/// back). A channel's predicted stall is what its consumers wait for it:
/// on the pop side, the waits of the consumers it binds — a consumer's
/// wait is charged to one input, the one whose last element is written
/// last (the first in plan order on a tie), as the co-simulation charges
/// a wait to the latest-arriving read; on the push side of a FIFO, how
/// long after the producer's last write the slowest consumer is still
/// draining.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChannelSchedule {
    /// Predicted start cycle per stage.
    pub start: Vec<u64>,
    /// Predicted finish cycle per stage.
    pub finish: Vec<u64>,
    /// Predicted pop-side wait per channel, summed over the consumers it
    /// binds.
    pub pop: Vec<u64>,
    /// Predicted push-side wait per channel (0 for ping-pong buffers,
    /// which never back-pressure).
    pub push: Vec<u64>,
}

impl ChannelSchedule {
    /// Schedules `shape`'s stages in plan order (every channel flows
    /// forward, so a producer is scheduled before its consumers).
    pub fn new(shape: &crate::DataflowShape) -> Self {
        let (stages, channels) = (&shape.stages, &shape.channels);
        let mut start = vec![0u64; stages.len()];
        let mut finish = vec![0u64; stages.len()];
        // Per channel: when its first needed element and its last
        // element are available.
        let mut first = vec![0u64; channels.len()];
        let mut last = vec![0u64; channels.len()];
        for (s, stage) in stages.iter().enumerate() {
            let inputs = || {
                channels
                    .iter()
                    .enumerate()
                    .filter(move |(_, c)| c.consumers.contains(&s))
            };
            start[s] = inputs().map(|(ci, _)| first[ci]).max().unwrap_or(0);
            let drained = inputs().map(|(ci, _)| last[ci]).max().unwrap_or(0);
            finish[s] = (start[s] + stage.latency).max(drained);
            // The stage's local cycle `t`, on its predicted timeline.
            let span = finish[s] - start[s];
            let at = |t: u64| start[s] + scale(t.min(stage.latency), span, stage.latency);
            for (ci, c) in channels.iter().enumerate().filter(|(_, c)| c.producer == s) {
                let (from, to) = (at(c.written.0), at(c.written.1.max(c.written.0)));
                last[ci] = to;
                first[ci] = if c.pingpong {
                    to
                } else {
                    from + scale(c.min_depth.min(c.footprint), to - from, c.footprint)
                };
            }
        }
        let mut pop = vec![0u64; channels.len()];
        for (k, stage) in stages.iter().enumerate() {
            // The input whose last element arrives last binds the
            // consumer (the first in plan order on a tie) and is charged
            // its wait for that input.
            let binding = channels
                .iter()
                .enumerate()
                .filter(|(_, c)| c.consumers.contains(&k))
                .fold(None, |best: Option<usize>, (ci, _)| match best {
                    Some(b) if last[b] >= last[ci] => Some(b),
                    _ => Some(ci),
                });
            if let Some(ci) = binding {
                pop[ci] += first[ci].max(last[ci].saturating_sub(stage.latency));
            }
        }
        let push = channels
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let drained = c.consumers.iter().map(|&k| finish[k]).max().unwrap_or(0);
                if c.pingpong {
                    0
                } else {
                    drained.saturating_sub(last[ci])
                }
            })
            .collect();
        ChannelSchedule {
            start,
            finish,
            pop,
            push,
        }
    }

    /// The predicted dataflow makespan: the latest stage finish.
    pub fn makespan(&self) -> u64 {
        self.finish.iter().copied().max().unwrap_or(0)
    }

    /// Channel `ci`'s predicted stall cycles (pop + push side).
    pub fn stall(&self, ci: usize) -> u64 {
        self.pop[ci] + self.push[ci]
    }
}

/// `t · num / den`, rounded down; `t` when `den` is 0.
fn scale(t: u64, num: u64, den: u64) -> u64 {
    if den == 0 {
        return t;
    }
    (u128::from(t) * u128::from(num) / u128::from(den)) as u64
}

/// POM010: a dataflow channel is predicted to hold its consumers or its
/// producer back for more than [`CHANNEL_STALL_PCT`]% of the predicted
/// makespan. The prediction is the static [`ChannelSchedule`] over the
/// plan the caller attaches ([`LintContext::with_dataflow`]); no
/// simulation runs. The diagnostic names the channel and the exact
/// positional minimal deadlock-free depth `pom-dataflow` computed for
/// its element streams.
pub struct ChannelPressure;

impl Analysis for ChannelPressure {
    fn name(&self) -> &'static str {
        "channel-pressure"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(shape) = cx.dataflow else {
            return;
        };
        let schedule = ChannelSchedule::new(shape);
        let makespan = schedule.makespan();
        for (ci, ch) in shape.channels.iter().enumerate() {
            let stall = schedule.stall(ci);
            if makespan == 0 || stall * 100 <= makespan * CHANNEL_STALL_PCT {
                continue;
            }
            let pct = stall * 100 / makespan;
            let kind = if ch.pingpong { "ping-pong" } else { "FIFO" };
            let producer = &shape.stages[ch.producer].name;
            let consumers: Vec<&str> = ch
                .consumers
                .iter()
                .map(|&k| shape.stages[k].name.as_str())
                .collect();
            let d = Diagnostic::new(
                LintCode::ChannelPressure,
                Location::func_scope(&cx.func.name).with_stmt(producer),
                format!(
                    "dataflow channel `{}` ({producer} -> {}) is predicted to stall {stall} \
                     of {makespan} cycle(s) ({pct}%): {} waiting to pop, {} waiting to \
                     push on its depth-{} {kind}",
                    ch.array,
                    consumers.join(", "),
                    schedule.pop[ci],
                    schedule.push[ci],
                    ch.capacity
                ),
            );
            let d = if ch.pingpong {
                d.with_suggestion(format!(
                    "the stages around `{}` are rate-mismatched; rebalance their IIs \
                     or unrolls — the buffer itself is deadlock-free at depth >= {}",
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

    /// A producer of `1000` cycles feeding a consumer of `consumer`
    /// cycles through one channel of footprint 1000 and minimal depth 3,
    /// written over `written` of the producer's timeline.
    fn two_stage_shape(consumer: u64, pingpong: bool, written: (u64, u64)) -> crate::DataflowShape {
        let stage = |name: &str, latency| crate::StageShape {
            name: name.into(),
            latency,
        };
        crate::DataflowShape {
            stages: vec![stage("s0", 1000), stage("s1", consumer)],
            channels: vec![crate::ChannelShape {
                array: "tmp".into(),
                producer: 0,
                consumers: vec![1],
                capacity: if pingpong { 2000 } else { 16 },
                pingpong,
                min_depth: 3,
                footprint: 1000,
                written,
            }],
        }
    }

    #[test]
    fn channel_schedule_places_reads_after_the_writes_they_need() {
        // A FIFO consumer starts once 3 of 1000 elements are written and
        // cannot finish before the last one.
        let sched = ChannelSchedule::new(&two_stage_shape(500, false, (0, 1000)));
        assert_eq!((sched.start[1], sched.finish[1]), (3, 1000));
        assert_eq!(
            (sched.pop[0], sched.push[0], sched.makespan()),
            (500, 0, 1000)
        );
        // A consumer slower than its producer keeps a FIFO full after
        // the producer's last write.
        let sched = ChannelSchedule::new(&two_stage_shape(1500, false, (0, 1000)));
        assert_eq!((sched.pop[0], sched.push[0]), (3, 503));
        // Values final only in the last tenth of the producer (an outer
        // reduction loop) arrive late even through a shallow FIFO.
        let sched = ChannelSchedule::new(&two_stage_shape(500, false, (900, 1000)));
        assert_eq!(sched.start[1], 900);
        // A ping-pong consumer waits for the producer's last write.
        let sched = ChannelSchedule::new(&two_stage_shape(500, true, (0, 1000)));
        assert_eq!((sched.start[1], sched.finish[1]), (1000, 1500));
        assert_eq!((sched.pop[0], sched.push[0]), (1000, 0));
    }

    /// A consumer of two channels is bound by the one written last: its
    /// pop wait is charged there alone, and the earlier input gets no pop
    /// stall.
    #[test]
    fn channel_schedule_charges_a_wait_to_the_binding_input_only() {
        let mut shape = two_stage_shape(500, false, (0, 1000));
        shape.stages.insert(
            0,
            crate::StageShape {
                name: "early".into(),
                latency: 100,
            },
        );
        let chan = &mut shape.channels[0];
        (chan.producer, chan.consumers) = (1, vec![2]);
        let mut early = chan.clone();
        (early.array, early.producer, early.written, early.footprint) =
            ("early".into(), 0, (0, 100), 100);
        shape.channels.insert(0, early);
        let sched = ChannelSchedule::new(&shape);
        // The late channel binds: the same wait as with it alone.
        assert_eq!((sched.pop[0], sched.pop[1]), (0, 500));
        // On a tie the first input in plan order binds.
        shape.channels[0].written = (0, 1000);
        shape.stages[0].latency = 1000;
        shape.channels[0].footprint = 1000;
        let sched = ChannelSchedule::new(&shape);
        assert_eq!((sched.pop[0], sched.pop[1]), (500, 0));
    }

    #[test]
    fn channel_pressure_fires_only_above_threshold() {
        let f = AffineFunc::new("df");
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();

        // Rate-matched stages behind a FIFO: 3 + 3 of 1003 predicted
        // cycles, below the 10% threshold, no finding.
        let quiet = two_stage_shape(1000, false, (0, 1000));
        let cx = ctx(&f, &deps, &model, &device).with_dataflow(&quiet);
        let report = Linter::standard().run(&cx);
        assert!(
            report.with_code(LintCode::ChannelPressure).is_empty(),
            "{}",
            report.render("df")
        );

        // A consumer twice as fast as its producer waits 500 of 1000
        // cycles on a FIFO: warns and suggests a deeper FIFO.
        let hot = two_stage_shape(500, false, (0, 1000));
        let cx = ctx(&f, &deps, &model, &device).with_dataflow(&hot);
        let report = Linter::standard().run(&cx);
        let found = report.with_code(LintCode::ChannelPressure);
        assert_eq!(found.len(), 1, "{}", report.render("df"));
        assert_eq!(found[0].severity, Severity::Warning);
        assert!(found[0].message.contains("`tmp`"), "{}", found[0].message);
        assert!(
            found[0].message.contains("predicted"),
            "{}",
            found[0].message
        );
        assert!(found[0].message.contains("(50%)"), "{}", found[0].message);
        let help = found[0].suggestion.as_deref().unwrap();
        assert!(help.contains("deepen"), "{help}");
        assert!(help.contains("minimal deadlock-free depth 3"), "{help}");
        assert!(help.contains("try 32"), "{help}");

        // The same stages behind a ping-pong buffer: the fix is
        // rebalancing the stages, not depth.
        let pp = two_stage_shape(500, true, (0, 1000));
        let cx = ctx(&f, &deps, &model, &device).with_dataflow(&pp);
        let report = Linter::standard().run(&cx);
        let found = report.with_code(LintCode::ChannelPressure);
        assert_eq!(found.len(), 1, "{}", report.render("df"));
        assert!(found[0].message.contains("(66%)"), "{}", found[0].message);
        let help = found[0].suggestion.as_deref().unwrap();
        assert!(help.contains("rate-mismatched"), "{help}");

        // Without a plan attached the analysis is silent.
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
    fn port_pressure_counts_a_symbolic_unrolled_loop_as_the_estimator_does() {
        // Pipelined i in 0..=127 around an unrolled j in 0..=i: the inner
        // bound takes 128 values, more than pom-bank enumerates
        // (`CASE_CAP`), so the pipeline is inexact and both the estimator
        // and POM003 fall back to the even-spread count. At i's midpoint
        // 63 the body holds 64 copies of `y[j] = x[j]`, so both
        // unpartitioned arrays serve 64 accesses through 2 ports.
        let mut f = AffineFunc::new("triangle");
        f.memrefs.push(MemRefDecl::new("x", &[128], DataType::F32));
        f.memrefs.push(MemRefDecl::new("y", &[128], DataType::F32));
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(127)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::For(ForOp {
                extra: Vec::new(),
                iv: "j".into(),
                lbs: vec![cb(0)],
                ubs: vec![Bound::new(LinearExpr::var("i"), 1)],
                attrs: HlsAttrs::none(),
                body: vec![AffineOp::Store(StoreOp {
                    stmt: "s".into(),
                    dest: AccessFn::new("y", vec![LinearExpr::var("j")]),
                    value: load("x", vec![LinearExpr::var("j")]),
                })],
            })],
        }));
        assert!(!pom_bank::analyze_func(&f)[0].analysis.exact);
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let q = pom_hls::estimate(&f, &deps, &model, pom_hls::estimate::Sharing::Reuse);
        // The estimator's even-spread ResMII from the same 64 copies.
        assert_eq!(q.loops[0].unrolled_copies, 64);
        assert_eq!(q.loops[0].port_slide, 0);
        assert_eq!(q.loops[0].achieved_ii, 32);
        let report = Linter::new()
            .register(PortPressure)
            .run(&ctx(&f, &deps, &model, &device));
        assert_eq!(report.warning_count(), 2, "{}", report.render("triangle"));
        for d in &report.diagnostics {
            assert!(
                d.message.contains("serves 64 concurrent accesses"),
                "{}",
                d.message
            );
            assert!(d.message.contains("forces II >= 32"), "{}", d.message);
        }
    }

    #[test]
    fn port_pressure_prices_an_exact_pipeline_by_its_per_bank_demand() {
        // b[i] = a[i+j] + a[i+j+1] over an unrolled j in 0..=3: eight
        // reads naming five elements. The raw count would force
        // ceil(8 / 2) = 4 on an unpartitioned `a`; pom-bank's exact
        // demand, like the estimator's ResMII, is the 5 distinct reads
        // through 2 ports, so II 3 is clean and II 2 is flagged with the
        // figure POM006 reports.
        let window = |ii: i64| {
            let mut f = AffineFunc::new("window");
            f.memrefs.push(MemRefDecl::new("a", &[64], DataType::F32));
            f.memrefs.push(MemRefDecl::new("b", &[64], DataType::F32));
            let (i, j) = (LinearExpr::var("i"), LinearExpr::var("j"));
            f.body.push(AffineOp::For(ForOp {
                extra: Vec::new(),
                iv: "i".into(),
                lbs: vec![cb(0)],
                ubs: vec![cb(59)],
                attrs: HlsAttrs {
                    pipeline_ii: Some(ii),
                    ..Default::default()
                },
                body: vec![AffineOp::For(ForOp {
                    extra: Vec::new(),
                    iv: "j".into(),
                    lbs: vec![cb(0)],
                    ubs: vec![cb(3)],
                    attrs: HlsAttrs::none(),
                    body: vec![AffineOp::Store(StoreOp {
                        stmt: "s".into(),
                        dest: AccessFn::new("b", vec![i.clone()]),
                        value: load("a", vec![i.clone() + j.clone()])
                            + load("a", vec![i.clone() + j.clone() + 1]),
                    })],
                })],
            }));
            f
        };
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let q = pom_hls::estimate(&window(3), &deps, &model, pom_hls::estimate::Sharing::Reuse);
        assert_eq!(q.loops[0].achieved_ii - q.loops[0].port_slide, 3);
        let lint = |f: &AffineFunc| {
            Linter::new()
                .register(PortPressure)
                .register(BankConflict)
                .run(&ctx(f, &deps, &model, &device))
        };
        let f = window(3);
        assert!(lint(&f).is_clean(), "{}", lint(&f).render("window"));
        let f = window(2);
        let report = lint(&f);
        let pom3 = report.with_code(LintCode::PortPressure);
        assert_eq!(pom3.len(), 1, "{}", report.render("window"));
        assert!(
            pom3[0].message.contains("puts 5 same-cycle accesses"),
            "{}",
            pom3[0].message
        );
        assert!(
            pom3[0].message.contains("forces II >= 3"),
            "{}",
            pom3[0].message
        );
        let pom6 = report.with_code(LintCode::BankConflict);
        assert_eq!(pom6.len(), 1, "{}", report.render("window"));
        assert!(
            pom6[0].message.contains("force II >= 3"),
            "{}",
            pom6[0].message
        );
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

    #[test]
    fn port_pressure_names_a_write_back_in_flight_and_the_row_factor() {
        // B[t][i] = (B[t-1][i-1] * 0.5 + B[t-1][i+1] * 0.5) + B[t-1][i],
        // `i` pipelined at II 1 under a `t` that carries the dependence,
        // `B` split by 2 along `i`. Each iteration reads two elements of
        // bank (i+1) % 2 and one of bank i % 2; its write-back lands 13
        // cycles after the issue, on bank (i-13) % 2 = (i+1) % 2 beside
        // the two reads of iteration i+13. A factor 2 along `t` puts rows
        // t-1 and t in different banks.
        let (t, i) = (LinearExpr::var("t"), LinearExpr::var("i"));
        let at = |di: i64| load("B", vec![t.clone() - 1, i.clone() + di]);
        let mut f = AffineFunc::new("stencil");
        let mut b = MemRefDecl::new("B", &[8, 32], DataType::F32);
        b.partition = Some(PartitionInfo {
            factors: vec![1, 2],
            style: pom_dsl::PartitionStyle::Cyclic,
        });
        f.memrefs.push(b);
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "t".into(),
            lbs: vec![cb(1)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(ForOp {
                extra: Vec::new(),
                iv: "i".into(),
                lbs: vec![cb(1)],
                ubs: vec![cb(30)],
                attrs: HlsAttrs {
                    pipeline_ii: Some(1),
                    ..Default::default()
                },
                body: vec![AffineOp::Store(StoreOp {
                    stmt: "s".into(),
                    dest: AccessFn::new("B", vec![t.clone(), i.clone()]),
                    value: (at(-1) * 0.5 + at(1) * 0.5) + at(0),
                })],
            })],
        }));
        let mut deps = DepSummary::new();
        deps.insert(
            "t",
            pom_hls::CarriedDep {
                array: "B".into(),
                distance: 1,
                chain_latency: 13,
            },
        );
        let model = CostModel::vitis_f32();
        let device = DeviceSpec::xc7z020();
        let report = Linter::new()
            .register(PortPressure)
            .run(&ctx(&f, &deps, &model, &device));
        let pom3 = report.with_code(LintCode::PortPressure);
        assert_eq!(pom3.len(), 1, "{}", report.render("stencil"));
        let message = &pom3[0].message;
        for part in [
            "write-back of `B` lands at cycle offset 0",
            "on bank 1",
            "serves 3 accesses",
            "forces II >= 2 > declared 1",
        ] {
            assert!(message.contains(part), "{message}");
        }
        let help = pom3[0].suggestion.as_deref().unwrap();
        assert!(help.contains("by 2 along dim 1"), "{help}");
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
