//! The analytical QoR estimator — the paper's in-house performance model
//! (Section VI-B cites the ScaleHLS/COMBA model \[35\]\[38\]).
//!
//! Core equations:
//!
//! * Pipelined loop: `II = max(RecMII, ResMII, 1)` with
//!   `RecMII = ceil(chain_latency / dependence_distance)` over dependences
//!   carried at the pipelined level, and `ResMII` from memory-port
//!   pressure ([`port_res_mii`]): where pom-bank analyses the pipeline
//!   exactly, each array's per-bank demand `ceil(demand / ports)`, and
//!   for an array both read and written back the least II at which each
//!   cycle of the modulo schedule — the issuing iteration's reads plus the
//!   write-backs landing then ([`WriteTiming`]) — fits the ports; else
//!   the even-spread bound `ceil(accesses / (banks × ports))` per array;
//!   `latency = (trip - 1) * II + depth`.
//! * Loops inside a pipelined loop are fully unrolled (Vitis semantics);
//!   inner carried dependences serialize into the pipeline depth.
//! * Sequential composition sums latencies; resources compose by `max`
//!   under resource *reuse* (POM's temporal sharing) or by `+` under
//!   *dataflow* (ScaleHLS's DNN mapping, Fig. 13).

use crate::cost::CostModel;
use crate::device::ResourceUsage;
use pom_dsl::expr::OpCounts;
use pom_dsl::Expr;
use pom_ir::{AffineFunc, AffineOp, ForOp, StoreOp};
use std::collections::HashMap;

/// A loop-carried dependence at some loop, as seen by the estimator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CarriedDep {
    /// The array the dependence flows through.
    pub array: String,
    /// Minimal carried distance (iterations).
    pub distance: u64,
    /// Latency of the operation chain that must complete between the
    /// dependent iterations.
    pub chain_latency: u64,
}

impl CarriedDep {
    /// The recurrence MII `ceil((chain_latency + serial) / distance)`, at
    /// least 1: `serial` is the latency of an unrolled reduction chain
    /// through the same array that the recurrence also waits on (0 when
    /// there is none).
    pub fn rec_mii(&self, serial: u64) -> u64 {
        (self.chain_latency + serial)
            .div_ceil(self.distance.max(1))
            .max(1)
    }
}

/// Port demand of each access of `s` (destination first, then the loads)
/// inside the fully unrolled loops `unrolled`, `(iv, trip)` outermost
/// first: the product of the trips of the unrolled loops the access
/// varies with. An access not varying with an unrolled iv is a broadcast,
/// not an extra port demand.
pub fn port_demand<'a>(
    s: &'a StoreOp,
    unrolled: &'a [(String, u64)],
) -> impl Iterator<Item = (&'a str, u64)> + 'a {
    std::iter::once(&s.dest)
        .chain(s.value.loads())
        .map(move |a| {
            let distinct = unrolled
                .iter()
                .filter(|(iv, _)| a.indices.iter().any(|e| e.uses(iv)))
                .fold(1u64, |n, (_, t)| n.saturating_mul(*t))
                .max(1);
            (a.array.as_str(), distinct)
        })
}

/// The write-back timing the simulator's `time_iteration` follows: a
/// statement's result is written back [`expr_latency`] cycles after its
/// iteration issues when no read slid, a loop that carries a dependence
/// is not flattened into the pipeline below it, and each bank grants the
/// model's ports per cycle.
pub struct WriteTiming<'a> {
    /// The operator latencies.
    pub model: &'a CostModel,
    /// The loops that carry a dependence.
    pub deps: &'a DepSummary,
}

impl pom_bank::Timing for WriteTiming<'_> {
    fn landing(&self, s: &StoreOp) -> u64 {
        expr_latency(&s.value, self.model)
    }

    fn carried(&self, iv: &str) -> bool {
        self.deps.carried_at(iv).is_some()
    }

    fn ports_per_bank(&self) -> u64 {
        self.model.ports_per_bank
    }
}

/// One array's memory-port bound on a pipelined loop's II, as
/// [`port_res_mii`] prices it: `ceil(demand / ports)`, or where its
/// write-backs are placed in flight, the least II at which they fit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortMii {
    /// The array.
    pub array: String,
    /// Accesses per iteration the bound divides: the largest per-bank
    /// demand under the exact model, the raw access count under the
    /// even-spread one.
    pub demand: u64,
    /// The ports serving `demand` each cycle: one bank's under the exact
    /// model, every bank's under the even-spread one.
    pub ports: u64,
    /// Whether `demand` is pom-bank's exact per-bank figure.
    pub exact: bool,
    /// Where the array is read and written back and pom-bank placed its
    /// write-backs in flight: the least II at or above `port_res_mii`'s
    /// `from` that fits them, and the busiest bank-cycle at `from`.
    pub in_flight: Option<(u64, pom_bank::Peak)>,
}

impl PortMii {
    /// The II this array's ports alone force, at least 1.
    pub fn res_mii(&self) -> u64 {
        self.in_flight
            .as_ref()
            .map_or(self.demand.div_ceil(self.ports.max(1)), |(ii, _)| *ii)
            .max(1)
    }
}

/// The memory-port ResMII of one pipelined loop at or above `from`, one
/// [`PortMii`] per array — the port model the estimator and pom-lint's
/// POM003 share.
///
/// Where `bank`, pom-bank's analysis of the loop, is exact, each array's
/// bound is its largest per-bank demand over one bank's ports: an
/// element is read once per iteration however many unrolled copies name
/// it, and a bank serves only its own accesses. An array both read from
/// memory and written back takes its write-backs' ports at their result
/// cycles, beside a later iteration's reads; where pom-bank placed them
/// ([`pom_bank::InFlight`]), its bound is the least II at or above
/// `from` and every other array's bound at which each cycle of the
/// modulo schedule fits ([`pom_bank::BankAnalysis::fit_from`]).
/// Everywhere else — an inexact analysis, write-backs not placed, or no
/// II that fits them — each array's bound is the even-spread
/// `ceil(accesses / (banks × ports))` over `accesses`, the per-array sums
/// of [`port_demand`], with `banks` giving an array's bank count.
pub fn port_res_mii<'a>(
    bank: Option<&pom_bank::BankAnalysis>,
    from: u64,
    accesses: impl IntoIterator<Item = (&'a str, u64)>,
    banks: impl Fn(&str) -> u64,
    ports_per_bank: u64,
) -> Vec<PortMii> {
    let ports = ports_per_bank.max(1);
    let exact = bank
        .filter(|b| b.min_feasible_ii(ports).is_some() && b.placed())
        .and_then(|b| {
            let lo = b
                .profiles
                .iter()
                .filter(|p| b.flight(&p.array).is_none())
                .map(|p| p.max_demand.div_ceil(ports))
                .fold(from.max(1), u64::max);
            Some((b, b.fit_from(lo, ports)?))
        });
    match exact {
        Some((b, ii)) => b
            .profiles
            .iter()
            .map(|p| PortMii {
                array: p.array.clone(),
                demand: p.max_demand,
                ports: ports_per_bank,
                exact: true,
                in_flight: b.flight(&p.array).map(|f| (ii, f.peak(from).clone())),
            })
            .collect(),
        None => accesses
            .into_iter()
            .map(|(array, demand)| PortMii {
                array: array.to_string(),
                demand,
                ports: banks(array).saturating_mul(ports_per_bank),
                exact: false,
                in_flight: None,
            })
            .collect(),
    }
}

/// Per-loop dependence summary keyed by induction-variable name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DepSummary {
    carried: HashMap<String, CarriedDep>,
}

impl DepSummary {
    /// No known dependences.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a carried dependence at loop `iv`, keeping the most
    /// constraining one (max `chain/distance`).
    pub fn insert(&mut self, iv: impl Into<String>, dep: CarriedDep) {
        let iv = iv.into();
        match self.carried.get(&iv) {
            Some(cur) if cur.chain_latency * dep.distance >= dep.chain_latency * cur.distance => {}
            _ => {
                self.carried.insert(iv, dep);
            }
        }
    }

    /// The dependence carried at loop `iv`, if any.
    pub fn carried_at(&self, iv: &str) -> Option<&CarriedDep> {
        self.carried.get(iv)
    }

    /// The names of all loops that carry a dependence.
    pub fn loops(&self) -> impl Iterator<Item = &str> {
        self.carried.keys().map(String::as_str)
    }
}

/// Latency of the operation chain from a load of `array` to the statement
/// result — the recurrence chain for a dependence flowing through
/// `array`. `None` when the expression never loads `array`.
pub fn dep_chain_latency(expr: &Expr, array: &str, model: &CostModel) -> Option<u64> {
    match expr {
        Expr::Load(a) => (a.array == array).then_some(0),
        Expr::Affine(_) | Expr::Const(_) => None,
        Expr::Binary(op, l, r) => {
            let lat = model.op_latency(*op);
            match (
                dep_chain_latency(l, array, model),
                dep_chain_latency(r, array, model),
            ) {
                (Some(a), Some(b)) => Some(a.max(b) + lat),
                (Some(a), None) | (None, Some(a)) => Some(a + lat),
                (None, None) => None,
            }
        }
        Expr::Unary(_, e) => dep_chain_latency(e, array, model).map(|c| c + model.fadd.latency),
    }
}

/// Critical-path latency of a statement body expression.
pub fn expr_latency(expr: &Expr, model: &CostModel) -> u64 {
    match expr {
        Expr::Load(_) => model.load_latency,
        Expr::Affine(_) | Expr::Const(_) => 0,
        Expr::Binary(op, l, r) => {
            model.op_latency(*op) + expr_latency(l, model).max(expr_latency(r, model))
        }
        Expr::Unary(_, e) => model.fadd.latency + expr_latency(e, model),
    }
}

/// How resources compose across sequentially executed loop nests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Sharing {
    /// Temporal reuse: nests share hardware (`max`) — POM's policy.
    #[default]
    Reuse,
    /// Dataflow: every nest gets its own hardware (`+`) — ScaleHLS's DNN
    /// mapping.
    Dataflow,
}

impl Sharing {
    /// Resources of `a` and `b` executed one after the other under this
    /// policy.
    pub fn compose(self, a: &ResourceUsage, b: &ResourceUsage) -> ResourceUsage {
        match self {
            Sharing::Reuse => a.max(b),
            Sharing::Dataflow => a.plus(b),
        }
    }
}

/// Per-pipelined-loop results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopQoR {
    /// Induction variable.
    pub iv: String,
    /// Achieved initiation interval — the effective issue-to-issue
    /// distance, including any per-iteration port slide.
    pub achieved_ii: u64,
    /// Per-iteration issue slide from banks the reads alone overload
    /// (part of `achieved_ii`). No declared II absorbs it, so the DSE
    /// retarget excludes it; only repartitioning the offending array
    /// removes it. A write-back in flight is not a slide: the II decides
    /// which reads it lands beside, so it raises the ResMII instead.
    pub port_slide: u64,
    /// Trip count of the pipelined loop.
    pub trip: u64,
    /// Pipeline depth (cycles).
    pub depth: u64,
    /// Unrolled copies executing per pipeline iteration.
    pub unrolled_copies: u64,
    /// Statements stored inside the loop body. Induction-variable names
    /// repeat across sibling nests (every stage of a fused image pipeline
    /// pipelines an `i`), so per-loop consumers key on these, not on `iv`.
    pub stmts: Vec<String>,
}

/// Quality-of-result estimate for a function.
#[derive(Clone, Debug, PartialEq)]
pub struct QoR {
    /// Total latency in clock cycles.
    pub latency: u64,
    /// Resource usage.
    pub resources: ResourceUsage,
    /// Power proxy in watts.
    pub power: f64,
    /// Pipelined loops encountered, outer-to-inner, left-to-right.
    pub loops: Vec<LoopQoR>,
}

impl QoR {
    /// Speedup of `self` over `baseline` in cycles.
    pub fn speedup_over(&self, baseline: &QoR) -> f64 {
        baseline.latency as f64 / self.latency.max(1) as f64
    }
}

/// BRAM18K units one array occupies: `bits` spread over `banks` banks,
/// each bank rounded up to whole 18-kbit blocks (at least one block per
/// bank). The single accounting shared by the estimator, pom-lint's
/// POM003 budget check, and the DSE's BRAM prescreen.
pub fn bram18k_units(bits: u64, banks: u64) -> u64 {
    let b = banks.max(1);
    b * bits.div_ceil(b).div_ceil(18 * 1024).max(1)
}

/// The bank-selection muxing of one array split into `banks` banks: 8
/// LUT and 4 FF per bank, nothing for an unpartitioned array. [`estimate`]
/// adds it once per array of the function; the DSE's resource walk-back
/// composes it the same way without lowering.
pub fn bank_mux(banks: u64) -> ResourceUsage {
    if banks > 1 {
        ResourceUsage {
            lut: banks * 8,
            ff: banks * 4,
            ..ResourceUsage::zero()
        }
    } else {
        ResourceUsage::zero()
    }
}

/// Estimates the QoR of an annotated affine function.
pub fn estimate(func: &AffineFunc, deps: &DepSummary, model: &CostModel, sharing: Sharing) -> QoR {
    estimate_ops(func, deps, model, sharing).0
}

/// [`estimate`], beside the latency of each top-level op of `func.body`
/// as the estimate sums them into `QoR::latency` (saturating). The one
/// composition of loop latencies: per-stage consumers read this slice
/// rather than re-deriving it from `QoR::loops`.
pub fn estimate_ops(
    func: &AffineFunc,
    deps: &DepSummary,
    model: &CostModel,
    sharing: Sharing,
) -> (QoR, Vec<u64>) {
    let banks: HashMap<String, u64> = func
        .memrefs
        .iter()
        .map(|m| (m.name.clone(), m.banks().max(1) as u64))
        .collect();
    // pom-bank's analysis of each pipelined loop whose per-iteration
    // accesses it enumerates exactly. Keyed by the loop's statements —
    // sibling nests reuse iv names.
    let timing = WriteTiming { model, deps };
    let exact_banks: Vec<(Vec<String>, pom_bank::BankAnalysis)> =
        pom_bank::analyze_timed(func, &timing)
            .into_iter()
            .filter(|r| r.analysis.port_slide(model.ports_per_bank).is_some())
            .map(|r| (r.stmts, r.analysis))
            .collect();
    let mut est = Estimator {
        model,
        deps,
        banks: &banks,
        exact_banks: &exact_banks,
        sharing,
        loops: Vec::new(),
    };
    let mut env = HashMap::new();
    let mut op_latency = Vec::with_capacity(func.body.len());
    let (latency, compute_res) = est.seq(&func.body, &mut env, |l| op_latency.push(l));

    // Memory resources: BRAM banks per array, plus partition muxing.
    let mut res = compute_res;
    for m in &func.memrefs {
        let b = m.banks().max(1) as u64;
        res.bram18k += bram18k_units(m.bits(), b);
        res = res.plus(&bank_mux(b));
    }
    let power = model.power(&res);
    let qor = QoR {
        latency,
        resources: res,
        power,
        loops: est.loops,
    };
    (qor, op_latency)
}

/// A loop's lower and upper bound under `env`, the upper clamped to
/// the lower.
fn loop_range(l: &ForOp, env: &HashMap<String, i64>) -> (i64, i64) {
    let lb = l.lbs.iter().map(|b| b.eval_lower(env)).max().unwrap_or(0);
    let ub = l.ubs.iter().map(|b| b.eval_upper(env)).min().unwrap_or(lb);
    (lb, ub.max(lb))
}

/// The trip count used for costing, next to the (clamped)
/// representative range `(lb, ub, trip)` under `env`, which binds the
/// enclosing loops' ivs to representative values (the estimator uses
/// nest midpoints). A loop with **constant** bounds gets its exact trip
/// — possibly 0, in which case it contributes no latency. Symbolic
/// bounds are evaluated under the representative values, which can
/// spuriously look empty at tile edges, so those keep the historical
/// clamp to at least 1.
pub fn loop_trip(l: &ForOp, env: &HashMap<String, i64>) -> (i64, i64, u64) {
    let (lb, ub) = loop_range(l, env);
    let constant =
        l.lbs.iter().all(|b| b.expr.is_constant()) && l.ubs.iter().all(|b| b.expr.is_constant());
    let raw = l
        .ubs
        .iter()
        .map(|b| b.eval_upper(env))
        .min()
        .unwrap_or(lb)
        .saturating_sub(lb)
        .saturating_add(1);
    let trip = if constant { raw.max(0) } else { raw.max(1) } as u64;
    (lb, ub, trip)
}

struct Estimator<'a> {
    model: &'a CostModel,
    deps: &'a DepSummary,
    banks: &'a HashMap<String, u64>,
    /// pom-bank's exact analysis per pipelined loop (keyed by the loop's
    /// statements).
    exact_banks: &'a [(Vec<String>, pom_bank::BankAnalysis)],
    sharing: Sharing,
    loops: Vec<LoopQoR>,
}

impl Estimator<'_> {
    /// Sequential composition of sibling ops; `each` sees every op's
    /// latency in order.
    fn seq(
        &mut self,
        ops: &[AffineOp],
        env: &mut HashMap<String, i64>,
        mut each: impl FnMut(u64),
    ) -> (u64, ResourceUsage) {
        let mut latency = 0u64;
        let mut res = ResourceUsage::zero();
        for op in ops {
            let (l, r) = self.one(op, env);
            each(l);
            latency = latency.saturating_add(l);
            res = self.sharing.compose(&res, &r);
        }
        (latency, res)
    }

    fn one(&mut self, op: &AffineOp, env: &mut HashMap<String, i64>) -> (u64, ResourceUsage) {
        match op {
            AffineOp::Store(s) => {
                let lat = expr_latency(&s.value, self.model) + self.model.store_latency;
                let counts = s.value.op_counts();
                (lat, self.model.body_resources(&counts))
            }
            AffineOp::If(i) => self.seq(&i.body, env, |_| {}),
            AffineOp::For(l) => {
                if l.attrs.pipeline_ii.is_some() {
                    self.pipelined(l, env)
                } else {
                    self.sequential_loop(l, env)
                }
            }
        }
    }

    /// Loop flattening (Vitis `loop_flatten`): a perfect nest of plain
    /// loops ending in a pipelined loop flushes once per *outer* entry,
    /// not once per tile — model it by multiplying the pipelined trip.
    /// Flattening is blocked by unrolling and by dependences carried at
    /// the flattened loop (Vitis refuses those too).
    fn try_flatten(
        &mut self,
        l: &ForOp,
        env: &mut HashMap<String, i64>,
    ) -> Option<(u64, u64, u64, ResourceUsage)> {
        // Returns (ii, depth, flattened_trip, resources).
        let (lb, ub, trip) = loop_trip(l, env);
        if l.attrs.pipeline_ii.is_some() {
            env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
            let (ii, depth, res) = self.pipelined_parts(l, env);
            env.remove(&l.iv);
            return Some((ii, depth, trip, res));
        }
        if l.attrs.unroll_factor.is_some() || self.deps.carried_at(&l.iv).is_some() {
            return None;
        }
        let [AffineOp::For(inner)] = &l.body[..] else {
            return None;
        };
        env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
        let result = self.try_flatten(inner, env);
        env.remove(&l.iv);
        let (ii, depth, inner_trip, res) = result?;
        Some((ii, depth, trip.saturating_mul(inner_trip), res))
    }

    fn sequential_loop(
        &mut self,
        l: &ForOp,
        env: &mut HashMap<String, i64>,
    ) -> (u64, ResourceUsage) {
        if let Some((ii, depth, trip, res)) = self.try_flatten(l, env) {
            return (pipeline_latency(trip, ii, depth), res);
        }
        let (lb, ub, trip) = loop_trip(l, env);
        if trip == 0 {
            // A constant-bounds empty loop runs zero iterations: no
            // latency, no datapath — only its control logic exists.
            return (0, self.model.loop_control);
        }
        env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
        let (body_lat, body_res) = self.seq(&l.body, env, |_| {});
        env.remove(&l.iv);

        let unroll = l.attrs.unroll_factor.unwrap_or(1).max(1) as u64;
        let u = unroll.min(trip);
        let iters = trip.div_ceil(u);
        let carried = self.deps.carried_at(&l.iv);
        let per_iter = if carried.is_some() && u > 1 {
            // Unrolled copies serialize through the carried dependence.
            body_lat
                .saturating_mul(u)
                .saturating_add(self.model.loop_overhead)
        } else {
            body_lat.saturating_add(self.model.loop_overhead)
        };
        let latency = iters.saturating_mul(per_iter);
        let res = body_res.scaled(u).plus(&self.model.loop_control);
        (latency, res)
    }

    fn pipelined(&mut self, l: &ForOp, env: &mut HashMap<String, i64>) -> (u64, ResourceUsage) {
        let (lb, ub, trip) = loop_trip(l, env);
        env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
        let (ii, depth, res) = self.pipelined_parts(l, env);
        env.remove(&l.iv);
        (pipeline_latency(trip, ii, depth), res)
    }

    /// The II, depth, and resources of a pipelined loop body (`env` must
    /// already bind the loop's own iv to a representative value).
    fn pipelined_parts(
        &mut self,
        l: &ForOp,
        env: &mut HashMap<String, i64>,
    ) -> (u64, u64, ResourceUsage) {
        let (_, _, trip) = loop_trip(l, env);

        let mut body = PipeBody::default();
        self.collect_pipe_body(&l.body, 1, env, &mut body);

        // Pipeline depth: longest statement chain + the longest reduction
        // tree among the unrolled inner loops.
        let max_serial = body.serial_chains.values().copied().max().unwrap_or(0);
        let depth = body.max_stmt_latency + max_serial + self.model.loop_overhead;

        // RecMII from dependences carried at this loop. When the unrolled
        // body also chains through the same array (a reduction whose
        // result feeds back across pipeline iterations), the whole
        // reduction tree is on the recurrence.
        let rec_mii = self.deps.carried_at(&l.iv).map_or(1, |d| {
            d.rec_mii(body.serial_chains.get(&d.array).copied().unwrap_or(0))
        });

        // ResMII from memory ports at or above the RecMII: pom-bank's
        // exact per-bank demand, with write-backs in flight, where the
        // port model admits it, else the even-spread bound.
        let ports = self.model.ports_per_bank;
        let exact = self
            .exact_banks
            .iter()
            .find(|(stmts, _)| body.stmts.iter().any(|s| stmts.contains(s)))
            .map(|(_, b)| b);
        let res_mii = port_res_mii(
            exact,
            rec_mii,
            body.accesses.iter().map(|(a, &n)| (a.as_str(), n)),
            |a| self.banks.get(a).copied().unwrap_or(1),
            ports,
        )
        .iter()
        .map(PortMii::res_mii)
        .fold(1, u64::max);
        let base = rec_mii.max(res_mii);

        // The simulator's calendars grant all of an iteration's reads at
        // the issue cycle, so a bank whose read demand exceeds its ports
        // slides the issue by `ceil(demand/ports) - 1` cycles past the
        // *declared* II on every iteration. Where pom-bank enumerated the
        // accesses exactly, floor the effective II at `declared + slide`;
        // the excess over `base` is reported as `port_slide` and kept out
        // of the declared-II retarget (no II absorbs it — only
        // repartitioning removes it).
        let declared = l.attrs.pipeline_ii.unwrap_or(1).max(1) as u64;
        let ii = exact
            .and_then(|b| b.port_slide(ports))
            .map_or(base, |s| base.max(declared + s));

        // Resources: unrolled operator instances are spatial — every copy
        // gets its own operators (Vitis only time-shares across iterations
        // of the *pipelined* loop, which the II already accounts for).
        let c = &body.counts;
        let mut res = ResourceUsage::zero();
        let scale = |cost: &crate::cost::OpCost, n: u64| cost.resources.scaled(n);
        res = res.plus(&scale(&self.model.fadd, (c.add + c.sub) as u64));
        res = res.plus(&scale(&self.model.fmul, c.mul as u64));
        res = res.plus(&scale(&self.model.fdiv, c.div as u64));
        res = res.plus(&scale(&self.model.fcmp, c.cmp as u64));
        res = res.plus(&self.model.loop_control);

        self.loops.push(LoopQoR {
            iv: l.iv.clone(),
            achieved_ii: ii,
            port_slide: ii - base,
            trip,
            depth,
            unrolled_copies: body.copies,
            stmts: body.stmts,
        });
        (ii, depth, res)
    }

    /// Collects the fully-unrolled body of a pipelined loop: operator
    /// counts, per-array access counts, the longest statement latency, and
    /// the serialization chains of inner carried dependences.
    fn collect_pipe_body(
        &self,
        ops: &[AffineOp],
        mult: u64,
        env: &mut HashMap<String, i64>,
        out: &mut PipeBody,
    ) {
        for op in ops {
            match op {
                AffineOp::Store(s) => {
                    if !out.stmts.contains(&s.stmt) {
                        out.stmts.push(s.stmt.clone());
                    }
                    let lat = expr_latency(&s.value, self.model) + self.model.store_latency;
                    out.max_stmt_latency = out.max_stmt_latency.max(lat);
                    let c = s.value.op_counts();
                    let copies = usize::try_from(mult).unwrap_or(usize::MAX);
                    let add = |total: &mut usize, n: usize| {
                        *total = total.saturating_add(n.saturating_mul(copies));
                    };
                    add(&mut out.counts.add, c.add);
                    add(&mut out.counts.sub, c.sub);
                    add(&mut out.counts.mul, c.mul);
                    add(&mut out.counts.div, c.div);
                    add(&mut out.counts.cmp, c.cmp);
                    out.copies = out.copies.max(mult);
                    for (array, n) in port_demand(s, &out.unrolled) {
                        let total = out.accesses.entry(array.to_string()).or_insert(0);
                        *total = total.saturating_add(n);
                    }
                }
                AffineOp::If(i) => self.collect_pipe_body(&i.body, mult, env, out),
                AffineOp::For(l) => {
                    let (lb, ub, trip) = loop_trip(l, env);
                    if trip == 0 {
                        // Constant-bounds empty loop: no unrolled copies,
                        // no accesses, no reduction chain.
                        continue;
                    }
                    if let Some(dep) = self.deps.carried_at(&l.iv) {
                        // The unrolled copies along this loop form a
                        // balanced reduction tree plus one accumulate:
                        // depth = ceil(log2(copies)) * chain + chain.
                        let copies = (trip / dep.distance.max(1)).max(1);
                        if copies > 1 {
                            let tree_levels = 64 - (copies - 1).leading_zeros() as u64;
                            let serial = (tree_levels + 1) * dep.chain_latency;
                            let e = out.serial_chains.entry(dep.array.clone()).or_insert(0);
                            *e = (*e).max(serial);
                        }
                    }
                    env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
                    out.unrolled.push((l.iv.clone(), trip));
                    self.collect_pipe_body(&l.body, mult.saturating_mul(trip), env, out);
                    out.unrolled.pop();
                    env.remove(&l.iv);
                }
            }
        }
    }
}

/// `(trip - 1) * II + depth`, hardened for degenerate trips: an empty
/// pipeline (trip 0, possible once constant-bounds loops report exact
/// trips) costs nothing, and trip 1 pays the depth alone — `depth > trip`
/// is fine because the fill/drain cost is depth-, not trip-, shaped.
pub fn pipeline_latency(trip: u64, ii: u64, depth: u64) -> u64 {
    if trip == 0 {
        0
    } else {
        (trip - 1).saturating_mul(ii).saturating_add(depth)
    }
}

#[derive(Default)]
struct PipeBody {
    counts: OpCounts,
    accesses: HashMap<String, u64>,
    max_stmt_latency: u64,
    serial_chains: HashMap<String, u64>,
    copies: u64,
    /// Stack of enclosing unrolled loops `(iv, trip)` during collection.
    unrolled: Vec<(String, u64)>,
    /// Statement names stored in the body, in program order.
    stmts: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::{DataType, PartitionStyle};
    use pom_ir::{HlsAttrs, MemRefDecl, PartitionInfo, StoreOp};
    use pom_poly::{AccessFn, Bound, LinearExpr};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    fn accumulate_loop(n: i64, pipeline: bool) -> AffineFunc {
        // for i in 0..n: acc[0] = acc[0] + x[i]
        let mut f = AffineFunc::new("acc");
        f.memrefs.push(MemRefDecl::new("acc", &[1], DataType::F32));
        f.memrefs
            .push(MemRefDecl::new("x", &[n as usize], DataType::F32));
        let body = pom_dsl::Expr::Load(AccessFn::new("acc", vec![LinearExpr::zero()]))
            + pom_dsl::Expr::Load(AccessFn::new("x", vec![LinearExpr::var("i")]));
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(n - 1)],
            attrs: HlsAttrs {
                pipeline_ii: pipeline.then_some(1),
                ..Default::default()
            },
            body: vec![AffineOp::Store(StoreOp {
                stmt: "S".into(),
                dest: AccessFn::new("acc", vec![LinearExpr::zero()]),
                value: body,
            })],
        }));
        f
    }

    #[test]
    fn chain_latency_of_accumulation_is_fadd() {
        let m = CostModel::vitis_f32();
        let e = pom_dsl::Expr::Load(AccessFn::new("acc", vec![LinearExpr::zero()]))
            + pom_dsl::Expr::Load(AccessFn::new("x", vec![LinearExpr::var("i")]));
        assert_eq!(dep_chain_latency(&e, "acc", &m), Some(4));
        assert_eq!(dep_chain_latency(&e, "y", &m), None);
    }

    #[test]
    fn recurrence_limits_ii() {
        // Accumulation carried at i with distance 1, chain 4 -> II = 4.
        let m = CostModel::vitis_f32();
        let f = accumulate_loop(100, true);
        let mut deps = DepSummary::new();
        deps.insert(
            "i",
            CarriedDep {
                array: "acc".into(),
                distance: 1,
                chain_latency: 4,
            },
        );
        let q = estimate(&f, &deps, &m, Sharing::Reuse);
        assert_eq!(q.loops.len(), 1);
        assert_eq!(q.loops[0].achieved_ii, 4);
        // Larger distance relaxes the recurrence: d=2 -> II = 2.
        let mut deps2 = DepSummary::new();
        deps2.insert(
            "i",
            CarriedDep {
                array: "acc".into(),
                distance: 2,
                chain_latency: 4,
            },
        );
        let q2 = estimate(&f, &deps2, &m, Sharing::Reuse);
        assert_eq!(q2.loops[0].achieved_ii, 2);
        assert!(q2.latency < q.latency);
    }

    #[test]
    fn pipelining_beats_sequential() {
        let m = CostModel::vitis_f32();
        let seq = estimate(
            &accumulate_loop(1000, false),
            &DepSummary::new(),
            &m,
            Sharing::Reuse,
        );
        let pip = estimate(
            &accumulate_loop(1000, true),
            &DepSummary::new(),
            &m,
            Sharing::Reuse,
        );
        assert!(
            pip.latency * 3 < seq.latency,
            "pipelined {} vs sequential {}",
            pip.latency,
            seq.latency
        );
    }

    #[test]
    fn ports_limit_ii_without_partitioning() {
        // Pipelined outer loop with a fully unrolled inner loop of 32
        // iterations, all loading from the same unpartitioned array:
        // 32 reads + ... through 2 ports -> ResMII ~ 32/2 = 16+.
        let m = CostModel::vitis_f32();
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("x", &[1024], DataType::F32));
        f.memrefs.push(MemRefDecl::new("y", &[1024], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("y", vec![LinearExpr::var("j")]),
            value: pom_dsl::Expr::Load(AccessFn::new("x", vec![LinearExpr::var("j")])) * 2.0,
        };
        let inner = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(31)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(store)],
        };
        let outer = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(31)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::For(inner)],
        };
        f.body.push(AffineOp::For(outer));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q.loops[0].achieved_ii, 16, "32 accesses over 2 ports");

        // Partitioning x and y by 16 restores II = 1.
        let mut f2 = f.clone();
        for a in ["x", "y"] {
            f2.memref_mut(a).unwrap().partition = Some(PartitionInfo {
                factors: vec![16],
                style: PartitionStyle::Cyclic,
            });
        }
        let q2 = estimate(&f2, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q2.loops[0].achieved_ii, 1);
        assert!(q2.latency < q.latency);
    }

    #[test]
    fn bank_collisions_raise_res_mii_above_even_spread() {
        // b[i] = a[2i] + a[2i+2] + a[2i+4] with a partitioned cyclic(2):
        // all three reads are even — they share residue class 0 and pile
        // into one bank. Even-spread says ceil(3 / (2 banks × 2 ports)) =
        // 1; the exact per-bank demand is 3 → II = 2.
        let m = CostModel::vitis_f32();
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("a", &[256], DataType::F32));
        f.memrefs.push(MemRefDecl::new("b", &[64], DataType::F32));
        f.memref_mut("a").unwrap().partition = Some(PartitionInfo {
            factors: vec![2],
            style: PartitionStyle::Cyclic,
        });
        let i = LinearExpr::var("i");
        let two_i = i.clone() * 2;
        let body = pom_dsl::Expr::Load(AccessFn::new("a", vec![two_i.clone()]))
            + pom_dsl::Expr::Load(AccessFn::new("a", vec![two_i.clone() + 2]))
            + pom_dsl::Expr::Load(AccessFn::new("a", vec![two_i.clone() + 4]));
        let l = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(63)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::Store(StoreOp {
                stmt: "S".into(),
                dest: AccessFn::new("b", vec![i.clone()]),
                value: body,
            })],
        };
        f.body.push(AffineOp::For(l));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q.loops[0].achieved_ii, 2, "per-bank demand 3 over 2 ports");
        // Factor 4 still maps the window onto two even banks (demand 2,
        // one cycle's worth of ports) — II returns to 1.
        let mut f2 = f.clone();
        f2.memref_mut("a").unwrap().partition = Some(PartitionInfo {
            factors: vec![4],
            style: PartitionStyle::Cyclic,
        });
        let q2 = estimate(&f2, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q2.loops[0].achieved_ii, 1);
    }

    /// `dest = a[i+j] + a[i+j+1] + a[i+j+2]` over an unrolled j in 0..=2
    /// inside a pipelined i, `a` cyclically partitioned by 4: nine reads
    /// of a five-element window.
    fn window_sum(dest: AccessFn) -> AffineFunc {
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("a", &[128], DataType::F32));
        f.memrefs.push(MemRefDecl::new("b", &[64], DataType::F32));
        f.memref_mut("a").unwrap().partition = Some(PartitionInfo {
            factors: vec![4],
            style: PartitionStyle::Cyclic,
        });
        let ij = LinearExpr::var("i") + LinearExpr::var("j");
        let body = pom_dsl::Expr::Load(AccessFn::new("a", vec![ij.clone()]))
            + pom_dsl::Expr::Load(AccessFn::new("a", vec![ij.clone() + 1]))
            + pom_dsl::Expr::Load(AccessFn::new("a", vec![ij + 2]));
        let inner = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(2)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(StoreOp {
                stmt: "S".into(),
                dest,
                value: body,
            })],
        };
        f.body.push(AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(59)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::For(inner)],
        }));
        f
    }

    #[test]
    fn exact_res_mii_reads_each_element_once() {
        // Even spread prices all nine reads: ceil(9 / (4 banks × 2
        // ports)) = 2. pom-bank sees five distinct elements, at most two
        // per bank: one cycle's ports, II 1.
        let m = CostModel::vitis_f32();
        let f = window_sum(AccessFn::new("b", vec![LinearExpr::var("i")]));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q.loops[0].unrolled_copies, 3);
        assert_eq!(q.loops[0].achieved_ii, 1);
        assert_eq!(q.loops[0].port_slide, 0);
        let bank = &pom_bank::analyze_func(&f)[0].analysis;
        assert_eq!(bank.min_feasible_ii(m.ports_per_bank), Some(1));
    }

    #[test]
    fn a_write_back_in_flight_prices_the_cycle_it_lands_in() {
        // The same window, its sum written back into `a` 10 cycles (a load
        // and two fadds) after its iteration issues. One iteration's
        // profile fits a cycle's ports either way; what decides the II is
        // the bank the write-back lands on, beside the reads of the
        // iteration issuing then. a[i+65] lands at II 1 on bank (i+3) % 4,
        // which that iteration reads once: II 1.
        let m = CostModel::vitis_f32();
        let i = LinearExpr::var("i");
        let f = window_sum(AccessFn::new("a", vec![i.clone() + 65]));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q.loops[0].achieved_ii, 1);
        // a[i+66] lands on bank i % 4, beside two reads: 3 accesses for 2
        // ports. At II 2 it lands beside the iteration five later, on bank
        // (i+1) % 4 and one read.
        let f = window_sum(AccessFn::new("a", vec![i + 66]));
        let bank = &pom_bank::analyze_func(&f)[0].analysis;
        assert_eq!(bank.min_feasible_ii(m.ports_per_bank), Some(1));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q.loops[0].achieved_ii, 2);
        assert_eq!(q.loops[0].port_slide, 0);
        let deps = DepSummary::new();
        let timing = WriteTiming {
            model: &m,
            deps: &deps,
        };
        let bank = &pom_bank::analyze_timed(&f, &timing)[0].analysis;
        let ports = port_res_mii(Some(bank), 1, [], |_| 4, m.ports_per_bank);
        let (ii, peak) = ports[0].in_flight.clone().expect("placed");
        assert_eq!((ii, peak.demand, peak.offset), (2, 3, 0));
    }

    #[test]
    fn unrolled_inner_reduction_serializes_depth_not_ii() {
        // Pipelined outer i; inner k (trip 8) carries the accumulation:
        // II stays 1, depth grows by 7 * chain.
        let m = CostModel::vitis_f32();
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("a", &[64], DataType::F32));
        f.memrefs
            .push(MemRefDecl::new("x", &[64, 8], DataType::F32));
        f.memref_mut("x").unwrap().partition = Some(PartitionInfo {
            factors: vec![1, 8],
            style: PartitionStyle::Cyclic,
        });
        let body = pom_dsl::Expr::Load(AccessFn::new("a", vec![LinearExpr::var("i")]))
            + pom_dsl::Expr::Load(AccessFn::new(
                "x",
                vec![LinearExpr::var("i"), LinearExpr::var("k")],
            ));
        let inner = ForOp {
            extra: Vec::new(),
            iv: "k".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(StoreOp {
                stmt: "S".into(),
                dest: AccessFn::new("a", vec![LinearExpr::var("i")]),
                value: body,
            })],
        };
        let outer = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(63)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::For(inner)],
        };
        f.body.push(AffineOp::For(outer));
        let mut deps = DepSummary::new();
        deps.insert(
            "k",
            CarriedDep {
                array: "a".into(),
                distance: 1,
                chain_latency: 4,
            },
        );
        let q = estimate(&f, &deps, &m, Sharing::Reuse);
        // a[i] does not vary with the unrolled k loop: the accumulation is
        // registered (one effective read + write per pipeline iteration),
        // so ports do not throttle the II.
        assert_eq!(q.loops[0].achieved_ii, 1);
        assert!(
            q.loops[0].depth >= 16,
            "reduction tree in the pipeline depth"
        );
    }

    #[test]
    fn perfect_nests_flatten_into_the_pipeline() {
        // k { i { j pipelined } } with no carried deps at k or i: the
        // pipeline flushes once, not once per (k, i) pair.
        let m = CostModel::vitis_f32();
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("x", &[4096], DataType::F32));
        f.memrefs.push(MemRefDecl::new("y", &[4096], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("y", vec![LinearExpr::var("j")]),
            value: pom_dsl::Expr::Load(AccessFn::new("x", vec![LinearExpr::var("j")])) * 2.0,
        };
        let j = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(15)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::Store(store)],
        };
        let i = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(15)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(j)],
        };
        let k = ForOp {
            extra: Vec::new(),
            iv: "k".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(15)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(i)],
        };
        f.body.push(AffineOp::For(k));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        // Flattened trip = 16^3 = 4096 at II = 1, one depth: ~4096 + depth,
        // far below the per-tile-flush model 16*16*(15 + depth).
        assert!(
            q.latency < 4096 + 100,
            "flattened latency expected, got {}",
            q.latency
        );

        // A carried dependence at `i` blocks flattening across it.
        let mut deps = DepSummary::new();
        deps.insert(
            "i",
            CarriedDep {
                array: "y".into(),
                distance: 1,
                chain_latency: 4,
            },
        );
        let q2 = estimate(&f, &deps, &m, Sharing::Reuse);
        assert!(
            q2.latency > q.latency,
            "carried dep must force per-i flushes: {} vs {}",
            q2.latency,
            q.latency
        );
    }

    #[test]
    fn empty_constant_loops_cost_nothing() {
        // Trip 0 with constant bounds: zero latency, sequential or
        // pipelined, alone or heading a flattenable nest.
        let m = CostModel::vitis_f32();
        for pipeline in [false, true] {
            let f = accumulate_loop(0, pipeline);
            let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
            assert_eq!(q.latency, 0, "pipeline={pipeline}");
        }
        // An empty outer loop over a pipelined inner: the flattened trip
        // is 0 * inner, and the whole nest must cost 0 (this used to
        // underflow `(trip - 1) * ii` before trips could be 0).
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("x", &[16], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("x", vec![LinearExpr::var("j")]),
            value: pom_dsl::Expr::Load(AccessFn::new("x", vec![LinearExpr::var("j")])) * 2.0,
        };
        let inner = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(15)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::Store(store)],
        };
        let outer = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(-1)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(inner)],
        };
        f.body.push(AffineOp::For(outer));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q.latency, 0);
    }

    #[test]
    fn empty_unrolled_inner_loop_contributes_nothing() {
        // A constant-empty loop inside a pipelined body must add no
        // copies, no port pressure, and no reduction chain.
        let m = CostModel::vitis_f32();
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("x", &[64], DataType::F32));
        f.memrefs.push(MemRefDecl::new("y", &[64], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("y", vec![LinearExpr::var("j")]),
            value: pom_dsl::Expr::Load(AccessFn::new("x", vec![LinearExpr::var("j")])) * 2.0,
        };
        let empty = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(-1)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(store)],
        };
        let outer = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(31)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::For(empty)],
        };
        f.body.push(AffineOp::For(outer));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q.loops[0].achieved_ii, 1, "no accesses -> no ResMII");
        assert_eq!(q.loops[0].unrolled_copies, 0);
        assert_eq!(q.resources.dsp, 0, "no operator instances");
    }

    #[test]
    fn trip_one_pipeline_pays_depth_only() {
        // depth > trip: a single iteration costs exactly the pipeline
        // depth, with no issue-interval term.
        let m = CostModel::vitis_f32();
        let f = accumulate_loop(1, true);
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q.loops.len(), 1);
        assert_eq!(q.loops[0].trip, 1);
        assert_eq!(q.latency, q.loops[0].depth);
        assert!(q.loops[0].depth > 1, "depth exceeds the trip count");
    }

    #[test]
    fn symbolic_empty_bounds_keep_the_representative_clamp() {
        // Inner bounds depending on an outer iv evaluate under a
        // representative midpoint and can *look* empty at tile edges;
        // those keep trip >= 1 so tiled suite QoR is unchanged.
        let m = CostModel::vitis_f32();
        let mut f = AffineFunc::new("f");
        f.memrefs.push(MemRefDecl::new("x", &[64], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("x", vec![LinearExpr::var("j")]),
            value: pom_dsl::Expr::Load(AccessFn::new("x", vec![LinearExpr::var("j")])) * 2.0,
        };
        // j in [i, 1]: at the representative i = (0+63)/2 this is empty,
        // but it does run for real i in {0, 1}.
        let inner = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![Bound::new(LinearExpr::var("i"), 1)],
            ubs: vec![cb(1)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::Store(store)],
        };
        let outer = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(63)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(inner)],
        };
        f.body.push(AffineOp::For(outer));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert!(q.latency > 0, "symbolic bounds must not zero out the nest");
    }

    #[test]
    fn op_latencies_sum_to_the_latency() {
        // Two sibling nests, one pipelined: each top-level op's latency is
        // what the estimate added for it.
        let m = CostModel::vitis_f32();
        let mut f = accumulate_loop(64, true);
        f.body.push(accumulate_loop(32, false).body.remove(0));
        let (q, ops) = estimate_ops(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q, estimate(&f, &DepSummary::new(), &m, Sharing::Reuse));
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0], pipeline_latency(64, 1, q.loops[0].depth));
        assert_eq!(ops.iter().sum::<u64>(), q.latency);
    }

    #[test]
    fn sharing_policies_differ() {
        let m = CostModel::vitis_f32();
        let f1 = accumulate_loop(64, true);
        // Two copies of the nest in sequence.
        let mut f = f1.clone();
        let op = f.body[0].clone();
        f.body.push(op);
        let reuse = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        let dataflow = estimate(&f, &DepSummary::new(), &m, Sharing::Dataflow);
        assert!(dataflow.resources.dsp > reuse.resources.dsp);
        assert_eq!(dataflow.latency, reuse.latency);
    }

    #[test]
    fn bram_accounting() {
        let m = CostModel::vitis_f32();
        let mut f = AffineFunc::new("f");
        // 4096 floats = 131072 bits = 8 BRAM18K when unpartitioned...
        // 131072 / 18432 = 7.1 -> 8.
        f.memrefs
            .push(MemRefDecl::new("big", &[4096], DataType::F32));
        let q = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        assert_eq!(q.resources.bram18k, 8);
    }

    #[test]
    fn power_increases_with_parallelism() {
        let m = CostModel::vitis_f32();
        let f = accumulate_loop(64, false);
        let fp = accumulate_loop(64, true);
        let q_seq = estimate(&f, &DepSummary::new(), &m, Sharing::Reuse);
        let q_pip = estimate(&fp, &DepSummary::new(), &m, Sharing::Reuse);
        assert!(q_pip.power >= q_seq.power * 0.9);
        assert!(q_seq.power > 0.0);
    }

    #[test]
    fn speedup_over_baseline() {
        let m = CostModel::vitis_f32();
        let seq = estimate(
            &accumulate_loop(1000, false),
            &DepSummary::new(),
            &m,
            Sharing::Reuse,
        );
        let pip = estimate(
            &accumulate_loop(1000, true),
            &DepSummary::new(),
            &m,
            Sharing::Reuse,
        );
        assert!(pip.speedup_over(&seq) > 3.0);
        assert!((seq.speedup_over(&seq) - 1.0).abs() < 1e-9);
    }
}
