//! The cycle-approximate simulation engine.
//!
//! Executes an annotated [`AffineFunc`] with the *exact* sequential
//! semantics of `ir::interp::execute_func` — it walks the same compiled
//! [`Program`], and pipeline bodies go through the interpreter's own
//! walker, so the final memory state is bit-identical — while overlaying
//! a timing model of the generated hardware:
//!
//! * A pipelined loop issues one iteration every `pipeline_ii` cycles,
//!   *unless* a loop-carried dependence has not produced its value yet
//!   (dependence stall, at the dependence's actual distance — not just
//!   RecMII) or the memory banks feeding the iteration have no free port
//!   (port stall).
//! * Per-array banking follows the `hls.array_partition` attribute:
//!   cyclic (`i % f`), block (`i / ceil(N/f)`), or complete (modeled as
//!   cyclic with the same factor), combined mixed-radix across
//!   dimensions. Each bank grants `ports_per_bank` accesses per cycle.
//! * Loops inside a pipelined loop are fully unrolled: all their
//!   iterations belong to one pipeline iteration, serialized only through
//!   value forwarding (`ready` times) and port capacity.
//! * Perfect nests of attribute-free, dependence-free loops ending in a
//!   pipelined loop flatten into a single pipeline region (one flush),
//!   mirroring `hls::estimate::try_flatten` — including its refusal to
//!   flatten across unrolled or dependence-carrying levels.
//! * Sequential loops execute iteration chunks of `unroll_factor` copies
//!   in parallel (start together, finish at the max), each iteration
//!   paying `loop_overhead` control cycles; carried dependences serialize
//!   naturally through `ready` times.
//!
//! Forwarded values (written earlier in the same pipeline iteration, or
//! available in registers) bypass the memory: they cost no port and no
//! load latency beyond the producer's finish time.

use crate::dataflow::TraceEvent;
use crate::report::{ArrayOccupancy, BankStall, LoopSim, SimReport};
use pom_bank::ArrayBanks;
use pom_dsl::{Expr, MemoryState};
use pom_hls::{CostModel, DepSummary};
use pom_ir::interp::{Elem, Fault, Loop, Machine, Op, Program};
use pom_ir::AffineFunc;
use std::collections::HashMap;
use std::time::Instant;

/// Simulates `func`, mutating `mem` exactly as `ir::interp::execute_func`
/// would, and returns the measured timing.
///
/// `deps` must be the same dependence summary the estimator sees: it
/// gates loop flattening the same way `hls::estimate` does, so simulated
/// and estimated control structure agree.
///
/// # Panics
///
/// Panics on out-of-bounds accesses or references to missing arrays —
/// the same conditions under which the IR interpreter panics.
pub fn simulate(
    func: &AffineFunc,
    deps: &DepSummary,
    mem: &mut MemoryState,
    model: &CostModel,
) -> SimReport {
    simulate_whole(func, deps, mem, model, false).0
}

/// [`simulate`] with an access trace: additionally returns one
/// [`TraceEvent`] per executed store event (a sequential store, or one
/// pipeline iteration with its inner loops fully unrolled), recording
/// the memory elements read and written and the event's local
/// issue/finish cycles. The dataflow co-simulation replays these traces
/// against bounded inter-stage channels.
pub fn simulate_traced(
    func: &AffineFunc,
    deps: &DepSummary,
    mem: &mut MemoryState,
    model: &CostModel,
) -> (SimReport, Vec<TraceEvent>) {
    simulate_whole(func, deps, mem, model, true)
}

fn simulate_whole(
    func: &AffineFunc,
    deps: &DepSummary,
    mem: &mut MemoryState,
    model: &CostModel,
    trace: bool,
) -> (SimReport, Vec<TraceEvent>) {
    let prog = Program::new(func);
    let mut m = prog.bind(mem);
    let all: Vec<usize> = (0..prog.ops().len()).collect();
    let run = run_stage(func, &prog, &all, &mut m, deps, model, trace);
    m.restore(mem);
    run.unwrap_or_else(|fault| panic!("{fault}"))
}

/// Simulates the top-level ops `stage` of `prog` (compiled from `func`)
/// on `m`, with fresh timing state; the report's `sim_time` is the
/// stage's own.
pub(crate) fn run_stage<'p, 'a>(
    func: &'a AffineFunc,
    prog: &'p Program<'a>,
    stage: &[usize],
    m: &mut Machine<'a>,
    deps: &'p DepSummary,
    model: &'p CostModel,
    trace: bool,
) -> Result<(SimReport, Vec<TraceEvent>), Fault> {
    let t0 = Instant::now();
    let mut sim = Sim::new(func, prog, m, deps, model);
    if trace {
        sim.trace = Some(Vec::new());
    }
    let mut t = 0;
    for &i in stage {
        t = sim.exec_op(&prog.ops()[i], t, m)?;
    }
    let trace = sim.trace.take().unwrap_or_default();
    let mut report = sim.into_report(func.memrefs.len(), t);
    report.sim_time = t0.elapsed();
    Ok((report, trace))
}

/// One store instance collected from a pipeline iteration: its value
/// tree, its loads (a range of `Sim::loads`) and its destination.
struct Inst<'a> {
    value: &'a Expr,
    loads: std::ops::Range<usize>,
    dest: Elem,
}

/// Per-element liveness state for the occupancy counter. An element's
/// value is live from its birth (the step of the store that wrote it, or
/// step 0 for values read before any write — live-ins) until its last
/// read. Successive values of one element produce disjoint intervals
/// except for the handoff case (a store reading its own destination at
/// the same step), which merges into one run so the element is never
/// counted twice.
#[derive(Clone, Copy)]
struct ElemLive {
    /// Open merged liveness run `[open_start, open_end]`;
    /// `open_start == u64::MAX` means no read has been observed yet.
    open_start: u64,
    open_end: u64,
    /// Birth step of the element's current value; `u64::MAX` means never
    /// written (a read then seeds a live-in value born at step 0).
    birth: u64,
}

impl ElemLive {
    const UNTOUCHED: ElemLive = ElemLive {
        open_start: u64::MAX,
        open_end: 0,
        birth: u64::MAX,
    };
}

/// Per-element scratch of the pipeline timing pass, stamped with the
/// iteration (epoch) that set it, so nothing is cleared between
/// iterations: a field is current only while its stamp equals the epoch.
#[derive(Clone, Copy, Default)]
struct Scratch {
    /// Epoch in which the element was first read from memory; `grant` is
    /// that read's port grant.
    seen: u32,
    /// Epoch in which the element was written; `writer` is the index of
    /// the iteration's last store instance writing it.
    written: u32,
    writer: u32,
    grant: u64,
}

/// Port occupancy of one (array, bank) pair within a pipeline region;
/// reset lazily when a new region first reserves on it.
#[derive(Default)]
struct Calendar {
    region: u32,
    base: u64,
    used: Vec<u8>,
}

impl Calendar {
    /// Reserves the earliest port slot at or after `at`; returns its cycle.
    fn reserve(&mut self, at: u64, ports: u64) -> u64 {
        let mut i = at.saturating_sub(self.base) as usize;
        loop {
            if i >= self.used.len() {
                self.used.resize(i + 1, 0);
            }
            if u64::from(self.used[i]) < ports {
                self.used[i] += 1;
                return self.base + i as u64;
            }
            i += 1;
        }
    }
}

/// Issue bookkeeping of one pipeline region (a pipelined loop plus any
/// outer loops flattened into it).
struct Region {
    id: u32,
    start: u64,
    target_ii: u64,
    iters: u64,
    first_issue: u64,
    last_issue: u64,
    last_finish: u64,
    stall_dep: u64,
    stall_port: u64,
}

struct Sim<'p, 'a> {
    deps: &'p DepSummary,
    model: &'p CostModel,
    /// Array names by id (the program's).
    names: &'p [&'a str],
    /// Bank mapping per array (shared semantics with pom-bank's static
    /// analysis — the simulator is its dynamic ground truth).
    info: Vec<ArrayBanks>,
    /// Per array: true when every element sits in bank 0.
    single_bank: Vec<bool>,
    /// Per (array, bank): delayed grants and total slide cycles.
    bank_stalls: Vec<Vec<(u64, u64)>>,
    /// Per element: the cycle its current value becomes forwardable.
    ready: Vec<Vec<u64>>,
    /// Per element: pipeline scratch, allocated for an array the first
    /// time a pipeline iteration touches it.
    scratch: Vec<Vec<Scratch>>,
    /// Per (array, bank): the port calendar of the current region.
    calendars: Vec<Vec<Calendar>>,
    /// The current pipeline iteration's stamp.
    epoch: u32,
    /// Regions started so far (the current region's calendar stamp).
    regions: u32,
    /// Per element: liveness state for the occupancy counter.
    occ: Vec<Vec<ElemLive>>,
    /// Per array: closed liveness intervals emitted so far.
    live_intervals: Vec<Vec<(u64, u64)>>,
    /// Program-order step counter: one step per executed store (its loads
    /// share the step and are ordered before the write).
    step: u64,
    stall_dep: u64,
    stall_port: u64,
    stall_drain: u64,
    pipeline_iterations: u64,
    port_conflicts: u64,
    loop_order: Vec<String>,
    loops: HashMap<String, LoopSim>,
    /// When present, one [`TraceEvent`] is recorded per store event.
    trace: Option<Vec<TraceEvent>>,
    // The current pipeline iteration's store instances, their loads, and
    // the reused buffers of its timing pass.
    insts: Vec<Inst<'a>>,
    loads: Vec<Elem>,
    mem_reads: Vec<Elem>,
    results: Vec<u64>,
    avails: Vec<u64>,
}

impl<'p, 'a> Sim<'p, 'a> {
    fn new(
        func: &'a AffineFunc,
        prog: &'p Program<'a>,
        m: &Machine<'a>,
        deps: &'p DepSummary,
        model: &'p CostModel,
    ) -> Self {
        let names = prog.arrays();
        // An array accessed without a declaration (which the verifier
        // rejects) is simulated as one bank, at its bound shape.
        let info: Vec<ArrayBanks> = (0..names.len())
            .map(|id| match func.memrefs.get(id) {
                Some(decl) => ArrayBanks::of(decl),
                None => ArrayBanks {
                    shape: m.arrays.shape(id).unwrap_or(&[]).to_vec(),
                    dims: Vec::new(),
                },
            })
            .collect();
        let cells = |b: &ArrayBanks| b.shape.iter().product::<usize>();
        let n = names.len();
        Sim {
            deps,
            model,
            names,
            single_bank: info.iter().map(|b| b.banks() == 1).collect(),
            bank_stalls: vec![Vec::new(); n],
            ready: info.iter().map(|b| vec![0u64; cells(b)]).collect(),
            scratch: vec![Vec::new(); n],
            calendars: (0..n).map(|_| Vec::new()).collect(),
            epoch: 0,
            regions: 0,
            occ: info
                .iter()
                .map(|b| vec![ElemLive::UNTOUCHED; cells(b)])
                .collect(),
            live_intervals: vec![Vec::new(); n],
            info,
            step: 0,
            stall_dep: 0,
            stall_port: 0,
            stall_drain: 0,
            pipeline_iterations: 0,
            port_conflicts: 0,
            loop_order: Vec::new(),
            loops: HashMap::new(),
            trace: None,
            insts: Vec::new(),
            loads: Vec::new(),
            mem_reads: Vec::new(),
            results: Vec::new(),
            avails: Vec::new(),
        }
    }

    /// The report, with occupancy rows for the first `declared` arrays
    /// (the memrefs).
    fn into_report(mut self, declared: usize, cycles: u64) -> SimReport {
        let mut loops = self.loops;
        let mut occupancy = Vec::with_capacity(declared);
        for (aid, states) in self.occ.into_iter().enumerate().take(declared) {
            let intervals = &mut self.live_intervals[aid];
            for st in states {
                if st.open_start != u64::MAX {
                    intervals.push((st.open_start, st.open_end));
                }
            }
            occupancy.push(ArrayOccupancy {
                array: self.names[aid].to_string(),
                cells: self.info[aid].shape.iter().product::<usize>() as u64,
                high_water: high_water(intervals),
            });
        }
        let mut bank_stalls: Vec<BankStall> = Vec::new();
        for (aid, banks) in self.bank_stalls.iter().enumerate() {
            for (bank, &(conflicts, slide_cycles)) in banks.iter().enumerate() {
                if conflicts > 0 {
                    bank_stalls.push(BankStall {
                        array: self.names[aid].to_string(),
                        bank: bank as u32,
                        conflicts,
                        slide_cycles,
                    });
                }
            }
        }
        bank_stalls.sort_by(|a, b| a.array.cmp(&b.array).then(a.bank.cmp(&b.bank)));
        SimReport {
            cycles,
            stall_dep: self.stall_dep,
            stall_port: self.stall_port,
            stall_drain: self.stall_drain,
            stall_channel: 0,
            pipeline_iterations: self.pipeline_iterations,
            port_conflicts: self.port_conflicts,
            loops: self
                .loop_order
                .iter()
                .filter_map(|iv| loops.remove(iv))
                .collect(),
            bank_stalls,
            occupancy,
            sim_time: Default::default(),
        }
    }

    // ------------------------------------------------------------------
    // Occupancy tracking
    // ------------------------------------------------------------------

    /// Records one executed store: its loads (reads of the step) followed
    /// by the write to `dest`, advancing the program-order step counter.
    fn occ_access(&mut self, loads: &[Elem], dest: Elem) {
        let s = self.step;
        self.step += 1;
        for &e in loads {
            self.occ_read(e, s);
        }
        self.occ[dest.0][dest.1].birth = s;
    }

    fn occ_read(&mut self, e: Elem, s: u64) {
        let st = &mut self.occ[e.0][e.1];
        // A read of a never-written element observes seeded initial
        // memory: the value is live-in, born at function entry.
        let birth = if st.birth == u64::MAX { 0 } else { st.birth };
        if st.open_start == u64::MAX {
            st.open_start = birth;
            st.open_end = s;
        } else if birth <= st.open_end {
            // Same liveness run: either another read of the same value, or
            // a handoff (the store that wrote this value also read the old
            // one at its own step) — extend, never double-count.
            st.open_end = s;
        } else {
            let closed = (st.open_start, st.open_end);
            st.open_start = birth;
            st.open_end = s;
            self.live_intervals[e.0].push(closed);
        }
    }

    /// The bank an element lives in (mixed-radix across dimensions).
    #[inline]
    fn bank_of(&self, e: Elem) -> u32 {
        if self.single_bank[e.0] {
            0
        } else {
            self.info[e.0].bank_of_flat(e.1)
        }
    }

    /// Attributes one delayed grant on `(array, bank)`.
    fn note_conflict(&mut self, aid: usize, bank: u32, slide: u64) {
        self.port_conflicts += 1;
        let banks = &mut self.bank_stalls[aid];
        if banks.len() <= bank as usize {
            banks.resize(bank as usize + 1, (0, 0));
        }
        let slot = &mut banks[bank as usize];
        slot.0 += 1;
        slot.1 += slide;
    }

    /// Reserves a port of `(array, bank)` at or after `at` in `region`.
    fn grant(&mut self, region: &Region, aid: usize, bank: u32, at: u64, ports: u64) -> u64 {
        let cals = &mut self.calendars[aid];
        if cals.len() <= bank as usize {
            cals.resize_with(bank as usize + 1, Calendar::default);
        }
        let cal = &mut cals[bank as usize];
        if cal.region != region.id {
            cal.region = region.id;
            cal.base = region.start;
            cal.used.clear();
        }
        cal.reserve(at, ports)
    }

    // ------------------------------------------------------------------
    // Sequential execution
    // ------------------------------------------------------------------

    /// Executes ops in sequence starting at cycle `t`; returns the finish
    /// cycle.
    fn exec_seq(&mut self, ops: &'p [Op<'a>], t: u64, m: &mut Machine<'a>) -> Result<u64, Fault> {
        let mut t = t;
        for op in ops {
            t = self.exec_op(op, t, m)?;
        }
        Ok(t)
    }

    fn exec_op(&mut self, op: &'p Op<'a>, t: u64, m: &mut Machine<'a>) -> Result<u64, Fault> {
        match op {
            Op::For(l) => {
                if let Some((outers, pipe)) = self.flatten_chain(l) {
                    self.exec_pipeline(&outers, pipe, t, m)
                } else {
                    self.exec_seq_loop(l, t, m)
                }
            }
            Op::If(g) => {
                if g.holds(m.ivs())? {
                    self.exec_seq(&g.body, t, m)
                } else {
                    Ok(t)
                }
            }
            Op::Store(_) => self.exec_store_seq(op, t, m),
        }
    }

    /// Mirrors `hls::estimate::try_flatten`: the chain of perfect,
    /// attribute-free, dependence-free loops down to a pipelined loop.
    /// `Some((outers, pipe))` when `l` heads a flattenable nest (possibly
    /// with zero outers, i.e. `l` is itself pipelined).
    fn flatten_chain(&self, l: &'p Loop<'a>) -> Option<(Vec<&'p Loop<'a>>, &'p Loop<'a>)> {
        if l.op.attrs.pipeline_ii.is_some() {
            return Some((Vec::new(), l));
        }
        if l.op.attrs.unroll_factor.is_some() || self.deps.carried_at(&l.op.iv).is_some() {
            return None;
        }
        let [Op::For(inner)] = &l.body[..] else {
            return None;
        };
        let (mut outers, pipe) = self.flatten_chain(inner)?;
        outers.insert(0, l);
        Some((outers, pipe))
    }

    fn exec_seq_loop(
        &mut self,
        l: &'p Loop<'a>,
        t: u64,
        m: &mut Machine<'a>,
    ) -> Result<u64, Fault> {
        let (lb, ub) = l.bounds(m.ivs())?;
        if ub < lb {
            return Ok(t);
        }
        let u = l.op.attrs.unroll_factor.unwrap_or(1).max(1);
        let mut t = t;
        let mut v = lb;
        while v <= ub {
            // One chunk of `u` unrolled copies: all start together, the
            // chunk finishes when the slowest copy does. Copies coupled by
            // a carried dependence serialize through `ready` times.
            let chunk_end = v.saturating_add(u - 1).min(ub);
            let start = t;
            let mut finish = start;
            while v <= chunk_end {
                m.set_iv(l, v);
                finish = finish.max(self.exec_seq(&l.body, start, m)?);
                v += 1;
            }
            t = finish + self.model.loop_overhead;
        }
        Ok(t)
    }

    /// Executes the store `op` (an [`Op::Store`]) at cycle `t`.
    fn exec_store_seq(
        &mut self,
        op: &'p Op<'a>,
        t: u64,
        m: &mut Machine<'a>,
    ) -> Result<u64, Fault> {
        let mut finish = t;
        m.walk(std::slice::from_ref(op), &mut |inst, arrays| {
            arrays.exec(inst);
            self.occ_access(inst.loads, inst.dest);
            let model = self.model;
            self.avails.clear();
            for &e in inst.loads {
                let ready = self.ready[e.0][e.1];
                self.avails.push((t + model.load_latency).max(ready));
            }
            let value = &inst.store.op.value;
            let result = walk_time(model, value, &mut self.avails.iter().copied(), t);
            self.ready[inst.dest.0][inst.dest.1] = result;
            finish = result + model.store_latency;
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent {
                    issue: t,
                    finish,
                    reads: inst.loads.to_vec(),
                    writes: vec![inst.dest],
                });
            }
            Ok::<(), Fault>(())
        })?;
        Ok(finish)
    }

    // ------------------------------------------------------------------
    // Pipelined execution
    // ------------------------------------------------------------------

    fn exec_pipeline(
        &mut self,
        outers: &[&'p Loop<'a>],
        pipe: &'p Loop<'a>,
        t: u64,
        m: &mut Machine<'a>,
    ) -> Result<u64, Fault> {
        let target_ii = pipe.op.attrs.pipeline_ii.unwrap_or(1).max(1) as u64;
        self.regions += 1;
        let mut region = Region {
            id: self.regions,
            start: t,
            target_ii,
            iters: 0,
            first_issue: t,
            last_issue: t,
            last_finish: t,
            stall_dep: 0,
            stall_port: 0,
        };
        self.pipe_nest(outers, pipe, &mut region, m)?;
        if region.iters == 0 {
            return Ok(t);
        }
        let drain = region.last_finish.saturating_sub(region.last_issue);
        self.stall_dep += region.stall_dep;
        self.stall_port += region.stall_port;
        self.stall_drain += drain;
        self.pipeline_iterations += region.iters;
        let iv = &pipe.op.iv;
        if !self.loops.contains_key(iv) {
            self.loop_order.push(iv.clone());
            self.loops.insert(
                iv.clone(),
                LoopSim {
                    iv: iv.clone(),
                    target_ii,
                    iterations: 0,
                    flushes: 0,
                    issue_span: 0,
                    active_cycles: 0,
                    stall_dep: 0,
                    stall_port: 0,
                    drain: 0,
                },
            );
        }
        let agg = self.loops.get_mut(iv).expect("inserted above");
        agg.iterations += region.iters;
        agg.flushes += 1;
        agg.issue_span += region.last_issue - region.first_issue;
        agg.active_cycles += region.last_finish.saturating_sub(region.first_issue);
        agg.stall_dep += region.stall_dep;
        agg.stall_port += region.stall_port;
        agg.drain += drain;
        Ok(region.last_finish + self.model.loop_overhead)
    }

    /// Walks the flattened outer loops down to the pipelined loop,
    /// issuing one pipeline iteration per innermost trip.
    fn pipe_nest(
        &mut self,
        outers: &[&'p Loop<'a>],
        pipe: &'p Loop<'a>,
        region: &mut Region,
        m: &mut Machine<'a>,
    ) -> Result<(), Fault> {
        if let Some((first, rest)) = outers.split_first() {
            let (lb, ub) = first.bounds(m.ivs())?;
            for v in lb..=ub {
                m.set_iv(first, v);
                self.pipe_nest(rest, pipe, region, m)?;
            }
            return Ok(());
        }
        let (lb, ub) = pipe.bounds(m.ivs())?;
        for v in lb..=ub {
            m.set_iv(pipe, v);
            self.collect(&pipe.body, m)?;
            self.time_iteration(region);
        }
        Ok(())
    }

    /// Functionally executes one pipeline iteration through the
    /// interpreter's walker (inner loops fully unrolled, conditions
    /// evaluated, stores applied in program order) while collecting its
    /// store instances for the timing pass.
    fn collect(&mut self, ops: &'p [Op<'a>], m: &mut Machine<'a>) -> Result<(), Fault> {
        m.walk(ops, &mut |inst, arrays| {
            arrays.exec(inst);
            self.occ_access(inst.loads, inst.dest);
            for &(aid, _) in inst.loads.iter().chain([&inst.dest]) {
                if self.scratch[aid].is_empty() {
                    self.scratch[aid] = vec![Scratch::default(); self.ready[aid].len()];
                }
            }
            let start = self.loads.len();
            self.loads.extend_from_slice(inst.loads);
            self.insts.push(Inst {
                value: &inst.store.op.value,
                loads: start..self.loads.len(),
                dest: inst.dest,
            });
            Ok::<(), Fault>(())
        })
    }

    /// Starts a new pipeline iteration's stamp, clearing every stamp when
    /// the counter wraps.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            for cells in &mut self.scratch {
                cells.fill(Scratch::default());
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Times one collected pipeline iteration: dependence-ready issue,
    /// port grants, statement results, write-back.
    fn time_iteration(&mut self, region: &mut Region) {
        let ports = self.model.ports_per_bank.max(1);
        let load_latency = self.model.load_latency;
        let ep = self.next_epoch();

        // Classify reads: an element read before any write this iteration
        // comes from memory (needs a port); one written earlier is
        // forwarded in registers. Each element's last writer is the one
        // that writes it back.
        self.mem_reads.clear();
        for (i, inst) in self.insts.iter().enumerate() {
            for &e in &self.loads[inst.loads.clone()] {
                let sc = &mut self.scratch[e.0][e.1];
                if sc.written != ep && sc.seen != ep {
                    sc.seen = ep;
                    self.mem_reads.push(e);
                }
            }
            let sc = &mut self.scratch[inst.dest.0][inst.dest.1];
            sc.written = ep;
            sc.writer = i as u32;
        }

        // Dependence-ready issue time: every memory operand must have been
        // produced early enough that its load (issued `load_latency` ahead
        // of use) returns the new value.
        let tentative = if region.iters == 0 {
            region.start
        } else {
            region.last_issue + region.target_ii
        };
        let mut dep_issue = tentative;
        for &e in &self.mem_reads {
            dep_issue = dep_issue.max(self.ready[e.0][e.1].saturating_sub(load_latency));
        }
        region.stall_dep += dep_issue - tentative;

        // Port grants for the memory reads, in program order.
        let mut issue = dep_issue;
        for i in 0..self.mem_reads.len() {
            let e = self.mem_reads[i];
            let bank = self.bank_of(e);
            let g = self.grant(region, e.0, bank, dep_issue, ports);
            if g > dep_issue {
                self.note_conflict(e.0, bank, g - dep_issue);
            }
            issue = issue.max(g);
            self.scratch[e.0][e.1].grant = g;
        }
        region.stall_port += issue - dep_issue;

        // Statement results in program order, with value forwarding.
        self.results.clear();
        for inst in &self.insts {
            self.avails.clear();
            for &e in &self.loads[inst.loads.clone()] {
                let ready = self.ready[e.0][e.1];
                let sc = &self.scratch[e.0][e.1];
                self.avails.push(if sc.seen == ep {
                    ready.max(sc.grant + load_latency)
                } else {
                    // Forwarded: produced earlier in this iteration.
                    ready.max(dep_issue)
                });
            }
            let result = walk_time(
                self.model,
                inst.value,
                &mut self.avails.iter().copied(),
                dep_issue,
            );
            self.ready[inst.dest.0][inst.dest.1] = result;
            self.results.push(result);
        }

        // Write-back: only the last writer of each element touches memory
        // (earlier same-iteration writes are dead in-register values).
        let mut finish = issue;
        for i in 0..self.insts.len() {
            let dest = self.insts[i].dest;
            if self.scratch[dest.0][dest.1].writer != i as u32 {
                continue;
            }
            let bank = self.bank_of(dest);
            let r = self.results[i];
            let g = self.grant(region, dest.0, bank, r, ports);
            if g > r {
                self.note_conflict(dest.0, bank, g - r);
            }
            finish = finish.max(g + self.model.store_latency);
        }

        if region.iters == 0 {
            region.first_issue = issue;
        }
        region.last_issue = issue;
        region.last_finish = region.last_finish.max(finish);
        region.iters += 1;

        if let Some(tr) = &mut self.trace {
            // Writes in write-back order (the last writer of each element
            // this iteration): their sequence across events defines the
            // channel push order the dataflow co-simulation replays.
            let scratch = &self.scratch;
            let writes: Vec<Elem> = self
                .insts
                .iter()
                .enumerate()
                .filter(|(i, inst)| scratch[inst.dest.0][inst.dest.1].writer == *i as u32)
                .map(|(_, inst)| inst.dest)
                .collect();
            tr.push(TraceEvent {
                issue,
                finish,
                reads: self.mem_reads.clone(),
                writes,
            });
        }

        self.insts.clear();
        self.loads.clear();
    }
}

/// Maximum overlap of closed intervals `[a, b]` by endpoint sweep; at
/// equal coordinates starts are processed before ends, so an interval
/// ending exactly where another begins counts both (both values are live
/// at that step — distinct elements, since same-element runs are merged
/// at emission).
fn high_water(intervals: &[(u64, u64)]) -> u64 {
    let mut starts: Vec<u64> = intervals.iter().map(|&(a, _)| a).collect();
    let mut ends: Vec<u64> = intervals.iter().map(|&(_, b)| b).collect();
    starts.sort_unstable();
    ends.sort_unstable();
    let (mut live, mut max, mut j) = (0u64, 0u64, 0usize);
    for s in starts {
        while j < ends.len() && ends[j] < s {
            live -= 1;
            j += 1;
        }
        live += 1;
        max = max.max(live);
    }
    max
}

/// Computes the result-available time of an expression: DFS in the same
/// order as `Expr::loads`, consuming one availability per `Load` leaf.
fn walk_time(
    model: &CostModel,
    expr: &Expr,
    leaves: &mut impl Iterator<Item = u64>,
    base: u64,
) -> u64 {
    match expr {
        Expr::Load(_) => leaves.next().expect("one availability per load"),
        Expr::Affine(_) | Expr::Const(_) => base,
        Expr::Binary(op, l, r) => {
            let a = walk_time(model, l, leaves, base);
            let b = walk_time(model, r, leaves, base);
            a.max(b) + model.op_latency(*op)
        }
        Expr::Unary(_, e) => walk_time(model, e, leaves, base) + model.fadd.latency,
    }
}
