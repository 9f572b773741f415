//! The cycle-approximate simulation engine.
//!
//! Executes an annotated [`AffineFunc`] with the *exact* sequential
//! semantics of `ir::interp::execute_func` — loop bounds and pipeline
//! bodies go through the interpreter's own `loop_bounds`/`walk_stores`,
//! so the final memory state is bit-identical — while overlaying a timing model of the generated
//! hardware:
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
use pom_dsl::interp::eval_expr;
use pom_dsl::{Expr, MemoryState};
use pom_hls::{CostModel, DepSummary};
use pom_ir::interp::{loop_bounds, walk_stores};
use pom_ir::{AffineFunc, AffineOp, ForOp, StoreOp};
use pom_poly::AccessFn;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
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
    let t0 = Instant::now();
    let mut sim = Sim::new(func, deps, model);
    let cycles = sim.exec_seq(&func.body, 0, mem);
    let mut report = sim.into_report(cycles);
    report.sim_time = t0.elapsed();
    report
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
    let t0 = Instant::now();
    let mut sim = Sim::new(func, deps, model);
    sim.trace = Some(Vec::new());
    let cycles = sim.exec_seq(&func.body, 0, mem);
    let trace = sim.trace.take().unwrap_or_default();
    let mut report = sim.into_report(cycles);
    report.sim_time = t0.elapsed();
    (report, trace)
}

/// `(array id, flat element index)` — the unit of dependence tracking.
type Elem = (usize, usize);

/// One store instance collected from a pipeline iteration.
struct Inst<'a> {
    store: &'a StoreOp,
    loads: Vec<Elem>,
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

/// Port occupancy of one (array, bank) pair within a pipeline region.
struct Calendar {
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

/// Mutable state of one pipeline region (a pipelined loop plus any outer
/// loops flattened into it): issue bookkeeping, port calendars, and
/// per-iteration scratch buffers.
struct Region<'a> {
    start: u64,
    target_ii: u64,
    iters: u64,
    first_issue: u64,
    last_issue: u64,
    last_finish: u64,
    stall_dep: u64,
    stall_port: u64,
    calendars: HashMap<(usize, u32), Calendar>,
    insts: Vec<Inst<'a>>,
    // Scratch, reused across iterations.
    mem_reads: Vec<Elem>,
    seen_reads: HashSet<Elem>,
    written: HashSet<Elem>,
    read_grant: HashMap<Elem, u64>,
    last_writer: HashMap<Elem, usize>,
    results: Vec<u64>,
}

impl<'a> Region<'a> {
    fn new(start: u64, target_ii: u64) -> Self {
        Region {
            start,
            target_ii,
            iters: 0,
            first_issue: start,
            last_issue: start,
            last_finish: start,
            stall_dep: 0,
            stall_port: 0,
            calendars: HashMap::new(),
            insts: Vec::new(),
            mem_reads: Vec::new(),
            seen_reads: HashSet::new(),
            written: HashSet::new(),
            read_grant: HashMap::new(),
            last_writer: HashMap::new(),
            results: Vec::new(),
        }
    }

    fn grant(&mut self, key: (usize, u32), at: u64, ports: u64) -> u64 {
        let start = self.start;
        let cal = self.calendars.entry(key).or_insert_with(|| Calendar {
            base: start,
            used: Vec::new(),
        });
        cal.reserve(at, ports)
    }
}

struct Sim<'a> {
    deps: &'a DepSummary,
    model: &'a CostModel,
    /// Array name → dense id into `info`/`ready`.
    ids: HashMap<&'a str, usize>,
    /// Bank mapping per array (shared semantics with pom-bank's static
    /// analysis — the simulator is its dynamic ground truth).
    info: Vec<ArrayBanks>,
    /// Per-(array id, bank): delayed grants and total slide cycles.
    bank_stalls: HashMap<(usize, u32), (u64, u64)>,
    /// Per element: the cycle its current value becomes forwardable.
    ready: Vec<Vec<u64>>,
    /// Per element: liveness state for the occupancy counter.
    occ: Vec<Vec<ElemLive>>,
    /// Per array: closed liveness intervals emitted so far.
    live_intervals: Vec<Vec<(u64, u64)>>,
    /// Program-order step counter: one step per executed store (its loads
    /// share the step and are ordered before the write).
    step: u64,
    env: HashMap<String, i64>,
    stall_dep: u64,
    stall_port: u64,
    stall_drain: u64,
    pipeline_iterations: u64,
    port_conflicts: u64,
    loop_order: Vec<String>,
    loops: HashMap<String, LoopSim>,
    /// When present, one [`TraceEvent`] is recorded per store event.
    trace: Option<Vec<TraceEvent>>,
}

impl<'a> Sim<'a> {
    fn new(func: &'a AffineFunc, deps: &'a DepSummary, model: &'a CostModel) -> Self {
        let mut ids = HashMap::new();
        let mut info = Vec::new();
        let mut ready = Vec::new();
        let mut occ = Vec::new();
        for m in &func.memrefs {
            ids.insert(m.name.as_str(), info.len());
            let cells = m.shape.iter().product::<usize>();
            ready.push(vec![0u64; cells]);
            occ.push(vec![ElemLive::UNTOUCHED; cells]);
            info.push(ArrayBanks::of(m));
        }
        let live_intervals = vec![Vec::new(); info.len()];
        Sim {
            deps,
            model,
            ids,
            info,
            bank_stalls: HashMap::new(),
            ready,
            occ,
            live_intervals,
            step: 0,
            env: HashMap::new(),
            stall_dep: 0,
            stall_port: 0,
            stall_drain: 0,
            pipeline_iterations: 0,
            port_conflicts: 0,
            loop_order: Vec::new(),
            loops: HashMap::new(),
            trace: None,
        }
    }

    fn into_report(mut self, cycles: u64) -> SimReport {
        let mut loops = self.loops;
        let mut names = vec![""; self.info.len()];
        for (name, &id) in &self.ids {
            names[id] = name;
        }
        let mut occupancy = Vec::with_capacity(self.info.len());
        for (aid, states) in self.occ.into_iter().enumerate() {
            let intervals = &mut self.live_intervals[aid];
            for st in states {
                if st.open_start != u64::MAX {
                    intervals.push((st.open_start, st.open_end));
                }
            }
            occupancy.push(ArrayOccupancy {
                array: names[aid].to_string(),
                cells: self.info[aid].shape.iter().product::<usize>() as u64,
                high_water: high_water(intervals),
            });
        }
        let mut bank_stalls: Vec<BankStall> = self
            .bank_stalls
            .iter()
            .map(|(&(aid, bank), &(conflicts, slide_cycles))| BankStall {
                array: names[aid].to_string(),
                bank,
                conflicts,
                slide_cycles,
            })
            .collect();
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

    /// Resolves an access to its element under `env`.
    fn elem_of(&self, a: &AccessFn, env: &HashMap<String, i64>) -> Elem {
        let aid = *self
            .ids
            .get(a.array.as_str())
            .unwrap_or_else(|| panic!("unknown array {}", a.array));
        let info = &self.info[aid];
        assert_eq!(a.indices.len(), info.shape.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (d, (e, &n)) in a.indices.iter().zip(&info.shape).enumerate() {
            let i = e.eval_partial(env);
            assert!(
                i >= 0 && (i as usize) < n,
                "index {i} out of bounds for dim {d} (size {n})"
            );
            flat = flat * n + i as usize;
        }
        (aid, flat)
    }

    /// The bank an element lives in (mixed-radix across dimensions).
    fn bank_of(&self, e: Elem) -> u32 {
        self.info[e.0].bank_of_flat(e.1)
    }

    /// Attributes one delayed grant on `(array, bank)`.
    fn note_conflict(&mut self, key: (usize, u32), slide: u64) {
        self.port_conflicts += 1;
        let slot = self.bank_stalls.entry(key).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += slide;
    }

    // ------------------------------------------------------------------
    // Sequential execution
    // ------------------------------------------------------------------

    /// Executes ops in sequence starting at cycle `t`; returns the finish
    /// cycle.
    fn exec_seq(&mut self, ops: &'a [AffineOp], t: u64, mem: &mut MemoryState) -> u64 {
        let mut t = t;
        for op in ops {
            t = match op {
                AffineOp::For(l) => {
                    if let Some((outers, pipe)) = self.flatten_chain(l) {
                        self.exec_pipeline(&outers, pipe, t, mem)
                    } else {
                        self.exec_seq_loop(l, t, mem)
                    }
                }
                AffineOp::If(i) => {
                    if i.conds.iter().all(|c| c.satisfied(&self.env)) {
                        self.exec_seq(&i.body, t, mem)
                    } else {
                        t
                    }
                }
                AffineOp::Store(s) => self.exec_store_seq(s, t, mem),
            };
        }
        t
    }

    /// Mirrors `hls::estimate::try_flatten`: the chain of perfect,
    /// attribute-free, dependence-free loops down to a pipelined loop.
    /// `Some((outers, pipe))` when `l` heads a flattenable nest (possibly
    /// with zero outers, i.e. `l` is itself pipelined).
    fn flatten_chain(&self, l: &'a ForOp) -> Option<(Vec<&'a ForOp>, &'a ForOp)> {
        if l.attrs.pipeline_ii.is_some() {
            return Some((Vec::new(), l));
        }
        if l.attrs.unroll_factor.is_some() || self.deps.carried_at(&l.iv).is_some() {
            return None;
        }
        let [AffineOp::For(inner)] = &l.body[..] else {
            return None;
        };
        let (mut outers, pipe) = self.flatten_chain(inner)?;
        outers.insert(0, l);
        Some((outers, pipe))
    }

    fn exec_seq_loop(&mut self, l: &'a ForOp, t: u64, mem: &mut MemoryState) -> u64 {
        let (lb, ub) = loop_bounds(l, &self.env);
        if ub < lb {
            return t;
        }
        let u = l.attrs.unroll_factor.unwrap_or(1).max(1);
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
                self.env.insert(l.iv.clone(), v);
                finish = finish.max(self.exec_seq(&l.body, start, mem));
                v += 1;
            }
            t = finish + self.model.loop_overhead;
        }
        self.env.remove(&l.iv);
        t
    }

    fn exec_store_seq(&mut self, s: &'a StoreOp, t: u64, mem: &mut MemoryState) -> u64 {
        let (elems, dest) = self.exec_store(s, &self.env, mem);
        self.occ_access(&elems, dest);
        let avails: Vec<u64> = elems
            .iter()
            .map(|&e| (t + self.model.load_latency).max(self.ready[e.0][e.1]))
            .collect();
        let result = walk_time(self.model, &s.value, &mut avails.iter().copied(), t);
        self.ready[dest.0][dest.1] = result;
        let finish = result + self.model.store_latency;
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent {
                issue: t,
                finish,
                reads: elems,
                writes: vec![dest],
            });
        }
        finish
    }

    // ------------------------------------------------------------------
    // Pipelined execution
    // ------------------------------------------------------------------

    fn exec_pipeline(
        &mut self,
        outers: &[&'a ForOp],
        pipe: &'a ForOp,
        t: u64,
        mem: &mut MemoryState,
    ) -> u64 {
        let target_ii = pipe.attrs.pipeline_ii.unwrap_or(1).max(1) as u64;
        let mut region = Region::new(t, target_ii);
        self.pipe_nest(outers, pipe, &mut region, mem);
        if region.iters == 0 {
            return t;
        }
        let drain = region.last_finish.saturating_sub(region.last_issue);
        self.stall_dep += region.stall_dep;
        self.stall_port += region.stall_port;
        self.stall_drain += drain;
        self.pipeline_iterations += region.iters;
        if !self.loops.contains_key(&pipe.iv) {
            self.loop_order.push(pipe.iv.clone());
            self.loops.insert(
                pipe.iv.clone(),
                LoopSim {
                    iv: pipe.iv.clone(),
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
        let agg = self.loops.get_mut(&pipe.iv).expect("inserted above");
        agg.iterations += region.iters;
        agg.flushes += 1;
        agg.issue_span += region.last_issue - region.first_issue;
        agg.active_cycles += region.last_finish.saturating_sub(region.first_issue);
        agg.stall_dep += region.stall_dep;
        agg.stall_port += region.stall_port;
        agg.drain += drain;
        region.last_finish + self.model.loop_overhead
    }

    /// Walks the flattened outer loops down to the pipelined loop,
    /// issuing one pipeline iteration per innermost trip.
    fn pipe_nest(
        &mut self,
        outers: &[&'a ForOp],
        pipe: &'a ForOp,
        region: &mut Region<'a>,
        mem: &mut MemoryState,
    ) {
        if let Some((first, rest)) = outers.split_first() {
            let (lb, ub) = loop_bounds(first, &self.env);
            for v in lb..=ub {
                self.env.insert(first.iv.clone(), v);
                self.pipe_nest(rest, pipe, region, mem);
            }
            self.env.remove(&first.iv);
            return;
        }
        let (lb, ub) = loop_bounds(pipe, &self.env);
        for v in lb..=ub {
            self.env.insert(pipe.iv.clone(), v);
            self.collect(&pipe.body, region, mem);
            self.time_iteration(region);
        }
        self.env.remove(&pipe.iv);
    }

    /// Applies one store instance to `mem` exactly as the interpreter does
    /// and resolves the elements it read and the one it wrote.
    fn exec_store(
        &self,
        s: &StoreOp,
        env: &HashMap<String, i64>,
        mem: &mut MemoryState,
    ) -> (Vec<Elem>, Elem) {
        let loads = s
            .value
            .loads()
            .iter()
            .map(|a| self.elem_of(a, env))
            .collect();
        let v = eval_expr(&s.value, env, mem);
        mem.store(&s.dest, env, v);
        (loads, self.elem_of(&s.dest, env))
    }

    /// Functionally executes one pipeline iteration through the
    /// interpreter's walker (inner loops fully unrolled, conditions
    /// evaluated, stores applied in program order) while collecting its
    /// store instances for the timing pass.
    fn collect(&mut self, ops: &'a [AffineOp], region: &mut Region<'a>, mem: &mut MemoryState) {
        let mut env = std::mem::take(&mut self.env);
        let Ok(()) = walk_stores(ops, &mut env, &mut |store, env| {
            let (loads, dest) = self.exec_store(store, env, mem);
            self.occ_access(&loads, dest);
            region.insts.push(Inst { store, loads, dest });
            Ok::<(), Infallible>(())
        });
        self.env = env;
    }

    /// Times one collected pipeline iteration: dependence-ready issue,
    /// port grants, statement results, write-back.
    fn time_iteration(&mut self, region: &mut Region<'a>) {
        let insts = std::mem::take(&mut region.insts);
        let ports = self.model.ports_per_bank.max(1);

        // Classify reads: an element read before any write this iteration
        // comes from memory (needs a port); one written earlier is
        // forwarded in registers.
        region.mem_reads.clear();
        region.seen_reads.clear();
        region.written.clear();
        for inst in &insts {
            for &e in &inst.loads {
                if !region.written.contains(&e) && region.seen_reads.insert(e) {
                    region.mem_reads.push(e);
                }
            }
            region.written.insert(inst.dest);
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
        for &e in &region.mem_reads {
            dep_issue = dep_issue.max(self.ready[e.0][e.1].saturating_sub(self.model.load_latency));
        }
        region.stall_dep += dep_issue - tentative;

        // Port grants for the memory reads, in program order.
        region.read_grant.clear();
        let mut issue = dep_issue;
        for i in 0..region.mem_reads.len() {
            let e = region.mem_reads[i];
            let bank = self.bank_of(e);
            let g = region.grant((e.0, bank), dep_issue, ports);
            if g > dep_issue {
                self.note_conflict((e.0, bank), g - dep_issue);
            }
            issue = issue.max(g);
            region.read_grant.insert(e, g);
        }
        region.stall_port += issue - dep_issue;

        // Statement results in program order, with value forwarding.
        region.results.clear();
        for inst in &insts {
            let avails = inst.loads.iter().map(|&e| {
                let ready = self.ready[e.0][e.1];
                match region.read_grant.get(&e) {
                    Some(&g) => ready.max(g + self.model.load_latency),
                    // Forwarded: produced earlier in this iteration.
                    None => ready.max(dep_issue),
                }
            });
            let result = walk_time(
                self.model,
                &inst.store.value,
                &mut avails.collect::<Vec<_>>().into_iter(),
                dep_issue,
            );
            self.ready[inst.dest.0][inst.dest.1] = result;
            region.results.push(result);
        }

        // Write-back: only the last writer of each element touches memory
        // (earlier same-iteration writes are dead in-register values).
        region.last_writer.clear();
        for (i, inst) in insts.iter().enumerate() {
            region.last_writer.insert(inst.dest, i);
        }
        let mut finish = issue;
        for (i, inst) in insts.iter().enumerate() {
            if region.last_writer.get(&inst.dest) != Some(&i) {
                continue;
            }
            let bank = self.bank_of(inst.dest);
            let r = region.results[i];
            let g = region.grant((inst.dest.0, bank), r, ports);
            if g > r {
                self.note_conflict((inst.dest.0, bank), g - r);
            }
            finish = finish.max(g + self.model.store_latency);
        }

        if region.iters == 0 {
            region.first_issue = issue;
        }
        region.last_issue = issue;
        region.last_finish = region.last_finish.max(finish);
        region.iters += 1;

        if self.trace.is_some() {
            // Writes in write-back order (the last writer of each element
            // this iteration): their sequence across events defines the
            // channel push order the dataflow co-simulation replays.
            let writes: Vec<Elem> = insts
                .iter()
                .enumerate()
                .filter(|(i, inst)| region.last_writer.get(&inst.dest) == Some(i))
                .map(|(_, inst)| inst.dest)
                .collect();
            let reads = region.mem_reads.clone();
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent {
                    issue,
                    finish,
                    reads,
                    writes,
                });
            }
        }

        region.insts = insts;
        region.insts.clear();
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
