//! The sign-off sequence, the layer-by-layer replay of a winner, and the
//! output checks. The reference an output is compared with is never the
//! compiler under test: final memory comes from `pom::reference_execute`
//! on the *unscheduled* DSL program (`pom_dsl::interp`).

use crate::child::{compile, one_line, Design};
use crate::metrics::{PER_LAYER, TOTAL_DURATION_SPANS};
use crate::stats::{geomean, ratio};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{Input, Kind, Workload};
use pom::dse::compile::{apply_schedule, build_dep_summary, lower};
use pom::verify::{Certificate, ObligationStatus};
use pom::{
    CompileOptions, DataflowPlan, DataflowReport, DeviceSpec, DseConfig, Function, LintReport,
    MemoryState, SimReport, ValidationReport,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything the traced child hands to the parent: summed values by
/// name, output checks, and one row per design for the ledger.
#[derive(Default)]
pub struct Ledger {
    pub values: BTreeMap<String, f64>,
    /// `(design, check, passed, detail)`.
    pub checks: Vec<(String, String, bool, String)>,
    pub rows: Vec<String>,
    sim_cycles: Vec<f64>,
    dataflow_cycles: Vec<f64>,
    speedups: Vec<f64>,
    cycle_gains: Vec<f64>,
}

impl Ledger {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &str, v: f64) {
        let e = self.values.entry(name.to_string()).or_insert(v);
        *e = e.max(v);
    }

    fn min(&mut self, name: &str, v: f64) {
        let e = self.values.entry(name.to_string()).or_insert(v);
        *e = e.min(v);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn check(&mut self, design: &str, name: &str, ok: bool, detail: &str) {
        self.checks
            .push((design.to_string(), name.to_string(), ok, one_line(detail)));
    }

    /// Derives the ratios and the `_s` metrics once every span is closed.
    pub fn finish(&mut self, spans: &[Span]) {
        let by_name = trace::self_time_by_name(spans);
        for metric in &PER_LAYER {
            if let Some(span_name) = metric.name.strip_suffix("_s") {
                let v = if TOTAL_DURATION_SPANS.contains(&span_name) {
                    trace::total_by_name(spans, span_name)
                } else {
                    by_name.get(span_name).copied().unwrap_or(0.0)
                };
                // Reported phase times were summed as the searches returned.
                if !metric.name.ends_with("_reported_s") {
                    self.values.insert(metric.name.to_string(), v);
                }
            }
        }
        for name in ["dse.greedy_reference", "dse.storeless_reference"] {
            let v = by_name.get(name).copied().unwrap_or(0.0);
            self.values.insert(format!("{name}_s"), v);
        }
        let derived = [
            (
                "poly.memo_hit_ratio",
                ratio(self.get("poly.memo_hits"), self.get("poly.memo_lookups")),
            ),
            (
                "cache.hit_ratio",
                ratio(
                    self.get("cache.hits"),
                    self.get("cache.hits") + self.get("cache.misses"),
                ),
            ),
            (
                "bank.exact_ratio",
                ratio(self.get("bank.exact_loops"), self.get("bank.loops")),
            ),
            (
                "live.exact_ratio",
                ratio(self.get("live.exact_arrays"), self.get("live.arrays")),
            ),
            (
                "dataflow.fifo_ratio",
                ratio(self.get("dataflow.fifos"), self.get("dataflow.channels")),
            ),
            (
                "dataflow.overlap_ratio",
                ratio(self.get("sim.cycles"), self.get("sim.dataflow_cycles")),
            ),
            (
                "verify.passed_ratio",
                ratio(self.get("verify.passed"), self.get("verify.obligations")),
            ),
            (
                "sim.cycles_per_host_s",
                ratio(self.get("sim.cycles"), self.get("sim.simulate_s")),
            ),
            (
                "dse.portfolio_time_ratio",
                ratio(
                    self.get("dse.auto_dse_s"),
                    self.get("dse.greedy_reference_s"),
                ),
            ),
            ("dse.portfolio_cycle_gain", geomean(&self.cycle_gains)),
            (
                "store.cold_over_storeless",
                ratio(
                    self.get("store.cold_s"),
                    self.get("dse.storeless_reference_s"),
                ),
            ),
            (
                "store.warm_over_storeless",
                ratio(
                    self.get("store.warm_s"),
                    self.get("dse.storeless_reference_s"),
                ),
            ),
            // What the search spent outside every phase it reports. The
            // reported phases add up worker threads' time, so with two
            // workers the share can dip below zero.
            (
                "dse.unattributed_share",
                if self.get("dse.auto_dse_s") > 0.0 {
                    1.0 - (self.get("dse.stage1_reported_s")
                        + self.get("dse.lowering_reported_s")
                        + self.get("dse.estimation_reported_s")
                        + self.get("dse.sim_reported_s")
                        + self.get("dse.dataflow_reported_s"))
                        / self.get("dse.auto_dse_s")
                } else {
                    0.0
                },
            ),
            ("sim_cycles_geomean", geomean(&self.sim_cycles)),
            ("dataflow_cycles_geomean", geomean(&self.dataflow_cycles)),
            ("est_speedup_geomean", geomean(&self.speedups)),
        ];
        for (name, v) in derived {
            self.values.insert(name.to_string(), v);
        }
    }

    pub fn print(&self) {
        for (name, v) in &self.values {
            println!("value {name} {v}");
        }
        for (design, name, ok, detail) in &self.checks {
            println!(
                "check {design} {name} {} {detail}",
                if *ok { "ok" } else { "FAIL" }
            );
        }
        for row in &self.rows {
            println!("row {row}");
        }
    }
}

/// What `pomc --emit lint|verify|sim|live|dataflow|c|tb` and the CI
/// audits produce for one finished design.
pub struct Signoff {
    pub lint: LintReport,
    pub validate: ValidationReport,
    pub bank: ValidationReport,
    pub live_certs: ValidationReport,
    pub sim: SimReport,
    pub sim_memory: MemoryState,
    pub live: pom::LiveReport,
    pub plan: DataflowPlan,
    pub channel_certs: Vec<Certificate>,
    pub testbench: String,
    hls_c: String,
}

/// The sign-off sequence: the timed request of the `signoff` workload and
/// the first half of every executed design's verification.
pub fn signoff(
    src: &Function,
    d: &Design,
    opts: &CompileOptions,
    seed: u64,
    t: &mut Tracer,
) -> Signoff {
    let (f, c) = (&d.result.function, &d.result.compiled);
    let lint = t.span("lint.report", |_| pom::lint_report(f, c, opts));
    let validate = t.span("verify.validate", |_| pom::validate(f));
    let bank = t.span("verify.bank_report", |_| {
        pom::bank_report(&c.affine, opts.model.ports_per_bank)
    });
    let live_certs = t.span("verify.live_report", |_| pom::live_report(&c.affine, seed));
    let mut sim_memory = MemoryState::for_function_seeded(src, seed);
    let sim = t.span("sim.simulate", |_| {
        pom::simulate(&c.affine, &c.deps, &mut sim_memory, &opts.model)
    });
    let live = t.span("live.analyze", |_| pom::analyze_liveness(&c.affine));
    let plan = t.span("dataflow.partition", |_| {
        pom::partition_dataflow(f, &c.affine, &live)
    });
    let initial = MemoryState::for_function_seeded(src, seed);
    let channel_certs = t.span("dataflow.certify", |_| {
        pom::channel_certificates(&c.affine, &plan, &initial)
    });
    let hls_c = t.span("hls.emit", |_| pom::emit_hls_c(&c.affine));
    let testbench = t.span("hls.emit", |_| pom::emit_testbench(&c.affine, seed));
    Signoff {
        lint,
        validate,
        bank,
        live_certs,
        sim,
        sim_memory,
        live,
        plan,
        channel_certs,
        testbench,
        hls_c,
    }
}

impl Signoff {
    /// `(check, passed, detail)` for every gate the sequence applies.
    fn gates(&self) -> Vec<(&'static str, bool, String)> {
        let certs_pass = self.channel_certs.iter().all(Certificate::passed);
        vec![
            (
                "lint_no_errors",
                !self.lint.has_errors(),
                format!("{} error(s)", self.lint.error_count()),
            ),
            (
                "schedule_certificates",
                self.validate.passed(),
                self.validate.render(),
            ),
            ("bank_certificates", self.bank.passed(), self.bank.render()),
            (
                "live_certificates",
                self.live_certs.passed(),
                self.live_certs.render(),
            ),
            (
                "channel_certificates",
                certs_pass,
                format!("{} channel(s)", self.channel_certs.len()),
            ),
            (
                "hls_c_nonempty",
                !self.hls_c.is_empty() && !self.testbench.is_empty(),
                String::new(),
            ),
        ]
    }

    /// `Err` naming the first gate that did not pass.
    pub fn verdict(&self) -> Result<(), String> {
        match self.gates().into_iter().find(|g| !g.1) {
            None => Ok(()),
            Some((name, _, detail)) => Err(format!("{name}: {detail}")),
        }
    }
}

/// Compares the three executions of the scheduled design with the
/// reference memory, array by array, bit for bit.
pub fn memory_checks(
    reference: &MemoryState,
    interpreted: &MemoryState,
    simulated: &MemoryState,
    dataflow: &MemoryState,
) -> Vec<(&'static str, bool)> {
    vec![
        ("memory_interp_eq_reference", interpreted == reference),
        ("memory_sim_eq_reference", simulated == reference),
        ("memory_dataflow_eq_reference", dataflow == reference),
    ]
}

/// DSP, FF and LUT must fit the device. BRAM is recorded, not checked:
/// the seed search overshoots it by design (`DseConfig::lint_prune_bram`).
pub fn fits_device(r: &pom::ResourceUsage, device: &DeviceSpec) -> bool {
    r.dsp <= device.dsp && r.ff <= device.ff && r.lut <= device.lut
}

fn count_obligations(ledger: &mut Ledger, certs: &[Certificate]) {
    for o in certs.iter().flat_map(|c| &c.obligations) {
        ledger.add("verify.obligations", 1.0);
        if o.status == ObligationStatus::Passed {
            ledger.add("verify.passed", 1.0);
        }
    }
}

/// Replays one winner through the layers, one public call per span, adds
/// its counts to the ledger and checks it. `prior` is the sign-off the
/// request itself produced (the `signoff` workload), reused as is.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    w: &Workload,
    input: &Input,
    src: &Function,
    d: &Design,
    prior: Option<Signoff>,
    opts: &CompileOptions,
    seed: u64,
    t: &mut Tracer,
    ledger: &mut Ledger,
) {
    let label = input.label();
    let (f, c) = (&d.result.function, &d.result.compiled);

    let graph = t.span("graph.build", |_| pom::DepGraph::build(src));
    ledger.add("graph.nodes", graph.nodes().len() as f64);
    ledger.add("graph.edges", graph.edges().len() as f64);
    t.span("dse.stage1", |_| {
        pom::dse::dependence_aware_transform(src, DseConfig::default().stage1_max_iters)
    });
    let stmts = t.span("poly.apply_schedule", |_| apply_schedule(f));
    let deps = t.span("poly.dep_summary", |_| {
        build_dep_summary(f, &stmts, &opts.model)
    });
    t.span("poly.astbuild", |_| {
        let mut b = pom::poly::AstBuilder::new();
        for s in &stmts {
            b.add_stmt(s.clone());
        }
        b.build()
    });
    let lowered = t.span("ir.lower", |_| lower(f, &stmts));
    let ir_text = c.affine.to_string();
    let relowered = lowered.map(|a| a.to_string());
    ledger.check(
        &label,
        "replayed_ir_identical",
        relowered.as_ref().is_ok_and(|text| *text == ir_text),
        relowered
            .as_ref()
            .err()
            .map_or("", |_| "lowering the winner failed"),
    );
    ledger.add("ir.text_lines", ir_text.lines().count() as f64);
    let qor = t.span("hls.estimate", |_| {
        pom::hls::estimate(&c.affine, &deps, &opts.model, opts.sharing)
    });
    ledger.check(&label, "replayed_estimate_identical", qor == c.qor, "");
    ledger.add("hls.c_bytes", d.hls_c.len() as f64);
    let used = &c.qor.resources;
    ledger.max("hls.dsp_util_max", used.dsp as f64 / opts.device.dsp as f64);
    ledger.max("hls.lut_util_max", used.lut as f64 / opts.device.lut as f64);
    ledger.add("hls.bram18k_total", used.bram18k as f64);
    ledger.check(
        &label,
        "fits_device",
        fits_device(used, &opts.device),
        &format!("dsp {} ff {} lut {}", used.dsp, used.ff, used.lut),
    );
    let loops = t.span("bank.analyze", |_| pom::bank::analyze_func(&c.affine));
    let ports = opts.model.ports_per_bank;
    ledger.add("bank.loops", loops.len() as f64);
    ledger.add(
        "bank.exact_loops",
        loops.iter().filter(|l| l.analysis.exact).count() as f64,
    );
    ledger.add(
        "bank.conflict_free_loops",
        loops
            .iter()
            .filter(|l| l.analysis.exact && l.analysis.conflict_free(ports))
            .count() as f64,
    );
    let baseline = t.span("dse.baseline", |_| {
        pom::baselines::baseline_compiled(src, opts)
    });
    let speedup = c.qor.speedup_over(&baseline.qor);
    let mut row = format!(
        "{label} est_cycles={} speedup={speedup:.2} dsp={} ff={} lut={} bram18k={} c_bytes={}",
        c.qor.latency,
        used.dsp,
        used.ff,
        used.lut,
        used.bram18k,
        d.hls_c.len()
    );

    if input.execute {
        let so = prior.unwrap_or_else(|| signoff(src, d, opts, seed, t));
        let mut reference = MemoryState::for_function_seeded(src, seed);
        t.span("dsl.reference_exec", |_| {
            pom::reference_execute(src, &mut reference)
        });
        let mut interpreted = MemoryState::for_function_seeded(src, seed);
        t.span("ir.interp", |_| {
            pom::execute_func(&c.affine, &mut interpreted)
        });
        let mut df_memory = MemoryState::for_function_seeded(src, seed);
        let df = t.span("sim.dataflow", |_| {
            dataflow_sim(d, &so.plan, &mut df_memory, opts)
        });
        for (name, ok) in memory_checks(&reference, &interpreted, &so.sim_memory, &df_memory) {
            ledger.check(&label, name, ok, "");
        }
        for (name, ok, detail) in so.gates() {
            ledger.check(&label, name, ok, if ok { "" } else { &detail });
        }
        ledger.check(&label, "dataflow_no_deadlock", !df.deadlock, "");
        record_execution(ledger, d, &so, &df);
        row.push_str(&format!(
            " sim_cycles={} dataflow_cycles={}",
            so.sim.cycles, df.cycles
        ));
        if w.kind == Kind::Portfolio {
            greedy_reference(input, src, df.cycles, opts, seed, t, ledger);
        }
    } else {
        // Too large to execute: the static certificates still replay.
        let validate = t.span("verify.validate", |_| pom::validate(f));
        let bank = t.span("verify.bank_report", |_| pom::bank_report(&c.affine, ports));
        ledger.check(
            &label,
            "schedule_certificates",
            validate.passed(),
            &validate.render(),
        );
        ledger.check(&label, "bank_certificates", bank.passed(), &bank.render());
        count_obligations(ledger, &validate.certificates);
        count_obligations(ledger, &bank.certificates);
    }
    ledger.speedups.push(speedup);
    if w.serial_reference && input.execute {
        let fast = Instant::now();
        let _ = t.span("dse.fast_reference", |_| {
            compile(src, opts, &DseConfig::default())
        });
        let fast = fast.elapsed().as_secs_f64();
        let serial = Instant::now();
        let s = t.span("dse.serial_uncached", |_| {
            compile(src, opts, &DseConfig::serial_uncached())
        });
        let serial = serial.elapsed().as_secs_f64();
        ledger.min("dse.fast_over_serial_min", serial / fast);
        let same = s.is_ok_and(|s| s.result.function.to_string() == f.to_string());
        ledger.check(&label, "serial_search_agrees", same, "");
    }
    ledger.rows.push(row);
}

fn dataflow_sim(
    d: &Design,
    plan: &DataflowPlan,
    memory: &mut MemoryState,
    opts: &CompileOptions,
) -> DataflowReport {
    let c = &d.result.compiled;
    pom::simulate_dataflow(
        &c.affine,
        &c.deps,
        &plan.stages,
        &plan.channel_specs(),
        memory,
        &opts.model,
    )
}

/// Adds an executed design's cycle counts, stalls and certificate tallies.
fn record_execution(ledger: &mut Ledger, d: &Design, so: &Signoff, df: &DataflowReport) {
    let sim = &so.sim;
    ledger.sim_cycles.push(sim.cycles as f64);
    ledger.dataflow_cycles.push(df.cycles as f64);
    let est = d.result.compiled.qor.latency as f64;
    ledger.max(
        "hls.est_sim_dev_max",
        (est - sim.cycles as f64).abs() / sim.cycles.max(1) as f64,
    );
    ledger.add("sim.cycles", sim.cycles as f64);
    ledger.add("sim.dataflow_cycles", df.cycles as f64);
    ledger.add("sim.stall_dep_cycles", sim.stall_dep as f64);
    ledger.add("sim.stall_port_cycles", sim.stall_port as f64);
    ledger.add("sim.stall_drain_cycles", sim.stall_drain as f64);
    for ch in &df.channels {
        ledger.add("sim.channel_stall_pop_cycles", ch.stall_pop as f64);
        ledger.add("sim.channel_stall_push_cycles", ch.stall_push as f64);
    }
    ledger.add("dataflow.stages", so.plan.stages.len() as f64);
    ledger.add("dataflow.channels", so.plan.channels.len() as f64);
    ledger.add(
        "dataflow.fifos",
        so.plan.channels.iter().filter(|c| !c.spec.pingpong).count() as f64,
    );
    ledger.add("live.arrays", so.live.arrays.len() as f64);
    ledger.add(
        "live.exact_arrays",
        so.live.arrays.iter().filter(|a| a.exact).count() as f64,
    );
    ledger.add(
        "live.contractions",
        so.live.arrays.iter().filter(|a| a.contracted()).count() as f64,
    );
    ledger.add("lint.errors", so.lint.error_count() as f64);
    ledger.add("lint.warnings", so.lint.warning_count() as f64);
    for report in [&so.validate, &so.bank, &so.live_certs] {
        count_obligations(ledger, &report.certificates);
    }
    count_obligations(ledger, &so.channel_certs);
}

/// `portfolio_sim`: what the default greedy search gives for the same
/// input, so the mode is priced as (extra wall time, cycles gained).
fn greedy_reference(
    input: &Input,
    src: &Function,
    portfolio_cycles: u64,
    opts: &CompileOptions,
    seed: u64,
    t: &mut Tracer,
    ledger: &mut Ledger,
) {
    let Ok(g) = t.span("dse.greedy_reference", |_| {
        compile(src, opts, &DseConfig::default())
    }) else {
        ledger.check(&input.label(), "greedy_reference_compiles", false, "");
        return;
    };
    let c = &g.result.compiled;
    let live = pom::analyze_liveness(&c.affine);
    let plan = pom::partition_dataflow(&g.result.function, &c.affine, &live);
    let mut memory = MemoryState::for_function_seeded(src, seed);
    let cycles = dataflow_sim(&g, &plan, &mut memory, opts).cycles;
    ledger
        .cycle_gains
        .push(cycles as f64 / portfolio_cycles.max(1) as f64);
    ledger.check(
        &input.label(),
        "portfolio_not_worse_than_greedy",
        portfolio_cycles <= cycles,
        &format!("portfolio {portfolio_cycles} vs greedy {cycles} dataflow cycles"),
    );
}

/// `store_rw`: a store must never change the answer. Compiles the input
/// once more without a store and compares schedule, groups and QoR of
/// the cold-store and warm-store winners with it.
pub fn store_agreement(
    input: &Input,
    src: &Function,
    warm: &Design,
    cold: Option<&Design>,
    opts: &CompileOptions,
    t: &mut Tracer,
    ledger: &mut Ledger,
) {
    let plain = t.span("dse.storeless_reference", |_| {
        compile(src, opts, &DseConfig::default())
    });
    let same = |a: &Design, b: &Design| {
        a.result.function.to_string() == b.result.function.to_string()
            && a.result.groups == b.result.groups
            && a.result.compiled.qor == b.result.compiled.qor
    };
    let agree = match (&plain, cold) {
        (Ok(p), Some(c)) => same(p, c) && same(p, warm),
        _ => false,
    };
    ledger.check(&input.label(), "store_winners_identical", agree, "");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::workload;

    fn tiny_gemm() -> (Input, Function) {
        let input = Input {
            kernel: "gemm",
            size: 8,
            execute: true,
        };
        let f = input.build().unwrap();
        (input, f)
    }

    #[test]
    fn a_corrupted_expected_memory_fails_every_memory_check() {
        let (_, f) = tiny_gemm();
        let mut reference = MemoryState::for_function_seeded(&f, 1);
        pom::reference_execute(&f, &mut reference);
        let same = reference.clone();
        assert!(memory_checks(&reference, &same, &same, &same)
            .iter()
            .all(|c| c.1));

        let name = f.placeholders()[0].name().to_string();
        let cell = reference.array_mut(&name).unwrap();
        let v = cell.get(&[0, 0]);
        cell.set(&[0, 0], v + 1.0);
        let checks = memory_checks(&reference, &same, &same, &same);
        assert_eq!(checks.len(), 3);
        assert!(
            checks.iter().all(|c| !c.1),
            "one flipped cell fails all three"
        );
    }

    #[test]
    fn replay_checks_a_real_design_and_flags_a_wrong_reference_seed() {
        let (input, f) = tiny_gemm();
        let opts = CompileOptions::default();
        let d = compile(&f, &opts, &DseConfig::default()).unwrap();
        let w = workload("dnn_greedy").unwrap();
        let mut ledger = Ledger::default();
        let mut t = Tracer::new(true);
        replay(w, &input, &f, &d, None, &opts, 3, &mut t, &mut ledger);
        ledger.finish(&t.spans);
        let failed: Vec<_> = ledger.checks.iter().filter(|c| !c.2).collect();
        assert!(failed.is_empty(), "{failed:?}");
        assert!(ledger
            .checks
            .iter()
            .any(|c| c.1 == "memory_sim_eq_reference"));
        assert!(ledger.get("sim_cycles_geomean") > 0.0);
        assert!(ledger.get("est_speedup_geomean") > 1.0);
        assert!(ledger.get("sim.simulate_s") > 0.0);

        // A sign-off run on other initial memory no longer matches.
        let other = signoff(&f, &d, &opts, 4, &mut Tracer::new(false));
        let mut reference = MemoryState::for_function_seeded(&f, 3);
        pom::reference_execute(&f, &mut reference);
        assert!(other.sim_memory != reference);
    }

    #[test]
    fn device_fit_ignores_bram_only() {
        let device = DeviceSpec::xc7z020();
        let mut r = pom::ResourceUsage {
            dsp: 1,
            ff: 1,
            lut: 1,
            bram18k: 10_000,
        };
        assert!(fits_device(&r, &device));
        r.dsp = device.dsp + 1;
        assert!(!fits_device(&r, &device));
    }

    #[test]
    fn verdict_names_the_first_failed_gate() {
        let (_, f) = tiny_gemm();
        let opts = CompileOptions::default();
        let d = compile(&f, &opts, &DseConfig::default()).unwrap();
        let mut so = signoff(&f, &d, &opts, 1, &mut Tracer::new(false));
        assert_eq!(so.verdict(), Ok(()));
        so.testbench.clear();
        assert!(so.verdict().unwrap_err().starts_with("hls_c_nonempty"));
    }
}
