//! `bench-dataflow` — the whole-suite dataflow pipelining audit.
//!
//! Runs the full 14-kernel suite through the DSE in dataflow mode — one
//! search per kernel, whose winner the search signs off as a dataflow
//! pipeline — and audits that design's dataflow execution four ways:
//!
//! 1. **Functional equivalence** — the concurrent-process dataflow
//!    simulation's final memory must be bit-identical to the affine
//!    interpreter's on the same seeded inputs, and no schedule may
//!    deadlock. The channels are bounded and blocking, so this is the
//!    end-to-end proof that every channel is sized soundly.
//! 2. **Certificate replay** — every `ChannelSized` obligation the
//!    partitioner emits must replay: the recorded element streams are
//!    pushed through the bounded channel model and checked for
//!    deadlock-freedom and bit-identical values.
//! 3. **Throughput gate** — on the multi-nest DNNs (`vgg16`,
//!    `resnet18`) the winner's co-simulated dataflow cycles must
//!    *strictly* beat its own sequential simulation: overlapping the
//!    layer nests must pay for the channels.
//! 4. **POM010 oracle** — lint predicts channel stalls statically from
//!    the plan; every channel whose co-simulated stall share exceeds
//!    [`CHANNEL_STALL_PCT`] must draw that static POM010
//!    ([`unflagged_stalls`]).
//!
//! Results render as a table and serialize as `BENCH_dataflow.json` so
//! the dataflow-overlap trajectory is tracked across PRs.

use crate::experiments::bench_sim::{run_over_suite, SuiteRun, SIM_SEED};
use crate::experiments::common::{col, Column, Report};
use pom::lint::analyses::CHANNEL_STALL_PCT;
use pom::{auto_dse_with, CompileOptions, DseConfig, Function, LintCode, Signoff};

/// Kernels the strict dataflow-vs-sequential throughput gate applies to:
/// the whole-model DNN chains whose layer nests the partitioner overlaps.
pub const THROUGHPUT_GATED: &[&str] = &["vgg16", "resnet18"];

/// One kernel's dataflow measurement.
#[derive(Clone, Debug, Default)]
pub struct KernelDataflow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Dataflow stages the partitioner cut.
    pub stages: usize,
    /// Sized inter-stage channels.
    pub channels: usize,
    /// Channels sized as streaming FIFOs (the rest are ping-pong).
    pub fifos: usize,
    /// Simulated cycles of the DSE winner run sequentially.
    pub seq_cycles: u64,
    /// Co-simulated dataflow cycles of the same design.
    pub df_cycles: u64,
    /// `seq_cycles / df_cycles`.
    pub speedup: f64,
    /// Dataflow memory is bit-identical to the affine interpreter's.
    pub identical: bool,
    /// The bounded channels deadlocked (must never happen).
    pub deadlock: bool,
    /// Cycles stalled on channel push/pop across all stages.
    pub stall_channel: u64,
    /// ChannelSized obligations emitted.
    pub certs_checked: usize,
    /// ChannelSized obligations that replayed successfully.
    pub certs_passed: usize,
    /// This row participates in the strict throughput gate.
    pub gated: bool,
    /// Channels stalling above [`CHANNEL_STALL_PCT`] in the
    /// co-simulation that the static POM010 does not flag.
    pub unflagged: Vec<String>,
}

/// The channels of `signoff`'s plan whose co-simulated stall share
/// (pop + push stalls over the dataflow cycles) exceeds
/// [`CHANNEL_STALL_PCT`] but which draw no POM010 from the sign-off's
/// lint, each as `array (share%)`. POM010 predicts stalls without
/// simulating; the co-simulation is the oracle it must never miss.
pub fn unflagged_stalls(signoff: &Signoff) -> Vec<String> {
    let report = &signoff.cosim().0;
    let flagged = signoff.lint().with_code(LintCode::ChannelPressure);
    report
        .channels
        .iter()
        .filter(|c| (c.stall_pop + c.stall_push) * 100 > report.cycles * CHANNEL_STALL_PCT)
        .filter(|c| {
            let names = format!("dataflow channel `{}` ", c.array);
            !flagged.iter().any(|d| d.message.starts_with(&names))
        })
        .map(|c| {
            let pct = (c.stall_pop + c.stall_push) * 100 / report.cycles;
            format!("{} ({pct}%)", c.array)
        })
        .collect()
}

/// Measures one kernel: the dataflow-mode DSE winner simulated in order,
/// partitioned, certified and co-simulated.
pub fn measure(kernel: &'static str, f: &Function, opts: &CompileOptions) -> KernelDataflow {
    let cfg = DseConfig {
        dataflow: true,
        ..DseConfig::default()
    };
    let r = auto_dse_with(f, opts, &cfg).expect("dataflow DSE compiles");

    // The winner in order, its dataflow execution, and every replayed
    // channel-sizing certificate of its plan.
    let signoff = Signoff::new(&r.function, &r.compiled, opts, SIM_SEED);
    let seq_cycles = signoff.sim().0.cycles;
    let (plan, (report, df_mem)) = (signoff.plan(), signoff.cosim());
    let certs = signoff.channel_certificates();
    let certs_checked: usize = certs.iter().map(|c| c.obligations.len()).sum();
    let certs_passed: usize = certs
        .iter()
        .flat_map(|c| &c.obligations)
        .filter(|o| o.status == pom::verify::ObligationStatus::Passed)
        .count();

    KernelDataflow {
        kernel,
        stages: plan.stages.len(),
        channels: plan.channels.len(),
        fifos: plan.channels.iter().filter(|c| !c.spec.pingpong).count(),
        seq_cycles,
        df_cycles: report.cycles,
        speedup: seq_cycles as f64 / report.cycles.max(1) as f64,
        identical: df_mem == signoff.interpreted(),
        deadlock: report.deadlock,
        stall_channel: report.stall_channel,
        certs_checked,
        certs_passed,
        gated: THROUGHPUT_GATED.contains(&kernel),
        unflagged: unflagged_stalls(&signoff),
    }
}

/// Runs the suite at `size`: one row per kernel.
pub fn run_suite(size: usize) -> SuiteRun<KernelDataflow> {
    run_over_suite(size, |kernel, f, opts| vec![measure(kernel, f, opts)])
}

/// The gates: bit-identical memory and zero deadlocks everywhere, every
/// channel certificate replayed, a strict simulated-cycles win of the
/// dataflow execution on the DNN chains, and a static POM010 on
/// every channel the co-simulation sees stalling above the threshold.
/// Returns human-readable failures (empty = pass).
pub fn gate(r: &SuiteRun<KernelDataflow>) -> Vec<String> {
    let mut fails = Vec::new();
    for k in &r.rows {
        if !k.identical {
            fails.push(format!(
                "{}: dataflow memory diverged from the interpreter",
                k.kernel
            ));
        }
        if k.deadlock {
            fails.push(format!("{}: dataflow execution deadlocked", k.kernel));
        }
        if k.certs_passed != k.certs_checked {
            fails.push(format!(
                "{}: {} of {} channel certificate(s) failed replay",
                k.kernel,
                k.certs_checked - k.certs_passed,
                k.certs_checked
            ));
        }
        if k.gated && k.df_cycles >= k.seq_cycles {
            fails.push(format!(
                "{}: dataflow {} cycle(s) does not strictly beat sequential {}",
                k.kernel, k.df_cycles, k.seq_cycles
            ));
        }
        if !k.unflagged.is_empty() {
            fails.push(format!(
                "{}: co-simulated channel stall(s) above {CHANNEL_STALL_PCT}% without a \
                 static POM010: {}",
                k.kernel,
                k.unflagged.join(", ")
            ));
        }
    }
    fails
}

const COLUMNS: &[Column<KernelDataflow>] = &[
    col("kernel", "Kernel", |k| k.kernel.into()),
    col("stages", "Stages", |k| k.stages.into()),
    col("channels", "Channels", |k| k.channels.into()),
    col("fifos", "FIFOs", |k| k.fifos.into()),
    col("seq_cycles", "Sequential", |k| k.seq_cycles.into()),
    col("df_cycles", "Dataflow", |k| k.df_cycles.into()),
    col("speedup", "Speedup", |k| k.speedup.into()),
    col("identical", "Identical", |k| k.identical.into()),
    col("deadlock", "Deadlock", |k| k.deadlock.into()),
    col("stall_channel", "ChanStall", |k| k.stall_channel.into()),
    col("certs_checked", "Certs", |k| k.certs_checked.into()),
    col("certs_passed", "Passed", |k| k.certs_passed.into()),
    col("gated", "Gated", |k| k.gated.into()),
    col("unflagged", "Unflagged", |k| k.unflagged.len().into()),
];

/// The table and `BENCH_dataflow.json` of a run, gated by [`gate`].
pub fn report(r: &SuiteRun<KernelDataflow>) -> Report {
    let mut out = r.report(
        "Dataflow vs sequential simulated cycles — DSE winners",
        COLUMNS,
    );
    let multi_stage = r.rows.iter().filter(|k| k.stages > 1).count();
    out.summary
        .push(("multi_stage_kernels", multi_stage.into()));
    out.fails = gate(r);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::paper_options;
    use crate::kernels;

    #[test]
    fn two_mm_row_pipelines_and_json_well_formed() {
        // One small multi-nest kernel keeps the debug-mode test fast; the
        // full suite runs in release via `pomc bench-dataflow`.
        let opts = paper_options();
        let f = kernels::mm2(8);
        let row = measure("2mm", &f, &opts);
        assert!(row.identical, "dataflow memory diverged");
        assert!(!row.deadlock);
        assert!(row.stages > 1, "2mm should partition into stages");
        assert!(row.channels >= 1);
        assert_eq!(row.certs_passed, row.certs_checked);
        assert!(row.certs_checked >= 1);
        assert!(row.unflagged.is_empty(), "{:?}", row.unflagged);
        let report = SuiteRun {
            rows: vec![row],
            size: 8,
            pool_workers: 1,
        };
        let report = super::report(&report);
        let json = report.to_json();
        assert!(json.contains("\"kernel\": \"2mm\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
        let text = report.render();
        assert!(text.contains("2mm"));
        assert!(text.contains("Speedup"));
    }
}
