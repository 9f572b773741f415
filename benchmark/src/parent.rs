//! The load generator: a closed loop with one client. It starts one
//! fresh child process per pass, one at a time, waits for it, and folds
//! what the children report into the ledger. It runs no compiler code
//! itself and adds no threads beyond the pipe reader of the one child
//! alive at a time.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::protocol::{self, PassReport};
use crate::stats::{median, quartiles, ratio, relative_iqr, Rng};
use crate::trace;
use crate::workloads::{requests, Kind, Workload};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Everything the harness writes lives here (ignored by git).
const OUT_DIR: &str = "benchmark/out";
/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);
/// One run must end well inside the driver's 180 s.
const RUN_BUDGET: Duration = Duration::from_secs(165);

/// One child process, from spawn to exit.
pub struct ChildRun {
    pub report: PassReport,
    /// Why the child counts as failed: timeout, signal or non-zero exit.
    pub failure: Option<String>,
}

impl ChildRun {
    /// What the child's host times are multiplied by to read as on the
    /// reference machine (`speed.rs`). A child that died before saying
    /// so is not scaled; it enters no median anyway.
    fn scale(&self) -> f64 {
        self.report.speed.unwrap_or(1.0)
    }
}

fn run_child(args: &[String], timeout: Duration) -> ChildRun {
    let failed = |why: String| ChildRun {
        report: PassReport::default(),
        failure: Some(why),
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot find own executable: {e}")),
    };
    let mut child = match Command::new(exe)
        .arg("--child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return failed(format!("cannot start child: {e}")),
    };
    // A thread drains the pipe (a talkative child must not block on a
    // full one) and hands the text over at end of file, which is when
    // the child exits; the parent sleeps until then or the timeout.
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        let _ = tx.send(text);
    });
    let mut failure = None;
    let text = rx.recv_timeout(timeout).unwrap_or_else(|_| {
        failure = Some(format!("killed after {} s", timeout.as_secs()));
        let _ = child.kill();
        rx.recv().unwrap_or_default()
    });
    let status = child.wait();
    let _ = reader.join();
    if failure.is_none() {
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => failure = Some(format!("child ended with {s}")),
            Err(e) => failure = Some(format!("cannot wait for child: {e}")),
        }
    }
    ChildRun {
        report: protocol::parse(&text),
        failure,
    }
}

/// Removes the directory when dropped, so a temporary store is gone on
/// every exit path, early returns and panics included.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One pass as the aggregation sees it (for `store_rw`, the cold and the
/// warm child together).
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// `(label, wall seconds)` of the requests that finished, scaled to
    /// the reference machine like every host time in here.
    pub request_wall: Vec<(String, f64)>,
    /// Σ request wall seconds as the clock gave them.
    pub raw_wall_s: f64,
    pub cpu_s: f64,
    /// Seconds the children spent before their first timed request:
    /// input construction and lock check, and for `signoff` the search
    /// that makes the designs.
    pub setup_s: f64,
    pub rss_kb: u64,
    pub expected: usize,
    pub failed: usize,
    /// Every child ended normally and reported all its requests.
    pub complete: bool,
    pub failures: Vec<String>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.request_wall.iter().map(|r| r.1).sum()
    }

    /// Folds one child into the pass. Requests the child never reported
    /// (it panicked, was killed, or exited early) count as failed.
    pub fn absorb(&mut self, run: &ChildRun, expected: usize) {
        let r = &run.report;
        let ok = r.requests.iter().filter(|q| q.ok).count();
        self.expected += expected;
        self.failed += expected.saturating_sub(ok);
        for q in r.requests.iter().filter(|q| !q.ok) {
            self.failures.push(format!("{}: {}", q.label, q.detail));
        }
        if let Some(why) = &run.failure {
            self.failures.push(why.clone());
        }
        self.request_wall.extend(
            r.requests
                .iter()
                .map(|q| (q.label.clone(), q.wall_s * run.scale())),
        );
        self.raw_wall_s += r.requests.iter().map(|q| q.wall_s).sum::<f64>();
        self.cpu_s += r.cpu_s * run.scale();
        self.setup_s += r.setup_s * run.scale();
        self.rss_kb = self.rss_kb.max(r.rss_kb);
        self.complete &= run.failure.is_none() && r.done && r.requests.len() == expected;
    }

    pub fn new() -> Pass {
        Pass {
            complete: true,
            ..Pass::default()
        }
    }
}

/// The end-to-end timing side of a workload's passes. Only complete
/// passes enter the medians (a pass cut short would read as a fast one);
/// failures are counted over all of them.
#[derive(Debug, Default)]
pub struct Timing {
    pub pass_wall: Vec<f64>,
    pub pass_wall_raw: Vec<f64>,
    pub pass_cpu: Vec<f64>,
    pub setup: Vec<f64>,
    pub pass_rss_kb: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
}

pub fn aggregate(passes: &[Pass]) -> Timing {
    let mut t = Timing::default();
    for p in passes {
        t.attempted += p.expected;
        t.failed += p.failed;
        t.failures.extend(p.failures.iter().cloned());
        if p.complete {
            t.pass_wall.push(p.wall_s());
            t.pass_wall_raw.push(p.raw_wall_s);
            t.pass_cpu.push(p.cpu_s);
            t.setup.push(p.setup_s);
            t.pass_rss_kb.push(p.rss_kb as f64);
        }
    }
    t
}

/// All a run of one workload produced.
pub struct WorkloadResult {
    pub name: &'static str,
    pub metrics: BTreeMap<String, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub report: String,
}

fn child_args(w: &Workload, seed: u64, phase: &str, dir: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        phase.to_string(),
        "--workload".into(),
        w.name.into(),
        "--seed".into(),
        seed.to_string(),
    ];
    if let Some(d) = dir {
        args.push("--dir".into());
        args.push(d.display().to_string());
    }
    args
}

/// Timed pass `n` of a run. Every pass gets a seed of its own, drawn from
/// the run's: the order of the requests moves a pass's peak memory by
/// ±10 % (what runs first shapes the heap) and decides which request
/// finds which process-wide memo warm, so a run covers many orders and
/// its medians do not hang on one.
fn timed_pass(w: &Workload, seed: u64, n: usize, expected: usize, timeout: Duration) -> Pass {
    let seed = Rng::new(seed).nth_u64(n);
    let mut pass = Pass::new();
    if w.kind == Kind::StoreRw {
        // A fresh, empty store per pass: the cold child fills it, the
        // warm child (a new process, nothing in memory) reads it back.
        let store = TempDir::new(&format!("store-{n}"));
        for _cold_then_warm in 0..2 {
            let run = run_child(&child_args(w, seed, "store", Some(&store.0)), timeout);
            pass.absorb(&run, expected);
        }
    } else {
        pass.absorb(
            &run_child(&child_args(w, seed, "timed", None), timeout),
            expected,
        );
    }
    pass
}

/// How much of a workload one run measures.
#[derive(Clone, Copy)]
pub enum Mode {
    /// `--quick`: one timed pass, no verify child, so no output checks,
    /// design-quality or per-layer numbers.
    Quick,
    /// The verify child, then timed passes for `seconds`.
    Full { seconds: f64, trace_file: bool },
}

/// Runs one workload: the verify child first (it checks the outputs,
/// yields the design-quality and per-layer numbers, and doubles as the
/// untimed warm-up), then timed passes until `seconds` have gone by.
pub fn run_workload(w: &'static Workload, seed: u64, mode: Mode) -> WorkloadResult {
    let started = Instant::now();
    let _ = std::fs::create_dir_all(OUT_DIR);
    let remaining =
        |started: Instant| CHILD_TIMEOUT.min(RUN_BUDGET.saturating_sub(started.elapsed()));
    let expected = requests(w, seed).len();
    let phases = if w.kind == Kind::StoreRw { 2 } else { 1 };
    let (seconds, trace_file) = match mode {
        Mode::Quick => (0.0, false),
        Mode::Full {
            seconds,
            trace_file,
        } => (seconds, trace_file),
    };

    let verify = match mode {
        Mode::Quick => None,
        Mode::Full { .. } => {
            let scratch = TempDir::new("verify-store");
            Some(run_child(
                &child_args(w, seed, "verify", Some(&scratch.0)),
                remaining(started),
            ))
        }
    };

    let mut passes = Vec::new();
    let clock = Instant::now();
    while passes.is_empty() || clock.elapsed().as_secs_f64() < seconds {
        if started.elapsed() >= RUN_BUDGET {
            break;
        }
        passes.push(timed_pass(
            w,
            seed,
            passes.len(),
            expected,
            remaining(started),
        ));
    }
    let timing = aggregate(&passes);

    let mut verify_pass = Pass::new();
    if let Some(run) = &verify {
        verify_pass.absorb(run, expected * phases);
    }
    let verify_scale = verify.as_ref().map_or(1.0, ChildRun::scale);
    let v = verify.map(|run| run.report).unwrap_or_default();
    let checks_failed = v.checks.iter().filter(|c| !c.ok).count();
    // A verify child that died checked nothing: that is one failed check,
    // not zero.
    let verify_died = usize::from(!verify_pass.complete);
    let attempted = timing.attempted + v.checks.len() + verify_died;
    let failed = timing.failed + checks_failed + verify_died;

    // The traced child's host times, scaled by its one factor: coarser
    // than a span deserves, but they carry no bound.
    let mut metrics: BTreeMap<String, f64> = v.values.clone();
    for m in PER_LAYER.iter().filter(|m| matches!(m.unit, "s" | "1/s")) {
        if let Some(v) = metrics.get_mut(m.name) {
            *v = if m.unit == "s" {
                *v * verify_scale
            } else {
                *v / verify_scale
            };
        }
    }
    metrics.insert("pass_wall_s".into(), median(&timing.pass_wall));
    metrics.insert("pass_cpu_s".into(), median(&timing.pass_cpu));
    metrics.insert("setup_s".into(), median(&timing.setup));
    metrics.insert("peak_rss_mb".into(), median(&timing.pass_rss_kb) / 1024.0);
    let traced = v
        .values
        .get("bench.traced_request_s")
        .copied()
        .unwrap_or(0.0)
        * verify_scale;
    let untraced = median(&timing.pass_wall);
    metrics.insert(
        "bench.trace_overhead".into(),
        ratio(traced, untraced) - if untraced > 0.0 { 1.0 } else { 0.0 },
    );
    metrics.insert(
        "bench.pass_wall_raw_s".into(),
        median(&timing.pass_wall_raw),
    );
    metrics.insert(
        "bench.machine_speed".into(),
        ratio(untraced, median(&timing.pass_wall_raw)),
    );
    metrics.insert("bench.passes".into(), timing.pass_wall.len() as f64);
    metrics.insert("bench.requests".into(), (expected * phases) as f64);

    let mut report = String::new();
    let mut line = |s: String| {
        report.push_str(&s);
        report.push('\n');
    };
    line(format!(
        "== {} == seed {seed}, {} timed pass(es) in {:.1} s, {} request(s) per pass",
        w.name,
        passes.len(),
        clock.elapsed().as_secs_f64(),
        expected * phases
    ));
    line(spread_line("pass_wall_s", &timing.pass_wall));
    line(spread_line("pass_cpu_s", &timing.pass_cpu));
    line(spread_line("setup_s", &timing.setup));
    line(spread_line("raw wall", &timing.pass_wall_raw));
    line("-- per request: median ms (scaled) over the timed passes --".into());
    let mut per_request: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in passes.iter().filter(|p| p.complete) {
        for (label, wall) in &p.request_wall {
            per_request.entry(label).or_default().push(wall * 1e3);
        }
    }
    for (label, walls) in &per_request {
        line(format!(
            "  {label:<18} {:>10.3} ms  (n={})",
            median(walls),
            walls.len()
        ));
    }
    line("-- per design (verify child) --".into());
    for row in &v.rows {
        line(format!("  {row}"));
    }
    line(format!(
        "-- checks: {} run, {checks_failed} failed; requests: {} attempted, {} failed; failed_share {} --",
        v.checks.len(),
        timing.attempted,
        timing.failed,
        failed as f64 / attempted.max(1) as f64
    ));
    for c in v.checks.iter().filter(|c| !c.ok) {
        line(format!("  FAILED {} {} {}", c.design, c.name, c.detail));
    }
    for f in timing.failures.iter().chain(&verify_pass.failures) {
        line(format!("  FAILED {f}"));
    }
    if trace_file {
        let path = Path::new(OUT_DIR).join(format!("trace_{}.json", w.name));
        match std::fs::write(&path, trace::chrome_trace(w.name, &v.spans)) {
            Ok(()) => line(format!(
                "-- trace: {} ({} spans) --",
                path.display(),
                v.spans.len()
            )),
            Err(e) => line(format!("-- trace not written: {e} --")),
        }
    }
    WorkloadResult {
        name: w.name,
        metrics,
        attempted,
        failed,
        report,
    }
}

fn spread_line(name: &str, v: &[f64]) -> String {
    let q = quartiles(v).unwrap_or([median(v); 3]);
    format!(
        "  {name:<12} median {:.4} s  quartiles {:.4} .. {:.4} ({:.1} % of median)  min {:.4}  (n={})",
        median(v),
        q[0],
        q[2],
        relative_iqr(v) * 100.0,
        v.iter().copied().fold(f64::INFINITY, f64::min),
        v.len()
    )
}

/// The named metrics of one table, in table order; a metric the children
/// did not report reads 0.
pub fn table<'m>(result: &WorkloadResult, metrics: &'m [Metric]) -> Vec<(&'m Metric, f64)> {
    metrics
        .iter()
        .map(|m| {
            let v = result.metrics.get(m.name).copied().unwrap_or(0.0);
            (m, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

pub fn render_table(result: &WorkloadResult, metrics: &[Metric]) -> String {
    table(result, metrics)
        .iter()
        .map(|(m, v)| {
            let better = if m.higher { "higher" } else { "lower" };
            format!(
                "  {:<32} {v:>16.6} {:<6} ({better} is better)\n",
                m.name, m.unit
            )
        })
        .collect()
}

/// The driver's result line: one JSON object, last on standard output.
pub fn contract_json(result: &WorkloadResult, traced: bool) -> String {
    let metrics: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    let body: Vec<String> = table(result, metrics)
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted.max(1),
        result.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    fn child(walls: &[f64], done: bool, failure: Option<&str>) -> ChildRun {
        ChildRun {
            report: PassReport {
                requests: walls
                    .iter()
                    .enumerate()
                    .map(|(i, w)| Request {
                        label: format!("k@{i}"),
                        ok: true,
                        wall_s: *w,
                        detail: String::new(),
                    })
                    .collect(),
                cpu_s: 0.5,
                setup_s: 0.1,
                rss_kb: 1000,
                done,
                ..PassReport::default()
            },
            failure: failure.map(String::from),
        }
    }

    #[test]
    fn a_failed_child_counts_its_unfinished_requests_and_leaves_the_medians() {
        let mut good = Pass::new();
        good.absorb(&child(&[0.1, 0.2, 0.3], true, None), 3);
        assert!(good.complete);
        assert!((good.wall_s() - 0.6).abs() < 1e-12);

        // Panicked after one of three requests.
        let mut dead = Pass::new();
        dead.absorb(&child(&[0.1], false, Some("child ended with signal 6")), 3);
        assert!(!dead.complete);
        assert_eq!((dead.expected, dead.failed), (3, 2));

        let t = aggregate(&[good.clone(), dead, good]);
        assert_eq!((t.attempted, t.failed), (9, 2));
        assert_eq!(
            t.pass_wall.len(),
            2,
            "the cut-short pass is not a fast pass"
        );
        assert!(t.failures.iter().any(|f| f.contains("signal 6")));
        assert_eq!(t.pass_rss_kb, vec![1000.0, 1000.0]);
    }

    #[test]
    fn a_request_that_reports_failure_is_counted_but_the_pass_is_complete() {
        let mut run = child(&[0.1, 0.2], true, None);
        run.report.requests[1].ok = false;
        run.report.requests[1].detail = "input-lock mismatch".into();
        let mut p = Pass::new();
        p.absorb(&run, 2);
        assert!(p.complete);
        assert_eq!(p.failed, 1);
        assert_eq!(p.failures, vec!["k@1: input-lock mismatch"]);
    }

    #[test]
    fn host_times_are_scaled_by_the_childs_own_factor() {
        // The machine ran at half the reference speed during this child.
        let mut slow = child(&[0.2, 0.4], true, None);
        slow.report.speed = Some(0.5);
        let mut p = Pass::new();
        p.absorb(&slow, 2);
        assert!((p.wall_s() - 0.3).abs() < 1e-12);
        assert!((p.raw_wall_s - 0.6).abs() < 1e-12);
        assert!((p.cpu_s - 0.25).abs() < 1e-12);
        assert!((p.setup_s - 0.05).abs() < 1e-12);
        assert!((p.request_wall[1].1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn store_passes_add_their_two_children() {
        let mut p = Pass::new();
        p.absorb(&child(&[1.0, 0.5], true, None), 2);
        p.absorb(&child(&[0.4, 0.2], true, None), 2);
        assert!(p.complete);
        assert_eq!(p.expected, 4);
        assert!((p.wall_s() - 2.1).abs() < 1e-12);
        assert!((p.cpu_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contract_line_has_the_four_keys_and_every_metric() {
        let result = WorkloadResult {
            name: "w",
            metrics: BTreeMap::from([("pass_wall_s".to_string(), 0.5)]),
            attempted: 10,
            failed: 1,
            report: String::new(),
        };
        let json = contract_json(&result, false);
        assert!(json
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": {"));
        assert!(json.contains("\"pass_wall_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(
            contract_json(&result, true).matches("\"value\"").count(),
            PER_LAYER.len()
        );
    }
}
