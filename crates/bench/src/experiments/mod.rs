//! Experiment harnesses, one module per paper exhibit (see DESIGN.md §4).
//!
//! | Module | Paper exhibit |
//! |---|---|
//! | [`fig02`] | Fig. 2 — motivating example (BICG) |
//! | [`tab03`] | Table III — typical HLS benchmarks |
//! | [`fig11`] | Fig. 11 — 2MM under resource constraints |
//! | [`tab04`] | Table IV — manual vs DSE on BICG |
//! | [`fig12`] | Fig. 12 — scalability over problem sizes |
//! | [`tab05`] | Table V — image + DNN applications |
//! | [`fig13`] | Fig. 13 — DNN accumulated resources |
//! | [`tab06`] | Table VI — image critical loops |
//! | [`tab07`] | Table VII — complicated access patterns |
//! | [`fig14`] | Fig. 14 — scheduling-primitive ablation |
//! | [`fig15`] | Fig. 15 — lines-of-code comparison |
//! | [`fig16`] | Fig. 16 — Jacobi-1d DSL walkthrough |
//! | [`ext_dtypes`] | Extension — data-type customization (Table I capability) |
//! | [`bench_dse`] | DSE perf harness — serial seed vs parallel + memoized |
//! | [`bench_poly`] | Polyhedral kernel microbench — dense vs reference |
//! | [`bench_live`] | Liveness audit — static windows vs simulated high-water |
//! | [`bench_serve`] | Serving benchmark — cold vs warm store vs daemon |
//! | [`bench_sim`] | Simulation audit — measured vs estimated cycles |
//! | [`bench_dataflow`] | Dataflow audit — pipelined vs sequential winners |
//! | [`verify_suite`] | Certificate sweep — `pomc verify-all` over the suite |

pub mod bench_dataflow;
pub mod bench_dse;
pub mod bench_live;
pub mod bench_poly;
pub mod bench_serve;
pub mod bench_sim;
pub mod common;
pub mod ext_dtypes;
pub mod fig02;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod tab03;
pub mod tab04;
pub mod tab05;
pub mod tab06;
pub mod tab07;
pub mod verify_suite;

#[cfg(test)]
mod tests {
    use super::common::Report;
    use super::*;
    use std::collections::BTreeSet;

    /// A minimal JSON well-formedness walker: balanced containers, quoted
    /// keys, legal string escapes, plain decimal numbers (so no `NaN` or
    /// `inf`), nothing after the top-level value. Returns every object
    /// key it saw.
    struct Walker<'a> {
        text: &'a [u8],
        at: usize,
        keys: BTreeSet<String>,
    }

    impl Walker<'_> {
        fn keys_of(text: &str) -> Result<BTreeSet<String>, String> {
            let mut w = Walker {
                text: text.as_bytes(),
                at: 0,
                keys: BTreeSet::new(),
            };
            w.value()?;
            w.space();
            match w.at == w.text.len() {
                true => Ok(w.keys),
                false => Err(format!("trailing bytes at {}", w.at)),
            }
        }

        fn space(&mut self) {
            while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }

        fn eat(&mut self, byte: u8) -> Result<(), String> {
            self.space();
            if self.text.get(self.at) != Some(&byte) {
                return Err(format!("expected `{}` at {}", byte as char, self.at));
            }
            self.at += 1;
            Ok(())
        }

        /// After one element: `,` continues, `close` ends.
        fn more(&mut self, close: u8) -> Result<bool, String> {
            self.space();
            match self.text.get(self.at) {
                Some(b',') => {
                    self.at += 1;
                    Ok(true)
                }
                Some(b) if *b == close => {
                    self.at += 1;
                    Ok(false)
                }
                _ => Err(format!(
                    "expected `,` or `{}` at {}",
                    close as char, self.at
                )),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let start = self.at;
            loop {
                match self.text.get(self.at) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => break,
                    Some(b'\\') => {
                        let esc = self.text.get(self.at + 1).copied().unwrap_or(0);
                        if !b"\"\\/bfnrtu".contains(&esc) {
                            return Err(format!("bad escape at {}", self.at));
                        }
                        self.at += 2;
                    }
                    Some(b) if *b < 0x20 => return Err(format!("raw control at {}", self.at)),
                    Some(_) => self.at += 1,
                }
            }
            let s = String::from_utf8_lossy(&self.text[start..self.at]).into_owned();
            self.at += 1;
            Ok(s)
        }

        fn value(&mut self) -> Result<(), String> {
            self.space();
            match self.text.get(self.at).copied() {
                Some(b'{') => {
                    self.at += 1;
                    self.space();
                    if self.text.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(());
                    }
                    loop {
                        let key = self.string()?;
                        self.keys.insert(key);
                        self.eat(b':')?;
                        self.value()?;
                        if !self.more(b'}')? {
                            return Ok(());
                        }
                    }
                }
                Some(b'[') => {
                    self.at += 1;
                    self.space();
                    if self.text.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(());
                    }
                    loop {
                        self.value()?;
                        if !self.more(b']')? {
                            return Ok(());
                        }
                    }
                }
                Some(b'"') => self.string().map(|_| ()),
                Some(b) if b == b'-' || b.is_ascii_digit() => {
                    let start = self.at;
                    while self
                        .text
                        .get(self.at)
                        .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                    {
                        self.at += 1;
                    }
                    let number = std::str::from_utf8(&self.text[start..self.at]).expect("ascii");
                    number
                        .parse::<f64>()
                        .map(|_| ())
                        .map_err(|e| format!("bad number `{number}`: {e}"))
                }
                _ => {
                    for word in ["true", "false", "null"] {
                        if self.text[self.at..].starts_with(word.as_bytes()) {
                            self.at += word.len();
                            return Ok(());
                        }
                    }
                    Err(format!("unexpected byte at {}", self.at))
                }
            }
        }
    }

    #[test]
    fn walker_rejects_what_the_writers_must_never_emit() {
        assert!(Walker::keys_of("{\"a\": [1, -2.5, true, null, \"x\\n\"]}").is_ok());
        for bad in [
            "{\"a\": NaN}",
            "{\"a\": inf}",
            "{a: 1}",
            "{\"a\": 1",
            "{\"a\": \"\\q\"}",
            "{\"a\": \"line\nbreak\"}",
            "{\"a\": 1} 2",
            "[1, ]",
        ] {
            assert!(Walker::keys_of(bad).is_err(), "{bad}");
        }
    }

    /// One report per audit, each with one synthetic row (and every
    /// optional part present), so the test costs nothing to run.
    fn samples() -> Vec<(&'static str, Report)> {
        let dse = bench_dse::BenchReport {
            rows: vec![bench_dse::KernelBench {
                kernel: "gemm",
                serial_s: 0.0, // worst_fast_over_serial divides by it
                ..Default::default()
            }],
            ..Default::default()
        };
        let beam = bench_dse::BeamReport {
            rows: vec![bench_dse::BeamBench {
                kernel: "gemm",
                anytime: vec![(0.25, 100), (0.5, 90)],
                ..Default::default()
            }],
            ..Default::default()
        };
        let poly = bench_poly::PolyBenchReport {
            rows: vec![bench_poly::PolyBenchRow {
                name: "fm_gemm_dep",
                speedup: f64::NAN, // must serialize as null
                ..Default::default()
            }],
            fm_speedup: 7.5,
            dep_speedup: f64::INFINITY,
            fingerprints: vec![("gemm", 0xdead_beef_1234_5678, 200)],
            stats: pom_poly::PolyStats::default(),
        };
        let sim = bench_sim::SuiteRun {
            rows: vec![bench_sim::KernelSim {
                kernel: "gemm",
                schedule: "seed",
                ..Default::default()
            }],
            size: 8,
            pool_workers: 1,
        };
        let dataflow = bench_sim::SuiteRun {
            rows: vec![bench_dataflow::KernelDataflow {
                kernel: "2mm",
                ..Default::default()
            }],
            size: 8,
            pool_workers: 1,
        };
        let live = bench_sim::SuiteRun {
            rows: vec![bench_live::KernelLive {
                kernel: "jacobi1d",
                schedule: "dse",
                ..Default::default()
            }],
            size: 8,
            pool_workers: 1,
        };
        let serve = bench_serve::ServeReport {
            rows: vec![bench_serve::ConfigStats {
                config: "cold",
                ..Default::default()
            }],
            ..Default::default()
        };
        let verify = verify_suite::VerifyReport {
            rows: vec![verify_suite::VerifyRow {
                kernel: "gemm",
                rejection: Some("obligation \"x\" failed\n\tat step 2".to_string()),
                ..Default::default()
            }],
        };
        vec![
            ("bench-dse", bench_dse::report(&dse, Some(&beam), 120.0)),
            ("bench-poly", bench_poly::report(&poly, None)),
            ("bench-sim", bench_sim::report(&sim)),
            ("bench-dataflow", bench_dataflow::report(&dataflow)),
            ("bench-live", bench_live::report(&live)),
            ("bench-serve", bench_serve::report(&serve)),
            ("verify-all", verify_suite::report(&verify)),
        ]
    }

    /// Per audit: the keys its hand-written `to_json` wrote before the
    /// shared report type (taken from the files the parent commit wrote),
    /// then the keys added since. A consumer of the artifacts can rely on
    /// the first list; the test pins both so a key can neither vanish nor
    /// appear unannounced.
    const GOLDEN: &[(&str, &[&str], &[&str])] = &[
        (
            "bench-dse",
            &[
                "all_monotonic",
                "anytime",
                "anytime_monotonic",
                "beam",
                "beam_cycles",
                "beam_est",
                "beam_expanded",
                "beam_s",
                "both_fit",
                "cache_hits",
                "cache_misses",
                "estimated",
                "estimation_s",
                "fast_s",
                "fast_wall_s",
                "greedy_cycles",
                "greedy_est",
                "greedy_s",
                "identical",
                "kernel",
                "kernels",
                "lint_pruned",
                "lowering_s",
                "parallel_evaluated",
                "pool_workers",
                "regression",
                "regressions",
                "serial_s",
                "serial_total_s",
                "sim_admitted",
                "sim_pruned",
                "speedup",
                "stage1_s",
                "stage2_s",
                "strict_win",
                "strict_wins",
                "total_speedup",
            ],
            &[
                "all_passed",
                "worst_fast_over_serial",
                "worst_fast_over_serial_kernel",
            ],
        ),
        (
            "bench-poly",
            &[
                "combinations_dropped",
                "combinations_generated",
                "dense_s",
                "dep_speedup",
                "eliminations",
                "fingerprints",
                "fm_speedup",
                "fp",
                "identical",
                "kernel",
                "memo_hits",
                "memo_misses",
                "name",
                "peak_constraints",
                "poly_stats",
                "ref_s",
                "rows",
                "speedup",
            ],
            &["all_passed", "fm_eliminations"],
        ),
        (
            "bench-sim",
            &[
                "all_passed",
                "certified_free",
                "certified_stall_port",
                "est_cycles",
                "gated",
                "identical",
                "kernel",
                "pipeline_iterations",
                "pool_workers",
                "port_conflicts",
                "ratio",
                "rows",
                "schedule",
                "sim_cycles",
                "sim_s",
                "size",
                "stall_dep",
                "stall_drain",
                "stall_port",
            ],
            &["tolerance", "worst_gated_deviation"],
        ),
        (
            "bench-dataflow",
            &[
                "all_passed",
                "certs_checked",
                "certs_passed",
                "channels",
                "deadlock",
                "df_cycles",
                "fifos",
                "gated",
                "identical",
                "kernel",
                "pool_workers",
                "rows",
                "seq_cycles",
                "size",
                "speedup",
                "stages",
                "stall_channel",
                "within_envelope",
            ],
            &["multi_stage_kernels"],
        ),
        (
            "bench-live",
            &[
                "all_passed",
                "arrays",
                "bound_violations",
                "cert_failures",
                "certs_replayed",
                "contracted",
                "contracted_bits",
                "dead_stores",
                "declared_bits",
                "exact",
                "flow_edges",
                "kernel",
                "pool_workers",
                "rows",
                "schedule",
                "size",
            ],
            &["suite_contracted_bits", "suite_declared_bits"],
        ),
        (
            "bench-serve",
            &[
                "batch_merged",
                "clients",
                "compiles",
                "config",
                "configs",
                "daemon_speedup",
                "duplicate_fraction",
                "hit_rate",
                "identical",
                "kernels_per_s",
                "memory_hits",
                "p50_ms",
                "p95_ms",
                "p99_ms",
                "prime_s",
                "requests",
                "store_hits",
                "total_requests",
                "unique_requests",
                "wall_s",
                "warm_speedup",
            ],
            &["all_passed"],
        ),
        (
            "verify-all",
            &[
                "all_passed",
                "certificates_checked",
                "certificates_passed",
                "certificates_sampled",
                "kernel",
                "kernels",
                "obligations",
                "passed",
                "primitives",
                "range_iterations",
            ],
            &[],
        ),
    ];

    #[test]
    fn every_audit_report_is_well_formed_json_with_the_golden_keys() {
        let samples = samples();
        assert_eq!(samples.len(), GOLDEN.len());
        for ((name, report), (golden_name, kept, added)) in samples.iter().zip(GOLDEN) {
            assert_eq!(name, golden_name);
            let json = report.to_json();
            let keys = Walker::keys_of(&json).unwrap_or_else(|e| panic!("{name}: {e}\n{json}"));
            let want: BTreeSet<String> = kept.iter().chain(*added).map(|k| k.to_string()).collect();
            assert_eq!(keys, want, "{name}");
            // The table view renders too: title, header, rule, one row.
            let table = report.render();
            assert!(table.starts_with("== "), "{name}: {table}");
            assert!(table.lines().count() >= 4, "{name}: {table}");
        }
        // The failing verify-all sample carries its rejection, quotes and
        // newline intact, as the FAIL text — not inside the JSON.
        let verify = &samples[6].1;
        assert_eq!(verify.fails.len(), 1);
        assert!(verify.fails[0].contains("obligation \"x\" failed\n\tat step 2"));
        assert!(verify.to_json().contains("\"all_passed\": false"));
        assert!(samples[1].1.to_json().contains("\"speedup\": null"));
    }
}
