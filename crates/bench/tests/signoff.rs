//! Differential test of `pom::Signoff`: every fact it computes equals, as
//! `{:#?}` with host times zeroed (memories, whose arrays print in hash
//! order, by `==`), what the direct sequence of public calls produces for
//! the same seed — the sequence the `signoff` mode of
//! `examples/dump_designs.rs` runs, which stays the independent oracle.
//! The co-simulation is in turn the oracle of lint's static POM010.

use pom::dse::{auto_dse_with, DseConfig};
use pom::lint::analyses::CHANNEL_STALL_PCT;
use pom::{CompileOptions, DataflowReport, MemoryState, Signoff, SimReport};
use pom_bench::experiments::bench_dataflow::unflagged_stalls;

/// The memory seed of the sign-off executions (`dump_designs`' `SEED`).
const SEED: u64 = 7;

fn zero_sim(mut r: SimReport) -> SimReport {
    r.sim_time = Default::default();
    r
}

fn zero_cosim(mut r: DataflowReport) -> DataflowReport {
    for st in &mut r.stages {
        st.report.sim_time = Default::default();
    }
    r
}

fn assert_same_memory(design: &str, fact: &str, signoff: &MemoryState, direct: &MemoryState) {
    assert!(
        signoff == direct,
        "{design}: the sign-off's {fact} memory differs from the direct calls"
    );
}

fn assert_same<T: std::fmt::Debug>(design: &str, fact: &str, signoff: &T, direct: &T) {
    assert_eq!(
        format!("{signoff:#?}"),
        format!("{direct:#?}"),
        "{design}: the sign-off's {fact} differs from the direct calls"
    );
}

#[test]
fn signoff_facts_equal_the_direct_public_calls() {
    for (kernel, size) in [("gemm", 32), ("2mm", 32), ("blur", 32), ("vgg16", 32)] {
        let src = pom_bench::serve::kernel_by_name(kernel, size).expect("known kernel");
        let opts = CompileOptions::for_function(&src);
        let r = auto_dse_with(&src, &opts, &DseConfig::default()).expect("DSE compiles");
        let (f, c) = (&r.function, &r.compiled);
        let design = format!("{kernel}@{size}");
        let s = Signoff::new(f, c, &opts, SEED);

        // The direct sequence, as `dump_designs::signoff` runs it.
        let mut sim_memory = MemoryState::for_function_seeded(&src, SEED);
        let sim = pom::simulate(&c.affine, &c.deps, &mut sim_memory, &opts.model);
        let live = pom::analyze_liveness(&c.affine);
        let plan = pom::dataflow::partition(f, &c.affine);
        let initial = MemoryState::for_function_seeded(&src, SEED);
        let channel_certs = pom::channel_certificates(&c.affine, &plan, &initial);
        let mut df_memory = MemoryState::for_function_seeded(&src, SEED);
        let df = pom::simulate_dataflow(
            &c.affine,
            &c.deps,
            &plan.stages,
            &plan.channel_specs(),
            &mut df_memory,
            &opts.model,
        );
        let mut interpreted = MemoryState::for_function_seeded(&src, SEED);
        pom::execute_func(&c.affine, &mut interpreted);
        let lint = pom::lint_report(f, c, &opts);

        assert_same_memory(&design, "seeded", s.memory(), &initial);
        assert_same(&design, "liveness", s.live(), &live);
        assert_same(&design, "plan", s.plan(), &plan);
        assert_same(
            &design,
            "co-simulation",
            &zero_cosim(s.cosim().0.clone()),
            &zero_cosim(df),
        );
        assert_same_memory(&design, "co-simulation", &s.cosim().1, &df_memory);
        assert_same(
            &design,
            "simulation",
            &zero_sim(s.sim().0.clone()),
            &zero_sim(sim),
        );
        assert_same_memory(&design, "simulation", &s.sim().1, &sim_memory);
        assert_same_memory(&design, "interpreter", s.interpreted(), &interpreted);
        assert_same(
            &design,
            "channel certificates",
            &s.channel_certificates(),
            &channel_certs.as_slice(),
        );
        // `lint_report` signs off with seed 42; lint reads nothing that
        // depends on the memory contents.
        assert_same(&design, "lint", s.lint(), &lint);
        assert_same(
            &design,
            "lint at lint_report's seed",
            Signoff::new(f, c, &opts, 42).lint(),
            &lint,
        );
    }
}

#[test]
fn static_pom010_flags_every_co_simulated_stall() {
    // The dataflow winners `bench-dataflow` co-simulates, at size 32.
    let opts = pom_bench::experiments::common::paper_options();
    let cfg = DseConfig {
        dataflow: true,
        ..DseConfig::default()
    };
    let mut stalling = 0;
    for kernel in ["2mm", "3mm", "edge_detect", "gaussian", "blur"] {
        let src = pom_bench::serve::kernel_by_name(kernel, 32).expect("known kernel");
        let r = auto_dse_with(&src, &opts, &cfg).expect("DSE compiles");
        let s = Signoff::new(&r.function, &r.compiled, &opts, 42);
        assert!(s.plan().is_pipeline(), "{kernel}@32 is a dataflow pipeline");
        let unflagged = unflagged_stalls(&s);
        assert!(
            unflagged.is_empty(),
            "{kernel}@32: co-simulated stalls without a static POM010: {}\n{}",
            unflagged.join(", "),
            s.lint().render(kernel)
        );
        let report = &s.cosim().0;
        stalling += report
            .channels
            .iter()
            .filter(|c| (c.stall_pop + c.stall_push) * 100 > report.cycles * CHANNEL_STALL_PCT)
            .count();
    }
    assert!(
        stalling > 0,
        "no channel stalls above the threshold: the check is vacuous"
    );
}
