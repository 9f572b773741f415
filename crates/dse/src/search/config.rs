//! The designer-set parameters of the DSE: which search runs and the
//! bounds, deployment settings and refinements it runs under.

/// Which stage-2 search explores the configuration space.
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
pub enum SearchMode {
    /// The paper's greedy bottleneck-oriented descent (Section VI-B).
    /// The default — byte-identical to the pre-beam search.
    #[default]
    Greedy,
    /// Parallel beam search over the same space, re-ranked by simulated
    /// cycles ([`crate::search::beam`]) and seeded from the greedy winner
    /// plus the pluto/polsca/scalehls baseline schedules (diverse basins),
    /// so it never returns a measurably worse schedule than greedy.
    Portfolio,
}

impl SearchMode {
    /// Parses a CLI mode name.
    pub fn parse(s: &str) -> Option<SearchMode> {
        match s {
            "greedy" => Some(SearchMode::Greedy),
            "portfolio" => Some(SearchMode::Portfolio),
            _ => None,
        }
    }

    /// The CLI name of the mode.
    pub fn as_str(self) -> &'static str {
        match self {
            SearchMode::Greedy => "greedy",
            SearchMode::Portfolio => "portfolio",
        }
    }
}

impl std::fmt::Display for SearchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// User-tunable DSE strategy parameters — the paper's "set of types and
/// factors … determined before the search; users can specify suitable
/// groups of strategies and parameters" (Section VI-B).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DseConfig {
    /// Bound on the iterative dependence-recheck loop of stage 1
    /// ("terminated … if the number of iterations has reached its
    /// pre-defined bounds").
    pub stage1_max_iters: usize,
    /// Hard cap on a node's parallelism degree (product of tiles).
    pub max_parallelism: i64,
    /// Memoize compile/estimate results across the search (lint
    /// prescreen, candidate estimation, the final-repair walk-back, and
    /// the post-retarget recompile share one cache). Off reproduces the
    /// seed's cost profile — every step pays the full pipeline again.
    pub cache: bool,
    /// Root directory of a persistent artifact store backing the cache
    /// (see `pom_dse::store`): misses consult the matching store shard
    /// before computing and computed entries are spilled for later
    /// processes. `None` (the default) keeps the cache memory-only.
    /// Ignored when [`DseConfig::cache`] is off; a store that fails to
    /// open degrades to memory-only caching.
    pub store: Option<std::path::PathBuf>,
    /// Disk budget for the artifact store, enforced by an
    /// oldest-artifact-first sweep
    /// ([`ArtifactStore::gc`](crate::ArtifactStore::gc)) when the store
    /// is opened.
    /// `None` (the default) never sweeps. A contended sweep (another
    /// process holds the store open) is skipped, not fatal.
    pub store_max_bytes: Option<u64>,
    /// Worker threads for the portfolio's beam waves and the greedy
    /// descent's initial per-group evaluation: `0` = one per available
    /// core, `1` = serial. The greedy steps are always serial (≤ 3
    /// candidates each: too narrow to repay a thread batch). Parallel
    /// and serial searches produce byte-identical schedules (ties break
    /// by candidate index).
    pub workers: usize,
    /// Besides the winner (whose certificate chain is always checked),
    /// validate every `n`-th estimated candidate during the search
    /// (deterministic by candidate counter). `0` disables sampling. A
    /// rejected sample aborts the search with
    /// [`CompileError::Rejected`](crate::CompileError::Rejected) — it means a transformation primitive
    /// produced an illegal schedule the legality screen missed.
    pub validate_sample_every: usize,
    /// Which search explores the stage-2 space. [`SearchMode::Greedy`]
    /// (the default) is byte-identical to the pre-beam search;
    /// [`SearchMode::Portfolio`] trades more compile/simulate work for
    /// schedules the greedy descent's single trajectory cannot reach.
    pub search: SearchMode,
    /// Dataflow sign-off: once the search has settled and retargeted its
    /// winner, partition that design into dataflow stages
    /// (`pom-dataflow`), discharge its channel-sizing certificates (a
    /// failed one rejects the compile) and co-simulate the plan with
    /// channel-accurate back-pressure into the `DseStats::dataflow_*`
    /// figures. The search and the returned design are the same as with
    /// it off. Off by default.
    pub dataflow: bool,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            stage1_max_iters: 8,
            max_parallelism: 256,
            cache: true,
            store: None,
            store_max_bytes: None,
            workers: 0,
            validate_sample_every: 0,
            search: SearchMode::Greedy,
            dataflow: false,
        }
    }
}

impl DseConfig {
    /// The seed's serial, uncached cost profile — the baseline the
    /// `bench-dse` harness measures speedups against.
    pub fn serial_uncached() -> Self {
        DseConfig {
            cache: false,
            workers: 1,
            ..DseConfig::default()
        }
    }

    /// Effective worker count (resolves `0` to the machine's parallelism,
    /// read once per process: the query re-reads the cgroup files).
    pub fn effective_workers(&self) -> usize {
        static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        match self.workers {
            0 => *CORES.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            }),
            n => n,
        }
    }
}
