//! Counters and phase timings every stage-2 search reports.

use std::time::Duration;

/// Counters reported by the stage-2 search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DseStats {
    /// Escalation candidates discarded by the lint prescreen before any
    /// estimation was paid for them.
    pub lint_pruned: usize,
    /// Arrays whose partition factors the final bank-repair pass raised
    /// to their minimal conflict-free values (0 when nothing needed
    /// raising).
    pub bank_repaired: usize,
    /// Escalation candidates that were fully estimated.
    pub estimated: usize,
    /// Compile/estimate cache lookups answered without computing (from
    /// memory or the persistent store).
    pub cache_hits: usize,
    /// Cache lookups that had to compute their value.
    pub cache_misses: usize,
    /// In-memory cache entries dropped by capacity eviction.
    pub cache_evictions: usize,
    /// Live in-memory cache entries at search end, across all maps.
    pub cache_entries: usize,
    /// Lookups answered from the persistent artifact store (a subset of
    /// `cache_hits`; 0 without [`DseConfig::store`](crate::DseConfig::store)).
    pub store_hits: usize,
    /// Store lookups that found no valid artifact before computing.
    pub store_misses: usize,
    /// Artifacts spilled to the persistent store by this search.
    pub store_writes: usize,
    /// Candidates evaluated inside a concurrent portfolio wave (0
    /// for a greedy search, and for any search run with one worker).
    pub parallel_evaluated: usize,
    /// Wall time of stage 1 (dependence-aware transformation).
    pub stage1_time: Duration,
    /// Wall time of stage 2 (bottleneck-oriented optimization).
    pub stage2_time: Duration,
    /// Time inside compile calls: schedule replay + dependence analysis +
    /// affine lowering.
    pub lowering_time: Duration,
    /// Time inside compile calls: QoR estimation.
    pub estimation_time: Duration,
    /// Translation-validation certificates checked (winning schedule +
    /// sampled candidates).
    pub certificates_checked: usize,
    /// Certificates whose every obligation passed.
    pub certificates_passed: usize,
    /// Candidates picked up by the sampled validation pass
    /// (`DseConfig::validate_sample_every`).
    pub certificates_sampled: usize,
    /// Fixpoint iterations of the value-range analysis
    /// (`pom_verify::analyze_ranges`) over the winning design.
    pub range_iterations: usize,
    /// Simulated cycle count of the returned schedule (0 under greedy
    /// search, which never simulates).
    pub sim_cycles: u64,
    /// Simulated dependence-stall cycles of the returned schedule.
    pub sim_stall_dep: u64,
    /// Simulated port-contention stall cycles of the returned schedule.
    pub sim_stall_port: u64,
    /// Simulated pipeline-drain cycles of the returned schedule.
    pub sim_stall_drain: u64,
    /// Memory accesses whose simulated port grant slid past the request.
    pub sim_port_conflicts: u64,
    /// Wall time spent inside the simulator by the beam search.
    pub sim_time: Duration,
    /// Polyhedral-kernel counters (FM eliminations, fan-out combinations,
    /// projection-memo hits) accumulated across the whole search.
    pub poly: pom_poly::PolyStats,
    /// Expansion waves the beam search ran (0 under greedy search).
    pub beam_depth: usize,
    /// Widest frontier the beam search actually held (0 under greedy).
    pub beam_width: usize,
    /// Successor states the beam search evaluated across all waves.
    pub beam_expanded: usize,
    /// Frontier states admitted to full-schedule simulation by the
    /// sim-admission band.
    pub sim_admitted: usize,
    /// Frontier survivors *not* simulated because their analytical
    /// estimate fell outside the admission band of the incumbent.
    pub sim_pruned: usize,
    /// Rate-matching rounds of the dataflow refinement that strictly
    /// improved the plan ([`DseConfig::dataflow`](crate::DseConfig::dataflow);
    /// 0 when off).
    pub dataflow_rounds: usize,
    /// Stages in the final dataflow plan (0 when the refinement was off).
    pub dataflow_stages: usize,
    /// Inter-stage channels in the final dataflow plan.
    pub dataflow_channels: usize,
    /// Simulated dataflow cycles of the final plan (0 when off).
    pub dataflow_cycles: u64,
    /// Simulated *sequential* cycles of the same final schedule — the
    /// baseline the dataflow overlap is measured against.
    pub dataflow_seq_cycles: u64,
    /// Wall time spent partitioning, co-simulating, and certifying
    /// during the dataflow refinement.
    pub dataflow_time: Duration,
}
