//! Search strategies over the stage-2 configuration space.
//!
//! * [`config`] — [`DseConfig`] and [`SearchMode`]: what the designer
//!   sets before a search.
//! * [`stats`] — [`DseStats`]: what every search reports.
//! * [`ladder`] — the space itself: per-group tile vectors
//!   ([`GroupConfig`]), the escalation ladder that walks them, and the
//!   schedule each point materializes to.
//! * [`stage2`] — the paper's stage 2, the greedy bottleneck-oriented
//!   descent (Section VI-B): escalate the parallelism of the
//!   latency-critical group until a resource ceiling, then repair.
//! * [`beam`] — the portfolio search: a parallel beam over the same
//!   space, seeded from the greedy winner and the baseline strategies'
//!   schedules and ranked by simulated cycles from `pom-sim`.
//!
//! Both searches share the memoized compile cache and the finalization
//! path (resource repair, bank repair, II retarget, winner validation),
//! so a mode switch changes only which schedules are explored — never
//! how a winner is compiled or certified. The scoped worker pool
//! ([`run_indexed`]) serves the portfolio's waves and the greedy
//! descent's one initial per-group batch; the descent evaluates its ≤ 3
//! candidates per step serially.

pub mod beam;
pub mod config;
pub mod ladder;
pub mod stage2;
pub mod stats;

pub use beam::AnytimePoint;
pub use config::{DseConfig, SearchMode};
pub use ladder::GroupConfig;
pub use stage2::{bottleneck_optimize, run_indexed, try_bottleneck_optimize, Stage2Result};
pub use stats::DseStats;
