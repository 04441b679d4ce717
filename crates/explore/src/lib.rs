//! Parallel design-space exploration for the IC-NoC.
//!
//! The paper's central claim — that timing integrity is a **local,
//! per-link** property, so the architecture scales "to any size" — is
//! inherently a claim about a *design space*, not a single design point.
//! This crate turns the workspace's analytic models and cycle-accurate
//! simulator into a sweep engine that can walk that space:
//!
//! * [`GridSpec`] — a declarative parameter grid (tree kind, port count,
//!   die size, data-path width, clock frequency or half-period, process
//!   corner, traffic pattern, cycle budget, fault-soak level) parsed
//!   from a compact text grammar and resolved into an ordered job list;
//! * [`run_indexed`] — a deterministic executor over `std::thread`
//!   whose workers claim job indices from one shared cursor: results
//!   land in per-index slots and every job's seed is the
//!   [`stable_hash`] of its own config, so output is bit-identical for
//!   1 worker or 64;
//! * [`ResultCache`] — a content-addressed on-disk cache keyed by the
//!   canonical config **plus** the crate and report schema versions, so
//!   re-runs are instant and stale formats self-invalidate;
//! * [`Analysis`] — Pareto fronts over (frequency ↑, throughput ↑,
//!   recovered-fault rate ↑, p99 latency ↓) and the max-safe-frequency
//!   surface per physical design, serialised to `BENCH_explore.json`
//!   and rendered as tables.
//!
//! # Example
//!
//! ```
//! use icnoc_explore::{run_sweep, GridSpec, SweepOptions};
//!
//! // Two operating points of a 16-port binary tree, executed in
//! // parallel; the analysis is identical for any worker count.
//! let grid = GridSpec::parse("ports=16;cycles=200;freq=0.9,1.0")?;
//! let opts = SweepOptions { jobs: 2, ..SweepOptions::default() };
//! let (analysis, stats) = run_sweep(&grid, &opts, |_, _| {});
//! assert_eq!(stats.total, 2);
//! assert!(analysis.feasible_count() >= 1);
//! # Ok::<(), icnoc_explore::GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod executor;
mod grid;
mod job;
pub mod json;
mod pareto;
mod sweep;

pub use cache::{CacheStats, ResultCache, DEFAULT_CACHE_DIR};
pub use executor::{run_indexed, run_isolated};
pub use grid::{stable_hash, GridError, GridSpec, JobConfig, AXIS_NAMES};
pub use job::{run_job, run_job_with_options, JobOutcome, JobPerf, K_SIGMA};
pub use json::JsonValue;
pub use pareto::{
    pareto_dominates, pareto_objectives, Analysis, SurfacePoint, ANALYSIS_SCHEMA_VERSION,
};
pub use sweep::{run_sweep, SweepOptions, SweepStats};
