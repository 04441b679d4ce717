//! The top-level sweep driver: grid → cache prescan → executor → cache
//! fill → analysis.
//!
//! [`run_sweep`] is the one-shot batch entry point the CLI uses. The
//! `serve` daemon schedules jobs itself and calls [`crate::run_job`],
//! [`crate::run_isolated`] and the [`ResultCache`] directly.

use crate::cache::{CacheStats, ResultCache};
use crate::executor::run_indexed;
use crate::grid::GridSpec;
use crate::job::{run_job_with_options, JobOutcome};
use crate::pareto::Analysis;
use icnoc_sim::SimKernel;

/// How a sweep should run.
#[derive(Debug, Default)]
pub struct SweepOptions {
    /// Worker threads (`0` = one per job, clamped by the executor).
    pub jobs: usize,
    /// Result cache, if caching is enabled.
    pub cache: Option<ResultCache>,
    /// Stepping kernel each job simulates with. Purely an execution
    /// option: outcomes (and cache keys) are kernel-invariant.
    pub kernel: SimKernel,
    /// Attach the kernel profiler to every executed job, adding a `perf`
    /// telemetry object to its sweep-output JSON. Also an execution
    /// option: the telemetry is stripped before caching, so cache
    /// contents stay profiling-invariant.
    pub profile: bool,
}

/// Where a sweep's outcomes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Total jobs in the grid.
    pub total: usize,
    /// Jobs actually executed this run.
    pub executed: usize,
    /// Jobs answered from the cache.
    pub cached: usize,
    /// Executed jobs that panicked or failed to interpret (their slots
    /// carry a synthetic infeasible outcome with the message).
    pub failed: usize,
    /// The cache's counter snapshot after the sweep (all zeros when the
    /// sweep ran uncached).
    pub cache: CacheStats,
}

/// Runs `grid` and folds the outcomes.
///
/// Jobs found in the cache are not executed; fresh results are written
/// back. `progress(done, total)` fires once after the cache prescan
/// (covering all hits at once) and then per completed job, from worker
/// threads.
///
/// The outcome vector — and therefore the entire [`Analysis`] — is in
/// grid order and bit-identical for any worker count: job seeds come
/// from config hashes, results land in index slots, and the fold is
/// sequential.
pub fn run_sweep<P>(grid: &GridSpec, opts: &SweepOptions, progress: P) -> (Analysis, SweepStats)
where
    P: Fn(usize, usize) + Sync,
{
    let jobs = grid.resolve();
    let total = jobs.len();
    let mut slots: Vec<Option<JobOutcome>> = jobs
        .iter()
        .map(|j| opts.cache.as_ref().and_then(|c| c.load(j)))
        .collect();
    let cached = slots.iter().filter(|s| s.is_some()).count();
    progress(cached, total);

    let pending: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
    let results = run_indexed(
        pending.len(),
        opts.jobs,
        |k| {
            let index = pending[k];
            let outcome = run_job_with_options(&jobs[index], opts.kernel, opts.profile, None)
                .map_err(|e| e.to_string())?;
            if let Some(cache) = &opts.cache {
                // A failed store degrades to "uncached", not an error:
                // the sweep's results do not depend on the cache. The
                // nondeterministic perf telemetry never enters the
                // cache, keeping stored bytes profiling-invariant.
                let stored = JobOutcome {
                    perf: None,
                    ..outcome.clone()
                };
                let _ = cache.store(&stored);
            }
            Ok(outcome)
        },
        |done, _| progress(cached + done, total),
    );

    let mut executed = 0usize;
    let mut failed = 0usize;
    for (k, result) in results.into_iter().enumerate() {
        let i = pending[k];
        executed += 1;
        let outcome = match result {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(msg)) | Err(msg) => {
                failed += 1;
                JobOutcome::failed(&jobs[i], &msg)
            }
        };
        slots[i] = Some(outcome);
    }

    let outcomes = slots
        .into_iter()
        .map(|s| s.expect("every slot filled by cache or executor"))
        .collect();
    (
        Analysis::of(outcomes),
        SweepStats {
            total,
            executed,
            cached,
            failed,
            cache: opts
                .cache
                .as_ref()
                .map(ResultCache::stats)
                .unwrap_or_default(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn strip_wall(text: &str) -> String {
        text.lines()
            .filter(|l| !l.contains("wall_ms"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn worker_count_does_not_change_the_analysis() {
        let grid = GridSpec::parse("ports=16;cycles=200;freq=0.9,1.0;soak=0,1").expect("parses");
        let (serial, _) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 1,
                cache: None,
                kernel: SimKernel::default(),
                profile: false,
            },
            |_, _| {},
        );
        let (parallel, _) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 8,
                cache: None,
                kernel: SimKernel::default(),
                profile: false,
            },
            |_, _| {},
        );
        assert_eq!(
            strip_wall(&serial.to_json().to_pretty()),
            strip_wall(&parallel.to_json().to_pretty()),
        );
    }

    #[test]
    fn parallel_kernel_does_not_change_the_analysis() {
        // The kernel is an execution option: a sweep simulated with the
        // parallel subtree-sharded kernel (2 workers per job) must emit
        // the same analysis, byte for byte, as the event kernel.
        let grid = GridSpec::parse("ports=16;cycles=200;freq=0.9,1.0;soak=0,1").expect("parses");
        let (event, _) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 1,
                cache: None,
                kernel: SimKernel::default(),
                profile: false,
            },
            |_, _| {},
        );
        let (parallel, _) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 2,
                cache: None,
                kernel: SimKernel::Parallel { workers: 2 },
                profile: false,
            },
            |_, _| {},
        );
        assert_eq!(
            strip_wall(&event.to_json().to_pretty()),
            strip_wall(&parallel.to_json().to_pretty()),
        );
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let dir =
            std::env::temp_dir().join(format!("icnoc-explore-sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = GridSpec::parse("ports=16;cycles=150;freq=0.9,1.0").expect("parses");
        let open = || ResultCache::open(&dir).expect("opens");
        let (first, stats1) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 2,
                cache: Some(open()),
                kernel: SimKernel::default(),
                profile: false,
            },
            |_, _| {},
        );
        assert_eq!(stats1.executed, 2);
        assert_eq!(stats1.cached, 0);
        // Cold run: the prescan missed twice, then stored twice.
        assert_eq!(stats1.cache.misses, 2);
        assert_eq!(stats1.cache.hits, 0);
        assert_eq!(stats1.cache.stores, 2);
        let (second, stats2) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 2,
                cache: Some(open()),
                kernel: SimKernel::default(),
                profile: false,
            },
            |_, _| {},
        );
        assert_eq!(stats2.executed, 0);
        assert_eq!(stats2.cached, 2);
        assert_eq!(stats2.cache.hits, 2);
        assert_eq!(stats2.cache.misses, 0);
        // Cached results are the executed results, wall clock and all.
        assert_eq!(first.to_json().to_pretty(), second.to_json().to_pretty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_half_warm_cache_answers_one_job_and_executes_the_other() {
        let dir = std::env::temp_dir().join(format!(
            "icnoc-explore-sweep-observe-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Warm one of the two jobs; the second run must answer it from
        // the cache and execute only the other.
        let warm = GridSpec::parse("ports=16;cycles=110;freq=0.9").expect("parses");
        let open = || ResultCache::open(&dir).expect("opens");
        let _ = run_sweep(
            &warm,
            &SweepOptions {
                jobs: 1,
                cache: Some(open()),
                kernel: SimKernel::default(),
                profile: false,
            },
            |_, _| {},
        );
        let grid = GridSpec::parse("ports=16;cycles=110;freq=0.9,1.0").expect("parses");
        let (_, stats) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 2,
                cache: Some(open()),
                kernel: SimKernel::default(),
                profile: false,
            },
            |_, _| {},
        );
        assert_eq!(stats.cached, 1);
        assert_eq!(stats.executed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiling_is_additive_telemetry_only() {
        // A profiled sweep must produce the same analysis as an
        // unprofiled one once the nondeterministic lines (wall_ms and
        // the perf object) are stripped — and the perf object must
        // actually appear on buildable points.
        let strip_perf = |text: &str| -> String {
            // The perf object spans several pretty-printed lines; drop
            // everything from its opening key to its closing brace.
            let mut out = Vec::new();
            let mut in_perf = false;
            for line in text.lines() {
                if line.trim_start().starts_with("\"perf\":") {
                    in_perf = true;
                    continue;
                }
                if in_perf {
                    if line.trim() == "}," || line.trim() == "}" {
                        in_perf = false;
                    }
                    continue;
                }
                if !line.contains("wall_ms") {
                    out.push(line);
                }
            }
            out.join("\n")
        };
        let grid = GridSpec::parse("ports=16;cycles=150;freq=0.9,1.0").expect("parses");
        let (plain, _) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 2,
                cache: None,
                kernel: SimKernel::default(),
                profile: false,
            },
            |_, _| {},
        );
        let (profiled, _) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 2,
                cache: None,
                kernel: SimKernel::default(),
                profile: true,
            },
            |_, _| {},
        );
        let profiled_text = profiled.to_json().to_pretty();
        assert!(
            profiled_text.contains("\"perf\":"),
            "profiled sweeps must carry perf telemetry"
        );
        assert!(
            profiled_text.contains("\"epochs\":"),
            "perf telemetry must include epoch counts"
        );
        assert_eq!(
            strip_perf(&plain.to_json().to_pretty()),
            strip_perf(&profiled_text),
            "profiling must not change the analysis"
        );
    }

    #[test]
    fn progress_reaches_total_and_failures_become_outcomes() {
        let max_done = AtomicUsize::new(0);
        let grid = GridSpec::parse("ports=16;cycles=100;freq=0.9,3.0").expect("parses");
        let (analysis, stats) = run_sweep(
            &grid,
            &SweepOptions {
                jobs: 2,
                cache: None,
                kernel: SimKernel::default(),
                profile: false,
            },
            |done, total| {
                assert_eq!(total, 2);
                max_done.fetch_max(done, Ordering::Relaxed);
            },
        );
        assert_eq!(max_done.load(Ordering::Relaxed), 2);
        assert_eq!(stats.total, 2);
        // 3 GHz fails to *build* (a recorded outcome, not a failure).
        assert_eq!(stats.failed, 0);
        assert_eq!(analysis.outcomes.len(), 2);
        assert!(analysis.outcomes[1].build_error.is_some());
    }
}
