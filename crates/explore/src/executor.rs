//! A deterministic parallel executor over `std::thread`.
//!
//! Jobs are identified by their **index** in the resolved job list. The
//! workers share one atomic cursor: each claims the next unclaimed index
//! with a `fetch_add` until the cursor passes the end of the list, so a
//! worker that draws cheap jobs simply claims more of them. Results are
//! returned in a vector slot per index, so the output is a pure function
//! of the job list — never of the worker count or of which worker ran
//! which index. (Per-job randomness is seeded from the job config's
//! stable hash for the same reason; see [`crate::JobConfig::stable_hash`].)
//!
//! Each job runs under [`std::panic::catch_unwind`]: a panicking job
//! becomes an `Err(message)` in its slot and the remaining jobs keep
//! running, so one diverged simulation cannot take down a sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs jobs `0..total` across `workers` threads and returns one result
/// slot per index, in index order. `Err` carries the panic message of a
/// job that panicked.
///
/// `progress(done, total)` is invoked after every completed job, from the
/// completing worker's thread (`done` counts all workers' completions).
///
/// `workers` is clamped to `1..=total` (a zero-job run returns
/// immediately; a zero-worker request means one worker).
pub fn run_indexed<T, F, P>(
    total: usize,
    workers: usize,
    job: F,
    progress: P,
) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    P: Fn(usize, usize) + Sync,
{
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, total);

    // `Relaxed` suffices for the cursor: an atomic read-modify-write
    // hands out each index once under any ordering, and the results come
    // back through the scope's joins.
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);

    let mut per_worker: Vec<Vec<(usize, Result<T, String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let job = &job;
                let progress = &progress;
                let done = &done;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= total {
                            break;
                        }
                        let result = run_isolated(|| job(idx));
                        out.push((idx, result));
                        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                        progress(n, total);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("executor worker threads do not panic"))
            .collect()
    });

    // Scatter into index slots. The cursor hands out every index below
    // `total` exactly once and each claimed index is executed, so all
    // slots fill.
    let mut slots: Vec<Option<Result<T, String>>> = (0..total).map(|_| None).collect();
    for results in &mut per_worker {
        for (idx, result) in results.drain(..) {
            debug_assert!(slots[idx].is_none(), "job {idx} executed twice");
            slots[idx] = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index executed"))
        .collect()
}

/// Runs `job` under [`catch_unwind`], turning a panic into an
/// `Err(message)` instead of unwinding the caller. This is the panic
/// isolation every sweep job runs under; it is public so external job
/// submitters (the `icnoc serve` registry executes client-submitted jobs
/// on its own worker pool) get exactly the same containment.
pub fn run_isolated<T>(job: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|payload| panic_message(payload.as_ref()))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_index_order_for_any_worker_count() {
        let serial = run_indexed(37, 1, |i| i * i, |_, _| {});
        for workers in [2, 3, 8, 64] {
            let parallel = run_indexed(37, workers, |i| i * i, |_, _| {});
            assert_eq!(parallel, serial, "workers={workers}");
        }
        for (i, r) in serial.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &(i * i));
        }
    }

    #[test]
    fn panics_are_isolated_to_their_slot() {
        let results = run_indexed(
            8,
            4,
            |i| {
                assert!(i != 3 && i != 5, "job {i} diverged");
                i
            },
            |_, _| {},
        );
        for (i, r) in results.iter().enumerate() {
            if i == 3 || i == 5 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("diverged"), "got {msg:?}");
            } else {
                assert_eq!(r.as_ref().unwrap(), &i);
            }
        }
    }

    #[test]
    fn progress_counts_every_completion_exactly_once() {
        let max_seen = AtomicUsize::new(0);
        let calls = AtomicUsize::new(0);
        run_indexed(
            25,
            5,
            |i| i,
            |done, total| {
                assert_eq!(total, 25);
                calls.fetch_add(1, Ordering::Relaxed);
                max_seen.fetch_max(done, Ordering::Relaxed);
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 25);
        assert_eq!(max_seen.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn degenerate_shapes_work() {
        assert!(run_indexed(0, 4, |i| i, |_, _| {}).is_empty());
        // Zero workers clamps to one; more workers than jobs clamps down.
        assert_eq!(run_indexed(3, 0, |i| i, |_, _| {}).len(), 3);
        assert_eq!(run_indexed(2, 16, |i| i, |_, _| {}).len(), 2);
    }

    #[test]
    fn run_isolated_contains_panics_and_passes_values() {
        assert_eq!(run_isolated(|| 7), Ok(7));
        let err = run_isolated(|| -> i32 { panic!("boom {}", 42) }).unwrap_err();
        assert!(err.contains("boom 42"), "{err}");
    }

    #[test]
    fn uneven_job_costs_still_complete() {
        // The slow jobs are the first four indices; the other workers
        // keep claiming the cheap ones while those run.
        let results = run_indexed(
            16,
            4,
            |i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                i
            },
            |_, _| {},
        );
        assert_eq!(results.len(), 16);
        assert!(results.iter().all(Result::is_ok));
    }
}
