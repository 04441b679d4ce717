//! End-to-end service tests: dedup, byte-identity with offline explore,
//! backpressure, cancellation, priorities, streaming and ledger resume.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use icnoc_explore::{run_sweep, GridSpec, JsonValue, ResultCache, SweepOptions};
use icnoc_serve::{client, Registry, RegistryConfig, Server, SubmitError};

// A tiny grid: 4 fast jobs.
const GRID: &str = "ports=16;cycles=200;freq=0.8,1.0;soak=0,1";
// Overlaps GRID in 2 of 4 jobs.
const OVERLAP: &str = "ports=16;cycles=200;freq=1.0,1.2;soak=0,1";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "icnoc-serve-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn strip_wall(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("wall_ms"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn registry(dir: &Path, workers: usize, queue_limit: usize) -> Arc<Registry> {
    Registry::new(&RegistryConfig {
        state_dir: dir.to_path_buf(),
        workers,
        queue_limit,
    })
    .expect("registry opens")
}

fn offline(grid: &str) -> String {
    let spec = GridSpec::parse(grid).expect("parses");
    let (analysis, _) = run_sweep(&spec, &SweepOptions::default(), |_, _| {});
    format!("{}\n", analysis.to_json().to_pretty())
}

#[test]
fn concurrent_overlapping_sweeps_dedup_and_match_offline_results() {
    let dir = scratch("dedup");
    let registry = registry(&dir, 3, 64);
    let workers = registry.start_workers();

    let a = registry.submit(GRID, 0).expect("accepted");
    let b = registry.submit(OVERLAP, 0).expect("accepted");
    assert_eq!(a.total, 4);
    assert_eq!(a.queued, 4);
    // The overlapping half of B rides A's in-flight (or cached) jobs;
    // only the 2 genuinely new points queue.
    assert_eq!(b.total, 4);
    assert_eq!(b.queued, 2);
    assert_eq!(b.deduped + b.cached, 2);

    let result_a = registry
        .result(&a.sweep)
        .expect("known")
        .expect("completes");
    let result_b = registry
        .result(&b.sweep)
        .expect("known")
        .expect("completes");
    assert_eq!(strip_wall(&result_a), strip_wall(&offline(GRID)));
    assert_eq!(strip_wall(&result_b), strip_wall(&offline(OVERLAP)));

    // 6 distinct jobs executed for 8 submitted slots.
    let stats = registry.stats();
    let executed = stats
        .get("jobs")
        .and_then(|j| j.get("executed"))
        .and_then(JsonValue::as_f64)
        .expect("stats carry executed");
    assert_eq!(executed as u64, 6);

    registry.shutdown();
    for w in workers {
        w.join().expect("worker joins");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_rejects_with_structured_retry_after() {
    let dir = scratch("backpressure");
    // No workers started: the queue can only fill.
    let registry = registry(&dir, 2, 3);
    let err = registry.submit(GRID, 0).expect_err("4 jobs > limit 3");
    match err {
        SubmitError::QueueFull {
            queue_depth,
            queue_limit,
            retry_after_ms,
        } => {
            assert_eq!(queue_depth, 0);
            assert_eq!(queue_limit, 3);
            assert!(retry_after_ms > 0);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // The reject left nothing behind: a smaller grid still fits.
    let ticket = registry
        .submit("ports=16;cycles=200;freq=0.8,1.0", 0)
        .expect("2 jobs fit");
    assert_eq!(ticket.queued, 2);
    // And now the queue holds 2 of 3: the same 2-job grid is deduped
    // (no new queue entries), but a 2-new-job grid is rejected.
    let dedup = registry
        .submit("ports=16;cycles=200;freq=0.8,1.0", 0)
        .expect("fully deduped resubmission is admissible");
    assert_eq!(dedup.queued, 0);
    assert_eq!(dedup.deduped, 2);
    let err = registry
        .submit("ports=16;cycles=200;freq=1.4,1.6", 0)
        .expect_err("2 queued + 2 new > limit 3");
    assert!(matches!(err, SubmitError::QueueFull { queue_depth: 2, .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_terminates_the_sweep_and_drops_orphaned_jobs() {
    let dir = scratch("cancel");
    // No workers: jobs stay queued, cancellation is deterministic.
    let registry = registry(&dir, 2, 64);
    let ticket = registry.submit(GRID, 0).expect("accepted");
    assert!(registry.cancel(&ticket.sweep), "first cancel wins");
    assert!(!registry.cancel(&ticket.sweep), "second cancel is a no-op");
    let result = registry.result(&ticket.sweep).expect("known");
    assert!(result.is_err(), "cancelled sweeps never produce a result");
    // The orphaned jobs left the queue: the full limit is free again.
    let stats = registry.stats();
    let depth = stats
        .get("queue_depth")
        .and_then(JsonValue::as_f64)
        .expect("stats carry queue_depth");
    assert_eq!(depth as u64, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn higher_priority_submissions_run_first() {
    let dir = scratch("priority");
    // No workers yet: both sweeps queue fully before execution starts.
    let registry = registry(&dir, 1, 64);
    let low = registry.submit(GRID, 0).expect("accepted");
    let high = registry
        .submit("ports=16;cycles=200;freq=1.4,1.6", 5)
        .expect("accepted");
    let workers = registry.start_workers();
    // The high-priority sweep completes while the low one still has
    // pending jobs — with 1 worker, strictly before the low sweep.
    registry
        .result(&high.sweep)
        .expect("known")
        .expect("completes");
    let status = registry.status(&low.sweep).expect("known");
    let low_done = status
        .get("done")
        .and_then(JsonValue::as_f64)
        .expect("status carries done");
    assert!(
        (low_done as usize) < low.total,
        "low-priority sweep must not finish before the high-priority one"
    );
    registry
        .result(&low.sweep)
        .expect("known")
        .expect("completes");
    registry.shutdown();
    for w in workers {
        w.join().expect("worker joins");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ledger_resume_completes_an_interrupted_sweep() {
    let dir = scratch("resume");
    // Phase 1: accept a sweep, execute nothing (no workers), drop the
    // registry — the moral equivalent of kill -9 after admission.
    let first = registry(&dir, 2, 64);
    let ticket = first.submit(GRID, 1).expect("accepted");
    drop(first);

    // Phase 2: a fresh registry replays the ledger, resumes the sweep
    // under the same id, and completes it.
    let second = registry(&dir, 2, 64);
    assert_eq!(second.resident_sweeps(), vec![ticket.sweep.clone()]);
    let workers = second.start_workers();
    let resumed = second
        .result(&ticket.sweep)
        .expect("resumed sweep is known")
        .expect("completes");
    assert_eq!(strip_wall(&resumed), strip_wall(&offline(GRID)));
    second.shutdown();
    for w in workers {
        w.join().expect("worker joins");
    }

    // Phase 3: after completion the ledger holds a done record — a
    // third registry resumes nothing, and new ids never collide.
    let third = registry(&dir, 2, 64);
    assert!(third.resident_sweeps().is_empty());
    let next = third.submit("ports=16;cycles=200", 0).expect("accepted");
    assert_ne!(next.sweep, ticket.sweep);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_serves_submit_stream_result_stats_over_tcp() {
    let dir = scratch("daemon");
    let server = Server::bind(
        "127.0.0.1:0",
        &RegistryConfig {
            state_dir: dir.clone(),
            workers: 2,
            queue_limit: 64,
        },
    )
    .expect("binds");
    let addr = server.addr().to_owned();
    // The endpoint file carries the bound address.
    let endpoint = std::fs::read_to_string(dir.join(icnoc_serve::ENDPOINT_FILE)).expect("written");
    assert_eq!(endpoint.trim(), addr);
    let daemon = std::thread::spawn(move || server.run().expect("runs"));

    let ticket = client::submit(&addr, GRID, 0).expect("accepted");
    assert_eq!(ticket.total, 4);

    // The stream delivers one row per job plus a terminal event.
    let mut rows = 0usize;
    let mut complete = false;
    client::stream(&addr, &ticket.sweep, |line| {
        let event = JsonValue::parse(line).expect("event parses");
        match event.get("event").and_then(JsonValue::as_str) {
            Some("row") => rows += 1,
            Some("complete") => complete = true,
            other => panic!("unexpected event {other:?}"),
        }
    })
    .expect("streams");
    assert_eq!(rows, 4);
    assert!(complete);

    // The result document is byte-identical to offline explore.
    let result = client::result(&addr, &ticket.sweep).expect("fetches");
    assert_eq!(strip_wall(&result), strip_wall(&offline(GRID)));

    // A resubmission is answered entirely from cache.
    let warm = client::submit(&addr, GRID, 0).expect("accepted");
    assert_eq!(warm.cached, 4);
    assert_eq!(warm.queued, 0);

    // Stats expose the counters.
    let stats = client::stats(&addr).expect("fetches");
    assert!(stats.get("queue_depth").is_some());
    assert!(stats.get("cache").and_then(|c| c.get("hits")).is_some());

    // Unknown sweeps 404 on both status and result.
    let missing = client::result(&addr, "s999999");
    assert!(matches!(
        missing,
        Err(icnoc_serve::client::ClientError::Rejected { status: 404, .. })
    ));

    client::shutdown(&addr).expect("stops");
    daemon.join().expect("daemon joins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_stores_of_one_outcome_both_land_whole() {
    // Two executors sharing a cache dir may store the same job at once
    // (the daemon's workers and an offline sweep, say). The uniquely
    // named temp file + rename must let both succeed and leave one whole
    // entry that loads as a hit.
    let dir = scratch("cache-race");
    let cache = ResultCache::open(&dir).expect("opens");
    let job = GridSpec::parse("ports=16;cycles=250")
        .expect("parses")
        .resolve()[0]
        .clone();
    let outcome = icnoc_explore::run_job(&job).expect("runs");
    let start = std::sync::Barrier::new(2);

    let stored: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = cache.clone();
                let (outcome, start) = (&outcome, &start);
                scope.spawn(move || {
                    start.wait();
                    cache.store(outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("joins"))
            .collect()
    });

    for result in stored {
        result.expect("both racing stores succeed");
    }
    assert_eq!(cache.load(&job), Some(outcome), "the entry loads whole");
    assert_eq!(cache.stats().stores, 2);
    assert_eq!(cache.stats().hits, 1);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("lists")
        .filter_map(Result::ok)
        .map(|e| e.file_name())
        .filter(|name| name.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "no temp file survives: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_body_is_rejected_and_the_daemon_stays_up() {
    let dir = scratch("nested");
    let server = Server::bind(
        "127.0.0.1:0",
        &RegistryConfig {
            state_dir: dir.clone(),
            workers: 1,
            queue_limit: 8,
        },
    )
    .expect("binds");
    let addr = server.addr().to_owned();
    let daemon = std::thread::spawn(move || server.run().expect("runs"));

    let body = "[".repeat(100_000);
    let response = icnoc_serve::http::client_request(&addr, "POST", "/sweeps", &body, None)
        .expect("the daemon answers");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("nesting"), "{}", response.body);

    let health = icnoc_serve::http::client_request(&addr, "GET", "/healthz", "", None)
        .expect("the daemon still answers");
    assert_eq!(health.status, 200);

    client::shutdown(&addr).expect("stops");
    daemon.join().expect("daemon joins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grids_whose_jobs_would_panic_are_rejected_and_the_daemon_stays_up() {
    let dir = scratch("badfloat");
    let server = Server::bind(
        "127.0.0.1:0",
        &RegistryConfig {
            state_dir: dir.clone(),
            workers: 1,
            queue_limit: 8,
        },
    )
    .expect("binds");
    let addr = server.addr().to_owned();
    let daemon = std::thread::spawn(move || server.run().expect("runs"));

    for (grid, message) in [
        ("thalf=0;cycles=10", "thalf value 0 must be positive"),
        ("freq=nan;cycles=10", "freq value NaN must be finite"),
        (
            "width=4294967328;cycles=10",
            "width value 4294967328 out of range",
        ),
    ] {
        let body = format!("{{\"grid\":\"{grid}\"}}");
        let response = icnoc_serve::http::client_request(&addr, "POST", "/sweeps", &body, None)
            .expect("the daemon answers");
        assert_eq!(response.status, 400, "{grid}: {}", response.body);
        assert!(response.body.contains(message), "{}", response.body);
    }

    let health = icnoc_serve::http::client_request(&addr, "GET", "/healthz", "", None)
        .expect("the daemon still answers");
    assert_eq!(health.status, 200);
    let stats =
        icnoc_serve::http::client_request(&addr, "GET", "/stats", "", None).expect("stats answers");
    let stats = JsonValue::parse(&stats.body).expect("stats is JSON");
    let failed = stats.get("jobs").and_then(|j| j.get("failed"));
    assert_eq!(
        failed.and_then(JsonValue::as_f64),
        Some(0.0),
        "{}",
        stats.to_compact()
    );

    client::shutdown(&addr).expect("stops");
    daemon.join().expect("daemon joins");
    let _ = std::fs::remove_dir_all(&dir);
}
