//! All five workloads through the set runner at toy sizes: children,
//! set-up reps, correctness checks, and a traced rep whose re-rendered
//! output must match the children's.

use std::path::PathBuf;

use icnoc_benchmark::runner::run_set;
use icnoc_benchmark::session::SessionPlan;
use icnoc_benchmark::workload::{Bench, SimSize, Sizes, Workload};

fn toy() -> Sizes {
    Sizes {
        soak: SimSize {
            ports: 16,
            cycles: 400,
        },
        wide: SimSize {
            ports: 64,
            cycles: 200,
        },
        clock: SimSize {
            ports: 16,
            cycles: 400,
        },
        sweep_ports: vec![16],
        sweep_cycles: 200,
        serve: SessionPlan {
            seed: 0,
            ports: 16,
            cycles: 300,
            sweeps_per_client: 2,
        },
    }
}

#[test]
fn every_workload_runs_clean_at_toy_sizes() {
    let bench = Bench {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_icnoc-benchmark")),
        sizes: toy(),
        seed: 5,
    };
    let results = run_set(&bench, &Workload::ALL, |_| 2, true);
    assert_eq!(results.len(), 5);
    for r in &results {
        let name = r.workload.name();
        assert!(r.failures.is_empty(), "{}", r.render());
        assert!(r.digest.is_some(), "{name}");
        for metric in ["wall_s", "setup_s", "peak_rss_mb"] {
            assert!(
                r.e2e_median(metric).is_some_and(|v| v > 0.0),
                "{name} {metric}: {}",
                r.render()
            );
        }
        assert!(r.layer("bench.trace_overhead_frac").is_some(), "{name}");
        let unattributed = r.layer("bench.unattributed_frac").expect("traced");
        assert!((0.0..0.5).contains(&unattributed), "{name}: {}", r.render());
        assert!(!r.spans.is_empty(), "{name}");
    }
    let result = |w: Workload| {
        results
            .iter()
            .find(|r| r.workload == w)
            .expect("every workload ran")
    };

    // The parallel kernel is engaged on wide2048 and bypassed on the
    // clock soak, whose fault plan forces the sequential fallback.
    let wide = result(Workload::Wide2048);
    assert_eq!(wide.layer("sim.parallel.fallback"), Some(0.0));
    assert_eq!(wide.layer("sim.parallel.workers"), Some(2.0));
    assert!(wide.layer("core.power_s").is_some_and(|s| s > 0.0));
    let clock = result(Workload::ClockSoak256);
    assert_eq!(clock.layer("sim.parallel.fallback"), Some(1.0));
    assert!(clock.layer("fault.injected").is_some_and(|n| n > 0.0));
    assert_eq!(
        clock.layer("core.power_s"),
        None,
        "faults renders no power report"
    );
    assert_eq!(
        result(Workload::Soak256).layer("sim.parallel.workers"),
        Some(1.0)
    );

    let sweep = result(Workload::Sweep48);
    assert_eq!(sweep.layer("explore.jobs_executed"), Some(16.0));
    assert_eq!(sweep.layer("explore.cache_hits"), Some(16.0));

    let serve = result(Workload::Serve);
    let plan = bench.session_plan();
    assert_eq!(
        serve.layer("serve.jobs_executed"),
        Some(plan.fresh_jobs() as f64),
        "each sweep executes its two fresh jobs once"
    );
    assert_eq!(
        serve.layer("serve.cache_hits"),
        Some(2.0 * plan.sweeps() as f64)
    );
    assert!(serve.e2e_median("sweep_p50_ms").is_some());
    assert!(
        serve.e2e_median("sweep_p90_ms").is_none(),
        "4 sweeps leave no 10 beyond p90"
    );
}
