//! Conservation and determinism properties of the kernel profiler: the
//! per-shard counters must add up to exactly what the kernel reports
//! (steps to `element_steps`, epochs to polarity flips), the deterministic
//! half of the `perf` section must be bit-identical across repeated runs,
//! and enabling the profiler must not change a single bit of the
//! simulation outcome on any kernel at any worker count.

use icnoc_sim::{FaultPlan, Network, SimKernel, TrafficPattern, TreeNetworkConfig};
use icnoc_topology::TreeTopology;
use proptest::prelude::*;

fn binary(ports: usize) -> TreeTopology {
    TreeTopology::binary(ports).expect("power of 2")
}

fn run_one(cfg: &TreeNetworkConfig, kernel: SimKernel, cycles: u64, profile: bool) -> Network {
    let mut net = cfg
        .clone()
        .with_kernel(kernel)
        .with_profiling(profile)
        .build();
    net.run_cycles(cycles);
    net.drain(cycles.max(1_000) * 4);
    net
}

/// The conservation laws one profiled run must satisfy.
fn assert_conserved(net: &Network, context: &str) {
    let report = net.report();
    let perf = report.perf.as_ref().expect("profiling was enabled");
    let shard_steps: u64 = perf.shards.iter().map(|s| s.steps).sum();
    assert_eq!(
        shard_steps,
        net.element_steps(),
        "{context}: per-shard steps must sum to the kernel's element_steps"
    );
    assert_eq!(
        perf.epochs,
        net.tick(),
        "{context}: profiler epochs must match the polarity flips (ticks)"
    );
    let shard_elements: u64 = perf.shards.iter().map(|s| s.elements).sum();
    assert_eq!(
        shard_elements,
        net.element_count() as u64,
        "{context}: the shard plan must cover every element exactly once"
    );
    // Mailbox conservation: every cross-shard wake sent is received by
    // exactly one shard (batches always flush their mailboxes).
    let sent: u64 = perf.shards.iter().map(|s| s.wakes_sent).sum();
    let received: u64 = perf.shards.iter().map(|s| s.wakes_received).sum();
    assert_eq!(
        sent, received,
        "{context}: cross-shard wakes sent and received must balance"
    );
    // The wall side mirrors the deterministic side's shape: one profile
    // per worker, each having participated in every epoch.
    let wall = perf.wall.as_ref().expect("fresh reports carry wall data");
    assert_eq!(wall.workers.len(), perf.workers as usize, "{context}");
    for wp in &wall.workers {
        assert_eq!(
            wp.epochs, perf.epochs,
            "{context}: worker {} missed epochs",
            wp.worker
        );
        let sample_ticks: u64 = wp.samples.iter().map(|s| u64::from(s.ticks)).sum();
        assert_eq!(
            sample_ticks, wp.epochs,
            "{context}: worker {} timeline lost epochs to compaction",
            wp.worker
        );
        let sample_steps: u64 = wp.samples.iter().map(|s| s.steps).sum();
        let shard = &perf.shards[wp.worker as usize];
        assert_eq!(
            sample_steps, shard.steps,
            "{context}: worker {} timeline steps diverge from its counters",
            wp.worker
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random traffic, every kernel satisfies the conservation laws;
    /// the deterministic perf counters are bit-identical across repeated
    /// runs; and the profiler changes nothing about the simulation —
    /// the profiled report, perf stripped, equals the unprofiled one.
    #[test]
    fn perf_counters_are_conserved_and_deterministic(
        ports_exp in 2u32..5,
        rate in 0.05f64..0.9,
        seed in any::<u64>(),
        cycles in 50u64..250,
    ) {
        let cfg = TreeNetworkConfig::new(binary(1 << ports_exp))
            .with_pattern(TrafficPattern::Uniform { rate })
            .with_seed(seed);
        let kernels = [
            SimKernel::Dense,
            SimKernel::EventDriven,
            SimKernel::Parallel { workers: 1 },
            SimKernel::Parallel { workers: 2 },
            SimKernel::Parallel { workers: 8 },
        ];
        let event_reference = run_one(&cfg, SimKernel::EventDriven, cycles, false);
        for kernel in kernels {
            let context = format!("kernel {kernel:?}");
            let profiled = run_one(&cfg, kernel, cycles, true);
            assert_conserved(&profiled, &context);

            // Zero behaviour change: strip perf and compare against the
            // same kernel run without the profiler.
            let plain = run_one(&cfg, kernel, cycles, false);
            let mut stripped = profiled.report();
            stripped.perf = None;
            prop_assert_eq!(stripped, plain.report(), "{}", &context);
            prop_assert_eq!(profiled.element_steps(), plain.element_steps());

            // Deterministic counters are bit-identical across repeats.
            let again = run_one(&cfg, kernel, cycles, true);
            let a = profiled.report().perf.expect("profiled").without_wall();
            let b = again.report().perf.expect("profiled").without_wall();
            prop_assert_eq!(a, b, "{} counters must repeat exactly", &context);

            // Epoch counts agree across every kernel (all see the same
            // polarity flips), and the event/parallel kernels execute the
            // same total step count at any worker count.
            let perf = profiled.report().perf.expect("profiled");
            prop_assert_eq!(perf.epochs, event_reference.tick(), "{}", &context);
            if !matches!(kernel, SimKernel::Dense) {
                prop_assert_eq!(
                    perf.total_steps(),
                    event_reference.element_steps(),
                    "{}: event-family kernels must agree on total steps",
                    &context
                );
            }
        }
    }
}

/// The sequential fallback is visible in the perf section: the report
/// names the cause, runs one logical worker, and still conserves steps.
/// Only trace sinks select the dense loop: a fault-only run shards and
/// reports no fallback, and faults plus counters name the sinks.
#[test]
fn fallback_cause_lands_in_the_perf_section() {
    let base = || {
        TreeNetworkConfig::new(binary(8))
            .with_pattern(TrafficPattern::Uniform { rate: 0.3 })
            .with_seed(3)
            .with_profiling(true)
    };
    let cases: [(TreeNetworkConfig, Option<&str>); 3] = [
        (base().with_faults(FaultPlan::soak(3)), None),
        (base().with_counters(true), Some("trace-sinks")),
        (
            base().with_faults(FaultPlan::soak(3)).with_counters(true),
            Some("trace-sinks"),
        ),
    ];
    for (cfg, expected) in cases {
        let context = expected.unwrap_or("fault plan");
        let mut net = cfg.with_kernel(SimKernel::Parallel { workers: 4 }).build();
        net.run_cycles(200);
        net.drain(4_000);
        let perf = net.report().perf.expect("profiled");
        assert_eq!(
            perf.fallback.map(|c| c.label()),
            expected,
            "fallback cause mislabelled"
        );
        let workers = if expected.is_some() {
            assert_eq!(net.active_workers(), None, "{context}: must fall back");
            1
        } else {
            assert_eq!(net.active_workers(), Some(4), "{context}: must shard");
            4
        };
        assert_eq!(perf.workers, workers, "{context}: worker count");
        assert_conserved(&net, context);
    }
    // A plain parallel run reports no fallback, and neither do the
    // sequential kernels (there is nothing to fall back from).
    let plain = run_one(
        &base().with_counters(false),
        SimKernel::Parallel { workers: 4 },
        200,
        true,
    );
    assert_eq!(plain.report().perf.expect("profiled").fallback, None);
    let event = run_one(&base(), SimKernel::EventDriven, 200, true);
    assert_eq!(event.report().perf.expect("profiled").fallback, None);
}

/// The Chrome trace export of a real parallel run is structurally sound:
/// one thread row per worker, duration slices inside, balanced JSON.
#[test]
fn chrome_trace_covers_every_worker() {
    let net = run_one(
        &TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::Uniform { rate: 0.4 })
            .with_seed(11),
        SimKernel::Parallel { workers: 4 },
        300,
        true,
    );
    assert_eq!(net.active_workers(), Some(4));
    let perf = net.report().perf.expect("profiled");
    let json = perf.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(
        json.ends_with("]}"),
        "bad tail: ...{}",
        &json[json.len().saturating_sub(40)..]
    );
    assert_eq!(
        json.matches("\"thread_name\"").count(),
        4,
        "one thread row per worker"
    );
    assert!(json.contains("\"ph\":\"X\""), "no duration slices");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // The summary table carries the headline ratios the CLI prints.
    let summary = perf.summary();
    assert!(summary.contains("load imbalance:"), "{summary}");
    assert!(summary.contains("barrier overhead:"), "{summary}");
    // Cross-shard traffic exists in a root-spanning uniform workload, so
    // the wake columns must be live at 4 workers.
    assert!(
        perf.shards.iter().any(|s| s.wakes_sent > 0),
        "expected cross-shard wakes in {:?}",
        perf.shards
    );
}

/// Profiling is rejected after stepping — half-covered timelines would
/// silently undercount epochs.
#[test]
#[should_panic(expected = "before stepping")]
fn profiling_cannot_be_enabled_mid_run() {
    let mut net = TreeNetworkConfig::new(binary(4))
        .with_pattern(TrafficPattern::Uniform { rate: 0.5 })
        .build();
    net.step();
    net.enable_profiling();
}
