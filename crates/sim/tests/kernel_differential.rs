//! Differential tests for the stepping kernels: for any seed and
//! configuration, the event-driven kernel must produce a **bit-identical**
//! [`SimReport`] — scoreboard, latency statistics, clock-gating counts,
//! per-element counters, trace-event stream, and recovery ledger — to the
//! dense full-scan oracle, while never visiting more elements; and the
//! parallel subtree-sharded kernel must match the event kernel exactly at
//! every worker count (1, 2 and 8), including its element-update count.
//! Plus the tentpole's idleness property: an all-idle network executes
//! zero element updates per tick.

use icnoc_sim::{
    FaultPlan, FaultRates, Network, SimKernel, SimReport, SinkMode, TrafficPattern,
    TreeNetworkConfig,
};
use icnoc_topology::{PortId, TreeTopology};
use proptest::prelude::*;

fn binary(ports: usize) -> TreeTopology {
    TreeTopology::binary(ports).expect("power of 2")
}

/// The worker counts every parallel-kernel differential runs at: the
/// degenerate single shard, a root cut in two, and more shards than most
/// test fabrics have subtrees (exercising the LPT rebalance).
const PARALLEL_WORKERS: [u32; 3] = [1, 2, 8];

fn run_one(cfg: &TreeNetworkConfig, kernel: SimKernel, cycles: u64) -> Network {
    let mut net = cfg.clone().with_kernel(kernel).build();
    net.run_cycles(cycles);
    // Recovery chains outlive the traffic under fault injection; give
    // the drain a generous budget (a hung drain still ends).
    net.drain(cycles.max(1_000) * 4);
    net
}

/// Builds the same network twice — once per sequential kernel — runs both
/// through the traffic phase and a drain, and returns them for comparison.
fn run_pair(cfg: &TreeNetworkConfig, cycles: u64) -> (Network, Network) {
    (
        run_one(cfg, SimKernel::Dense, cycles),
        run_one(cfg, SimKernel::EventDriven, cycles),
    )
}

/// Runs the same configuration under the parallel kernel at every worker
/// count in [`PARALLEL_WORKERS`] and asserts each run is bit-identical to
/// the event-kernel reference — same report, same trace stream, same
/// recovery ledger, and the **same** element-update count (the parallel
/// visit set must match the event kernel's tick by tick).
fn assert_parallel_matches(cfg: &TreeNetworkConfig, event: &Network, cycles: u64, context: &str) {
    for workers in PARALLEL_WORKERS {
        let par = run_one(cfg, SimKernel::Parallel { workers }, cycles);
        assert_eq!(
            event.report(),
            par.report(),
            "{context}: parallel workers={workers} report diverged"
        );
        assert_eq!(
            event.event_buffer().map(|b| b.events()),
            par.event_buffer().map(|b| b.events()),
            "{context}: parallel workers={workers} trace streams diverged"
        );
        assert_eq!(
            event.fault_report(),
            par.fault_report(),
            "{context}: parallel workers={workers} recovery ledgers diverged"
        );
        assert_eq!(
            event.element_steps(),
            par.element_steps(),
            "{context}: parallel workers={workers} element-update counts diverged"
        );
    }
}

/// The full differential assertion: identical reports, identical trace
/// streams (when buffered), and the event kernel doing no more work.
fn assert_identical(dense: &Network, event: &Network, context: &str) {
    assert_eq!(
        dense.report(),
        event.report(),
        "{context}: reports diverged"
    );
    assert_eq!(
        dense.event_buffer().map(|b| b.events()),
        event.event_buffer().map(|b| b.events()),
        "{context}: trace event streams diverged"
    );
    assert_eq!(
        dense.fault_report(),
        event.fault_report(),
        "{context}: recovery ledgers diverged"
    );
    assert!(
        event.element_steps() <= dense.element_steps(),
        "{context}: event kernel visited {} elements, dense only {}",
        event.element_steps(),
        dense.element_steps()
    );
}

/// Decodes the sampled `(selector, rate, burst)` triple into one of the
/// five open-loop traffic shapes (the vendored proptest stub only
/// samples ranges, so the one-of choice is made by hand).
fn pattern_from(selector: u32, rate: f64, burst: u32) -> TrafficPattern {
    match selector {
        0 => TrafficPattern::Saturate,
        1 => TrafficPattern::Uniform { rate },
        2 => TrafficPattern::Neighbor { rate },
        3 => TrafficPattern::Bursty {
            burst,
            idle: burst * 2,
        },
        _ => TrafficPattern::Hotspot {
            rate,
            target: PortId(0),
            fraction: 0.7,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Open-loop traffic over random patterns, sizes, packet lengths and
    /// sink modes — with counters (trace sinks: the event loop's
    /// conservative visits) and without (capture-notification sleeping)
    /// — is kernel-invariant.
    #[test]
    fn kernels_agree_on_open_loop_traffic(
        ports_exp in 2u32..5,
        selector in 0u32..5,
        rate in 0.05f64..1.0,
        burst in 1u32..6,
        packet_len in 1u32..4,
        stall in 0u64..4,
        counters in 0u32..2,
        seed in any::<u64>(),
        cycles in 50u64..300,
    ) {
        let pattern = pattern_from(selector, rate, burst);
        let sink_mode = if stall == 0 {
            SinkMode::AlwaysAccept
        } else {
            // Slow consumers: sinks accept only every `stall + 1` cycles,
            // exercising sustained backpressure and sink re-arming.
            SinkMode::Throttle { period: stall + 1 }
        };
        let cfg = TreeNetworkConfig::new(binary(1 << ports_exp))
            .with_pattern(pattern)
            .with_packet_length(packet_len)
            .with_sink_mode(sink_mode)
            .with_counters(counters == 1)
            .with_seed(seed);
        let (dense, event) = run_pair(&cfg, cycles);
        assert_identical(&dense, &event, "open-loop");
        assert_parallel_matches(&cfg, &event, cycles, "open-loop");
    }

    /// Closed-loop processor/memory tiles (request/response with service
    /// latency and bounded outstanding windows) are kernel-invariant.
    #[test]
    fn kernels_agree_on_closed_loop_tiles(
        ports_exp in 2u32..5,
        rate in 0.05f64..0.9,
        seed in any::<u64>(),
        cycles in 50u64..300,
    ) {
        let tree = binary(1 << ports_exp);
        let cfg = TreeNetworkConfig::new(tree)
            .with_pattern(TrafficPattern::Neighbor { rate })
            .with_tiles(icnoc_sim::TileTraffic {
                max_outstanding: 4,
                service_cycles: 3,
            })
            .with_seed(seed);
        let (dense, event) = run_pair(&cfg, cycles);
        assert_identical(&dense, &event, "closed-loop");
        assert_parallel_matches(&cfg, &event, cycles, "closed-loop");
    }

    /// The fault soak — every fault kind at a nonzero rate, shared fault
    /// RNG, retransmission timers, DFS frequency backoff — and the clock
    /// soak (clock-domain outages, dropped pulses, drift ramps on top)
    /// consume the exact same random stream under every kernel.
    #[test]
    fn kernels_agree_under_fault_injection(
        seed in any::<u64>(),
        rate in 0.05f64..0.5,
        clock in 0u32..2,
        cycles in 100u64..400,
    ) {
        let (plan, context) = if clock == 1 {
            (FaultPlan::new(seed).with_rates(FaultRates::clock_soak()), "clock soak")
        } else {
            (FaultPlan::soak(seed), "fault soak")
        };
        let cfg = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::Uniform { rate })
            .with_counters(true)
            .with_faults(plan)
            .with_seed(seed);
        let (dense, event) = run_pair(&cfg, cycles);
        assert_identical(&dense, &event, context);
        // A fault plan selects the dense loop whatever the kernel, so the
        // event kernel and the parallel kernel's fallback visit exactly
        // what the dense oracle visits (`assert_parallel_matches` checks
        // every worker count against the event count).
        prop_assert_eq!(
            event.element_steps(),
            dense.element_steps(),
            "{}: a fault plan must run the dense loop",
            context
        );
        assert_parallel_matches(&cfg, &event, cycles, context);
    }

    /// The epoch-batching worst case, fuzzed: mirror traffic sends every
    /// flit through the root cut, so armed elements sit on the shard
    /// boundary almost every tick and the conservative lookahead window
    /// collapses to single mailbox ticks. Bit-identity — report, trace
    /// stream, recovery ledger and element-update count — must survive
    /// the collapse at every worker count, and survive the dense-loop
    /// fallback when the full fault soak or the clock soak rides along.
    #[test]
    fn epoch_batching_survives_lookahead_collapse(
        ports_exp in 3u32..6,
        rate in 0.1f64..0.8,
        faulted in 0u32..3,
        seed in any::<u64>(),
        cycles in 50u64..250,
    ) {
        let ports = 1u32 << ports_exp;
        let mut cfg = TreeNetworkConfig::new(binary(ports as usize)).with_seed(seed);
        match faulted {
            1 => cfg = cfg.with_faults(FaultPlan::soak(seed)),
            2 => cfg = cfg.with_faults(FaultPlan::new(seed).with_rates(FaultRates::clock_soak())),
            _ => {}
        }
        for p in 0..ports {
            // Every port talks only to its mirror across the root.
            cfg = cfg.with_port_pattern(
                PortId(p),
                TrafficPattern::Hotspot {
                    rate,
                    target: PortId(ports - 1 - p),
                    fraction: 1.0,
                },
            );
        }
        let event = run_one(&cfg, SimKernel::EventDriven, cycles);
        for workers in PARALLEL_WORKERS {
            let par = run_one(&cfg, SimKernel::Parallel { workers }, cycles);
            if faulted != 0 {
                prop_assert_eq!(
                    par.active_workers(), None,
                    "fault plans must force the sequential fallback"
                );
            } else if workers > 1 {
                // A real shard cut exists, so the static lookahead bound
                // is finite — the collapse under test is the *dynamic*
                // window shrinking to mailbox ticks, not the bound.
                prop_assert!(
                    par.parallel_lookahead().is_some(),
                    "workers={} must report a finite lookahead bound",
                    workers
                );
            }
            prop_assert_eq!(
                event.report(),
                par.report(),
                "mirror hotspot diverged at workers={} faulted={}",
                workers,
                faulted
            );
            prop_assert_eq!(
                event.event_buffer().map(|b| b.events()),
                par.event_buffer().map(|b| b.events())
            );
            prop_assert_eq!(event.fault_report(), par.fault_report());
            prop_assert_eq!(event.element_steps(), par.element_steps());
        }
    }
}

/// The hardest case for subtree sharding: mirror traffic, where **every**
/// flit crosses the root router and therefore a shard boundary in both
/// directions. With two workers the root cut splits the fabric exactly
/// between the root's children, so all forward progress depends on the
/// mailbox exchange at the polarity barrier.
#[test]
fn all_traffic_crossing_the_root_survives_the_shard_cut() {
    for seed in [5u64, 19, 77] {
        let ports = 16u32;
        let mut cfg = TreeNetworkConfig::new(binary(ports as usize)).with_seed(seed);
        for p in 0..ports {
            // Port p talks only to its mirror image on the far side of
            // the root: ports 0..8 and 8..16 are different root subtrees.
            cfg = cfg.with_port_pattern(
                PortId(p),
                TrafficPattern::Hotspot {
                    rate: 0.3,
                    target: PortId(ports - 1 - p),
                    fraction: 1.0,
                },
            );
        }
        let event = run_one(&cfg, SimKernel::EventDriven, 400);
        assert!(event.report().delivered > 0, "mirror traffic must flow");
        for workers in PARALLEL_WORKERS {
            let par = run_one(&cfg, SimKernel::Parallel { workers }, 400);
            assert_eq!(
                par.active_workers(),
                Some(workers as usize),
                "the parallel kernel must actually shard at workers={workers}"
            );
            assert_eq!(
                event.report(),
                par.report(),
                "root-crossing traffic diverged at workers={workers}"
            );
            assert_eq!(event.element_steps(), par.element_steps());
        }
    }
}

/// The soak1024 tier end-to-end: a 1024-port fabric is deep enough that
/// epoch batching runs dozens of barrier-free ticks per window
/// (lookahead 30 at two workers), and the run must still be
/// bit-identical to the event kernel at workers 1 and 4 — with the
/// conservation ledger balanced: every flit sent is delivered or still
/// accounted for, none lost, none duplicated.
#[test]
fn soak1024_is_bit_identical_with_a_balanced_ledger() {
    let cycles = 120;
    let cfg = TreeNetworkConfig::new(binary(1024))
        .with_pattern(TrafficPattern::Uniform { rate: 0.3 })
        .with_seed(23);
    let event = run_one(&cfg, SimKernel::EventDriven, cycles);
    let report = event.report();
    assert!(report.delivered > 0, "the soak must move real traffic");
    assert!(
        report.is_correct(),
        "conservation ledger must balance: {report:?}"
    );
    for workers in [1u32, 4] {
        let par = run_one(&cfg, SimKernel::Parallel { workers }, cycles);
        assert_eq!(
            par.active_workers(),
            Some(workers as usize),
            "the 1024-port fabric must shard at workers={workers}"
        );
        assert_eq!(
            event.report(),
            par.report(),
            "soak1024 diverged at workers={workers}"
        );
        assert_eq!(event.element_steps(), par.element_steps());
        assert!(par.report().is_correct());
    }
}

/// Order-dependent shared state — the fault RNG and attached trace sinks —
/// forces the parallel kernel onto its sequential fallback, and the
/// fallback must actually engage (`active_workers` stays `None`).
#[test]
fn parallel_kernel_falls_back_on_shared_order_dependent_state() {
    let faulted = run_one(
        &TreeNetworkConfig::new(binary(8))
            .with_pattern(TrafficPattern::Uniform { rate: 0.3 })
            .with_faults(FaultPlan::soak(3))
            .with_seed(3),
        SimKernel::Parallel { workers: 4 },
        200,
    );
    assert_eq!(faulted.active_workers(), None, "fault plans are sequential");
    let traced = run_one(
        &TreeNetworkConfig::new(binary(8))
            .with_pattern(TrafficPattern::Uniform { rate: 0.3 })
            .with_event_buffer(1 << 10)
            .with_seed(3),
        SimKernel::Parallel { workers: 4 },
        200,
    );
    assert_eq!(traced.active_workers(), None, "trace sinks are sequential");
    // A plain network with no shared state does shard.
    let plain = run_one(
        &TreeNetworkConfig::new(binary(8))
            .with_pattern(TrafficPattern::Uniform { rate: 0.3 })
            .with_seed(3),
        SimKernel::Parallel { workers: 4 },
        200,
    );
    assert_eq!(plain.active_workers(), Some(4));
}

/// Event streams must match event-by-event, not just in aggregate, when a
/// ring buffer is attached (a seeded spot-check outside proptest so the
/// buffer capacity stays deterministic).
#[test]
fn trace_event_streams_are_bit_identical() {
    for seed in [3, 17, 404] {
        let cfg = TreeNetworkConfig::new(binary(8))
            .with_pattern(TrafficPattern::Uniform { rate: 0.4 })
            .with_packet_length(3)
            .with_event_buffer(1 << 14)
            .with_seed(seed);
        let (dense, event) = run_pair(&cfg, 200);
        assert_identical(&dense, &event, "traced run");
        assert!(
            dense.event_buffer().is_some_and(|b| !b.events().is_empty()),
            "the spot-check must actually exercise the trace path"
        );
    }
}

/// The tentpole's idleness claim, exactly: a silent 64-port network — the
/// software mirror of a fully clock-gated fabric — executes **zero**
/// element updates per tick under the event kernel.
#[test]
fn silent_network_executes_zero_element_updates() {
    let mut net = TreeNetworkConfig::new(binary(64))
        .with_kernel(SimKernel::EventDriven)
        .build();
    net.run_cycles(500);
    assert_eq!(
        net.element_steps(),
        0,
        "a silent fabric must never wake an element"
    );
    let report: SimReport = net.report();
    assert_eq!(report.sent, 0);
    // The derived gating stats still advance: every edge of every stage
    // counts as gated even though no element was visited.
    assert_eq!(report.gating.enabled_edges(), 0);
    assert!(report.gating.gated_edges() > 0);
}

/// After traffic ends and the fabric drains, the ready-set empties and
/// the per-tick element-update count returns to zero — activity is a
/// property of traffic, not of history.
#[test]
fn drained_network_goes_back_to_zero_updates_per_tick() {
    let mut net = TreeNetworkConfig::new(binary(64))
        .with_pattern(TrafficPattern::Uniform { rate: 0.3 })
        .with_seed(9)
        .with_kernel(SimKernel::EventDriven)
        .build();
    net.run_cycles(200);
    assert!(net.drain(1_000), "uniform traffic must drain");
    assert!(net.element_steps() > 0, "traffic must have woken elements");
    // Let stale one-shot arms (capture markers, sink offers) settle.
    net.step();
    net.step();
    let settled = net.element_steps();
    for _ in 0..100 {
        net.step();
    }
    assert_eq!(
        net.element_steps(),
        settled,
        "an idle drained fabric must execute zero element updates per tick"
    );
    assert!(net.report().is_correct());
}
