//! Differential tests for the stepping kernels: for any seed and
//! configuration, the event-driven kernel (one activity-list shard) and
//! the parallel subtree-sharded kernel at every worker count (1, 2 and 8)
//! must each produce a **bit-identical** [`SimReport`] — scoreboard,
//! latency statistics, clock-gating counts, per-element counters,
//! trace-event stream, and recovery ledger — to the dense full-scan
//! oracle, the only independent reference, while never visiting more
//! elements; and the event and parallel kernels must agree on their
//! element-update count at every worker count. Plus the idleness
//! property: an all-idle network executes zero element updates per tick.

use icnoc_clock::ClockBackend;
use icnoc_sim::{
    FaultPlan, FaultRates, Network, SimKernel, SimReport, SinkMode, TraceEventKind, TrafficPattern,
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

/// The full differential assertion against the dense oracle: identical
/// reports, identical trace streams (when buffered), identical recovery
/// ledgers, and the kernel under test doing no more work.
fn assert_identical(dense: &Network, other: &Network, context: &str) {
    let kernel = other.kernel().label();
    assert_eq!(
        dense.report(),
        other.report(),
        "{context}: {kernel} report diverged from dense"
    );
    assert_eq!(
        dense.event_buffer().map(|b| b.events()),
        other.event_buffer().map(|b| b.events()),
        "{context}: {kernel} trace event stream diverged from dense"
    );
    assert_eq!(
        dense.fault_report(),
        other.fault_report(),
        "{context}: {kernel} recovery ledger diverged from dense"
    );
    assert!(
        other.element_steps() <= dense.element_steps(),
        "{context}: {kernel} kernel visited {} elements, dense only {}",
        other.element_steps(),
        dense.element_steps()
    );
}

/// Runs the same configuration under the dense oracle, the event kernel
/// and the parallel kernel at every worker count in [`PARALLEL_WORKERS`],
/// and asserts every run is bit-identical to dense ([`assert_identical`])
/// and that the event and parallel kernels execute the **same**
/// element-update count (the parallel visit set must match the event
/// kernel's tick by tick). Returns the dense and event runs.
fn assert_kernels_agree(cfg: &TreeNetworkConfig, cycles: u64, context: &str) -> (Network, Network) {
    let dense = run_one(cfg, SimKernel::Dense, cycles);
    let event = run_one(cfg, SimKernel::EventDriven, cycles);
    assert_identical(&dense, &event, context);
    for workers in PARALLEL_WORKERS {
        let par = run_one(cfg, SimKernel::Parallel { workers }, cycles);
        let context = format!("{context} (workers={workers})");
        assert_identical(&dense, &par, &context);
        assert_eq!(
            event.element_steps(),
            par.element_steps(),
            "{context}: element-update counts diverged from the event kernel"
        );
    }
    (dense, event)
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
    /// sink modes — with counters (trace sinks: blocked elements stay
    /// armed) and without (activity-list sleeping) — is kernel-invariant.
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
        let (_, event) = assert_kernels_agree(&cfg, cycles, "open-loop");
        if counters == 1 {
            assert_traced_cost_follows_events(&cfg, &event, cycles, "open-loop");
        }
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
        assert_kernels_agree(&cfg, cycles, "closed-loop");
    }

    /// The fault soak — every fault kind at a nonzero rate, hashed
    /// draws, retransmission timers, DFS frequency backoff — the clock
    /// soak on both clock backends (clock-domain outages, dropped pulses,
    /// drift ramps on top), the soak at four times its rates, and a
    /// windowed spec all run on the activity list at every worker count
    /// and stay bit-identical to dense, ledger included, while the event
    /// kernel visits no more elements than dense and the parallel kernel
    /// exactly as many as the event kernel (`assert_kernels_agree`),
    /// with counters (a traced fault run) and without, on open-loop
    /// sources sending single flits or worms (retransmissions wait for
    /// the gap between packets) and on closed-loop tiles (the consumer
    /// gate decides what a memory serves and a processor counts).
    #[test]
    fn kernels_agree_under_fault_injection(
        seed in any::<u64>(),
        rate in 0.05f64..0.5,
        profile in 0u32..5,
        counters in 0u32..2,
        tiles in 0u32..2,
        packet_len in 1u32..4,
        cycles in 100u64..400,
    ) {
        let (plan, backend, context) = match profile {
            0 => (FaultPlan::soak(seed), ClockBackend::Forwarded, "fault soak"),
            1 => (
                FaultPlan::new(seed).with_rates(FaultRates::clock_soak()),
                ClockBackend::Forwarded,
                "clock soak",
            ),
            2 => (
                FaultPlan::new(seed).with_rates(FaultRates::clock_soak()),
                ClockBackend::Redundant,
                "redundant clock soak",
            ),
            3 => (
                FaultPlan::new(seed).with_rates(FaultRates::soak().scaled(4.0)),
                ClockBackend::Forwarded,
                "soak*4",
            ),
            _ => (
                FaultPlan::new(seed)
                    .with_rates(FaultRates::clock_soak())
                    .with_window(cycles / 2, cycles * 3 / 2),
                ClockBackend::Forwarded,
                "windowed clock soak",
            ),
        };
        let mut cfg = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::Uniform { rate })
            .with_packet_length(packet_len)
            .with_faults(plan)
            .with_clock_backend(backend)
            .with_counters(counters == 1)
            .with_seed(seed);
        if tiles == 1 {
            cfg = cfg.with_tiles(icnoc_sim::TileTraffic {
                max_outstanding: 4,
                service_cycles: 3,
            });
        }
        let (dense, event) = assert_kernels_agree(&cfg, cycles, context);
        prop_assert!(
            event.fault_report().is_some_and(|r| r.conserves() && r.pending == 0),
            "{}: the drained ledger must balance",
            context
        );
        prop_assert!(dense.fault_report().is_some());
    }

    /// The epoch-batching worst case, fuzzed: mirror traffic sends every
    /// flit through the root cut, so armed elements sit on the shard
    /// boundary almost every tick and the lookahead window collapses to
    /// single ticks. Bit-identity with dense — report, trace
    /// stream, recovery ledger — and the event kernel's element-update
    /// count must survive the collapse at every worker count, also when
    /// the full fault soak or the clock soak rides along on the sharded
    /// kernel.
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
        let dense = run_one(&cfg, SimKernel::Dense, cycles);
        let event = run_one(&cfg, SimKernel::EventDriven, cycles);
        prop_assert_eq!(dense.report(), event.report());
        prop_assert_eq!(dense.fault_report(), event.fault_report());
        for workers in PARALLEL_WORKERS {
            let par = run_one(&cfg, SimKernel::Parallel { workers }, cycles);
            prop_assert_eq!(
                par.active_workers(),
                Some(workers as usize),
                "fault plans run on the sharded kernel"
            );
            if workers > 1 {
                // A real shard cut exists, so the static lookahead bound
                // is finite — the collapse under test is the *dynamic*
                // window shrinking to single ticks, not the bound.
                prop_assert!(
                    par.parallel_lookahead().is_some(),
                    "workers={} must report a finite lookahead bound",
                    workers
                );
            }
            prop_assert_eq!(
                dense.report(),
                par.report(),
                "mirror hotspot diverged at workers={} faulted={}",
                workers,
                faulted
            );
            prop_assert_eq!(
                dense.event_buffer().map(|b| b.events()),
                par.event_buffer().map(|b| b.events())
            );
            prop_assert_eq!(dense.fault_report(), par.fault_report());
            prop_assert_eq!(event.element_steps(), par.element_steps());
        }
    }
}

/// The hardest case for subtree sharding: mirror traffic, where **every**
/// flit crosses the root router and therefore a shard boundary in both
/// directions. With two workers the root cut splits the fabric exactly
/// between the root's children, so all forward progress depends on the
/// coordinator routing cross-shard wakes between windows.
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
        let dense = run_one(&cfg, SimKernel::Dense, 400);
        let event = run_one(&cfg, SimKernel::EventDriven, 400);
        assert!(event.report().delivered > 0, "mirror traffic must flow");
        assert_identical(&dense, &event, "root-crossing traffic");
        for workers in PARALLEL_WORKERS {
            let par = run_one(&cfg, SimKernel::Parallel { workers }, 400);
            assert_eq!(
                par.active_workers(),
                Some(workers as usize),
                "the parallel kernel must actually shard at workers={workers}"
            );
            assert_identical(
                &dense,
                &par,
                &format!("root-crossing traffic (workers={workers})"),
            );
            assert_eq!(event.element_steps(), par.element_steps());
        }
    }
}

/// The soak1024 tier end-to-end: a 1024-port fabric is deep enough that
/// epoch batching runs dozens of barrier-free ticks per window
/// (lookahead 30 at two workers), and the event kernel and the parallel
/// kernel at workers 1 and 4 must still be bit-identical to dense — with
/// the conservation ledger balanced: every flit sent is delivered or
/// still accounted for, none lost, none duplicated.
#[test]
fn soak1024_is_bit_identical_with_a_balanced_ledger() {
    let cycles = 120;
    let cfg = TreeNetworkConfig::new(binary(1024))
        .with_pattern(TrafficPattern::Uniform { rate: 0.3 })
        .with_seed(23);
    let dense = run_one(&cfg, SimKernel::Dense, cycles);
    let event = run_one(&cfg, SimKernel::EventDriven, cycles);
    let report = event.report();
    assert!(report.delivered > 0, "the soak must move real traffic");
    assert!(
        report.is_correct(),
        "conservation ledger must balance: {report:?}"
    );
    assert_identical(&dense, &event, "soak1024");
    for workers in [1u32, 4] {
        let par = run_one(&cfg, SimKernel::Parallel { workers }, cycles);
        assert_eq!(
            par.active_workers(),
            Some(workers as usize),
            "the 1024-port fabric must shard at workers={workers}"
        );
        assert_identical(&dense, &par, &format!("soak1024 (workers={workers})"));
        assert_eq!(event.element_steps(), par.element_steps());
        assert!(par.report().is_correct());
    }
}

/// One step of the settlement schedule, applied to every kernel's network.
#[derive(Debug, Clone, Copy)]
enum Drive {
    Cycles(u64),
    Ticks(u32),
    Sources(bool),
    Drain(u64),
}

/// A blocked traffic generator sleeps on the activity list and its
/// skipped stalls are counted lazily, then settled when the batch ends.
/// Uneven batches, odd-length per-tick stretches (batches that start on
/// either parity), disabling and re-enabling the sources mid-run, and the
/// final drain must each leave every counter — `source_stall_edges`
/// included — exactly where the dense loop has it, under the event
/// kernel and the parallel kernel at every worker count, with the event
/// and parallel kernels visiting the same number of elements.
#[test]
fn lazily_counted_stalls_settle_at_every_batch_boundary() {
    let open = |pattern, sink_mode| {
        TreeNetworkConfig::new(binary(64))
            .with_pattern(pattern)
            .with_packet_length(3)
            .with_sink_mode(sink_mode)
            .with_seed(11)
    };
    let scenarios = [
        (
            "saturate",
            open(TrafficPattern::Saturate, SinkMode::AlwaysAccept),
        ),
        (
            "uniform, throttled sinks",
            open(
                TrafficPattern::Uniform { rate: 0.6 },
                SinkMode::Throttle { period: 3 },
            ),
        ),
        (
            "uniform, stalled sinks",
            open(
                TrafficPattern::Uniform { rate: 0.6 },
                SinkMode::StallDuring { from: 60, to: 180 },
            ),
        ),
        (
            "closed-loop tiles",
            TreeNetworkConfig::new(binary(64))
                .with_pattern(TrafficPattern::Saturate)
                .with_tiles(icnoc_sim::TileTraffic {
                    max_outstanding: 4,
                    service_cycles: 3,
                })
                .with_seed(11),
        ),
    ];
    let schedule = [
        Drive::Cycles(37),
        Drive::Ticks(5),
        Drive::Cycles(113),
        Drive::Sources(false),
        Drive::Cycles(29),
        Drive::Ticks(1),
        Drive::Sources(true),
        Drive::Cycles(71),
        Drive::Ticks(3),
        Drive::Cycles(200),
        Drive::Sources(false),
        Drive::Drain(8_000),
    ];
    for (name, cfg) in scenarios {
        let mut kernels = vec![SimKernel::Dense, SimKernel::EventDriven];
        kernels.extend(PARALLEL_WORKERS.map(|workers| SimKernel::Parallel { workers }));
        let mut nets: Vec<Network> = kernels
            .iter()
            .map(|&k| cfg.clone().with_kernel(k).build())
            .collect();
        for (at, drive) in schedule.iter().enumerate() {
            for net in &mut nets {
                match *drive {
                    Drive::Cycles(cycles) => {
                        net.run_cycles(cycles);
                    }
                    Drive::Ticks(ticks) => (0..ticks).for_each(|_| net.step()),
                    Drive::Sources(on) => net.set_sources_enabled(on),
                    Drive::Drain(budget) => assert!(net.drain(budget), "{name}: must drain"),
                }
            }
            let dense = nets[0].report();
            for (net, kernel) in nets.iter().zip(&kernels).skip(1) {
                assert_eq!(
                    dense,
                    net.report(),
                    "{name}: {} diverged from dense after {drive:?} (step {at})",
                    kernel.label()
                );
            }
        }
        let report = nets[0].report();
        assert!(
            report.source_stall_edges > 0,
            "{name}: the generators must stall"
        );
        assert!(report.is_correct(), "{name}: {report:?}");
        let event_steps = nets[1].element_steps();
        assert!(event_steps < nets[0].element_steps());
        for net in &nets[2..] {
            assert_eq!(
                net.element_steps(),
                event_steps,
                "{name}: parallel element updates diverged from the event kernel"
            );
        }
    }
}

/// Every run steps the SoA kernel: neither a fault plan (hashed draws)
/// nor trace sinks (a stamped event merge) keep the parallel kernel from
/// sharding.
#[test]
fn traced_and_faulted_networks_shard_on_the_parallel_kernel() {
    let base = || {
        TreeNetworkConfig::new(binary(8))
            .with_pattern(TrafficPattern::Uniform { rate: 0.3 })
            .with_seed(3)
    };
    let cases = [
        ("fault plan", base().with_faults(FaultPlan::soak(3))),
        ("event buffer", base().with_event_buffer(1 << 10)),
        (
            "fault plan and counters",
            base().with_faults(FaultPlan::soak(3)).with_counters(true),
        ),
        ("plain", base()),
    ];
    for (context, cfg) in cases {
        let net = run_one(&cfg, SimKernel::Parallel { workers: 4 }, 200);
        assert_eq!(net.active_workers(), Some(4), "{context}: must shard");
    }
}

/// The cost rule of a traced run: a traced event-kernel run visits at
/// most what the same run visits untraced plus one element per `Blocked`
/// event (every extra visit is a blocked edge the sinks must hear about),
/// and fewer elements than the dense scan.
fn assert_traced_cost_follows_events(
    traced_cfg: &TreeNetworkConfig,
    traced: &Network,
    cycles: u64,
    context: &str,
) {
    let untraced = run_one(
        &traced_cfg.clone().with_counters(false),
        SimKernel::EventDriven,
        cycles,
    );
    let blocked = traced
        .counters()
        .expect("a traced run carries counters")
        .totals()
        .blocked_edges;
    assert!(
        traced.element_steps() <= untraced.element_steps() + blocked,
        "{context}: traced visits {} exceed untraced {} + blocked edges {blocked}",
        traced.element_steps(),
        untraced.element_steps()
    );
}

/// A traced run costs untraced visits plus events, never the dense scan:
/// open-loop traffic into stalled sinks, closed-loop tiles and the fault
/// soak.
#[test]
fn traced_visits_cost_untraced_visits_plus_blocked_edges() {
    let base = || {
        TreeNetworkConfig::new(binary(64))
            .with_pattern(TrafficPattern::Uniform { rate: 0.5 })
            .with_counters(true)
            .with_seed(29)
    };
    let cases = [
        (
            "stalled sinks",
            base()
                .with_packet_length(3)
                .with_sink_mode(SinkMode::StallDuring { from: 50, to: 150 }),
        ),
        (
            "closed-loop tiles",
            base().with_tiles(icnoc_sim::TileTraffic {
                max_outstanding: 4,
                service_cycles: 3,
            }),
        ),
        ("fault soak", base().with_faults(FaultPlan::soak(29))),
    ];
    for (context, cfg) in cases {
        let dense = run_one(&cfg, SimKernel::Dense, 300);
        let event = run_one(&cfg, SimKernel::EventDriven, 300);
        assert_identical(&dense, &event, context);
        assert!(
            event
                .counters()
                .is_some_and(|c| c.totals().blocked_edges > 0),
            "{context}: the run must block"
        );
        assert!(
            event.element_steps() < dense.element_steps(),
            "{context}: a traced run must not cost the dense scan"
        );
        assert_traced_cost_follows_events(&cfg, &event, 300, context);
    }
}

/// Event streams must match event-by-event, not just in aggregate, when a
/// ring buffer is attached (a seeded spot-check outside proptest so the
/// buffer capacity stays deterministic). Hotspot worms make merges with
/// several contenders, so `Arbitrated` events are part of the stream.
#[test]
fn trace_event_streams_are_bit_identical() {
    let patterns = [
        TrafficPattern::Uniform { rate: 0.4 },
        TrafficPattern::Hotspot {
            rate: 0.6,
            target: PortId(5),
            fraction: 0.8,
        },
    ];
    for pattern in patterns {
        for seed in [3, 17, 404] {
            let cfg = TreeNetworkConfig::new(binary(8))
                .with_pattern(pattern)
                .with_packet_length(3)
                .with_event_buffer(1 << 14)
                .with_seed(seed);
            let (dense, event) = assert_kernels_agree(&cfg, 200, "traced run");
            assert!(
                event.element_steps() < dense.element_steps(),
                "a traced run must not cost the dense scan"
            );
            assert!(
                dense.event_buffer().is_some_and(|b| !b.events().is_empty()),
                "the spot-check must actually exercise the trace path"
            );
            if matches!(pattern, TrafficPattern::Hotspot { .. }) {
                assert!(
                    dense
                        .event_buffer()
                        .is_some_and(|b| b.events().iter().any(|e| matches!(
                            e.kind,
                            TraceEventKind::Arbitrated { contenders } if contenders > 1
                        ))),
                    "hotspot worms must contend (seed {seed})"
                );
            }
        }
    }
}

/// A traced fault run: the soak and the clock soak on both clock
/// backends, with an event buffer, are event-for-event identical to
/// dense at every worker count — including the `FrequencyBackoff` events
/// the window-end fold decides — and the stream carries the recovery
/// layer's `TimingViolation`, `FrequencyBackoff` and `Retransmitted`
/// events.
#[test]
fn traced_fault_runs_match_dense_event_for_event() {
    let cases = [
        (FaultPlan::soak(7), ClockBackend::Forwarded, "fault soak"),
        (
            FaultPlan::new(7).with_rates(FaultRates::clock_soak()),
            ClockBackend::Forwarded,
            "clock soak",
        ),
        (
            FaultPlan::new(7).with_rates(FaultRates::clock_soak()),
            ClockBackend::Redundant,
            "redundant clock soak",
        ),
    ];
    for (plan, backend, context) in cases {
        let cfg = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::Uniform { rate: 0.3 })
            .with_faults(plan)
            .with_clock_backend(backend)
            .with_event_buffer(1 << 20)
            .with_seed(7);
        let (dense, _) = assert_kernels_agree(&cfg, 2_000, context);
        let events = dense.event_buffer().expect("buffered").events();
        for kind in [
            TraceEventKind::TimingViolation,
            TraceEventKind::FrequencyBackoff,
            TraceEventKind::Retransmitted,
        ] {
            assert!(
                events.iter().any(|e| e.kind == kind),
                "{context}: no {kind:?} event in {} events",
                events.len()
            );
        }
    }
}

/// The idleness claim, exactly: a silent 64-port network — the
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
