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
    FaultKind, FaultPlan, FaultRates, Network, SimKernel, SimReport, SinkMode, TraceEventKind,
    TrafficPattern, TreeNetworkConfig,
};
use icnoc_topology::{PortId, TreeTopology};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn binary(ports: usize) -> TreeTopology {
    TreeTopology::binary(ports).expect("power of 2")
}

/// `rates` with every fault kind but `kind` silenced.
fn only(kind: FaultKind, rates: FaultRates) -> FaultRates {
    let mut out = FaultRates::ZERO;
    let (to, from) = match kind {
        FaultKind::LinkJitter => (&mut out.link_jitter, rates.link_jitter),
        FaultKind::SkewSpike => (&mut out.skew_spike, rates.skew_spike),
        FaultKind::BitCorruption => (&mut out.bit_corruption, rates.bit_corruption),
        FaultKind::FlitDrop => (&mut out.flit_drop, rates.flit_drop),
        FaultKind::StuckValid => (&mut out.stuck_valid, rates.stuck_valid),
        FaultKind::LostValid => (&mut out.lost_valid, rates.lost_valid),
        FaultKind::ElementOutage => (&mut out.outage, rates.outage),
        FaultKind::ClockOutage => (&mut out.clock_outage, rates.clock_outage),
        FaultKind::PulseDrop => (&mut out.pulse_drop, rates.pulse_drop),
        FaultKind::SkewDrift => (&mut out.skew_drift, rates.skew_drift),
    };
    *to = from;
    out
}

/// The worker counts every parallel-kernel differential runs at: the
/// degenerate single shard, a root cut in two, an uneven cut in three,
/// and more shards than most test fabrics have subtrees (exercising the
/// LPT rebalance and empty shards, whose slot ranges are empty).
const PARALLEL_WORKERS: [u32; 4] = [1, 2, 3, 8];

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
}

proptest! {
    // Twice the cases of its neighbours: the single-kind profiles take half.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fault soak — every fault kind at a nonzero rate, hashed
    /// draws, retransmission timers, DFS frequency backoff — the clock
    /// soak on both clock backends (clock-domain outages, dropped pulses,
    /// drift ramps on top), the soak at four times its rates, a windowed
    /// spec, and each fault kind alone at ten times its clock-soak rate
    /// (so no other kind masks a path one kind needs) all run on the
    /// activity list at every worker count and stay bit-identical to
    /// dense, ledger included, while the event
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
        profile in 0u32..10,
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
            4 => (
                FaultPlan::new(seed)
                    .with_rates(FaultRates::clock_soak())
                    .with_window(cycles / 2, cycles * 3 / 2),
                ClockBackend::Forwarded,
                "windowed clock soak",
            ),
            _ => {
                // Cycle through the kinds so that each one runs alone.
                static NEXT: AtomicUsize = AtomicUsize::new(0);
                let kind = FaultKind::ALL[NEXT.fetch_add(1, Ordering::Relaxed) % 10];
                let rates = only(kind, FaultRates::clock_soak().scaled(10.0));
                (FaultPlan::new(seed).with_rates(rates), ClockBackend::Forwarded, kind.label())
            }
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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

/// The visit cost of one flit, exactly: a lone flit crossing a 16-port
/// tree from port 0 to port 15 costs each stage on its path one visit
/// that captures it and one that observes its drain, its source the
/// injecting visit and one that observes the drain, and its sink one
/// capture visit — under the event kernel and the parallel kernel, whose
/// root cut the flit crosses. A stage off the path, or a capture
/// revisited only to clear its accept marker, would show as extra visits.
#[test]
fn a_lone_flit_costs_one_capture_and_one_drain_visit_per_hop() {
    let ports = 16u32;
    let cfg = TreeNetworkConfig::new(binary(ports as usize)).with_port_pattern(
        PortId(0),
        TrafficPattern::Hotspot {
            rate: 1.0,
            target: PortId(ports - 1),
            fraction: 1.0,
        },
    );
    // Steps until the source has injected, stops it, and drains: returns
    // the network and the visits of the injection and of the drain.
    let launch = |cfg: TreeNetworkConfig, kernel| {
        let mut net = cfg.with_kernel(kernel).build();
        while net.in_flight() == 0 {
            net.step();
        }
        net.set_sources_enabled(false);
        let injecting = net.element_steps();
        assert!(net.drain(1_000), "a lone flit must drain");
        let report = net.report();
        assert_eq!((report.sent, report.delivered), (1, 1), "{report}");
        let drain = net.element_steps() - injecting;
        (net, injecting, drain)
    };
    // The path, from the oracle's trace: one `HopForwarded` per stage.
    let (dense, _, _) = launch(cfg.clone().with_event_buffer(1 << 10), SimKernel::Dense);
    let hops = dense
        .event_buffer()
        .expect("buffered")
        .events()
        .iter()
        .filter(|e| e.kind == TraceEventKind::HopForwarded)
        .count() as u64;
    assert!(hops > 10, "port 0 to 15 crosses the root: {hops} stages");
    let mut kernels = vec![SimKernel::EventDriven];
    kernels.extend(PARALLEL_WORKERS.map(|workers| SimKernel::Parallel { workers }));
    for kernel in kernels {
        let (_, injecting, drain) = launch(cfg.clone(), kernel);
        let label = kernel.label();
        assert_eq!(injecting, 1, "{label}: the injection is one source visit");
        assert_eq!(
            drain,
            2 * hops + 2,
            "{label}: {hops} stage hops, the source's drain and the sink's capture"
        );
    }
}

/// Ring shortcuts give each ringed port's tree entry a `DestNotIn` filter,
/// each shortcut entry a `DestIs` filter, and each ringed consumer two
/// upstreams. The kernels' capture-filtered wakes and consumer re-arms
/// must read them exactly as the dense step does: neighbour traffic over
/// the shortcuts, open-loop worms into throttled sinks and closed-loop
/// tiles.
#[test]
fn ring_shortcut_fabrics_are_bit_identical() {
    let ports = 16u32;
    let ringed = |seed| {
        let mut cfg = TreeNetworkConfig::new(binary(ports as usize))
            .with_ring_shortcuts(true)
            .with_seed(seed);
        for p in 0..ports {
            // Half of each port's traffic goes to an adjacent port, which
            // a shortcut serves whenever the two sit in different subtrees.
            let target = PortId(if p % 2 == 0 {
                p.saturating_sub(1)
            } else {
                (p + 1) % ports
            });
            cfg = cfg.with_port_pattern(
                PortId(p),
                TrafficPattern::Hotspot {
                    rate: 0.5,
                    target,
                    fraction: 0.5,
                },
            );
        }
        cfg
    };
    for seed in [4u64, 61] {
        let cases = [
            ("ring neighbours", ringed(seed)),
            (
                "ring worms, throttled sinks",
                ringed(seed)
                    .with_packet_length(3)
                    .with_sink_mode(SinkMode::Throttle { period: 3 }),
            ),
            (
                "ring closed-loop tiles",
                // Saturating processors: responses from a shortcut and from
                // the tree reach the same processor on back-to-back edges.
                ringed(seed)
                    .with_pattern(TrafficPattern::RandomMemory { rate: 1.0 })
                    .with_tiles(icnoc_sim::TileTraffic {
                        max_outstanding: 4,
                        service_cycles: 3,
                    }),
            ),
        ];
        for (context, cfg) in cases {
            let (dense, _) = assert_kernels_agree(&cfg, 400, &format!("{context}, seed {seed}"));
            // Worms can interleave where a tree path and a shortcut meet
            // at a sink, so only conservation is asserted here.
            let report = dense.report();
            assert!(report.delivered > 0, "{context}: {report}");
            assert_eq!(report.sent, report.delivered, "{context}: {report}");
        }
    }
}

/// The synchronous mesh baseline routes with `MeshOutput` filters and
/// round-robin mid stages fed by up to four inputs. Its network is built
/// by hand, outside the tree builder, and must be bit-identical under
/// every kernel too, with the event and parallel kernels visiting the
/// same elements.
#[test]
fn synchronous_mesh_is_bit_identical() {
    use icnoc_baseline::SynchronousMesh;
    let mesh = SynchronousMesh::new(16).expect("square");
    let patterns = [
        TrafficPattern::Uniform { rate: 0.4 },
        TrafficPattern::Hotspot {
            rate: 0.6,
            target: PortId(5),
            fraction: 0.6,
        },
        TrafficPattern::Saturate,
    ];
    let run = |pattern, kernel, seed| {
        let mut net = mesh.network(pattern, seed);
        net.set_kernel(kernel);
        net.run_cycles(400);
        assert!(net.drain(4_000), "the mesh must drain");
        net
    };
    for pattern in patterns {
        for seed in [8u64, 90] {
            let context = format!("mesh {pattern:?}, seed {seed}");
            let dense = run(pattern, SimKernel::Dense, seed);
            let event = run(pattern, SimKernel::EventDriven, seed);
            assert!(dense.report().delivered > 0, "{context}: traffic must flow");
            assert_identical(&dense, &event, &context);
            for workers in PARALLEL_WORKERS {
                let par = run(pattern, SimKernel::Parallel { workers }, seed);
                let context = format!("{context} (workers={workers})");
                assert_identical(&dense, &par, &context);
                assert_eq!(event.element_steps(), par.element_steps(), "{context}");
            }
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

/// A fault run visits a stage only where a fault can act, through three
/// rules: a stage schedules its register upset's timed wake when it
/// latches a flit; a flit still presented after a downstream took it (a
/// stuck `valid`'s duplicate) wakes that downstream again; and a capture
/// that latched nothing under metastability keeps its stage armed. Runs
/// `rates` alone on a loaded 64-port tree under the dense oracle, the
/// event kernel and the parallel kernel at 1, 2 and 3 workers, and
/// asserts that every run drains with a balanced ledger, that the SoA
/// kernels agree with dense and with each other on element steps and
/// timed wakes, and that the event kernel takes `steps` steps. Each case
/// below wedges or diverges when the rule it names is deleted.
fn assert_fault_rule_case(rates: FaultRates, seed: u64, steps: u64, context: &str) {
    let cycles = 1_200;
    let cfg = TreeNetworkConfig::new(binary(64))
        .with_pattern(TrafficPattern::Uniform { rate: 0.4 })
        .with_faults(FaultPlan::new(seed).with_rates(rates))
        .with_seed(seed);
    let dense = run_one(&cfg, SimKernel::Dense, cycles);
    let report = dense.report();
    assert_eq!(report.in_flight, 0, "{context}: the dense run must drain");
    let ledger = dense.fault_report().expect("fault run");
    assert!(
        ledger.conserves() && ledger.pending == 0,
        "{context}: {ledger:?}"
    );
    let without_perf = |net: &Network| SimReport {
        perf: None,
        ..net.report()
    };
    let mut soa = vec![SimKernel::EventDriven];
    soa.extend([1, 2, 3].map(|workers| SimKernel::Parallel { workers }));
    let mut first = None;
    for kernel in soa {
        let net = run_one(&cfg.clone().with_profiling(true), kernel, cycles);
        let context = format!("{context} ({kernel:?})");
        assert_eq!(report, without_perf(&net), "{context}: report diverged");
        assert_eq!(
            Some(ledger),
            net.fault_report(),
            "{context}: ledger diverged"
        );
        let wakes = net.report().perf.expect("profiled").timed_wakes;
        let counts = (net.element_steps(), wakes);
        assert_eq!(
            *first.get_or_insert(counts),
            counts,
            "{context}: work diverged"
        );
    }
    let (event_steps, wakes) = first.expect("an SoA kernel ran");
    assert!(event_steps <= dense.element_steps(), "{context}");
    assert!(
        wakes.fired_live + wakes.fired_stale <= wakes.scheduled,
        "{context}: {wakes:?}"
    );
    assert_eq!(event_steps, steps, "{context}: event kernel steps");
}

/// A consumer that took a flit sleeps; when a stuck `valid` re-presents
/// that flit, only the re-presenting stage's wake brings the consumer
/// back to take the duplicate. Without it the fabric wedges.
#[test]
fn a_stuck_valid_duplicate_wakes_the_consumer_that_took_it() {
    let rates = only(FaultKind::StuckValid, FaultRates::soak());
    assert_fault_rule_case(rates, 7, 164_252, "stuck=0.005");
}

/// A stage holding a flit sleeps until its drain; the timed wake it
/// scheduled when it latched the flit serves the register upset of a
/// flit that is still blocked when the upset falls due.
#[test]
fn a_latched_flit_schedules_its_register_upset() {
    let rates = only(FaultKind::FlitDrop, FaultRates::soak().scaled(4.0));
    assert_fault_rule_case(rates, 7, 305_867, "drop=0.02");
}

/// A capture that latched nothing under metastability leaves its stage
/// empty, so no drain will wake it while another upstream's offer waits:
/// the capture keeps the stage armed.
#[test]
fn an_empty_metastable_capture_stays_armed() {
    let rates = only(FaultKind::SkewDrift, FaultRates::clock_soak().scaled(10.0));
    assert_fault_rule_case(rates, 7, 168_927, "skew-drift=0.01");
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

/// A capture wakes the upstream it drained with that slot's drain bit,
/// and the bits persist between batches beside the ready bits: a capture
/// on a batch's last tick is read as a drain on the next batch's first.
/// A `soak*4` fault plan and a counter-traced (`stats`) run of worms
/// step in uneven `run_cycles` chunks and odd per-tick stretches, so
/// batches end on both parities, with the generators disabled and
/// re-enabled between chunks (a `repin`), under the event kernel and the
/// parallel kernel at 1, 2 and 3 workers; a network's kernel is fixed
/// once it steps, so the worker count varies across runs. Every chunk
/// must leave the report and ledger exactly where the dense oracle has
/// them, and debug builds check each drain bit against the accept-marker
/// scan it replaces.
#[test]
fn drain_bits_survive_batch_boundaries() {
    let open = |seed, packet_len| {
        TreeNetworkConfig::new(binary(32))
            .with_pattern(TrafficPattern::Uniform { rate: 0.4 })
            .with_packet_length(packet_len)
            .with_seed(seed)
    };
    // Single flits under the fault plan: worms wedge under faults on
    // every kernel (ROADMAP item 2), and the drain must finish.
    let soak = FaultPlan::new(13).with_rates(FaultRates::soak().scaled(4.0));
    let scenarios = [
        ("soak*4", open(13, 1).with_faults(soak)),
        ("traced", open(17, 2).with_counters(true)),
    ];
    let schedule = [
        Drive::Cycles(41),
        Drive::Ticks(3),
        Drive::Sources(false),
        Drive::Cycles(17),
        Drive::Ticks(1),
        Drive::Sources(true),
        Drive::Cycles(90),
        Drive::Ticks(5),
        Drive::Cycles(33),
        Drive::Drain(20_000),
    ];
    for (name, cfg) in scenarios {
        let mut kernels = vec![SimKernel::Dense, SimKernel::EventDriven];
        kernels.extend([1, 2, 3].map(|workers| SimKernel::Parallel { workers }));
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
            for (net, kernel) in nets.iter().zip(&kernels).skip(1) {
                let context = format!("{name}: {} after {drive:?} (step {at})", kernel.label());
                assert_eq!(nets[0].report(), net.report(), "{context}: report");
                assert_eq!(
                    nets[0].fault_report(),
                    net.fault_report(),
                    "{context}: ledger"
                );
            }
        }
        let report = nets[0].report();
        assert!(report.delivered > 0 && report.in_flight == 0, "{name}");
        let event_steps = nets[1].element_steps();
        for net in &nets[2..] {
            assert_eq!(net.element_steps(), event_steps, "{name}: element steps");
        }
    }
}

/// A saturated fabric whose two clock domains go dark on a schedule, one
/// outage starting on an even tick and one on an odd tick. Its blocked
/// generators sleep on the activity list under the fault plan, and the
/// stalls they skip must leave out every edge their domain was frozen on.
/// Dense, event and parallel runs must match bit for bit,
/// `source_stall_edges` included: in one batch, and when per-tick
/// stretches put batch ends inside the outages. The event kernel's step
/// count is pinned, so generators that stop sleeping show up.
#[test]
fn generators_sleep_through_scheduled_clock_outages() {
    let plan = FaultPlan::new(5)
        .with_clock_outage_window(0, 300, 1_100)
        .with_clock_outage_window(1, 701, 1_501);
    let cfg = TreeNetworkConfig::new(binary(64))
        .with_pattern(TrafficPattern::Saturate)
        .with_packet_length(2)
        .with_faults(plan)
        .with_seed(8);
    let (dense, event) = assert_kernels_agree(&cfg, 1_000, "scheduled clock outages");
    let report = dense.report();
    assert!(report.source_stall_edges > 0, "the generators must stall");
    let ledger = dense.fault_report().expect("fault run");
    assert_eq!(ledger.injected.clock_outage, 2);
    assert_eq!(ledger.resyncs, 2, "both domains must come back");
    assert!(ledger.conserves() && ledger.pending == 0, "{ledger:?}");
    assert_eq!(event.element_steps(), 87_386);

    let schedule = [
        Drive::Cycles(170),
        Drive::Ticks(7),
        Drive::Cycles(120),
        Drive::Ticks(5),
        Drive::Cycles(250),
        Drive::Ticks(3),
        Drive::Cycles(200),
        Drive::Sources(false),
        Drive::Drain(4_000),
    ];
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
                Drive::Drain(budget) => assert!(net.drain(budget), "must drain"),
            }
        }
        let dense = nets[0].report();
        for (net, kernel) in nets.iter().zip(&kernels).skip(1) {
            assert_eq!(
                dense,
                net.report(),
                "{} diverged from dense after {drive:?} (step {at})",
                kernel.label()
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
