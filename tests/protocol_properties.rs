//! Property-based integration tests of the 2-phase flow-control protocol
//! and the timing solvers, across crates.

use icnoc::SystemBuilder;
use icnoc_sim::{Network, SinkMode, TileTraffic, TrafficPattern, TreeNetworkConfig};
use icnoc_topology::{TreeKind, TreeTopology};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Fig. 4 protocol never loses, duplicates or reorders flits on a
    /// pipeline of any depth, at any injection rate, under any stall
    /// window.
    #[test]
    fn pipeline_protocol_is_correct_under_arbitrary_stalls(
        stages in 1usize..24,
        rate in 0.05f64..1.0,
        stall_from in 0u64..300,
        stall_len in 0u64..300,
        seed in any::<u64>(),
    ) {
        let mut net = Network::pipeline(
            stages,
            TrafficPattern::uniform(rate),
            SinkMode::StallDuring { from: stall_from, to: stall_from + stall_len },
            seed,
        );
        net.run_cycles(600);
        prop_assert!(net.drain(stages as u64 + 700), "failed to drain");
        let report = net.report();
        prop_assert!(report.is_correct(), "{report}");
        prop_assert_eq!(report.sent, report.delivered);
    }

    /// A throttled consumer bounds throughput but never breaks the
    /// protocol.
    #[test]
    fn throttled_sink_preserves_correctness(
        stages in 1usize..16,
        period in 1u64..12,
        seed in any::<u64>(),
    ) {
        let mut net = Network::pipeline(
            stages,
            TrafficPattern::saturate(),
            SinkMode::Throttle { period },
            seed,
        );
        let report = net.run_cycles(500);
        prop_assert_eq!(report.duplicated, 0);
        prop_assert_eq!(report.reordered, 0);
        // Delivered rate matches the throttle within fill slop.
        let expected = 1.0 / period as f64;
        prop_assert!(
            (report.throughput_per_cycle() - expected).abs() < 0.1,
            "throughput {} vs throttle {}",
            report.throughput_per_cycle(),
            expected
        );
    }

    /// Whole-network correctness on random tree sizes, rates and seeds.
    #[test]
    fn tree_network_delivers_correctly(
        depth in 2u32..6,
        rate in 0.02f64..0.5,
        seed in any::<u64>(),
    ) {
        let ports = 1usize << depth;
        let sys = SystemBuilder::new(TreeKind::Binary, ports)
            .build()
            .expect("powers of two build");
        let report = sys.simulate(TrafficPattern::uniform(rate), 500, seed);
        prop_assert!(report.is_correct(), "{report}");
    }

    /// Wormhole switching never loses, interleaves or reorders packets,
    /// for any packet length, tree size and load.
    #[test]
    fn wormhole_integrity_over_random_configurations(
        depth in 2u32..5,
        packet_len in 1u32..6,
        rate in 0.05f64..0.6,
        seed in any::<u64>(),
    ) {
        let tree = TreeTopology::binary(1usize << depth).expect("power of 2");
        let mut net = TreeNetworkConfig::new(tree)
            .with_pattern(TrafficPattern::uniform(rate))
            .with_packet_length(packet_len)
            .with_seed(seed)
            .build();
        net.run_cycles(600);
        prop_assert!(net.drain(3_000), "stall: {:?}", net.diagnose_stall());
        let report = net.report();
        prop_assert!(report.is_correct(), "{report}");
        prop_assert_eq!(report.packets_sent, report.packets_delivered);
        prop_assert_eq!(report.sent, report.packets_sent * u64::from(packet_len));
    }

    /// Ring shortcuts preserve protocol correctness for any load and seed.
    #[test]
    fn ring_shortcuts_preserve_correctness(
        depth in 2u32..5,
        rate in 0.02f64..0.4,
        seed in any::<u64>(),
    ) {
        let tree = TreeTopology::binary(1usize << depth).expect("power of 2");
        let mut net = TreeNetworkConfig::new(tree)
            .with_pattern(TrafficPattern::uniform(rate))
            .with_ring_shortcuts(true)
            .with_seed(seed)
            .build();
        net.run_cycles(600);
        prop_assert!(net.drain(2_000), "stall: {:?}", net.diagnose_stall());
        prop_assert!(net.report().is_correct(), "{}", net.report());
    }

    /// Closed-loop tiles: every request gets exactly one response, for any
    /// outstanding limit and service latency.
    #[test]
    fn closed_loop_conservation(
        depth in 2u32..5,
        rate in 0.05f64..0.8,
        max_outstanding in 1usize..6,
        service in 0u64..10,
        seed in any::<u64>(),
    ) {
        let tree = TreeTopology::binary(1usize << depth).expect("power of 2");
        let mut net = TreeNetworkConfig::new(tree)
            .with_pattern(TrafficPattern::RandomMemory { rate })
            .with_tiles(TileTraffic {
                max_outstanding,
                service_cycles: service,
            })
            .with_seed(seed)
            .build();
        net.run_cycles(600);
        prop_assert!(net.drain(3_000), "stall: {:?}", net.diagnose_stall());
        let report = net.report();
        prop_assert!(report.is_correct(), "{report}");
        // Requests == responses == half of all delivered flits.
        prop_assert_eq!(report.responses * 2, report.delivered);
    }

    /// Gated fraction plus activity is always exactly one observation set.
    #[test]
    fn gating_accounting_is_conserved(
        stages in 1usize..12,
        rate in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut net = Network::pipeline(
            stages,
            TrafficPattern::uniform(rate),
            SinkMode::AlwaysAccept,
            seed,
        );
        let cycles = 300u64;
        let report = net.run_cycles(cycles);
        // Every stage sees one edge per cycle.
        prop_assert_eq!(report.gating.total_edges(), cycles * stages as u64);
        let f = report.gating.gated_fraction() + report.gating.activity();
        prop_assert!((f - 1.0).abs() < 1e-12);
    }
}
