//! End-to-end integration tests spanning every crate: topology →
//! floorplan → clock distribution → timing verification → simulation.

use icnoc::{demonstrator_patterns, SystemBuilder, SystemError, TilePreset};
use icnoc_clock::ClockDistribution;
use icnoc_sim::TrafficPattern;
use icnoc_timing::ProcessVariation;
use icnoc_topology::{PortId, TreeKind};
use icnoc_units::{Gigahertz, Millimeters};

#[test]
fn demonstrator_full_stack() {
    // Build: the Section 6 configuration.
    let sys = SystemBuilder::demonstrator().build().expect("valid config");
    let summary = sys.summary();
    assert_eq!(summary.ports, 64);
    assert_eq!(summary.routers, 63);

    // Clock distribution: alternation and bounded local skew.
    assert!(sys.clocks().alternation_holds(sys.tree()));
    assert!(sys.clocks().max_link_skew(sys.tree()) < sys.frequency().half_period());

    // Timing signoff: every segment, both directions.
    let verification = sys.verify_nominal();
    assert!(verification.is_timing_safe(), "{verification}");

    // Simulation: correct delivery under all four tile workloads.
    for preset in [
        TilePreset::LocalCompute { rate: 0.4 },
        TilePreset::UniformSharing { rate: 0.2 },
        TilePreset::SharedMemoryHotspot {
            rate: 0.3,
            fraction: 0.5,
        },
        TilePreset::BurstyTiles {
            burst: 10,
            idle: 90,
        },
    ] {
        let patterns = demonstrator_patterns(preset, 64);
        let mut net = sys.network(&patterns, 99);
        net.run_cycles(1_000);
        net.drain(4_000);
        let report = net.report();
        assert!(report.is_correct(), "{preset:?}: {report}");
        assert!(report.delivered > 0, "{preset:?} delivered nothing");
    }
}

#[test]
fn every_buildable_configuration_is_timing_safe_at_its_own_cap() {
    // The builder derives the segment cap from the operating frequency, so
    // every system it produces must pass its own verification.
    for (kind, ports, f) in [
        (TreeKind::Binary, 8, 0.8),
        (TreeKind::Binary, 32, 1.0),
        (TreeKind::Binary, 64, 1.3),
        (TreeKind::Quad, 16, 1.0),
        (TreeKind::Quad, 64, 1.2),
        (TreeKind::Quad, 256, 0.7),
    ] {
        let sys = SystemBuilder::new(kind, ports)
            .frequency(Gigahertz::new(f))
            .build()
            .unwrap_or_else(|e| panic!("{kind:?}/{ports}/{f}: {e}"));
        let v = sys.verify_nominal();
        assert!(v.is_timing_safe(), "{kind:?}/{ports}/{f}: {v}");
    }
}

#[test]
fn degrade_and_recover_cycle() {
    // A chip with bad silicon fails at speed, recovers at the solver's
    // frequency, and still moves traffic correctly there.
    let sys = SystemBuilder::demonstrator().build().expect("valid");
    let variation = ProcessVariation::new(0.6, 0.1);
    assert!(!sys.verify_under(variation, 3.0).is_timing_safe());

    let safe = sys.max_safe_frequency(variation, 3.0);
    let derated = sys.derated(safe);
    assert!(derated.verify_under(variation, 3.0).is_timing_safe());

    let report = derated.simulate(TrafficPattern::uniform(0.2), 1_000, 5);
    assert!(report.is_correct(), "{report}");
    assert!(report.delivered > 1_000);
}

#[test]
fn scaling_the_die_scales_the_timing() {
    // Same port count on a 4x bigger die: links lengthen, the 1 GHz cap
    // demands more pipeline stages, and verification still passes.
    let small = SystemBuilder::new(TreeKind::Binary, 64)
        .die(Millimeters::new(10.0), Millimeters::new(10.0))
        .build()
        .expect("valid");
    let large = SystemBuilder::new(TreeKind::Binary, 64)
        .die(Millimeters::new(20.0), Millimeters::new(20.0))
        .build()
        .expect("valid");
    assert!(large.area().stage_count > small.area().stage_count);
    assert!(large.verify_nominal().is_timing_safe());
    // The scalability claim: growing the die does NOT lower the clock.
    assert_eq!(small.frequency(), large.frequency());
}

#[test]
fn builder_rejects_out_of_reach_clocks_with_precise_errors() {
    let err = SystemBuilder::new(TreeKind::Binary, 64)
        .frequency(Gigahertz::new(2.5))
        .build()
        .unwrap_err();
    assert!(matches!(err, SystemError::RouterTooSlow { .. }), "{err}");

    // The quad tree's 5x5 routers bound at 1.2 GHz.
    let err = SystemBuilder::new(TreeKind::Quad, 64)
        .frequency(Gigahertz::new(1.3))
        .build()
        .unwrap_err();
    assert!(matches!(err, SystemError::RouterTooSlow { .. }), "{err}");
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let sys = SystemBuilder::new(TreeKind::Binary, 16)
            .build()
            .expect("valid");
        sys.simulate(TrafficPattern::uniform(0.3), 800, 1234)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds must reproduce identical runs");
}

#[test]
fn single_flow_latency_matches_hop_arithmetic() {
    // One low-rate flow from port 0 to port 63, so every flit sees an
    // empty fabric and the same latency.
    let sys = SystemBuilder::demonstrator().build().expect("valid");
    let mut patterns = vec![TrafficPattern::Silent; 64];
    patterns[0] = TrafficPattern::Hotspot {
        rate: 0.01,
        target: PortId(63),
        fraction: 1.0,
    };
    let mut net = sys.network(&patterns, 77);
    net.run_cycles(5_000);
    net.drain(500);
    let report = net.report();
    assert!(report.is_correct(), "{report}");
    assert!(report.delivered > 10);
    // The demonstrator pipelines six links near the root (`l1`-`l6`)
    // with one stage per direction, and the cross-root path climbs two
    // of them and descends two. So: 11 routers x 1.5 cycles + 4 link
    // stages x 0.5 + the sink's capture (0.5) = 19 cycles, exactly.
    let lat = &report.latency;
    assert_eq!(lat.min_cycles(), 19.0, "{report}");
    assert_eq!(lat.max_cycles(), 19.0, "{report}");
}
