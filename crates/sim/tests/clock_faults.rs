//! Integration tests for clock-domain fault injection: subtree freezes,
//! the watchdog/quarantine/re-sync protocol, redundant-pulse masking,
//! conservation of the recovery ledger, the zero-rate identity, and
//! determinism across kernels and worker counts.

use icnoc_clock::ClockBackend;
use icnoc_sim::{FaultPlan, FaultRates, SimKernel, SimReport, TrafficPattern, TreeNetworkConfig};
use icnoc_topology::TreeTopology;
use proptest::prelude::*;

fn binary(ports: usize) -> TreeTopology {
    TreeTopology::binary(ports).expect("power of 2")
}

/// A run with a scheduled single-clock-node outage on domain 0 (ticks
/// 200..600), clock rates otherwise zero so the window is the only event.
fn outage_run(backend: ClockBackend, seed: u64, kernel: SimKernel) -> SimReport {
    let plan = FaultPlan::new(seed).with_clock_outage_window(0, 200, 600);
    let mut net = TreeNetworkConfig::new(binary(16))
        .with_pattern(TrafficPattern::uniform(0.2))
        .with_seed(seed)
        .with_clock_backend(backend)
        .with_kernel(kernel)
        .with_faults(plan)
        .build();
    net.run_cycles(1_000);
    net.drain_or_diagnose(8_000).expect("outage run must drain");
    net.report()
}

/// The acceptance soak: a windowed outage on the forwarded backend
/// freezes a subtree, the watchdog raises exactly one ClockLoss, the
/// quarantine drains deterministically after re-sync, and the ledger
/// conserves with nothing left pending.
#[test]
fn forwarded_outage_is_detected_quarantined_and_resynced() {
    for seed in [7, 23, 91] {
        let report = outage_run(ClockBackend::Forwarded, seed, SimKernel::EventDriven);
        let recovery = report.recovery.expect("faults enabled");
        assert!(report.is_correct(), "seed {seed}: {report}");
        assert!(recovery.conserves(), "seed {seed}\n{recovery}");
        assert_eq!(recovery.pending, 0, "seed {seed}\n{recovery}");
        assert!(
            recovery.clock_loss_events >= 1,
            "seed {seed}: watchdog never fired\n{recovery}"
        );
        assert!(
            recovery.resyncs >= 1,
            "seed {seed}: outage never re-synced\n{recovery}"
        );
        assert_eq!(
            recovery.clock_faults_masked, 0,
            "seed {seed}: forwarded clocking cannot mask\n{recovery}"
        );
        assert!(report.delivered > 0, "seed {seed}: {report}");
    }
}

/// The redundancy claim, head to head: the same outage the forwarded
/// backend loses a subtree to is voted away by the redundant-pulse
/// backend — no ClockLoss, at least one masked fault, and strictly more
/// delivered traffic over the same horizon.
#[test]
fn redundant_backend_masks_the_outage_forwarded_cannot() {
    for seed in [7, 23, 91] {
        let fwd = outage_run(ClockBackend::Forwarded, seed, SimKernel::EventDriven);
        let red = outage_run(ClockBackend::Redundant, seed, SimKernel::EventDriven);
        let fwd_rec = fwd.recovery.expect("faults enabled");
        let red_rec = red.recovery.expect("faults enabled");
        assert!(fwd_rec.clock_loss_events >= 1, "seed {seed}\n{fwd_rec}");
        assert_eq!(
            red_rec.clock_loss_events, 0,
            "seed {seed}: redundant clocking lost a subtree\n{red_rec}"
        );
        assert!(
            red_rec.clock_faults_masked >= 1,
            "seed {seed}: nothing was masked\n{red_rec}"
        );
        assert!(red_rec.conserves(), "seed {seed}\n{red_rec}");
        // The frozen subtree injects nothing for 400 ticks on the
        // forwarded backend; the redundant one never stops.
        assert!(
            red.delivered > fwd.delivered,
            "seed {seed}: redundant {} <= forwarded {}",
            red.delivered,
            fwd.delivered
        );
    }
}

/// A permanent outage (open-ended window) on the forwarded backend still
/// conserves: traffic strained through the dead subtree is explicitly
/// abandoned or still pending in the ledger, never silently gone.
#[test]
fn permanent_outage_accounts_every_flit() {
    let plan = FaultPlan::new(11).with_clock_outage_window(0, 200, u64::MAX);
    let mut net = TreeNetworkConfig::new(binary(16))
        .with_pattern(TrafficPattern::uniform(0.2))
        .with_seed(11)
        .with_faults(plan)
        .build();
    net.run_cycles(1_000);
    // The dead subtree can never drain: expect the diagnosis to name the
    // quarantined clock domain, not just the victim elements.
    let timeout = net.drain_or_diagnose(2_000).expect_err("subtree is dead");
    assert!(
        timeout
            .holders
            .iter()
            .any(|line| line.contains("clock domain 0 quarantined")),
        "diagnosis must attribute the stall to the clock outage: {:?}",
        timeout.holders
    );
    let recovery = net.report().recovery.expect("faults enabled");
    assert!(recovery.clock_loss_events >= 1, "{recovery}");
    assert_eq!(recovery.resyncs, 0, "{recovery}");
    assert!(recovery.conserves(), "{recovery}");
}

/// Clock faults are bit-identical across the event kernel and the
/// parallel kernel at any worker count (the fault plan runs on the
/// sharded kernel with order-free draws, so this must hold exactly).
#[test]
fn clock_faults_are_identical_at_any_worker_count() {
    for backend in [ClockBackend::Forwarded, ClockBackend::Redundant] {
        let baseline = outage_run(backend, 42, SimKernel::EventDriven);
        for workers in [1u32, 2, 8] {
            let par = outage_run(backend, 42, SimKernel::Parallel { workers });
            assert_eq!(baseline, par, "{backend:?} diverged at {workers} worker(s)");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation holds under randomly scaled clock-fault soaks on both
    /// backends: injected == absorbed + recovered + lost + pending after
    /// a full drain, and undelivered flits are explicit casualties.
    #[test]
    fn clock_soak_conserves_on_both_backends(
        seed in 0u64..1_000, scale in 0.1f64..2.0, redundant in any::<bool>()
    ) {
        let backend = if redundant {
            ClockBackend::Redundant
        } else {
            ClockBackend::Forwarded
        };
        let plan = FaultPlan::new(seed)
            .with_rates(FaultRates::clock_soak().scaled(scale));
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::uniform(0.2))
            .with_seed(seed)
            .with_clock_backend(backend)
            .with_faults(plan)
            .build();
        net.run_cycles(600);
        net.drain(24_000);
        let report = net.report();
        let recovery = report.recovery.expect("faults enabled");
        prop_assert!(recovery.conserves(), "{}", recovery);
        prop_assert_eq!(report.integrity_failures, 0, "{}", report);
        prop_assert_eq!(report.lost(), recovery.flits_abandoned, "{}", recovery);
    }

    /// Zero clock rates are invisible: with every clock-fault rate at
    /// zero the backend choice cannot matter, and the whole plan at zero
    /// is bit-identical to running without an injector at all.
    #[test]
    fn zero_clock_rates_are_bit_identical_across_backends(
        seed in any::<u64>(), plan_seed in any::<u64>()
    ) {
        let run = |backend: ClockBackend, plan: Option<FaultPlan>| {
            let mut cfg = TreeNetworkConfig::new(binary(16))
                .with_pattern(TrafficPattern::uniform(0.25))
                .with_seed(seed)
                .with_clock_backend(backend);
            if let Some(plan) = plan {
                cfg = cfg.with_faults(plan);
            }
            let mut net = cfg.build();
            net.run_cycles(400);
            net.drain(2_000);
            let mut report = net.report();
            report.recovery = None; // compare the functional fields only
            report
        };
        // Non-clock soak rates, both backends: the backend only acts on
        // clock faults, so the reports must match bit for bit.
        let soak = FaultPlan::new(plan_seed).with_rates(FaultRates::soak());
        prop_assert_eq!(
            run(ClockBackend::Forwarded, Some(soak.clone())),
            run(ClockBackend::Redundant, Some(soak))
        );
        // All-zero plan == no plan, even on the redundant backend.
        prop_assert_eq!(
            run(ClockBackend::Redundant, None),
            run(ClockBackend::Redundant, Some(FaultPlan::new(plan_seed)))
        );
    }

    /// Every completed outage re-syncs cleanly: once the window closes
    /// and the drain finishes, no flit is left permanently pending.
    #[test]
    fn resync_leaves_nothing_pending(
        seed in 0u64..1_000, start in 100u64..400, len in 50u64..500
    ) {
        let plan = FaultPlan::new(seed)
            .with_clock_outage_window(0, start, start + len);
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::uniform(0.2))
            .with_seed(seed)
            .with_faults(plan)
            .build();
        net.run_cycles(1_000);
        net.drain(16_000);
        let recovery = net.report().recovery.expect("faults enabled");
        prop_assert!(recovery.resyncs >= 1, "{}", recovery);
        prop_assert!(recovery.conserves(), "{}", recovery);
        prop_assert_eq!(recovery.pending, 0, "{}", recovery);
    }
}
