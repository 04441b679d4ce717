//! Simulation statistics: the scoreboard and the run report.

use crate::hash::FxHashMap;
use crate::{Flit, FlitKind};
use icnoc_clock::ClockGatingStats;
use icnoc_topology::PortId;
use serde::{Deserialize, Serialize};

/// Accumulated delivery-latency statistics, in half-cycles internally,
/// reported in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    count: u64,
    sum_half_cycles: u64,
    min_half_cycles: u64,
    max_half_cycles: u64,
}

impl LatencyStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one delivery with the given latency in half-cycles.
    pub fn record(&mut self, half_cycles: u64) {
        if self.count == 0 {
            self.min_half_cycles = half_cycles;
            self.max_half_cycles = half_cycles;
        } else {
            self.min_half_cycles = self.min_half_cycles.min(half_cycles);
            self.max_half_cycles = self.max_half_cycles.max(half_cycles);
        }
        self.count += 1;
        self.sum_half_cycles += half_cycles;
    }

    /// Number of recorded deliveries.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no deliveries were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in clock cycles, or `None` when nothing was recorded.
    /// Prefer this where a defaulted 0.0 would read as a real — and
    /// suspiciously excellent — latency.
    #[must_use]
    pub fn try_mean_cycles(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_half_cycles as f64 / self.count as f64 / 2.0)
        }
    }

    /// Mean latency in clock cycles (0.0 when empty; see
    /// [`try_mean_cycles`](Self::try_mean_cycles) to distinguish the empty
    /// case).
    #[must_use]
    pub fn mean_cycles(&self) -> f64 {
        self.try_mean_cycles().unwrap_or(0.0)
    }

    /// Minimum latency in cycles.
    #[must_use]
    pub fn min_cycles(&self) -> f64 {
        self.min_half_cycles as f64 / 2.0
    }

    /// Maximum latency in cycles.
    #[must_use]
    pub fn max_cycles(&self) -> f64 {
        self.max_half_cycles as f64 / 2.0
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min_half_cycles = self.min_half_cycles.min(other.min_half_cycles);
        self.max_half_cycles = self.max_half_cycles.max(other.max_half_cycles);
        self.count += other.count;
        self.sum_half_cycles += other.sum_half_cycles;
    }
}

/// A fixed-resolution latency histogram: one bucket per clock cycle up to
/// 256 cycles, plus an overflow bucket, enabling tail percentiles that a
/// mean/min/max summary hides.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
}

/// Cycle-resolution buckets covered before the overflow bucket.
const HISTOGRAM_CYCLES: usize = 256;

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_CYCLES + 1],
            count: 0,
        }
    }

    /// Records one delivery latency in half-cycles.
    pub fn record(&mut self, half_cycles: u64) {
        let cycle = (half_cycles / 2) as usize;
        let idx = cycle.min(HISTOGRAM_CYCLES);
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Number of recorded deliveries.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `p`-quantile latency in cycles (`p` in `[0, 1]`), at one-cycle
    /// resolution; latencies beyond 256 cycles saturate to 256.
    ///
    /// Returns 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    #[track_caller]
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let need = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (cycle, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= need {
                return cycle as f64;
            }
        }
        HISTOGRAM_CYCLES as f64
    }

    /// Median latency in cycles.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 95th-percentile latency in cycles.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// 99th-percentile latency in cycles — the tail that congestion
    /// (e.g. the shared-memory hotspot) stretches first.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-(src, dest) in-order delivery tracking plus global counters.
///
/// Sources number their flits globally (across all destinations), so the
/// flits of one (src, dest) pair carry *strictly increasing* — not
/// consecutive — sequence numbers. Deterministic tree routing over FIFO
/// stages must deliver them in that order; a repeat is a duplication, a
/// decrease is a reorder, and loss shows up in the sent/delivered
/// accounting.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scoreboard {
    last_seen: FxHashMap<(u32, u32), u64>,
    /// Wormhole integrity: the packet currently streaming into each
    /// destination, `(src, packet)`. Arbitrated-stage locking must keep
    /// packets contiguous per destination.
    open_worm: FxHashMap<u32, (u32, u64)>,
    pub delivered: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub misrouted: u64,
    pub packets_delivered: u64,
    pub interleaved: u64,
    /// Delivered flits whose payload failed the identity oracle or whose
    /// CRC did not verify. With the fault layer attached, corrupt flits
    /// are filtered *before* reaching the scoreboard, so any count here
    /// is a silent corruption escape — the one thing the robustness
    /// contract forbids.
    pub integrity_failures: u64,
    pub latency: LatencyStats,
    pub histogram: LatencyHistogram,
}

impl Scoreboard {
    pub fn record_arrival(&mut self, flit: &Flit, tick: u64, at_port: PortId) {
        if flit.dest != at_port {
            self.misrouted += 1;
            return;
        }
        self.delivered += 1;
        self.latency.record(flit.latency_half_cycles(tick));
        self.histogram.record(flit.latency_half_cycles(tick));
        if flit.payload != Flit::expected_payload(flit.src, flit.dest, flit.seq) || !flit.crc_ok() {
            self.integrity_failures += 1;
        }
        if flit.retry > 0 {
            // A recovered flit legitimately arrives late and standalone:
            // it is exempt from the in-order and wormhole checks. It still
            // completes its packet if it was the closing flit.
            if flit.kind.closes_route() {
                self.packets_delivered += 1;
            }
            return;
        }
        let key = (flit.src.0, flit.dest.0);
        match self.last_seen.get(&key) {
            Some(&last) if flit.seq == last => self.duplicated += 1,
            Some(&last) if flit.seq < last => self.reordered += 1,
            _ => {
                self.last_seen.insert(key, flit.seq);
            }
        }
        // Wormhole integrity per destination.
        let worm = (flit.src.0, flit.packet);
        match flit.kind {
            FlitKind::Single => {
                if self.open_worm.contains_key(&flit.dest.0) {
                    self.interleaved += 1;
                }
                self.packets_delivered += 1;
            }
            FlitKind::Head => {
                if self.open_worm.insert(flit.dest.0, worm).is_some() {
                    self.interleaved += 1;
                }
            }
            FlitKind::Body => {
                if self.open_worm.get(&flit.dest.0) != Some(&worm) {
                    self.interleaved += 1;
                }
            }
            FlitKind::Tail => {
                if self.open_worm.remove(&flit.dest.0) != Some(worm) {
                    self.interleaved += 1;
                }
                self.packets_delivered += 1;
            }
        }
    }
}

/// The outcome of a simulation run.
///
/// The three correctness counters — [`lost`](Self::lost), `duplicated`,
/// `reordered` — are the executable form of the paper's "timing-safe"
/// claim at the protocol level: the 2-phase flow control must move every
/// flit exactly once, in order, under any stall pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Layout version of this report (see
    /// [`SimReport::SCHEMA_VERSION`]). Persisted copies (e.g. the explore
    /// result cache) compare it against the current constant and discard
    /// mismatches instead of deserialising a stale layout as garbage.
    pub schema_version: u32,
    /// Simulated clock cycles (half the tick count).
    pub cycles: u64,
    /// Flits created by all sources.
    pub sent: u64,
    /// Flits delivered to their destination sinks.
    pub delivered: u64,
    /// Flits still inside the network (registers/sources) at snapshot time.
    pub in_flight: u64,
    /// Deliveries that repeated an already-seen sequence number.
    pub duplicated: u64,
    /// Deliveries that skipped ahead of the expected sequence number.
    pub reordered: u64,
    /// Deliveries to a sink other than the flit's destination.
    pub misrouted: u64,
    /// Delivery latency statistics (mean/min/max).
    pub latency: LatencyStats,
    /// Delivery latency distribution, for tail percentiles.
    pub histogram: LatencyHistogram,
    /// Aggregated clock-gating over all pipeline/router stages.
    pub gating: ClockGatingStats,
    /// Source edges on which injection was blocked by back pressure.
    pub source_stall_edges: u64,
    /// Packets fully injected by all sources.
    pub packets_sent: u64,
    /// Packets whose tail (or single flit) reached the destination sink.
    pub packets_delivered: u64,
    /// Wormhole-integrity violations: flits of different packets
    /// interleaved at a destination. Always 0 for correct locking.
    pub interleaved: u64,
    /// Request→response round-trip statistics from closed-loop processor
    /// tiles (empty in open-loop runs).
    pub round_trip: LatencyStats,
    /// Responses received by processor tiles.
    pub responses: u64,
    /// Per-element utilisation and per-flow latency percentiles, present
    /// when a [`CountersSink`](crate::CountersSink) was attached (e.g. via
    /// [`TreeNetworkConfig::with_counters`](crate::TreeNetworkConfig::with_counters)).
    pub observability: Option<crate::ObservabilityReport>,
    /// Delivered flits that failed the end-to-end payload integrity check
    /// (identity oracle + CRC). Nonzero means silent corruption escaped
    /// the fault gate — always 0 when the recovery layer works.
    pub integrity_failures: u64,
    /// The fault-injection/recovery ledger, present when a
    /// [`FaultPlan`](crate::FaultPlan) was attached.
    pub recovery: Option<crate::RecoveryReport>,
    /// Kernel-introspection data, present when profiling was enabled
    /// ([`Network::enable_profiling`](crate::Network)). Its wall-clock
    /// section is nondeterministic and excluded from every bit-identity
    /// guarantee — strip it (or use
    /// [`PerfReport::without_wall`](crate::PerfReport::without_wall))
    /// before comparing or caching reports, as the explore crate does
    /// with `wall_ms`.
    pub perf: Option<crate::PerfReport>,
}

impl SimReport {
    /// Current layout version of [`SimReport`]. Bump whenever a field is
    /// added, removed or changes meaning, so externally persisted reports
    /// (result caches, artefact files) invalidate instead of being read
    /// back under the wrong layout.
    pub const SCHEMA_VERSION: u32 = 6;

    /// Folds the full report into the compact [`ReportDigest`] that batch
    /// sweeps persist per job: the headline scalars, without the
    /// histogram buckets, per-element counters or gating detail.
    #[must_use]
    pub fn digest(&self) -> ReportDigest {
        let (injected, recovered, lost, retransmissions, effective_ghz) = match &self.recovery {
            Some(r) => (
                r.injected.total(),
                r.recovered,
                r.lost,
                r.retransmissions,
                r.effective_ghz,
            ),
            None => (0, 0, 0, 0, 0.0),
        };
        ReportDigest {
            cycles: self.cycles,
            sent: self.sent,
            delivered: self.delivered,
            throughput: self.throughput_per_cycle(),
            mean_latency: self.latency.mean_cycles(),
            p50: self.histogram.p50(),
            p95: self.histogram.p95(),
            p99: self.histogram.p99(),
            max_latency: self.latency.max_cycles(),
            correct: self.is_correct(),
            responses: self.responses,
            faults_injected: injected,
            faults_recovered: recovered,
            faults_lost: lost,
            retransmissions,
            effective_ghz,
        }
    }

    /// Flits unaccounted for: sent but neither delivered nor in flight.
    /// Always 0 for a correct flow-control implementation.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.sent
            .saturating_sub(self.delivered)
            .saturating_sub(self.in_flight)
    }

    /// Network-aggregate delivered throughput in flits per cycle.
    #[must_use]
    pub fn throughput_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered as f64 / self.cycles as f64
        }
    }

    /// True iff no loss, duplication, reordering, misrouting or wormhole
    /// interleaving occurred.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.lost() == 0
            && self.duplicated == 0
            && self.reordered == 0
            && self.misrouted == 0
            && self.interleaved == 0
            && self.integrity_failures == 0
    }
}

impl core::fmt::Display for SimReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} cycles: {} sent, {} delivered, {} in flight, \
             latency {:.1} cycles (min {:.1}, max {:.1}), {}",
            self.cycles,
            self.sent,
            self.delivered,
            self.in_flight,
            self.latency.mean_cycles(),
            self.latency.min_cycles(),
            self.latency.max_cycles(),
            self.gating
        )
    }
}

/// The compact per-job summary a design-space sweep keeps for every grid
/// point: everything the Pareto analysis needs, nothing it does not.
///
/// Unlike [`SimReport`] it contains no histogram buckets, per-element
/// counters or gating detail, so thousands of grid points stay cheap to
/// cache and compare.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportDigest {
    /// Simulated clock cycles.
    pub cycles: u64,
    /// Flits created by all sources.
    pub sent: u64,
    /// Flits delivered to their destinations.
    pub delivered: u64,
    /// Delivered throughput in flits per cycle.
    pub throughput: f64,
    /// Mean delivery latency in cycles (0.0 when nothing delivered).
    pub mean_latency: f64,
    /// Median delivery latency in cycles.
    pub p50: f64,
    /// 95th-percentile delivery latency in cycles.
    pub p95: f64,
    /// 99th-percentile delivery latency in cycles.
    pub p99: f64,
    /// Maximum delivery latency in cycles.
    pub max_latency: f64,
    /// Whether the run was fully correct ([`SimReport::is_correct`]).
    pub correct: bool,
    /// Closed-loop responses received by processor tiles.
    pub responses: u64,
    /// Faults injected (0 without a fault plan).
    pub faults_injected: u64,
    /// Faults whose flit was cleanly delivered in the end.
    pub faults_recovered: u64,
    /// Faults whose flit exhausted its retries.
    pub faults_lost: u64,
    /// Retransmissions issued by the recovery layer.
    pub retransmissions: u64,
    /// Final DFS-effective clock in GHz (0.0 without a fault plan).
    pub effective_ghz: f64,
}

impl ReportDigest {
    /// Fraction of injected faults that ended in a clean delivery:
    /// `recovered / injected`, or 1.0 when nothing was injected (a
    /// fault-free run trivially recovers everything).
    #[must_use]
    pub fn recovered_rate(&self) -> f64 {
        if self.faults_injected == 0 {
            1.0
        } else {
            self.faults_recovered as f64 / self.faults_injected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_track_extremes_and_mean() {
        let mut l = LatencyStats::new();
        l.record(4);
        l.record(10);
        l.record(6);
        assert_eq!(l.count(), 3);
        assert!(!l.is_empty());
        assert_eq!(l.min_cycles(), 2.0);
        assert_eq!(l.max_cycles(), 5.0);
        assert!((l.mean_cycles() - 20.0 / 6.0).abs() < 1e-12);
        assert_eq!(l.try_mean_cycles(), Some(l.mean_cycles()));
    }

    #[test]
    fn empty_latency_stats_are_distinguishable_from_zero_latency() {
        let empty = LatencyStats::new();
        assert!(empty.is_empty());
        assert_eq!(empty.try_mean_cycles(), None);
        assert_eq!(empty.mean_cycles(), 0.0);
        // A genuinely-zero-latency delivery is not "empty".
        let mut zero = LatencyStats::new();
        zero.record(0);
        assert!(!zero.is_empty());
        assert_eq!(zero.try_mean_cycles(), Some(0.0));
    }

    #[test]
    fn scoreboard_detects_duplicates_and_reorders() {
        let mut sb = Scoreboard::default();
        let f = |seq| Flit::new(PortId(0), PortId(1), seq, 0);
        sb.record_arrival(&f(0), 10, PortId(1));
        sb.record_arrival(&f(1), 12, PortId(1));
        assert_eq!(sb.duplicated, 0);
        sb.record_arrival(&f(1), 14, PortId(1)); // repeat
        assert_eq!(sb.duplicated, 1);
        sb.record_arrival(&f(5), 16, PortId(1)); // gap: fine (global seqs)
        assert_eq!(sb.reordered, 0);
        sb.record_arrival(&f(3), 18, PortId(1)); // going backwards: reorder
        assert_eq!(sb.reordered, 1);
        assert_eq!(sb.delivered, 5);
    }

    #[test]
    fn scoreboard_flags_misroutes() {
        let mut sb = Scoreboard::default();
        let f = Flit::new(PortId(0), PortId(1), 0, 0);
        sb.record_arrival(&f, 10, PortId(2));
        assert_eq!(sb.misrouted, 1);
        assert_eq!(sb.delivered, 0);
    }

    #[test]
    fn report_loss_accounting() {
        let report = SimReport {
            schema_version: SimReport::SCHEMA_VERSION,
            cycles: 100,
            sent: 50,
            delivered: 45,
            in_flight: 5,
            duplicated: 0,
            reordered: 0,
            misrouted: 0,
            latency: LatencyStats::new(),
            histogram: LatencyHistogram::new(),
            gating: ClockGatingStats::new(),
            source_stall_edges: 0,
            packets_sent: 50,
            packets_delivered: 45,
            interleaved: 0,
            round_trip: LatencyStats::new(),
            responses: 0,
            observability: None,
            integrity_failures: 0,
            recovery: None,
            perf: None,
        };
        assert_eq!(report.lost(), 0);
        assert!(report.is_correct());
        assert!((report.throughput_per_cycle() - 0.45).abs() < 1e-12);

        let lossy = SimReport {
            delivered: 40,
            ..report.clone()
        };
        assert_eq!(lossy.lost(), 5);
        assert!(!lossy.is_correct());
    }

    #[test]
    fn digest_summarises_the_headline_scalars() {
        let mut latency = LatencyStats::new();
        latency.record(4);
        latency.record(12);
        let mut histogram = LatencyHistogram::new();
        histogram.record(4);
        histogram.record(12);
        let report = SimReport {
            schema_version: SimReport::SCHEMA_VERSION,
            cycles: 200,
            sent: 2,
            delivered: 2,
            in_flight: 0,
            duplicated: 0,
            reordered: 0,
            misrouted: 0,
            latency,
            histogram,
            gating: ClockGatingStats::new(),
            source_stall_edges: 0,
            packets_sent: 2,
            packets_delivered: 2,
            interleaved: 0,
            round_trip: LatencyStats::new(),
            responses: 0,
            observability: None,
            integrity_failures: 0,
            recovery: None,
            perf: None,
        };
        let d = report.digest();
        assert_eq!(d.cycles, 200);
        assert_eq!(d.delivered, 2);
        assert!((d.throughput - 0.01).abs() < 1e-12);
        assert!((d.mean_latency - 4.0).abs() < 1e-12);
        assert!(d.correct);
        // No fault plan: the recovery scalars zero out and the recovered
        // rate is trivially perfect.
        assert_eq!(d.faults_injected, 0);
        assert_eq!(d.recovered_rate(), 1.0);
    }

    #[test]
    fn schema_version_is_stamped_on_reports() {
        // Versions are compile-time constants persisted into caches;
        // both must be positive and present on every constructed report.
        const { assert!(SimReport::SCHEMA_VERSION >= 2) };
        const { assert!(crate::RecoveryReport::SCHEMA_VERSION >= 2) };
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = LatencyHistogram::new();
        // 90 deliveries at 2 cycles, 10 at 50 cycles.
        for _ in 0..90 {
            h.record(4);
        }
        for _ in 0..10 {
            h.record(100);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 2.0);
        assert_eq!(h.percentile(0.90), 2.0);
        assert_eq!(h.p95(), 50.0);
        assert_eq!(h.p99(), 50.0);
        assert_eq!(h.percentile(0.0), 2.0);
        assert_eq!(h.percentile(1.0), 50.0);
    }

    #[test]
    fn histogram_saturates_beyond_256_cycles() {
        let mut h = LatencyHistogram::new();
        h.record(10_000);
        assert_eq!(h.p50(), 256.0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.99), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn per_pair_ordering_is_independent() {
        let mut sb = Scoreboard::default();
        sb.record_arrival(&Flit::new(PortId(0), PortId(2), 0, 0), 1, PortId(2));
        sb.record_arrival(&Flit::new(PortId(1), PortId(2), 0, 0), 2, PortId(2));
        sb.record_arrival(&Flit::new(PortId(0), PortId(2), 1, 0), 3, PortId(2));
        sb.record_arrival(&Flit::new(PortId(1), PortId(2), 1, 0), 4, PortId(2));
        assert_eq!(sb.reordered, 0);
        assert_eq!(sb.duplicated, 0);
    }
}
