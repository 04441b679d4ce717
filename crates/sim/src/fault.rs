//! Fault injection, the per-transfer timing guard, and the recovery loop.
//!
//! The paper's Section 4 argument is that the IC-NoC degrades gracefully:
//! every setup/hold window widens as the clock slows, so for any bounded
//! delay variation there exists a frequency at which timing holds. This
//! module makes that claim *executable* instead of merely analytic:
//!
//! 1. **Injection** — a seeded, deterministic [`FaultPlan`] perturbs the
//!    simulation with link-delay jitter and skew spikes, payload bit
//!    flips, register upsets that erase held flits, stuck/lost handshake
//!    glitches, and transient element outages, network-wide or per
//!    element-label prefix, optionally restricted to a tick window.
//!    Every decision is a pure hash of `(seed, tick, element, draw slot)`
//!    ([`draw`]), so faults are independent per element and per edge and
//!    no draw depends on which elements a kernel visits or in what order.
//! 2. **Detection** — every jitter/spike excursion is evaluated against
//!    the analytic window from [`icnoc_timing::LinkTiming`] (the
//!    per-transfer timing guard); out-of-window transfers become explicit
//!    [`TimingViolation`](crate::TraceEventKind::TimingViolation) events
//!    whose metastable outcome corrupts or drops the flit. Consumers
//!    recompute every flit's CRC, so corruption never passes silently.
//! 3. **Recovery** — flits are sequence-numbered per source and carry a
//!    CRC; the consumer-side gate NACKs corrupt arrivals and discards
//!    duplicates, timeouts presume drops, and both trigger bounded
//!    exponential-backoff retransmission from a pristine copy. A
//!    dynamic-frequency-scaling controller backs `T_half` off after
//!    repeated violations and creeps back up when clean, locking onto the
//!    highest violation-free frequency — Section 4 as a control loop.
//!
//! Every injected fault is tracked in a conservation ledger exposed as
//! [`RecoveryReport`]: `injected == absorbed + recovered + lost +
//! pending`, where *absorbed* faults provably did no harm (in-window
//! excursions, handshake glitches the protocol rides out, outages that
//! only stall), and *lost* flits are explicit, counted casualties — never
//! silent ones.

use crate::flit::{Flit, FlitKind};
use crate::trace::{DropCause, TraceEventKind};
use icnoc_clock::ClockBackend;
use icnoc_timing::{Direction, FlipFlopTiming, LinkTiming};
use icnoc_topology::PortId;
use icnoc_units::{Gigahertz, Picoseconds};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A bounded random excursion of a link's data delay (crosstalk,
    /// supply noise). Evaluated by the timing guard; usually in-window.
    LinkJitter,
    /// A large skew excursion (a ground bounce event, an aggressor net).
    /// Evaluated by the timing guard; often violates at full speed.
    SkewSpike,
    /// A single-event upset flipping one payload bit in a captured
    /// register, leaving the CRC stale.
    BitCorruption,
    /// A register upset erasing a held flit outright.
    FlitDrop,
    /// A lost `accept` (equivalently a stuck `valid`): the producer
    /// misses the drain and re-presents an already-captured flit,
    /// duplicating it.
    StuckValid,
    /// A glitched-away `valid`: the consumer sees no offer for one edge —
    /// a pure stall the two-phase protocol absorbs.
    LostValid,
    /// A transient element outage: the stage freezes (captures nothing)
    /// for one epoch of a configurable number of ticks.
    ElementOutage,
    /// A clock-node outage: an entire clock domain (a root-child subtree
    /// of the distribution tree) loses its clock, so every element in it
    /// stops capturing until the outage ends and the re-sync protocol
    /// completes. The redundant-pulse backend masks a single outage per
    /// domain (the TRIX median vote rides it out).
    ClockOutage,
    /// A dropped clock pulse: one missing edge freezes the whole domain
    /// for a single tick — a stall the two-phase handshake absorbs. The
    /// redundant-pulse backend votes the missing pulse away entirely.
    PulseDrop,
    /// A skew-drift ramp: the domain's clock arrival drifts linearly away
    /// from nominal over a configurable number of edges, so captures face
    /// a growing skew excursion evaluated by the timing guard. The
    /// redundant-pulse backend's median filters a single drifting arrival.
    SkewDrift,
}

impl FaultKind {
    /// Every kind, in ledger order.
    pub const ALL: [FaultKind; 10] = [
        FaultKind::LinkJitter,
        FaultKind::SkewSpike,
        FaultKind::BitCorruption,
        FaultKind::FlitDrop,
        FaultKind::StuckValid,
        FaultKind::LostValid,
        FaultKind::ElementOutage,
        FaultKind::ClockOutage,
        FaultKind::PulseDrop,
        FaultKind::SkewDrift,
    ];

    /// A short human-readable name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LinkJitter => "link-jitter",
            FaultKind::SkewSpike => "skew-spike",
            FaultKind::BitCorruption => "bit-corruption",
            FaultKind::FlitDrop => "flit-drop",
            FaultKind::StuckValid => "stuck-valid",
            FaultKind::LostValid => "lost-valid",
            FaultKind::ElementOutage => "outage",
            FaultKind::ClockOutage => "clock-outage",
            FaultKind::PulseDrop => "pulse-drop",
            FaultKind::SkewDrift => "skew-drift",
        }
    }
}

/// Per-edge injection probabilities, one per [`FaultKind`]. All rates are
/// probabilities in `[0, 1]`, rolled independently at the relevant
/// simulation point (a capture, a drain, an element's active edge).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Link-delay jitter per stage capture.
    pub link_jitter: f64,
    /// Skew spike per stage capture.
    pub skew_spike: f64,
    /// Payload bit flip per stage capture.
    pub bit_corruption: f64,
    /// Held-flit erasure per stage edge holding a flit (drawn once, as a
    /// geometric upset tick, when the flit is latched).
    pub flit_drop: f64,
    /// Handshake duplication per drained single-flit transfer.
    pub stuck_valid: f64,
    /// Lost offer per stage edge where the stage could capture.
    pub lost_valid: f64,
    /// Outage per stage edge: each epoch of `outage_edges` ticks freezes
    /// a stage with probability `1 − (1 − outage)^outage_edges`.
    pub outage: f64,
    /// Clock-node outage start per clock domain per edge.
    pub clock_outage: f64,
    /// Dropped clock pulse per clock domain per edge.
    pub pulse_drop: f64,
    /// Skew-drift ramp start per clock domain per edge.
    pub skew_drift: f64,
}

impl FaultRates {
    /// All-zero rates: the injector is attached but silent.
    pub const ZERO: FaultRates = FaultRates {
        link_jitter: 0.0,
        skew_spike: 0.0,
        bit_corruption: 0.0,
        flit_drop: 0.0,
        stuck_valid: 0.0,
        lost_valid: 0.0,
        outage: 0.0,
        clock_outage: 0.0,
        pulse_drop: 0.0,
        skew_drift: 0.0,
    };

    /// The default soak profile: every element-level fault kind nonzero,
    /// rates chosen so a 10k-cycle run exercises each recovery path many
    /// times without collapsing goodput. Clock-domain rates stay zero —
    /// see [`clock_soak`](Self::clock_soak).
    #[must_use]
    pub fn soak() -> Self {
        Self {
            link_jitter: 0.02,
            skew_spike: 0.01,
            bit_corruption: 0.01,
            flit_drop: 0.005,
            stuck_valid: 0.005,
            lost_valid: 0.01,
            outage: 0.0005,
            ..Self::ZERO
        }
    }

    /// The clock-fault soak profile: [`soak`](Self::soak) plus nonzero
    /// clock-domain rates, so a tree-network run exercises outage,
    /// pulse-drop and skew-drift handling alongside the element faults.
    #[must_use]
    pub fn clock_soak() -> Self {
        Self {
            clock_outage: 0.001,
            pulse_drop: 0.002,
            skew_drift: 0.001,
            ..Self::soak()
        }
    }

    /// Every rate multiplied by `factor` and clamped to `[0, 1]`.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        let s = |r: f64| (r * factor).clamp(0.0, 1.0);
        Self {
            link_jitter: s(self.link_jitter),
            skew_spike: s(self.skew_spike),
            bit_corruption: s(self.bit_corruption),
            flit_drop: s(self.flit_drop),
            stuck_valid: s(self.stuck_valid),
            lost_valid: s(self.lost_valid),
            outage: s(self.outage),
            clock_outage: s(self.clock_outage),
            pulse_drop: s(self.pulse_drop),
            skew_drift: s(self.skew_drift),
        }
    }

    /// Whether every rate is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    fn validate(&self) {
        for (name, r) in [
            ("link_jitter", self.link_jitter),
            ("skew_spike", self.skew_spike),
            ("bit_corruption", self.bit_corruption),
            ("flit_drop", self.flit_drop),
            ("stuck_valid", self.stuck_valid),
            ("lost_valid", self.lost_valid),
            ("outage", self.outage),
            ("clock_outage", self.clock_outage),
            ("pulse_drop", self.pulse_drop),
            ("skew_drift", self.skew_drift),
        ] {
            assert!(
                (0.0..=1.0).contains(&r),
                "fault rate {name}={r} must be a probability in [0, 1]"
            );
        }
    }
}

/// Configuration of the dynamic-frequency-scaling controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfsConfig {
    /// Timing violations within [`window_edges`](Self::window_edges) that
    /// trigger one backoff step.
    pub violation_threshold: u32,
    /// Length of the violation-counting window, in half-cycle edges.
    pub window_edges: u64,
    /// Multiplier applied to the slowdown per backoff step (> 1).
    pub backoff_factor: f64,
    /// Ceiling on the slowdown (the floor on frequency).
    pub max_slowdown: f64,
    /// Divisor applied when creeping back up after a clean stretch (> 1).
    pub creep_factor: f64,
    /// Violation-free edges required before a creep-up probe.
    pub clean_edges: u64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        Self {
            violation_threshold: 3,
            window_edges: 512,
            backoff_factor: 1.3,
            max_slowdown: 8.0,
            creep_factor: 1.15,
            clean_edges: 2000,
        }
    }
}

/// A seeded, deterministic fault-injection and recovery configuration.
///
/// Attach one to a network with
/// [`Network::enable_faults`](crate::Network::enable_faults) or
/// [`TreeNetworkConfig::with_faults`](crate::TreeNetworkConfig::with_faults).
/// Every fault decision is a pure hash of `(seed, tick, element, draw
/// slot)`, so a zero-rate plan leaves the simulation bit-identical to an
/// uninstrumented run, and every kernel draws the same faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    rates: FaultRates,
    /// Per-element overrides, matched by label prefix (first match wins).
    overrides: Vec<(String, FaultRates)>,
    /// Injection restricted to ticks in `[start, end)`, if set.
    window: Option<(u64, u64)>,
    seed: u64,
    /// Peak jitter excursion magnitude (uniform in `±jitter_max`).
    jitter_max: Picoseconds,
    /// Skew-spike magnitude range (sign is random).
    spike_min: Picoseconds,
    spike_max: Picoseconds,
    /// Ticks in one element-outage epoch.
    outage_edges: u64,
    /// Edges a rolled clock-node outage lasts.
    clock_outage_edges: u64,
    /// Missed heartbeats (frozen edges) before the per-subtree watchdog
    /// raises `ClockLoss` and quarantines the domain.
    watchdog_threshold: u64,
    /// Edges the deterministic re-sync protocol holds a domain frozen
    /// after its outage window ends, before captures resume.
    resync_edges: u64,
    /// Edges a skew-drift ramp lasts.
    drift_edges: u64,
    /// Peak skew excursion a drift ramp reaches at its end.
    drift_max: Picoseconds,
    /// Deterministic clock-outage windows: `(domain, start, end)` in
    /// half-cycle ticks (`end == u64::MAX` models a permanent outage).
    scheduled_clock_outages: Vec<(u32, u64, u64)>,
    /// Nominal per-hop wire delays the guard perturbs.
    data_delay: Picoseconds,
    clock_delay: Picoseconds,
    /// Nominal clock the DFS controller derates.
    frequency: Gigahertz,
    flip_flop: FlipFlopTiming,
    /// Edges without acknowledgement before a flit is presumed dropped.
    timeout_edges: u64,
    /// Base retransmission delay; doubles per attempt (bounded
    /// exponential backoff).
    backoff_base_edges: u64,
    /// Retransmissions per flit before declaring it an explicit loss.
    max_retries: u32,
    dfs: DfsConfig,
}

impl FaultPlan {
    /// A plan with all-zero rates and default timing/recovery parameters:
    /// 1 GHz nominal clock, the paper's 90 nm register library, matched
    /// 150 ps data/clock wires per hop.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rates: FaultRates::ZERO,
            overrides: Vec::new(),
            window: None,
            seed,
            jitter_max: Picoseconds::new(120.0),
            spike_min: Picoseconds::new(200.0),
            spike_max: Picoseconds::new(600.0),
            outage_edges: 16,
            clock_outage_edges: 64,
            watchdog_threshold: 8,
            resync_edges: 8,
            drift_edges: 256,
            drift_max: Picoseconds::new(300.0),
            scheduled_clock_outages: Vec::new(),
            data_delay: Picoseconds::new(150.0),
            clock_delay: Picoseconds::new(150.0),
            frequency: Gigahertz::new(1.0),
            flip_flop: FlipFlopTiming::nominal_90nm(),
            timeout_edges: 512,
            backoff_base_edges: 32,
            max_retries: 5,
            dfs: DfsConfig::default(),
        }
    }

    /// The default soak plan: every fault kind at a nonzero rate.
    #[must_use]
    pub fn soak(seed: u64) -> Self {
        Self::new(seed).with_rates(FaultRates::soak())
    }

    /// Sets the network-wide rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    #[must_use]
    #[track_caller]
    pub fn with_rates(mut self, rates: FaultRates) -> Self {
        rates.validate();
        self.rates = rates;
        self
    }

    /// Overrides the rates for elements whose label starts with `prefix`
    /// (e.g. `"r0."` for the root router, `"l3"` for port 3's link
    /// stages). Earlier overrides win.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    #[must_use]
    #[track_caller]
    pub fn with_element_rates(mut self, prefix: &str, rates: FaultRates) -> Self {
        rates.validate();
        self.overrides.push((prefix.to_owned(), rates));
        self
    }

    /// Restricts injection to half-cycle ticks in `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    #[must_use]
    #[track_caller]
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        assert!(start < end, "fault window must be non-empty");
        self.window = Some((start, end));
        self
    }

    /// Sets the nominal per-hop wire delays the timing guard perturbs.
    #[must_use]
    pub fn with_link_delays(mut self, data: Picoseconds, clock: Picoseconds) -> Self {
        self.data_delay = data;
        self.clock_delay = clock;
        self
    }

    /// Sets the nominal clock frequency.
    #[must_use]
    pub fn with_frequency(mut self, frequency: Gigahertz) -> Self {
        self.frequency = frequency;
        self
    }

    /// Sets the register timing library the guard evaluates against.
    #[must_use]
    pub fn with_flip_flop(mut self, flip_flop: FlipFlopTiming) -> Self {
        self.flip_flop = flip_flop;
        self
    }

    /// Sets the jitter excursion bound and the spike magnitude range.
    ///
    /// # Panics
    ///
    /// Panics if `jitter_max` is negative or the spike range is empty.
    #[must_use]
    #[track_caller]
    pub fn with_excursions(
        mut self,
        jitter_max: Picoseconds,
        spike_min: Picoseconds,
        spike_max: Picoseconds,
    ) -> Self {
        assert!(!jitter_max.is_negative(), "jitter bound must be >= 0");
        assert!(
            spike_min.value() < spike_max.value(),
            "spike range must be non-empty"
        );
        self.jitter_max = jitter_max;
        self.spike_min = spike_min;
        self.spike_max = spike_max;
        self
    }

    /// Sets the element-outage epoch length in ticks.
    #[must_use]
    pub fn with_outage_edges(mut self, edges: u64) -> Self {
        self.outage_edges = edges.max(1);
        self
    }

    /// Sets the duration of rolled clock-node outages in edges.
    #[must_use]
    pub fn with_clock_outage_edges(mut self, edges: u64) -> Self {
        self.clock_outage_edges = edges.max(1);
        self
    }

    /// Sets the clock watchdog threshold (missed heartbeats before
    /// `ClockLoss` + quarantine) and the re-sync hold in edges.
    #[must_use]
    pub fn with_clock_watchdog(mut self, threshold: u64, resync_edges: u64) -> Self {
        self.watchdog_threshold = threshold.max(1);
        self.resync_edges = resync_edges.max(1);
        self
    }

    /// Sets the skew-drift ramp length in edges and its peak excursion.
    ///
    /// # Panics
    ///
    /// Panics if `drift_max` is negative.
    #[must_use]
    #[track_caller]
    pub fn with_skew_drift(mut self, edges: u64, drift_max: Picoseconds) -> Self {
        assert!(!drift_max.is_negative(), "drift peak must be >= 0");
        self.drift_edges = edges.max(1);
        self.drift_max = drift_max;
        self
    }

    /// Schedules a deterministic clock-node outage on clock domain
    /// `domain` over ticks `[start, end)`. `end == u64::MAX` models a
    /// permanent outage. Scheduled outages fire regardless of the plan's
    /// injection window and draw nothing.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    #[must_use]
    #[track_caller]
    pub fn with_clock_outage_window(mut self, domain: u32, start: u64, end: u64) -> Self {
        assert!(start < end, "clock outage window must be non-empty");
        self.scheduled_clock_outages.push((domain, start, end));
        self
    }

    /// Sets the retransmission parameters: acknowledgement timeout, base
    /// backoff delay (doubles per attempt), and the retry budget.
    ///
    /// # Panics
    ///
    /// Panics if `timeout_edges` is zero.
    #[must_use]
    #[track_caller]
    pub fn with_retry(
        mut self,
        timeout_edges: u64,
        backoff_base_edges: u64,
        max_retries: u32,
    ) -> Self {
        assert!(
            timeout_edges > 0,
            "a zero timeout would retransmit everything"
        );
        self.timeout_edges = timeout_edges;
        self.backoff_base_edges = backoff_base_edges.max(1);
        self.max_retries = max_retries;
        self
    }

    /// Sets the DFS controller configuration.
    ///
    /// # Panics
    ///
    /// Panics unless both factors exceed 1 and the ceiling is at least 1.
    #[must_use]
    #[track_caller]
    pub fn with_dfs(mut self, dfs: DfsConfig) -> Self {
        assert!(
            dfs.backoff_factor > 1.0 && dfs.creep_factor > 1.0 && dfs.max_slowdown >= 1.0,
            "DFS factors must exceed 1 and the slowdown ceiling must be >= 1"
        );
        self.dfs = dfs;
        self
    }

    /// The network-wide rates.
    #[must_use]
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// The seed every fault draw hashes.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The nominal clock frequency the DFS controller derates.
    #[must_use]
    pub fn frequency(&self) -> Gigahertz {
        self.frequency
    }

    /// The worst skew quantity injection can produce on an upstream link:
    /// `Δsum = data + clock + max positive excursion`. A slowdown at which
    /// this passes [`LinkTiming::check_delta`] silences the guard for
    /// good — the DFS convergence target.
    #[must_use]
    pub fn worst_case_delta(&self) -> Picoseconds {
        let excursion = self.spike_max.max(self.jitter_max);
        self.data_delay + self.clock_delay + excursion
    }

    /// Whether a `slowdown` derating is safe against every excursion this
    /// plan can inject (both link directions).
    #[must_use]
    pub fn slowdown_is_safe(&self, slowdown: f64) -> bool {
        let link = LinkTiming::new(self.flip_flop, self.frequency).derated(slowdown);
        let excursion = self.spike_max.max(self.jitter_max);
        let down_hi = self.data_delay - self.clock_delay + excursion;
        let down_lo = self.data_delay - self.clock_delay - excursion;
        link.check_delta(Direction::Upstream, self.worst_case_delta())
            .is_ok()
            && link.check_delta(Direction::Downstream, down_hi).is_ok()
            && link
                .check_delta(Direction::Downstream, down_lo.max(-self.clock_delay))
                .is_ok()
    }
}

/// Injection counts per [`FaultKind`] — the "injected" side of the
/// conservation ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Link-jitter excursions injected.
    pub link_jitter: u64,
    /// Skew spikes injected.
    pub skew_spike: u64,
    /// Payload bit flips injected.
    pub bit_corruption: u64,
    /// Held-flit erasures injected.
    pub flit_drop: u64,
    /// Handshake duplications injected.
    pub stuck_valid: u64,
    /// Lost-offer glitches injected.
    pub lost_valid: u64,
    /// Element-outage epochs frozen, one per `(element, epoch)`.
    pub outage: u64,
    /// Clock-node outages started (scheduled + rolled).
    pub clock_outage: u64,
    /// Clock pulses dropped.
    pub pulse_drop: u64,
    /// Skew-drift instances injected. On the forwarded backend one per
    /// affected capture during a ramp; on the redundant backend one per
    /// masked ramp.
    pub skew_drift: u64,
}

impl FaultCounts {
    /// Total faults injected across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.link_jitter
            + self.skew_spike
            + self.bit_corruption
            + self.flit_drop
            + self.stuck_valid
            + self.lost_valid
            + self.outage
            + self.clock_outage
            + self.pulse_drop
            + self.skew_drift
    }

    fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkJitter => self.link_jitter += 1,
            FaultKind::SkewSpike => self.skew_spike += 1,
            FaultKind::BitCorruption => self.bit_corruption += 1,
            FaultKind::FlitDrop => self.flit_drop += 1,
            FaultKind::StuckValid => self.stuck_valid += 1,
            FaultKind::LostValid => self.lost_valid += 1,
            FaultKind::ElementOutage => self.outage += 1,
            FaultKind::ClockOutage => self.clock_outage += 1,
            FaultKind::PulseDrop => self.pulse_drop += 1,
            FaultKind::SkewDrift => self.skew_drift += 1,
        }
    }

    /// The count for one kind.
    #[must_use]
    pub fn of(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::LinkJitter => self.link_jitter,
            FaultKind::SkewSpike => self.skew_spike,
            FaultKind::BitCorruption => self.bit_corruption,
            FaultKind::FlitDrop => self.flit_drop,
            FaultKind::StuckValid => self.stuck_valid,
            FaultKind::LostValid => self.lost_valid,
            FaultKind::ElementOutage => self.outage,
            FaultKind::ClockOutage => self.clock_outage,
            FaultKind::PulseDrop => self.pulse_drop,
            FaultKind::SkewDrift => self.skew_drift,
        }
    }
}

/// The injected-vs-detected-vs-recovered accounting of a fault run — the
/// `recovery` section of [`SimReport`](crate::SimReport).
///
/// The conservation law ([`conserves`](Self::conserves)): every injected
/// fault is **absorbed** (provably harmless: an in-window excursion, a
/// glitch the protocol rode out, an outage that only stalled),
/// **recovered** (its flit was cleanly delivered, possibly via
/// retransmission), **lost** (its flit exhausted the retry budget and was
/// abandoned — an explicit, counted casualty), or still **pending** (its
/// flit is un-acknowledged at report time; zero after a full drain).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Layout version of this ledger (see
    /// [`RecoveryReport::SCHEMA_VERSION`]); persisted copies compare it
    /// against the current constant before trusting the fields.
    pub schema_version: u32,
    /// Faults injected, per kind.
    pub injected: FaultCounts,
    /// Faults that provably did no harm.
    pub absorbed: u64,
    /// Timing-guard violations raised (subset of jitter/spike faults).
    pub timing_violations: u64,
    /// Corrupt arrivals caught by the consumer-side CRC gate.
    pub corruptions_detected: u64,
    /// Acknowledgement timeouts (presumed drops) detected.
    pub drops_detected: u64,
    /// Duplicate arrivals discarded by the sequence gate.
    pub duplicates_discarded: u64,
    /// Retransmissions injected by sources and tiles.
    pub retransmissions: u64,
    /// Faults whose flit was cleanly delivered in the end.
    pub recovered: u64,
    /// Faults whose flit exhausted its retries — explicit losses.
    pub lost: u64,
    /// Faults whose flit is still un-acknowledged.
    pub pending: u64,
    /// Flits abandoned after the retry budget (each contributes to
    /// `SimReport::lost()`).
    pub flits_abandoned: u64,
    /// DFS backoff steps taken (including probe reverts).
    pub backoffs: u64,
    /// DFS creep-up probes attempted.
    pub creep_ups: u64,
    /// Final clock slowdown factor (1.0 = nominal frequency).
    pub slowdown: f64,
    /// Final effective clock frequency in GHz.
    pub effective_ghz: f64,
    /// Whether the DFS controller has locked its operating point (a
    /// creep-up probe failed, disabling further probes).
    pub dfs_locked: bool,
    /// Tick of the last timing violation, if any occurred.
    pub last_violation_tick: Option<u64>,
    /// `ClockLoss` events the per-subtree watchdog raised (one per
    /// quarantined outage).
    pub clock_loss_events: u64,
    /// Clock faults the redundant-pulse backend masked (median vote).
    pub clock_faults_masked: u64,
    /// Completed domain re-syncs (outage window ended and the domain
    /// resumed capturing).
    pub resyncs: u64,
}

impl RecoveryReport {
    /// Current layout version of [`RecoveryReport`]. Bump on any field
    /// change so cached ledgers invalidate instead of deserialising
    /// garbage.
    ///
    /// Version 4: every fault is drawn from a pure hash of `(seed, tick,
    /// element, slot)` and element outages come in fixed epochs, so the
    /// ledgers of version 3 no longer reproduce.
    pub const SCHEMA_VERSION: u32 = 4;

    /// The conservation law: `injected == absorbed + recovered + lost +
    /// pending`.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.injected.total() == self.absorbed + self.recovered + self.lost + self.pending
    }

    /// Faults that caused a hazard and were caught (recovered, lost, or
    /// pending — everything except the absorbed ones).
    #[must_use]
    pub fn detected(&self) -> u64 {
        self.recovered + self.lost + self.pending
    }
}

impl core::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let i = self.injected;
        writeln!(
            f,
            "faults injected: {} (jitter {}, spike {}, corrupt {}, drop {}, stuck {}, \
             lost-valid {}, outage {}, clock-outage {}, pulse-drop {}, skew-drift {})",
            i.total(),
            i.link_jitter,
            i.skew_spike,
            i.bit_corruption,
            i.flit_drop,
            i.stuck_valid,
            i.lost_valid,
            i.outage,
            i.clock_outage,
            i.pulse_drop,
            i.skew_drift
        )?;
        writeln!(
            f,
            "  absorbed {} | recovered {} | lost {} | pending {}  (conserves: {})",
            self.absorbed,
            self.recovered,
            self.lost,
            self.pending,
            self.conserves()
        )?;
        writeln!(
            f,
            "  detection: {} timing violations, {} corrupt arrivals, {} timeouts, \
             {} duplicates discarded",
            self.timing_violations,
            self.corruptions_detected,
            self.drops_detected,
            self.duplicates_discarded
        )?;
        writeln!(
            f,
            "  recovery: {} retransmissions, {} flits abandoned",
            self.retransmissions, self.flits_abandoned
        )?;
        writeln!(
            f,
            "  clock: {} loss events, {} faults masked, {} resyncs",
            self.clock_loss_events, self.clock_faults_masked, self.resyncs
        )?;
        write!(
            f,
            "  dfs: {} backoffs, {} creep-ups, slowdown {:.3} -> {:.3} GHz{}",
            self.backoffs,
            self.creep_ups,
            self.slowdown,
            self.effective_ghz,
            if self.dfs_locked { " (locked)" } else { "" }
        )
    }
}

/// The DFS controller: counts violations in a sliding window, multiplies
/// the slowdown on threshold, creeps back after clean stretches, and
/// locks once a creep-up probe fails (first post-probe violation reverts
/// the probe and disables probing — deterministic convergence).
#[derive(Debug, Clone)]
struct Dfs {
    cfg: DfsConfig,
    slowdown: f64,
    window_start: u64,
    window_count: u32,
    last_violation: Option<u64>,
    last_change: u64,
    /// `Some(previous)` while a creep-up probe is live.
    probe: Option<f64>,
    /// Probing permanently disabled after a failed probe.
    locked: bool,
    backoffs: u64,
    creep_ups: u64,
}

impl Dfs {
    fn new(cfg: DfsConfig) -> Self {
        Self {
            cfg,
            slowdown: 1.0,
            window_start: 0,
            window_count: 0,
            last_violation: None,
            last_change: 0,
            probe: None,
            locked: false,
            backoffs: 0,
            creep_ups: 0,
        }
    }

    /// Records one violation; returns `true` if the clock backed off.
    fn on_violation(&mut self, tick: u64) -> bool {
        self.last_violation = Some(tick);
        if let Some(previous) = self.probe.take() {
            // The probe failed: revert to the known-good slowdown and stop
            // probing — the controller has found its operating point.
            self.slowdown = previous;
            self.locked = true;
            self.last_change = tick;
            self.window_count = 0;
            self.window_start = tick;
            self.backoffs += 1;
            return true;
        }
        if tick.saturating_sub(self.window_start) > self.cfg.window_edges {
            self.window_start = tick;
            self.window_count = 0;
        }
        self.window_count += 1;
        if self.window_count >= self.cfg.violation_threshold
            && self.slowdown < self.cfg.max_slowdown
        {
            self.slowdown = (self.slowdown * self.cfg.backoff_factor).min(self.cfg.max_slowdown);
            self.backoffs += 1;
            self.window_count = 0;
            self.window_start = tick;
            self.last_change = tick;
            return true;
        }
        false
    }

    /// Called once per edge: resolves surviving probes and starts new
    /// creep-up attempts after clean stretches.
    fn on_edge(&mut self, tick: u64) {
        let settled = tick.saturating_sub(self.last_change) >= self.cfg.clean_edges;
        if self.probe.is_some() {
            if settled {
                // The probe survived a full clean window: adopt the faster
                // clock as the new known-good point.
                self.probe = None;
            }
            return;
        }
        if self.locked || self.slowdown <= 1.0 {
            return;
        }
        let clean = self.last_violation.map_or(tick, |t| tick.saturating_sub(t));
        if settled && clean >= self.cfg.clean_edges {
            self.probe = Some(self.slowdown);
            self.slowdown = (self.slowdown / self.cfg.creep_factor).max(1.0);
            self.creep_ups += 1;
            self.last_change = tick;
        }
    }
}

/// An un-acknowledged flit the recovery layer tracks.
#[derive(Debug, Clone)]
struct Outstanding {
    /// Pristine copy used for retransmission.
    flit: Flit,
    /// Tick after which, without acknowledgement, the flit is presumed
    /// dropped.
    deadline: u64,
    /// Retransmissions performed so far.
    attempts: u32,
    /// Fault instances charged to this flit, resolved at delivery.
    faults: u64,
    /// Scheduled retransmission tick, if a NACK/timeout is being backed
    /// off.
    retx_due: Option<u64>,
}

/// What the injector decided about a stage capture.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CaptureEffect {
    /// The flit to latch (`None`: metastability resolved to loss).
    pub flit: Option<Flit>,
    /// A timing-guard violation fired.
    pub violation: bool,
    /// The latched flit was corrupted.
    pub corrupted: bool,
}

impl CaptureEffect {
    pub(crate) fn clean(flit: Flit) -> Self {
        Self {
            flit: Some(flit),
            violation: false,
            corrupted: false,
        }
    }
}

/// The consumer-side gate's verdict on an arriving flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArrivalVerdict {
    /// Clean (or misrouted — the scoreboard handles that): process it.
    Deliver,
    /// CRC/identity check failed: discard, a retransmission is scheduled.
    Corrupt,
    /// Already delivered once: discard silently.
    Duplicate,
}

/// The trace event a consumer emits for an arrival the gate judged
/// `verdict` at `port`.
pub(crate) fn arrival_event(verdict: ArrivalVerdict, flit: &Flit, port: PortId) -> TraceEventKind {
    let cause = match verdict {
        ArrivalVerdict::Deliver if flit.dest == port => return TraceEventKind::Delivered,
        ArrivalVerdict::Deliver => DropCause::Misroute,
        ArrivalVerdict::Corrupt => DropCause::CorruptPayload,
        ArrivalVerdict::Duplicate => DropCause::Duplicate,
    };
    TraceEventKind::Dropped { cause }
}

/// Internal ledger counters (everything except per-entry state).
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    injected: FaultCounts,
    absorbed: u64,
    violations: u64,
    corruptions_detected: u64,
    drops_detected: u64,
    duplicates_discarded: u64,
    retransmissions: u64,
    recovered: u64,
    lost: u64,
    flits_abandoned: u64,
    clock_loss_events: u64,
    clock_faults_masked: u64,
    resyncs: u64,
}

/// Live state of one clock domain (a root-child subtree of the clock
/// distribution tree) under fault injection.
#[derive(Debug, Clone, Default)]
struct DomainState {
    /// An outage is active: frozen until [`outage_until`](Self::outage_until).
    in_outage: bool,
    /// First tick after the active outage (`u64::MAX`: permanent).
    outage_until: u64,
    /// The post-outage re-sync hold is active until
    /// [`resync_until`](Self::resync_until).
    resyncing: bool,
    resync_until: u64,
    /// One-tick freeze from a dropped pulse.
    frozen_tick: Option<u64>,
    /// Redundant backend: a single clock fault is masked by the median
    /// vote until this tick; a second fault inside the window breaks
    /// through (double faults defeat triple redundancy).
    masked_until: u64,
    /// Watchdog heartbeat: consecutive frozen edges seen so far.
    missed: u64,
    /// The watchdog raised `ClockLoss` and quarantined the domain.
    quarantined: bool,
    /// A skew-drift ramp is active over
    /// `[drift_start, drift_until)`.
    drift_start: u64,
    drift_until: u64,
}

impl DomainState {
    fn frozen(&self, tick: u64) -> bool {
        self.in_outage || self.resyncing || self.frozen_tick == Some(tick)
    }
}

/// The clock-tree topology the fault layer propagates clock faults
/// through: which clock domain (root-child subtree) each element and port
/// belongs to (`u32::MAX`: the root domain, which never loses its clock),
/// and which [`ClockBackend`] drives the tree.
#[derive(Debug, Clone)]
pub(crate) struct ClockTopology {
    /// Per-element domain id (`u32::MAX` = root, never frozen).
    pub elements: Vec<u32>,
    /// Per-port domain id.
    pub ports: Vec<u32>,
    /// Number of domains (root-child subtrees).
    pub count: u32,
    /// The clock distribution backend in use.
    pub backend: ClockBackend,
}

/// Draw slots: each decision point reads its own independent draw.
mod slot {
    pub(super) const OUTAGE: u64 = 0;
    pub(super) const LOST_VALID: u64 = 1;
    pub(super) const STUCK_VALID: u64 = 2;
    pub(super) const FLIT_DROP: u64 = 3;
    pub(super) const SPIKE: u64 = 4;
    pub(super) const SPIKE_MAGNITUDE: u64 = 5;
    pub(super) const SPIKE_SIGN: u64 = 6;
    pub(super) const JITTER: u64 = 7;
    pub(super) const JITTER_MAGNITUDE: u64 = 8;
    pub(super) const METASTABLE: u64 = 9;
    pub(super) const METASTABLE_BIT: u64 = 10;
    pub(super) const CORRUPT: u64 = 11;
    pub(super) const CORRUPT_BIT: u64 = 12;
    pub(super) const CLOCK_OUTAGE: u64 = 13;
    pub(super) const PULSE_DROP: u64 = 14;
    pub(super) const SKEW_DRIFT: u64 = 15;
}

/// The SplitMix64 finaliser: a bijective avalanche mix of one word.
#[inline]
fn mix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fault draw: a pure hash of `(seed, tick, key, slot)`, where `key`
/// is an element index (or a clock-domain id for the domain slots). No
/// draw depends on any other, so every kernel reads the same numbers
/// whichever elements it visits, in whatever order — faults are
/// independent per element and per edge.
#[inline]
pub(crate) fn draw(seed: u64, tick: u64, key: u64, slot: u64) -> u64 {
    keyed(tick_base(seed, tick), key, slot)
}

/// The `(seed, tick)` half of [`draw`], shared by every draw of a tick.
#[inline]
fn tick_base(seed: u64, tick: u64) -> u64 {
    mix64(mix64(seed) ^ tick)
}

/// The `(key, slot)` half of [`draw`].
#[inline]
fn keyed(base: u64, key: u64, slot: u64) -> u64 {
    mix64(base ^ (key << 5 | slot))
}

/// A draw mapped uniformly onto `[0, 1)` (53 bits).
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Whether a draw fires at probability `rate`. A zero rate never fires.
#[inline]
fn fires(h: u64, rate: f64) -> bool {
    unit(h) < rate
}

/// A geometric draw: the number of failures before the first success of
/// a Bernoulli trial with `ln(1 − p) = survive_ln` (`−∞` at `p = 1`,
/// which always gives zero).
#[inline]
fn geometric(h: u64, survive_ln: f64) -> u64 {
    // `1 − u` lies in (0, 1], so the logarithm is finite or zero.
    let u = 1.0 - unit(h);
    (u.ln() / survive_ln).floor() as u64
}

/// One recovery-layer operation a visit performs. Visits only log these;
/// the dense loop applies each one at once, the SoA kernel folds its
/// shards' logs in `(tick, element)` order at the tick boundary — the
/// same order either way, so the ledger is identical.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultOp {
    /// A fault of this kind was injected.
    Injected(FaultKind),
    /// The fault just injected provably did no harm.
    Absorbed,
    /// A capture failed the timing guard (feeds the DFS controller).
    Violation,
    /// Charge a fault to the flit `(source port, sequence)`.
    Charge(u32, u64),
    /// A fresh flit entered the network.
    Injection(Flit),
    /// The consumer gate caught a corrupt copy of `(source, sequence)`.
    Corrupt(u32, u64),
    /// The consumer gate discarded a duplicate.
    Duplicate,
    /// `(source, sequence)` was delivered cleanly.
    Delivered(u32, u64),
    /// A queued retransmission of `(source, sequence)` was injected.
    Retransmitted(u32, u64),
}

impl FaultOp {
    /// Logs an endpoint visit's operations, in order: a queued
    /// retransmission re-arms its deadline, and a fresh payload enters
    /// the acknowledgement tracker.
    pub(crate) fn endpoint(
        injected: Option<Flit>,
        retransmitted: Option<Flit>,
        mut log: impl FnMut(FaultOp),
    ) {
        if let Some(flit) = retransmitted {
            log(FaultOp::Retransmitted(flit.src.0, flit.seq));
        }
        if let Some(flit) = injected {
            log(FaultOp::Injection(flit));
        }
    }
}

/// The fault state every visit reads: the plan, the per-element rates,
/// this epoch's element outages, the DFS slowdown at the start of the
/// tick and the clock-domain states. Only
/// [`FaultState::begin_step`] writes it, between ticks, so shards read it
/// without locks.
#[derive(Debug, Clone)]
pub(crate) struct FaultCtx {
    plan: FaultPlan,
    /// Per-element rates, resolved from the plan's prefix overrides.
    element_rates: Vec<FaultRates>,
    /// Per-element `ln(1 − flit_drop)`, the scale of the geometric upset
    /// draw.
    survive_ln: Vec<f64>,
    /// Stages grouped by their per-epoch freeze probability `q = 1 − (1 −
    /// outage)^outage_edges`, as `(q, ln(1 − q), members)`.
    outage_groups: Vec<(f64, f64, Vec<u32>)>,
    /// Stages the current outage epoch froze, one bit each.
    outage_bits: Vec<u64>,
    /// Per clock domain, its elements as a bitset.
    domain_bits: Vec<Vec<u64>>,
    /// Elements frozen this tick, one bit each: the outage epoch's stages
    /// (inside the injection window) and every element of a frozen clock
    /// domain. Rebuilt only when one of those inputs changes.
    frozen_now: Vec<u64>,
    /// The inputs `frozen_now` was last built from: the window state and
    /// each domain's frozen state.
    frozen_key: (bool, Vec<bool>),
    /// Whether any bit of `frozen_now` is set: the per-visit fast path.
    freezing: bool,
    /// `(tick, tick_base(seed, tick))` of the current tick, so a visit's
    /// draws hash only their `(element, slot)` half.
    base: (u64, u64),
    /// Whether any clock domain is inside a skew-drift ramp this tick.
    drifting: bool,
    /// DFS slowdown at the start of the current tick: every capture of
    /// the tick is guarded at this frequency.
    slowdown: f64,
    /// Clock-tree topology, if the network provided one (tree networks
    /// do; hand-built fabrics have no clock domains and clock-domain
    /// rates are inert).
    clock: Option<ClockTopology>,
    /// Per-domain live state, indexed by domain id.
    domains: Vec<DomainState>,
}

impl FaultCtx {
    fn active(&self, tick: u64) -> bool {
        self.plan
            .window
            .is_none_or(|(start, end)| tick >= start && tick < end)
    }

    fn rates(&self, element: usize) -> &FaultRates {
        self.element_rates.get(element).unwrap_or(&self.plan.rates)
    }

    /// A rate roll of `slot` for element `i` at `tick`. Zero rates never
    /// hash, so a zero-rate plan costs nothing per visit.
    #[inline]
    fn roll(&self, tick: u64, i: usize, slot: u64, rate: f64) -> bool {
        rate > 0.0 && fires(self.draw(tick, i, slot), rate)
    }

    #[inline]
    fn draw(&self, tick: u64, i: usize, slot: u64) -> u64 {
        let base = if tick == self.base.0 {
            self.base.1
        } else {
            tick_base(self.plan.seed, tick)
        };
        keyed(base, i as u64, slot)
    }

    /// Whether element `i` is frozen this tick: its clock domain is out
    /// (outage, re-sync hold, dropped pulse) or its outage epoch drew a
    /// freeze. A frozen element captures nothing and draws nothing.
    #[inline]
    pub(crate) fn frozen(&self, i: usize, tick: u64) -> bool {
        debug_assert_eq!(tick, self.base.0, "frozen state is built per tick");
        self.freezing && self.frozen_now[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Rebuilds `frozen_now` for `tick` if the window state or a domain's
    /// frozen state changed (`epoch` forces it: new outage bits).
    fn refresh_frozen(&mut self, tick: u64, epoch: bool) {
        let active = self.active(tick);
        let (was_active, was_frozen) = &self.frozen_key;
        let same = *was_active == active
            && was_frozen.len() == self.domains.len()
            && self
                .domains
                .iter()
                .zip(was_frozen)
                .all(|(d, &f)| d.frozen(tick) == f);
        if same && !epoch {
            return;
        }
        let (was_active, was_frozen) = &mut self.frozen_key;
        *was_active = active;
        was_frozen.clear();
        was_frozen.extend(self.domains.iter().map(|d| d.frozen(tick)));
        if active {
            self.frozen_now.copy_from_slice(&self.outage_bits);
        } else {
            self.frozen_now.fill(0);
        }
        for (bits, _) in self
            .domain_bits
            .iter()
            .zip(&*was_frozen)
            .filter(|(_, &f)| f)
        {
            for (word, &b) in self.frozen_now.iter_mut().zip(bits) {
                *word |= b;
            }
        }
        self.freezing = self.frozen_now.iter().any(|&w| w != 0);
    }

    /// Whether the drain of `flit` out of element `i` loses its `accept`,
    /// making the producer re-present (duplicate) it. Restricted to
    /// standalone flits — duplicating a wormhole fragment would need the
    /// link-level dedup real hardware does not model here.
    pub(crate) fn stuck_valid(
        &self,
        i: usize,
        tick: u64,
        flit: &Flit,
        log: &mut Vec<FaultOp>,
    ) -> bool {
        if !self.active(tick) || !(flit.kind == FlitKind::Single || flit.retry > 0) {
            return false;
        }
        if self.roll(tick, i, slot::STUCK_VALID, self.rates(i).stuck_valid) {
            log.push(FaultOp::Injected(FaultKind::StuckValid));
            log.push(FaultOp::Charge(flit.src.0, flit.seq));
            return true;
        }
        false
    }

    /// Whether element `i`'s incoming `valid` glitches away on an edge
    /// where it could capture.
    pub(crate) fn lost_valid(&self, i: usize, tick: u64, log: &mut Vec<FaultOp>) -> bool {
        if self.active(tick) && self.roll(tick, i, slot::LOST_VALID, self.rates(i).lost_valid) {
            log.push(FaultOp::Injected(FaultKind::LostValid));
            // A one-edge stall the handshake absorbs by construction.
            log.push(FaultOp::Absorbed);
            return true;
        }
        false
    }

    /// Applies capture-time faults to `flit` being latched by element `i`
    /// over a link in `direction`: delay excursions (evaluated by the
    /// timing guard at the slowdown the tick started with) and payload
    /// upsets.
    pub(crate) fn on_capture(
        &self,
        i: usize,
        tick: u64,
        flit: Flit,
        direction: Direction,
        log: &mut Vec<FaultOp>,
    ) -> CaptureEffect {
        let mut effect = CaptureEffect::clean(flit);
        if !self.active(tick) {
            return effect;
        }
        let rates = *self.rates(i);
        let excursion = if let Some(drift) = self.drift_excursion(i, tick) {
            // An armed skew-drift ramp books one instance per capture it
            // degrades; the timing guard decides whether each survives.
            log.push(FaultOp::Injected(FaultKind::SkewDrift));
            Some(drift)
        } else if self.roll(tick, i, slot::SPIKE, rates.skew_spike) {
            log.push(FaultOp::Injected(FaultKind::SkewSpike));
            let (lo, hi) = (self.plan.spike_min.value(), self.plan.spike_max.value());
            let magnitude = lo + unit(self.draw(tick, i, slot::SPIKE_MAGNITUDE)) * (hi - lo);
            let sign = if fires(self.draw(tick, i, slot::SPIKE_SIGN), 0.5) {
                1.0
            } else {
                -1.0
            };
            Some(Picoseconds::new(sign * magnitude))
        } else if self.roll(tick, i, slot::JITTER, rates.link_jitter) {
            log.push(FaultOp::Injected(FaultKind::LinkJitter));
            let bound = self.plan.jitter_max.value();
            let u = unit(self.draw(tick, i, slot::JITTER_MAGNITUDE));
            Some(Picoseconds::new(bound * (2.0 * u - 1.0)))
        } else {
            None
        };
        if let Some(excursion) = excursion {
            let link =
                LinkTiming::new(self.plan.flip_flop, self.plan.frequency).derated(self.slowdown);
            let data = (self.plan.data_delay + excursion).max(Picoseconds::ZERO);
            if link.check(direction, data, self.plan.clock_delay).is_ok() {
                log.push(FaultOp::Absorbed);
            } else {
                effect.violation = true;
                log.push(FaultOp::Violation);
                log.push(FaultOp::Charge(flit.src.0, flit.seq));
                // Metastability resolves unpredictably: half the time
                // the register latches garbage (corruption), half the
                // time nothing valid (loss). Heads always corrupt —
                // losing one would orphan its worm.
                if flit.kind == FlitKind::Head || fires(self.draw(tick, i, slot::METASTABLE), 0.5) {
                    let bit = (self.draw(tick, i, slot::METASTABLE_BIT) >> 59) as u32;
                    effect.flit = Some(flit.with_corrupted_payload(bit));
                    effect.corrupted = true;
                } else {
                    effect.flit = None;
                }
                return effect;
            }
        }
        if self.roll(tick, i, slot::CORRUPT, rates.bit_corruption) {
            log.push(FaultOp::Injected(FaultKind::BitCorruption));
            let base = effect.flit.unwrap_or(flit);
            log.push(FaultOp::Charge(base.src.0, base.seq));
            let bit = (self.draw(tick, i, slot::CORRUPT_BIT) >> 59) as u32;
            effect.flit = Some(base.with_corrupted_payload(bit));
            effect.corrupted = true;
        }
        effect
    }

    /// The tick at which a register upset erases `flit`, latched by
    /// element `i` at `tick`: one geometric draw over the element's own
    /// edges (every second tick) at the `flit_drop` rate, counting the
    /// latching edge. `u64::MAX` when the upset never fires: a zero rate,
    /// a head flit (erasing a worm's head would orphan its bodies), or a
    /// drawn tick outside the injection window.
    pub(crate) fn upset_tick(&self, i: usize, tick: u64, flit: &Flit) -> u64 {
        if self.rates(i).flit_drop <= 0.0 || flit.kind == FlitKind::Head {
            return u64::MAX;
        }
        let scale = self
            .survive_ln
            .get(i)
            .copied()
            .unwrap_or_else(|| (1.0 - self.plan.rates.flit_drop).ln());
        let edges = geometric(self.draw(tick, i, slot::FLIT_DROP), scale);
        let at = tick.saturating_add(edges.saturating_mul(2));
        if self.active(at) {
            at
        } else {
            u64::MAX
        }
    }

    /// Logs the register upset that erases `flit`.
    pub(crate) fn held_drop(flit: &Flit, log: &mut Vec<FaultOp>) {
        log.push(FaultOp::Injected(FaultKind::FlitDrop));
        log.push(FaultOp::Charge(flit.src.0, flit.seq));
    }

    /// The consumer-side gate: CRC/identity check and duplicate filtering
    /// against the consuming port's own `delivered` set, so the verdict
    /// is local to the consumer. NACKs and acknowledgements are logged
    /// for the recovery layer.
    pub(crate) fn on_arrival(
        flit: &Flit,
        port: PortId,
        delivered: &mut HashSet<(u32, u64)>,
        log: &mut Vec<FaultOp>,
    ) -> ArrivalVerdict {
        if flit.dest != port {
            // Misroutes are the scoreboard's concern, not the fault gate's.
            return ArrivalVerdict::Deliver;
        }
        let key = (flit.src.0, flit.seq);
        let integrity_ok =
            flit.crc_ok() && flit.payload == Flit::expected_payload(flit.src, flit.dest, flit.seq);
        if !integrity_ok {
            log.push(FaultOp::Corrupt(key.0, key.1));
            return ArrivalVerdict::Corrupt;
        }
        if !delivered.insert(key) {
            log.push(FaultOp::Duplicate);
            return ArrivalVerdict::Duplicate;
        }
        log.push(FaultOp::Delivered(key.0, key.1));
        ArrivalVerdict::Deliver
    }

    /// The skew excursion an active drift ramp imposes on a capture by
    /// element `i` this tick: ramps linearly from near zero to the plan's
    /// peak over the ramp length. `None` when no ramp covers the element.
    fn drift_excursion(&self, i: usize, tick: u64) -> Option<Picoseconds> {
        if !self.drifting {
            return None;
        }
        let clock = self.clock.as_ref()?;
        let d = *clock.elements.get(i)?;
        if d == u32::MAX {
            return None;
        }
        let st = &self.domains[d as usize];
        if tick < st.drift_until && tick >= st.drift_start {
            let ramp = (tick - st.drift_start + 1) as f64 / self.plan.drift_edges as f64;
            Some(Picoseconds::new(self.plan.drift_max.value() * ramp))
        } else {
            None
        }
    }
}

/// Live fault-injection/recovery state attached to a network.
///
/// All collections with order-dependent iteration are `BTreeMap`s so that
/// same-seed runs are bit-identical across processes.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    ctx: FaultCtx,
    dfs: Dfs,
    /// Un-acknowledged flits keyed by `(source port, sequence)`.
    outstanding: BTreeMap<(u32, u64), Outstanding>,
    /// Flits written off as lost, with their charged faults — kept so a
    /// copy that arrives intact *after* the write-off can be reclassified
    /// as recovered instead of staying a phantom loss.
    abandoned: BTreeMap<(u32, u64), u64>,
    /// Timer event queue: `(due tick, outstanding key)` for every pending
    /// acknowledgement deadline or scheduled retransmission, as a
    /// min-heap. [`begin_step`] pops elapsed entries instead of polling
    /// the whole `outstanding` map every edge. Entries are validated
    /// lazily against the live `Outstanding` state, so re-arming simply
    /// pushes a fresh timer and lets the stale one fizzle on pop.
    ///
    /// [`begin_step`]: FaultState::begin_step
    timers: BinaryHeap<Reverse<(u64, (u32, u64))>>,
    /// Scratch for the keys whose timers fire on one edge.
    fired: Vec<(u32, u64)>,
    ledger: Ledger,
    /// Injecting element (source or tile) of each port, where released
    /// retransmissions queue (`u32::MAX`: none).
    injectors: Vec<u32>,
    /// Retransmissions the last [`begin_step`](Self::begin_step)
    /// released, as `(injecting element, flit)`, in key order.
    released: Vec<(u32, Flit)>,
    /// Scratch log of the dense loop's hooks, applied after each hook.
    scratch: Vec<FaultOp>,
}

impl FaultState {
    /// Builds the live state for a network with the given element labels
    /// (`stages` marks the elements element outages can freeze).
    ///
    /// # Panics
    ///
    /// Panics if the plan's *nominal* link delays violate timing at its
    /// nominal frequency — faults must be excursions from a working
    /// design, not a broken baseline.
    pub(crate) fn new(plan: FaultPlan, labels: &[&str], stages: &[bool]) -> Self {
        let link = LinkTiming::new(plan.flip_flop, plan.frequency);
        for dir in [Direction::Downstream, Direction::Upstream] {
            assert!(
                link.check(dir, plan.data_delay, plan.clock_delay).is_ok(),
                "fault plan's nominal link delays must meet timing at the nominal \
                 frequency ({dir:?} fails); fix delays/frequency before injecting faults"
            );
        }
        let element_rates: Vec<FaultRates> = labels
            .iter()
            .map(|label| {
                plan.overrides
                    .iter()
                    .find(|(prefix, _)| label.starts_with(prefix.as_str()))
                    .map_or(plan.rates, |(_, r)| *r)
            })
            .collect();
        let edges = i32::try_from(plan.outage_edges).unwrap_or(i32::MAX);
        let mut outage_groups: Vec<(f64, f64, Vec<u32>)> = Vec::new();
        for (i, (r, &stage)) in element_rates.iter().zip(stages).enumerate() {
            if !stage || r.outage <= 0.0 {
                continue;
            }
            let q = 1.0 - (1.0 - r.outage).powi(edges);
            match outage_groups.iter_mut().find(|g| g.0 == q) {
                Some(group) => group.2.push(i as u32),
                None => outage_groups.push((q, (1.0 - q).ln(), vec![i as u32])),
            }
        }
        let survive_ln = element_rates
            .iter()
            .map(|r| (1.0 - r.flit_drop).ln())
            .collect();
        let dfs = Dfs::new(plan.dfs);
        Self {
            ctx: FaultCtx {
                outage_bits: vec![0; labels.len().div_ceil(64)],
                domain_bits: Vec::new(),
                frozen_now: vec![0; labels.len().div_ceil(64)],
                frozen_key: (false, Vec::new()),
                freezing: false,
                base: (u64::MAX, tick_base(plan.seed, u64::MAX)),
                drifting: false,
                outage_groups,
                survive_ln,
                element_rates,
                slowdown: dfs.slowdown,
                clock: None,
                domains: Vec::new(),
                plan,
            },
            dfs,
            outstanding: BTreeMap::new(),
            abandoned: BTreeMap::new(),
            timers: BinaryHeap::new(),
            fired: Vec::new(),
            ledger: Ledger::default(),
            injectors: Vec::new(),
            released: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Attaches the clock-tree topology clock-domain faults propagate
    /// through. Without it, clock-domain rates and scheduled outages are
    /// inert (a fabric with no modelled clock tree has no domains to
    /// kill).
    pub(crate) fn set_clock_topology(&mut self, clock: ClockTopology) {
        let words = self.ctx.frozen_now.len();
        let mut bits = vec![vec![0u64; words]; clock.count as usize];
        for (i, &d) in clock.elements.iter().enumerate() {
            if let Some(domain) = bits.get_mut(d as usize) {
                domain[i >> 6] |= 1u64 << (i & 63);
            }
        }
        self.ctx.domain_bits = bits;
        self.ctx.domains = vec![DomainState::default(); clock.count as usize];
        self.ctx.clock = Some(clock);
    }

    /// Records each port's injecting element, where retransmissions for
    /// that port queue.
    pub(crate) fn set_injectors(&mut self, injectors: Vec<u32>) {
        self.injectors = injectors;
    }

    /// The read-only state visits consult.
    pub(crate) fn ctx(&self) -> &FaultCtx {
        &self.ctx
    }

    /// Runs one dense-loop hook against the context and applies the
    /// operations it logged at once. Returns the hook's result and
    /// whether a logged violation made the DFS controller back off.
    pub(crate) fn hook<R>(
        &mut self,
        tick: u64,
        hook: impl FnOnce(&FaultCtx, &mut Vec<FaultOp>) -> R,
    ) -> (R, bool) {
        let mut log = std::mem::take(&mut self.scratch);
        let result = hook(&self.ctx, &mut log);
        let mut backoff = false;
        for op in log.drain(..) {
            backoff |= self.apply(tick, op);
        }
        self.scratch = log;
        (result, backoff)
    }

    /// Applies one logged operation of `tick`. Returns whether it made
    /// the DFS controller back off.
    pub(crate) fn apply(&mut self, tick: u64, op: FaultOp) -> bool {
        match op {
            FaultOp::Injected(kind) => self.ledger.injected.bump(kind),
            FaultOp::Absorbed => self.ledger.absorbed += 1,
            FaultOp::Violation => {
                self.ledger.violations += 1;
                return self.dfs.on_violation(tick);
            }
            FaultOp::Charge(src, seq) => match self.outstanding.get_mut(&(src, seq)) {
                Some(entry) => entry.faults += 1,
                // The flit already resolved (e.g. a stray duplicate copy):
                // harming it cannot harm the payload.
                None => self.ledger.absorbed += 1,
            },
            FaultOp::Injection(flit) => self.register_injection(&flit, tick),
            FaultOp::Corrupt(src, seq) => self.nack((src, seq), tick),
            FaultOp::Duplicate => self.ledger.duplicates_discarded += 1,
            FaultOp::Delivered(src, seq) => {
                let key = (src, seq);
                // The clean delivery acknowledges the flit: every fault
                // charged to it has been recovered.
                if let Some(entry) = self.outstanding.remove(&key) {
                    self.ledger.recovered += entry.faults;
                } else if let Some(faults) = self.abandoned.remove(&key) {
                    // A copy the timeout had already written off arrived
                    // intact after all (it was stalled, not dropped):
                    // reclassify its charges — the loss was never real.
                    self.ledger.lost -= faults;
                    self.ledger.recovered += faults;
                    self.ledger.flits_abandoned -= 1;
                }
            }
            FaultOp::Retransmitted(src, seq) => {
                self.ledger.retransmissions += 1;
                let key = (src, seq);
                let deadline = tick + self.ctx.plan.timeout_edges;
                if let Some(entry) = self.outstanding.get_mut(&key) {
                    // The queue wait may have eaten into the timeout;
                    // re-arm it from the actual injection tick.
                    entry.deadline = deadline;
                    self.arm_timer(key, deadline);
                }
            }
        }
        false
    }

    /// A corrupt arrival of `key`: schedule its retransmission under the
    /// backoff policy, or write it off once the retry budget is spent.
    fn nack(&mut self, key: (u32, u64), tick: u64) {
        self.ledger.corruptions_detected += 1;
        let max_retries = self.ctx.plan.max_retries;
        let Some(entry) = self.outstanding.get(&key) else {
            return;
        };
        if entry.retx_due.is_some() {
            return;
        }
        if entry.attempts >= max_retries {
            let entry = self.outstanding.remove(&key).expect("present");
            self.ledger.lost += entry.faults;
            self.ledger.flits_abandoned += 1;
            self.abandoned.insert(key, entry.faults);
        } else {
            let due = tick + self.backoff_delay(entry.attempts);
            self.outstanding.get_mut(&key).expect("present").retx_due = Some(due);
            self.arm_timer(key, due);
        }
    }

    fn backoff_delay(&self, attempts: u32) -> u64 {
        // Bounded exponential backoff: base << attempts, saturating well
        // below overflow.
        self.ctx
            .plan
            .backoff_base_edges
            .saturating_mul(1u64 << attempts.min(10))
    }

    // ----- clock-domain machinery -----------------------------------------

    /// The quarantined clock domains, in ascending order.
    pub(crate) fn quarantined_domains(&self) -> Vec<u32> {
        self.ctx
            .domains
            .iter()
            .enumerate()
            .filter(|(_, st)| st.quarantined)
            .map(|(d, _)| d as u32)
            .collect()
    }

    /// Pairs a clock-fault injection with its ledger outcome: charge the
    /// first outstanding flit travelling to or from the domain (it becomes
    /// `pending` until delivery resolves it), or absorb the fault when the
    /// subtree carries nothing that can be harmed.
    fn charge_clock_fault(&mut self, domain: u32) {
        let Some(clock) = &self.ctx.clock else {
            self.ledger.absorbed += 1;
            return;
        };
        let in_domain = |port: u32| clock.ports.get(port as usize) == Some(&domain);
        let victim = self
            .outstanding
            .iter_mut()
            .find(|(_, e)| in_domain(e.flit.src.0) || in_domain(e.flit.dest.0));
        match victim {
            Some((_, entry)) => entry.faults += 1,
            None => self.ledger.absorbed += 1,
        }
    }

    /// Starts (or masks) a clock-node outage on `domain` lasting until
    /// `until`. On the redundant-pulse backend a single outage per mask
    /// window is voted away; a second fault inside the window breaks
    /// through and freezes the domain for real.
    fn inject_clock_outage(&mut self, domain: u32, tick: u64, until: u64, backend: ClockBackend) {
        self.ledger.injected.bump(FaultKind::ClockOutage);
        let st = &mut self.ctx.domains[domain as usize];
        if backend == ClockBackend::Redundant && tick >= st.masked_until {
            st.masked_until = until;
            self.ledger.absorbed += 1;
            self.ledger.clock_faults_masked += 1;
        } else {
            st.in_outage = true;
            st.outage_until = until;
            self.charge_clock_fault(domain);
        }
    }

    /// Runs the per-tick clock-domain machinery: scheduled outage windows,
    /// seeded draws (outage / pulse drop / skew drift), the watchdog
    /// heartbeat, and the outage-end re-sync protocol.
    fn clock_step(&mut self, tick: u64) {
        let Some(clock) = &self.ctx.clock else {
            return;
        };
        let count = clock.count;
        let backend = clock.backend;
        let plan = &self.ctx.plan;
        let rates = plan.rates;
        let seed = plan.seed;
        let (watchdog, resync_edges) = (plan.watchdog_threshold, plan.resync_edges);
        let (outage_edges, drift_edges) = (plan.clock_outage_edges, plan.drift_edges);
        let rolling = self.ctx.active(tick)
            && (rates.clock_outage > 0.0 || rates.pulse_drop > 0.0 || rates.skew_drift > 0.0);
        let roll = |d: u32, slot: u64, rate: f64| {
            rate > 0.0 && fires(draw(seed, tick, u64::from(d), slot), rate)
        };
        for d in 0..count {
            // 1. Advance the domain state machine.
            let st = &mut self.ctx.domains[d as usize];
            if st.in_outage && tick >= st.outage_until {
                // The outage window ended: hold the domain through the
                // deterministic re-sync before captures resume.
                st.in_outage = false;
                st.resyncing = true;
                st.resync_until = tick + resync_edges;
            }
            if st.resyncing && tick >= st.resync_until {
                st.resyncing = false;
                st.missed = 0;
                st.quarantined = false;
                self.ledger.resyncs += 1;
            }
            // 2. Watchdog: every frozen edge is a missed capture
            //    heartbeat; at the threshold the subtree is declared lost
            //    (one ClockLoss per outage) and quarantined.
            if st.in_outage {
                st.missed += 1;
                if !st.quarantined && st.missed >= watchdog {
                    st.quarantined = true;
                    self.ledger.clock_loss_events += 1;
                }
            }
            // 3. Scheduled outage windows (deterministic, no draws).
            for k in 0..self.ctx.plan.scheduled_clock_outages.len() {
                let (dom, start, end) = self.ctx.plan.scheduled_clock_outages[k];
                if dom == d && tick == start {
                    self.inject_clock_outage(d, tick, end, backend);
                }
            }
            // 4. Seeded draws. A frozen domain draws nothing: its clock
            //    is already gone.
            if !rolling || self.ctx.domains[d as usize].frozen(tick) {
                continue;
            }
            if roll(d, slot::CLOCK_OUTAGE, rates.clock_outage) {
                let until = tick.saturating_add(outage_edges);
                self.inject_clock_outage(d, tick, until, backend);
            }
            if self.ctx.domains[d as usize].frozen(tick) {
                continue;
            }
            if roll(d, slot::PULSE_DROP, rates.pulse_drop) {
                self.ledger.injected.bump(FaultKind::PulseDrop);
                if backend == ClockBackend::Redundant {
                    // Median of three pulse arrivals: one missing pulse is
                    // simply outvoted.
                    self.ledger.clock_faults_masked += 1;
                } else {
                    // One missing edge: a single-tick stall the two-phase
                    // handshake absorbs by construction.
                    self.ctx.domains[d as usize].frozen_tick = Some(tick);
                }
                self.ledger.absorbed += 1;
            }
            if roll(d, slot::SKEW_DRIFT, rates.skew_drift) {
                if backend == ClockBackend::Redundant {
                    // The median filters one drifting arrival outright.
                    self.ledger.injected.bump(FaultKind::SkewDrift);
                    self.ledger.absorbed += 1;
                    self.ledger.clock_faults_masked += 1;
                } else {
                    // Arm the ramp; each affected capture books its own
                    // SkewDrift instance against the timing guard.
                    let st = &mut self.ctx.domains[d as usize];
                    st.drift_start = tick;
                    st.drift_until = tick.saturating_add(drift_edges);
                }
            }
        }
    }

    /// Element outages come in fixed epochs of `outage_edges` ticks. At
    /// the first injection-window tick of each epoch, draws which stages
    /// the epoch freezes and books each frozen epoch once: an outage only
    /// stalls, so it is absorbed. Each group of stages sharing a freeze
    /// probability `q` is walked with geometric gaps — every member is
    /// frozen independently with probability `q`, at one draw per frozen
    /// member instead of one per stage.
    fn outage_epoch(&mut self, tick: u64) -> bool {
        let ctx = &mut self.ctx;
        let edges = ctx.plan.outage_edges;
        let first = ctx.plan.window.map_or(0, |(start, _)| start);
        if ctx.outage_groups.is_empty()
            || !ctx.active(tick)
            || !(tick.is_multiple_of(edges) || tick == first)
        {
            return false;
        }
        let epoch = tick / edges;
        let seed = ctx.plan.seed;
        let mut frozen = 0u64;
        ctx.outage_bits.fill(0);
        for (g, (_, survive_ln, members)) in ctx.outage_groups.iter().enumerate() {
            let mut next = 0u64;
            for k in 0u64.. {
                let key = (g as u64) << 32 | k;
                next = next
                    .saturating_add(geometric(draw(seed, epoch, key, slot::OUTAGE), *survive_ln));
                let Some(&i) = members.get(next as usize) else {
                    break;
                };
                ctx.outage_bits[i as usize >> 6] |= 1u64 << (i & 63);
                frozen += 1;
                next += 1;
            }
        }
        self.ledger.injected.outage += frozen;
        self.ledger.absorbed += frozen;
        true
    }

    // ----- per-step hooks -------------------------------------------------

    /// Arms the timer queue for `key`'s next scheduled action.
    fn arm_timer(&mut self, key: (u32, u64), due: u64) {
        self.timers.push(Reverse((due, key)));
    }

    /// Runs the per-edge machinery before any visit of `tick`: clock
    /// domains, outage epochs, DFS creep-up bookkeeping (then freezes the
    /// tick's slowdown), acknowledgement timeouts, and retransmission
    /// scheduling. Released retransmissions wait in
    /// [`released`](Self::released) for the stepping loop to queue at
    /// their injectors. Timer wakeups are *enqueued* (a `BTreeSet` keyed
    /// by due tick), so an edge with nothing due costs one head peek
    /// instead of a scan over every un-acknowledged flit.
    pub(crate) fn begin_step(&mut self, tick: u64) {
        self.clock_step(tick);
        let epoch = self.outage_epoch(tick);
        let ctx = &mut self.ctx;
        ctx.base = (tick, tick_base(ctx.plan.seed, tick));
        ctx.refresh_frozen(tick, epoch);
        ctx.drifting = ctx
            .domains
            .iter()
            .any(|d| tick >= d.drift_start && tick < d.drift_until);
        self.dfs.on_edge(tick);
        self.ctx.slowdown = self.dfs.slowdown;
        if self
            .timers
            .peek()
            .is_none_or(|&Reverse((due, _))| due > tick)
        {
            return;
        }
        // Pop every elapsed timer, dropping stale entries (the flit
        // resolved, or was re-armed to a different due tick since).
        let mut fired = std::mem::take(&mut self.fired);
        while let Some(&Reverse((due, key))) = self.timers.peek() {
            if due > tick {
                break;
            }
            self.timers.pop();
            let Some(entry) = self.outstanding.get(&key) else {
                continue;
            };
            if entry.retx_due.unwrap_or(entry.deadline) != due {
                continue;
            }
            fired.push(key);
        }
        // Process in key order, so queue contents (and with them every
        // downstream report) do not depend on timer order.
        fired.sort_unstable();
        fired.dedup();
        let max_retries = self.ctx.plan.max_retries;
        let timeout = self.ctx.plan.timeout_edges;
        let base = self.ctx.plan.backoff_base_edges;
        for key in fired.drain(..) {
            let entry = self.outstanding.get_mut(&key).expect("validated above");
            if entry.retx_due.is_some() {
                // Back-off elapsed: materialise the retransmission.
                entry.attempts += 1;
                entry.retx_due = None;
                entry.deadline = tick + timeout;
                let flit = entry.flit.as_retry(entry.attempts.min(255) as u8);
                let due = entry.deadline;
                let injector = self
                    .injectors
                    .get(key.0 as usize)
                    .copied()
                    .unwrap_or(u32::MAX);
                self.released.push((injector, flit));
                self.arm_timer(key, due);
            } else {
                // No acknowledgement: presume the flit dropped.
                self.ledger.drops_detected += 1;
                if entry.attempts >= max_retries {
                    let entry = self.outstanding.remove(&key).expect("present");
                    self.ledger.lost += entry.faults;
                    self.ledger.flits_abandoned += 1;
                    self.abandoned.insert(key, entry.faults);
                } else {
                    let delay = base.saturating_mul(1u64 << entry.attempts.min(10));
                    entry.retx_due = Some(tick + delay);
                    self.arm_timer(key, tick + delay);
                }
            }
        }
        self.fired = fired;
    }

    /// Drains the retransmissions the last [`begin_step`](Self::begin_step)
    /// released, as `(injecting element, flit)`.
    pub(crate) fn released(&mut self) -> std::vec::Drain<'_, (u32, Flit)> {
        self.released.drain(..)
    }

    /// Registers a freshly injected flit with the acknowledgement tracker.
    fn register_injection(&mut self, flit: &Flit, tick: u64) {
        let key = (flit.src.0, flit.seq);
        let deadline = tick + self.ctx.plan.timeout_edges;
        self.outstanding.insert(
            key,
            Outstanding {
                flit: *flit,
                deadline,
                attempts: 0,
                faults: 0,
                retx_due: None,
            },
        );
        self.arm_timer(key, deadline);
    }

    /// Whether the recovery layer still tracks un-acknowledged flits —
    /// the drain loop keeps stepping while this holds. (Queued
    /// retransmissions sit at their injectors and count as in flight.)
    pub(crate) fn recovery_busy(&self) -> bool {
        !self.outstanding.is_empty()
    }

    /// Fault hazards still unresolved (for drain diagnostics).
    pub(crate) fn pending_hazards(&self) -> u64 {
        self.outstanding.values().map(|e| e.faults).sum()
    }

    /// Diagnostic lines folded into
    /// [`Network::diagnose_stall`](crate::Network::diagnose_stall).
    pub(crate) fn stall_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        if !self.outstanding.is_empty() {
            let next = self
                .outstanding
                .values()
                .map(|e| e.retx_due.unwrap_or(e.deadline))
                .min()
                .expect("non-empty");
            lines.push(format!(
                "recovery tracks {} un-acked flit(s), next action at tick {next}",
                self.outstanding.len()
            ));
        }
        for (d, st) in self.ctx.domains.iter().enumerate() {
            if st.quarantined {
                lines.push(format!(
                    "clock domain {d} quarantined: watchdog raised ClockLoss after \
                     {} missed heartbeat(s), outage until tick {}",
                    st.missed, st.outage_until
                ));
            } else if st.in_outage || st.resyncing {
                lines.push(format!(
                    "clock domain {d} frozen by clock outage (re-sync pending)"
                ));
            }
        }
        lines
    }

    /// Snapshot of the conservation ledger.
    pub(crate) fn report(&self) -> RecoveryReport {
        let ledger = self.ledger;
        RecoveryReport {
            schema_version: RecoveryReport::SCHEMA_VERSION,
            injected: ledger.injected,
            absorbed: ledger.absorbed,
            timing_violations: ledger.violations,
            corruptions_detected: ledger.corruptions_detected,
            drops_detected: ledger.drops_detected,
            duplicates_discarded: ledger.duplicates_discarded,
            retransmissions: ledger.retransmissions,
            recovered: ledger.recovered,
            lost: ledger.lost,
            pending: self.pending_hazards(),
            flits_abandoned: ledger.flits_abandoned,
            backoffs: self.dfs.backoffs,
            creep_ups: self.dfs.creep_ups,
            slowdown: self.dfs.slowdown,
            effective_ghz: self.ctx.plan.frequency.value() / self.dfs.slowdown,
            dfs_locked: self.dfs.locked,
            last_violation_tick: self.dfs.last_violation,
            clock_loss_events: ledger.clock_loss_events,
            clock_faults_masked: ledger.clock_faults_masked,
            resyncs: ledger.resyncs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icnoc_topology::PortId;

    #[test]
    fn rates_validate_and_scale() {
        let soak = FaultRates::soak();
        assert!(!soak.is_zero());
        assert!(FaultRates::ZERO.is_zero());
        let doubled = soak.scaled(2.0);
        assert!((doubled.link_jitter - 2.0 * soak.link_jitter).abs() < 1e-12);
        // Scaling clamps to a probability.
        assert!(soak.scaled(1e9).link_jitter <= 1.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::new(1).with_rates(FaultRates {
            link_jitter: 1.5,
            ..FaultRates::ZERO
        });
    }

    #[test]
    fn plan_defaults_meet_nominal_timing() {
        // The construction assertion must accept the default plan.
        let state = FaultState::new(FaultPlan::soak(7), &["s0", "s1"], &[true, true]);
        assert!(state.report().conserves());
        assert_eq!(state.report().injected.total(), 0);
    }

    #[test]
    fn element_overrides_resolve_by_prefix() {
        let hot = FaultRates {
            bit_corruption: 0.5,
            ..FaultRates::ZERO
        };
        let plan = FaultPlan::new(3).with_element_rates("r0.", hot);
        let state = FaultState::new(plan, &["src0", "r0.mid1", "r1.mid0"], &[false, true, true]);
        assert_eq!(state.ctx().rates(1).bit_corruption, 0.5);
        assert_eq!(state.ctx().rates(0).bit_corruption, 0.0);
        assert_eq!(state.ctx().rates(2).bit_corruption, 0.0);
    }

    #[test]
    fn worst_case_safety_threshold_matches_the_paper_algebra() {
        // nominal_90nm at 1 GHz: setup bound = 500·s − 120; worst Δsum =
        // 150 + 150 + 600 = 900 ⇒ safe iff s ≥ 2.04.
        let plan = FaultPlan::soak(1);
        assert_eq!(plan.worst_case_delta(), Picoseconds::new(900.0));
        assert!(!plan.slowdown_is_safe(1.0));
        assert!(!plan.slowdown_is_safe(2.0));
        assert!(plan.slowdown_is_safe(2.05));
        // Three default backoff steps clear the threshold: 1.3³ ≈ 2.197.
        assert!(plan.slowdown_is_safe(1.3f64.powi(3)));
    }

    #[test]
    fn dfs_backs_off_on_threshold_and_locks_after_failed_probe() {
        let cfg = DfsConfig {
            violation_threshold: 2,
            window_edges: 100,
            backoff_factor: 1.5,
            max_slowdown: 8.0,
            creep_factor: 1.2,
            clean_edges: 50,
        };
        let mut dfs = Dfs::new(cfg);
        assert!(!dfs.on_violation(1));
        assert!(dfs.on_violation(2), "second violation in window backs off");
        assert!((dfs.slowdown - 1.5).abs() < 1e-12);
        // A clean stretch starts a probe at a faster clock (but ends
        // before the probe is adopted as the new known-good point).
        for t in 3..60 {
            dfs.on_edge(t);
        }
        assert!(dfs.probe.is_some());
        assert!(dfs.slowdown < 1.5);
        // A violation during the probe reverts and locks.
        assert!(dfs.on_violation(60));
        assert!((dfs.slowdown - 1.5).abs() < 1e-12);
        assert!(dfs.locked);
        // No further probes, ever.
        for t in 61..1000 {
            dfs.on_edge(t);
        }
        assert!(dfs.probe.is_none());
        assert!((dfs.slowdown - 1.5).abs() < 1e-12);
        // But threshold backoffs stay armed.
        dfs.on_violation(1000);
        assert!(dfs.on_violation(1001));
        assert!((dfs.slowdown - 2.25).abs() < 1e-12);
    }

    #[test]
    fn dfs_probe_survives_a_clean_window_and_is_adopted() {
        let cfg = DfsConfig {
            violation_threshold: 1,
            window_edges: 100,
            backoff_factor: 2.0,
            max_slowdown: 8.0,
            creep_factor: 2.0,
            clean_edges: 10,
        };
        let mut dfs = Dfs::new(cfg);
        assert!(dfs.on_violation(0));
        assert!((dfs.slowdown - 2.0).abs() < 1e-12);
        for t in 1..25 {
            dfs.on_edge(t);
        }
        // Probe started (creep to 1.0) and then adopted after 10 clean
        // edges.
        assert!(dfs.probe.is_none());
        assert!((dfs.slowdown - 1.0).abs() < 1e-12);
        assert_eq!(dfs.creep_ups, 1);
        assert!(!dfs.locked);
    }

    /// Runs the consumer gate of `port` and applies what it logged.
    fn arrive(
        state: &mut FaultState,
        flit: &Flit,
        tick: u64,
        port: u32,
        delivered: &mut HashSet<(u32, u64)>,
    ) -> ArrivalVerdict {
        state
            .hook(tick, |_, log| {
                FaultCtx::on_arrival(flit, PortId(port), delivered, log)
            })
            .0
    }

    #[test]
    fn arrival_gate_acks_nacks_and_dedups() {
        // Backoff base 1 (the minimum): NACKed flits retransmit on the
        // next edge.
        let mut state = FaultState::new(FaultPlan::new(9).with_retry(64, 1, 5), &[], &[]);
        state.set_injectors(vec![7, 8]);
        let mut delivered = HashSet::new();
        let flit = Flit::new(PortId(0), PortId(1), 4, 0);
        state.apply(0, FaultOp::Injection(flit));
        assert!(state.recovery_busy());

        // A corrupt copy is NACKed and discarded.
        let bad = flit.with_corrupted_payload(3);
        assert_eq!(
            arrive(&mut state, &bad, 10, 1, &mut delivered),
            ArrivalVerdict::Corrupt
        );
        assert_eq!(state.report().corruptions_detected, 1);
        // The NACK scheduled a retransmission one backoff edge later, at
        // port 0's injector.
        state.begin_step(11);
        let released: Vec<(u32, Flit)> = state.released().collect();
        let [(injector, retx)] = released[..] else {
            panic!("one retransmission released: {released:?}");
        };
        assert_eq!(injector, 7);
        assert_eq!(retx.seq, 4);
        assert_eq!(retx.retry, 1);
        assert!(retx.crc_ok());
        state.apply(11, FaultOp::Retransmitted(retx.src.0, retx.seq));

        // The clean retransmission delivers and acknowledges.
        assert_eq!(
            arrive(&mut state, &retx, 20, 1, &mut delivered),
            ArrivalVerdict::Deliver
        );
        assert!(!state.recovery_busy());
        // A late duplicate of the same sequence is discarded.
        assert_eq!(
            arrive(&mut state, &flit, 30, 1, &mut delivered),
            ArrivalVerdict::Duplicate
        );
        let report = state.report();
        assert_eq!(report.duplicates_discarded, 1);
        assert_eq!(report.retransmissions, 1);
        assert!(report.conserves());
    }

    #[test]
    fn timeout_drives_bounded_retries_then_explicit_loss() {
        let plan = FaultPlan::new(5)
            .with_retry(10, 2, 2)
            .with_rates(FaultRates {
                flit_drop: 1.0,
                ..FaultRates::ZERO
            });
        let mut state = FaultState::new(plan, &["s0"], &[true]);
        let flit = Flit::new(PortId(2), PortId(3), 0, 0);
        state.apply(0, FaultOp::Injection(flit));
        // At rate 1 the upset fires on the latching edge itself.
        assert_eq!(state.ctx().upset_tick(0, 0, &flit), 0);
        state.hook(0, |_, log| FaultCtx::held_drop(&flit, log));

        let mut retransmissions = 0;
        for tick in 0..200 {
            state.begin_step(tick);
            for (_, retx) in state.released().collect::<Vec<_>>() {
                state.apply(tick, FaultOp::Retransmitted(retx.src.0, retx.seq));
                retransmissions += 1;
            }
            if !state.recovery_busy() {
                break;
            }
        }
        assert_eq!(retransmissions, 2, "retry budget is respected");
        let report = state.report();
        assert_eq!(
            report.drops_detected, 3,
            "initial timeout + 2 retry timeouts"
        );
        assert_eq!(report.flits_abandoned, 1);
        assert_eq!(report.lost, 1);
        assert_eq!(report.pending, 0);
        assert!(report.conserves());
        assert!(!state.recovery_busy());
    }

    #[test]
    fn misroutes_bypass_the_gate() {
        let mut state = FaultState::new(FaultPlan::new(11), &[], &[]);
        let flit = Flit::new(PortId(0), PortId(1), 0, 0);
        // Arriving at the wrong port: the gate defers to the scoreboard.
        assert_eq!(
            arrive(&mut state, &flit, 0, 2, &mut HashSet::new()),
            ArrivalVerdict::Deliver
        );
        assert_eq!(state.report().corruptions_detected, 0);
    }

    #[test]
    fn draws_are_pure_functions_of_their_key() {
        for key in [
            (0, 0, 0, 0),
            (7, 123_456, 42, slot::SPIKE),
            (u64::MAX, 1, 3, 15),
        ] {
            let (seed, tick, element, s) = key;
            assert_eq!(draw(seed, tick, element, s), draw(seed, tick, element, s));
        }
        // Every coordinate of the key moves the draw.
        let base = draw(1, 2, 3, 4);
        assert_ne!(base, draw(9, 2, 3, 4));
        assert_ne!(base, draw(1, 9, 3, 4));
        assert_ne!(base, draw(1, 2, 9, 4));
        assert_ne!(base, draw(1, 2, 3, 5));
    }

    #[test]
    fn two_slots_of_one_key_are_independent() {
        // Joint firing of two slots at p = 0.5 must match the product of
        // the marginals (0.25) within 4σ over many keys.
        let n = 200_000u64;
        let (mut a, mut b, mut both) = (0u64, 0u64, 0u64);
        for tick in 0..n {
            let x = fires(draw(3, tick, 17, slot::SPIKE), 0.5);
            let y = fires(draw(3, tick, 17, slot::SPIKE_SIGN), 0.5);
            a += u64::from(x);
            b += u64::from(y);
            both += u64::from(x && y);
        }
        let (pa, pb) = (a as f64 / n as f64, b as f64 / n as f64);
        let expected = pa * pb;
        let sigma = (expected * (1.0 - expected) / n as f64).sqrt();
        let joint = both as f64 / n as f64;
        assert!(
            (joint - expected).abs() < 4.0 * sigma,
            "joint {joint} vs product {expected}"
        );
    }

    #[test]
    fn empirical_rates_match_within_four_sigma() {
        let n = 1_000_000u64;
        for p in [0.0005, 0.01, 0.5] {
            let hits = (0..n)
                .filter(|&k| fires(draw(11, k / 64, k % 64, slot::OUTAGE), p))
                .count() as f64;
            let sigma = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (hits - n as f64 * p).abs() < 4.0 * sigma,
                "p={p}: {hits} hits in {n} draws"
            );
        }
    }

    #[test]
    fn a_zero_rate_never_fires() {
        assert!(!fires(0, 0.0));
        assert!(!fires(u64::MAX, 0.0));
        assert!((0..100_000u64).all(|k| !fires(draw(5, k, k, slot::CORRUPT), 0.0)));
        let state = FaultState::new(FaultPlan::new(5), &["s0"], &[true]);
        let flit = Flit::new(PortId(0), PortId(1), 0, 0);
        assert_eq!(state.ctx().upset_tick(0, 10, &flit), u64::MAX);
    }

    #[test]
    fn outage_epochs_freeze_whole_epochs_and_book_once() {
        // Rate 1: every epoch freezes the stage, and each epoch books one
        // outage however many of its ticks run.
        let plan = FaultPlan::new(1)
            .with_outage_edges(4)
            .with_rates(FaultRates {
                outage: 1.0,
                ..FaultRates::ZERO
            });
        let mut state = FaultState::new(plan, &["s0", "src0"], &[true, false]);
        for tick in 0..10 {
            state.begin_step(tick);
            assert!(state.ctx().frozen(0, tick));
            assert!(!state.ctx().frozen(1, tick), "only stages freeze");
        }
        // Ticks 0..10 touch epochs 0, 1 and 2.
        let report = state.report();
        assert_eq!(report.injected.outage, 3);
        assert!(report.conserves());
    }

    #[test]
    fn recovery_report_displays_the_ledger() {
        let state = FaultState::new(FaultPlan::new(2), &[], &[]);
        let text = state.report().to_string();
        assert!(text.contains("faults injected"));
        assert!(text.contains("conserves: true"));
        assert!(text.contains("dfs:"));
    }
}
