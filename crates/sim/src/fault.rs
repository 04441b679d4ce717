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
//!    glitches, and transient element outages, at one set of rates for
//!    every element, optionally restricted to a tick window.
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
use std::collections::{HashSet, VecDeque};

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
    /// Outage per stage edge: each epoch of 16 ticks freezes a stage with
    /// probability `1 − (1 − outage)^16`.
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
struct DfsConfig {
    /// Timing violations within [`window_edges`](Self::window_edges) that
    /// trigger one backoff step.
    violation_threshold: u32,
    /// Length of the violation-counting window, in half-cycle edges.
    window_edges: u64,
    /// Multiplier applied to the slowdown per backoff step (> 1).
    backoff_factor: f64,
    /// Ceiling on the slowdown (the floor on frequency).
    max_slowdown: f64,
    /// Divisor applied when creeping back up after a clean stretch (> 1).
    creep_factor: f64,
    /// Violation-free edges required before a creep-up probe.
    clean_edges: u64,
}

/// The DFS controller every plan runs.
const DFS: DfsConfig = DfsConfig {
    violation_threshold: 3,
    window_edges: 512,
    backoff_factor: 1.3,
    max_slowdown: 8.0,
    creep_factor: 1.15,
    clean_edges: 2000,
};

/// Peak jitter excursion magnitude (uniform in `±JITTER_MAX_PS`).
const JITTER_MAX_PS: f64 = 120.0;
/// Skew-spike magnitude range in ps, `[SPIKE_MIN_PS, SPIKE_MAX_PS)` (the
/// sign is random).
const SPIKE_MIN_PS: f64 = 200.0;
const SPIKE_MAX_PS: f64 = 600.0;
/// Ticks in one element-outage epoch.
const OUTAGE_EDGES: u64 = 16;
/// Edges a rolled clock-node outage lasts.
const CLOCK_OUTAGE_EDGES: u64 = 64;
/// Missed heartbeats (frozen edges) before the per-subtree watchdog
/// raises `ClockLoss` and quarantines the domain.
const WATCHDOG_THRESHOLD: u64 = 8;
/// Edges the deterministic re-sync protocol holds a domain frozen after
/// its outage window ends, before captures resume.
const RESYNC_EDGES: u64 = 8;
/// Edges a skew-drift ramp lasts.
const DRIFT_EDGES: u64 = 256;
/// Peak skew excursion in ps a drift ramp reaches at its end.
const DRIFT_MAX_PS: f64 = 300.0;
/// Edges without acknowledgement before a flit is presumed dropped.
const TIMEOUT_EDGES: u64 = 512;
/// Base retransmission delay; doubles per attempt (bounded exponential
/// backoff).
const BACKOFF_BASE_EDGES: u64 = 32;
/// Retransmissions per flit before declaring it an explicit loss.
const MAX_RETRIES: u32 = 5;

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
    /// Injection restricted to ticks in `[start, end)`, if set.
    window: Option<(u64, u64)>,
    seed: u64,
    /// Deterministic clock-outage windows: `(domain, start, end)` in
    /// half-cycle ticks (`end == u64::MAX` models a permanent outage).
    scheduled_clock_outages: Vec<(u32, u64, u64)>,
    /// Nominal per-hop wire delays the guard perturbs.
    data_delay: Picoseconds,
    clock_delay: Picoseconds,
    /// Nominal clock the DFS controller derates.
    frequency: Gigahertz,
    flip_flop: FlipFlopTiming,
}

impl FaultPlan {
    /// A plan with all-zero rates and default timing/recovery parameters:
    /// 1 GHz nominal clock, the paper's 90 nm register library, matched
    /// 150 ps data/clock wires per hop.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rates: FaultRates::ZERO,
            window: None,
            seed,
            scheduled_clock_outages: Vec::new(),
            data_delay: Picoseconds::new(150.0),
            clock_delay: Picoseconds::new(150.0),
            frequency: Gigahertz::new(1.0),
            flip_flop: FlipFlopTiming::nominal_90nm(),
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

    /// Whether a `slowdown` derating is safe against every excursion this
    /// plan can inject: both link directions' [`Direction::corners`] of the
    /// guard's data interval `[max(d − e, 0), d + e]` against the clock `c`.
    /// Such a slowdown silences the guard for good — the DFS target.
    #[must_use]
    pub fn slowdown_is_safe(&self, slowdown: f64) -> bool {
        let link = LinkTiming::new(self.flip_flop, self.frequency).derated(slowdown);
        let (nominal, e) = (self.data_delay, max_excursion());
        let data = ((nominal - e).max(Picoseconds::ZERO), nominal + e);
        let clock = (self.clock_delay, self.clock_delay);
        Direction::ALL.into_iter().all(|dir| {
            let corners = dir.corners(data, clock);
            corners.iter().all(|&(d, c)| link.check(dir, d, c).is_ok())
        })
    }
}

/// The largest delay excursion a jitter or spike draw can produce.
fn max_excursion() -> Picoseconds {
    Picoseconds::new(SPIKE_MAX_PS.max(JITTER_MAX_PS))
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

/// The identity of a tracked flit: `(source port, sequence)`.
type FlitKey = (u32, u64);

/// One source port's un-acknowledged flits, indexed by `seq - base`.
/// Sequence numbers are consecutive per source, so the window spans only
/// the sequences from its oldest to its newest tracked flit; resolved
/// slots at either end are trimmed away. Flits resolve out of order, so
/// a window also spans resolved sequences; boxing the entries keeps such
/// a hole at one pointer.
#[derive(Debug, Clone, Default)]
struct SeqWindow {
    /// Sequence number of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<Box<Outstanding>>>,
}

impl SeqWindow {
    fn index(&self, seq: u64) -> Option<usize> {
        let k = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (k < self.slots.len()).then_some(k)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Outstanding> {
        let k = self.index(seq)?;
        self.slots[k].as_deref_mut()
    }

    /// Tracks `entry` under `seq`, replacing any entry already there.
    /// Returns whether `seq` was untracked.
    fn insert(&mut self, seq: u64, entry: Outstanding) -> bool {
        if self.slots.is_empty() {
            self.base = seq;
        }
        while seq < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let k = usize::try_from(seq - self.base).expect("window fits in memory");
        if k >= self.slots.len() {
            self.slots.resize_with(k + 1, || None);
        }
        self.slots[k].replace(Box::new(entry)).is_none()
    }

    fn remove(&mut self, seq: u64) -> Option<Outstanding> {
        let k = self.index(seq)?;
        let entry = *self.slots[k].take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(entry)
    }
}

/// The recovery layer's un-acknowledged flits: one [`SeqWindow`] per
/// source port, so every lookup is two indexings. Walking the ports, then
/// each window, visits the flits in `(source, sequence)` order.
#[derive(Debug, Clone, Default)]
struct Tracker {
    ports: Vec<SeqWindow>,
    len: usize,
}

impl Tracker {
    fn get_mut(&mut self, (src, seq): FlitKey) -> Option<&mut Outstanding> {
        self.ports.get_mut(src as usize)?.get_mut(seq)
    }

    fn insert(&mut self, (src, seq): FlitKey, entry: Outstanding) {
        let port = src as usize;
        if port >= self.ports.len() {
            self.ports.resize_with(port + 1, SeqWindow::default);
        }
        self.len += usize::from(self.ports[port].insert(seq, entry));
    }

    fn remove(&mut self, (src, seq): FlitKey) -> Option<Outstanding> {
        let entry = self.ports.get_mut(src as usize)?.remove(seq)?;
        self.len -= 1;
        Some(entry)
    }

    fn iter(&self) -> impl Iterator<Item = &Outstanding> {
        self.ports
            .iter()
            .flat_map(|w| w.slots.iter().flatten().map(|e| &**e))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Outstanding> {
        self.ports
            .iter_mut()
            .flat_map(|w| w.slots.iter_mut().flatten().map(|e| &mut **e))
    }
}

/// Flits written off as lost, with their charged faults: per source
/// port, a list sorted by sequence. Write-offs are rare and never expire
/// (a stalled copy may still arrive), so a sparse list beats a window.
#[derive(Debug, Clone, Default)]
struct WrittenOff {
    ports: Vec<Vec<(u64, u64)>>,
}

impl WrittenOff {
    fn insert(&mut self, (src, seq): FlitKey, faults: u64) {
        let port = src as usize;
        if port >= self.ports.len() {
            self.ports.resize_with(port + 1, Vec::new);
        }
        let list = &mut self.ports[port];
        match list.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(k) => list[k].1 = faults,
            Err(k) => list.insert(k, (seq, faults)),
        }
    }

    fn remove(&mut self, (src, seq): FlitKey) -> Option<u64> {
        let list = self.ports.get_mut(src as usize)?;
        let k = list.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        Some(list.remove(k).1)
    }
}

/// Slots of the [`TimerWheel`]: the power of two at or above the longest
/// delay the recovery layer arms routinely (the acknowledgement timeout),
/// so nearly every timer is swept exactly once, on its due tick.
const WHEEL_SLOTS: usize = TIMEOUT_EDGES.next_power_of_two() as usize;

/// Acknowledgement deadlines and scheduled retransmissions, as
/// `(due tick, key)` entries hashed into slot `due mod WHEEL_SLOTS`.
/// Sweeping a tick visits its one slot and takes the entries due by then;
/// an entry due a turn or more later stays in its slot until its turn.
/// Entries are validated lazily against the live [`Outstanding`] state,
/// so re-arming simply adds a fresh entry and lets the stale one fizzle
/// when swept.
#[derive(Debug, Clone)]
struct TimerWheel {
    slots: Vec<Vec<(u64, FlitKey)>>,
    /// The first tick not yet swept.
    next: u64,
}

impl TimerWheel {
    fn new() -> Self {
        Self {
            slots: vec![Vec::new(); WHEEL_SLOTS],
            next: 0,
        }
    }

    fn arm(&mut self, key: FlitKey, due: u64) {
        debug_assert!(due >= self.next, "timer armed in the past");
        self.slots[due as usize % WHEEL_SLOTS].push((due, key));
    }

    /// Moves every entry due at or before `tick` into `fired`, sweeping
    /// each tick since the last sweep (at most one turn of slots).
    fn sweep(&mut self, tick: u64, fired: &mut Vec<(u64, FlitKey)>) {
        let from = self.next.max((tick + 1).saturating_sub(WHEEL_SLOTS as u64));
        for t in from..=tick {
            let slot = &mut self.slots[t as usize % WHEEL_SLOTS];
            let mut k = 0;
            while k < slot.len() {
                if slot[k].0 <= tick {
                    fired.push(slot.swap_remove(k));
                } else {
                    k += 1;
                }
            }
            // Slots fill at different ticks: a kept buffer per slot
            // would hold the sum of their peaks.
            if slot.is_empty() {
                *slot = Vec::new();
            }
        }
        self.next = self.next.max(tick + 1);
    }
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
    // `1 − u` lies in (0, 1], so the logarithm is finite or zero and the
    // quotient is never negative: the cast truncates it as `floor` would.
    let u = 1.0 - unit(h);
    (u.ln() / survive_ln) as u64
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

/// The fault state every visit reads: the plan, this epoch's element
/// outages, the DFS slowdown at the start of the tick and the
/// clock-domain states. Only [`FaultState::begin_step`] writes it,
/// between ticks, so shards read it without locks.
#[derive(Debug, Clone)]
pub(crate) struct FaultCtx {
    plan: FaultPlan,
    /// `ln(1 − flit_drop)`, the scale of the geometric upset draw.
    survive_ln: f64,
    /// The stages an outage epoch can freeze, with `ln(1 − q)` for their
    /// per-epoch freeze probability `q = 1 − (1 − outage)^OUTAGE_EDGES`.
    /// No stages at a zero outage rate.
    outage_stages: (f64, Vec<u32>),
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
    /// Per domain and tick parity, the ticks so far on which the domain
    /// was frozen. A generator sleeping through a stall reads its
    /// domain's count when it falls asleep and again when it wakes: the
    /// difference is the frozen edges it slept through, which count no
    /// stall.
    frozen_edges: Vec<[u64; 2]>,
}

impl FaultCtx {
    fn active(&self, tick: u64) -> bool {
        self.plan
            .window
            .is_none_or(|(start, end)| tick >= start && tick < end)
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

    /// The ticks of parity `parity` on which element `i`'s clock domain
    /// has been frozen so far, up to the current tick (zero outside any
    /// domain). A traffic generator is never an outage-epoch member, so
    /// this counts every freeze it can see.
    #[inline]
    pub(crate) fn frozen_edges(&self, i: usize, parity: usize) -> u64 {
        self.clock
            .as_ref()
            .and_then(|c| c.elements.get(i))
            .and_then(|&d| self.frozen_edges.get(d as usize))
            .map_or(0, |count| count[parity])
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
        if self.roll(tick, i, slot::STUCK_VALID, self.plan.rates.stuck_valid) {
            log.push(FaultOp::Injected(FaultKind::StuckValid));
            log.push(FaultOp::Charge(flit.src.0, flit.seq));
            return true;
        }
        false
    }

    /// Whether element `i`'s incoming `valid` glitches away on an edge
    /// where it could capture.
    pub(crate) fn lost_valid(&self, i: usize, tick: u64, log: &mut Vec<FaultOp>) -> bool {
        if self.active(tick) && self.roll(tick, i, slot::LOST_VALID, self.plan.rates.lost_valid) {
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
        let rates = self.plan.rates;
        let excursion = if let Some(drift) = self.drift_excursion(i, tick) {
            // An armed skew-drift ramp books one instance per capture it
            // degrades; the timing guard decides whether each survives.
            log.push(FaultOp::Injected(FaultKind::SkewDrift));
            Some(drift)
        } else if self.roll(tick, i, slot::SPIKE, rates.skew_spike) {
            log.push(FaultOp::Injected(FaultKind::SkewSpike));
            let u = unit(self.draw(tick, i, slot::SPIKE_MAGNITUDE));
            let magnitude = SPIKE_MIN_PS + u * (SPIKE_MAX_PS - SPIKE_MIN_PS);
            let sign = if fires(self.draw(tick, i, slot::SPIKE_SIGN), 0.5) {
                1.0
            } else {
                -1.0
            };
            Some(Picoseconds::new(sign * magnitude))
        } else if self.roll(tick, i, slot::JITTER, rates.link_jitter) {
            log.push(FaultOp::Injected(FaultKind::LinkJitter));
            let u = unit(self.draw(tick, i, slot::JITTER_MAGNITUDE));
            Some(Picoseconds::new(JITTER_MAX_PS * (2.0 * u - 1.0)))
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
        if self.plan.rates.flit_drop <= 0.0 || flit.kind == FlitKind::Head {
            return u64::MAX;
        }
        let edges = geometric(self.draw(tick, i, slot::FLIT_DROP), self.survive_ln);
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
            let ramp = (tick - st.drift_start + 1) as f64 / DRIFT_EDGES as f64;
            Some(Picoseconds::new(DRIFT_MAX_PS * ramp))
        } else {
            None
        }
    }
}

/// Live fault-injection/recovery state attached to a network.
///
/// Every collection iterates in an order fixed by its keys — source port,
/// then sequence, for the tracked flits; timer keys are sorted before they
/// act — so same-seed runs are bit-identical across processes.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    ctx: FaultCtx,
    dfs: Dfs,
    /// Un-acknowledged flits keyed by `(source port, sequence)`.
    outstanding: Tracker,
    /// Flits written off as lost, with their charged faults — kept so a
    /// copy that arrives intact *after* the write-off can be reclassified
    /// as recovered instead of staying a phantom loss.
    abandoned: WrittenOff,
    /// Every pending acknowledgement deadline and scheduled
    /// retransmission. [`begin_step`] sweeps one slot per edge instead of
    /// polling the whole `outstanding` table.
    ///
    /// [`begin_step`]: FaultState::begin_step
    timers: TimerWheel,
    /// Scratch for the timers that fire on one edge.
    fired: Vec<(u64, FlitKey)>,
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
    /// Builds the live state for a network with one `stages` entry per
    /// element, marking the elements element outages can freeze.
    ///
    /// # Panics
    ///
    /// Panics if the plan's *nominal* link delays violate timing at its
    /// nominal frequency — faults must be excursions from a working
    /// design, not a broken baseline.
    pub(crate) fn new(plan: FaultPlan, stages: &[bool]) -> Self {
        let link = LinkTiming::new(plan.flip_flop, plan.frequency);
        for dir in [Direction::Downstream, Direction::Upstream] {
            assert!(
                link.check(dir, plan.data_delay, plan.clock_delay).is_ok(),
                "fault plan's nominal link delays must meet timing at the nominal \
                 frequency ({dir:?} fails); fix delays/frequency before injecting faults"
            );
        }
        let outage = plan.rates.outage;
        let q = 1.0 - (1.0 - outage).powi(OUTAGE_EDGES as i32);
        let members = if outage > 0.0 {
            (0..stages.len() as u32)
                .filter(|&i| stages[i as usize])
                .collect()
        } else {
            Vec::new()
        };
        let words = stages.len().div_ceil(64);
        let dfs = Dfs::new(DFS);
        Self {
            ctx: FaultCtx {
                outage_bits: vec![0; words],
                domain_bits: Vec::new(),
                frozen_now: vec![0; words],
                frozen_key: (false, Vec::new()),
                freezing: false,
                base: (u64::MAX, tick_base(plan.seed, u64::MAX)),
                drifting: false,
                outage_stages: ((1.0 - q).ln(), members),
                survive_ln: (1.0 - plan.rates.flit_drop).ln(),
                slowdown: dfs.slowdown,
                clock: None,
                domains: Vec::new(),
                frozen_edges: Vec::new(),
                plan,
            },
            dfs,
            outstanding: Tracker::default(),
            abandoned: WrittenOff::default(),
            timers: TimerWheel::new(),
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
        self.ctx.frozen_edges = vec![[0; 2]; clock.count as usize];
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
            FaultOp::Charge(src, seq) => match self.outstanding.get_mut((src, seq)) {
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
                if let Some(entry) = self.outstanding.remove(key) {
                    self.ledger.recovered += entry.faults;
                } else if let Some(faults) = self.abandoned.remove(key) {
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
                let deadline = tick + TIMEOUT_EDGES;
                if let Some(entry) = self.outstanding.get_mut(key) {
                    // The queue wait may have eaten into the timeout;
                    // re-arm it from the actual injection tick.
                    entry.deadline = deadline;
                    self.timers.arm(key, deadline);
                }
            }
        }
        false
    }

    /// A corrupt arrival of `key`: schedule its retransmission under the
    /// backoff policy, or write it off once the retry budget is spent.
    fn nack(&mut self, key: FlitKey, tick: u64) {
        self.ledger.corruptions_detected += 1;
        if self
            .outstanding
            .get_mut(key)
            .is_some_and(|entry| entry.retx_due.is_none())
        {
            self.retry_or_abandon(key, tick);
        }
    }

    /// The one retry decision, for a NACK and a timeout alike: schedule
    /// the tracked flit `key`'s retransmission after a bounded exponential
    /// backoff (`BACKOFF_BASE_EDGES << attempts`, saturating well below
    /// overflow), or write it off once it has spent [`MAX_RETRIES`].
    fn retry_or_abandon(&mut self, key: FlitKey, tick: u64) {
        let entry = self.outstanding.get_mut(key).expect("tracked");
        if entry.attempts >= MAX_RETRIES {
            let faults = entry.faults;
            self.outstanding.remove(key);
            self.ledger.lost += faults;
            self.ledger.flits_abandoned += 1;
            self.abandoned.insert(key, faults);
        } else {
            let due = tick + BACKOFF_BASE_EDGES.saturating_mul(1u64 << entry.attempts.min(10));
            entry.retx_due = Some(due);
            self.timers.arm(key, due);
        }
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
            .find(|e| in_domain(e.flit.src.0) || in_domain(e.flit.dest.0));
        match victim {
            Some(entry) => entry.faults += 1,
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
                st.resync_until = tick + RESYNC_EDGES;
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
                if !st.quarantined && st.missed >= WATCHDOG_THRESHOLD {
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
                let until = tick.saturating_add(CLOCK_OUTAGE_EDGES);
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
                    st.drift_until = tick.saturating_add(DRIFT_EDGES);
                }
            }
        }
    }

    /// Element outages come in fixed epochs of [`OUTAGE_EDGES`] ticks. At
    /// the first injection-window tick of each epoch, draws which stages
    /// the epoch freezes and books each frozen epoch once: an outage only
    /// stalls, so it is absorbed. The stages are walked with geometric
    /// gaps — every stage is frozen independently with probability `q`,
    /// at one draw per frozen stage instead of one per stage.
    fn outage_epoch(&mut self, tick: u64) -> bool {
        let ctx = &mut self.ctx;
        let first = ctx.plan.window.map_or(0, |(start, _)| start);
        let (survive_ln, members) = &ctx.outage_stages;
        if members.is_empty()
            || !ctx.active(tick)
            || !(tick.is_multiple_of(OUTAGE_EDGES) || tick == first)
        {
            return false;
        }
        let epoch = tick / OUTAGE_EDGES;
        let seed = ctx.plan.seed;
        let mut frozen = 0u64;
        ctx.outage_bits.fill(0);
        let mut next = 0u64;
        for k in 0u64.. {
            next = next.saturating_add(geometric(draw(seed, epoch, k, slot::OUTAGE), *survive_ln));
            let Some(&i) = members.get(next as usize) else {
                break;
            };
            ctx.outage_bits[i as usize >> 6] |= 1u64 << (i & 63);
            frozen += 1;
            next += 1;
        }
        self.ledger.injected.outage += frozen;
        self.ledger.absorbed += frozen;
        true
    }

    // ----- per-step hooks -------------------------------------------------

    /// Runs the per-edge machinery before any visit of `tick`: clock
    /// domains, outage epochs, DFS creep-up bookkeeping (then freezes the
    /// tick's slowdown), acknowledgement timeouts, and retransmission
    /// scheduling. Released retransmissions wait in
    /// [`released`](Self::released) for the stepping loop to queue at
    /// their injectors. Timers sit in a wheel, so an edge sweeps one slot
    /// instead of scanning every un-acknowledged flit.
    pub(crate) fn begin_step(&mut self, tick: u64) {
        self.clock_step(tick);
        let epoch = self.outage_epoch(tick);
        let ctx = &mut self.ctx;
        ctx.base = (tick, tick_base(ctx.plan.seed, tick));
        ctx.refresh_frozen(tick, epoch);
        let parity = (tick % 2) as usize;
        for (d, count) in ctx.domains.iter().zip(&mut ctx.frozen_edges) {
            count[parity] += u64::from(d.frozen(tick));
        }
        ctx.drifting = ctx
            .domains
            .iter()
            .any(|d| tick >= d.drift_start && tick < d.drift_until);
        self.dfs.on_edge(tick);
        self.ctx.slowdown = self.dfs.slowdown;
        // Sweep the elapsed timers, dropping stale entries (the flit
        // resolved, or was re-armed to a different due tick since).
        let mut fired = std::mem::take(&mut self.fired);
        self.timers.sweep(tick, &mut fired);
        let outstanding = &mut self.outstanding;
        fired.retain(|&(due, key)| {
            outstanding
                .get_mut(key)
                .is_some_and(|entry| entry.retx_due.unwrap_or(entry.deadline) == due)
        });
        // Process in key order, so queue contents (and with them every
        // downstream report) do not depend on timer order.
        fired.sort_unstable_by_key(|&(_, key)| key);
        fired.dedup_by_key(|&mut (_, key)| key);
        for (_, key) in fired.drain(..) {
            let entry = self.outstanding.get_mut(key).expect("validated above");
            if entry.retx_due.is_some() {
                // Back-off elapsed: materialise the retransmission.
                entry.attempts += 1;
                entry.retx_due = None;
                entry.deadline = tick + TIMEOUT_EDGES;
                let flit = entry.flit.as_retry(entry.attempts.min(255) as u8);
                let due = entry.deadline;
                let injector = self
                    .injectors
                    .get(key.0 as usize)
                    .copied()
                    .unwrap_or(u32::MAX);
                self.released.push((injector, flit));
                self.timers.arm(key, due);
            } else {
                // No acknowledgement: presume the flit dropped.
                self.ledger.drops_detected += 1;
                self.retry_or_abandon(key, tick);
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
        let deadline = tick + TIMEOUT_EDGES;
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
        self.timers.arm(key, deadline);
    }

    /// Whether the recovery layer still tracks un-acknowledged flits —
    /// the drain loop keeps stepping while this holds. (Queued
    /// retransmissions sit at their injectors and count as in flight.)
    pub(crate) fn recovery_busy(&self) -> bool {
        self.outstanding.len > 0
    }

    /// Fault hazards still unresolved (for drain diagnostics).
    pub(crate) fn pending_hazards(&self) -> u64 {
        self.outstanding.iter().map(|e| e.faults).sum()
    }

    /// Diagnostic lines folded into
    /// [`Network::diagnose_stall`](crate::Network::diagnose_stall).
    pub(crate) fn stall_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        if self.outstanding.len > 0 {
            let next = self
                .outstanding
                .iter()
                .map(|e| e.retx_due.unwrap_or(e.deadline))
                .min()
                .expect("non-empty");
            lines.push(format!(
                "recovery tracks {} un-acked flit(s), next action at tick {next}",
                self.outstanding.len
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
        let state = FaultState::new(FaultPlan::soak(7), &[true, true]);
        assert!(state.report().conserves());
        assert_eq!(state.report().injected.total(), 0);
    }

    #[test]
    fn worst_case_safety_threshold_matches_the_paper_algebra() {
        // nominal_90nm at 1 GHz: setup bound = 500·s − 120; worst Δsum =
        // (150 + 600) + 150 = 900 ⇒ T_half > 1020 ps ⇒ safe iff s ≥ 2.04.
        let plan = FaultPlan::soak(1);
        let required = LinkTiming::required_half_period(plan.flip_flop, Picoseconds::new(900.0));
        assert_eq!(required, Picoseconds::new(1020.0));
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
        let mut state = FaultState::new(FaultPlan::new(9), &[]);
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
        // The NACK scheduled a retransmission one base backoff later, at
        // port 0's injector.
        let due = 10 + BACKOFF_BASE_EDGES;
        for tick in 11..due {
            state.begin_step(tick);
            assert_eq!(state.released().count(), 0, "backing off at {tick}");
        }
        state.begin_step(due);
        let released: Vec<(u32, Flit)> = state.released().collect();
        let [(injector, retx)] = released[..] else {
            panic!("one retransmission released: {released:?}");
        };
        assert_eq!(injector, 7);
        assert_eq!(retx.seq, 4);
        assert_eq!(retx.retry, 1);
        assert!(retx.crc_ok());
        state.apply(due, FaultOp::Retransmitted(retx.src.0, retx.seq));

        // The clean retransmission delivers and acknowledges.
        assert_eq!(
            arrive(&mut state, &retx, due + 10, 1, &mut delivered),
            ArrivalVerdict::Deliver
        );
        assert!(!state.recovery_busy());
        // A late duplicate of the same sequence is discarded.
        assert_eq!(
            arrive(&mut state, &flit, due + 20, 1, &mut delivered),
            ArrivalVerdict::Duplicate
        );
        let report = state.report();
        assert_eq!(report.duplicates_discarded, 1);
        assert_eq!(report.retransmissions, 1);
        assert!(report.conserves());
    }

    #[test]
    fn timeout_drives_bounded_retries_then_explicit_loss() {
        let plan = FaultPlan::new(5).with_rates(FaultRates {
            flit_drop: 1.0,
            ..FaultRates::ZERO
        });
        let mut state = FaultState::new(plan, &[true]);
        let flit = Flit::new(PortId(2), PortId(3), 0, 0);
        state.apply(0, FaultOp::Injection(flit));
        // At rate 1 the upset fires on the latching edge itself.
        assert_eq!(state.ctx().upset_tick(0, 0, &flit), 0);
        state.hook(0, |_, log| FaultCtx::held_drop(&flit, log));

        // Each attempt waits out the timeout, then its backoff.
        let budget: u64 = (0..MAX_RETRIES)
            .map(|a| TIMEOUT_EDGES + (BACKOFF_BASE_EDGES << a))
            .sum::<u64>()
            + TIMEOUT_EDGES;
        let mut retransmissions = 0;
        for tick in 0..=budget {
            state.begin_step(tick);
            for (_, retx) in state.released().collect::<Vec<_>>() {
                state.apply(tick, FaultOp::Retransmitted(retx.src.0, retx.seq));
                retransmissions += 1;
            }
            if !state.recovery_busy() {
                break;
            }
        }
        assert_eq!(retransmissions, MAX_RETRIES, "retry budget is respected");
        let report = state.report();
        assert_eq!(
            report.drops_detected,
            u64::from(MAX_RETRIES) + 1,
            "initial timeout + one per retry"
        );
        assert_eq!(report.flits_abandoned, 1);
        assert_eq!(report.lost, 1);
        assert_eq!(report.pending, 0);
        assert!(report.conserves());
        assert!(!state.recovery_busy());
    }

    #[test]
    fn a_retry_longer_than_one_wheel_turn_fires_on_its_due_tick() {
        let mut state = FaultState::new(FaultPlan::new(3), &[]);
        state.set_injectors(vec![5]);
        state.apply(0, FaultOp::Injection(Flit::new(PortId(0), PortId(1), 0, 0)));
        // The longest backoff the policy can arm spans many wheel turns.
        let due = BACKOFF_BASE_EDGES << 10;
        assert!(due > WHEEL_SLOTS as u64);
        let key = (0, 0);
        state.outstanding.get_mut(key).expect("tracked").retx_due = Some(due);
        state.timers.arm(key, due);
        for tick in 1..due {
            state.begin_step(tick);
            assert_eq!(state.released().count(), 0, "released early at {tick}");
        }
        state.begin_step(due);
        let released: Vec<(u32, Flit)> = state.released().collect();
        let [(5, retx)] = released[..] else {
            panic!("one retransmission released at port 0's injector: {released:?}");
        };
        assert_eq!(retx.retry, 1);
        // The deadline the backoff replaced went stale and never fired.
        assert_eq!(state.report().drops_detected, 0);
    }

    /// Steps `state` over `ticks`, returning each released retransmission
    /// as `(tick, injector, attempt)`.
    fn releases(
        state: &mut FaultState,
        ticks: std::ops::RangeInclusive<u64>,
    ) -> Vec<(u64, u32, u8)> {
        let mut released = Vec::new();
        for tick in ticks {
            state.begin_step(tick);
            released.extend(state.released().map(|(at, f)| (tick, at, f.retry)));
        }
        released
    }

    #[test]
    fn a_nack_and_a_timeout_on_one_tick_act_once() {
        let mut state = FaultState::new(FaultPlan::new(4), &[]);
        state.set_injectors(vec![6, 7]);
        state.apply(0, FaultOp::Injection(Flit::new(PortId(1), PortId(0), 3, 0)));
        assert_eq!(releases(&mut state, 1..=TIMEOUT_EDGES), []);
        // The deadline elapsed at the start of the tick, and a corrupt
        // copy arrives during it: one backoff, one retransmission.
        state.apply(TIMEOUT_EDGES, FaultOp::Corrupt(1, 3));
        let due = TIMEOUT_EDGES + BACKOFF_BASE_EDGES;
        let later = due + 4 * BACKOFF_BASE_EDGES;
        assert_eq!(
            releases(&mut state, TIMEOUT_EDGES + 1..=later),
            [(due, 7, 1)]
        );
        let report = state.report();
        assert_eq!((report.drops_detected, report.corruptions_detected), (1, 1));
        // Injected on its release tick, the retransmission re-arms the
        // deadline its release armed: two timers, one timeout.
        state.apply(due, FaultOp::Retransmitted(1, 3));
        let retry = due + TIMEOUT_EDGES + (BACKOFF_BASE_EDGES << 1);
        assert_eq!(releases(&mut state, later + 1..=retry), [(retry, 7, 2)]);
        assert_eq!(state.report().drops_detected, 2);
    }

    #[test]
    fn a_clock_fault_charges_the_lowest_tracked_flit_of_its_domain() {
        let mut state = FaultState::new(FaultPlan::new(8), &[]);
        // Ports 0 and 1 clock from domain 0, ports 2 and 3 from domain 1.
        state.set_clock_topology(ClockTopology {
            elements: Vec::new(),
            ports: vec![0, 0, 1, 1],
            count: 2,
            backend: ClockBackend::Forwarded,
        });
        for (src, dest, seq) in [(3, 1, 2), (3, 1, 7), (2, 3, 4), (2, 0, 5), (0, 1, 9)] {
            let flit = Flit::new(PortId(src), PortId(dest), seq, 0);
            state.apply(0, FaultOp::Injection(flit));
        }
        let faults = |state: &mut FaultState, key| state.outstanding.get_mut(key).unwrap().faults;
        // Port order first: (2, 4) precedes (3, 2).
        state.charge_clock_fault(1);
        assert_eq!(faults(&mut state, (2, 4)), 1);
        // Port 0's flit has its source in domain 0.
        state.charge_clock_fault(0);
        assert_eq!(faults(&mut state, (0, 9)), 1);
        // With it delivered, the lowest flit bound for domain 0 is next;
        // (2, 4) touches only domain 1.
        state.apply(1, FaultOp::Delivered(0, 9));
        state.charge_clock_fault(0);
        assert_eq!(faults(&mut state, (2, 5)), 1);
        assert_eq!(faults(&mut state, (2, 4)), 1);
        assert_eq!(faults(&mut state, (3, 2)), 0);
        assert_eq!(state.report().pending, 2);
    }

    #[test]
    fn misroutes_bypass_the_gate() {
        let mut state = FaultState::new(FaultPlan::new(11), &[]);
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
        let state = FaultState::new(FaultPlan::new(5), &[true]);
        let flit = Flit::new(PortId(0), PortId(1), 0, 0);
        assert_eq!(state.ctx().upset_tick(0, 10, &flit), u64::MAX);
    }

    #[test]
    fn outage_epochs_freeze_whole_epochs_and_book_once() {
        // Rate 1: every epoch freezes the stage, and each epoch books one
        // outage however many of its ticks run.
        let plan = FaultPlan::new(1).with_rates(FaultRates {
            outage: 1.0,
            ..FaultRates::ZERO
        });
        let mut state = FaultState::new(plan, &[true, false]);
        for tick in 0..2 * OUTAGE_EDGES + 2 {
            state.begin_step(tick);
            assert!(state.ctx().frozen(0, tick));
            assert!(!state.ctx().frozen(1, tick), "only stages freeze");
        }
        // The ticks touch epochs 0, 1 and 2.
        let report = state.report();
        assert_eq!(report.injected.outage, 3);
        assert!(report.conserves());
    }

    #[test]
    fn recovery_report_displays_the_ledger() {
        let state = FaultState::new(FaultPlan::new(2), &[]);
        let text = state.report().to_string();
        assert!(text.contains("faults injected"));
        assert!(text.contains("conserves: true"));
        assert!(text.contains("dfs:"));
    }
}
