//! Link timing constraints: equations (1)–(7) of the paper.
//!
//! Data on an IC-NoC link travels either *downstream* (same direction as the
//! forwarded clock, experiencing positive clock skew, Fig. 2) or *upstream*
//! (against the clock, negative skew, Fig. 3). Producer and consumer are
//! clocked on opposite edges of the same clock, so every transfer has half a
//! clock period, corrected by the skew, to complete.

use crate::FlipFlopTiming;
use icnoc_units::{Gigahertz, Picoseconds};
use serde::{Deserialize, Serialize};

/// Which way data flows relative to the forwarded clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Data travels *with* the clock (positive skew at the receiver). The
    /// constrained quantity is `Δdiff = t_data − t_clk`, eqs. (1)–(3).
    Downstream,
    /// Data travels *against* the clock (negative skew at the receiver). The
    /// constrained quantity is `Δsum = t_data + t_clk`, eqs. (5)–(6).
    Upstream,
}

impl Direction {
    /// Both directions, in the order the paper discusses them.
    pub const ALL: [Direction; 2] = [Direction::Downstream, Direction::Upstream];

    /// The skew quantity constrained in this direction, applied to a
    /// `(data_delay, clock_delay)` pair: `Δdiff` downstream, `Δsum` upstream.
    #[must_use]
    pub fn skew_quantity(self, data_delay: Picoseconds, clock_delay: Picoseconds) -> Picoseconds {
        match self {
            Direction::Downstream => data_delay - clock_delay,
            Direction::Upstream => data_delay + clock_delay,
        }
    }

    /// The `(data_delay, clock_delay)` corners of each wire's `(lo, hi)`
    /// delay interval that stress this direction's bounds: the setup corner
    /// (largest skew quantity) first, then the hold corner (smallest).
    #[must_use]
    pub fn corners(
        self,
        data: (Picoseconds, Picoseconds),
        clock: (Picoseconds, Picoseconds),
    ) -> [(Picoseconds, Picoseconds); 2] {
        match self {
            Direction::Downstream => [(data.1, clock.0), (data.0, clock.1)],
            Direction::Upstream => [(data.1, clock.1), (data.0, clock.0)],
        }
    }
}

impl core::fmt::Display for Direction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Direction::Downstream => f.write_str("downstream"),
            Direction::Upstream => f.write_str("upstream"),
        }
    }
}

/// An open interval `(min, max)` of tolerable skew, in picoseconds.
///
/// Produced by [`LinkTiming::downstream_window`] (bounding `Δdiff`) and
/// [`LinkTiming::upstream_window`] (bounding `Δsum`). The paper's
/// inequalities are strict, so a delta exactly on a bound does **not**
/// satisfy the window.
///
/// ```
/// use icnoc_timing::{FlipFlopTiming, LinkTiming};
/// use icnoc_units::{Gigahertz, Picoseconds};
///
/// let w = LinkTiming::new(FlipFlopTiming::nominal_90nm(), Gigahertz::new(1.0))
///     .downstream_window();
/// assert!(w.contains(Picoseconds::new(0.0)));
/// assert!(!w.contains(Picoseconds::new(380.0))); // strict upper bound
/// assert_eq!(w.width(), Picoseconds::new(920.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SkewWindow {
    min: Picoseconds,
    max: Picoseconds,
}

impl SkewWindow {
    /// Creates a window from its bounds. `min > max` yields an empty window
    /// (every delta is rejected), which the solvers use to signal "no
    /// feasible skew at this frequency".
    #[must_use]
    pub fn new(min: Picoseconds, max: Picoseconds) -> Self {
        Self { min, max }
    }

    /// Lower (hold-side) bound. Skew must be strictly greater.
    #[must_use]
    pub fn min(self) -> Picoseconds {
        self.min
    }

    /// Upper (setup-side) bound. Skew must be strictly smaller.
    #[must_use]
    pub fn max(self) -> Picoseconds {
        self.max
    }

    /// Window width `max − min`; non-positive when the window is empty.
    #[must_use]
    pub fn width(self) -> Picoseconds {
        self.max - self.min
    }

    /// Returns `true` if no skew value can satisfy this window.
    // Negated comparison so a NaN bound reads as "empty", not "satisfiable".
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[must_use]
    pub fn is_empty(self) -> bool {
        !(self.min < self.max)
    }

    /// Whether `delta` lies strictly inside the window.
    #[must_use]
    pub fn contains(self, delta: Picoseconds) -> bool {
        self.min < delta && delta < self.max
    }

    /// Slack to the setup-side (upper) bound: positive inside.
    #[must_use]
    pub fn setup_margin(self, delta: Picoseconds) -> Picoseconds {
        self.max - delta
    }

    /// Slack to the hold-side (lower) bound: positive inside.
    #[must_use]
    pub fn hold_margin(self, delta: Picoseconds) -> Picoseconds {
        delta - self.min
    }

    /// The worst (smallest) of the two margins; positive iff `delta` is
    /// strictly inside.
    #[must_use]
    pub fn margin(self, delta: Picoseconds) -> Picoseconds {
        self.setup_margin(delta).min(self.hold_margin(delta))
    }
}

impl core::fmt::Display for SkewWindow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.min, self.max)
    }
}

/// Which register constraint a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Data arrived too late before the capturing edge (eq. (1)/(5)).
    Setup,
    /// Data changed too soon after the capturing edge (eq. (2)/(6)).
    Hold,
}

impl core::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ViolationKind::Setup => f.write_str("setup"),
            ViolationKind::Hold => f.write_str("hold"),
        }
    }
}

/// A failed link-timing check: the skew fell outside the tolerable window.
///
/// This is the error type of [`LinkTiming::check`]; in the demonstrator a
/// violation means potential metastability, so the system-level verifier
/// treats any violation as fatal for the configured frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingViolation {
    /// Transfer direction that failed.
    pub direction: Direction,
    /// Setup- or hold-side failure.
    pub kind: ViolationKind,
    /// The offending skew quantity (`Δdiff` or `Δsum`).
    pub delta: Picoseconds,
    /// The window the skew had to fall in.
    pub window: SkewWindow,
}

impl TimingViolation {
    /// How far outside the window the skew fell (always positive).
    #[must_use]
    pub fn excess(&self) -> Picoseconds {
        match self.kind {
            ViolationKind::Setup => self.delta - self.window.max(),
            ViolationKind::Hold => self.window.min() - self.delta,
        }
        .max(Picoseconds::ZERO)
    }
}

impl core::fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} {} violation: skew {} outside window {} by {}",
            self.direction,
            self.kind,
            self.delta,
            self.window,
            self.excess()
        )
    }
}

impl std::error::Error for TimingViolation {}

/// A passed link-timing check, with its margins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Transfer direction that was checked.
    pub direction: Direction,
    /// The checked skew quantity (`Δdiff` or `Δsum`).
    pub delta: Picoseconds,
    /// The window the skew was checked against.
    pub window: SkewWindow,
    /// Slack to the setup bound (positive).
    pub setup_margin: Picoseconds,
    /// Slack to the hold bound (positive).
    pub hold_margin: Picoseconds,
}

impl TimingReport {
    /// The binding (smaller) of the two margins.
    #[must_use]
    pub fn worst_margin(&self) -> Picoseconds {
        self.setup_margin.min(self.hold_margin)
    }
}

/// Link timing analysis for one register pair at one clock frequency,
/// implementing Section 4 of the paper.
///
/// Producer and consumer registers are clocked at *alternating edges* of a
/// 50 %-duty clock, so the transfer budget is the half period `T_half`
/// adjusted by the link skew.
///
/// ```
/// use icnoc_timing::{Direction, FlipFlopTiming, LinkTiming};
/// use icnoc_units::{Gigahertz, Picoseconds};
///
/// let link = LinkTiming::new(FlipFlopTiming::nominal_90nm(), Gigahertz::new(1.0));
/// // A 150 ps data wire with a matched 150 ps clock wire, upstream:
/// let report = link
///     .check(Direction::Upstream, Picoseconds::new(150.0), Picoseconds::new(150.0))?;
/// assert_eq!(report.delta, Picoseconds::new(300.0)); // Δsum
/// assert_eq!(report.setup_margin, Picoseconds::new(80.0)); // 380 − 300
/// # Ok::<(), icnoc_timing::TimingViolation>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkTiming {
    flip_flop: FlipFlopTiming,
    frequency: Gigahertz,
    duty: f64,
    jitter: Picoseconds,
}

impl LinkTiming {
    /// Creates the analysis for the given register library and clock, at
    /// the paper's assumptions: 50 % duty cycle, jitter-free clock.
    ///
    /// # Panics
    ///
    /// Panics if `frequency` is not strictly positive.
    #[must_use]
    #[track_caller]
    pub fn new(flip_flop: FlipFlopTiming, frequency: Gigahertz) -> Self {
        assert!(frequency.value() > 0.0, "link timing needs a running clock");
        Self {
            flip_flop,
            frequency,
            duty: 0.5,
            jitter: Picoseconds::ZERO,
        }
    }

    /// Relaxes the paper's "we assume a 50 % duty cycle" simplification.
    ///
    /// Transfers alternate between the clock's high and low phases, so the
    /// binding budget is the *shorter* phase, `min(duty, 1−duty) · T`:
    /// any duty-cycle distortion shrinks the usable windows symmetrically.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < duty < 1`.
    #[must_use]
    #[track_caller]
    pub fn with_duty_cycle(mut self, duty: f64) -> Self {
        assert!(
            duty > 0.0 && duty < 1.0,
            "duty cycle must be strictly between 0 and 1"
        );
        self.duty = duty;
        self
    }

    /// Accounts for cycle-to-cycle clock jitter (the paper's Section 2
    /// notes ground bounce "induce\[s\] jitter in both clock and data").
    /// `jitter` is the peak edge displacement; it is debited from both the
    /// setup and the hold side of every window.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is negative.
    #[must_use]
    #[track_caller]
    pub fn with_jitter(mut self, jitter: Picoseconds) -> Self {
        assert!(!jitter.is_negative(), "jitter must be non-negative");
        self.jitter = jitter;
        self
    }

    /// The configured duty cycle.
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        self.duty
    }

    /// The configured peak clock jitter.
    #[must_use]
    pub fn jitter(&self) -> Picoseconds {
        self.jitter
    }

    /// The worst (shortest) clock phase available to a transfer:
    /// `min(duty, 1−duty) · T`. Equals `T_half` at 50 % duty.
    #[must_use]
    pub fn worst_phase(&self) -> Picoseconds {
        self.frequency.period() * self.duty.min(1.0 - self.duty)
    }

    /// The register library in use.
    #[must_use]
    pub fn flip_flop(&self) -> FlipFlopTiming {
        self.flip_flop
    }

    /// The analysed clock frequency.
    #[must_use]
    pub fn frequency(&self) -> Gigahertz {
        self.frequency
    }

    /// Half the clock period, `T_half` (50 % duty cycle).
    #[must_use]
    pub fn half_period(&self) -> Picoseconds {
        self.frequency.half_period()
    }

    /// Downstream skew window, eq. (3):
    /// `t_hold − T_half − t_clk→Q  <  Δdiff  <  T_half − t_clk→Q − t_setup`,
    /// with `T_half` generalised to the worst clock phase and both bounds
    /// debited by the configured jitter.
    #[must_use]
    pub fn downstream_window(&self) -> SkewWindow {
        let phase = self.worst_phase();
        let ff = self.flip_flop;
        SkewWindow::new(
            ff.hold() - phase - ff.clk_to_q() + self.jitter,
            phase - ff.clk_to_q() - ff.setup() - self.jitter,
        )
    }

    /// Upstream skew window, eqs. (5)–(6):
    /// `t_hold − T_half − t_clk→Q  <  Δsum  <  T_half − t_clk→Q − t_setup`.
    ///
    /// For realistic libraries the lower bound is negative while `Δsum` (two
    /// physical wire delays) is non-negative, so as the paper notes the
    /// upstream requirement reduces to the setup bound, eq. (7).
    #[must_use]
    pub fn upstream_window(&self) -> SkewWindow {
        // The algebra of eqs. (5)-(6) yields the same numeric bounds as the
        // downstream window; the difference is the quantity constrained
        // (Δsum vs Δdiff), i.e. upstream clock delay *adds* to data delay.
        self.downstream_window()
    }

    /// The window for either direction.
    #[must_use]
    pub fn window(&self, direction: Direction) -> SkewWindow {
        match direction {
            Direction::Downstream => self.downstream_window(),
            Direction::Upstream => self.upstream_window(),
        }
    }

    /// Checks a transfer with the given physical data and clock wire delays.
    ///
    /// The paper's inequalities are strict, but a skew landing *exactly* on
    /// a bound is a measure-zero knife edge; following slack-≥-0 static
    /// timing practice, a margin of zero (within a 10⁻⁹ ps numerical
    /// tolerance) passes. This matters for operating points designed to
    /// exactly meet a budget, like the demonstrator's 1.25 mm segments at
    /// 1 GHz.
    ///
    /// # Errors
    ///
    /// Returns a [`TimingViolation`] naming the broken bound (setup or hold)
    /// when the skew quantity falls outside the direction's window.
    // Negated comparisons so a NaN margin fails the check rather than
    // passing it.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn check(
        &self,
        direction: Direction,
        data_delay: Picoseconds,
        clock_delay: Picoseconds,
    ) -> Result<TimingReport, TimingViolation> {
        let delta = direction.skew_quantity(data_delay, clock_delay);
        const TOLERANCE: f64 = 1e-9;
        let window = self.window(direction);
        let setup_margin = window.setup_margin(delta);
        let hold_margin = window.hold_margin(delta);
        if !(setup_margin.value() >= -TOLERANCE) {
            return Err(TimingViolation {
                direction,
                kind: ViolationKind::Setup,
                delta,
                window,
            });
        }
        if !(hold_margin.value() >= -TOLERANCE) {
            return Err(TimingViolation {
                direction,
                kind: ViolationKind::Hold,
                delta,
                window,
            });
        }
        Ok(TimingReport {
            direction,
            delta,
            window,
            setup_margin,
            hold_margin,
        })
    }

    /// The same link analysed with the clock slowed by `factor`: the
    /// frequency is divided, so every window widens per Section 4. This is
    /// the primitive behind dynamic-frequency-scaling controllers — a
    /// `derated(s)` link is what the hardware sees after backing `T_half`
    /// off by `s`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and strictly positive.
    #[must_use]
    #[track_caller]
    pub fn derated(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "derating factor must be finite and positive"
        );
        Self {
            frequency: Gigahertz::new(self.frequency.value() / factor),
            ..*self
        }
    }

    /// The smallest `T_half` under which a transfer with skew quantity
    /// `delta` satisfies both bounds, from rearranging eqs. (1)/(2):
    /// `T_half > max(Δ + t_clk→Q + t_setup, t_hold − t_clk→Q − Δ)`.
    ///
    /// The returned value may be non-positive, meaning any clock works.
    #[must_use]
    pub fn required_half_period(flip_flop: FlipFlopTiming, delta: Picoseconds) -> Picoseconds {
        let setup_bound = delta + flip_flop.clk_to_q() + flip_flop.setup();
        let hold_bound = flip_flop.hold() - flip_flop.clk_to_q() - delta;
        setup_bound.max(hold_bound)
    }

    /// The clock whose half period just exceeds a positive `required`: the
    /// paper's bounds are strict, so every solver backs off by this one
    /// vanishing epsilon and its frequency itself passes [`check`](Self::check).
    #[must_use]
    pub fn clock_for(required: Picoseconds) -> Gigahertz {
        let half = Picoseconds::new(required.value() * (1.0 + 1e-12) + 1e-9);
        Gigahertz::from_half_period(half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn link_1ghz() -> LinkTiming {
        LinkTiming::new(FlipFlopTiming::nominal_90nm(), Gigahertz::new(1.0))
    }

    #[test]
    fn eq4_downstream_window_at_1ghz() {
        // Paper eq. (4): −540 ps < Δdiff < 380 ps.
        let w = link_1ghz().downstream_window();
        assert_eq!(w.min(), Picoseconds::new(-540.0));
        assert_eq!(w.max(), Picoseconds::new(380.0));
    }

    #[test]
    fn eq7_upstream_bound_at_1ghz() {
        // Paper eq. (7): Δsum < 380 ps; lower bound negative hence vacuous.
        let w = link_1ghz().upstream_window();
        assert_eq!(w.max(), Picoseconds::new(380.0));
        assert!(w.min().is_negative());
    }

    #[test]
    fn matched_delays_pass_downstream_at_any_listed_speed() {
        // Downstream with matched data/clock wires has Δdiff = 0, which sits
        // inside the window at every frequency the paper uses.
        for f in [0.5, 1.0, 1.2, 1.4, 1.8, 2.0] {
            let link = LinkTiming::new(FlipFlopTiming::nominal_90nm(), Gigahertz::new(f));
            let d = Picoseconds::new(200.0);
            let report = link.check(Direction::Downstream, d, d).expect("must pass");
            assert_eq!(report.delta, Picoseconds::ZERO);
        }
    }

    #[test]
    fn upstream_long_wire_fails_setup_then_recovers_at_lower_frequency() {
        // 1.5 mm-ish wires: 200 ps each side => Δsum = 400 ps > 380 ps at 1 GHz.
        let ff = FlipFlopTiming::nominal_90nm();
        let link = LinkTiming::new(ff, Gigahertz::new(1.0));
        let d = Picoseconds::new(200.0);
        let err = link.check(Direction::Upstream, d, d).unwrap_err();
        assert_eq!(err.kind, ViolationKind::Setup);
        assert_eq!(err.excess(), Picoseconds::new(20.0));

        // Graceful degradation: the solver finds a slower clock that passes.
        let none = crate::ProcessVariation::none();
        let f = crate::safe_frequency(ff, &[(Direction::Upstream, d, d)], none, 0.0).unwrap();
        assert!(f.value() < 1.0);
        let slower = LinkTiming::new(ff, f);
        assert!(slower.check(Direction::Upstream, d, d).is_ok());
        // and the bound is tight: 4% faster must fail.
        let faster = LinkTiming::new(ff, Gigahertz::new(f.value() * 1.04));
        assert!(faster.check(Direction::Upstream, d, d).is_err());
    }

    #[test]
    fn downstream_very_fast_data_slow_clock_fails_hold() {
        // Clock arriving 600 ps after the data edge: Δdiff = −600 < −540.
        let link = link_1ghz();
        let err = link
            .check(
                Direction::Downstream,
                Picoseconds::ZERO,
                Picoseconds::new(600.0),
            )
            .unwrap_err();
        assert_eq!(err.kind, ViolationKind::Hold);
        assert_eq!(err.excess(), Picoseconds::new(60.0));
    }

    #[test]
    fn window_boundary_passes_with_zero_margin() {
        // Δsum exactly 380 ps: slack-≥-0 semantics, zero-margin pass.
        let link = link_1ghz();
        let report = link
            .check(
                Direction::Upstream,
                Picoseconds::new(380.0),
                Picoseconds::ZERO,
            )
            .expect("boundary is a zero-margin pass");
        assert_eq!(report.setup_margin, Picoseconds::ZERO);
        // Anything measurably past the bound is a violation.
        let err = link
            .check(
                Direction::Upstream,
                Picoseconds::new(380.001),
                Picoseconds::ZERO,
            )
            .unwrap_err();
        assert_eq!(err.kind, ViolationKind::Setup);
    }

    #[test]
    fn empty_window_when_clock_too_fast() {
        // T_half = 100 ps cannot fit clk->Q + setup = 120 ps: window empty
        // for any non-negative Δ.
        let link = LinkTiming::new(FlipFlopTiming::nominal_90nm(), Gigahertz::new(5.0));
        let w = link.downstream_window();
        assert!(w.max().is_negative());
        assert!(link
            .check(Direction::Downstream, Picoseconds::ZERO, Picoseconds::ZERO)
            .is_err());
    }

    #[test]
    fn check_reports_the_derived_quantity() {
        let link = link_1ghz();
        let (data, clock) = (Picoseconds::new(210.0), Picoseconds::new(140.0));
        for dir in [Direction::Downstream, Direction::Upstream] {
            let report = link.check(dir, data, clock).unwrap();
            assert_eq!(report.delta, dir.skew_quantity(data, clock));
        }
        // And a perturbed delta (Δsum = 500 ps) fails exactly where the
        // window says.
        let (data, clock) = (Picoseconds::new(300.0), Picoseconds::new(200.0));
        let err = link.check(Direction::Upstream, data, clock).unwrap_err();
        assert_eq!(err.kind, ViolationKind::Setup);
        assert_eq!(err.excess(), Picoseconds::new(120.0));
    }

    #[test]
    fn derated_link_widens_the_window_and_recovers_a_failing_delta() {
        let link = link_1ghz();
        // Δsum = 500 ps fails at 1 GHz (bound: 380 ps).
        let (data, clock) = (Picoseconds::new(300.0), Picoseconds::new(200.0));
        assert!(link.check(Direction::Upstream, data, clock).is_err());
        // Halving the clock widens eq. (7)'s bound to 880 ps.
        let slow = link.derated(2.0);
        assert_eq!(slow.frequency(), Gigahertz::new(0.5));
        assert_eq!(slow.upstream_window().max(), Picoseconds::new(880.0));
        assert!(slow.check(Direction::Upstream, data, clock).is_ok());
        // Duty and jitter settings survive derating.
        let shaped = link
            .with_duty_cycle(0.4)
            .with_jitter(Picoseconds::new(10.0))
            .derated(2.0);
        assert_eq!(shaped.duty_cycle(), 0.4);
        assert_eq!(shaped.jitter(), Picoseconds::new(10.0));
        // derated(1.0) is the identity.
        assert_eq!(link.derated(1.0), link);
    }

    #[test]
    #[should_panic(expected = "derating factor")]
    fn derated_rejects_non_positive_factor() {
        let _ = link_1ghz().derated(0.0);
    }

    #[test]
    fn violation_display_mentions_direction_and_kind() {
        let err = link_1ghz()
            .check(
                Direction::Upstream,
                Picoseconds::new(400.0),
                Picoseconds::new(100.0),
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("upstream"));
        assert!(msg.contains("setup"));
    }

    #[test]
    fn report_margins_sum_to_window_width() {
        let link = link_1ghz();
        let r = link
            .check(
                Direction::Downstream,
                Picoseconds::new(100.0),
                Picoseconds::new(50.0),
            )
            .expect("in window");
        assert_eq!(r.setup_margin + r.hold_margin, r.window.width());
        assert_eq!(r.worst_margin(), r.setup_margin.min(r.hold_margin));
    }

    #[test]
    fn duty_cycle_50_percent_reproduces_eq4() {
        let link = link_1ghz().with_duty_cycle(0.5);
        assert_eq!(link.downstream_window().min(), Picoseconds::new(-540.0));
        assert_eq!(link.downstream_window().max(), Picoseconds::new(380.0));
    }

    #[test]
    fn asymmetric_duty_shrinks_the_window() {
        // 40/60 duty: worst phase is 400 ps instead of 500 ps.
        let skewed = link_1ghz().with_duty_cycle(0.4);
        assert_eq!(skewed.worst_phase(), Picoseconds::new(400.0));
        let w = skewed.downstream_window();
        assert_eq!(w.max(), Picoseconds::new(280.0)); // 400 − 60 − 60
        assert_eq!(w.min(), Picoseconds::new(-440.0));
        // 40 % and 60 % duty are equivalent: transfers use both phases.
        let mirrored = link_1ghz().with_duty_cycle(0.6);
        assert_eq!(w, mirrored.downstream_window());
    }

    #[test]
    fn jitter_debits_both_window_sides() {
        let clean = link_1ghz();
        let noisy = link_1ghz().with_jitter(Picoseconds::new(30.0));
        let (wc, wn) = (clean.downstream_window(), noisy.downstream_window());
        assert_eq!(wn.max(), wc.max() - Picoseconds::new(30.0));
        assert_eq!(wn.min(), wc.min() + Picoseconds::new(30.0));
        assert_eq!(wn.width(), wc.width() - Picoseconds::new(60.0));
    }

    #[test]
    fn jitter_can_fail_a_previously_passing_link() {
        // 185 ps wires pass cleanly upstream at 1 GHz (Δsum = 370 < 380)
        // but not with 10 ps of jitter.
        let d = Picoseconds::new(185.0);
        assert!(link_1ghz().check(Direction::Upstream, d, d).is_ok());
        let noisy = link_1ghz().with_jitter(Picoseconds::new(10.1));
        assert!(noisy.check(Direction::Upstream, d, d).is_err());
    }

    #[test]
    #[should_panic(expected = "duty cycle must be strictly between 0 and 1")]
    fn degenerate_duty_rejected() {
        let _ = link_1ghz().with_duty_cycle(1.0);
    }

    proptest! {
        /// Duty distortion and jitter never *widen* a window.
        #[test]
        fn duty_and_jitter_only_shrink_windows(
            duty in 0.05f64..0.95, jitter in 0.0f64..100.0
        ) {
            let base = link_1ghz();
            let degraded = link_1ghz()
                .with_duty_cycle(duty)
                .with_jitter(Picoseconds::new(jitter));
            for dir in Direction::ALL {
                prop_assert!(degraded.window(dir).max() <= base.window(dir).max());
                prop_assert!(degraded.window(dir).min() >= base.window(dir).min());
            }
        }

        /// Slowing the clock only ever widens both windows (graceful
        /// degradation, Section 4).
        #[test]
        fn windows_widen_monotonically_as_clock_slows(
            f_fast in 0.2f64..5.0, ratio in 1.0f64..10.0
        ) {
            let ff = FlipFlopTiming::nominal_90nm();
            let fast = LinkTiming::new(ff, Gigahertz::new(f_fast));
            let slow = LinkTiming::new(ff, Gigahertz::new(f_fast / ratio));
            for dir in Direction::ALL {
                let wf = fast.window(dir);
                let ws = slow.window(dir);
                prop_assert!(ws.min() <= wf.min());
                prop_assert!(ws.max() >= wf.max());
            }
        }

        /// For any physical delays there is a safe frequency, and it passes.
        #[test]
        fn max_frequency_is_safe_and_tight(
            data in 0.0f64..5000.0, clk in 0.0f64..5000.0
        ) {
            let ff = FlipFlopTiming::nominal_90nm();
            for dir in Direction::ALL {
                let link = [(dir, Picoseconds::new(data), Picoseconds::new(clk))];
                let none = crate::ProcessVariation::none();
                let f = crate::safe_frequency(ff, &link, none, 0.0).unwrap();
                let link = LinkTiming::new(ff, f);
                prop_assert!(
                    link.check(dir, Picoseconds::new(data), Picoseconds::new(clk)).is_ok(),
                    "dir {dir}: {f} should pass"
                );
                // 5% faster must violate.
                let faster = LinkTiming::new(ff, Gigahertz::new(f.value() * 1.05));
                prop_assert!(
                    faster.check(dir, Picoseconds::new(data), Picoseconds::new(clk)).is_err()
                );
            }
        }

        /// check() agrees with window().contains() everywhere.
        #[test]
        fn check_matches_window_membership(
            f in 0.2f64..3.0, data in 0.0f64..2000.0, clk in 0.0f64..2000.0
        ) {
            let link = LinkTiming::new(FlipFlopTiming::nominal_90nm(), Gigahertz::new(f));
            for dir in Direction::ALL {
                let delta = dir.skew_quantity(Picoseconds::new(data), Picoseconds::new(clk));
                let inside = link.window(dir).contains(delta);
                let passed = link
                    .check(dir, Picoseconds::new(data), Picoseconds::new(clk))
                    .is_ok();
                prop_assert_eq!(inside, passed);
            }
        }

        /// Downstream tolerance is symmetric-free: matched extra delay on
        /// both wires cancels out of Δdiff.
        #[test]
        fn downstream_invariant_to_common_mode_delay(
            base in 0.0f64..500.0, common in 0.0f64..5000.0
        ) {
            let link = LinkTiming::new(FlipFlopTiming::nominal_90nm(), Gigahertz::new(1.0));
            let a = link.check(
                Direction::Downstream,
                Picoseconds::new(base),
                Picoseconds::ZERO,
            );
            let b = link.check(
                Direction::Downstream,
                Picoseconds::new(base + common),
                Picoseconds::new(common),
            );
            prop_assert_eq!(a.is_ok(), b.is_ok());
        }
    }
}
