//! The pipeline-stage frequency model behind Figure 7 of the paper.

use crate::{Direction, FlipFlopTiming, LinkTiming, WireModel};
use icnoc_units::{Gigahertz, Millimeters, Picoseconds};
use serde::{Deserialize, Serialize};

/// Which constraint limits a pipeline segment's clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineConstraint {
    /// The forward path — flow-control logic, register overhead and the data
    /// wire — must fit in one half period. Binds for short segments, where
    /// the 220 ps of flow-control logic dominates.
    ForwardPath,
    /// The upstream handshake (eq. (5)): the `accept` signal travels against
    /// the clock, so `Δsum` — the data wire plus the clock wire delay — must
    /// fit in `T_half − t_clk→Q − t_setup`. Binds for long segments; as the
    /// paper notes, "the upstream timing represents the performance limiting
    /// factor".
    UpstreamHandshake,
}

impl core::fmt::Display for PipelineConstraint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipelineConstraint::ForwardPath => f.write_str("forward path"),
            PipelineConstraint::UpstreamHandshake => f.write_str("upstream handshake"),
        }
    }
}

/// One sample of the Figure 7 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyPoint {
    /// Wire length between the two pipeline stages.
    pub length: Millimeters,
    /// Maximum safe clock frequency at that length.
    pub frequency: Gigahertz,
    /// The constraint that binds at that length.
    pub binding: PipelineConstraint,
}

/// Maximum-frequency model of a 2-phase handshaked pipeline segment, i.e.
/// the curve of **Figure 7** ("clocking frequency as a function of the wire
/// length between two pipeline stages").
///
/// Two constraints compete, and the half period must cover both:
///
/// ```text
/// T_half ≥ t_logic + t_buf + t_wire(L)          (forward path)
/// T_half ≥ t_clk→Q + t_setup + 2·t_wire(L)      (upstream handshake, eq. 5)
/// ```
///
/// With the paper's measured 220 ps flow-control+register delay
/// ([`PipelineTimingModel::nominal_90nm`] adds ~58 ps of control-signal
/// buffering) a head-to-head segment clocks at exactly 1.8 GHz, matching
/// Section 6. Short segments are forward-path limited; past ≈1.15 mm the
/// upstream handshake takes over — reproducing the paper's observation that
/// upstream timing is the performance limiter for long links.
///
/// ```
/// use icnoc_timing::PipelineTimingModel;
/// use icnoc_units::Millimeters;
///
/// let model = PipelineTimingModel::nominal_90nm();
/// let head_to_head = model.max_frequency(Millimeters::ZERO);
/// assert!((head_to_head.value() - 1.8).abs() < 1e-9);
/// // The demonstrator's 1.25 mm root segments run at 1 GHz:
/// let root = model.max_frequency(Millimeters::new(1.25));
/// assert!((root.value() - 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineTimingModel {
    flip_flop: FlipFlopTiming,
    wire: WireModel,
    flow_control_logic: Picoseconds,
    control_buffering: Picoseconds,
}

impl PipelineTimingModel {
    /// Creates a pipeline model from its four ingredients.
    ///
    /// `flow_control_logic` is the paper's measured 220 ps "flow control
    /// logic and registers alone"; `control_buffering` is the extra control
    /// signal buffering that brings a head-to-head segment to its final
    /// speed.
    ///
    /// # Panics
    ///
    /// Panics if either logic delay is negative.
    #[must_use]
    #[track_caller]
    pub fn new(
        flip_flop: FlipFlopTiming,
        wire: WireModel,
        flow_control_logic: Picoseconds,
        control_buffering: Picoseconds,
    ) -> Self {
        assert!(
            !flow_control_logic.is_negative(),
            "flow-control logic delay must be >= 0"
        );
        assert!(
            !control_buffering.is_negative(),
            "control buffering delay must be >= 0"
        );
        Self {
            flip_flop,
            wire,
            flow_control_logic,
            control_buffering,
        }
    }

    /// The paper's 90 nm calibration: nominal flip-flops, nominal wire,
    /// 220 ps flow-control logic, and control buffering chosen so a
    /// head-to-head (zero-length) segment clocks at exactly 1.8 GHz.
    #[must_use]
    pub fn nominal_90nm() -> Self {
        // T_half(1.8 GHz) = 1000/3.6 ps; overhead = logic + buffering.
        let t_half_at_1p8 = 1000.0 / 3.6;
        Self::new(
            FlipFlopTiming::nominal_90nm(),
            WireModel::nominal_90nm(),
            Picoseconds::new(220.0),
            Picoseconds::new(t_half_at_1p8 - 220.0),
        )
    }

    /// The register library in use.
    #[must_use]
    pub fn flip_flop(&self) -> FlipFlopTiming {
        self.flip_flop
    }

    /// The wire model in use.
    #[must_use]
    pub fn wire(&self) -> WireModel {
        self.wire
    }

    /// The flow-control logic + register delay (paper: 220 ps).
    #[must_use]
    pub fn flow_control_logic(&self) -> Picoseconds {
        self.flow_control_logic
    }

    /// Total per-stage overhead on the forward path.
    #[must_use]
    pub fn stage_overhead(&self) -> Picoseconds {
        self.flow_control_logic + self.control_buffering
    }

    /// Minimum half period for a segment of the given wire length, together
    /// with the constraint that sets it.
    ///
    /// # Panics
    ///
    /// Panics if `length` is negative.
    #[must_use]
    pub fn required_half_period(&self, length: Millimeters) -> (Picoseconds, PipelineConstraint) {
        let w = self.wire.delay(length);
        let forward = self.stage_overhead() + w;
        let handshake = LinkTiming::required_half_period(
            self.flip_flop,
            Direction::Upstream.skew_quantity(w, w),
        );
        if forward >= handshake {
            (forward, PipelineConstraint::ForwardPath)
        } else {
            (handshake, PipelineConstraint::UpstreamHandshake)
        }
    }

    /// Maximum clock frequency for a segment of the given wire length — one
    /// point of the Figure 7 curve.
    ///
    /// # Panics
    ///
    /// Panics if `length` is negative.
    #[must_use]
    pub fn max_frequency(&self, length: Millimeters) -> Gigahertz {
        let (half, _) = self.required_half_period(length);
        Gigahertz::from_half_period(half)
    }

    /// The wire length at which the binding constraint flips from
    /// [`PipelineConstraint::ForwardPath`] to
    /// [`PipelineConstraint::UpstreamHandshake`]: where
    /// `t_wire(L) = stage_overhead − register_overhead`.
    #[must_use]
    pub fn constraint_crossover(&self) -> Millimeters {
        self.wire
            .length_for_delay(self.stage_overhead() - self.flip_flop.register_overhead())
    }

    /// The longest segment that still meets timing at `frequency`, or `None`
    /// if even a head-to-head segment cannot reach it.
    ///
    /// Matching router and pipeline speeds this way yields the paper's
    /// "optimal pipeline segment length" (0.9 mm at the 5×5 router's
    /// 1.2 GHz, 0.6 mm at the 3×3 router's 1.4 GHz).
    ///
    /// # Panics
    ///
    /// Panics if `frequency` is not strictly positive.
    #[must_use]
    pub fn max_length(&self, frequency: Gigahertz) -> Option<Millimeters> {
        let t_half = frequency.half_period();
        let forward_budget = t_half - self.stage_overhead();
        let handshake_budget = (t_half - self.flip_flop.register_overhead()) / 2.0;
        let budget = forward_budget.min(handshake_budget);
        if budget.value() <= 0.0 {
            return if budget.value() == 0.0 {
                Some(Millimeters::ZERO)
            } else {
                None
            };
        }
        Some(self.wire.length_for_delay(budget))
    }

    /// Samples the Figure 7 curve from 0 to `max_length` (inclusive) in
    /// steps of `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive or `max_length` is
    /// negative.
    #[must_use]
    #[track_caller]
    pub fn fig7_curve(&self, max_length: Millimeters, step: Millimeters) -> Vec<FrequencyPoint> {
        assert!(step.value() > 0.0, "step must be positive");
        assert!(!max_length.is_negative(), "max length must be >= 0");
        let n = (max_length.value() / step.value()).round() as usize;
        (0..=n)
            .map(|i| {
                let length = Millimeters::new(step.value() * i as f64);
                let (half, binding) = self.required_half_period(length);
                FrequencyPoint {
                    length,
                    frequency: Gigahertz::from_half_period(half),
                    binding,
                }
            })
            .collect()
    }
}

impl Default for PipelineTimingModel {
    /// Defaults to the paper's 90 nm calibration.
    fn default() -> Self {
        Self::nominal_90nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> PipelineTimingModel {
        PipelineTimingModel::nominal_90nm()
    }

    #[test]
    fn head_to_head_segment_reaches_1_8_ghz() {
        let f = model().max_frequency(Millimeters::ZERO);
        assert!((f.value() - 1.8).abs() < 1e-9, "got {f}");
    }

    #[test]
    fn paper_operating_points_are_reproduced() {
        let m = model();
        // 0.6 mm ≈ 1.4 GHz (3×3 router matching)
        let f06 = m.max_frequency(Millimeters::new(0.6)).value();
        assert!((f06 - 1.4).abs() < 0.05, "0.6 mm => {f06} GHz");
        // 0.9 mm ≈ 1.2 GHz (5×5 router matching)
        let f09 = m.max_frequency(Millimeters::new(0.9)).value();
        assert!((f09 - 1.2).abs() < 0.05, "0.9 mm => {f09} GHz");
        // 1.25 mm ≈ 1.0 GHz (demonstrator root segments)
        let f125 = m.max_frequency(Millimeters::new(1.25)).value();
        assert!((f125 - 1.0).abs() < 0.02, "1.25 mm => {f125} GHz");
    }

    #[test]
    fn short_segments_forward_limited_long_segments_handshake_limited() {
        let m = model();
        assert_eq!(
            m.required_half_period(Millimeters::new(0.2)).1,
            PipelineConstraint::ForwardPath
        );
        assert_eq!(
            m.required_half_period(Millimeters::new(2.0)).1,
            PipelineConstraint::UpstreamHandshake
        );
        let x = m.constraint_crossover();
        assert!(
            x.value() > 0.8 && x.value() < 1.5,
            "crossover {x} out of expected band"
        );
    }

    #[test]
    fn optimal_segment_lengths_match_router_speeds() {
        let m = model();
        // Paper: optimal segment is 0.9 mm at 1.2 GHz, 0.6 mm at 1.4 GHz.
        let l12 = m.max_length(Gigahertz::new(1.2)).expect("reachable");
        assert!((l12.value() - 0.9).abs() < 0.1, "1.2 GHz => {l12}");
        let l14 = m.max_length(Gigahertz::new(1.4)).expect("reachable");
        assert!((l14.value() - 0.6).abs() < 0.1, "1.4 GHz => {l14}");
    }

    #[test]
    fn frequencies_beyond_head_to_head_are_unreachable() {
        assert!(model().max_length(Gigahertz::new(2.5)).is_none());
    }

    #[test]
    fn fig7_curve_is_monotonically_declining() {
        let curve = model().fig7_curve(Millimeters::new(3.0), Millimeters::new(0.1));
        assert_eq!(curve.len(), 31);
        assert_eq!(curve[0].length, Millimeters::ZERO);
        for pair in curve.windows(2) {
            assert!(pair[1].frequency < pair[0].frequency);
        }
        // End of the paper's plotted range: well below 1 GHz at 3 mm.
        let last = curve.last().expect("nonempty").frequency.value();
        assert!(last > 0.25 && last < 1.0, "3 mm => {last} GHz");
    }

    #[test]
    fn fig7_binding_flips_exactly_once() {
        let curve = model().fig7_curve(Millimeters::new(3.0), Millimeters::new(0.05));
        let flips = curve
            .windows(2)
            .filter(|p| p[0].binding != p[1].binding)
            .count();
        assert_eq!(flips, 1);
        assert_eq!(curve[0].binding, PipelineConstraint::ForwardPath);
        assert_eq!(
            curve.last().expect("nonempty").binding,
            PipelineConstraint::UpstreamHandshake
        );
    }

    proptest! {
        #[test]
        fn max_length_inverts_max_frequency(len in 0.0f64..3.0) {
            let m = model();
            let f = m.max_frequency(Millimeters::new(len));
            let back = m.max_length(f).expect("frequency just computed is reachable");
            prop_assert!((back.value() - len).abs() < 1e-6, "len {len} back {back}");
        }

        #[test]
        fn frequency_declines_with_length(a in 0.0f64..5.0, extra in 0.01f64..5.0) {
            let m = model();
            prop_assert!(
                m.max_frequency(Millimeters::new(a + extra))
                    < m.max_frequency(Millimeters::new(a))
            );
        }

        #[test]
        fn slower_logic_never_raises_frequency(extra in 0.0f64..300.0, len in 0.0f64..3.0) {
            let base = model();
            let slower = PipelineTimingModel::new(
                base.flip_flop(),
                base.wire(),
                base.flow_control_logic() + Picoseconds::new(extra),
                Picoseconds::new(1000.0 / 3.6 - 220.0),
            );
            let l = Millimeters::new(len);
            prop_assert!(slower.max_frequency(l) <= base.max_frequency(l));
        }
    }
}
