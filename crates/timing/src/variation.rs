//! Process-variation modelling and the graceful-degradation solver.
//!
//! The paper's central robustness claim (Section 4) is that the IC-NoC is
//! "correct by construction": *no matter what the process variation is*,
//! both setup and hold windows widen as the clock slows, so some frequency
//! always exists at which every link meets timing. This module provides
//!
//! * [`ProcessVariation`] — a two-component delay variation model
//!   (systematic/global corner shift plus random per-element mismatch);
//! * [`VariationDraw`] — a seeded sampler producing concrete per-wire delay
//!   factors for Monte-Carlo simulation;
//! * [`required_half_period`] and [`safe_frequency`] — the worst-case
//!   solver that proves the claim for a given link set, returning the
//!   fastest provably-safe clock.

use crate::{Direction, FlipFlopTiming, LinkTiming};
use icnoc_units::{Gigahertz, Picoseconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A delay-variation model with a systematic and a random component.
///
/// Every nominal delay `d` becomes `d · (1 + systematic) · (1 + x)` with
/// `x ~ N(0, sigma)` truncated so factors stay positive. `systematic`
/// models a global process corner (e.g. +0.3 for a 30 % slow chip);
/// `sigma` models within-die random mismatch.
///
/// ```
/// use icnoc_timing::ProcessVariation;
///
/// let var = ProcessVariation::new(0.3, 0.05);
/// // worst case at 3 sigma: 1.3 * 1.15 = 1.495x delays
/// assert!((var.worst_case_factor(3.0) - 1.495).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessVariation {
    systematic: f64,
    sigma: f64,
}

impl ProcessVariation {
    /// Creates a variation model.
    ///
    /// # Panics
    ///
    /// Panics if `systematic <= -1` (delays would go non-positive) or
    /// `sigma < 0`.
    #[must_use]
    #[track_caller]
    pub fn new(systematic: f64, sigma: f64) -> Self {
        assert!(
            systematic > -1.0,
            "systematic variation must keep delays positive"
        );
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { systematic, sigma }
    }

    /// The no-variation model (nominal silicon).
    #[must_use]
    pub fn none() -> Self {
        Self::new(0.0, 0.0)
    }

    /// Systematic (global corner) fractional delay shift.
    #[must_use]
    pub fn systematic(&self) -> f64 {
        self.systematic
    }

    /// Standard deviation of the random mismatch component.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The largest delay inflation factor assumed at `k_sigma` standard
    /// deviations of mismatch: `(1 + systematic) · (1 + k·σ)`.
    #[must_use]
    pub fn worst_case_factor(&self, k_sigma: f64) -> f64 {
        (1.0 + self.systematic) * (1.0 + k_sigma * self.sigma)
    }

    /// The smallest delay factor at `k_sigma` deviations (clamped positive):
    /// `(1 + systematic) · max(ε, 1 − k·σ)`.
    #[must_use]
    pub fn best_case_factor(&self, k_sigma: f64) -> f64 {
        (1.0 + self.systematic) * (1.0 - k_sigma * self.sigma).max(0.05)
    }

    /// The `(lo, hi)` interval a `nominal` delay spans at `k_sigma`
    /// deviations: its best- and worst-case factors applied. The corners of
    /// [`Direction::corners`] are drawn from it.
    #[must_use]
    pub fn interval(&self, nominal: Picoseconds, k_sigma: f64) -> (Picoseconds, Picoseconds) {
        (
            nominal * self.best_case_factor(k_sigma),
            nominal * self.worst_case_factor(k_sigma),
        )
    }

    /// Creates a seeded sampler of concrete delay factors.
    #[must_use]
    pub fn draw(&self, seed: u64) -> VariationDraw {
        VariationDraw {
            variation: *self,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The named process corners swept by design-space exploration: the
    /// nominal library, a fast corner, and three progressively slower
    /// corners with growing random mismatch. Each corner pairs a wire
    /// [`ProcessVariation`] with the matching flip-flop library scale
    /// (registers and wires slow down together on a real die).
    #[must_use]
    pub fn standard_corners() -> &'static [VariationCorner] {
        STANDARD_CORNERS
    }

    /// Looks a standard corner up by its label (see
    /// [`standard_corners`](Self::standard_corners)).
    #[must_use]
    pub fn corner(label: &str) -> Option<VariationCorner> {
        STANDARD_CORNERS.iter().find(|c| c.label == label).copied()
    }
}

/// A named (process corner, register library) point of the sweep space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationCorner {
    /// Stable identifier used in grid specs and cache keys.
    pub label: &'static str,
    /// Systematic corner shift of wire delays.
    pub systematic: f64,
    /// Random within-die mismatch sigma of wire delays.
    pub sigma: f64,
    /// Scale applied to every [`FlipFlopTiming`] parameter.
    pub ff_scale: f64,
}

/// The corner table behind [`ProcessVariation::standard_corners`].
const STANDARD_CORNERS: &[VariationCorner] = &[
    VariationCorner {
        label: "nominal",
        systematic: 0.0,
        sigma: 0.0,
        ff_scale: 1.0,
    },
    VariationCorner {
        label: "fast",
        systematic: -0.10,
        sigma: 0.02,
        ff_scale: 0.9,
    },
    VariationCorner {
        label: "slow10",
        systematic: 0.10,
        sigma: 0.05,
        ff_scale: 1.1,
    },
    VariationCorner {
        label: "slow30",
        systematic: 0.30,
        sigma: 0.05,
        ff_scale: 1.3,
    },
    VariationCorner {
        label: "slow50",
        systematic: 0.50,
        sigma: 0.10,
        ff_scale: 1.5,
    },
];

impl VariationCorner {
    /// The wire-delay variation model of this corner.
    #[must_use]
    pub fn variation(&self) -> ProcessVariation {
        ProcessVariation::new(self.systematic, self.sigma)
    }

    /// The register library at this corner: the paper's nominal 90 nm
    /// flip-flop with every parameter scaled by
    /// [`ff_scale`](Self::ff_scale).
    #[must_use]
    pub fn flip_flop(&self) -> FlipFlopTiming {
        FlipFlopTiming::nominal_90nm().scaled(self.ff_scale)
    }
}

impl core::fmt::Display for VariationCorner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label)
    }
}

impl Default for ProcessVariation {
    /// Defaults to no variation.
    fn default() -> Self {
        Self::none()
    }
}

/// A seeded stream of concrete per-element delay factors.
///
/// Identical seeds produce identical factor sequences, so Monte-Carlo
/// experiments are reproducible.
#[derive(Debug, Clone)]
pub struct VariationDraw {
    variation: ProcessVariation,
    rng: StdRng,
}

impl VariationDraw {
    /// Samples the next delay factor: `(1+systematic) · (1 + N(0, σ))`,
    /// clamped to stay positive.
    pub fn factor(&mut self) -> f64 {
        let gauss = self.sample_standard_normal();
        let random = (1.0 + gauss * self.variation.sigma).max(0.05);
        (1.0 + self.variation.systematic) * random
    }

    /// Applies the next sampled factor to a nominal delay.
    pub fn apply(&mut self, nominal: Picoseconds) -> Picoseconds {
        nominal * self.factor()
    }

    /// Box–Muller standard normal sample (rand 0.8 without `rand_distr`).
    fn sample_standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// The smallest `T_half` under which every link in `links` meets timing
/// at worst-case `k_sigma` variation: eqs. (1)/(2) (via
/// [`LinkTiming::required_half_period`]) at both [`Direction::corners`] of
/// each link's [`ProcessVariation::interval`]s.
///
/// Each link is `(direction, data_delay, clock_delay)` at nominal silicon.
/// `None` only for an empty link set (nothing constrains the clock).
#[must_use]
pub fn required_half_period(
    flip_flop: FlipFlopTiming,
    links: &[(Direction, Picoseconds, Picoseconds)],
    variation: ProcessVariation,
    k_sigma: f64,
) -> Option<Picoseconds> {
    links
        .iter()
        .flat_map(|&(direction, data, clock)| {
            let data = variation.interval(data, k_sigma);
            let clock = variation.interval(clock, k_sigma);
            direction.corners(data, clock).map(|(d, c)| {
                LinkTiming::required_half_period(flip_flop, direction.skew_quantity(d, c))
            })
        })
        .reduce(Picoseconds::max)
}

/// Finds the fastest clock that is provably timing-safe for every link in
/// `links` under worst-case `k_sigma` variation — the paper's graceful-
/// degradation guarantee made executable: [`required_half_period`] backed
/// off by [`LinkTiming::clock_for`]. The returned frequency satisfies
/// [`LinkTiming::check`] at every corner of every link; `None` is returned
/// only for an empty link set.
///
/// ```
/// use icnoc_timing::{safe_frequency, Direction, FlipFlopTiming, ProcessVariation};
/// use icnoc_units::Picoseconds;
///
/// let links = [(Direction::Upstream, Picoseconds::new(150.0), Picoseconds::new(150.0))];
/// let nominal = safe_frequency(FlipFlopTiming::nominal_90nm(), &links,
///                              ProcessVariation::none(), 3.0).expect("non-empty");
/// let slowed = safe_frequency(FlipFlopTiming::nominal_90nm(), &links,
///                             ProcessVariation::new(0.5, 0.0), 3.0).expect("non-empty");
/// assert!(slowed < nominal); // 50% slower silicon => lower safe clock, but it exists
/// ```
#[must_use]
pub fn safe_frequency(
    flip_flop: FlipFlopTiming,
    links: &[(Direction, Picoseconds, Picoseconds)],
    variation: ProcessVariation,
    k_sigma: f64,
) -> Option<Gigahertz> {
    required_half_period(flip_flop, links, variation, k_sigma).map(LinkTiming::clock_for)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn none_variation_has_unit_factors() {
        let v = ProcessVariation::none();
        assert_eq!(v.worst_case_factor(3.0), 1.0);
        assert_eq!(v.best_case_factor(3.0), 1.0);
        let mut draw = v.draw(42);
        for _ in 0..16 {
            assert!((draw.factor() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn draws_are_reproducible_by_seed() {
        let v = ProcessVariation::new(0.1, 0.08);
        let a: Vec<f64> = {
            let mut d = v.draw(7);
            (0..32).map(|_| d.factor()).collect()
        };
        let b: Vec<f64> = {
            let mut d = v.draw(7);
            (0..32).map(|_| d.factor()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<f64> = {
            let mut d = v.draw(8);
            (0..32).map(|_| d.factor()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn factors_are_always_positive() {
        let v = ProcessVariation::new(0.0, 2.0); // absurdly wide mismatch
        let mut d = v.draw(3);
        for _ in 0..10_000 {
            assert!(d.factor() > 0.0);
        }
    }

    #[test]
    fn sample_mean_tracks_systematic_shift() {
        let v = ProcessVariation::new(0.25, 0.05);
        let mut d = v.draw(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| d.factor()).sum::<f64>() / n as f64;
        assert!((mean - 1.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "systematic variation must keep delays positive")]
    fn impossible_systematic_rejected() {
        let _ = ProcessVariation::new(-1.0, 0.0);
    }

    #[test]
    fn standard_corners_are_unique_and_resolvable() {
        let corners = ProcessVariation::standard_corners();
        assert!(corners.len() >= 4);
        for (i, c) in corners.iter().enumerate() {
            assert_eq!(ProcessVariation::corner(c.label), Some(*c));
            assert!(c.ff_scale > 0.0);
            // Labels are unique: the grid grammar keys on them.
            assert!(corners[i + 1..].iter().all(|o| o.label != c.label));
            // Every corner builds a valid variation model and FF library.
            let _ = c.variation();
            assert!(c.flip_flop().setup().value() >= 0.0);
        }
        assert_eq!(ProcessVariation::corner("nominal").unwrap().ff_scale, 1.0);
        assert_eq!(ProcessVariation::corner("martian"), None);
    }

    #[test]
    fn corner_nominal_matches_none_variation() {
        let c = ProcessVariation::corner("nominal").unwrap();
        assert_eq!(c.variation(), ProcessVariation::none());
        assert_eq!(c.flip_flop(), FlipFlopTiming::nominal_90nm());
    }

    #[test]
    fn empty_link_set_is_unconstrained() {
        assert!(safe_frequency(
            FlipFlopTiming::nominal_90nm(),
            &[],
            ProcessVariation::none(),
            3.0
        )
        .is_none());
    }

    #[test]
    fn safe_frequency_matches_single_link_solver_without_variation() {
        let ff = FlipFlopTiming::nominal_90nm();
        let links = [(
            Direction::Upstream,
            Picoseconds::new(190.0),
            Picoseconds::new(190.0),
        )];
        let f = safe_frequency(ff, &links, ProcessVariation::none(), 3.0).expect("non-empty");
        // Eq. (7) alone: Δsum = 380 ps needs T_half > 380 + 60 + 60 ps.
        assert!((f.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn graceful_degradation_a_safe_frequency_exists_even_at_huge_variation() {
        let ff = FlipFlopTiming::nominal_90nm();
        let links = [
            (
                Direction::Downstream,
                Picoseconds::new(140.0),
                Picoseconds::new(140.0),
            ),
            (
                Direction::Upstream,
                Picoseconds::new(140.0),
                Picoseconds::new(140.0),
            ),
        ];
        for systematic in [0.0, 0.5, 1.0, 3.0, 10.0] {
            let var = ProcessVariation::new(systematic, 0.3);
            let f = safe_frequency(ff, &links, var, 3.0).expect("non-empty");
            assert!(f.value() > 0.0, "systematic {systematic} gave {f}");
            // Verify every worst-corner delta actually passes at f.
            let link = LinkTiming::new(ff, f);
            for &(dir, d, c) in &links {
                for (dd, cc) in dir.corners(var.interval(d, 3.0), var.interval(c, 3.0)) {
                    assert!(link.check(dir, dd, cc).is_ok());
                }
            }
        }
    }

    proptest! {
        /// More variation never raises the safe frequency.
        #[test]
        fn safe_frequency_monotone_in_variation(
            sys1 in 0.0f64..2.0, extra in 0.0f64..2.0,
            data in 10.0f64..1000.0, clk in 10.0f64..1000.0
        ) {
            let ff = FlipFlopTiming::nominal_90nm();
            let links = [
                (Direction::Upstream, Picoseconds::new(data), Picoseconds::new(clk)),
                (Direction::Downstream, Picoseconds::new(data), Picoseconds::new(clk)),
            ];
            let f1 = safe_frequency(ff, &links, ProcessVariation::new(sys1, 0.0), 3.0)
                .expect("non-empty");
            let f2 = safe_frequency(ff, &links, ProcessVariation::new(sys1 + extra, 0.0), 3.0)
                .expect("non-empty");
            prop_assert!(f2 <= f1);
        }

        /// The solved frequency passes the per-corner checks for any inputs.
        #[test]
        fn solved_frequency_is_actually_safe(
            sys in 0.0f64..1.0, sigma in 0.0f64..0.2,
            data in 0.0f64..1000.0, clk in 0.0f64..1000.0
        ) {
            let ff = FlipFlopTiming::nominal_90nm();
            let links = [
                (Direction::Upstream, Picoseconds::new(data), Picoseconds::new(clk)),
                (Direction::Downstream, Picoseconds::new(data), Picoseconds::new(clk)),
            ];
            let var = ProcessVariation::new(sys, sigma);
            let f = safe_frequency(ff, &links, var, 3.0).expect("non-empty");
            let link = LinkTiming::new(ff, f);
            for (dir, d, c) in links {
                for (dd, cc) in dir.corners(var.interval(d, 3.0), var.interval(c, 3.0)) {
                    prop_assert!(link.check(dir, dd, cc).is_ok());
                }
            }
        }
    }
}
