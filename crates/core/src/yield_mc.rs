//! Monte-Carlo yield analysis: how many fabricated chips reach a given
//! clock?
//!
//! The worst-case corners of [`verify_under`](crate::System::verify_under)
//! answer "is *every* chip safe"; a fab cares about the distribution. Here
//! each simulated die draws an independent delay factor for every data
//! wire, clock wire and logic stage from the [`ProcessVariation`] model,
//! and the die's `f_max` is the fastest clock at which all of its segments
//! meet both the Section 4 link constraints and the forward-path
//! constraint. Because the IC-NoC degrades gracefully, every die has a
//! positive `f_max` — yield never collapses to zero, it just moves down in
//! frequency.

use crate::System;
use icnoc_timing::{Direction, LinkTiming, ProcessVariation};
use icnoc_units::{Gigahertz, Picoseconds};

/// The result of a Monte-Carlo yield run: per-die maximum frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldAnalysis {
    /// Per-die f_max, sorted ascending.
    fmax: Vec<Gigahertz>,
}

impl YieldAnalysis {
    /// Samples `samples` virtual dies of `system` under `variation`.
    ///
    /// Deterministic for a given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    #[must_use]
    #[track_caller]
    pub fn run(system: &System, variation: ProcessVariation, samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "need at least one sample die");
        let ff = system.pipeline_model().flip_flop();
        let wire = system.pipeline_model().wire();
        let overhead = system.pipeline_model().stage_overhead();
        let geometries = system.link_geometries();

        let mut fmax: Vec<Gigahertz> = (0..samples)
            .map(|die| {
                let mut draw = variation.draw(seed.wrapping_add(die as u64).wrapping_mul(0x9E37));
                let mut required = Picoseconds::ZERO;
                for geo in &geometries {
                    let nominal = wire.delay(geo.segment_length());
                    for _ in 0..geo.segment_count {
                        let data = draw.apply(nominal);
                        let clock = draw.apply(nominal);
                        // Downstream (Δdiff) and upstream (Δsum) bounds.
                        for delta in Direction::ALL.map(|dir| dir.skew_quantity(data, clock)) {
                            required = required.max(LinkTiming::required_half_period(ff, delta));
                        }
                        // Forward path: logic inflates with its own factor.
                        let logic = draw.apply(overhead);
                        required = required.max(logic + data);
                    }
                }
                Gigahertz::from_half_period(Picoseconds::new(required.value().max(1e-3)))
            })
            .collect();
        fmax.sort_by(|a, b| a.partial_cmp(b).expect("frequencies are never NaN"));
        Self { fmax }
    }

    /// Number of sampled dies.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.fmax.len()
    }

    /// Fraction of dies whose `f_max` reaches `f`.
    #[must_use]
    pub fn yield_at(&self, f: Gigahertz) -> f64 {
        let passing = self.fmax.iter().filter(|&&m| m >= f).count();
        passing as f64 / self.fmax.len() as f64
    }

    /// The fastest clock at which at least `fraction` of dies pass.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    #[must_use]
    #[track_caller]
    pub fn frequency_at_yield(&self, fraction: f64) -> Gigahertz {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "yield fraction must be in (0, 1]"
        );
        let n = self.fmax.len();
        let need = (fraction * n as f64).ceil() as usize;
        // The `need` fastest dies must pass: the binding one is the
        // need-th from the top.
        self.fmax[n - need]
    }

    /// Slowest die's `f_max`.
    #[must_use]
    pub fn min_fmax(&self) -> Gigahertz {
        self.fmax[0]
    }

    /// Fastest die's `f_max`.
    #[must_use]
    pub fn max_fmax(&self) -> Gigahertz {
        *self.fmax.last().expect("samples is non-zero")
    }

    /// Median die `f_max`.
    #[must_use]
    pub fn median_fmax(&self) -> Gigahertz {
        self.fmax[self.fmax.len() / 2]
    }
}

impl System {
    /// Runs a Monte-Carlo yield analysis over `samples` virtual dies.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    #[must_use]
    pub fn yield_analysis(
        &self,
        variation: ProcessVariation,
        samples: usize,
        seed: u64,
    ) -> YieldAnalysis {
        YieldAnalysis::run(self, variation, samples, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;

    fn demo_yield(sys_var: f64, sigma: f64) -> YieldAnalysis {
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        sys.yield_analysis(ProcessVariation::new(sys_var, sigma), 200, 7)
    }

    #[test]
    fn nominal_silicon_all_dies_reach_1_ghz() {
        let y = demo_yield(0.0, 0.0);
        assert_eq!(y.samples(), 200);
        assert_eq!(y.yield_at(Gigahertz::new(1.0)), 1.0);
        // With zero variation every die is identical.
        assert_eq!(y.min_fmax(), y.max_fmax());
    }

    #[test]
    fn variation_spreads_the_distribution_but_never_kills_a_die() {
        let y = demo_yield(0.2, 0.08);
        assert!(y.min_fmax() < y.max_fmax());
        // Graceful degradation: every die still clocks at something.
        assert!(y.min_fmax().value() > 0.1);
        // And yield at 1 GHz drops below 100 %.
        assert!(y.yield_at(Gigahertz::new(1.0)) < 1.0);
    }

    #[test]
    fn yield_curve_is_monotone_in_frequency() {
        let y = demo_yield(0.1, 0.05);
        let mut last = 1.0;
        for f in [0.2, 0.4, 0.6, 0.8, 1.0, 1.2] {
            let at = y.yield_at(Gigahertz::new(f));
            assert!(at <= last + 1e-12, "yield rose with frequency at {f}");
            last = at;
        }
    }

    #[test]
    fn frequency_at_yield_is_consistent_with_yield_at() {
        let y = demo_yield(0.15, 0.06);
        for fraction in [0.5, 0.9, 0.99, 1.0] {
            let f = y.frequency_at_yield(fraction);
            assert!(
                y.yield_at(f) >= fraction - 1e-12,
                "yield_at({f}) = {} < {fraction}",
                y.yield_at(f)
            );
        }
        assert_eq!(y.frequency_at_yield(1.0), y.min_fmax());
    }

    #[test]
    fn reproducible_per_seed() {
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let var = ProcessVariation::new(0.1, 0.05);
        let a = sys.yield_analysis(var, 50, 11);
        let b = sys.yield_analysis(var, 50, 11);
        assert_eq!(a, b);
        let c = sys.yield_analysis(var, 50, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn median_between_extremes() {
        let y = demo_yield(0.3, 0.1);
        assert!(y.min_fmax() <= y.median_fmax());
        assert!(y.median_fmax() <= y.max_fmax());
    }
}
