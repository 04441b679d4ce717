//! Whole-system timing verification.
//!
//! "Once the node-to-node timing is shown to hold, the system can be
//! conceived as globally synchronous" (Section 3). This module *shows it*:
//! every pipeline segment of every link is checked against the Section 4
//! constraints in both transfer directions, optionally at worst-case
//! process-variation corners. A system passing [`TimingVerification`] is
//! metastability-free by construction at its operating point.

use crate::System;
use icnoc_timing::{Direction, LinkTiming, ProcessVariation, TimingReport, TimingViolation};
use icnoc_topology::LinkId;
use icnoc_units::Picoseconds;
use serde::{Deserialize, Serialize};

/// The outcome of checking one segment in one direction at one corner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentCheck {
    /// The link this segment belongs to.
    pub link: LinkId,
    /// Segment index within the link (0-based).
    pub segment: usize,
    /// Transfer direction checked.
    pub direction: Direction,
    /// The check outcome: margins on success, the broken bound on failure.
    pub result: Result<TimingReport, TimingViolation>,
}

/// A full verification sweep over every segment of a [`System`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingVerification {
    checks: Vec<SegmentCheck>,
}

impl TimingVerification {
    /// Runs the sweep at the worst `k_sigma` corners of `variation`.
    ///
    /// For each segment the data and clock wire delays are pushed to the
    /// corners that maximise the setup-side skew and (separately) the
    /// hold-side skew; a segment only passes if **all** corners pass.
    #[must_use]
    pub(crate) fn run(system: &System, variation: ProcessVariation, k_sigma: f64) -> Self {
        let link_timing = LinkTiming::new(system.pipeline_model().flip_flop(), system.frequency());
        let wire = system.pipeline_model().wire();
        let mut checks = Vec::new();
        for geo in system.link_geometries() {
            let interval = variation.interval(wire.delay(geo.segment_length()), k_sigma);
            for segment in 0..geo.segment_count {
                for direction in Direction::ALL {
                    // Report the worse outcome of the setup and hold corners.
                    let [setup, hold] = direction
                        .corners(interval, interval)
                        .map(|(d, c)| link_timing.check(direction, d, c));
                    let result = match (setup, hold) {
                        (Err(e), _) | (Ok(_), Err(e)) => Err(e),
                        (Ok(a), Ok(b)) => Ok(if b.worst_margin() < a.worst_margin() {
                            b
                        } else {
                            a
                        }),
                    };
                    checks.push(SegmentCheck {
                        link: geo.link,
                        segment,
                        direction,
                        result,
                    });
                }
            }
        }
        Self { checks }
    }

    /// All individual checks.
    #[must_use]
    pub fn checks(&self) -> &[SegmentCheck] {
        &self.checks
    }

    /// The failed checks.
    pub fn violations(&self) -> impl Iterator<Item = &SegmentCheck> {
        self.checks.iter().filter(|c| c.result.is_err())
    }

    /// `true` iff every segment passed in both directions at all corners.
    #[must_use]
    pub fn is_timing_safe(&self) -> bool {
        self.checks.iter().all(|c| c.result.is_ok())
    }

    /// Number of failed checks.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }

    /// The smallest positive margin across all passing checks — how much
    /// slack the system has before a corner starts failing.
    #[must_use]
    pub fn worst_margin(&self) -> Option<Picoseconds> {
        self.checks
            .iter()
            .filter_map(|c| c.result.ok().map(|r| r.worst_margin()))
            .min_by(|a, b| a.partial_cmp(b).expect("margins are never NaN"))
    }

    /// The `n` checks with the least slack (violations first, then the
    /// tightest passes) — the "critical paths" of the network.
    #[must_use]
    pub fn worst_paths(&self, n: usize) -> Vec<&SegmentCheck> {
        let slack = |c: &SegmentCheck| match &c.result {
            Ok(r) => r.worst_margin(),
            Err(v) => -v.excess(),
        };
        let mut ranked: Vec<&SegmentCheck> = self.checks.iter().collect();
        ranked.sort_by(|a, b| {
            slack(a)
                .partial_cmp(&slack(b))
                .expect("slacks are never NaN")
        });
        ranked.truncate(n);
        ranked
    }

    /// A static-timing-analysis-style signoff report: per-check slack for
    /// the `top` most critical segments plus the overall verdict, in the
    /// spirit of a PrimeTime timing report.
    #[must_use]
    pub fn sta_report(&self, top: usize) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "IC-NoC link timing signoff");
        let _ = writeln!(
            out,
            "  checks: {} ({} violated)",
            self.checks.len(),
            self.violation_count()
        );
        let _ = writeln!(
            out,
            "  {:<8} {:<8} {:<11} {:>12} {:>8}",
            "link", "segment", "direction", "slack (ps)", "status"
        );
        for check in self.worst_paths(top) {
            let (slack, status) = match &check.result {
                Ok(r) => (r.worst_margin().value(), "MET"),
                Err(v) => (-v.excess().value(), "VIOLATED"),
            };
            let _ = writeln!(
                out,
                "  {:<8} {:<8} {:<11} {:>12.3} {:>8}",
                check.link.to_string(),
                check.segment,
                check.direction.to_string(),
                slack,
                status
            );
        }
        let _ = write!(
            out,
            "  result: {}",
            if self.is_timing_safe() {
                "TIMING SAFE"
            } else {
                "TIMING UNSAFE"
            }
        );
        out
    }
}

impl core::fmt::Display for TimingVerification {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_timing_safe() {
            write!(
                f,
                "timing safe: {} checks passed, worst margin {}",
                self.checks.len(),
                self.worst_margin().unwrap_or(Picoseconds::ZERO)
            )
        } else {
            write!(
                f,
                "TIMING UNSAFE: {}/{} checks failed",
                self.violation_count(),
                self.checks.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;
    use icnoc_topology::TreeKind;
    use icnoc_units::Gigahertz;
    use proptest::prelude::*;

    #[test]
    fn demonstrator_is_timing_safe_at_1_ghz() {
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let v = sys.verify_nominal();
        assert!(v.is_timing_safe(), "{v}");
        assert!(v.checks().len() > 100);
        // The 1.25 mm root segments are designed to exactly meet the 1 GHz
        // upstream budget: the worst margin is a zero-slack pass.
        assert!(v.worst_margin().expect("passing checks exist").value() >= -1e-9);
    }

    #[test]
    fn moderate_variation_still_safe_after_derating() {
        // Turn the fabricated chip's clock down to the worst-case-safe
        // frequency and verify the same geometry there.
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let var = ProcessVariation::new(0.3, 0.05);
        let safe_f = sys.max_safe_frequency(var, 3.0);
        assert!(safe_f.value() < 1.0, "variation must cost speed: {safe_f}");
        let v = sys.derated(safe_f).verify_under(var, 3.0);
        assert!(v.is_timing_safe(), "{v}");
    }

    #[test]
    fn huge_variation_at_full_speed_fails_verification() {
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let v = sys.verify_under(ProcessVariation::new(1.5, 0.1), 3.0);
        assert!(!v.is_timing_safe());
        assert!(v.violation_count() > 0);
        // The display says so loudly.
        assert!(v.to_string().contains("TIMING UNSAFE"));
    }

    #[test]
    fn graceful_degradation_curve_is_monotone() {
        // E10's shape: more variation, lower safe frequency, never zero.
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let mut last = f64::INFINITY;
        for systematic in [0.0, 0.25, 0.5, 1.0, 2.0] {
            let f = sys.max_safe_frequency(ProcessVariation::new(systematic, 0.05), 3.0);
            assert!(f.value() > 0.0);
            assert!(f.value() <= last + 1e-12, "not monotone at {systematic}");
            last = f.value();
        }
    }

    #[test]
    fn sta_report_ranks_critical_paths_first() {
        let sys = SystemBuilder::demonstrator().build().expect("valid");
        let v = sys.verify_nominal();
        let report = sys.verify_nominal().sta_report(10);
        assert!(report.contains("TIMING SAFE"), "{report}");
        assert!(report.contains("MET"), "{report}");
        // The top path's slack equals the overall worst margin.
        let worst = v.worst_paths(1)[0]
            .result
            .as_ref()
            .expect("demonstrator passes")
            .worst_margin();
        assert_eq!(Some(worst), v.worst_margin());
        // Violated runs lead with their violations.
        let bad = sys.verify_under(ProcessVariation::new(1.5, 0.1), 3.0);
        let bad_report = bad.sta_report(5);
        assert!(bad_report.contains("VIOLATED"), "{bad_report}");
        assert!(bad_report.contains("TIMING UNSAFE"), "{bad_report}");
        let first = bad.worst_paths(1)[0];
        assert!(first.result.is_err(), "violations rank first");
    }

    proptest! {
        /// The safe clock verifies at its own corner for any tree kind, size
        /// and variation. When the link term, not the forward path, sets it,
        /// the bound is tight: 5% faster fails somewhere.
        #[test]
        fn safe_frequency_verifies_at_its_own_corner_and_is_tight(
            quad in any::<bool>(),
            levels in 1u32..9,
            systematic in 0.0f64..4.0,
            sigma in 0.0f64..0.3,
        ) {
            let kind = if quad { TreeKind::Quad } else { TreeKind::Binary };
            let ports = kind.arity().pow(levels).min(256);
            let sys = SystemBuilder::new(kind, ports).build().expect("valid");
            let var = ProcessVariation::new(systematic, sigma);
            let f = sys.max_safe_frequency(var, 3.0);
            prop_assert!(f.value() > 0.0);
            prop_assert!(sys.derated(f).verify_under(var, 3.0).is_timing_safe());
            let ff = sys.pipeline_model().flip_flop();
            let links = icnoc_timing::required_half_period(ff, &sys.segment_delays(), var, 3.0)
                .expect("a tree has links");
            if LinkTiming::clock_for(links) == f {
                let faster = sys.derated(Gigahertz::new(f.value() * 1.05));
                prop_assert!(!faster.verify_under(var, 3.0).is_timing_safe());
            }
        }
    }
}
