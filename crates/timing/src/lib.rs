//! Link timing analysis for the IC-NoC mesochronous clocking scheme.
//!
//! This crate is the analytical heart of the reproduction of
//! *"A Scalable, Timing-Safe, Network-on-Chip Architecture with an Integrated
//! Clock Distribution Method"* (Bjerregaard, Stensgaard & Sparsø, DATE 2007).
//! It implements, in closed form, Section 4 of the paper:
//!
//! * [`FlipFlopTiming`] — the three register parameters (`t_setup`,
//!   `t_hold`, `t_clk→Q`) every constraint is written in;
//! * [`LinkTiming`] — equations (1)–(3) for *downstream* transfers (data
//!   travels in the clock's direction, positive skew) and (5)–(6) for
//!   *upstream* transfers (data against the clock, negative skew);
//! * [`WireModel`] — the 90 nm distributed-RC wire (0.2 pF/mm, 0.4 kΩ/mm)
//!   with a repeatered-delay regime calibrated to the paper's Section 6
//!   operating points;
//! * [`PipelineTimingModel`] — the frequency-vs-wire-length curve of
//!   Figure 7, anchored at 1.8 GHz for head-to-head stages;
//! * [`ProcessVariation`] and [`required_half_period`] / [`safe_frequency`]
//!   — the "graceful performance degradation" property: for **any** bounded
//!   delay variation there exists a clock frequency at which all link
//!   timing holds.
//!
//! # Example: the paper's 1 GHz skew windows
//!
//! ```
//! use icnoc_timing::{FlipFlopTiming, LinkTiming};
//! use icnoc_units::{Gigahertz, Picoseconds};
//!
//! let link = LinkTiming::new(FlipFlopTiming::nominal_90nm(), Gigahertz::new(1.0));
//!
//! // Eq. (4): -540 ps < Δdiff < 380 ps
//! let down = link.downstream_window();
//! assert_eq!(down.min(), Picoseconds::new(-540.0));
//! assert_eq!(down.max(), Picoseconds::new(380.0));
//!
//! // Eq. (7): Δsum < 380 ps
//! assert_eq!(link.upstream_window().max(), Picoseconds::new(380.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flipflop;
mod link;
mod pipeline;
mod router_model;
pub mod variation;
mod wire;

pub use flipflop::FlipFlopTiming;
pub use link::{Direction, LinkTiming, SkewWindow, TimingReport, TimingViolation, ViolationKind};
pub use pipeline::{FrequencyPoint, PipelineConstraint, PipelineTimingModel};
pub use router_model::RouterTimingModel;
pub use variation::{
    required_half_period, safe_frequency, ProcessVariation, VariationCorner, VariationDraw,
};
pub use wire::WireModel;
