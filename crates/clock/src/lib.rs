//! Integrated clock distribution for the IC-NoC.
//!
//! The defining idea of the paper is that the clock is **forwarded along the
//! branches of the NoC tree** — inverted at every link (Fig. 6) so that
//! adjacent nodes are clocked on alternating edges — instead of being
//! balanced across the die by a power-hungry global tree. This crate models
//! that scheme and its alternatives:
//!
//! * [`ClockDistribution`] — the backend trait: per-node clock arrival
//!   times and [`ClockPolarity`] for a placed tree. The default
//!   [`ForwardedClock`] backend forwards one pulse per branch — the skew
//!   between any two *communicating* nodes equals the wire delay of their
//!   shared branch, which is exactly what makes the Section 4 timing
//!   analysis local and the system scalable. The [`RedundantPulseClock`]
//!   backend triplicates the pulse paths TRIX-style so a single clock-node
//!   outage never silences a subtree; [`ClockScheme`] is the concrete sum
//!   type a built system stores, selected by [`ClockBackend`];
//! * [`ClockGatingStats`] — accounting of enabled vs gated register edges,
//!   the "fine-grained clock gating" that falls out of the flow-control
//!   scheme (Section 5);
//! * [`ClockPowerModel`] — dynamic power of the clock network, used to
//!   compare the forwarded clock against a skew-balanced
//!   [`GlobalClockTree`] baseline (Section 2's motivation);
//! * [`LeafStagger`] — the Section 7 future-work idea of weighting link
//!   skews so leaves do not all clock within close temporal proximity,
//!   spreading the power surge.
//!
//! # Example
//!
//! ```
//! use icnoc_clock::{ClockBackend, ClockDistribution, ClockPolarity, ClockScheme};
//! use icnoc_timing::WireModel;
//! use icnoc_topology::{Floorplan, TreeTopology};
//! use icnoc_units::{Gigahertz, Millimeters};
//!
//! let tree = TreeTopology::binary(64)?;
//! let plan = Floorplan::h_tree(&tree, Millimeters::new(10.0), Millimeters::new(10.0));
//! let clocks = ClockScheme::build(ClockBackend::Forwarded, &tree, &plan,
//!                                 WireModel::nominal_90nm(), Gigahertz::new(1.0));
//! // The root is posedge-clocked; its children negedge (alternating edges).
//! assert_eq!(clocks.polarity(tree.root()), ClockPolarity::Rising);
//! let child = tree.children(tree.root())[0];
//! assert_eq!(clocks.polarity(child), ClockPolarity::Falling);
//! # Ok::<(), icnoc_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distribution;
mod gating;
mod global;
mod power;
mod redundant;
mod stagger;

pub use distribution::{
    ClockBackend, ClockDistribution, ClockPolarity, ClockScheme, ForwardedClock,
};
pub use gating::ClockGatingStats;
pub use global::GlobalClockTree;
pub use power::ClockPowerModel;
pub use redundant::{RedundantPulseClock, VOTER_DELAY_PS};
pub use stagger::{LeafStagger, SurgeProfile};
