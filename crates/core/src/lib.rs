//! # IC-NoC: a scalable, timing-safe NoC with integrated clock distribution
//!
//! A from-scratch reproduction of Bjerregaard, Stensgaard & Sparsø,
//! *"A Scalable, Timing-Safe, Network-on-Chip Architecture with an
//! Integrated Clock Distribution Method"* (DATE 2007).
//!
//! The IC-NoC distributes the system clock **along the branches of a
//! tree-shaped NoC**, inverting it on every link so adjacent nodes clock on
//! alternating edges. Because the clock and data share every wire, the skew
//! between communicating nodes is bounded and correlated with the data
//! delay, making timing integrity a purely **local, per-link** property —
//! the system scales to any size while still presenting a globally
//! synchronous abstraction. A 2-phase valid/accept flow control rides the
//! two clock phases, giving back-pressure without stall buffers and
//! fine-grained clock gating for free.
//!
//! This crate is the integration point: it composes the substrate crates
//! ([`icnoc_timing`], [`icnoc_topology`], [`icnoc_clock`], [`icnoc_sim`])
//! into a buildable, verifiable, simulatable system.
//!
//! ## Quickstart
//!
//! ```
//! use icnoc::{System, SystemBuilder};
//! use icnoc_sim::TrafficPattern;
//! use icnoc_units::Gigahertz;
//!
//! // The paper's demonstrator: 64 ports, binary tree, 10 mm die, 1 GHz.
//! let system = SystemBuilder::demonstrator().build()?;
//!
//! // Every link is timing-safe at 1 GHz — "correct by construction".
//! let verification = system.verify_nominal();
//! assert!(verification.is_timing_safe());
//!
//! // And the network actually moves data, losslessly.
//! let report = system.simulate(TrafficPattern::uniform(0.1), 2_000, 77);
//! assert!(report.is_correct());
//! # Ok::<(), icnoc::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod demonstrator;
mod error;
mod power;
mod stagger_safety;
mod system;
mod verify;
mod yield_mc;

pub use demonstrator::{demonstrator_patterns, TilePreset};
pub use error::SystemError;
pub use power::SystemPowerReport;
pub use system::{System, SystemBuilder, SystemConfig, SystemSummary};
pub use verify::{SegmentCheck, TimingVerification};
pub use yield_mc::YieldAnalysis;

// Observability types, re-exported so downstream code can read a
// network's counters, event buffer and reports without depending on
// `icnoc_sim` directly.
pub use icnoc_sim::{
    CountersSink, ElementCounters, ElementUtilisation, FlowLatency, ObservabilityReport,
    RingBufferSink, SimKernel, TraceEvent, TraceEventKind, TraceTotals,
};

// One-stop re-exports of the substrate crates so downstream users need a
// single dependency.
pub use icnoc_clock as clock;
pub use icnoc_sim as sim;
pub use icnoc_timing as timing;
pub use icnoc_topology as topology;
pub use icnoc_units as units;
