//! Baselines and ablations for the IC-NoC comparison experiments.
//!
//! The paper positions the IC-NoC against two families of alternatives:
//!
//! * **Globally synchronous mesh NoCs** (Section 2/3): same flow-control
//!   machinery, mesh topology, and a skew-balanced global clock tree. The
//!   simulated comparator is [`SynchronousMesh`]; its clock cost comes from
//!   [`icnoc_clock::GlobalClockTree`].
//! * **General mesochronous synchronisation schemes** (Section 2): delay
//!   lines with metastability detectors (\[15\] Mu & Svensson), adjustable
//!   clock delays (\[20\] Söderquist) and switching-zone detection with
//!   negative-edge fallback (\[13\] Mesgarzadeh et al.). These need per-link
//!   phase-detection hardware and (for the first two) an initialisation
//!   phase — the overheads the IC-NoC avoids. Modelled by [`SyncScheme`].
//!
//! Section 7's latch-based stage ablation lives here too, as
//! [`LatchAblation`].
//!
//! # Example
//!
//! ```
//! use icnoc_baseline::SynchronousMesh;
//! use icnoc_sim::TrafficPattern;
//!
//! let mesh = SynchronousMesh::new(16)?;
//! let report = mesh.simulate(TrafficPattern::uniform(0.1), 2_000, 42);
//! assert!(report.is_correct());
//! # Ok::<(), icnoc_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod latch;
mod mesh_net;
mod mesochronous;

pub use latch::LatchAblation;
pub use mesh_net::SynchronousMesh;
pub use mesochronous::{synchronizer_mtbf_seconds, SchemeComparison, SyncScheme};
