//! Experiment harness regenerating every quantitative table and figure of
//! the IC-NoC paper.
//!
//! Each `eN` function reproduces one paper artefact (see `DESIGN.md` for
//! the full index) and returns its formatted table, so the `tables` binary,
//! the integration tests and `EXPERIMENTS.md` all draw from the same code:
//!
//! | exp | paper artefact |
//! |---|---|
//! | [`e1`] | eq. (3)/(4): downstream skew windows vs frequency |
//! | [`e2`] | eq. (5)/(7): upstream bound and wire budgets |
//! | [`e3`] | **Figure 7**: frequency vs wire length |
//! | [`e4`] | §6 router characterisation |
//! | [`e5`] | §6 area scaling |
//! | [`e6`] | §3 tree-vs-mesh comparison |
//! | [`e7`] | §6 quad-vs-binary trade-off |
//! | [`e8`] | **Figure 4**: handshake stall/resume |
//! | [`e9`] | §5 clock gating under bursty traffic |
//! | [`e10`] | §4 graceful degradation |
//! | [`e11`] | §6 demonstrator at 1 GHz |
//! | [`e12`] | §2 mesochronous scheme overheads |
//! | [`e13`] | §7 future-work ablations |
//! | [`e14`] | observability conservation checks (extension) |
//! | [`e15`] | fault-soak recovery sweep (extension) |
//! | [`e16`] | clock-outage survival: forwarded vs redundant (extension) |
//!
//! [`run_all_jobs`] runs the whole suite across worker threads via the
//! explore crate's deterministic executor; its output is byte-identical
//! to the serial [`run_all`] for any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod table;

pub use experiments::{
    e1, e10, e11, e12, e13, e14, e15, e16, e2, e3, e4, e5, e6, e7, e8, e9, run_all, run_all_jobs,
    EXPERIMENT_IDS,
};
pub use table::Table;
