//! NoC topologies, floorplanning and area models for the IC-NoC.
//!
//! The IC-NoC distributes its clock along the branches of a **tree**-shaped
//! network (Section 3 of the paper), so this crate provides:
//!
//! * [`TreeTopology`] — binary trees of 3×3 routers and quad trees of 5×5
//!   routers, with up/down tree routing and hop analytics
//!   (worst case `2·log₂N − 1` for a binary tree);
//! * [`MeshTopology`] — the XY-routed 2-D mesh the paper compares against
//!   (worst case `2·√N` hops);
//! * [`Floorplan`] — a recursive H-tree placement on a rectangular die,
//!   yielding the per-link wire lengths that feed the timing model, plus
//!   link pipelining into bounded-length segments;
//! * [`AreaModel`] — Section 6's silicon area accounting
//!   (`Area_total = (N−1)·Area_router + Area_pipelines`);
//! * [`analysis`] — tree-vs-mesh comparison metrics (hops, routers, area,
//!   traversed wire length and a per-flit energy estimate);
//! * [`RingAugmentedTree`] — the Section 7 future-work extension that closes
//!   rings between adjacent leaves using conventional mesochronous links.
//!
//! # Example
//!
//! ```
//! use icnoc_topology::{RouterClass, TreeTopology};
//!
//! let tree = TreeTopology::binary(64)?;
//! assert_eq!(tree.router_count(), 63);
//! assert_eq!(tree.worst_case_hops(), 11); // 2·log2(64) − 1
//! assert_eq!(tree.router_class(), RouterClass::Binary3x3);
//! # Ok::<(), icnoc_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod area;
mod floorplan;
mod ids;
mod mesh;
mod ring;
mod router;
mod tree;

pub use area::{AreaBreakdown, AreaModel};
pub use floorplan::{Floorplan, LinkGeometry, Placement};
pub use ids::{LinkId, NodeId, PortId};
pub use mesh::MeshTopology;
pub use ring::RingAugmentedTree;
pub use router::RouterClass;
pub use tree::{TopologyError, TreeKind, TreePath, TreeTopology};
