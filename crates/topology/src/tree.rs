//! Tree topologies: the backbone of the IC-NoC architecture.
//!
//! The clock distribution requires a tree (Section 3: "due to the tree
//! topology required by the clock distribution, no converging paths are
//! allowed in the network"), so routing is the classic up/down tree scheme:
//! climb towards the root until the lowest common ancestor, then descend.

use crate::{LinkId, NodeId, PortId, RouterClass};
use serde::{Deserialize, Serialize};

/// Which tree the paper's Section 6 trade-off discussion considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TreeKind {
    /// Binary tree of [`RouterClass::Binary3x3`] routers — the demonstrator's
    /// choice ("we use only 3×3 routers in a binary tree topology").
    Binary,
    /// Quad tree of [`RouterClass::Quad5x5`] routers.
    Quad,
}

impl TreeKind {
    /// Children per router.
    #[must_use]
    pub fn arity(self) -> usize {
        self.router_class().arity()
    }

    /// The router class this tree is built from.
    #[must_use]
    pub fn router_class(self) -> RouterClass {
        match self {
            TreeKind::Binary => RouterClass::Binary3x3,
            TreeKind::Quad => RouterClass::Quad5x5,
        }
    }
}

impl core::fmt::Display for TreeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TreeKind::Binary => f.write_str("binary"),
            TreeKind::Quad => f.write_str("quad"),
        }
    }
}

/// Errors from topology construction or queries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyError {
    /// The requested port count is not a positive power of the tree arity.
    PortCountNotPower {
        /// The requested tree kind.
        kind: TreeKind,
        /// The offending port count.
        ports: usize,
    },
    /// A port id exceeded the topology's port count.
    PortOutOfRange {
        /// The offending port.
        port: PortId,
        /// Number of ports in the topology.
        ports: usize,
    },
    /// A mesh was requested with a port count that is not a perfect square.
    PortCountNotSquare {
        /// The offending port count.
        ports: usize,
    },
}

impl core::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TopologyError::PortCountNotPower { kind, ports } => write!(
                f,
                "a {kind} tree needs a positive power of {} ports, got {ports}",
                kind.arity()
            ),
            TopologyError::PortOutOfRange { port, ports } => {
                write!(f, "port {port} out of range (topology has {ports} ports)")
            }
            TopologyError::PortCountNotSquare { ports } => {
                write!(f, "a mesh needs a perfect-square port count, got {ports}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    depth: u32,
}

/// A perfect tree of routers with IP-core ports at the leaves.
///
/// Node ids are assigned breadth-first: routers `0..router_count()` (root is
/// `NodeId(0)`), then leaves `router_count()..`. Every non-root node owns
/// exactly one link — towards its parent — identified by the node's own
/// index as a [`LinkId`].
///
/// ```
/// use icnoc_topology::{PortId, TreeTopology};
///
/// let tree = TreeTopology::binary(8)?;
/// assert_eq!(tree.router_count(), 7);
/// let path = tree.route(PortId(0), PortId(7))?;
/// assert_eq!(path.router_hops(), 5); // 2·log2(8) − 1
/// let local = tree.route(PortId(0), PortId(1))?;
/// assert_eq!(local.router_hops(), 1); // neighbours share one 3×3 router
/// # Ok::<(), icnoc_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeTopology {
    kind: TreeKind,
    depth: u32,
    nodes: Vec<Node>,
    router_count: usize,
    leaf_count: usize,
}

impl TreeTopology {
    /// Builds a binary tree (3×3 routers) with `ports` leaves.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::PortCountNotPower`] unless `ports` is a
    /// power of two and at least 2.
    pub fn binary(ports: usize) -> Result<Self, TopologyError> {
        Self::new(TreeKind::Binary, ports)
    }

    /// Builds a quad tree (5×5 routers) with `ports` leaves.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::PortCountNotPower`] unless `ports` is a
    /// power of four and at least 4.
    pub fn quad(ports: usize) -> Result<Self, TopologyError> {
        Self::new(TreeKind::Quad, ports)
    }

    /// Builds a tree of the given kind with `ports` leaves.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::PortCountNotPower`] unless `ports` is a
    /// positive power of the arity (and more than one level, i.e. at least
    /// `arity` ports).
    pub fn new(kind: TreeKind, ports: usize) -> Result<Self, TopologyError> {
        let k = kind.arity();
        let mut depth = 0u32;
        let mut n = 1usize;
        while n < ports {
            n *= k;
            depth += 1;
        }
        if n != ports || depth == 0 {
            return Err(TopologyError::PortCountNotPower { kind, ports });
        }

        // Router level sizes: k^0, k^1, ..., k^(depth-1); leaves are level
        // `depth`.
        let mut level_offset = Vec::with_capacity(depth as usize + 1);
        let mut offset = 0usize;
        let mut width = 1usize;
        for _ in 0..depth {
            level_offset.push(offset);
            offset += width;
            width *= k;
        }
        let router_count = offset;
        level_offset.push(router_count); // leaves start here
        let leaf_count = ports;
        let total = router_count + leaf_count;

        let mut nodes = vec![
            Node {
                parent: None,
                children: Vec::new(),
                depth: 0,
            };
            total
        ];
        // Wire parents/children level by level.
        let mut width = 1usize;
        for level in 0..depth as usize {
            let this = level_offset[level];
            let next = level_offset[level + 1];
            for j in 0..width {
                let me = NodeId((this + j) as u32);
                nodes[me.index()].depth = level as u32;
                for c in 0..k {
                    let child = NodeId((next + k * j + c) as u32);
                    nodes[me.index()].children.push(child);
                    nodes[child.index()].parent = Some(me);
                }
            }
            width *= k;
        }
        for leaf in &mut nodes[router_count..total] {
            leaf.depth = depth;
        }

        Ok(Self {
            kind,
            depth,
            nodes,
            router_count,
            leaf_count,
        })
    }

    /// The tree kind.
    #[must_use]
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// The router class used throughout the tree.
    #[must_use]
    pub fn router_class(&self) -> RouterClass {
        self.kind.router_class()
    }

    /// Number of network ports (leaves).
    #[must_use]
    pub fn num_ports(&self) -> usize {
        self.leaf_count
    }

    /// Number of routers: `(N−1)/(arity−1)` for N leaves.
    #[must_use]
    pub fn router_count(&self) -> usize {
        self.router_count
    }

    /// Total node count (routers + leaves).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of router levels; leaves sit at this depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The root router.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The parent of `node`, or `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// The children of `node` (empty for leaves).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.index()].children
    }

    /// Depth of `node` (root = 0, leaves = [`depth`](Self::depth)).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node_depth(&self, node: NodeId) -> u32 {
        self.nodes[node.index()].depth
    }

    /// Whether `node` is a router.
    #[must_use]
    pub fn is_router(&self, node: NodeId) -> bool {
        node.index() < self.router_count
    }

    /// Whether `node` is a leaf (port attachment).
    #[must_use]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        !self.is_router(node) && node.index() < self.nodes.len()
    }

    /// The leaf node carrying `port`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::PortOutOfRange`] for unknown ports.
    pub fn leaf(&self, port: PortId) -> Result<NodeId, TopologyError> {
        if port.index() >= self.leaf_count {
            return Err(TopologyError::PortOutOfRange {
                port,
                ports: self.leaf_count,
            });
        }
        Ok(NodeId((self.router_count + port.index()) as u32))
    }

    /// The port carried by `node`, or `None` if it is a router.
    #[must_use]
    pub fn port_of(&self, node: NodeId) -> Option<PortId> {
        if self.is_leaf(node) {
            Some(PortId((node.index() - self.router_count) as u32))
        } else {
            None
        }
    }

    /// Iterates over all router node ids, breadth-first from the root.
    pub fn routers(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.router_count).map(|i| NodeId(i as u32))
    }

    /// Iterates over all leaf node ids, in port order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.router_count..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Iterates over all ports.
    pub fn ports(&self) -> impl Iterator<Item = PortId> + '_ {
        (0..self.leaf_count).map(|i| PortId(i as u32))
    }

    /// Iterates over all links. Link `l` connects node `NodeId(l.0)` to its
    /// parent; the root has no link, so ids start at 1.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (1..self.nodes.len()).map(|i| LinkId(i as u32))
    }

    /// Number of links: every node except the root owns one.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The `(child, parent)` endpoints of a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range or names the root.
    #[must_use]
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let child = NodeId(link.0);
        let parent = self.parent(child).expect("link ids never name the root");
        (child, parent)
    }

    /// The link from `node` towards its parent, or `None` for the root.
    #[must_use]
    pub fn uplink(&self, node: NodeId) -> Option<LinkId> {
        self.parent(node).map(|_| LinkId(node.0))
    }

    /// Lowest common ancestor of two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[must_use]
    pub fn lowest_common_ancestor(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.node_depth(a) > self.node_depth(b) {
            a = self.parent(a).expect("deeper node has a parent");
        }
        while self.node_depth(b) > self.node_depth(a) {
            b = self.parent(b).expect("deeper node has a parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root while unequal");
            b = self.parent(b).expect("non-root while unequal");
        }
        a
    }

    /// Routes a packet from `from` to `to`: up to the lowest common
    /// ancestor, then down. The returned path includes both leaf endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::PortOutOfRange`] for unknown ports.
    pub fn route(&self, from: PortId, to: PortId) -> Result<TreePath, TopologyError> {
        let src = self.leaf(from)?;
        let dst = self.leaf(to)?;
        if src == dst {
            return Ok(TreePath { nodes: vec![src] });
        }
        let lca = self.lowest_common_ancestor(src, dst);
        let mut up = Vec::new();
        let mut n = src;
        while n != lca {
            up.push(n);
            n = self.parent(n).expect("walking up to an ancestor");
        }
        up.push(lca);
        let mut down = Vec::new();
        let mut n = dst;
        while n != lca {
            down.push(n);
            n = self.parent(n).expect("walking up to an ancestor");
        }
        down.reverse();
        up.extend(down);
        Ok(TreePath { nodes: up })
    }

    /// Router hops between two ports (routers traversed by a packet).
    ///
    /// Every leaf sits at [`depth`](Self::depth), so a route climbs
    /// `depth − d` links to its lowest common ancestor at depth `d` and
    /// descends as many: `2·(depth − d) − 1` routers, 0 for a self-route.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::PortOutOfRange`] for unknown ports.
    pub fn hops(&self, from: PortId, to: PortId) -> Result<usize, TopologyError> {
        let src = self.leaf(from)?;
        let dst = self.leaf(to)?;
        if src == dst {
            return Ok(0);
        }
        let lca = self.lowest_common_ancestor(src, dst);
        Ok(2 * (self.depth - self.node_depth(lca)) as usize - 1)
    }

    /// Worst-case router hops: `2·depth − 1` (`2·log_k N − 1`), through the
    /// root.
    #[must_use]
    pub fn worst_case_hops(&self) -> usize {
        2 * self.depth as usize - 1
    }
}

/// A source-to-destination path through a [`TreeTopology`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreePath {
    nodes: Vec<NodeId>,
}

impl TreePath {
    /// All nodes on the path, source leaf first, destination leaf last.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of routers traversed (total nodes minus the two leaf
    /// endpoints; 0 for a self-route).
    #[must_use]
    pub fn router_hops(&self) -> usize {
        self.nodes.len().saturating_sub(2)
    }

    /// The links traversed, in order. Each consecutive node pair is a
    /// parent/child pair, and the link id is the child's node id.
    #[must_use]
    pub fn links(&self, tree: &TreeTopology) -> Vec<LinkId> {
        self.nodes
            .windows(2)
            .map(|pair| {
                let (a, b) = (pair[0], pair[1]);
                if tree.parent(a) == Some(b) {
                    LinkId(a.0) // climbing: a -> parent
                } else {
                    debug_assert_eq!(tree.parent(b), Some(a), "path edges are tree edges");
                    LinkId(b.0) // descending: parent -> b
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn binary_64_matches_demonstrator_shape() {
        let t = TreeTopology::binary(64).expect("64 is a power of 2");
        assert_eq!(t.num_ports(), 64);
        assert_eq!(t.router_count(), 63);
        assert_eq!(t.depth(), 6);
        assert_eq!(t.worst_case_hops(), 11);
        assert_eq!(t.link_count(), 63 + 64 - 1);
    }

    #[test]
    fn quad_64_shape() {
        let t = TreeTopology::quad(64).expect("64 is a power of 4");
        assert_eq!(t.router_count(), 21); // 1 + 4 + 16
        assert_eq!(t.depth(), 3);
        assert_eq!(t.worst_case_hops(), 5);
    }

    #[test]
    fn rejects_non_power_port_counts() {
        assert!(matches!(
            TreeTopology::binary(48),
            Err(TopologyError::PortCountNotPower { .. })
        ));
        assert!(matches!(
            TreeTopology::quad(32),
            Err(TopologyError::PortCountNotPower { .. })
        ));
        // A single port (k^0) is also rejected: no network to build.
        assert!(TreeTopology::binary(1).is_err());
    }

    #[test]
    fn neighbouring_ports_share_one_router() {
        // Section 3: "communication between two neighboring cores in a
        // binary tree only has to pass a single 3×3 router".
        let t = TreeTopology::binary(64).expect("valid");
        let path = t.route(PortId(6), PortId(7)).expect("valid ports");
        assert_eq!(path.router_hops(), 1);
    }

    #[test]
    fn cross_root_route_hits_worst_case() {
        let t = TreeTopology::binary(64).expect("valid");
        let hops = t.hops(PortId(0), PortId(63)).expect("valid ports");
        assert_eq!(hops, t.worst_case_hops());
        let path = t.route(PortId(0), PortId(63)).expect("valid ports");
        assert!(path.nodes().contains(&t.root()));
    }

    #[test]
    fn self_route_is_trivial() {
        let t = TreeTopology::binary(8).expect("valid");
        let path = t.route(PortId(3), PortId(3)).expect("valid port");
        assert_eq!(path.router_hops(), 0);
        assert_eq!(path.nodes().len(), 1);
        assert_eq!(t.hops(PortId(3), PortId(3)), Ok(0));
        assert!(t.hops(PortId(8), PortId(0)).is_err());
        assert!(t.hops(PortId(0), PortId(8)).is_err());
    }

    #[test]
    fn parenthood_is_consistent() {
        let t = TreeTopology::quad(16).expect("valid");
        for r in t.routers() {
            for &c in t.children(r) {
                assert_eq!(t.parent(c), Some(r));
                assert_eq!(t.node_depth(c), t.node_depth(r) + 1);
            }
        }
        assert_eq!(t.parent(t.root()), None);
    }

    #[test]
    fn leaves_map_to_ports_bijectively() {
        let t = TreeTopology::binary(16).expect("valid");
        for p in t.ports() {
            let leaf = t.leaf(p).expect("in range");
            assert!(t.is_leaf(leaf));
            assert_eq!(t.port_of(leaf), Some(p));
        }
        assert_eq!(t.port_of(t.root()), None);
        assert!(t.leaf(PortId(16)).is_err());
    }

    #[test]
    fn link_endpoints_and_uplinks_agree() {
        let t = TreeTopology::binary(8).expect("valid");
        for link in t.links() {
            let (child, parent) = t.link_endpoints(link);
            assert_eq!(t.parent(child), Some(parent));
            assert_eq!(t.uplink(child), Some(link));
        }
        assert_eq!(t.uplink(t.root()), None);
    }

    #[test]
    fn path_links_have_matching_length() {
        let t = TreeTopology::binary(32).expect("valid");
        let path = t.route(PortId(3), PortId(29)).expect("valid ports");
        let links = path.links(&t);
        assert_eq!(links.len(), path.nodes().len() - 1);
    }

    #[test]
    fn error_messages_are_informative() {
        let msg = TreeTopology::binary(48).unwrap_err().to_string();
        assert!(msg.contains("power of 2"));
        assert!(msg.contains("48"));
    }

    proptest! {
        /// Routing invariants over random binary-tree sizes and port pairs.
        #[test]
        fn route_reaches_destination_within_worst_case(
            depth in 1u32..8, seed in any::<u64>()
        ) {
            let ports = 1usize << depth;
            let t = TreeTopology::binary(ports).expect("power of 2");
            let a = PortId((seed % ports as u64) as u32);
            let b = PortId(((seed >> 16) % ports as u64) as u32);
            let path = t.route(a, b).expect("valid ports");
            prop_assert_eq!(*path.nodes().first().expect("non-empty"), t.leaf(a).expect("in range"));
            prop_assert_eq!(*path.nodes().last().expect("non-empty"), t.leaf(b).expect("in range"));
            prop_assert!(path.router_hops() <= t.worst_case_hops());
            // Every interior node is a router, endpoints are leaves.
            if path.nodes().len() >= 2 {
                for &n in &path.nodes()[1..path.nodes().len() - 1] {
                    prop_assert!(t.is_router(n));
                }
            }
        }

        /// The closed-form hop count equals the routed path's router
        /// count, for both tree kinds.
        #[test]
        fn hops_match_routed_path(
            binary_depth in 1u32..10, quad_depth in 1u32..5, a in any::<u32>(), b in any::<u32>()
        ) {
            let trees = [
                TreeTopology::binary(1 << binary_depth).expect("power of 2"),
                TreeTopology::quad(1 << (2 * quad_depth)).expect("power of 4"),
            ];
            for t in &trees {
                let n = t.num_ports() as u32;
                let (a, b) = (PortId(a % n), PortId(b % n));
                prop_assert_eq!(
                    t.hops(a, b).expect("valid"),
                    t.route(a, b).expect("valid").router_hops()
                );
            }
        }

        /// Hop counts are symmetric.
        #[test]
        fn hops_symmetric(depth in 1u32..7, a in any::<u32>(), b in any::<u32>()) {
            let ports = 1usize << depth;
            let t = TreeTopology::binary(ports).expect("power of 2");
            let a = PortId(a % ports as u32);
            let b = PortId(b % ports as u32);
            prop_assert_eq!(
                t.hops(a, b).expect("valid"),
                t.hops(b, a).expect("valid")
            );
        }

        /// Router count obeys the closed form (N−1)/(k−1).
        #[test]
        fn router_count_closed_form(depth in 1u32..7) {
            let ports = 1usize << depth;
            let bin = TreeTopology::binary(ports).expect("power of 2");
            prop_assert_eq!(bin.router_count(), ports - 1);
            if depth % 2 == 0 {
                let quad = TreeTopology::quad(ports).expect("power of 4");
                prop_assert_eq!(quad.router_count(), (ports - 1) / 3);
            }
        }
    }
}
