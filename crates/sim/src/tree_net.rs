//! Builder for a full IC-NoC tree network of 3×3 / 5×5 routers.
//!
//! A router of arity `k` becomes `k+1` port columns of handshake stages:
//! 3 stages deep for the 3×3 (in → arbitrated mid → out, 1½ cycles) and 5
//! deep for the 5×5 (in → pre → arbitrated mid → post → out, 2½ cycles),
//! matching the paper's measured forward latencies. Links contribute their
//! floorplan-derived intermediate pipeline stages, and every element's
//! polarity follows the forwarded, per-link-inverted clock.

use crate::element::TileRole;
use crate::{
    Arbitration, ElementId, FaultPlan, Network, RouteFilter, SimKernel, SinkMode, TrafficPattern,
};
use icnoc_clock::{ClockBackend, ClockPolarity};
use icnoc_topology::{Floorplan, NodeId, PortId, TreeTopology};
use icnoc_units::Millimeters;

/// Configuration for building a tree network simulation.
///
/// ```
/// use icnoc_sim::{TrafficPattern, TreeNetworkConfig};
/// use icnoc_topology::TreeTopology;
///
/// let tree = TreeTopology::binary(16)?;
/// let mut net = TreeNetworkConfig::new(tree)
///     .with_pattern(TrafficPattern::uniform(0.1))
///     .with_seed(42)
///     .build();
/// let report = net.run_cycles(2000);
/// assert!(report.is_correct());
/// assert!(report.delivered > 0);
/// # Ok::<(), icnoc_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TreeNetworkConfig {
    tree: TreeTopology,
    link_stages: Vec<usize>,
    patterns: Vec<TrafficPattern>,
    sink_mode: SinkMode,
    seed: u64,
    processor_priority: bool,
    packet_len: u32,
    tiles: Option<TileTraffic>,
    ring_shortcuts: bool,
    counters: bool,
    event_buffer: Option<usize>,
    faults: Option<FaultPlan>,
    kernel: SimKernel,
    profiling: bool,
    clock_backend: ClockBackend,
}

/// Closed-loop tile configuration: processors (even ports) issue requests
/// bounded by `max_outstanding`; memories (odd ports) answer each request
/// after `service_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTraffic {
    /// Requests a processor may have in flight simultaneously.
    pub max_outstanding: usize,
    /// Memory access latency in cycles between request arrival and
    /// response injection.
    pub service_cycles: u64,
}

impl TreeNetworkConfig {
    /// Starts a configuration over `tree` with unpipelined links, silent
    /// ports, always-accepting sinks, seed 0 and processor priority on.
    #[must_use]
    pub fn new(tree: TreeTopology) -> Self {
        let link_stages = vec![0; tree.node_count()];
        let patterns = vec![TrafficPattern::Silent; tree.num_ports()];
        Self {
            tree,
            link_stages,
            patterns,
            sink_mode: SinkMode::AlwaysAccept,
            seed: 0,
            processor_priority: true,
            packet_len: 1,
            tiles: None,
            ring_shortcuts: false,
            counters: false,
            event_buffer: None,
            faults: None,
            kernel: SimKernel::default(),
            profiling: false,
            clock_backend: ClockBackend::Forwarded,
        }
    }

    /// The topology being simulated.
    #[must_use]
    pub fn tree(&self) -> &TreeTopology {
        &self.tree
    }

    /// Uses `plan` to pipeline every link into segments of at most
    /// `max_segment`, inserting the implied intermediate stages.
    ///
    /// # Panics
    ///
    /// Panics if `max_segment` is not strictly positive.
    #[must_use]
    pub fn with_link_stages_from(mut self, plan: &Floorplan, max_segment: Millimeters) -> Self {
        for geo in plan.pipelined_links(&self.tree, max_segment) {
            self.link_stages[geo.link.index()] = geo.pipeline_stage_count();
        }
        self
    }

    /// Sets the same traffic pattern on every port.
    #[must_use]
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.patterns.fill(pattern);
        self
    }

    /// Sets the traffic pattern of one port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    #[must_use]
    #[track_caller]
    pub fn with_port_pattern(mut self, port: PortId, pattern: TrafficPattern) -> Self {
        self.patterns[port.index()] = pattern;
        self
    }

    /// Sets the sink behaviour of every port.
    #[must_use]
    pub fn with_sink_mode(mut self, mode: SinkMode) -> Self {
        self.sink_mode = mode;
        self
    }

    /// Sets the master seed all sources derive their RNG from.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the demonstrator's "processor has priority to
    /// its local memory" arbitration at leaf routers.
    #[must_use]
    pub fn with_processor_priority(mut self, on: bool) -> Self {
        self.processor_priority = on;
        self
    }

    /// Sets the packet length (flits per packet) injected by every source.
    /// Lengths above 1 switch the routers to wormhole mode: heads lock
    /// arbitrated stages until the tail passes.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    #[track_caller]
    pub fn with_packet_length(mut self, len: u32) -> Self {
        assert!(len > 0, "packets need at least one flit");
        self.packet_len = len;
        self
    }

    /// Switches the network's endpoints to closed-loop processor/memory
    /// tiles: even ports become processors driven by their configured
    /// traffic pattern (as a *request* pattern), odd ports become memories
    /// that answer every request after `tiles.service_cycles`. Round trips
    /// are measured into [`SimReport::round_trip`](crate::SimReport).
    #[must_use]
    pub fn with_tiles(mut self, tiles: TileTraffic) -> Self {
        self.tiles = Some(tiles);
        self
    }

    /// Adds the Section 7 future-work ring shortcuts: adjacent leaves in
    /// *different* subtrees (tree distance > 1 router) get a direct channel
    /// through a brute-force mesochronous synchroniser (5–6 half-cycle
    /// stages, since the forwarded clock does not cover ring links).
    /// Traffic to a ring partner takes the shortcut; everything else keeps
    /// the tree.
    #[must_use]
    pub fn with_ring_shortcuts(mut self, on: bool) -> Self {
        self.ring_shortcuts = on;
        self
    }

    /// Attaches a [`CountersSink`](crate::CountersSink) to the built
    /// network, so its [`SimReport`](crate::SimReport) carries the
    /// per-element utilisation and per-flow latency sections.
    #[must_use]
    pub fn with_counters(mut self, on: bool) -> Self {
        self.counters = on;
        self
    }

    /// Attaches a [`RingBufferSink`](crate::RingBufferSink) retaining the
    /// last `capacity` flit-lifecycle events for post-mortem dumps.
    ///
    /// # Panics
    ///
    /// The eventual [`build`](Self::build) panics if `capacity` is zero.
    #[must_use]
    pub fn with_event_buffer(mut self, capacity: usize) -> Self {
        self.event_buffer = Some(capacity);
        self
    }

    /// Attaches a fault-injection and recovery plan to the built network
    /// (see [`Network::enable_faults`]).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Selects the clock-distribution backend the simulated fabric runs
    /// under. The choice only matters once a [`FaultPlan`] with clock
    /// fault rates attaches: the redundant-pulse backend votes single
    /// clock faults away where the forwarded baseline freezes a subtree.
    #[must_use]
    pub fn with_clock_backend(mut self, backend: ClockBackend) -> Self {
        self.clock_backend = backend;
        self
    }

    /// Selects the stepping kernel of the built network (see
    /// [`SimKernel`]). Defaults to the event-driven kernel; the dense scan
    /// is retained as a differential-testing oracle.
    #[must_use]
    pub fn with_kernel(mut self, kernel: SimKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Attaches the kernel profiler to the built network (see
    /// [`Network::enable_profiling`]): its report gains a `perf` section
    /// with per-shard counters and per-epoch phase timings.
    #[must_use]
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Builds the runnable [`Network`].
    #[must_use]
    pub fn build(self) -> Network {
        let packet_len = self.packet_len;
        let counters = self.counters;
        let event_buffer = self.event_buffer;
        let faults = self.faults.clone();
        let kernel = self.kernel;
        let profiling = self.profiling;
        let mut net = Builder::new(self).build();
        net.set_kernel(kernel);
        net.set_packet_length(packet_len);
        if profiling {
            net.enable_profiling();
        }
        if counters {
            net.enable_counters();
        }
        if let Some(capacity) = event_buffer {
            net.enable_event_buffer(capacity);
        }
        if let Some(plan) = faults {
            net.enable_faults(plan);
        }
        net
    }
}

/// Stage columns of one router, indexed by port slot (0 = parent,
/// 1.. = children).
struct RouterPorts {
    ins: Vec<Option<ElementId>>,
    outs: Vec<Option<ElementId>>,
}

struct Builder {
    cfg: TreeNetworkConfig,
    net: Network,
    /// Subtree port range (lo, hi) per node.
    ranges: Vec<(u32, u32)>,
    /// Router in/out-stage polarity per node.
    router_polarity: Vec<ClockPolarity>,
    /// Ring partners per port (`u32::MAX` = none): [left, right].
    ring_partners: Vec<[u32; 2]>,
    /// Per-port injector element (source or tile) and its polarity.
    port_out: Vec<Option<(ElementId, ClockPolarity)>>,
    /// Per-port consumer element (sink or tile) and its polarity.
    port_in: Vec<Option<(ElementId, ClockPolarity)>>,
    /// Port ranges of the root router's child subtrees, in child order.
    /// These are the natural cut lines for the parallel kernel's shards.
    root_child_ranges: Vec<(u32, u32)>,
    /// Per-element shard hint: index into `root_child_ranges`, or
    /// `u32::MAX` for the root router itself.
    hints: Vec<u32>,
}

impl Builder {
    fn new(cfg: TreeNetworkConfig) -> Self {
        let tree = &cfg.tree;
        let net = Network::new(tree.num_ports() as u32);
        let mut ranges = vec![(0u32, 0u32); tree.node_count()];
        // Leaves carry a single port; routers cover their children's union.
        // Children have higher indices than parents, so sweep backwards.
        for idx in (0..tree.node_count()).rev() {
            let node = NodeId(idx as u32);
            if let Some(port) = tree.port_of(node) {
                ranges[idx] = (port.0, port.0 + 1);
            } else {
                let lo = tree
                    .children(node)
                    .iter()
                    .map(|c| ranges[c.index()].0)
                    .min()
                    .expect("routers have children");
                let hi = tree
                    .children(node)
                    .iter()
                    .map(|c| ranges[c.index()].1)
                    .max()
                    .expect("routers have children");
                ranges[idx] = (lo, hi);
            }
        }
        // Polarity of each router's in/out columns: the clock is inverted
        // once per register crossing on the link (k intermediate stages +
        // the receiving register = k+1 inversions).
        let mut router_polarity = vec![ClockPolarity::Rising; tree.node_count()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(tree.root());
        while let Some(node) = queue.pop_front() {
            for &child in tree.children(node) {
                if tree.is_router(child) {
                    let link = tree.uplink(child).expect("non-root");
                    let k = cfg.link_stages[link.index()];
                    let mut p = router_polarity[node.index()];
                    for _ in 0..=k {
                        p = p.inverted();
                    }
                    router_polarity[child.index()] = p;
                    queue.push_back(child);
                }
            }
        }
        // Ring partners: adjacent ports whose tree path crosses more than
        // one router (i.e. a subtree boundary worth shortcutting).
        let n = tree.num_ports();
        let mut ring_partners = vec![[u32::MAX; 2]; n];
        if cfg.ring_shortcuts {
            for i in 0..n.saturating_sub(1) {
                let (a, b) = (PortId(i as u32), PortId(i as u32 + 1));
                if tree.hops(a, b).expect("ports are in range") > 1 {
                    ring_partners[i][1] = b.0;
                    ring_partners[i + 1][0] = a.0;
                }
            }
        }
        let root_child_ranges = tree
            .children(tree.root())
            .iter()
            .map(|c| ranges[c.index()])
            .collect();
        Self {
            cfg,
            net,
            ranges,
            router_polarity,
            ring_partners,
            port_out: vec![None; n],
            port_in: vec![None; n],
            root_child_ranges,
            hints: Vec::new(),
        }
    }

    /// The root-child subtree covering `port`, or `u32::MAX` when no
    /// subtree does (never happens for in-range ports).
    fn subtree_of_port(&self, port: u32) -> u32 {
        self.root_child_ranges
            .iter()
            .position(|&(lo, hi)| (lo..hi).contains(&port))
            .map_or(u32::MAX, |i| i as u32)
    }

    /// The root-child subtree containing `node` (`u32::MAX` for the root
    /// router itself).
    fn subtree_of_node(&self, tree: &TreeTopology, node: NodeId) -> u32 {
        if node == tree.root() {
            u32::MAX
        } else {
            self.subtree_of_port(self.ranges[node.index()].0)
        }
    }

    /// Tags every element created since the last call with shard hint
    /// `group`. Called after each construction step so the hint vector
    /// tracks the element list exactly.
    fn mark(&mut self, group: u32) {
        self.hints.resize(self.net.element_count(), group);
    }

    fn build(mut self) -> Network {
        let tree = self.cfg.tree.clone();
        // 1. Create every router's stage columns.
        let mut routers: Vec<Option<RouterPorts>> = Vec::with_capacity(tree.node_count());
        for idx in 0..tree.node_count() {
            let node = NodeId(idx as u32);
            routers.push(if tree.is_router(node) {
                let ports = self.build_router(&tree, node);
                self.mark(self.subtree_of_node(&tree, node));
                Some(ports)
            } else {
                None
            });
        }
        // 2. Wire links (router↔router and router↔leaf) with their
        //    intermediate pipeline stages.
        for link in tree.links() {
            let (child, parent) = tree.link_endpoints(link);
            let slot = tree
                .children(parent)
                .iter()
                .position(|&c| c == child)
                .expect("child is listed under its parent")
                + 1; // slot 0 is the parent port
            let k = self.cfg.link_stages[link.index()];
            let parent_out = routers[parent.index()]
                .as_ref()
                .expect("parents are routers")
                .outs[slot]
                .expect("child slots always exist");
            let parent_in = routers[parent.index()]
                .as_ref()
                .expect("parents are routers")
                .ins[slot]
                .expect("child slots always exist");
            let p_parent = self.router_polarity[parent.index()];

            if let Some(port) = tree.port_of(child) {
                // Leaf: downstream channel feeds the sink/tile, upstream
                // channel is fed by the source/tile.
                let end_pol = Self::polarity_after(p_parent, k + 1);
                let (injector, consumer, tree_entry) = if let Some(tiles) = self.cfg.tiles {
                    let role = if port.0 % 2 == 0 {
                        TileRole::Processor {
                            pattern: self.cfg.patterns[port.index()],
                            max_outstanding: tiles.max_outstanding,
                        }
                    } else {
                        TileRole::Memory {
                            service_cycles: tiles.service_cycles,
                        }
                    };
                    let tile = self.net.add_tile(port, role, end_pol, self.cfg.seed);
                    self.chain(parent_out, tile, k, p_parent, &format!("l{}d", link.0));
                    let entry = self.chain(tile, parent_in, k, end_pol, &format!("l{}u", link.0));
                    (tile, tile, entry)
                } else {
                    let sink = self.net.add_sink(port, self.cfg.sink_mode, end_pol);
                    self.chain(parent_out, sink, k, p_parent, &format!("l{}d", link.0));
                    let source = self.net.add_source(
                        port,
                        self.cfg.patterns[port.index()],
                        end_pol,
                        self.cfg.seed,
                    );
                    let entry = self.chain(source, parent_in, k, end_pol, &format!("l{}u", link.0));
                    (source, sink, entry)
                };
                self.port_out[port.index()] = Some((injector, end_pol));
                self.port_in[port.index()] = Some((consumer, end_pol));
                // The tree-side entry of a ring-equipped port must not
                // capture ring-bound flits. With intermediate link stages
                // the first of them filters; otherwise the router's input
                // stage (whose only upstream is this port) does.
                let [left, right] = self.ring_partners[port.index()];
                if left != u32::MAX || right != u32::MAX {
                    self.net
                        .set_filter(tree_entry, RouteFilter::DestNotIn { a: left, b: right });
                }
                self.mark(self.subtree_of_port(port.0));
            } else {
                let child_ports = routers[child.index()].as_ref().expect("router");
                let child_in = child_ports.ins[0].expect("non-root routers have a parent port");
                let child_out = child_ports.outs[0].expect("non-root routers have a parent port");
                self.chain(parent_out, child_in, k, p_parent, &format!("l{}d", link.0));
                let p_child = self.router_polarity[child.index()];
                self.chain(child_out, parent_in, k, p_child, &format!("l{}u", link.0));
                self.mark(self.subtree_of_node(&tree, child));
            }
        }
        // Ring shortcut channels: injector(i) -> sync stages -> consumer(j).
        for i in 0..self.ring_partners.len() {
            let partners = self.ring_partners[i];
            for j in partners {
                if j == u32::MAX {
                    continue;
                }
                let (from, from_pol) = self.port_out[i].expect("all ports wired");
                let (to, to_pol) = self.port_in[j as usize].expect("all ports wired");
                // Brute-force synchroniser: >= 5 half-cycle stages, parity
                // adjusted so the chain lands on the consumer's edge.
                let n = if to_pol == Self::polarity_after(from_pol, 5 + 1) {
                    5
                } else {
                    6
                };
                let entry = self.net.add_stage(
                    format!("ring{i}-{j}.0"),
                    from_pol.inverted(),
                    RouteFilter::DestIs { port: j },
                    Arbitration::Priority,
                );
                self.net.connect(from, entry);
                self.chain(
                    entry,
                    to,
                    n - 1,
                    from_pol.inverted(),
                    &format!("ring{i}-{j}"),
                );
                // Ring synchronisers sit between two subtrees; keep them
                // with the consumer so the arrival edge stays shard-local.
                self.mark(self.subtree_of_port(j));
            }
        }
        debug_assert_eq!(self.hints.len(), self.net.element_count());
        // The shard hints double as clock domains: each root-child subtree
        // hangs off one branch of the clock tree, so a clock-node fault on
        // that branch freezes exactly the elements the hint groups.
        let ports = (0..tree.num_ports())
            .map(|p| self.subtree_of_port(p as u32))
            .collect();
        let topology = crate::fault::ClockTopology {
            elements: self.hints.clone(),
            ports,
            count: self.root_child_ranges.len() as u32,
            backend: self.cfg.clock_backend,
        };
        self.net.set_clock_domains(topology);
        let hints = std::mem::take(&mut self.hints);
        self.net.set_shard_hints(hints);
        self.net.finalize();
        self.net
    }

    fn polarity_after(start: ClockPolarity, inversions: usize) -> ClockPolarity {
        if inversions.is_multiple_of(2) {
            start
        } else {
            start.inverted()
        }
    }

    /// Connects `from → [k stages] → to`, with the first stage inverted
    /// from `from_pol`. Returns the chain's entry element — the first
    /// created stage, or `to` itself when `k == 0` — which is where a
    /// route filter guarding the whole chain belongs.
    fn chain(
        &mut self,
        from: ElementId,
        to: ElementId,
        k: usize,
        from_pol: ClockPolarity,
        label: &str,
    ) -> ElementId {
        let mut prev = from;
        let mut pol = from_pol;
        let mut entry = to;
        for s in 0..k {
            pol = pol.inverted();
            let stage = self.net.add_stage(
                format!("{label}.{s}"),
                pol,
                RouteFilter::Any,
                Arbitration::Priority,
            );
            if s == 0 {
                entry = stage;
            }
            self.net.connect(prev, stage);
            prev = stage;
        }
        self.net.connect(prev, to);
        entry
    }

    /// Creates the stage columns of one router and wires its crossbar.
    fn build_router(&mut self, tree: &TreeTopology, node: NodeId) -> RouterPorts {
        let p = self.router_polarity[node.index()];
        let arity = tree.children(node).len();
        let slots = arity + 1;
        let is_root = tree.parent(node).is_none();
        let deep = tree.router_class().forward_latency_half_cycles() == 5;
        let (sub_lo, sub_hi) = self.ranges[node.index()];

        let mut ins: Vec<Option<ElementId>> = vec![None; slots];
        let mut pres: Vec<Option<ElementId>> = vec![None; slots];
        let mut outs: Vec<Option<ElementId>> = vec![None; slots];

        // Input columns.
        for slot in 0..slots {
            if slot == 0 && is_root {
                continue;
            }
            let in_stage = self.net.add_stage(
                format!("r{}.in{}", node.0, slot),
                p,
                RouteFilter::Any,
                Arbitration::Priority,
            );
            ins[slot] = Some(in_stage);
            if deep {
                let pre = self.net.add_stage(
                    format!("r{}.pre{}", node.0, slot),
                    p.inverted(),
                    RouteFilter::Any,
                    Arbitration::Priority,
                );
                self.net.connect(in_stage, pre);
                pres[slot] = Some(pre);
            } else {
                pres[slot] = Some(in_stage);
            }
        }

        // Output columns with the arbitrated mid stage.
        for (slot, out_slot) in outs.iter_mut().enumerate() {
            if slot == 0 && is_root {
                continue;
            }
            let filter = if slot == 0 {
                RouteFilter::DestOutsideRange {
                    lo: sub_lo,
                    hi: sub_hi,
                }
            } else {
                let child = tree.children(node)[slot - 1];
                let (lo, hi) = self.ranges[child.index()];
                RouteFilter::DestInRange { lo, hi }
            };
            // Mid polarity: the stage right after the input column.
            let mid_pol = if deep { p } else { p.inverted() };
            // Processor priority: at a leaf router's memory-side output
            // (odd port), scan the processor's input column first.
            let (arb, upstream_order) =
                self.arbitration_for(tree, node, slot, &pres, is_root, slots);
            let mid = self
                .net
                .add_stage(format!("r{}.mid{}", node.0, slot), mid_pol, filter, arb);
            for u in upstream_order {
                self.net.connect(u, mid);
            }
            let out = if deep {
                let post = self.net.add_stage(
                    format!("r{}.post{}", node.0, slot),
                    mid_pol.inverted(),
                    RouteFilter::Any,
                    Arbitration::Priority,
                );
                self.net.connect(mid, post);
                let out = self.net.add_stage(
                    format!("r{}.out{}", node.0, slot),
                    p,
                    RouteFilter::Any,
                    Arbitration::Priority,
                );
                self.net.connect(post, out);
                out
            } else {
                let out = self.net.add_stage(
                    format!("r{}.out{}", node.0, slot),
                    p,
                    RouteFilter::Any,
                    Arbitration::Priority,
                );
                self.net.connect(mid, out);
                out
            };
            *out_slot = Some(out);
        }

        RouterPorts { ins, outs }
    }

    /// Chooses arbitration policy and upstream order for the mid stage of
    /// `slot`.
    fn arbitration_for(
        &self,
        tree: &TreeTopology,
        node: NodeId,
        slot: usize,
        pres: &[Option<ElementId>],
        is_root: bool,
        slots: usize,
    ) -> (Arbitration, Vec<ElementId>) {
        let mut order: Vec<usize> = (0..slots)
            .filter(|&s| s != slot && !(s == 0 && is_root) && pres[s].is_some())
            .collect();
        let mut arb = Arbitration::RoundRobin;
        if self.cfg.processor_priority && slot > 0 {
            let child = tree.children(node)[slot - 1];
            if let Some(port) = tree.port_of(child) {
                if port.0 % 2 == 1 {
                    // Memory port: its processor is the sibling leaf
                    // (even port), reachable through another child slot.
                    let proc_slot = tree
                        .children(node)
                        .iter()
                        .position(|&c| tree.port_of(c) == Some(PortId(port.0 - 1)))
                        .map(|i| i + 1);
                    if let Some(ps) = proc_slot {
                        order.sort_by_key(|&s| if s == ps { 0 } else { 1 });
                        arb = Arbitration::Priority;
                    }
                }
            }
        }
        (
            arb,
            order
                .into_iter()
                .map(|s| pres[s].expect("filtered to existing columns"))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficPhase;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn binary(ports: usize) -> TreeTopology {
        TreeTopology::binary(ports).expect("power of 2")
    }

    #[test]
    fn element_count_matches_structure() {
        // 8-port binary tree: 7 routers. Root: 2 ports × 3 stages = 6;
        // others: 3 ports × 3 stages = 9. Plus 8 sources + 8 sinks.
        let net = TreeNetworkConfig::new(binary(8)).build();
        let expected = 6 + 6 * 9 + 8 + 8;
        assert_eq!(net.element_count(), expected);
    }

    #[test]
    fn uniform_traffic_is_delivered_correctly() {
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::uniform(0.2))
            .with_seed(11)
            .build();
        net.run_cycles(3000);
        assert!(net.drain(500), "network must drain");
        let report = net.report();
        assert!(report.delivered > 1000, "{report}");
        assert!(report.is_correct(), "{report}");
    }

    #[test]
    fn neighbor_traffic_has_minimal_latency() {
        // Tile-local traffic crosses one 3×3 router: 3 half-cycles of
        // router plus source/sink handoffs.
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::Neighbor { rate: 0.05 })
            .with_seed(3)
            .build();
        net.run_cycles(2000);
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        assert!(report.delivered > 0);
        // 1 router (1.5 cycles) + sink capture (0.5) = 2 cycles at low load.
        assert!(
            report.latency.mean_cycles() < 3.0,
            "local latency {}",
            report.latency.mean_cycles()
        );
    }

    #[test]
    fn cross_root_latency_reflects_hop_count() {
        // Only port 0 talks, to port 15: 7 routers (hops) × 1.5 cycles.
        let tree = binary(16);
        let mut cfg = TreeNetworkConfig::new(tree);
        cfg = cfg.with_port_pattern(
            PortId(0),
            TrafficPattern::Hotspot {
                rate: 0.02,
                target: PortId(15),
                fraction: 1.0,
            },
        );
        let mut net = cfg.with_seed(5).build();
        net.run_cycles(4000);
        let report = net.report();
        assert!(report.delivered > 0);
        assert!(report.is_correct(), "{report}");
        // 7 routers × 1.5 + sink capture ≈ 11 cycles at low load.
        let mean = report.latency.mean_cycles();
        assert!((10.0..13.0).contains(&mean), "cross-root latency {mean}");
    }

    #[test]
    fn quad_tree_also_routes_correctly() {
        let tree = TreeTopology::quad(16).expect("power of 4");
        let mut net = TreeNetworkConfig::new(tree)
            .with_pattern(TrafficPattern::uniform(0.15))
            .with_seed(7)
            .build();
        net.run_cycles(3000);
        assert!(net.drain(500));
        let report = net.report();
        assert!(report.delivered > 500, "{report}");
        assert!(report.is_correct(), "{report}");
    }

    #[test]
    fn pipelined_links_still_deliver_correctly() {
        use icnoc_topology::Floorplan;
        let tree = binary(64);
        let plan = Floorplan::h_tree(&tree, Millimeters::new(10.0), Millimeters::new(10.0));
        let mut net = TreeNetworkConfig::new(tree)
            .with_link_stages_from(&plan, Millimeters::new(1.25))
            .with_pattern(TrafficPattern::uniform(0.05))
            .with_seed(13)
            .build();
        net.run_cycles(2000);
        assert!(net.drain(500));
        let report = net.report();
        assert!(report.delivered > 500, "{report}");
        assert!(report.is_correct(), "{report}");
    }

    #[test]
    fn hotspot_creates_back_pressure_without_loss() {
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::Hotspot {
                rate: 0.6,
                target: PortId(0),
                fraction: 0.8,
            })
            .with_seed(17)
            .build();
        net.run_cycles(2000);
        assert!(net.drain(2000));
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        assert!(report.source_stall_edges > 0, "hotspot must congest");
    }

    #[test]
    fn processor_priority_beats_round_robin_for_local_access() {
        // Processor port 2 sends to its memory port 3 while a remote
        // aggressor (port 0) floods the same memory. With priority on, the
        // processor's latency stays near the contention-free minimum.
        let run = |priority: bool| {
            let mut net = TreeNetworkConfig::new(binary(8))
                .with_port_pattern(PortId(2), TrafficPattern::Neighbor { rate: 1.0 })
                .with_port_pattern(
                    PortId(0),
                    TrafficPattern::Hotspot {
                        rate: 1.0,
                        target: PortId(3),
                        fraction: 1.0,
                    },
                )
                .with_processor_priority(priority)
                .with_seed(23)
                .build();
            net.run_cycles(2000);
            net.report()
        };
        let with = run(true);
        let without = run(false);
        assert!(with.is_correct() && without.is_correct());
        // Both deliver, but priority shifts bandwidth towards the
        // processor: its stall count drops.
        assert!(
            with.source_stall_edges < without.source_stall_edges,
            "priority {} vs round-robin {}",
            with.source_stall_edges,
            without.source_stall_edges
        );
    }

    #[test]
    fn wormhole_packets_deliver_without_interleaving() {
        // Two processors stream 4-flit packets at the same memory port:
        // the head-locks must serialise whole packets at every merge.
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_port_pattern(
                PortId(0),
                TrafficPattern::Hotspot {
                    rate: 0.8,
                    target: PortId(7),
                    fraction: 1.0,
                },
            )
            .with_port_pattern(
                PortId(15),
                TrafficPattern::Hotspot {
                    rate: 0.8,
                    target: PortId(7),
                    fraction: 1.0,
                },
            )
            .with_packet_length(4)
            .with_seed(41)
            .build();
        net.run_cycles(2_000);
        assert!(net.drain(2_000));
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        assert_eq!(report.interleaved, 0);
        assert!(report.packets_delivered > 100, "{report}");
        assert_eq!(report.packets_sent, report.packets_delivered);
        assert_eq!(report.sent, 4 * report.packets_sent);
    }

    #[test]
    fn wormhole_uniform_traffic_stays_correct() {
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::uniform(0.1))
            .with_packet_length(3)
            .with_seed(43)
            .build();
        net.run_cycles(2_000);
        assert!(net.drain(2_000));
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        assert_eq!(report.packets_sent, report.packets_delivered);
    }

    #[test]
    fn single_flit_packets_count_as_packets() {
        let mut net = TreeNetworkConfig::new(binary(8))
            .with_pattern(TrafficPattern::uniform(0.2))
            .with_seed(44)
            .build();
        net.run_cycles(500);
        net.drain(500);
        let report = net.report();
        assert_eq!(report.packets_sent, report.sent);
        assert_eq!(report.packets_delivered, report.delivered);
    }

    #[test]
    fn closed_loop_tiles_measure_round_trips() {
        // Processors hit their local memory: round trip = request leaf
        // router crossing + memory service + response crossing.
        let service = 4u64;
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::Neighbor { rate: 0.2 })
            .with_tiles(TileTraffic {
                max_outstanding: 4,
                service_cycles: service,
            })
            .with_seed(61)
            .build();
        net.run_cycles(3_000);
        assert!(net.drain(2_000), "requests and responses must drain");
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        assert!(report.responses > 200, "{report}");
        // Every request was answered.
        assert_eq!(report.responses * 2, report.delivered);
        // RTT ≈ 2 × (router 1.5 + handoff 0.5) + service.
        let rtt = report.round_trip.mean_cycles();
        let expected = 2.0 * 2.0 + service as f64;
        assert!(
            (rtt - expected).abs() < 1.5,
            "round trip {rtt} vs expected ~{expected}"
        );
    }

    #[test]
    fn closed_loop_outstanding_limit_bounds_in_flight_requests() {
        // max_outstanding 1 serialises each processor: responses ==
        // requests and throughput is RTT-bound.
        let mut net = TreeNetworkConfig::new(binary(8))
            .with_pattern(TrafficPattern::RandomMemory { rate: 1.0 })
            .with_tiles(TileTraffic {
                max_outstanding: 1,
                service_cycles: 2,
            })
            .with_seed(62)
            .build();
        net.run_cycles(1_000);
        assert!(net.drain(1_000));
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        // With 1 outstanding and RTT ~6 cycles, each of the 4 processors
        // completes at most ~1000/6 requests.
        let per_proc = report.responses as f64 / 4.0;
        assert!(per_proc < 1_000.0 / 5.0, "per-proc {per_proc}");
        assert!(per_proc > 50.0, "per-proc {per_proc}");
    }

    #[test]
    fn closed_loop_remote_memory_pays_hop_latency() {
        let run = |pattern: TrafficPattern| {
            let mut net = TreeNetworkConfig::new(binary(16))
                .with_pattern(pattern)
                .with_tiles(TileTraffic {
                    max_outstanding: 2,
                    service_cycles: 3,
                })
                .with_seed(63)
                .build();
            net.run_cycles(3_000);
            net.drain(2_000);
            net.report()
        };
        let local = run(TrafficPattern::Neighbor { rate: 0.1 });
        let remote = run(TrafficPattern::RandomMemory { rate: 0.1 });
        assert!(local.is_correct() && remote.is_correct());
        assert!(
            local.round_trip.mean_cycles() < remote.round_trip.mean_cycles(),
            "local {} vs remote {}",
            local.round_trip.mean_cycles(),
            remote.round_trip.mean_cycles()
        );
    }

    #[test]
    fn random_memory_pattern_targets_only_memories() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for cycle in 0..500 {
            if let TrafficPhase::Inject(dest) =
                (TrafficPattern::RandomMemory { rate: 1.0 }).decide(PortId(0), 16, cycle, &mut rng)
            {
                assert_eq!(dest.0 % 2, 1, "dest {dest} is not a memory port");
                assert!(dest.0 < 16);
            } else {
                panic!("rate 1.0 must inject");
            }
        }
    }

    #[test]
    fn random_memory_pattern_on_plain_sources_drains() {
        // Without tiles every port is a plain source, the odd (memory)
        // ones included; none may address itself, or its flit wedges.
        let mut net = TreeNetworkConfig::new(binary(64))
            .with_pattern(TrafficPattern::RandomMemory { rate: 0.2 })
            .with_seed(42)
            .build();
        net.run_cycles(200);
        assert!(net.drain(1_000), "memory traffic must drain");
        let report = net.report();
        assert!(report.delivered > 0 && report.is_correct(), "{report}");
    }

    #[test]
    fn ring_shortcut_beats_the_tree_across_the_root() {
        // Ports 7 and 8 of a 16-port binary tree sit in different root
        // subtrees: 7 routers (~10.5 cycles) via the tree, ~3 cycles via
        // the ring synchroniser.
        let run = |ring: bool| {
            let mut net = TreeNetworkConfig::new(binary(16))
                .with_port_pattern(
                    PortId(7),
                    TrafficPattern::Hotspot {
                        rate: 0.05,
                        target: PortId(8),
                        fraction: 1.0,
                    },
                )
                .with_ring_shortcuts(ring)
                .with_seed(71)
                .build();
            net.run_cycles(2_000);
            net.drain(500);
            net.report()
        };
        let tree_only = run(false);
        let ringed = run(true);
        assert!(tree_only.is_correct(), "{tree_only}");
        assert!(ringed.is_correct(), "{ringed}");
        assert_eq!(tree_only.delivered, ringed.delivered);
        assert!(
            ringed.latency.mean_cycles() + 5.0 < tree_only.latency.mean_cycles(),
            "ring {} vs tree {}",
            ringed.latency.mean_cycles(),
            tree_only.latency.mean_cycles()
        );
    }

    #[test]
    fn ring_shortcuts_leave_other_traffic_on_the_tree() {
        // Uniform traffic with rings: still correct, and intra-subtree
        // pairs are unaffected (they never had a ring).
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::uniform(0.1))
            .with_ring_shortcuts(true)
            .with_seed(72)
            .build();
        net.run_cycles(2_000);
        assert!(net.drain(1_000), "stall: {:?}", net.diagnose_stall());
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        assert!(report.delivered > 1_000);
    }

    #[test]
    fn ring_shortcuts_work_with_closed_loop_tiles() {
        // Requests to random memories, with every cross-boundary adjacent
        // pair ring-equipped: the whole closed loop must still balance.
        let mut net = TreeNetworkConfig::new(binary(16))
            .with_pattern(TrafficPattern::RandomMemory { rate: 0.3 })
            .with_tiles(TileTraffic {
                max_outstanding: 2,
                service_cycles: 3,
            })
            .with_ring_shortcuts(true)
            .with_seed(73)
            .build();
        net.run_cycles(2_000);
        assert!(net.drain(2_000), "stall: {:?}", net.diagnose_stall());
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        assert_eq!(report.responses * 2, report.delivered);
    }

    #[test]
    fn gating_statistics_resolve_per_router() {
        // Pure tile-local traffic never climbs the tree: the root router
        // stays fully gated while leaf routers work.
        let mut net = TreeNetworkConfig::new(binary(8))
            .with_pattern(TrafficPattern::Neighbor { rate: 0.8 })
            .with_seed(81)
            .build();
        net.run_cycles(1_000);
        let root = net.gating_for_label_prefix("r0.");
        assert!(root.total_edges() > 0);
        assert_eq!(root.enabled_edges(), 0, "root must idle: {root}");
        // Leaf routers (r3..r6 in an 8-port tree) carry all the traffic.
        let leaf = net.gating_for_label_prefix("r3.");
        assert!(leaf.enabled_edges() > 0, "leaf router must work: {leaf}");
    }

    #[test]
    fn ring_shortcuts_with_pipelined_leaf_links() {
        // A huge die forces intermediate stages onto the *leaf* links, so
        // the ring-exclusion filter must land on the first upstream chain
        // stage, not on the router input (regression test for the chain
        // entry identification).
        use icnoc_topology::Floorplan;
        let tree = binary(4);
        let plan = Floorplan::h_tree(&tree, Millimeters::new(40.0), Millimeters::new(40.0));
        let mut net = TreeNetworkConfig::new(tree)
            .with_link_stages_from(&plan, Millimeters::new(1.25))
            .with_ring_shortcuts(true)
            .with_pattern(TrafficPattern::uniform(0.2))
            .with_seed(97)
            .build();
        net.run_cycles(1_500);
        assert!(net.drain(2_000), "stall: {:?}", net.diagnose_stall());
        let report = net.report();
        assert!(report.is_correct(), "{report}");
        assert!(report.delivered > 300, "{report}");
    }

    #[test]
    fn traffic_decide_smoke() {
        // TrafficPhase is re-exported for custom harnesses; exercise it.
        let mut rng = StdRng::seed_from_u64(0);
        let phase = TrafficPattern::Saturate.decide(PortId(0), 4, 0, &mut rng);
        assert!(matches!(phase, TrafficPhase::Inject(_)));
    }
}
