//! A simulated 2-D mesh NoC — the topology baseline of Section 3.
//!
//! Routers are 5×5 (four neighbours + local port) with dimension-ordered
//! XY routing, which is deadlock-free without virtual channels. Router
//! depth matches the tree comparison (3 half-cycle stages per router), so
//! the latency difference between mesh and tree measured here is the
//! *topological* difference the paper argues about, not a router
//! micro-architecture artefact.

use icnoc_clock::{ClockPolarity, GlobalClockTree};
use icnoc_sim::{
    Arbitration, MeshDirection, Network, RouteFilter, SimReport, SinkMode, TrafficPattern,
};
use icnoc_topology::{MeshTopology, PortId, TopologyError};
use icnoc_units::{Gigahertz, Millimeters, Milliwatts, Picoseconds};

/// A globally synchronous mesh NoC baseline, simulated with the same
/// element engine as the IC-NoC.
///
/// The mesh grid is bipartite, so the engine's alternating-edge discipline
/// maps onto it directly (routers chequerboard between clock phases); what
/// distinguishes this baseline from the IC-NoC is the **topology** (XY mesh
/// vs tree) and the **clock cost** — a mesh cannot forward its clock along
/// a spanning tree of its links without giving up the skew correlation, so
/// it pays for a skew-balanced global tree, exposed via
/// [`SynchronousMesh::clock_power`].
#[derive(Debug, Clone)]
pub struct SynchronousMesh {
    topology: MeshTopology,
}

impl SynchronousMesh {
    /// Creates a mesh baseline with `ports` routers (one port each).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::PortCountNotSquare`] unless `ports` is a
    /// perfect square ≥ 4.
    pub fn new(ports: usize) -> Result<Self, TopologyError> {
        Ok(Self {
            topology: MeshTopology::new(ports)?,
        })
    }

    /// The underlying mesh topology.
    #[must_use]
    pub fn topology(&self) -> &MeshTopology {
        &self.topology
    }

    /// Builds the runnable network with `pattern` on every port.
    #[must_use]
    pub fn network(&self, pattern: TrafficPattern, seed: u64) -> Network {
        let side = self.topology.side();
        let mut net = Network::new(self.topology.num_ports() as u32);
        const DIRS: [MeshDirection; 5] = [
            MeshDirection::East,
            MeshDirection::West,
            MeshDirection::North,
            MeshDirection::South,
            MeshDirection::Local,
        ];

        // Per router: in/mid/out stages per direction slot.
        let mut ins = vec![[None; 5]; side * side];
        let mut outs = vec![[None; 5]; side * side];
        for y in 0..side {
            for x in 0..side {
                let r = y * side + x;
                let p = if (x + y) % 2 == 0 {
                    ClockPolarity::Rising
                } else {
                    ClockPolarity::Falling
                };
                let exists = |d: MeshDirection| match d {
                    MeshDirection::East => x + 1 < side,
                    MeshDirection::West => x > 0,
                    MeshDirection::North => y + 1 < side,
                    MeshDirection::South => y > 0,
                    MeshDirection::Local => true,
                };
                for (slot, dir) in DIRS.iter().enumerate() {
                    if !exists(*dir) {
                        continue;
                    }
                    ins[r][slot] = Some(net.add_stage(
                        format!("m{r}.in{slot}"),
                        p,
                        RouteFilter::Any,
                        Arbitration::Priority,
                    ));
                    outs[r][slot] = Some(net.add_stage(
                        format!("m{r}.out{slot}"),
                        p,
                        RouteFilter::Any,
                        Arbitration::Priority,
                    ));
                }
                // Arbitrated mid stage per output direction.
                for (slot, dir) in DIRS.iter().enumerate() {
                    let Some(out) = outs[r][slot] else { continue };
                    let mid = net.add_stage(
                        format!("m{r}.mid{slot}"),
                        p.inverted(),
                        RouteFilter::MeshOutput {
                            side: side as u32,
                            x: x as u32,
                            y: y as u32,
                            dir: *dir,
                        },
                        Arbitration::RoundRobin,
                    );
                    for (in_slot, _) in DIRS.iter().enumerate() {
                        if in_slot == slot {
                            continue; // no U-turns
                        }
                        if let Some(in_stage) = ins[r][in_slot] {
                            net.connect(in_stage, mid);
                        }
                    }
                    net.connect(mid, out);
                }
            }
        }

        // Inter-router links (out -> neighbouring in) and local ports.
        for y in 0..side {
            for x in 0..side {
                let r = y * side + x;
                let rp = if (x + y) % 2 == 0 {
                    ClockPolarity::Rising
                } else {
                    ClockPolarity::Falling
                };
                // slot order: E, W, N, S, Local.
                if x + 1 < side {
                    let east = y * side + x + 1;
                    net.connect(
                        outs[r][0].expect("east port exists"),
                        ins[east][1].expect("west port of east neighbour"),
                    );
                }
                if x > 0 {
                    let west = y * side + x - 1;
                    net.connect(
                        outs[r][1].expect("west port exists"),
                        ins[west][0].expect("east port of west neighbour"),
                    );
                }
                if y + 1 < side {
                    let north = (y + 1) * side + x;
                    net.connect(
                        outs[r][2].expect("north port exists"),
                        ins[north][3].expect("south port of north neighbour"),
                    );
                }
                if y > 0 {
                    let south = (y - 1) * side + x;
                    net.connect(
                        outs[r][3].expect("south port exists"),
                        ins[south][2].expect("north port of south neighbour"),
                    );
                }
                let port = PortId(r as u32);
                let src = net.add_source(port, pattern, rp.inverted(), seed);
                net.connect(src, ins[r][4].expect("local port exists"));
                let sink = net.add_sink(port, SinkMode::AlwaysAccept, rp.inverted());
                net.connect(outs[r][4].expect("local port exists"), sink);
            }
        }
        net.finalize();
        net
    }

    /// Runs `cycles` of `pattern` on every port, drains, and reports.
    #[must_use]
    pub fn simulate(&self, pattern: TrafficPattern, cycles: u64, seed: u64) -> SimReport {
        let mut net = self.network(pattern, seed);
        let _ = net.run_and_drain(cycles);
        net.report()
    }

    /// Clock-distribution power of the globally synchronous mesh: a
    /// balanced tree to every router, engineered to `target_skew`.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if the router count is not a power of
    /// two (the balanced H-tree model requires it).
    pub fn clock_power(
        &self,
        die_edge: Millimeters,
        f: Gigahertz,
        target_skew: Picoseconds,
    ) -> Result<Milliwatts, TopologyError> {
        let tree = GlobalClockTree::balanced(self.topology.num_ports(), die_edge, target_skew)?;
        Ok(tree.power(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_delivers_uniform_traffic_correctly() {
        let mesh = SynchronousMesh::new(16).expect("square");
        let report = mesh.simulate(TrafficPattern::uniform(0.15), 3_000, 21);
        assert!(report.delivered > 1_000, "{report}");
        assert!(report.is_correct(), "{report}");
    }

    #[test]
    fn mesh_latency_tracks_hop_count() {
        // Light all-to-one traffic on a 4×4 mesh: several router crossings
        // per delivery at near-zero load.
        let mesh = SynchronousMesh::new(16).expect("square");
        let pattern = TrafficPattern::Hotspot {
            rate: 0.02,
            target: PortId(15),
            fraction: 1.0,
        };
        let report = mesh.simulate(pattern, 3_000, 5);
        assert!(report.is_correct(), "{report}");
        assert!(report.latency.mean_cycles() > 3.0);
    }

    #[test]
    fn neighbour_traffic_beats_uniform_on_latency() {
        let mesh = SynchronousMesh::new(16).expect("square");
        let local = mesh.simulate(TrafficPattern::Neighbor { rate: 0.1 }, 2_000, 7);
        let uniform = mesh.simulate(TrafficPattern::uniform(0.1), 2_000, 7);
        assert!(local.is_correct() && uniform.is_correct());
        assert!(local.latency.mean_cycles() < uniform.latency.mean_cycles());
    }

    #[test]
    fn tree_beats_mesh_on_cross_network_worst_case() {
        // The headline Section 3 claim, measured in simulation: worst-case
        // (corner/extreme port) latency is lower on the 64-port tree than
        // on the 8×8 mesh.
        use icnoc::SystemBuilder;
        let tree_sys = SystemBuilder::demonstrator().build().expect("valid");
        let mut patterns = vec![TrafficPattern::Silent; 64];
        patterns[0] = TrafficPattern::Hotspot {
            rate: 0.02,
            target: PortId(63),
            fraction: 1.0,
        };
        let mut tree_net = tree_sys.network(&patterns, 31);
        tree_net.run_cycles(4_000);
        let tree_report = tree_net.report();

        let mesh = SynchronousMesh::new(64).expect("square");
        // Same extreme pair on the mesh: port 0 (corner) to port 63
        // (opposite corner). Only port 0 should inject, but the mesh
        // builder applies one pattern everywhere; hotspotting everyone at
        // 63 congests it, so use a very low rate to stay near zero-load.
        let mesh_report = mesh.simulate(
            TrafficPattern::Hotspot {
                rate: 0.005,
                target: PortId(63),
                fraction: 1.0,
            },
            4_000,
            31,
        );
        assert!(tree_report.is_correct() && mesh_report.is_correct());
        assert!(
            tree_report.latency.max_cycles() < mesh_report.latency.max_cycles(),
            "tree max {} vs mesh max {}",
            tree_report.latency.max_cycles(),
            mesh_report.latency.max_cycles()
        );
    }

    #[test]
    fn clock_power_exceeds_forwarded_equivalent() {
        let mesh = SynchronousMesh::new(64).expect("square");
        let p = mesh
            .clock_power(
                Millimeters::new(10.0),
                Gigahertz::new(1.0),
                Picoseconds::new(30.0),
            )
            .expect("64 is a power of two");
        let tree = GlobalClockTree::balanced(64, Millimeters::new(10.0), Picoseconds::new(30.0))
            .expect("valid");
        assert!(p > tree.forwarded_equivalent_power(Gigahertz::new(1.0)));
    }
}
