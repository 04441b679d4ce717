//! Tree-vs-mesh comparison analytics (Section 3 of the paper).
//!
//! The paper argues the tree wins on worst-case hops (`2·log₂N − 1` vs
//! `2·√N`), router count/area, locality (neighbours cross a single 3×3
//! router) and — citing Lee's SoC keynote — on power even without link
//! power-reduction tricks. This module computes those metrics exactly over
//! a given port count. Uniform-traffic averages come from closed-form pair
//! counts (per link in a tree), never from walking the `N(N−1)` port pairs.

use crate::{
    AreaModel, Floorplan, LinkId, MeshTopology, NodeId, PortId, RouterClass, TopologyError,
    TreeTopology,
};
use icnoc_units::{Millimeters, Picojoules, SquareMillimeters};
use serde::{Deserialize, Serialize};

/// Per-flit energy cost of crossing one router, per mm² of router area.
///
/// Routers dominate NoC energy (buffering, arbitration, crossbar and the
/// clocked registers), which is the basis of the paper's tree-vs-mesh power
/// claim via \[12\]. 200 pJ/mm² puts a 32-bit 3×3 crossing at 2 pJ and a
/// 5×5 at 4.4 pJ — mid-range for published 0.13–0.18 µm routers.
pub const ROUTER_ENERGY_PER_MM2: f64 = 200.0;

/// Per-flit, per-mm wire energy: 32 signal wires × ½·C·V² × 0.25 switching
/// activity at the paper's 0.2 pF/mm and 1 V = 0.8 pJ/(flit·mm).
pub const WIRE_ENERGY_PER_MM: f64 = 0.8;

/// Ordered port pairs whose route crosses each link. Link `c → parent(c)`
/// separates the `s` ports under `c` from the other `N − s`, so exactly
/// `2·s·(N − s)` ordered pairs cross it — the link's load under uniform
/// all-to-all traffic.
fn link_crossings(tree: &TreeTopology) -> impl Iterator<Item = (LinkId, usize)> + '_ {
    let mut under = vec![0usize; tree.node_count()];
    for leaf in tree.leaves() {
        under[leaf.index()] = 1;
    }
    // Breadth-first ids put every parent before its children, so a
    // reverse pass completes each subtree before adding it to its parent.
    for i in (1..tree.node_count()).rev() {
        let parent = tree
            .parent(NodeId(i as u32))
            .expect("only the root lacks a parent");
        under[parent.index()] += under[i];
    }
    let n = tree.num_ports();
    tree.links().map(move |link| {
        let s = under[link.index()];
        (link, 2 * s * (n - s))
    })
}

/// Average hops over all ordered distinct port pairs (uniform random
/// traffic) in a tree.
///
/// Summed per link rather than per pair: a route's routers are its links
/// minus one, so `Σ hops = Σ_links 2·s(N−s) − N(N−1)`, an exact integer.
#[must_use]
pub fn tree_average_hops(tree: &TreeTopology) -> f64 {
    let n = tree.num_ports();
    let pairs = n * (n - 1);
    let crossings: usize = link_crossings(tree).map(|(_, c)| c).sum();
    (crossings - pairs) as f64 / pairs as f64
}

/// Average hops over all ordered distinct port pairs in a mesh.
///
/// Over ordered column pairs `Σ|x₁ − x₂| = (s³ − s)/3` for side `s`; each
/// recurs for `s²` row choices and rows contribute the same again. Every
/// distinct pair also counts its source router.
#[must_use]
pub fn mesh_average_hops(mesh: &MeshTopology) -> f64 {
    let s = mesh.side();
    let n = mesh.num_ports();
    let pairs = n * (n - 1);
    let manhattan = 2 * s * s * ((s * s * s - s) / 3);
    (manhattan + pairs) as f64 / pairs as f64
}

/// Average hops between tile-local port pairs `(2i, 2i+1)` — the paper's
/// processor↔local-memory traffic. 1 for any binary tree.
#[must_use]
pub fn tree_neighbor_hops(tree: &TreeTopology) -> f64 {
    let pairs = tree.num_ports() / 2;
    let total: usize = (0..pairs)
        .map(|i| {
            tree.hops(PortId(2 * i as u32), PortId(2 * i as u32 + 1))
                .expect("ports are in range")
        })
        .sum();
    total as f64 / pairs as f64
}

/// Average wire length traversed per flit under uniform traffic, using the
/// floorplan's link lengths: `Σ_links 2·s(N−s)·len(link)` over the pairs.
#[must_use]
pub fn tree_average_wire_length(tree: &TreeTopology, plan: &Floorplan) -> Millimeters {
    let n = tree.num_ports();
    let total: Millimeters = link_crossings(tree)
        .map(|(link, c)| plan.link_length(link) * c as f64)
        .sum();
    total / (n * (n - 1)) as f64
}

/// Average wire length per flit in a mesh on a square die: Manhattan hops ×
/// router pitch.
#[must_use]
pub fn mesh_average_wire_length(mesh: &MeshTopology, die_edge: Millimeters) -> Millimeters {
    let pitch = die_edge / mesh.side() as f64;
    // links traversed = hops − 1 (hops counts routers).
    let avg_links = mesh_average_hops(mesh) - 1.0;
    pitch * avg_links
}

/// Per-flit traversal energy: router crossings plus wire switching.
#[must_use]
pub fn traversal_energy(
    router_class: RouterClass,
    width_bits: u32,
    avg_hops: f64,
    avg_wire: Millimeters,
) -> Picojoules {
    let router_area = router_class.area(width_bits);
    let per_router = ROUTER_ENERGY_PER_MM2 * router_area.value();
    let width_scale = f64::from(width_bits) / 32.0;
    Picojoules::new(per_router * avg_hops + WIRE_ENERGY_PER_MM * width_scale * avg_wire.value())
}

/// Bisection width of a binary tree: splitting the network into its two
/// root subtrees severs exactly **one** bidirectional link (the root keeps
/// one child on its own side; only the other child's link is cut).
///
/// This is the tree's honest structural weakness against the mesh's `√N`
/// bisection, and the reason the paper leans on application locality
/// ("cores which communicate a lot will be clustered").
#[must_use]
pub fn tree_bisection_links(_tree: &TreeTopology) -> usize {
    1
}

/// Bisection width of a `side × side` mesh: `side` links cross the cut.
#[must_use]
pub fn mesh_bisection_links(mesh: &MeshTopology) -> usize {
    mesh.side()
}

/// One row of the tree-vs-mesh comparison table (experiment E6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Network port count `N`.
    pub ports: usize,
    /// Tree worst-case hops, `2·log₂N − 1`.
    pub tree_worst_hops: usize,
    /// Mesh worst-case hops, `≈2·√N`.
    pub mesh_worst_hops: usize,
    /// Tree average hops under uniform traffic.
    pub tree_avg_hops: f64,
    /// Mesh average hops under uniform traffic.
    pub mesh_avg_hops: f64,
    /// Tree hops between tile-local neighbours.
    pub tree_neighbor_hops: f64,
    /// Router count in the binary tree (`N−1`).
    pub tree_routers: usize,
    /// Router count in the mesh (`N`).
    pub mesh_routers: usize,
    /// Binary-tree router area.
    pub tree_area: SquareMillimeters,
    /// Mesh router area.
    pub mesh_area: SquareMillimeters,
    /// Tree per-flit uniform-traffic energy.
    pub tree_energy: Picojoules,
    /// Mesh per-flit uniform-traffic energy.
    pub mesh_energy: Picojoules,
}

/// Computes the full tree-vs-mesh comparison for `ports` ports on a square
/// `die_edge` die with a `width_bits` data path.
///
/// # Errors
///
/// Returns a [`TopologyError`] if `ports` is not simultaneously a power of
/// two (binary tree) and a perfect square (mesh) — e.g. 64, 256, 1024.
pub fn compare(
    ports: usize,
    die_edge: Millimeters,
    width_bits: u32,
) -> Result<ComparisonRow, TopologyError> {
    let tree = TreeTopology::binary(ports)?;
    let mesh = MeshTopology::new(ports)?;
    let plan = Floorplan::h_tree(&tree, die_edge, die_edge);
    let model = AreaModel::nominal_90nm(width_bits);

    let tree_avg_hops = tree_average_hops(&tree);
    let mesh_avg_hops = mesh_average_hops(&mesh);
    let tree_wire = tree_average_wire_length(&tree, &plan);
    let mesh_wire = mesh_average_wire_length(&mesh, die_edge);

    Ok(ComparisonRow {
        ports,
        tree_worst_hops: tree.worst_case_hops(),
        mesh_worst_hops: mesh.worst_case_hops(),
        tree_avg_hops,
        mesh_avg_hops,
        tree_neighbor_hops: tree_neighbor_hops(&tree),
        tree_routers: tree.router_count(),
        mesh_routers: mesh.router_count(),
        tree_area: model.tree_router_area(&tree),
        mesh_area: model.mesh_total(ports),
        tree_energy: traversal_energy(RouterClass::Binary3x3, width_bits, tree_avg_hops, tree_wire),
        mesh_energy: traversal_energy(RouterClass::Quad5x5, width_bits, mesh_avg_hops, mesh_wire),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The all-pairs route walk `tree_average_hops` and
    /// `tree_average_wire_length` replace: average hops, and the average
    /// wire length under each plan, each summed pair by pair in port order.
    fn all_pairs_walk(tree: &TreeTopology, plans: &[Floorplan]) -> (f64, Vec<Millimeters>) {
        let n = tree.num_ports();
        let mut hops = 0usize;
        let mut wire = vec![Millimeters::ZERO; plans.len()];
        for a in tree.ports() {
            for b in tree.ports() {
                if a != b {
                    let path = tree.route(a, b).expect("ports are in range");
                    hops += path.router_hops();
                    for link in path.links(tree) {
                        for (total, plan) in wire.iter_mut().zip(plans) {
                            *total += plan.link_length(link);
                        }
                    }
                }
            }
        }
        let pairs = (n * (n - 1)) as f64;
        (
            hops as f64 / pairs,
            wire.into_iter().map(|total| total / pairs).collect(),
        )
    }

    /// The all-pairs loop `mesh_average_hops` replaces.
    fn all_pairs_mesh_hops(mesh: &MeshTopology) -> f64 {
        let n = mesh.num_ports();
        let mut total = 0usize;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    total += mesh
                        .hops(PortId(a as u32), PortId(b as u32))
                        .expect("ports are in range");
                }
            }
        }
        total as f64 / (n * (n - 1)) as f64
    }

    #[test]
    fn mesh_average_hops_matches_all_pairs_oracle() {
        for side in 2..=40 {
            let mesh = MeshTopology::new(side * side).expect("square");
            assert_eq!(
                mesh_average_hops(&mesh).to_bits(),
                all_pairs_mesh_hops(&mesh).to_bits(),
                "side {side}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Per-link sums equal the all-pairs walks: hop totals are exact
        /// integers, and every H-tree link on a 5, 10 or 20 mm die is a
        /// dyadic fraction of the edge, so those wire sums are exact too.
        /// Any other edge may differ only by the walk's rounding.
        #[test]
        fn tree_averages_match_all_pairs_oracle(
            binary_depth in 1u32..11, quad_depth in 1u32..6, edge in 0.5f64..50.0
        ) {
            let trees = [
                TreeTopology::binary(1 << binary_depth).expect("power of 2"),
                TreeTopology::quad(1 << (2 * quad_depth)).expect("power of 4"),
            ];
            for tree in &trees {
                let plans: Vec<Floorplan> = [5.0, 10.0, 20.0, edge]
                    .into_iter()
                    .map(|e| Floorplan::h_tree(tree, Millimeters::new(e), Millimeters::new(e)))
                    .collect();
                let (hops, wire) = all_pairs_walk(tree, &plans);
                prop_assert_eq!(tree_average_hops(tree).to_bits(), hops.to_bits());
                for (plan, oracle) in plans[..3].iter().zip(&wire) {
                    prop_assert_eq!(
                        tree_average_wire_length(tree, plan).value().to_bits(),
                        oracle.value().to_bits()
                    );
                }
                let fast = tree_average_wire_length(tree, &plans[3]).value();
                let oracle = wire[3].value();
                prop_assert!((fast - oracle).abs() <= 1e-9 * oracle, "{fast} vs {oracle}");
            }
        }
    }

    #[test]
    fn neighbor_traffic_crosses_one_router_in_binary_tree() {
        let tree = TreeTopology::binary(64).expect("valid");
        assert_eq!(tree_neighbor_hops(&tree), 1.0);
    }

    #[test]
    fn worst_case_formulas_at_64_ports() {
        let row = compare(64, Millimeters::new(10.0), 32).expect("64 works for both");
        assert_eq!(row.tree_worst_hops, 11); // 2·log2(64) − 1
        assert_eq!(row.mesh_worst_hops, 15); // 2·(8−1)+1 ≈ 2·√64
        assert!(row.tree_worst_hops < row.mesh_worst_hops);
    }

    #[test]
    fn average_hops_sanity() {
        let row = compare(64, Millimeters::new(10.0), 32).expect("valid");
        // Mesh 8×8 average Manhattan distance over distinct ordered pairs
        // is 16/3, plus 1 router = 19/3 ≈ 6.33.
        assert!((row.mesh_avg_hops - 19.0 / 3.0).abs() < 1e-9);
        // Tree uniform traffic mostly crosses high levels: between the
        // neighbour case (1) and the worst case (11).
        assert!(row.tree_avg_hops > 5.0 && row.tree_avg_hops < 11.0);
    }

    #[test]
    fn tree_beats_mesh_on_area_and_router_count_shape() {
        let row = compare(64, Millimeters::new(10.0), 32).expect("valid");
        assert_eq!(row.tree_routers, 63);
        assert_eq!(row.mesh_routers, 64);
        assert!(row.tree_area < row.mesh_area);
    }

    #[test]
    fn tree_beats_mesh_on_energy_as_paper_claims() {
        // Section 3 (citing [12]): "a tree is a power-wise better choice
        // than a mesh" even with no link power reduction.
        let row = compare(64, Millimeters::new(10.0), 32).expect("valid");
        assert!(
            row.tree_energy < row.mesh_energy,
            "tree {} vs mesh {}",
            row.tree_energy,
            row.mesh_energy
        );
    }

    #[test]
    fn comparison_scales_to_256_ports() {
        let row = compare(256, Millimeters::new(20.0), 32).expect("256 works for both");
        assert_eq!(row.tree_worst_hops, 15); // 2·8−1
        assert_eq!(row.mesh_worst_hops, 31);
        assert!(row.tree_energy < row.mesh_energy);
    }

    #[test]
    fn non_common_port_count_is_an_error() {
        // 32 is a power of two but not a perfect square.
        assert!(compare(32, Millimeters::new(10.0), 32).is_err());
    }

    #[test]
    fn bisection_favours_the_mesh() {
        let tree = TreeTopology::binary(64).expect("valid");
        let mesh = MeshTopology::new(64).expect("valid");
        assert_eq!(tree_bisection_links(&tree), 1);
        assert_eq!(mesh_bisection_links(&mesh), 8);
    }

    #[test]
    fn mesh_wire_length_uses_pitch() {
        let mesh = MeshTopology::new(64).expect("valid");
        let avg = mesh_average_wire_length(&mesh, Millimeters::new(10.0));
        // 16/3 links × 1.25 mm pitch
        assert!((avg.value() - 16.0 / 3.0 * 1.25).abs() < 1e-9);
    }
}
