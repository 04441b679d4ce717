//! The Section 3 topology argument: binary tree vs 2-D mesh.
//!
//! Analytic comparison (hops, routers, area, per-flit energy) plus a
//! head-to-head simulation on identical router depth, under both the
//! mesh-friendly uniform workload and the locality-mapped workload the
//! paper argues applications should use.
//!
//! ```text
//! cargo run --release -p icnoc --example tree_vs_mesh
//! ```

use icnoc::{SystemBuilder, SystemError};
use icnoc_baseline::SynchronousMesh;
use icnoc_sim::TrafficPattern;
use icnoc_topology::{analysis, TreeKind};
use icnoc_units::Millimeters;

fn main() -> Result<(), SystemError> {
    println!("analytic comparison, 32-bit data path:\n");
    println!(
        "{:>6} {:>11} {:>11} {:>9} {:>9} {:>10} {:>10}",
        "ports", "tree worst", "mesh worst", "tree mm2", "mesh mm2", "tree pJ", "mesh pJ"
    );
    for (ports, die) in [(16usize, 5.0), (64, 10.0), (256, 20.0)] {
        let row = analysis::compare(ports, Millimeters::new(die), 32)
            .expect("powers of two that are perfect squares");
        println!(
            "{:>6} {:>11} {:>11} {:>9.2} {:>9.2} {:>10.1} {:>10.1}",
            ports,
            row.tree_worst_hops,
            row.mesh_worst_hops,
            row.tree_area.value(),
            row.mesh_area.value(),
            row.tree_energy.value(),
            row.mesh_energy.value()
        );
    }

    println!("\nsimulated at 64 ports (rate 5%):\n");
    let tree = SystemBuilder::new(TreeKind::Binary, 64).build()?;
    let mesh = SynchronousMesh::new(64).expect("64 is a perfect square");
    println!(
        "{:<12} {:<10} {:>9} {:>9} {:>9}",
        "fabric", "workload", "delivered", "avg lat", "max lat"
    );
    let workloads: [(&str, TrafficPattern); 2] = [
        ("uniform", TrafficPattern::uniform(0.05)),
        ("neighbour", TrafficPattern::Neighbor { rate: 0.05 }),
    ];
    for (name, pattern) in workloads {
        let tr = tree.simulate(pattern, 2_000, 11);
        let mr = mesh.simulate(pattern, 2_000, 11);
        assert!(tr.is_correct() && mr.is_correct());
        for (fabric, r) in [("binary tree", &tr), ("XY mesh", &mr)] {
            println!(
                "{:<12} {:<10} {:>9} {:>9.1} {:>9.1}",
                fabric,
                name,
                r.delivered,
                r.latency.mean_cycles(),
                r.latency.max_cycles()
            );
        }
    }

    println!(
        "\nWith locality (the mapping the paper assumes) the tree crosses a \
         single 3x3 router per transfer; the mesh's advantage only exists \
         under uniform traffic, and it pays 2x the silicon for it."
    );
    Ok(())
}
