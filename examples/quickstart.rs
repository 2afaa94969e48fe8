//! Quickstart: traverse an out-of-GPU-memory graph with EMOGI.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a random graph whose edge list exceeds the (scaled) GPU memory,
//! places it once per engine, runs BFS with EMOGI's zero-copy
//! merged+aligned kernels and with the UVM baseline, verifies both
//! against a CPU reference, and prints the measurements the paper's
//! Figures 8–10 are made of.

use emogi_repro::prelude::*;

fn main() {
    // ~34 MB of edges vs 16 MiB of (scaled) GPU memory: out of memory.
    let graph = generators::uniform_random(134_000, 32, 42);
    println!(
        "graph: {} vertices, {} directed edges, {:.1} MB edge list",
        graph.num_vertices(),
        graph.num_edges(),
        graph.edge_list_bytes(8) as f64 / 1e6
    );

    let source = 7;
    let reference = algo::bfs_levels(&graph, source);

    for (name, cfg) in [
        ("UVM baseline", EngineConfig::uvm_v100()),
        (
            "EMOGI / Naive",
            EngineConfig::emogi_v100().with_strategy(AccessStrategy::Naive),
        ),
        (
            "EMOGI / Merged",
            EngineConfig::emogi_v100().with_strategy(AccessStrategy::Merged),
        ),
        ("EMOGI / Merged+Aligned", EngineConfig::emogi_v100()),
    ] {
        let mut engine = Engine::load(cfg, &graph);
        let run = engine.bfs(source);
        assert_eq!(run.levels, reference, "{name} must agree with the CPU BFS");
        println!(
            "{name:>22}: {:>8.2} ms  |  {:>5.2} GB/s PCIe  |  amplification {:.2}  |  {} kernel launches",
            run.stats.elapsed_ns as f64 / 1e6,
            run.stats.avg_pcie_gbps(),
            run.stats.amplification(engine.dataset_bytes()),
            run.stats.kernel_launches,
        );
    }
    println!("\nall engines returned identical BFS levels ✓");
}
