//! Social-network analytics on a Friendster-scale graph: the
//! analytics-service pattern the place-once, query-many engine exists
//! for. One EMOGI engine places the graph a single time, then serves a
//! whole dashboard of queries against that placement — BFS reach from
//! several members, community structure (connected components) and
//! influence scores (PageRank) — each verified against its CPU
//! reference. The UVM baseline and a Subway-style system run the same
//! queries for contrast.
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use emogi_repro::prelude::*;

fn main() {
    let d = DatasetKey::Fs.spec().generate();
    println!(
        "{} — {} members, {} friendships ({} MB of edges vs 16 MiB of GPU memory)\n",
        d.spec.name,
        d.graph.num_vertices(),
        d.graph.num_edges() / 2,
        d.graph.edge_list_bytes(8) / (1 << 20),
    );

    // One placement serves every query below.
    let mut emogi = Engine::load(EngineConfig::emogi_v100(), &d.graph);
    let mut uvm = Engine::load(EngineConfig::uvm_v100(), &d.graph);

    // Reachability from several members (multi-source BFS on one engine).
    let sources = d.sources(3);
    println!("BFS reach (same placement, {} sources):", sources.len());
    for &src in &sources {
        let reference = algo::bfs_levels(&d.graph, src);
        let reachable = reference.iter().filter(|&&l| l != UNVISITED).count();
        let run = emogi.bfs(src);
        assert_eq!(run.levels, reference);
        let uvm_run = uvm.bfs(src);
        assert_eq!(uvm_run.levels, reference);
        println!(
            "  member {src:>6}: {reachable:>6} reachable  |  EMOGI {:>7.2} ms  |  UVM {:>7.2} ms",
            run.stats.elapsed_ns as f64 / 1e6,
            uvm_run.stats.elapsed_ns as f64 / 1e6,
        );
    }

    // Community structure (connected components), same placements.
    let reference = algo::cc_labels(&d.graph);
    let communities = {
        let mut roots: Vec<u32> = reference.clone();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    };
    println!("\nconnected components: {communities} components");
    let run = emogi.cc();
    assert_eq!(run.comp, reference);
    println!(
        "  EMOGI: {:>7.2} ms over {} hook passes",
        run.stats.elapsed_ns as f64 / 1e6,
        run.hook_passes
    );
    let uvm_run = uvm.cc();
    assert_eq!(uvm_run.comp, reference);
    println!(
        "    UVM: {:>7.2} ms over {} hook passes",
        uvm_run.stats.elapsed_ns as f64 / 1e6,
        uvm_run.hook_passes
    );

    // Influence scores (PageRank) — a program the paper never shipped,
    // running through the same engine with zero driver changes.
    let pr = emogi.pagerank(0.85, 15);
    let reference = algo::pagerank(&d.graph, 0.85, 15);
    let mut top: Vec<(u32, f64)> = pr
        .ranks
        .iter()
        .copied()
        .enumerate()
        .map(|(v, r)| (v as u32, r))
        .collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (v, r) in &top[..3.min(top.len())] {
        assert!((r - reference[*v as usize]).abs() < 1e-9);
    }
    println!(
        "\nPageRank ({} iterations, {:.2} ms): top members {:?}",
        pr.iterations,
        pr.stats.elapsed_ns as f64 / 1e6,
        top[..3.min(top.len())]
            .iter()
            .map(|&(v, _)| v)
            .collect::<Vec<_>>()
    );

    // And the partitioning state of the art for contrast (4-byte edges).
    let src = sources[0];
    let mut subway = Engine::load(EngineConfig::subway_v100(), &d.graph);
    let run = subway.bfs(src);
    assert_eq!(run.levels, algo::bfs_levels(&d.graph, src));
    println!(
        "\nSubway-style BFS (4-byte edges, async subgraphs): {:.2} ms, {} subgraph transfers",
        run.stats.elapsed_ns as f64 / 1e6,
        subway.machine.kernel_launches
    );
}
