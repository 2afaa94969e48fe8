//! Cross-engine correctness: every simulated engine (EMOGI's three access
//! strategies, the UVM baseline, HALO, Subway) must produce results
//! identical to the CPU reference algorithms on randomized graphs, for
//! every vertex program.

use emogi_repro::prelude::*;

fn engines() -> Vec<(&'static str, EngineConfig)> {
    vec![
        (
            "emogi-naive",
            EngineConfig::emogi_v100().with_strategy(AccessStrategy::Naive),
        ),
        (
            "emogi-merged",
            EngineConfig::emogi_v100().with_strategy(AccessStrategy::Merged),
        ),
        ("emogi-aligned", EngineConfig::emogi_v100()),
        ("emogi-hybrid", EngineConfig::hybrid_v100()),
        ("uvm-merged", EngineConfig::uvm_v100()),
        (
            "uvm-naive",
            EngineConfig::uvm_v100().with_strategy(AccessStrategy::Naive),
        ),
    ]
}

fn graph_zoo(seed: u64) -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("uniform", generators::uniform_random(600, 8, seed)),
        ("kron", generators::kronecker(9, 6, seed)),
        ("web", generators::web_crawl(700, 10, 60, 0.8, seed)),
        (
            "dense",
            generators::lognormal_dense(150, 60.0, 0.5, 16, seed),
        ),
    ]
}

#[test]
fn bfs_matches_reference_for_every_engine_and_graph_family() {
    for (gname, g) in graph_zoo(11) {
        let src = (0..g.num_vertices() as u32)
            .find(|&v| g.degree(v) > 0)
            .unwrap();
        let want = algo::bfs_levels(&g, src);
        for (ename, cfg) in engines() {
            let mut engine = Engine::load(cfg, &g);
            let run = engine.bfs(src);
            assert_eq!(run.levels, want, "{ename} on {gname}");
        }
    }
}

#[test]
fn sssp_matches_dijkstra_for_every_engine() {
    let g = generators::uniform_random(500, 6, 23);
    let w = datasets::generate_weights(g.num_edges(), 23);
    let want = algo::sssp_distances(&g, &w, 4);
    for (ename, cfg) in engines() {
        let mut engine = Engine::load(cfg, &g);
        let run = engine.sssp(&w, 4);
        for (v, &expect) in want.iter().enumerate() {
            let got = if run.dist[v] == INF {
                algo::UNREACHABLE
            } else {
                u64::from(run.dist[v])
            };
            assert_eq!(got, expect, "{ename}, vertex {v}");
        }
    }
}

#[test]
fn cc_matches_union_find_for_every_engine() {
    let g = generators::uniform_random(500, 4, 31);
    let want = algo::cc_labels(&g);
    for (ename, cfg) in engines() {
        let mut engine = Engine::load(cfg, &g);
        assert_eq!(engine.cc().comp, want, "{ename}");
    }
}

#[test]
fn pagerank_matches_reference_for_every_engine() {
    let g = generators::kronecker(9, 6, 13);
    let want = algo::pagerank(&g, 0.85, 12);
    for (ename, cfg) in engines() {
        let mut engine = Engine::load(cfg, &g);
        let run = engine.pagerank(0.85, 12);
        for (v, (&got, &expect)) in run.ranks.iter().zip(&want).enumerate() {
            assert!(
                (got - expect).abs() < 1e-9,
                "{ename}, vertex {v}: {got} vs {expect}"
            );
        }
    }
}

#[test]
fn one_placement_serves_all_four_programs() {
    // The place-once, query-many contract across program kinds: a single
    // engine (per config) runs BFS, SSSP, CC and PageRank back to back.
    let g = generators::uniform_random(500, 4, 31);
    let w = datasets::generate_weights(g.num_edges(), 31);
    for (ename, cfg) in engines() {
        let mut engine = Engine::load(cfg, &g);
        // SSSP first so UVM engines place the managed weight array
        // before their driver initializes.
        let sssp = engine.sssp(&w, 4);
        let want = algo::sssp_distances(&g, &w, 4);
        for (v, &expect) in want.iter().enumerate() {
            let got = if sssp.dist[v] == INF {
                algo::UNREACHABLE
            } else {
                u64::from(sssp.dist[v])
            };
            assert_eq!(got, expect, "{ename}, vertex {v}");
        }
        assert_eq!(engine.bfs(4).levels, algo::bfs_levels(&g, 4), "{ename}");
        assert_eq!(engine.cc().comp, algo::cc_labels(&g), "{ename}");
        let pr = engine.pagerank(0.85, 8);
        let want = algo::pagerank(&g, 0.85, 8);
        for (v, (&got, &expect)) in pr.ranks.iter().zip(&want).enumerate() {
            assert!((got - expect).abs() < 1e-9, "{ename}, vertex {v}");
        }
    }
}

#[test]
fn halo_and_subway_agree_with_reference() {
    let g = generators::web_crawl(800, 8, 80, 0.85, 5);
    let src = (0..800u32).find(|&v| g.degree(v) > 0).unwrap();
    let want = algo::bfs_levels(&g, src);

    let halo = HaloSystem::new(
        EngineConfig::uvm_v100().with_machine(MachineConfig::titan_xp_gen3()),
        &g,
    );
    assert_eq!(halo.bfs(src).levels, want, "halo");

    let mut subway = SubwaySystem::new(MachineConfig::v100_gen3(), &g, None, SubwayMode::Async);
    assert_eq!(subway.bfs(src).levels, want, "subway");
}

#[test]
fn four_byte_elements_change_traffic_not_results() {
    let g = generators::uniform_random(400, 8, 7);
    let want = algo::bfs_levels(&g, 0);
    let mut sys8 = Engine::load(EngineConfig::emogi_v100(), &g);
    let mut sys4 = Engine::load(EngineConfig::emogi_v100().with_elem_bytes(4), &g);
    let r8 = sys8.bfs(0);
    let r4 = sys4.bfs(0);
    assert_eq!(r8.levels, want);
    assert_eq!(r4.levels, want);
    assert!(
        r4.stats.host_bytes < r8.stats.host_bytes,
        "4-byte edges must move fewer bytes: {} vs {}",
        r4.stats.host_bytes,
        r8.stats.host_bytes
    );
}

#[test]
fn all_machines_run_all_engines() {
    let g = generators::uniform_random(300, 6, 3);
    let want = algo::bfs_levels(&g, 1);
    for machine in [
        MachineConfig::v100_gen3(),
        MachineConfig::a100_gen3(),
        MachineConfig::a100_gen4(),
        MachineConfig::titan_xp_gen3(),
    ] {
        for transport in [Transport::ZeroCopy, Transport::Uvm] {
            let cfg = EngineConfig::emogi_v100()
                .with_machine(machine.clone())
                .with_transport(transport.clone());
            let mut engine = Engine::load(cfg, &g);
            assert_eq!(engine.bfs(1).levels, want, "{transport:?}");
        }
    }
}
