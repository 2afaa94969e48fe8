//! Cross-engine correctness: every simulated engine (the named
//! configurations of `tests/common`, HALO, Subway) must produce results
//! identical to the CPU reference algorithms on randomized graphs, for
//! every vertex program.

mod common;

use common::*;
use emogi_repro::prelude::*;
use std::sync::Arc;

/// `specs` on `g` under every named configuration, against the CPU
/// oracle.
fn assert_every_engine_matches_the_oracle(g: &CsrGraph, specs: &[ProgramSpec], tag: &str) {
    let want = reference_answers(g, specs);
    for (name, cfg) in configs() {
        let got = Shape::Solo.run(&Side::new(cfg, g, specs));
        assert_outputs_match(&got, &want, &format!("{name} on {tag}"));
    }
}

#[test]
fn bfs_matches_reference_for_every_engine_and_graph_family() {
    let seed = 11;
    for (gname, g) in [
        ("uniform", generators::uniform_random(600, 8, seed)),
        ("kron", generators::kronecker(9, 6, seed)),
        ("web", generators::web_crawl(700, 10, 60, 0.8, seed)),
        (
            "dense",
            generators::lognormal_dense(150, 60.0, 0.5, 16, seed),
        ),
    ] {
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0);
        let bfs = ProgramSpec::Bfs {
            src: src.expect("an edge"),
        };
        assert_every_engine_matches_the_oracle(&g, &[bfs], gname);
    }
}

#[test]
fn sssp_matches_dijkstra_for_every_engine() {
    let g = generators::uniform_random(500, 6, 23);
    let weights = Arc::new(datasets::generate_weights(g.num_edges(), 23));
    let sssp = ProgramSpec::Sssp { src: 4, weights };
    assert_every_engine_matches_the_oracle(&g, &[sssp], "uniform");
}

#[test]
fn cc_matches_union_find_for_every_engine() {
    let g = generators::uniform_random(500, 4, 31);
    assert_every_engine_matches_the_oracle(&g, &[ProgramSpec::Cc], "uniform");
}

#[test]
fn pagerank_matches_reference_for_every_engine() {
    let g = generators::kronecker(9, 6, 13);
    let pagerank = ProgramSpec::PageRank {
        damping: 0.85,
        iterations: 12,
    };
    assert_every_engine_matches_the_oracle(&g, &[pagerank], "kron");
}

/// The place-once, query-many contract across program kinds: a single
/// engine (per config) runs SSSP, BFS, CC and PageRank back to back.
#[test]
fn one_placement_serves_all_four_programs() {
    let g = generators::uniform_random(500, 4, 31);
    let w = datasets::generate_weights(g.num_edges(), 31);
    assert_every_engine_matches_the_oracle(&g, &four_programs(4, &w, 8), "uniform");
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
    let specs = [ProgramSpec::Bfs { src: 0 }];
    let wide = Side::new(EngineConfig::emogi_v100(), &g, &specs);
    let narrow = Side::new(EngineConfig::emogi_v100().with_elem_bytes(4), &g, &specs);
    let (r8, r4) =
        assert_equivalent(&wide, &narrow, &[Shape::Solo], Strength::Results, "").remove(0);
    assert_outputs_match(&r8, &reference_answers(&g, &specs), "8-byte elements");
    let (b8, b4) = (r8.devices[0].host_bytes, r4.devices[0].host_bytes);
    assert!(b4 < b8, "4-byte edges must move fewer bytes: {b4} vs {b8}");
}

#[test]
fn all_machines_run_all_engines() {
    let g = generators::uniform_random(300, 6, 3);
    let bfs = [ProgramSpec::Bfs { src: 1 }];
    let want = reference_answers(&g, &bfs);
    for machine in [
        MachineConfig::v100_gen3(),
        MachineConfig::a100_gen3(),
        MachineConfig::a100_gen4(),
        MachineConfig::titan_xp_gen3(),
    ] {
        for (name, cfg) in configs() {
            let got = Shape::Solo.run(&Side::new(cfg.with_machine(machine.clone()), &g, &bfs));
            assert_outputs_match(&got, &want, name);
        }
    }
}
