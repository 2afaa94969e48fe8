//! Cross-engine correctness: every simulated engine (the named
//! configurations of `tests/common`, Subway's compacted subgraphs among
//! them) must produce results identical to the CPU reference algorithms
//! on randomized graphs, for every vertex program. HALO is a named
//! configuration over `LayoutPlan::bfs_ranked`, which
//! `tests/layout_differential.rs` holds to the unrelabeled run.
//!
//! Seeded mutations this file is known to catch:
//!
//! - `BfsProgram::new` starting `next_level` at 1 fails
//!   `bfs_matches_reference_for_every_engine_and_graph_family`;
//! - `SsspProgram::edge` reading the previous edge's weight
//!   (`weights[i - 1]`) fails `sssp_matches_dijkstra_for_every_engine`;
//! - `CcProgram::new` starting `hook_passes` at 1 — one pass more than it
//!   launches — fails `cc_matches_union_find_for_every_engine`, through
//!   `assert_outputs_match`'s launches-vs-passes check;
//! - `PageRankProgram::converged` testing `>` (one sweep too many), and
//!   `spec::run` building PageRank with `iterations + 1`, fail
//!   `pagerank_matches_reference_for_every_engine`;
//! - `PageRankProgram::edge` adding its contribution to `next[dst]` in
//!   visit order, with `post_iteration`'s sorted fold removed, fails
//!   `pagerank_matches_reference_for_every_engine` (this retired the
//!   `float-fold` lint rule and PageRank's `canonical-order` waiver);
//! - `Engine::run` driving its lone program on the batch status block
//!   (`batched = true`) fails every engine test here;
//! - `Packed::chunks` (`crates/core/src/compact.rs`) opening each new
//!   chunk one item late (`(start, held) = (i + 1, 0)`, the list that
//!   overflowed the buffer never launched) fails
//!   `subway_agrees_with_reference` on its chunked side, at the default
//!   seed and at `EMOGI_PROPTEST_SEED=20260729`. It stands for the
//!   deleted Subway round loop's own mutations (the last active vertex
//!   dropped, a misread weight, CC never setting `changed`), which the
//!   one driver's programs now carry.
//! - The compressed walk dropping each step's last decoded element
//!   (`WarpWalk::emit_edges` returning `hi - 1` whenever `hi > lo`) fails
//!   `bfs_matches_reference_for_every_engine_and_graph_family`,
//!   `sssp_matches_dijkstra_for_every_engine`,
//!   `one_placement_serves_all_four_programs` and
//!   `all_machines_run_all_engines` on the `Compressed` configuration, at
//!   the default seed and at `EMOGI_PROPTEST_SEED=20260729` (as do
//!   `proptests`' `every_program_strategy_placement_matches_the_cpu_references`
//!   and `sharded_differential`'s
//!   `planted_hubs_are_bit_identical_across_device_counts`). It stands for
//!   the deleted compressed-BFS engine's own reference test.

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

/// Subway's programs on a directed web graph and an undirected one (CC
/// only there: it needs one), solo and on 1, 2 and 4 devices: the
/// compacted transport packs each launch's lists, hub pieces included,
/// and the kernel reads them out of the packed buffer. On a GPU with
/// 24 KiB of memory the buffer holds a fraction of a full sweep, so the
/// iterations run in chunks, one launch each.
#[test]
fn subway_agrees_with_reference() {
    let mut small = EngineConfig::subway_v100();
    small.machine.gpu.mem_bytes = 24 << 10;
    let web = generators::web_crawl(800, 8, 80, 0.85, 5);
    for g in [web, generators::uniform_random(500, 6, 4)] {
        let src = (0..g.num_vertices() as u32).find(|&v| g.degree(v) > 0);
        let weights = datasets::generate_weights(g.num_edges(), 5);
        let mut specs = traversals(&[src.expect("an edge")], &weights);
        if g.is_undirected() {
            specs.push(ProgramSpec::Cc);
        }
        let want = reference_answers(&g, &specs);
        for (name, cfg) in [
            ("whole", EngineConfig::subway_v100()),
            ("chunked", small.clone()),
        ] {
            let side = Side::new(cfg, &g, &specs);
            for shape in [Shape::Solo].iter().chain(&Shape::SHARDED) {
                let got = shape.run(&side);
                let tag = format!("Subway {name}, {} vertices, {shape:?}", g.num_vertices());
                assert_outputs_match(&got, &want, &tag);
                if *shape == Shape::Solo {
                    let levels: u64 = got.runs.iter().map(|r| r.stats().kernel_launches).sum();
                    let launches = got.devices[0].kernel_launches;
                    assert_eq!(
                        launches > levels,
                        name == "chunked",
                        "{tag}: chunked launches"
                    );
                }
            }
        }
    }
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
