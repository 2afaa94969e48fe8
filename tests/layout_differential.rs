//! Permutation-differential harness: on random graphs, every shipped
//! program (BFS / SSSP / CC / PageRank) runs over cache-aware vertex
//! relabelings — identity, degree-sorted, and fully random
//! permutations — under every access mode (including Hybrid and
//! pipelined execution) and execution shape (solo, batched, sharded).
//! Outputs and iteration counts, mapped back through the plan's inverse
//! permutation, must be **bit-identical** to the identity-layout run.
//!
//! The one declared exception: CC's labels are vertex ids, so its
//! components are compared through the canonical
//! [`LayoutPlan::unmap_components`] mapping and its hook-pass count is
//! layout-dependent by design (it still equals across solo and sharded
//! execution of the *same* layout, asserted below).
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! layout_differential`; CI pins `EMOGI_PROPTEST_SEED` explicitly (see
//! `.github/workflows/ci.yml`) and the same variable reproduces that
//! exact run.

mod common;

use common::{answers, assert_permutation_invariant, build_graph, four_programs};
use emogi_repro::core::sharded::{ShardedConfig, ShardedEngine};
use emogi_repro::core::BfsProgram;
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use proptest::prelude::*;

/// The two structured layouts, plus slots for random permutations added
/// per test case.
fn layouts(g: &CsrGraph) -> Vec<(&'static str, LayoutPlan)> {
    vec![
        ("identity", LayoutPlan::identity(g.num_vertices())),
        ("degree-sorted", LayoutPlan::degree_sorted(g)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Solo engine, every access mode plus pipelined Hybrid (the one
    /// mode that can pipeline) swept: all four programs are bit-identical
    /// after unmapping, for every structured layout and a random
    /// permutation.
    #[test]
    fn solo_runs_are_bit_identical_after_unmapping(
        edges in common::edges(72, 350),
        src in 0u32..72,
        cfg_idx in 0usize..5,
        perm_seed in any::<u64>(),
    ) {
        let g = build_graph(&edges, 72);
        let w = generate_weights(g.num_edges(), 11);
        let (cfg_name, cfg) = match AccessMode::all().get(cfg_idx) {
            Some(&mode) => (mode.name(), EngineConfig::emogi_v100().with_mode(mode)),
            None => ("Hybrid pipelined", EngineConfig::pipelined_v100()),
        };
        let mut plans = layouts(&g);
        plans.push((
            "random",
            LayoutPlan::from_perm(common::random_permutation(g.num_vertices(), perm_seed)),
        ));
        for (name, plan) in &plans {
            let tag = format!("{cfg_name}/{name}");
            assert_permutation_invariant(&cfg, &g, &w, src, plan, &tag);
        }
    }

    /// Batched multi-query execution over a relabeled graph: every
    /// query's unmapped levels and iteration count equal its solo run
    /// on the original graph, for every layout.
    #[test]
    fn batched_runs_are_bit_identical_after_unmapping(
        edges in common::edges(64, 300),
        srcs in common::sources(64, 5),
    ) {
        let g = build_graph(&edges, 64);
        let cfg = EngineConfig::emogi_v100();
        let mut base = Engine::load(cfg.clone(), &g);
        let want: Vec<(Vec<u32>, u64)> = srcs
            .iter()
            .map(|&s| {
                let run = base.bfs(s);
                (run.levels.clone(), run.stats.kernel_launches)
            })
            .collect();
        for (name, plan) in layouts(&g) {
            let relabeled = plan.apply(&g);
            let mut engine = Engine::load(cfg.clone(), &relabeled);
            let programs: Vec<BfsProgram> = srcs
                .iter()
                .map(|&s| BfsProgram::new(&relabeled, plan.map_vertex(s)))
                .collect();
            let batch = engine.run_batch(programs);
            for (q, run) in batch.runs.iter().enumerate() {
                let tag = format!("{name}/query {q}");
                prop_assert_eq!(
                    plan.unmap_values(&run.levels), want[q].0.clone(),
                    "{} levels", &tag
                );
                prop_assert_eq!(
                    run.stats.kernel_launches, want[q].1,
                    "{} iterations", &tag
                );
            }
        }
    }

    /// Sharded execution over a relabeled graph, 1/2/4 devices: BFS,
    /// CC and PageRank outputs unmap bit-identically to the solo base
    /// run on the original graph; iteration counts match (CC's through
    /// the solo engine on the *same* layout, since its pass count is
    /// layout-dependent but execution-shape-invariant).
    #[test]
    fn sharded_runs_are_bit_identical_after_unmapping(
        edges in common::edges(64, 300),
        src in 0u32..64,
        mode_idx in 0usize..4,
    ) {
        let g = build_graph(&edges, 64);
        let mode = AccessMode::all()[mode_idx];
        let cfg = EngineConfig::emogi_v100().with_mode(mode);
        // BFS, CC, PageRank (SSSP's relabeled weights are the solo
        // test's business).
        let want = answers(&mut Engine::load(cfg.clone(), &g), &four_programs(src, &[], 6)[1..]);

        for (name, plan) in layouts(&g) {
            let relabeled = plan.apply(&g);
            let specs = &four_programs(plan.map_vertex(src), &[], 6)[1..];
            let solo = answers(&mut Engine::load(cfg.clone(), &relabeled), specs);
            for devices in [1usize, 2, 4] {
                let tag = format!("{mode:?}/{name}/{devices}dev");
                let mut scfg = ShardedConfig::emogi_v100(devices);
                scfg.engine = scfg.engine.with_mode(mode);
                let got = answers(&mut ShardedEngine::load(scfg, &relabeled), specs);
                for ((run, want), solo) in got.into_iter().zip(&want).zip(&solo) {
                    let program = want.kind.name();
                    if want.kind == ProgramKind::Cc {
                        prop_assert_eq!(
                            run.passes, solo.passes,
                            "{} cc passes vs solo on the same layout", &tag
                        );
                    } else {
                        prop_assert_eq!(
                            run.iterations(), want.iterations(),
                            "{} {} iterations", &tag, program
                        );
                    }
                    prop_assert_eq!(
                        run.unmapped(&plan).words, want.words.clone(),
                        "{} {} output", &tag, program
                    );
                }
            }
        }
    }
}
