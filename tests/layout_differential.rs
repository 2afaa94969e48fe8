//! Permutation-differential harness. **Mechanism:** vertex relabeling —
//! a `LayoutPlan` applied to the graph, sources and weights mapped in,
//! outputs mapped back through its inverse — against the identity
//! layout under the same configuration: outputs and iteration counts
//! are bit-identical for all four programs, solo, batched and sharded
//! (`Strength::Results`; see `tests/common` for the matrix). The one
//! declared exception: CC's labels are vertex ids, so its components are
//! compared through `LayoutPlan::unmap_components` and its launch and
//! hook-pass counts, which depend on the ids it starts from, are held —
//! in every shape — to the solo run on the *same* layout instead.
//! **Generator:** random graphs under any named configuration, relabeled
//! by the two structured plans — degree-sorted, and HALO's BFS-ranked
//! one (so HALO's map-in / run / map-out is this theorem) — and by a
//! random permutation.
//! **Witness:** `the_relabeled_side_actually_moves_vertices_and_traffic`.
//!
//! Seeded mutations this file is known to catch:
//!
//! - `LayoutPlan::unmap_values` returning its input fails
//!   `solo_runs_are_bit_identical_after_unmapping`.
//! - `ProgramRun::unmapped_words` returning `self.words()` for the
//!   per-vertex programs fails all four tests at both seeds. That is
//!   HALO's map-back in `table3`, so this stands for the deleted
//!   `bfs_results_map_back_to_original_ids` and the HALO line of
//!   `tests/correctness.rs`.
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! layout_differential`; CI pins `EMOGI_PROPTEST_SEED` explicitly (see
//! `.github/workflows/ci.yml`) and the same variable reproduces that
//! exact run.

mod common;

use common::*;
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use proptest::prelude::*;

/// The theorem, in `shapes`, for the degree-sorted and BFS-ranked plans
/// and the random permutation seeded by `perm_seed`.
fn assert_layout_invariant(identity: &Side, perm_seed: u64, shapes: &[Shape], tag: &str) {
    let random = common::random_permutation(identity.graph.num_vertices(), perm_seed);
    let plans = [
        LayoutPlan::degree_sorted(identity.graph),
        LayoutPlan::bfs_ranked(identity.graph),
        LayoutPlan::from_perm(random),
    ];
    let names = ["degree-sorted", "bfs-ranked", "random"];
    for (name, plan) in names.into_iter().zip(plans) {
        let (variant, tag) = (identity.relabeled(plan), format!("{tag}/{name}"));
        assert_equivalent(identity, &variant, shapes, Strength::Results, &tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Solo engine, all four programs.
    #[test]
    fn solo_runs_are_bit_identical_after_unmapping(
        g in common::graph(72, 350),
        src in 0u32..72,
        (name, cfg) in common::any_config(),
        perm_seed in any::<u64>(),
    ) {
        let specs = four_programs(src, &generate_weights(g.num_edges(), 11), 7);
        assert_layout_invariant(&Side::new(cfg, &g, &specs), perm_seed, &[Shape::Solo], name);
    }

    /// Batched multi-query execution over a relabeled graph, SSSP and
    /// BFS bursts: every query's unmapped output and iteration count
    /// equal its solo run on the original graph.
    #[test]
    fn batched_runs_are_bit_identical_after_unmapping(
        g in common::graph(64, 300),
        srcs in common::sources(64, 5),
        (name, cfg) in common::any_config(),
        perm_seed in any::<u64>(),
    ) {
        let specs = traversals(&srcs, &generate_weights(g.num_edges(), 11));
        assert_layout_invariant(&Side::new(cfg, &g, &specs), perm_seed, &Shape::BATCHED, name);
    }

    /// Sharded execution over a relabeled graph, 1/2/4 devices, all four
    /// programs, against the solo run on the original graph.
    #[test]
    fn sharded_runs_are_bit_identical_after_unmapping(
        g in common::graph(64, 300),
        src in 0u32..64,
        (name, cfg) in common::any_config(),
        perm_seed in any::<u64>(),
    ) {
        let specs = four_programs(src, &generate_weights(g.num_edges(), 11), 6);
        assert_layout_invariant(&Side::new(cfg, &g, &specs), perm_seed, &Shape::SHARDED, name);
    }
}

/// The harness's own precondition, on a fixed scenario: the degree-sorted
/// plan really moves vertices, and the relabeled run really walks a
/// different address stream — same answers from different traffic. An
/// identity plan would satisfy every equality above.
#[test]
fn the_relabeled_side_actually_moves_vertices_and_traffic() {
    let g = generators::kronecker(9, 16, 21);
    let plan = LayoutPlan::degree_sorted(&g);
    let moved = (0..g.num_vertices() as u32)
        .filter(|&v| plan.map_vertex(v) != v)
        .count();
    assert!(
        moved > g.num_vertices() / 2,
        "the plan moved only {moved} vertices"
    );

    let mut cfg = EngineConfig::emogi_v100();
    cfg.machine.gpu.cache.capacity_bytes = 16 << 10;
    let specs = four_programs(3, &generate_weights(g.num_edges(), 11), 4);
    let identity = Side::new(cfg, &g, &specs);
    let variant = identity.relabeled(plan);
    let (a, b) = assert_equivalent(
        &identity,
        &variant,
        &[Shape::Solo],
        Strength::Results,
        "witness",
    )
    .remove(0);
    for (a, b) in a.runs.iter().zip(&b.runs) {
        let traffic = |s: &RunStats| (s.pcie_read_requests, s.l2_sector_hits, s.host_bytes);
        assert_ne!(
            traffic(a.stats()),
            traffic(b.stats()),
            "{:?}: same address stream",
            a.kind()
        );
    }
}
