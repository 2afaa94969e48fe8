//! Determinism meta-test: the runtime witness behind the static rules
//! `emogi-lint` enforces (see `ARCHITECTURE.md`, "Determinism
//! contract"), and the equivalence harness's own self-check.
//!
//! **Mechanism:** none — each test runs the *same* scenario twice on
//! **fresh**, identically configured placements and asserts
//! tick-identical statistics and outputs (`Strength::Full`; see
//! `tests/common`), for every named configuration, solo, batched and
//! sharded. Fresh placements matter: re-running a query on a warm engine
//! legitimately differs (the page cache remembers), so the contract is
//! about runs being pure functions of their inputs, not about engines
//! being memoryless. If an ambient clock, a hash-order iteration or an
//! unordered float fold ever slips past the lint, this is the test that
//! catches it at runtime. **Witness:**
//! `the_comparator_rejects_sides_that_differ` — a harness whose two
//! sides are accidentally the same side passes everything, so the shared
//! comparator is shown to fail when they are not.

mod common;

use common::*;
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every named configuration, twice over `specs(weights)` in `shapes`.
fn assert_pure(specs: fn(&[u32]) -> Vec<ProgramSpec>, shapes: &[Shape]) {
    let g = generators::uniform_random(900, 8, 20260808);
    let specs = specs(&generate_weights(g.num_edges(), 7));
    for (name, cfg) in configs() {
        let side = Side::new(cfg, &g, &specs);
        assert_equivalent(&side, &side, shapes, Strength::Full, name);
    }
}

/// Single-device engine: all four programs (PageRank is the float path)
/// are tick-identical across fresh engines.
#[test]
fn engine_runs_are_tick_identical_across_fresh_engines() {
    assert_pure(|w| four_programs(3, w, 12), &[Shape::Solo]);
}

/// Batched multi-query execution: per-query outputs, per-query
/// attributed stats and the machine's totals are all tick-identical.
#[test]
fn batched_runs_are_tick_identical_across_fresh_engines() {
    assert_pure(|w| traversals(&[3, 41, 177], w), &Shape::BATCHED);
}

/// Sharded engine at 1, 2 and 4 devices: outputs, group totals,
/// *per-device* lifetime counters and exchange traffic are all
/// tick-identical.
#[test]
fn sharded_runs_are_tick_identical_at_two_devices() {
    assert_pure(|w| four_programs(3, w, 4), &Shape::sharded());
}

/// The comparator's own precondition: handed two sides that differ at
/// the asserted strength, `assert_equivalent` fails — Merged vs Naive
/// move different traffic (`Semantic`), and a graph relabeled by one
/// plan but unmapped through another gives different answers
/// (`Results`). The same pairs pass where they should.
#[test]
fn the_comparator_rejects_sides_that_differ() {
    let g = generators::kronecker(7, 8, 3);
    let specs = four_programs(1, &generate_weights(g.num_edges(), 3), 3);
    // The comparator's message when it rejects the pair; `None` when the
    // theorem holds (any other panic fails the test here).
    let rejection = |reference: &Side, variant: &Side, strength| {
        let theorem =
            || assert_equivalent(reference, variant, &[Shape::Solo], strength, "self-check");
        let panic = catch_unwind(AssertUnwindSafe(theorem)).err()?;
        Some(*panic.downcast::<String>().expect("an assert_eq! message"))
    };

    let strategy = |s| EngineConfig::emogi_v100().with_strategy(s);
    let merged = Side::new(strategy(AccessStrategy::Merged), &g, &specs);
    let naive = Side::new(strategy(AccessStrategy::Naive), &g, &specs);
    assert_eq!(rejection(&merged, &naive, Strength::Results), None);
    let stats = rejection(&merged, &naive, Strength::Semantic).expect("Merged vs Naive");
    assert!(stats.contains("SSSP stats (Semantic)"), "{stats}");

    let plan = LayoutPlan::from_perm(common::random_permutation(g.num_vertices(), 5));
    let mut relabeled = merged.relabeled(plan);
    assert_eq!(rejection(&merged, &relabeled, Strength::Results), None);
    // Over an already relabeled graph, the plan maps back only half way.
    let wrong = LayoutPlan::degree_sorted(&g).apply(&g);
    relabeled.graph = &wrong;
    let output = rejection(&merged, &relabeled, Strength::Results).expect("the wrong plan");
    assert!(output.contains("SSSP output"), "{output}");
}
