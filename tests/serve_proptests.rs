//! Batching differential harness. **Mechanism:** merged-frontier
//! execution — `Engine::run_batch` through `spec::run_group`, and the
//! full `QueryServer` path on top of it — against back-to-back solo runs
//! on one engine under the same configuration: per-query outputs and
//! iteration counts are bit-identical (`Strength::Results`), and a batch
//! of one is the solo run tick for tick (`Strength::Full`; see
//! `tests/common` for the matrix). **Generators:** random graphs, BFS /
//! SSSP bursts and mixed query bursts under any named configuration.
//! **Witness:** `the_batched_side_actually_shares_vertices_and_saves_bytes`.
//!
//! Seeded mutation this file is known to catch: `merge_frontiers`
//! dropping the `|= 1 << q` for a vertex two queries share fails the
//! witness (and `batch.rs`'s own unit test of the masks).

mod common;

use common::*;
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Both theorems for one burst, plus the shared-fetch flagging contract:
/// a merged query's stats are flagged, a lone one's are not. Returns the
/// solo and the merged outcome.
fn assert_batching_invariant(side: &Side, tag: &str) -> (Outcome, Outcome) {
    let (merged, n) = ([Shape::Batch(8)], side.specs.len());
    let (solo, batch) = assert_equivalent(side, side, &merged, Strength::Results, tag).remove(0);
    let flags = |o: &Outcome| Vec::from_iter(o.runs.iter().map(|run| run.stats().shared_fetch));
    assert_eq!(flags(&solo), vec![false; n], "{tag}: solo flags");
    assert_eq!(flags(&batch), vec![n > 1; n], "{tag}: batch flags");
    assert_equivalent(side, side, &[Shape::Batch(1)], Strength::Full, tag);
    (solo, batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched BFS bursts equal sequential runs on arbitrary graphs,
    /// sources and configurations.
    #[test]
    fn batched_bfs_is_bit_identical_to_sequential(
        g in common::graph(96, 400),
        sources in common::sources(96, 9),
        (name, cfg) in common::any_config(),
    ) {
        let specs: Vec<_> = sources.iter().map(|&src| ProgramSpec::Bfs { src }).collect();
        assert_batching_invariant(&Side::new(cfg, &g, &specs), name);
    }

    /// Same property for SSSP bursts, which also exercise the shared
    /// auxiliary weight stream and per-query contexts.
    #[test]
    fn batched_sssp_is_bit_identical_to_sequential(
        g in common::graph(64, 300),
        sources in common::sources(64, 7),
        (name, cfg) in common::any_config(),
        weight_seed in 0u64..1_000,
    ) {
        let specs = traversals(&sources, &generate_weights(g.num_edges(), weight_seed));
        assert_batching_invariant(&Side::new(cfg, &g, &specs[..sources.len()]), name);
    }

    /// The full server path — admission, scheduling, mixed BFS/SSSP
    /// bursts split into kind-pure batches — returns exactly what solo
    /// engine runs return, in any submission order.
    #[test]
    fn query_server_matches_solo_runs_on_random_mixes(
        g in common::graph(64, 250),
        mix in common::query_mix(64, 10),
        (name, cfg) in common::any_config_placing_weights_late(),
        max_batch in 1usize..10,
    ) {
        let w = Arc::new(generate_weights(g.num_edges(), 3));
        let query = |&(is_bfs, s): &(bool, u32)| match is_bfs {
            true => Query::bfs(s),
            false => Query::sssp(s, Arc::clone(&w)),
        };
        let specs: Vec<ProgramSpec> = mix.iter().map(|q| query(q).spec).collect();
        let config = ServerConfig { max_batch, ..ServerConfig::default() };
        let mut server = QueryServer::new(config, Engine::load(cfg.clone(), &g));
        let submit = |q| server.submit(query(q)).expect("valid query admitted");
        let ids: Vec<QueryId> = mix.iter().map(submit).collect();
        prop_assert_eq!(server.run_pending(), mix.len());
        let served = |id| server.take(id).and_then(QueryOutcome::into_result).expect("served");
        let served = Outcome { runs: ids.into_iter().map(served).collect(), ..Outcome::default() };
        compare(&Shape::Solo.run(&Side::new(cfg, &g, &specs)), &served, Strength::Results, name);
    }
}

/// The harness's own precondition, on a fixed scenario: two BFS queries
/// from the two ends of one edge reach every other vertex at the same
/// level, so from the second iteration on their frontiers are the same
/// vertices — the union really has shared members, each shared list
/// crosses the link once, and the burst moves fewer bytes than the two
/// solo runs. A "batch" that ran its queries back to back would satisfy
/// every equality above.
#[test]
fn the_batched_side_actually_shares_vertices_and_saves_bytes() {
    let g = generators::kronecker(9, 16, 21);
    let specs = [3, g.neighbors(3)[0]].map(|src| ProgramSpec::Bfs { src });
    let mut cfg = EngineConfig::emogi_v100();
    cfg.machine.gpu.cache.capacity_bytes = 16 << 10;
    let (solo, batch) = assert_batching_invariant(&Side::new(cfg, &g, &specs), "witness");

    let (la, lb) = (solo.words(0), solo.words(1));
    let shared = (0..g.num_vertices()).filter(|&v| la[v] == lb[v] && g.degree(v as u32) > 0);
    assert!(
        shared.count() > 0,
        "no vertex is on both frontiers in the same iteration"
    );
    let (alone, merged) = (solo.devices[0].host_bytes, batch.devices[0].host_bytes);
    assert!(
        merged < alone,
        "the burst moved {merged} B, the solo runs {alone} B"
    );
}
