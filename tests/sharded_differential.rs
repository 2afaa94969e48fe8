//! Sharding differential harness. **Mechanism:** the `ShardedEngine` —
//! one traversal split across 1, 2 and 4 simulated GPUs, each owning a
//! degree-balanced vertex range — against the single-device `Engine`
//! under the same configuration: outputs, iteration counts and pass counts are
//! bit-identical for all four programs, and at one device every
//! statistic is equal tick for tick (see `tests/common` for the matrix).
//! **Generators:** random graphs, and graphs with planted hubs whose
//! lists reach `HUB_SPLIT_DEGREE`, under any named configuration.
//! **Witness:** `the_sharded_side_actually_exchanges_and_splits`.
//!
//! Seeded mutations this file is known to catch:
//!
//! - every device launching on the master program state instead of its
//!   own replica fails
//!   `a_vertex_two_devices_discover_in_one_iteration_is_exchanged_by_both`
//!   at both seeds (device 1 exchanges nothing); the results-only
//!   theorems pass under it;
//! - `at = upto + 1` in `Driver::shard` (one edge skipped per slice
//!   boundary) fails `planted_hubs_are_bit_identical_across_device_counts`
//!   and none of the other random cases, whose lists are too short to
//!   split;
//! - `Driver::drive` rebuilding each frontier from device 0's activations
//!   only fails `frontier_programs_are_bit_identical_across_device_counts`
//!   and `planted_hubs_are_bit_identical_across_device_counts`;
//! - `VertexPartition::range` dropping each shard's last vertex (a full
//!   sweep then misses one vertex per device) fails
//!   `full_sweep_programs_are_bit_identical_across_device_counts` and
//!   `planted_hubs_are_bit_identical_across_device_counts` at both
//!   seeds.
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! sharded_differential`; CI pins `EMOGI_PROPTEST_SEED` explicitly (see
//! `.github/workflows/ci.yml`) and the same variable reproduces that
//! exact run.

mod common;

use common::*;
use emogi_repro::core::sharded::{
    ShardedConfig, ShardedEngine, FRONTIER_UPDATE_BYTES, HUB_SPLIT_DEGREE,
};
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use proptest::prelude::*;

/// The theorem: at every device count, `specs` answer as on the
/// single-device engine.
fn assert_sharding_invariant(cfg: EngineConfig, g: &CsrGraph, specs: &[ProgramSpec], tag: &str) {
    let side = Side::new(cfg, g, specs);
    assert_equivalent(&side, &side, &Shape::SHARDED, Strength::Results, tag);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// BFS and SSSP on arbitrary graphs.
    #[test]
    fn frontier_programs_are_bit_identical_across_device_counts(
        g in common::graph(72, 350),
        src in 0u32..72,
        (name, cfg) in common::any_config(),
        weight_seed in 0u64..1_000,
    ) {
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 7);
        assert_sharding_invariant(cfg, &g, &specs[..2], name);
    }

    /// CC and PageRank: the full-sweep programs are bit-identical too —
    /// CC hooks against an iteration-start snapshot and PageRank folds
    /// its sums in canonical edge order, so labels, pass counts and
    /// every f64 rank bit survive any sharding.
    #[test]
    fn full_sweep_programs_are_bit_identical_across_device_counts(
        g in common::graph(64, 300),
        (name, cfg) in common::any_config(),
    ) {
        assert_sharding_invariant(cfg, &g, &four_programs(0, &[], 7)[2..], name);
    }

    /// All four programs again on graphs the generators above cannot
    /// draw: planted hubs whose lists reach [`HUB_SPLIT_DEGREE`], so at
    /// 2 and 4 devices every frontier and every sweep holding a hub
    /// walks its list cooperatively (the fixed star below pins that the
    /// split happens; this pins that it never changes an answer, SSSP,
    /// CC and PageRank included).
    #[test]
    fn planted_hubs_are_bit_identical_across_device_counts(
        g in common::hub_graph(320, HUB_SPLIT_DEGREE as u32, 200),
        src in 0u32..320,
        (name, cfg) in common::any_config(),
        weight_seed in 0u64..1_000,
    ) {
        let longest = (0..320).map(|v| g.degree(v)).max();
        prop_assert!(longest >= Some(HUB_SPLIT_DEGREE), "no list long enough to split");
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 5);
        assert_sharding_invariant(cfg, &g, &specs, name);
    }

    /// One-device sharded execution is the single-device engine, tick
    /// for tick: every per-run statistic — traffic, timing, request
    /// sizes, hybrid transfer counters — and the device's lifetime
    /// counters are equal for all 4 programs, and nothing is exchanged.
    #[test]
    fn one_device_stats_equal_the_engine_exactly(
        g in common::graph(64, 300),
        src in 0u32..64,
        (name, cfg) in common::any_config(),
    ) {
        let specs = four_programs(src, &generate_weights(g.num_edges(), 5), 5);
        let side = Side::new(cfg, &g, &specs);
        assert_equivalent(&side, &side, &[Shape::Sharded(1)], Strength::Full, name);
    }
}

/// The harness's own precondition, on a fixed scenario: a directed star
/// whose hub list is long enough to split. BFS from the hub reads only
/// that list — the leaves have no edges — so every device carrying host
/// traffic proves the list was walked cooperatively, and the next level
/// can only reach the other devices through the exchange.
#[test]
fn the_sharded_side_actually_exchanges_and_splits() {
    let leaves = 4 * HUB_SPLIT_DEGREE as u32;
    let mut star = EdgeListBuilder::new(leaves as usize + 1);
    for leaf in 1..=leaves {
        star.push(0, leaf);
    }
    let g = star.build();
    let want = algo::bfs_levels(&g, 0);
    for devices in [2usize, 4] {
        let run = ShardedEngine::load(ShardedConfig::emogi_v100(devices), &g).bfs(0);
        assert_eq!(run.levels, want, "{devices} devices");
        assert!(
            run.exchange.bytes > 0,
            "{devices} devices exchanged nothing"
        );
        for (d, stats) in run.per_device.iter().enumerate() {
            assert!(
                stats.host_bytes > 0,
                "{devices} devices: device {d} read none of the hub's list"
            );
        }
    }
}

/// The causality witness: each device launches on its own copy of the
/// program state, so a launch never sees what a peer wrote in the same
/// iteration. BFS from 0 over `0 → 1, 0 → 2, 1 → 3, 2 → 3`: the second
/// level deals vertex 1 to device 0 and vertex 2 to device 1, both
/// discover 3, and both exchange it. Levels are the single-device ones.
///
/// Seeded mutation it catches at both seeds: every device launching on
/// the master state (device 1 then sees device 0's discovery of 3 and
/// exchanges nothing), which `Shape::SHARDED`'s results-only theorems
/// above do not see.
#[test]
fn a_vertex_two_devices_discover_in_one_iteration_is_exchanged_by_both() {
    let mut diamond = EdgeListBuilder::new(4);
    for (src, dst) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        diamond.push(src, dst);
    }
    let g = diamond.build();
    let record = FRONTIER_UPDATE_BYTES;
    for devices in [2usize, 4] {
        let mut engine = ShardedEngine::load(ShardedConfig::emogi_v100(devices), &g);
        let run = engine.bfs(0);
        assert_eq!(run.levels, algo::bfs_levels(&g, 0), "{devices} devices");
        let peers = devices as u64 - 1;
        let sent = |d| engine.group.interconnect.peer_stats(d).bytes;
        assert_eq!(
            sent(0),
            3 * record * peers,
            "{devices} devices: 1, 2, then 3"
        );
        assert_eq!(sent(1), record * peers, "{devices} devices: 3 again");
        assert_eq!(run.exchange.bytes, 4 * record * peers);
    }
}
