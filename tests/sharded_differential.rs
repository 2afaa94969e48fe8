//! Sharding differential harness. **Mechanism:** the `ShardedEngine` —
//! one traversal split across 1, 2 and 4 simulated GPUs under both
//! partitioners — against the single-device `Engine` under the same
//! configuration: outputs, iteration counts and pass counts are
//! bit-identical for all four programs, and at one device every
//! statistic is equal tick for tick (see `tests/common` for the matrix).
//! **Generators:** random graphs, and graphs with planted hubs whose
//! lists reach `HUB_SPLIT_DEGREE`, under any named configuration.
//! **Witness:** `the_sharded_side_actually_exchanges_and_splits`.
//!
//! Seeded mutations this file is known to catch:
//!
//! - `at = upto + 1` in `Driver::shard` (one edge skipped per slice
//!   boundary) fails `planted_hubs_are_bit_identical_across_device_counts`
//!   and none of the other random cases, whose lists are too short to
//!   split;
//! - `Driver::drive` counting an iteration before its empty-frontier exit
//!   fails `one_device_stats_equal_the_engine_exactly` and
//!   `frontier_programs_are_bit_identical_across_device_counts`;
//! - `Driver::drive` rebuilding each frontier from device 0's activations
//!   only fails `frontier_programs_are_bit_identical_across_device_counts`
//!   and `planted_hubs_are_bit_identical_across_device_counts`.
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! sharded_differential`; CI pins `EMOGI_PROPTEST_SEED` explicitly (see
//! `.github/workflows/ci.yml`) and the same variable reproduces that
//! exact run.

mod common;

use common::*;
use emogi_repro::core::sharded::{ShardedConfig, ShardedEngine, HUB_SPLIT_DEGREE};
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use proptest::prelude::*;

/// The theorem: at every device count × partitioner, `specs` answer as
/// on the single-device engine.
fn assert_sharding_invariant(cfg: EngineConfig, g: &CsrGraph, specs: &[ProgramSpec], tag: &str) {
    let side = Side::new(cfg, g, specs);
    assert_equivalent(&side, &side, &Shape::sharded(), Strength::Results, tag);
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
        let one_device = PartitionStrategy::all().map(|p| Shape::Sharded(1, p));
        assert_equivalent(&side, &side, &one_device, Strength::Full, name);
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
