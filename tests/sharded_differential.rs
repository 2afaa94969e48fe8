//! Cross-engine differential harness: on random graphs, the sharded
//! multi-GPU engine is checked against the single-device engine for
//! every shipped program (BFS / SSSP / CC / PageRank), at 1, 2 and 4
//! devices, under both partitioners — outputs and iteration counts must
//! be **bit-identical**, including in `AccessMode::Hybrid`. At one
//! device the per-device stats (traffic, timing, hybrid transfer
//! counters) must equal the single-device engine's tick for tick.
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! sharded_differential`; CI pins `EMOGI_PROPTEST_SEED` explicitly (see
//! `.github/workflows/ci.yml`) and the same variable reproduces that
//! exact run.

mod common;

use common::{answers, assert_same_results, build_graph, four_programs};
use emogi_repro::core::sharded::{ShardedConfig, ShardedEngine, HUB_SPLIT_DEGREE};
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::graph::PartitionStrategy;
use emogi_repro::prelude::*;
use proptest::prelude::*;

/// The device counts the tentpole targets.
const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];

fn sharded(
    devices: usize,
    partition: PartitionStrategy,
    mode: AccessMode,
    graph: &CsrGraph,
) -> ShardedEngine<'_> {
    let mut cfg = ShardedConfig::emogi_v100(devices).with_partition(partition);
    cfg.engine = cfg.engine.with_mode(mode);
    ShardedEngine::load(cfg, graph)
}

/// `specs` on the single-device engine, then on a fresh sharded engine
/// per device count × partitioner: outputs, iteration counts and pass
/// counts must equal the single-device run's.
fn assert_sharding_invariant(g: &CsrGraph, mode: AccessMode, specs: &[ProgramSpec]) {
    let mut solo = Engine::load(EngineConfig::emogi_v100().with_mode(mode), g);
    let want = answers(&mut solo, specs);
    for devices in DEVICE_COUNTS {
        for partition in PartitionStrategy::all() {
            let tag = format!("{mode:?}/{devices}dev/{partition:?}");
            let got = answers(&mut sharded(devices, partition, mode, g), specs);
            assert_same_results(&got, &want, &tag);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// BFS and SSSP: sharded outputs and iteration counts equal the
    /// single-device engine's on arbitrary graphs, for every device
    /// count × partitioner × access mode (including Hybrid).
    #[test]
    fn frontier_programs_are_bit_identical_across_device_counts(
        edges in common::edges(72, 350),
        src in 0u32..72,
        mode_idx in 0usize..4,
        weight_seed in 0u64..1_000,
    ) {
        let g = build_graph(&edges, 72);
        let w = generate_weights(g.num_edges(), weight_seed);
        let specs = four_programs(src, &w, 7);
        assert_sharding_invariant(&g, AccessMode::all()[mode_idx], &specs[..2]);
    }

    /// CC and PageRank: the full-sweep programs are bit-identical too —
    /// CC hooks against an iteration-start snapshot and PageRank folds
    /// its sums in canonical edge order, so labels, pass counts and
    /// every f64 rank bit survive any sharding.
    #[test]
    fn full_sweep_programs_are_bit_identical_across_device_counts(
        edges in common::edges(64, 300),
        mode_idx in 0usize..4,
    ) {
        let g = build_graph(&edges, 64);
        let specs = four_programs(0, &[], 7);
        assert_sharding_invariant(&g, AccessMode::all()[mode_idx], &specs[2..]);
    }

    /// All four programs again on graphs the generators above cannot
    /// draw: planted hubs whose lists reach [`HUB_SPLIT_DEGREE`], so at
    /// 2 and 4 devices every frontier and every sweep holding a hub
    /// walks its list cooperatively (the fixed star below pins that the
    /// split happens; this pins that it never changes an answer, SSSP,
    /// CC and PageRank included). Mutation that fails it and none of the
    /// three cases above: `at = upto + 1` in `Driver::shard`, one edge
    /// skipped per slice boundary.
    #[test]
    fn planted_hubs_are_bit_identical_across_device_counts(
        edges in common::hub_edges(320, HUB_SPLIT_DEGREE as u32, 200),
        src in 0u32..320,
        mode_idx in 0usize..4,
        weight_seed in 0u64..1_000,
    ) {
        let g = build_graph(&edges, 320);
        let longest = (0..320).map(|v| g.degree(v)).max();
        prop_assert!(longest >= Some(HUB_SPLIT_DEGREE), "no list long enough to split");
        let w = generate_weights(g.num_edges(), weight_seed);
        let specs = four_programs(src, &w, 5);
        assert_sharding_invariant(&g, AccessMode::all()[mode_idx], &specs);
    }

    /// One-device sharded execution is the single-device engine, tick
    /// for tick: every per-run statistic — traffic, timing, request
    /// sizes, hybrid transfer counters — is equal, for all 4 programs
    /// (one device's group total *is* that device's stats).
    #[test]
    fn one_device_stats_equal_the_engine_exactly(
        edges in common::edges(64, 300),
        src in 0u32..64,
        mode_idx in 0usize..4,
    ) {
        let g = build_graph(&edges, 64);
        let specs = four_programs(src, &generate_weights(g.num_edges(), 5), 5);
        let mode = AccessMode::all()[mode_idx];

        let mut solo = Engine::load(EngineConfig::emogi_v100().with_mode(mode), &g);
        let mut e = sharded(1, PartitionStrategy::DegreeBalanced, mode, &g);
        prop_assert_eq!(answers(&mut e, &specs), answers(&mut solo, &specs), "{:?}", mode);
        let exchanged = e.group.interconnect.totals().bytes;
        prop_assert_eq!(exchanged, 0, "one device exchanges nothing");
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
