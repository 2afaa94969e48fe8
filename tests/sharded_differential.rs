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

use common::build_graph;
use emogi_repro::core::sharded::{ShardedConfig, ShardedEngine};
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
        let mode = AccessMode::all()[mode_idx];

        let mut solo = Engine::load(EngineConfig::emogi_v100().with_mode(mode), &g);
        let bfs = solo.bfs(src);
        let sssp = solo.sssp(&w, src);

        for devices in DEVICE_COUNTS {
            for partition in PartitionStrategy::all() {
                let tag = format!("{mode:?}/{devices}dev/{partition:?}");
                let mut e = sharded(devices, partition, mode, &g);
                let db = e.bfs(src);
                prop_assert_eq!(&db.levels, &bfs.levels, "{} bfs levels", &tag);
                prop_assert_eq!(
                    db.iterations, bfs.stats.kernel_launches,
                    "{} bfs iterations", &tag
                );
                let ds = e.sssp(&w, src);
                prop_assert_eq!(&ds.dist, &sssp.dist, "{} sssp dist", &tag);
                prop_assert_eq!(
                    ds.iterations, sssp.stats.kernel_launches,
                    "{} sssp iterations", &tag
                );
            }
        }
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
        let mode = AccessMode::all()[mode_idx];

        let mut solo = Engine::load(EngineConfig::emogi_v100().with_mode(mode), &g);
        let cc = solo.cc();
        let pr = solo.pagerank(0.85, 7);

        for devices in DEVICE_COUNTS {
            for partition in PartitionStrategy::all() {
                let tag = format!("{mode:?}/{devices}dev/{partition:?}");
                let mut e = sharded(devices, partition, mode, &g);
                let dc = e.cc();
                prop_assert_eq!(&dc.comp, &cc.comp, "{} cc labels", &tag);
                prop_assert_eq!(dc.hook_passes, cc.hook_passes, "{} cc passes", &tag);
                prop_assert_eq!(
                    dc.iterations, cc.stats.kernel_launches,
                    "{} cc iterations", &tag
                );
                let dp = e.pagerank(0.85, 7);
                prop_assert_eq!(&dp.ranks, &pr.ranks, "{} pagerank ranks", &tag);
                prop_assert_eq!(dp.iterations, pr.stats.kernel_launches,
                    "{} pagerank iterations", &tag);
            }
        }
    }

    /// One-device sharded execution is the single-device engine, tick
    /// for tick: every per-run statistic — traffic, timing, request
    /// sizes, hybrid transfer counters — is equal, for all 4 programs.
    #[test]
    fn one_device_stats_equal_the_engine_exactly(
        edges in common::edges(64, 300),
        src in 0u32..64,
        mode_idx in 0usize..4,
    ) {
        let g = build_graph(&edges, 64);
        let w = generate_weights(g.num_edges(), 5);
        let mode = AccessMode::all()[mode_idx];

        let mut solo = Engine::load(EngineConfig::emogi_v100().with_mode(mode), &g);
        let mut e = sharded(1, PartitionStrategy::DegreeBalanced, mode, &g);

        let run = e.bfs(src);
        prop_assert_eq!(&run.per_device[0], &solo.bfs(src).stats, "{:?} bfs", mode);
        let run = e.sssp(&w, src);
        prop_assert_eq!(&run.per_device[0], &solo.sssp(&w, src).stats, "{:?} sssp", mode);
        let run = e.cc();
        prop_assert_eq!(&run.per_device[0], &solo.cc().stats, "{:?} cc", mode);
        let run = e.pagerank(0.85, 5);
        prop_assert_eq!(
            &run.per_device[0], &solo.pagerank(0.85, 5).stats,
            "{:?} pagerank", mode
        );
        prop_assert_eq!(run.exchange.bytes, 0, "one device exchanges nothing");
    }
}
