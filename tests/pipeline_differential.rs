//! Pipelined-execution differential harness: on random graphs, the
//! pipelined (overlapped DMA/kernel) hybrid engine is checked against
//! the synchronous hybrid engine for every shipped program (BFS / SSSP /
//! CC / PageRank), through all three execution fronts — the solo
//! [`Engine`], batched [`run_batch`] execution, and the [`ShardedEngine`]
//! at 1, 2 and 4 devices. Outputs and iteration counts must be
//! **bit-identical**; every per-run statistic except the wall clock
//! (`elapsed_ns`, the derived `avg_pcie_gbps`) and the prefetcher's own
//! counters must be equal too — speculation is allowed to change *when*
//! bytes move, never *which* bytes move.
//!
//! A prefetcher exists only inside [`Transport::Hybrid`], so every case
//! is a hybrid pair; what the cases draw instead of an access mode is
//! the region size, small enough that the tiny random edge lists span
//! several regions and the ranking has something to order.
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! pipeline_differential`; CI pins `EMOGI_PROPTEST_SEED` explicitly
//! (see `.github/workflows/ci.yml`) and the same variable reproduces
//! that exact run.

mod common;

use common::{answers, assert_same_results, build_graph, four_programs};
use emogi_repro::core::sharded::{ShardedConfig, ShardedEngine};
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use proptest::prelude::*;

/// The device counts the sharded front is checked at.
const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];

/// Hybrid transport over `region_bytes` regions, synchronous or with the
/// default prefetcher.
fn hybrid(region_bytes: u64, prefetch: Option<PrefetchConfig>) -> EngineConfig {
    EngineConfig::emogi_v100().with_transport(Transport::Hybrid {
        transfer: TransferConfig {
            region_bytes,
            ..TransferConfig::default()
        },
        prefetch,
    })
}

fn sync_cfg(region_bytes: u64) -> EngineConfig {
    hybrid(region_bytes, None)
}

fn pipe_cfg(region_bytes: u64) -> EngineConfig {
    hybrid(region_bytes, Some(PrefetchConfig::default()))
}

/// Strip the fields speculation is *allowed* to change: the wall clock,
/// the bandwidth average derived from it, and the prefetcher's own
/// counters. Everything left must be bit-identical between the
/// synchronous and pipelined paths.
fn semantic(stats: &RunStats) -> RunStats {
    let mut s = stats.clone();
    s.elapsed_ns = 0;
    s.avg_pcie_gbps = 0.0;
    s.prefetch = Default::default();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Solo engine, all four programs: outputs, iteration counts and
    /// every semantic statistic are bit-identical with the pipeline on.
    #[test]
    fn solo_runs_are_bit_identical_with_the_pipeline_on(
        edges in common::edges(72, 350),
        src in 0u32..72,
        region_shift in 8u32..12,
        weight_seed in 0u64..1_000,
    ) {
        let g = build_graph(&edges, 72);
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 7);
        let region = 1u64 << region_shift;
        let tag = format!("{region} B regions");

        let sync = answers(&mut Engine::load(sync_cfg(region), &g), &specs);
        let pipe = answers(&mut Engine::load(pipe_cfg(region), &g), &specs);
        assert_same_results(&pipe, &sync, &tag);
        for (a, b) in sync.iter().zip(&pipe) {
            prop_assert_eq!(
                semantic(&a.stats), semantic(&b.stats),
                "{} {} stats", &tag, a.kind.name()
            );
        }
    }

    /// Batched multi-query execution: per-query outputs, per-query
    /// iteration counts and the batch-level semantic stats are
    /// bit-identical with the pipeline on.
    #[test]
    fn batched_runs_are_bit_identical_with_the_pipeline_on(
        edges in common::edges(64, 300),
        sources in common::sources(64, 5),
        region_shift in 8u32..12,
    ) {
        let g = build_graph(&edges, 64);
        let region = 1u64 << region_shift;
        let tag = format!("{region} B regions");

        let mut sync = Engine::load(sync_cfg(region), &g);
        let mut pipe = Engine::load(pipe_cfg(region), &g);
        let programs = |g: &CsrGraph| -> Vec<BfsProgram> {
            sources.iter().map(|&s| BfsProgram::new(g, s)).collect()
        };

        let a = sync.run_batch(programs(&g));
        let b = pipe.run_batch(programs(&g));
        prop_assert_eq!(semantic(&a.stats), semantic(&b.stats), "{} batch stats", &tag);
        prop_assert_eq!(a.runs.len(), b.runs.len());
        for (q, (ra, rb)) in a.runs.iter().zip(&b.runs).enumerate() {
            prop_assert_eq!(&ra.levels, &rb.levels, "{} query {} levels", &tag, q);
            prop_assert_eq!(
                ra.stats.kernel_launches, rb.stats.kernel_launches,
                "{} query {} iterations", &tag, q
            );
            prop_assert_eq!(
                semantic(&ra.stats), semantic(&rb.stats),
                "{} query {} stats", &tag, q
            );
        }
    }

    /// Sharded execution at 1, 2 and 4 devices: outputs and iteration
    /// counts with the pipeline on equal the synchronous single-device
    /// engine's, for all four programs (each device runs its own copy
    /// lane, so this also pins cross-device prediction independence).
    #[test]
    fn sharded_runs_are_bit_identical_with_the_pipeline_on(
        edges in common::edges(64, 300),
        src in 0u32..64,
        region_shift in 8u32..12,
        weight_seed in 0u64..1_000,
    ) {
        let g = build_graph(&edges, 64);
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 5);
        let region = 1u64 << region_shift;
        let want = answers(&mut Engine::load(sync_cfg(region), &g), &specs);

        for devices in DEVICE_COUNTS {
            let mut cfg = ShardedConfig::emogi_v100(devices);
            cfg.engine = pipe_cfg(region);
            let got = answers(&mut ShardedEngine::load(cfg, &g), &specs);
            assert_same_results(&got, &want, &format!("{region} B regions/{devices}dev"));
        }
    }
}

/// The harness's own precondition, on a fixed scenario: the pipelined
/// side really speculates and its copies really get adopted — two
/// synchronous engines would satisfy every equality above.
#[test]
fn the_pipelined_side_actually_speculates() {
    let g = generators::kronecker(9, 16, 21);
    let shrink = |mut cfg: EngineConfig| {
        cfg.machine.gpu.cache.capacity_bytes = 16 << 10;
        cfg
    };
    let mut sync = Engine::load(shrink(sync_cfg(4 << 10)), &g);
    let mut pipe = Engine::load(shrink(pipe_cfg(4 << 10)), &g);
    let (mut prefetched, mut adopted) = (0, 0);
    for src in [3u32, 11, 200] {
        let (a, b) = (sync.bfs(src), pipe.bfs(src));
        assert_eq!(a.levels, b.levels, "source {src}");
        assert_eq!(semantic(&a.stats), semantic(&b.stats), "source {src}");
        assert_eq!(a.stats.prefetch, Default::default(), "no lane, no counters");
        prefetched += b.stats.prefetch.prefetched_regions;
        adopted += b.stats.prefetch.hit_regions;
    }
    assert!(prefetched > 0, "the prefetcher never issued a region");
    assert!(adopted > 0, "no speculative copy was ever adopted");
}
