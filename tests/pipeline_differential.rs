//! Pipelined-execution differential harness. **Mechanism:** the
//! prefetcher — staging DMA overlapped behind kernel compute — against
//! the synchronous hybrid engine: outputs, iteration counts and every
//! statistic except the clock and the prefetcher's own counters (MSHR
//! merges included) are bit-identical for all four programs, solo, batched and sharded
//! (`Strength::Semantic`; see `tests/common` for the matrix).
//! Speculation may change *when* bytes move, never *which* bytes move.
//! **Generator:** a prefetcher exists only inside [`Transport::Hybrid`],
//! so every case is a hybrid pair; what the cases draw instead of a
//! configuration is the kernel (Merged+Aligned, or the split-hub kernel
//! the hybrid presets run) and the region size, small enough that the
//! tiny random edge lists span several regions and the ranking has
//! something to order. **Witness:** `the_pipelined_side_actually_speculates`,
//! on both kernels over a graph whose hubs the split kernel cuts.
//!
//! Seeded mutation this file is known to catch: skipping
//! `machine.account_async_stage` on adoption in `TransferManager::plan`
//! fails `solo_runs_are_bit_identical_with_the_pipeline_on`,
//! `batched_runs_are_bit_identical_with_the_pipeline_on` and the witness.
//!
//! The proptest shim derives each test's seed from its name, so every
//! failure reproduces locally with a plain `cargo test --test
//! pipeline_differential`; CI pins `EMOGI_PROPTEST_SEED` explicitly
//! (see `.github/workflows/ci.yml`) and the same variable reproduces
//! that exact run.

mod common;

use common::*;
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use proptest::prelude::*;

/// The two kernels a case draws from: the paper's Merged+Aligned and
/// the split-hub kernel.
const KERNELS: [AccessStrategy; 2] = [
    AccessStrategy::MergedAligned,
    AccessStrategy::MergedAlignedSplit,
];

/// The synchronous / pipelined pair: `kernel` on hybrid transport over
/// `region_bytes` regions, without and with the default prefetcher.
fn pair<'a>(
    kernel: AccessStrategy,
    region_bytes: u64,
    g: &'a CsrGraph,
    specs: &'a [ProgramSpec],
) -> [Side<'a>; 2] {
    [false, true].map(|pipelined| {
        let transfer = TransferConfig { region_bytes };
        let hybrid = Transport::Hybrid {
            transfer,
            pipelined,
        };
        let cfg = EngineConfig::emogi_v100().with_strategy(kernel);
        Side::new(cfg.with_transport(hybrid), g, specs)
    })
}

/// The theorem, in `shapes`: pipelined ≡ synchronous at `Semantic`, on
/// `KERNELS[kernel]`.
fn assert_pipeline_invariant(
    g: &CsrGraph,
    specs: &[ProgramSpec],
    kernel: usize,
    shift: u32,
    shapes: &[Shape],
) {
    let kernel = KERNELS[kernel];
    let [sync, pipe] = pair(kernel, 1 << shift, g, specs);
    let tag = format!("{}, {} B regions", kernel.name(), 1u64 << shift);
    assert_equivalent(&sync, &pipe, shapes, Strength::Semantic, &tag);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Solo engine, all four programs.
    #[test]
    fn solo_runs_are_bit_identical_with_the_pipeline_on(
        g in common::graph(72, 350),
        src in 0u32..72,
        region_shift in 8u32..12,
        weight_seed in 0u64..1_000,
        kernel in 0usize..2,
    ) {
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 7);
        assert_pipeline_invariant(&g, &specs, kernel, region_shift, &[Shape::Solo]);
    }

    /// Batched multi-query execution, SSSP and BFS bursts: per-query
    /// outputs, iteration counts and attributed stats, and the machine's
    /// totals over the whole burst.
    #[test]
    fn batched_runs_are_bit_identical_with_the_pipeline_on(
        g in common::graph(64, 300),
        sources in common::sources(64, 5),
        region_shift in 8u32..12,
        kernel in 0usize..2,
    ) {
        let specs = traversals(&sources, &generate_weights(g.num_edges(), 11));
        assert_pipeline_invariant(&g, &specs, kernel, region_shift, &Shape::BATCHED);
    }

    /// Sharded execution at 1, 2 and 4 devices, all four programs (each
    /// device runs its own copy lane, so this also pins cross-device
    /// prediction independence).
    #[test]
    fn sharded_runs_are_bit_identical_with_the_pipeline_on(
        g in common::graph(64, 300),
        src in 0u32..64,
        region_shift in 8u32..12,
        weight_seed in 0u64..1_000,
        kernel in 0usize..2,
    ) {
        let specs = four_programs(src, &generate_weights(g.num_edges(), weight_seed), 5);
        assert_pipeline_invariant(&g, &specs, kernel, region_shift, &Shape::SHARDED);
    }
}

/// The harness's own precondition, on a fixed scenario: the pipelined
/// side really speculates and its copies really get adopted — two
/// synchronous engines would satisfy every equality above — on both
/// kernels, over a graph with hubs the split kernel cuts.
#[test]
fn the_pipelined_side_actually_speculates() {
    let g = generators::kronecker(9, 16, 21);
    assert!((0..512).any(|v| g.degree(v) >= emogi_repro::core::sharded::HUB_SPLIT_DEGREE));
    let specs = [3u32, 11, 200].map(|src| ProgramSpec::Bfs { src });
    for kernel in KERNELS {
        let mut sides = pair(kernel, 4 << 10, &g, &specs);
        sides
            .iter_mut()
            .for_each(|side| side.cfg.machine.gpu.cache.capacity_bytes = 16 << 10);
        let [sync, pipe] = &sides;
        let tag = format!("witness, {}", kernel.name());
        let (a, b) =
            assert_equivalent(sync, pipe, &[Shape::Solo], Strength::Semantic, &tag).remove(0);
        let prefetch = |o: &Outcome| {
            let mut sum = PrefetchStats::default();
            o.runs.iter().for_each(|run| sum += &run.stats().prefetch);
            sum
        };
        assert_eq!(
            prefetch(&a),
            Default::default(),
            "{tag}: no lane, no counters"
        );
        assert!(
            prefetch(&b).prefetched_regions > 0,
            "{tag}: the prefetcher never issued a region"
        );
        assert!(
            prefetch(&b).hit_regions > 0,
            "{tag}: no speculative copy was ever adopted"
        );
        let merges = |o: &Outcome| {
            o.runs
                .iter()
                .map(|run| run.stats().mshr_merges)
                .sum::<u64>()
        };
        assert!(
            merges(&a) > 0,
            "{tag}: no MSHR merge for the `Semantic` comparison to hold equal"
        );
    }
}
