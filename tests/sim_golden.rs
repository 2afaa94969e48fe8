//! Golden pin of the simulated numbers: a fixed scenario matrix whose
//! full [`RunStats`] — plus per-device stats, exchange traffic, per-query
//! batch stats and the outputs — is folded into FNV-1a digests and
//! compared with a table generated at the commit *before* the three
//! iteration drivers were merged into one.
//!
//! The differential harnesses compare `Engine` with a 1-device
//! `ShardedEngine` and a 1-query batch with a solo run; once those share
//! one driver they compare a function with itself. This table is the
//! remaining oracle: any change to a simulated number, on any knob the
//! matrix reaches, shows up here as a changed cell.
//!
//! Matrix, per graph (one small Kronecker, one uniform):
//! {Naive, Merged, Merged+Aligned, Hybrid, Hybrid pipelined, UVM
//! placement} (one table row each) × the ten [`SHAPES`] (one column
//! each): all four programs solo, BFS and SSSP through `run_batch` at 1,
//! 3 and 8 queries, all four programs sharded at 1, 2 and 4 devices under
//! both partitioners. One row per configuration that differs: a
//! prefetcher exists only inside `Transport::Hybrid`, so only Hybrid has
//! a pipelined row, and `rows_are_pairwise_distinct` keeps an axis that
//! moves no pinned number out of the table.
//!
//! **Side systems.** The run loops that bypass the engine's driver — the
//! §3.3 toy kernels with their UVM and `cudaMemcpy` references, the §6
//! compressed BFS, the Subway baseline — and HALO (an `Engine` over a
//! relabeled graph) are pinned the same way in [`TOY`] and the two
//! `*_SIDE` tables, generated at the commit before those loops were
//! routed through one measurement bracket.
//!
//! **Re-pinning.** The simulator is deterministic, so a mismatch is a
//! modelling change, never noise. If the change is intended and declared,
//! run `cargo test --test sim_golden -- --nocapture`, and paste the
//! printed table over the `const` of the failing graph.

mod common;

use emogi_repro::core::compressed::CompressedBfs;
use emogi_repro::core::sharded::{ShardedConfig, ShardedEngine};
use emogi_repro::core::toy::{self, ToyPattern, ToyRun};
use emogi_repro::graph::compress::CompressedCsr;
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use emogi_repro::sim::interconnect::LinkStats;

/// The table's columns, in order.
const SHAPES: [&str; 10] = [
    "solo",
    "batch1",
    "batch3",
    "batch8",
    "shard1-contiguous",
    "shard1-degree",
    "shard2-contiguous",
    "shard2-degree",
    "shard4-contiguous",
    "shard4-degree",
];

type Row = (&'static str, [u64; 10]);

/// `kronecker(9, 16, 21)`, generated at the parent commit.
#[rustfmt::skip]
const KRONECKER: &[Row] = &[
    ("Naive", [
        0x6482343512b3165e, 0xe39da78537ca464b,
        0x548919aca557b1f1, 0xbbad6382ef572d62,
        0xa5473f4e26492163, 0xa5473f4e26492163,
        0x4aaa3151c21a6f00, 0x93250475d7782d2c,
        0xa92295465258ab27, 0x58a673ca34c53aa1,
    ]),
    ("Merged", [
        0xc646e463f6c1bda6, 0xc5cd262754ff4717,
        0xf7205746d15f0275, 0xc735052961312a56,
        0xfb6a1fb787feb4c3, 0xfb6a1fb787feb4c3,
        0x7bd276553cc39897, 0x56895ce9fae3b215,
        0xd00ab071f54a3d32, 0x3c52f8faf4c8ab4c,
    ]),
    ("Merged+Aligned", [
        0xc5e22dc274bf9c46, 0x08ba277965af6e2b,
        0x8c646b5f667ac5d1, 0xcc24437e66b13eb9,
        0x26ad24e78daf57cf, 0x26ad24e78daf57cf,
        0x9d1903af1bf966a5, 0x6a1ecda8dd328490,
        0xdb69b997c2be297f, 0x4232c4cedc57caf2,
    ]),
    ("Hybrid", [
        0x574821cb908bcc63, 0x65ab5dffaae37d7b,
        0xbb3fc4afffd0cfc1, 0xa37474d54fe07df4,
        0xf58d92e6760ca703, 0xf58d92e6760ca703,
        0xe76a6ed5143f4ea1, 0x42bea676e2f9344e,
        0x763a835a9a8cc525, 0xb2c3827506350ab1,
    ]),
    ("Hybrid pipelined", [
        0x3f9b2eb2fa81e46d, 0x544897e37f56f96b,
        0xab8d460adb0af351, 0xbd078818bc97d248,
        0x4ed72dfd53d69517, 0x4ed72dfd53d69517,
        0x71e5fde6c2d838a9, 0x8a016a77d77d50bd,
        0x910a39ba58def923, 0x07a60172c7497edf,
    ]),
    ("UVM", [
        0x105717d3bf063413, 0x8f90ca3846dba9d7,
        0xae0e45711a215a1d, 0xec9306c007731b62,
        0x8c35cb4e787a12c3, 0x8c35cb4e787a12c3,
        0x2614e24bc917f056, 0x81b07c5bfa59d7e9,
        0xc9d52ded6e2e78f4, 0xd0de5d5db66d3800,
    ]),
];

/// `uniform_random(400, 6, 5)`, generated at the parent commit.
#[rustfmt::skip]
const UNIFORM: &[Row] = &[
    ("Naive", [
        0x00736c5128148500, 0xd05daeccd3720d06,
        0x0c7f1e26d62b6bfb, 0xec1586bef83b3c1c,
        0xfd88866587aded32, 0xfd88866587aded32,
        0xf604a4628bbbeb04, 0xdd8949c54994ba9d,
        0x23ffabf890fd79e0, 0x777ad96c8f5463a8,
    ]),
    ("Merged", [
        0x00ff1192d2309e6c, 0x0acdce82b6a95802,
        0xa95d31f961ed33ba, 0xe2776de6981f12e4,
        0x240530307a5a5d3e, 0x240530307a5a5d3e,
        0x156ee46064146948, 0x60dc67d44d9fd3af,
        0x7b51f9bf235ba7f1, 0x1ac8127042111116,
    ]),
    ("Merged+Aligned", [
        0x00ff1192d2309e6c, 0x0acdce82b6a95802,
        0xa95d31f961ed33ba, 0xe2776de6981f12e4,
        0x240530307a5a5d3e, 0x240530307a5a5d3e,
        0x156ee46064146948, 0x60dc67d44d9fd3af,
        0x7b51f9bf235ba7f1, 0x1ac8127042111116,
    ]),
    ("Hybrid", [
        0xe133e320c7fa91f0, 0xab8f418761cf9246,
        0xcf27a4550e29e0d3, 0x9b380c2756bccb9e,
        0x53e76453bdc520f2, 0x53e76453bdc520f2,
        0xbc711c8e6e7b689f, 0x612b84ca7c2b0d84,
        0x07a6059df5901c20, 0x35d695802be36ff0,
    ]),
    ("Hybrid pipelined", [
        0x915b55ad021b74d9, 0x6f1175365392c5ea,
        0x2106b6442b5c757d, 0x26e9314441f353c7,
        0xcd86e9d83e86416a, 0xcd86e9d83e86416a,
        0x675d709f029dc861, 0x9775e4c1ec69ce69,
        0x69aa504d317a8039, 0xd88a5d9bb31ad17f,
    ]),
    ("UVM", [
        0x2587ea171dd0ff8e, 0x45e4d1ff7400ead2,
        0xc358b98346907388, 0x2523ac7899aeadee,
        0x0874fdc2202fe452, 0x0874fdc2202fe452,
        0x4a689ae160ab2872, 0x042f96fe78a0b556,
        0xc2d66812c60f7dea, 0xede47599871cdd51,
    ]),
];

/// One side-system cell: its label and digest.
type SideRow = (&'static str, u64);

/// The §3.3 toy runs over [`TOY_BYTES`] (no graph involved), generated
/// at the parent commit.
#[rustfmt::skip]
const TOY: &[SideRow] = &[
    ("Strided", 0xcf486cc2de53c48f),
    ("Merged and Aligned", 0x97560cf6f4a25665),
    ("Merged but Misaligned", 0x6173e7d1670cc2d9),
    ("UVM", 0x8ba2ca29f96eca6f),
    ("cudaMemcpy", 0x402458b2aae0ec87),
];

/// The side systems on `kronecker(9, 16, 21)`, generated at the parent
/// commit.
#[rustfmt::skip]
const KRONECKER_SIDE: &[SideRow] = &[
    ("compressed-bfs", 0x3a3e76bde2e7e40c),
    ("subway-sync-bfs", 0x0000784648682c07),
    ("subway-sync-sssp", 0x0230808cf9978b89),
    ("subway-sync-cc", 0xca5f4f74e6ff7e61),
    ("subway-async-bfs", 0xf4fe5fe1315f92c3),
    ("subway-async-sssp", 0x4bd14acc431e29e5),
    ("subway-async-cc", 0xb6b3a64be2051849),
    ("halo-bfs", 0x07cf49f593eaeeaa),
];

/// The side systems on `uniform_random(400, 6, 5)`, generated at the
/// parent commit.
#[rustfmt::skip]
const UNIFORM_SIDE: &[SideRow] = &[
    ("compressed-bfs", 0x7ad8ad29dde95ae4),
    ("subway-sync-bfs", 0x24ca65aeb505472b),
    ("subway-sync-sssp", 0xe1e634707919f2cc),
    ("subway-sync-cc", 0xb79d3068a7cbfd21),
    ("subway-async-bfs", 0x117604076b4b5a7b),
    ("subway-async-sssp", 0xf13f91cf73856c9d),
    ("subway-async-cc", 0x1873b677b6960145),
    ("halo-bfs", 0x3a8aecc2ab52cbda),
];

/// Batch sources; the first `k` serve a `k`-query batch. All distinct,
/// all below both graphs' vertex counts.
const SOURCES: [u32; 8] = [1, 3, 17, 40, 99, 150, 222, 301];

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            self.word(x);
        }
    }

    /// Every field of `s`. The exhaustive destructuring makes a counter
    /// that is added to [`RunStats`] but not pinned here a compile error.
    fn stats(&mut self, s: &RunStats) {
        let RunStats {
            elapsed_ns,
            kernel_launches,
            pcie_read_requests,
            request_sizes,
            host_bytes,
            avg_pcie_gbps,
            page_faults,
            pages_migrated,
            host_dram_bytes,
            l2_sector_hits,
            l2_sector_misses,
            lane_bytes,
            txn_bytes,
            cxl_read_requests,
            cxl_bytes,
            transfer,
            prefetch,
            shared_fetch,
        } = s;
        let TransferStats {
            staged_regions,
            staged_bytes,
            pool_fallbacks,
            staging_rounds,
            cxl_staged_regions,
            cxl_staged_bytes,
            demoted_regions,
        } = transfer;
        let PrefetchStats {
            prefetched_regions,
            prefetched_bytes,
            hit_regions,
            hit_bytes,
            wasted_bytes,
            stall_ns,
            hidden_ns,
        } = prefetch;
        self.words([
            *elapsed_ns,
            *kernel_launches,
            *pcie_read_requests,
            *host_bytes,
            avg_pcie_gbps.to_bits(),
            *page_faults,
            *pages_migrated,
            *host_dram_bytes,
            *l2_sector_hits,
            *l2_sector_misses,
            *lane_bytes,
            *txn_bytes,
            *cxl_read_requests,
            *cxl_bytes,
            u64::from(*shared_fetch),
        ]);
        self.words(request_sizes.buckets);
        self.word(request_sizes.other);
        self.words([
            *staged_regions,
            *staged_bytes,
            *pool_fallbacks,
            *staging_rounds,
            *cxl_staged_regions,
            *cxl_staged_bytes,
            *demoted_regions,
        ]);
        self.words([
            *prefetched_regions,
            *prefetched_bytes,
            *hit_regions,
            *hit_bytes,
            *wasted_bytes,
            *stall_ns,
            *hidden_ns,
        ]);
    }

    /// A finished program: its output words, a full sweep's pass count,
    /// then the full stats.
    fn run(&mut self, run: &ProgramRun) {
        self.words(run.words());
        self.words(run.passes());
        self.stats(run.stats());
    }

    fn batch<O>(&mut self, batch: BatchRun<O>, program: fn(Run<O>) -> ProgramRun) {
        self.stats(&batch.stats);
        self.word(batch.runs.len() as u64);
        for run in batch.runs {
            self.run(&program(run));
        }
    }

    fn sharded<O>(&mut self, run: ShardedRun<O>, program: fn(Run<O>) -> ProgramRun) {
        let ShardedRun {
            output,
            stats,
            per_device,
            exchange,
            iterations,
        } = run;
        self.run(&program(Run { output, stats }));
        for s in &per_device {
            self.stats(s);
        }
        let LinkStats {
            bytes,
            transfers,
            busy_ns,
        } = exchange;
        self.words([bytes, transfers, busy_ns, iterations]);
    }

    /// A toy run: label, both bandwidths and the bandwidth-over-time
    /// series by bit pattern, then the full stats.
    fn toy(&mut self, run: &ToyRun) {
        self.words(run.label.bytes().map(u64::from));
        self.words([run.pcie_gbps.to_bits(), run.dram_gbps.to_bits()]);
        self.word(run.series.len() as u64);
        for &(t, gbps) in &run.series {
            self.words([t, gbps.to_bits()]);
        }
        self.stats(&run.stats);
    }
}

/// The six named configurations (one table row each), on a machine whose cache
/// (16 KiB) and transfer regions (4 KiB) are shrunk below the test
/// graphs' edge lists so that misses, staging and prefetching all fire.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let mut out = common::configs();
    for (_, cfg) in &mut out {
        cfg.machine.gpu.cache.capacity_bytes = 16 << 10;
        if let Transport::Hybrid { transfer, .. } = &mut cfg.transport {
            transfer.region_bytes = 4 << 10;
        }
    }
    out
}

/// One table cell. Every shape starts from a fresh placement and runs
/// SSSP first: a UVM engine must place the weight array before its first
/// managed kernel.
fn cell(shape: usize, cfg: &EngineConfig, g: &CsrGraph, w: &[u32]) -> u64 {
    let mut h = Fnv::new();
    match shape {
        0 => {
            let mut e = Engine::load(cfg.clone(), g);
            h.run(&ProgramRun::Sssp(e.sssp(w, 3)));
            h.run(&ProgramRun::Bfs(e.bfs(3)));
            h.run(&ProgramRun::Cc(e.cc()));
            h.run(&ProgramRun::PageRank(e.pagerank(0.85, 4)));
        }
        1..=3 => {
            let k = [1, 3, 8][shape - 1];
            let mut e = Engine::load(cfg.clone(), g);
            let sssp = SOURCES[..k].iter().map(|&s| SsspProgram::new(g, w, s));
            h.batch(e.run_batch(sssp.collect()), ProgramRun::Sssp);
            let bfs = SOURCES[..k].iter().map(|&s| BfsProgram::new(g, s));
            h.batch(e.run_batch(bfs.collect()), ProgramRun::Bfs);
        }
        _ => {
            let devices = [1, 2, 4][(shape - 4) / 2];
            let partition = PartitionStrategy::all()[(shape - 4) % 2];
            let mut scfg = ShardedConfig::emogi_v100(devices).with_partition(partition);
            scfg.engine = cfg.clone();
            let mut e = ShardedEngine::load(scfg, g);
            h.sharded(e.sssp(w, 3), ProgramRun::Sssp);
            h.sharded(e.bfs(3), ProgramRun::Bfs);
            h.sharded(e.cc(), ProgramRun::Cc);
            h.sharded(e.pagerank(0.85, 4), ProgramRun::PageRank);
        }
    }
    h.0
}

/// Compute the whole matrix for `g` and compare it with `want`; on any
/// mismatch print the full actual table, paste-ready.
fn check(name: &str, g: &CsrGraph, want: &[Row]) {
    let w = generate_weights(g.num_edges(), 11);
    let mut got: Vec<Row> = Vec::new();
    for (label, cfg) in configs() {
        let mut cells = [0u64; 10];
        for (shape, c) in cells.iter_mut().enumerate() {
            *c = cell(shape, &cfg, g, &w);
        }
        got.push((label, cells));
    }
    let mut diffs = Vec::new();
    for (i, (label, cells)) in got.iter().enumerate() {
        match want.get(i) {
            Some((wl, wc)) if wl == label => {
                for (s, (a, b)) in cells.iter().zip(wc).enumerate() {
                    if a != b {
                        diffs.push(format!("{label} / {}", SHAPES[s]));
                    }
                }
            }
            _ => diffs.push(format!("{label} / (row missing from the table)")),
        }
    }
    if diffs.is_empty() && want.len() == got.len() {
        return;
    }
    println!("// actual table for {name}:");
    for (label, cells) in &got {
        println!("    (\"{label}\", [");
        for pair in cells.chunks(2) {
            let line: Vec<String> = pair.iter().map(|c| format!("{c:#018x}")).collect();
            println!("        {},", line.join(", "));
        }
        println!("    ]),");
    }
    panic!(
        "{name}: {} simulated cells differ from the pinned table \
         (actual table printed above): {diffs:#?}",
        diffs.len()
    );
}

#[test]
fn kronecker_matrix_matches_the_table_pinned_at_the_parent_commit() {
    let g = generators::kronecker(9, 16, 21);
    let max_degree = (0..g.num_vertices() as u32).map(|v| g.degree(v)).max();
    assert!(
        max_degree >= Some(emogi_repro::core::sharded::HUB_SPLIT_DEGREE),
        "the pin must cover cooperative hub splitting: {max_degree:?}"
    );
    check("KRONECKER", &g, KRONECKER);
}

#[test]
fn uniform_matrix_matches_the_table_pinned_at_the_parent_commit() {
    let g = generators::uniform_random(400, 6, 5);
    check("UNIFORM", &g, UNIFORM);
}

/// Array size of the pinned toy runs: 128 pages, 4,096 cache lines.
const TOY_BYTES: u64 = 512 << 10;

/// The V100 with the 16 KiB cache of [`configs`].
fn side_machine() -> MachineConfig {
    let mut m = MachineConfig::v100_gen3();
    m.gpu.cache.capacity_bytes = 16 << 10;
    m
}

fn toy_cells() -> Vec<SideRow> {
    let mut out: Vec<SideRow> = Vec::new();
    for pattern in ToyPattern::all() {
        let mut h = Fnv::new();
        h.toy(&toy::run_zero_copy(side_machine(), pattern, TOY_BYTES));
        out.push((pattern.name(), h.0));
    }
    let mut h = Fnv::new();
    h.toy(&toy::run_uvm_reference(side_machine(), TOY_BYTES));
    out.push(("UVM", h.0));
    let gbps = toy::run_memcpy_reference(side_machine(), TOY_BYTES);
    out.push(("cudaMemcpy", gbps.to_bits()));
    out
}

/// Every graph-bound side system on `g`. Each system runs twice on one
/// machine (sources 3 and 17, or two CC runs), so a per-run bracket that
/// reported lifetime counters would move the second digest.
fn side_cells(g: &CsrGraph) -> Vec<SideRow> {
    let w = generate_weights(g.num_edges(), 11);
    let mut out: Vec<SideRow> = Vec::new();

    let compressed = CompressedCsr::encode(g);
    let mut sys = CompressedBfs::new(side_machine(), &compressed);
    let mut h = Fnv::new();
    for src in [3, 17] {
        let (levels, stats) = sys.bfs(src);
        h.words(levels.iter().map(|&l| u64::from(l)));
        h.stats(&stats);
    }
    out.push(("compressed-bfs", h.0));

    for (mode, labels) in [
        (
            SubwayMode::Sync,
            ["subway-sync-bfs", "subway-sync-sssp", "subway-sync-cc"],
        ),
        (
            SubwayMode::Async,
            ["subway-async-bfs", "subway-async-sssp", "subway-async-cc"],
        ),
    ] {
        let mut sys = SubwaySystem::new(side_machine(), g, Some(&w), mode);
        let [mut bfs, mut sssp, mut cc] = [Fnv::new(), Fnv::new(), Fnv::new()];
        for src in [3, 17] {
            bfs.run(&ProgramRun::Bfs(sys.bfs(src)));
            sssp.run(&ProgramRun::Sssp(sys.sssp(src)));
            cc.run(&ProgramRun::Cc(sys.cc()));
        }
        out.extend(labels.into_iter().zip([bfs.0, sssp.0, cc.0]));
    }

    let mut cfg = EngineConfig::uvm_v100();
    cfg.machine = side_machine();
    let halo = HaloSystem::new(cfg, g);
    let mut h = Fnv::new();
    for src in [3, 17] {
        h.run(&ProgramRun::Bfs(halo.bfs(src)));
    }
    out.push(("halo-bfs", h.0));
    out
}

/// Compare a side-system table with `want`; on any mismatch print the
/// actual table, paste-ready.
fn check_side(name: &str, got: &[SideRow], want: &[SideRow]) {
    if got == want {
        return;
    }
    println!("// actual table for {name}:");
    for (label, digest) in got {
        println!("    ({label:?}, {digest:#018x}),");
    }
    let moved: Vec<&str> = got
        .iter()
        .filter(|row| !want.contains(row))
        .map(|row| row.0)
        .collect();
    panic!(
        "{name}: the side-system table differs from the pinned one \
         (actual table printed above); moved or new cells: {moved:?}"
    );
}

#[test]
fn toy_runs_match_the_table_pinned_at_the_parent_commit() {
    check_side("TOY", &toy_cells(), TOY);
}

#[test]
fn kronecker_side_systems_match_the_table_pinned_at_the_parent_commit() {
    let g = generators::kronecker(9, 16, 21);
    check_side("KRONECKER_SIDE", &side_cells(&g), KRONECKER_SIDE);
}

#[test]
fn uniform_side_systems_match_the_table_pinned_at_the_parent_commit() {
    let g = generators::uniform_random(400, 6, 5);
    check_side("UNIFORM_SIDE", &side_cells(&g), UNIFORM_SIDE);
}

/// No two rows agree in all twenty cells: a row that copies another
/// pins nothing, and an axis that moves no pinned number would double
/// the matrix (and its run time) for no coverage. The check spans both
/// graphs because one graph alone may not exercise a real axis — every
/// UNIFORM list (maximum degree 11) fits in its warp's first 32-lane
/// window with or without the alignment shift, so its Merged and
/// Merged+Aligned rows coincide.
#[test]
fn rows_are_pairwise_distinct() {
    let labels = |t: &[Row]| t.iter().map(|r| r.0).collect::<Vec<_>>();
    assert_eq!(labels(KRONECKER), labels(UNIFORM), "one row set per graph");
    for i in 0..KRONECKER.len() {
        for j in 0..i {
            assert!(
                KRONECKER[i].1 != KRONECKER[j].1 || UNIFORM[i].1 != UNIFORM[j].1,
                "rows {:?} and {:?} are copies on both graphs",
                KRONECKER[i].0,
                KRONECKER[j].0
            );
        }
    }
}
