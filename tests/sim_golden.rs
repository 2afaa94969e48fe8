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
//! {Naive, Merged, Merged+Aligned, Merged+Aligned split, Hybrid, Hybrid
//! pipelined, UVM placement} (one table row each) × the ten [`SHAPES`]
//! (one column each): all four programs solo, BFS and SSSP through
//! `run_batch` at 1, 3 and 8 queries, all four programs sharded at 1, 2
//! and 4 devices under both partitioners. One row per configuration that differs: a
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
//! Seeded mutations this file is known to catch:
//!
//! - `Engine::load` placing every graph zero-copy whatever the
//!   configured transport fails both matrix tests — outputs do not move,
//!   the UVM and hybrid rows' faults, migrations and stagings do;
//! - `Prefetcher::rank_candidates` taking the round's clock and adding
//!   `now % 2` to its threshold, and `TransferPolicy::decide_tiered`
//!   taking `machine.now` and staging every touched region on odd
//!   clocks, each fail both matrix tests. Neither is a kernel launch, so
//!   the compiler's launch gates (edge views, `run_kernel`'s borrow of
//!   the machine) do not reach them; this file does;
//! - `DmaEngine::copy_to_device` returning `arrived` without
//!   `device.write_bulk` moves no pinned digit, but fails the Kronecker
//!   matrix test at both seeds, at the ledger check that ends every
//!   drive ("`hbm.bytes_written >= dma.bytes_to_device` broken: 39360 vs
//!   72304");
//! - `Machine::account_async_stage` without `self.dma.bytes_to_device +=
//!   bytes` fails both matrix tests at both seeds ("`dma.bytes_to_device
//!   == staged_bytes - cxl_staged_bytes` broken").
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
        0xac702be18a726d0d, 0x95eba7a05fcec69d,
        0xa5473f4e26492163, 0xa5473f4e26492163,
        0xbec495b656df9552, 0x2e3b4bb6aa19e4b1,
        0x8e0cae5e8cf02367, 0x55e547a87433433c,
    ]),
    ("Merged", [
        0xc646e463f6c1bda6, 0xc5cd262754ff4717,
        0x279e16b98e619479, 0x563776e0ecbed010,
        0xfb6a1fb787feb4c3, 0xfb6a1fb787feb4c3,
        0x81ed80afb815b175, 0xbbc9dae1f8e15946,
        0xc2e3702b1ded3040, 0x122213de4b9f89b7,
    ]),
    ("Merged+Aligned", [
        0xc5e22dc274bf9c46, 0x08ba277965af6e2b,
        0xcfcfacdfc73b6ab1, 0xc91f2305578f725e,
        0x26ad24e78daf57cf, 0x26ad24e78daf57cf,
        0xbbb0343c657e6a28, 0xf800ce2aa8f3fdf5,
        0x7bf78823f11807dc, 0x1a3054c05d972a80,
    ]),
    ("Merged+Aligned split", [
        0x9f7d462fe04c1eef, 0xcbb25e31fef26953,
        0x1905cff6028dc351, 0x3d762a58ab1a5cc8,
        0x7d767214e72797fb, 0x7d767214e72797fb,
        0x14a1a0540649f9d7, 0x72d0aa793a6350da,
        0x641c900f54f573c9, 0xd5af0ae67a486ef9,
    ]),
    ("Hybrid", [
        0x593fbf970c3a69d5, 0x9a12bfce00fbc8af,
        0x044f418abb64c269, 0x66f139aa491c4797,
        0x7f6db0b6832611e7, 0x7f6db0b6832611e7,
        0x9ffbfe09ac82e925, 0x03f7a9cbad5eb853,
        0x94bf0edcad121150, 0xc2e958de9237abcf,
    ]),
    ("Hybrid pipelined", [
        0x3014b3cefe9c7ad1, 0xdcc060f1d1abc753,
        0xf577e67ea457db51, 0xdd07afe9c9c35e65,
        0x303db19899c3e8d3, 0x303db19899c3e8d3,
        0xfda2041c393b4b86, 0xa5366bc789365d88,
        0x1d97565e67d70a83, 0x746fac2ea8176e75,
    ]),
    ("UVM", [
        0x105717d3bf063413, 0x8f90ca3846dba9d7,
        0x3ab5aa5da4a3c130, 0xc4fd63e134813199,
        0x8c35cb4e787a12c3, 0x8c35cb4e787a12c3,
        0xf9d95ba507964886, 0x9e0a67bd2812fc13,
        0xe901404f99b4f9bf, 0xb8fff3bb8cd175e9,
    ]),
];

/// `uniform_random(400, 6, 5)`, generated at the parent commit.
#[rustfmt::skip]
const UNIFORM: &[Row] = &[
    ("Naive", [
        0x00736c5128148500, 0xd05daeccd3720d06,
        0x596ae6f32c3510bf, 0x1863b90c58c11742,
        0xfd88866587aded32, 0xfd88866587aded32,
        0x30421ed5efb9b00e, 0x3d40634247ff909c,
        0x0aadaea3e8bab47b, 0x15966d0dfd352d78,
    ]),
    ("Merged", [
        0x00ff1192d2309e6c, 0x0acdce82b6a95802,
        0xf2194d8769d1d544, 0xfc8d3bba722401be,
        0x240530307a5a5d3e, 0x240530307a5a5d3e,
        0x903125daa516ff02, 0xab0e1b6d0beed897,
        0x9e12306bec2dabbb, 0xd7cee454a5b4c5dc,
    ]),
    ("Merged+Aligned", [
        0x00ff1192d2309e6c, 0x0acdce82b6a95802,
        0xf2194d8769d1d544, 0xfc8d3bba722401be,
        0x240530307a5a5d3e, 0x240530307a5a5d3e,
        0x903125daa516ff02, 0xab0e1b6d0beed897,
        0x9e12306bec2dabbb, 0xd7cee454a5b4c5dc,
    ]),
    ("Merged+Aligned split", [
        0x00ff1192d2309e6c, 0x0acdce82b6a95802,
        0xf2194d8769d1d544, 0xfc8d3bba722401be,
        0x240530307a5a5d3e, 0x240530307a5a5d3e,
        0x903125daa516ff02, 0xab0e1b6d0beed897,
        0x9e12306bec2dabbb, 0xd7cee454a5b4c5dc,
    ]),
    ("Hybrid", [
        0xe133e320c7fa91f0, 0xab8f418761cf9246,
        0xf9a3d8d21bc58a90, 0x6f3289f808fb6b47,
        0x53e76453bdc520f2, 0x53e76453bdc520f2,
        0x8bd85caf36bf37e4, 0xcda9978fa1226f0b,
        0xe53797e33911c657, 0xfbacad9a816dbb81,
    ]),
    ("Hybrid pipelined", [
        0x915b55ad021b74d9, 0x6f1175365392c5ea,
        0x67d23641edc83314, 0xd901d2b08806765b,
        0xcd86e9d83e86416a, 0xcd86e9d83e86416a,
        0x585a4a3f79a935c2, 0xa1c2c72285480889,
        0x268cc02b8389fd63, 0x22e64a9a6447a8ad,
    ]),
    ("UVM", [
        0x2587ea171dd0ff8e, 0x45e4d1ff7400ead2,
        0xdb91aa7908a6c8c4, 0xb8ebc6422278b229,
        0x0874fdc2202fe452, 0x0874fdc2202fe452,
        0x6118027a0fac20ea, 0xc3e6686a13bb3bd8,
        0x547ccaed280a6f5a, 0xddd49e60015eef52,
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
    /// `last_warp_alone_ns` and `barrier_wait_ns` are named and not
    /// folded: they read when warps retired and how long devices waited
    /// at barriers, which the pinned clocks already fix.
    fn stats(&mut self, s: &RunStats) {
        let RunStats {
            elapsed_ns,
            kernel_launches,
            last_warp_alone_ns: _,
            barrier_wait_ns: _,
            pcie_read_requests,
            request_sizes,
            host_bytes,
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
            s.avg_pcie_gbps().to_bits(),
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
        self.words([run.pcie_gbps().to_bits(), run.dram_gbps().to_bits()]);
        self.word(run.series.len() as u64);
        for &(t, gbps) in &run.series {
            self.words([t, gbps.to_bits()]);
        }
        self.stats(&run.stats);
    }
}

/// The seven named configurations (one table row each), on a machine whose cache
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
/// managed kernel. Every drive ends with every device's ledgers checked
/// (`GraphLayout::check_ledgers`).
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
