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
//! pipelined, Compressed, Subway, UVM placement} (one table row each) × the
//! seven [`SHAPES`]
//! (one column each): all four programs solo, BFS and SSSP through
//! `run_batch` at 1, 3 and 8 queries, all four programs sharded at 1, 2
//! and 4 devices. One row per configuration that differs: a
//! prefetcher exists only inside `Transport::Hybrid`, so only Hybrid has
//! a pipelined row, and `rows_are_pairwise_distinct` keeps an axis that
//! moves no pinned number out of the table.
//!
//! **Hub ownership.** Both matrix graphs number their hubs low, so the
//! degree-balanced partition gives every hub to device 0 and an owner
//! lookup that always answered 0 would agree with it. [`REVERSED`] pins
//! the frontier programs (SSSP, then BFS) sharded over 2 and 4 devices
//! on the Kronecker graph with its ids reversed, whose hubs the last
//! device owns, for every configuration row.
//!
//! **Per-device program state.** The sharded cells (`shard2-degree`,
//! `shard4-degree` and all of [`REVERSED`]) were re-pinned when every
//! device began launching on its own copy of the program state: a
//! vertex several devices discover in one iteration is now exchanged by
//! each of them, so exchange traffic and the clocks behind it moved.
//! Every device launching on the master state again fails all three
//! tables on exactly those 42 cells.
//!
//! **Compressed lists.** §6's compressed edge lists are a transport, so
//! they are the `Compressed` row of every table: all four programs, solo,
//! batched and sharded, through the one driver. The row was pinned when
//! the separate compressed-BFS loop was deleted, a declared model change:
//! that loop sent every status gather to one address and never stored,
//! where the driver's kernel gathers, stores and activates per edge as
//! on raw lists and charges decoding per decoded edge.
//!
//! **Subway.** §5.6's Subway baseline is a transport too
//! (`Transport::Compacted`, 4-byte elements), so it is the `Subway` row
//! of every table. The row was pinned when the separate Subway system
//! was deleted, a declared model change: that system priced each
//! iteration's device kernel as one analytic HBM stream and ran no
//! PageRank, batch or shard; the driver's kernel reads the packed
//! subgraph warp by warp through the L2 and HBM.
//!
//! **Side systems.** The one kind of run loop that bypasses the engine's
//! driver — the §3.3 toy kernels with their UVM and `cudaMemcpy`
//! references — and HALO (the UVM `Engine` over
//! `LayoutPlan::bfs_ranked`) are pinned the same way in [`TOY`] and the
//! two `*_SIDE` tables, generated at the commit before those loops were
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
//!   `device.write_bulk` moves no pinned digit, but fails both matrix
//!   tests and the [`REVERSED`] test at both seeds, at the ledger check
//!   that ends every drive ("`hbm.bytes_written >= dma.bytes_to_device`
//!   broken: 39392 vs 72304" on the Kronecker graph);
//! - `Machine::account_async_stage` without `self.dma.bytes_to_device +=
//!   bytes` fails both matrix tests and the [`REVERSED`] test at both
//!   seeds ("`dma.bytes_to_device == staged_bytes - cxl_staged_bytes +
//!   compacted_bytes` broken").
//! - `TransferManager::prefetch_for_next` issuing nothing fails both
//!   matrix tests and the [`REVERSED`] test at both seeds, on the Hybrid
//!   pipelined row's cells;
//! - Subway's async overlap removed (`gen.saturating_sub(prev_kernel_ns)`
//!   → `gen` in `Packed::pack`, `crates/core/src/compact.rs`) fails both
//!   matrix tests and the [`REVERSED`] test at both seeds, on the
//!   `Subway` row's cells. It stands for the deleted `async_beats_sync`;
//! - `LayoutPlan::bfs_ranked` returning `Self::identity(n)` fails both
//!   side-system tests on `halo-bfs`;
//! - `Driver::drive` counting an iteration before its empty-frontier exit
//!   fails both matrix tests at both seeds. `sharded_differential` cannot
//!   see it: its two sides share the one driver, so both count alike;
//! - `VertexPartition::degree_balanced` splitting at equal vertex counts
//!   (`n * s / shards`, the deleted contiguous partitioner) fails both
//!   matrix tests at both seeds, on exactly the 14 `shard2-degree` and
//!   `shard4-degree` cells. It stands for the deleted `shard*-contiguous`
//!   columns. Splitting on `off <= target` moves no pinned digit, here
//!   or with the contiguous columns present (no split target of either
//!   graph lands on a list start); `emogi_graph`'s partition tests catch
//!   it;
//! - `VertexPartition::owner` returning 0 fails
//!   `reversed_kronecker_shards_match_the_table_pinned_at_the_parent_commit`
//!   at both seeds, on all 14 [`REVERSED`] cells: every hub's pieces
//!   then start on device 0 instead of on its owner. The matrix tests
//!   pass under it.
//!
//! **Re-pinning.** The simulator is deterministic, so a mismatch is a
//! modelling change, never noise. If the change is intended and declared,
//! run `cargo test --test sim_golden -- --nocapture`, and paste the
//! printed table over the `const` of the failing graph.

mod common;

use emogi_repro::core::sharded::{ShardedConfig, ShardedEngine};
use emogi_repro::core::toy::{self, ToyPattern, ToyRun};
use emogi_repro::graph::datasets::generate_weights;
use emogi_repro::prelude::*;
use emogi_repro::sim::interconnect::LinkStats;

/// The table's columns, in order.
const SHAPES: [&str; 7] = [
    "solo",
    "batch1",
    "batch3",
    "batch8",
    "shard1-degree",
    "shard2-degree",
    "shard4-degree",
];

type Row = (&'static str, [u64; 7]);

/// [`REVERSED`]'s columns, in order, and their device counts.
const REVERSED_SHAPES: [&str; 2] = ["shard2-degree", "shard4-degree"];
const REVERSED_DEVICES: [usize; 2] = [2, 4];

type ReversedRow = (&'static str, [u64; 2]);

/// `kronecker(9, 16, 21)`, generated at the parent commit.
#[rustfmt::skip]
const KRONECKER: &[Row] = &[
    ("Naive", [
        0x72d41cf25c8b07f7, 0x6351b1f354d0ea17,
        0x04c89c7f61a9a31d, 0xe9889598a10229cc,
        0x47d9ce3d02cda24b, 0x1fa65ff1cd83e984,
        0xad674cab5783ba08,
    ]),
    ("Merged", [
        0x4d2549a0ead1ccc6, 0xe8d7e2237919e56b,
        0x2b99ce0b703eb511, 0x50caa75bd5a36f7f,
        0x1d15c7037629393b, 0xe31ee1e25c3a46a6,
        0x573e82b8ed03dbb0,
    ]),
    ("Merged+Aligned", [
        0xfcb0598f1eacab18, 0x54d1cc2f5a3c0357,
        0x6933fc3d11387191, 0xc8c2ba274d0d5206,
        0x3327ec7b4674f483, 0x82c03e283ab3300b,
        0x06423ef7cd449b72,
    ]),
    ("Merged+Aligned split", [
        0xaaf13085c04469f8, 0x1e07f16a230cdaef,
        0x4cf19e7480a00e91, 0xbdbecbe9f6f4ca6f,
        0x7f94f965cbafdd1f, 0xdfd29c96cf703572,
        0xd65e0fde0e92679d,
    ]),
    ("Hybrid", [
        0x16416ce34996bce1, 0x5052260ffa744003,
        0x9693704eae6c2cc5, 0x32818853205f7178,
        0x537cd942a4fb26cf, 0xa192f06dcf0e6d03,
        0x29848b6e7981a737,
    ]),
    ("Hybrid pipelined", [
        0x4b49ffdf8e2a92c5, 0x8d8a988a58e86fab,
        0x2f3bd69def440145, 0x0aaea3d42ee05fff,
        0xd65d9ea2df0d2997, 0x691fb2ad4906efab,
        0x7cf3b5b30eafc9ea,
    ]),
    ("Compressed", [
        0x7b58585c5527dc18, 0xce0f66a68fb090cb,
        0x45201df0f04b3ec9, 0x8501aecfe5f1a86f,
        0xb583c40030ee722b, 0xc107d32b555fc25e,
        0x1e651bc986937aa0,
    ]),
    ("Subway", [
        0x16dbe24e5f144b12, 0x2dc48239b9f6a623,
        0x6aafd1cfdcf243c1, 0x88f4f1baacd49018,
        0xda8cb887eaa00c1b, 0xd854d6c63ea13a1e,
        0x085bbeddfd9a81da,
    ]),
    ("UVM", [
        0xa23aa10a686b19e2, 0x74a99206dd3fe60b,
        0x8fa4c32d6720f88b, 0x67d90707befa18bd,
        0x88ec72497169233f, 0xe4bc7708dcff5b6d,
        0xfe9abdef11c5510b,
    ]),
];

/// `uniform_random(400, 6, 5)`, generated at the parent commit.
#[rustfmt::skip]
const UNIFORM: &[Row] = &[
    ("Naive", [
        0x94b41bec550fb110, 0x53bf720e0fc5be5e,
        0x652fe0ce7436e39c, 0x1515476ecb54c4d1,
        0x2f2437a05b05caf2, 0xd164bb87b5d75a98,
        0xdeaae11f36824e91,
    ]),
    ("Merged", [
        0xb33e4ada2165ba1e, 0x04c2adf05ee069ae,
        0x23629537c498ef19, 0xd823d09ccd559df5,
        0xea50c82706db6baa, 0xd9ec3297af07acd7,
        0x4c36a483367b0936,
    ]),
    ("Merged+Aligned", [
        0xb33e4ada2165ba1e, 0x04c2adf05ee069ae,
        0x23629537c498ef19, 0xd823d09ccd559df5,
        0xea50c82706db6baa, 0xd9ec3297af07acd7,
        0x4c36a483367b0936,
    ]),
    ("Merged+Aligned split", [
        0xb33e4ada2165ba1e, 0x04c2adf05ee069ae,
        0x23629537c498ef19, 0xd823d09ccd559df5,
        0xea50c82706db6baa, 0xd9ec3297af07acd7,
        0x4c36a483367b0936,
    ]),
    ("Hybrid", [
        0x029b55d5a4f5a93a, 0xd9cfe9f74595d952,
        0x4f99adf96356019d, 0x5191a1c606c44bb2,
        0xd76110439b5ccd56, 0x68fce1f4843d887b,
        0x2b064dd9c6f0c6cc,
    ]),
    ("Hybrid pipelined", [
        0xf076888092e32ae3, 0x98f4875b76b1f63a,
        0xca8e2f7597b92b9b, 0x2eda8fb6cd580394,
        0x757a30ddb3e6024e, 0x357bf0e3d41e3396,
        0x63fc7abf7a17b39d,
    ]),
    ("Compressed", [
        0xfd716107c86e6f6a, 0xf94ae6e4a75f669a,
        0x4d6ace031d5e205d, 0xefd4fc7a7662961f,
        0xf65c17e224af824a, 0xade1faad60992efc,
        0xb1ad67858212c86b,
    ]),
    ("Subway", [
        0x8b4f6016e3d42f2d, 0xd705250015aefb66,
        0x58f4a4b8b770fbe3, 0x1b70eef46896092d,
        0xd9bc23bcb5a6c85a, 0x5750e37ef77aca44,
        0x78647e279685e39d,
    ]),
    ("UVM", [
        0x819158989e1a21cd, 0xfaf08817077825c6,
        0x56017f86120aaef6, 0x314afa80286e46ee,
        0x37a6070a83bce64a, 0xb0da1341bb575fd2,
        0x01ca1abc787e718d,
    ]),
];

/// The frontier programs sharded over [`reversed_kronecker`], whose hubs
/// the degree-balanced partition gives to the last device: every
/// configuration row × the two [`REVERSED_SHAPES`].
#[rustfmt::skip]
const REVERSED: &[ReversedRow] = &[
    ("Naive", [
        0x194fad8fd196450b, 0xa4f7acdaf692a9d5,
    ]),
    ("Merged", [
        0x1649067fd9d0d230, 0x7a2a2a77e28892ca,
    ]),
    ("Merged+Aligned", [
        0xc3b902d2ad3a494f, 0xa371331156b1fa79,
    ]),
    ("Merged+Aligned split", [
        0xc3b902d2ad3a494f, 0xa371331156b1fa79,
    ]),
    ("Hybrid", [
        0xf200ed0d8ede913b, 0x000999d9d297b074,
    ]),
    ("Hybrid pipelined", [
        0x046fbd0e6a851869, 0xf6d8ed4859b02d9f,
    ]),
    ("Compressed", [
        0x7bdf11fe74c69488, 0xa4d6a39ab7482c42,
    ]),
    ("Subway", [
        0x9eaa9252429d2aa5, 0x971c9dfd5529f34b,
    ]),
    ("UVM", [
        0x42b3eeb7160b0012, 0x7eec061196d3a20a,
    ]),
];

/// One side-system cell: its label and digest.
type SideRow = (&'static str, u64);

/// The §3.3 toy runs over [`TOY_BYTES`] (no graph involved), generated
/// at the parent commit.
#[rustfmt::skip]
const TOY: &[SideRow] = &[
    ("Strided", 0x4a87f43311cea89c),
    ("Merged and Aligned", 0xbebe7b77285a8a23),
    ("Merged but Misaligned", 0x1924ccf64b37289d),
    ("UVM", 0xa45bff2b63a64674),
    ("cudaMemcpy", 0x402458b2aae0ec87),
];

/// The side systems on `kronecker(9, 16, 21)`, generated at the parent
/// commit.
#[rustfmt::skip]
const KRONECKER_SIDE: &[SideRow] = &[
    ("halo-bfs", 0xb1189345fac37204),
];

/// The side systems on `uniform_random(400, 6, 5)`, generated at the
/// parent commit.
#[rustfmt::skip]
const UNIFORM_SIDE: &[SideRow] = &[
    ("halo-bfs", 0x6c6928490f2d5301),
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
    /// `last_warp_alone_ns`, `barrier_wait_ns` and `mshr_merges` are
    /// named and not folded: they read when warps retired, how long
    /// devices waited at barriers and which requests a warp rode along
    /// on, which the pinned clocks and request counts already fix.
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
            mshr_merges: _,
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

/// The nine named configurations (one table row each), on a machine whose cache
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
            let devices = [1, 2, 4][shape - 4];
            let mut scfg = ShardedConfig::emogi_v100(devices);
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

/// Compute the whole matrix for `g` and compare it with `want`.
fn check(name: &str, g: &CsrGraph, want: &[Row]) {
    let w = generate_weights(g.num_edges(), 11);
    let got: Vec<Row> = configs()
        .into_iter()
        .map(|(label, cfg)| (label, std::array::from_fn(|shape| cell(shape, &cfg, g, &w))))
        .collect();
    check_table(name, &SHAPES, &got, want);
}

/// Compare a configuration × shape table with `want`; on any mismatch
/// print the full actual table, paste-ready.
fn check_table<const N: usize>(
    name: &str,
    shapes: &[&str; N],
    got: &[(&'static str, [u64; N])],
    want: &[(&'static str, [u64; N])],
) {
    let mut diffs = Vec::new();
    for (i, (label, cells)) in got.iter().enumerate() {
        match want.get(i) {
            Some((wl, wc)) if wl == label => {
                for (s, (a, b)) in cells.iter().zip(wc).enumerate() {
                    if a != b {
                        diffs.push(format!("{label} / {}", shapes[s]));
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
    for (label, cells) in got {
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

/// [`REVERSED`]'s graph: `kronecker(9, 16, 21)` with every id reversed
/// (`n - 1 - v`), so the hubs its generator numbers first sit in the
/// last device's shard.
fn reversed_kronecker() -> (CsrGraph, LayoutPlan) {
    let g = generators::kronecker(9, 16, 21);
    let n = g.num_vertices() as u32;
    (g, LayoutPlan::from_perm((0..n).rev().collect()))
}

/// One [`REVERSED`] cell: SSSP, then BFS, from old vertex 3 on a fresh
/// `devices`-device group.
fn reversed_cell(devices: usize, cfg: &EngineConfig, g: &CsrGraph, w: &[u32], src: u32) -> u64 {
    let mut scfg = ShardedConfig::emogi_v100(devices);
    scfg.engine = cfg.clone();
    let mut e = ShardedEngine::load(scfg, g);
    let mut h = Fnv::new();
    h.sharded(e.sssp(w, src), ProgramRun::Sssp);
    h.sharded(e.bfs(src), ProgramRun::Bfs);
    h.0
}

#[test]
fn reversed_kronecker_shards_match_the_table_pinned_at_the_parent_commit() {
    let (g, plan) = reversed_kronecker();
    let reversed = plan.apply(&g);
    let n = g.num_vertices() as u32;
    let hub = (0..n).max_by_key(|&v| g.degree(v)).expect("a vertex");
    let new_hub = plan.map_vertex(hub);
    for devices in REVERSED_DEVICES {
        let last = VertexPartition::degree_balanced(&reversed, devices).range(devices - 1);
        assert!(
            last.contains(&new_hub),
            "the top hub must sit in the last shard"
        );
    }
    let w = plan.apply_edge_data(&g, &generate_weights(g.num_edges(), 11));
    let src = plan.map_vertex(3);
    let got: Vec<ReversedRow> = configs()
        .into_iter()
        .map(|(label, cfg)| {
            let cells = REVERSED_DEVICES.map(|d| reversed_cell(d, &cfg, &reversed, &w, src));
            (label, cells)
        })
        .collect();
    check_table("REVERSED", &REVERSED_SHAPES, &got, REVERSED);
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

/// Every graph-bound side system on `g`: HALO, the UVM engine over the
/// BFS-ranked relabeling, a fresh placement per source, outputs mapped
/// back.
fn side_cells(g: &CsrGraph) -> Vec<SideRow> {
    let mut out: Vec<SideRow> = Vec::new();
    let mut cfg = EngineConfig::uvm_v100();
    cfg.machine = side_machine();
    let plan = LayoutPlan::bfs_ranked(g);
    let relabeled = plan.apply(g);
    let mut h = Fnv::new();
    for src in [3, 17] {
        let bfs = ProgramSpec::Bfs {
            src: plan.map_vertex(src),
        };
        let run = spec::run(&mut Engine::load(cfg.clone(), &relabeled), &bfs);
        h.words(run.unmapped_words(&plan));
        h.stats(run.stats());
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
