//! Program-level accounting properties: what a traversal must move
//! (every reachable edge, every touched page), how strategies and link
//! generations order, and that a staged sweep runs at HBM bandwidth. The
//! machine's conservation laws live elsewhere:
//! every `Driver::drive` ends with `GraphLayout::check_ledgers` on every
//! device, in every build profile. Bit-reproducibility is
//! `tests/determinism.rs`.
//!
//! Three tests here were folded into those homes. Each has one seeded
//! mutation that the surviving suite catches, at the default seed and at
//! `EMOGI_PROPTEST_SEED=20260729`:
//!
//! - `histogram_total_equals_request_count`: `SizeHistogram::record`
//!   (`crates/sim/src/monitor.rs`) counting 96 B reads in the 64 B
//!   bucket fails 92 workspace tests at each seed, `sim_golden`,
//!   `correctness` and `determinism` among them, with "machine invariant
//!   `sum of sizes.buckets[i] * 32(i + 1) == monitor.zero_copy_bytes`
//!   broken: 405056 vs 418880";
//! - `host_dram_reads_at_least_wire_payload`: `Dram::read`
//!   (`crates/sim/src/dram.rs`) skipping `self.bytes_read += span` fails
//!   107 at each seed, with "`host_dram.bytes_read >= zero_copy_bytes +
//!   dma_bytes` broken: 0 vs 418880";
//! - `simulation_is_bit_reproducible`: `run_kernel`
//!   (`crates/runtime/src/exec.rs`) adding a process-wide launch count,
//!   an ambient clock, to each launch's start time fails 25 at each
//!   seed, `determinism`'s `engine_runs_are_tick_identical_across_fresh_engines`
//!   among them with "Naive/Solo: SSSP stats (Full)" (`elapsed_ns` 96967
//!   vs 95590).

use emogi_repro::prelude::*;
use emogi_repro::sim::pcie::PcieGen;

#[test]
fn pcie_bytes_cover_the_touched_edge_list() {
    // Zero-copy BFS must move at least every reachable edge element once
    // (requests are sector-granular so overshoot is expected, undershoot
    // never).
    let g = generators::uniform_random(2_000, 16, 1);
    let mut sys = Engine::load(EngineConfig::emogi_v100(), &g);
    let run = sys.bfs(0);
    let reachable_bytes: u64 = (0..g.num_vertices() as u32)
        .filter(|&v| run.levels[v as usize] != u32::MAX)
        .map(|v| g.degree(v) * 8)
        .sum();
    assert!(
        run.stats.host_bytes >= reachable_bytes,
        "moved {} < touched {}",
        run.stats.host_bytes,
        reachable_bytes
    );
}

#[test]
fn uvm_migration_covers_touched_pages_once_at_minimum() {
    let g = generators::uniform_random(1_000, 16, 4);
    let mut sys = Engine::load(EngineConfig::uvm_v100(), &g);
    let run = sys.bfs(0);
    // Every reachable edge lives on some 4 KiB page; each such page must
    // have migrated at least once.
    let mut pages: Vec<u64> = (0..g.num_vertices() as u32)
        .filter(|&v| run.levels[v as usize] != u32::MAX && g.degree(v) > 0)
        .flat_map(|v| {
            let s = g.neighbor_start(v) * 8 / 4096;
            let e = (g.neighbor_end(v) * 8 - 1) / 4096;
            s..=e
        })
        .collect();
    pages.sort_unstable();
    pages.dedup();
    assert!(
        run.stats.pages_migrated >= pages.len() as u64,
        "migrated {} pages < touched {}",
        run.stats.pages_migrated,
        pages.len()
    );
}

#[test]
fn gen4_is_never_slower_than_gen3_for_emogi() {
    let g = generators::uniform_random(2_000, 16, 6);
    let time = |gen: PcieGen| {
        let mut cfg = EngineConfig::emogi_v100();
        cfg.machine.pcie = gen.config();
        let mut sys = Engine::load(cfg, &g);
        sys.bfs(0).stats.elapsed_ns
    };
    let t3 = time(PcieGen::Gen3x16);
    let t4 = time(PcieGen::Gen4x16);
    assert!(t4 <= t3, "gen4 {t4} vs gen3 {t3}");
}

#[test]
fn merged_never_issues_more_requests_than_naive() {
    for seed in [7u64, 8, 9] {
        let g = generators::kronecker(9, 8, seed);
        let reqs = |strategy| {
            let mut sys = Engine::load(EngineConfig::emogi_v100().with_strategy(strategy), &g);
            sys.bfs(1).stats.pcie_read_requests
        };
        let naive = reqs(AccessStrategy::Naive);
        let merged = reqs(AccessStrategy::Merged);
        assert!(
            merged <= naive,
            "seed {seed}: merged {merged} vs naive {naive}"
        );
    }
}

#[test]
fn a_staged_pagerank_sweep_runs_at_hbm_speed() {
    // kron(13, 16) stages its whole edge list (25 regions) on the hybrid
    // V100, so after three warm-up sweeps one more sweep moves no host
    // byte and is bound by HBM: device-resident edge reads plus the
    // per-edge rank atomics. Doubling only the HBM bandwidth must then
    // cut that sweep well below its old time. This is one fixed cell, not
    // a monotonicity property: access order depends on timing.
    let g = generators::kronecker(13, 16, 7);
    let warm_sweep = |hbm_gbps_scale: f64| {
        let mut cfg = EngineConfig::hybrid_v100();
        cfg.machine.gpu.hbm.bandwidth_gbps *= hbm_gbps_scale;
        let mut sys = Engine::load(cfg, &g);
        let warm = sys.pagerank(0.85, 3);
        assert_eq!(warm.stats.transfer.staged_regions, 25);
        let sweep = sys.pagerank(0.85, 1);
        assert_eq!(sweep.stats.host_bytes, 0, "a warm sweep reads only HBM");
        (sweep.stats.elapsed_ns, sweep.output.ranks)
    };
    let (t1, r1) = warm_sweep(1.0);
    let (t2, r2) = warm_sweep(2.0);
    assert_eq!(r1, r2, "HBM bandwidth must not change the ranks");
    assert!(
        t2 as f64 <= 0.7 * t1 as f64,
        "2x HBM bandwidth: warm sweep {t1} -> {t2} ns"
    );
}
