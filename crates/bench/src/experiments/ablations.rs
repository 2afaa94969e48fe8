//! Ablation sweeps over the design parameters ARCHITECTURE.md calls out.
//!
//! These go beyond the paper's figures: they quantify how the simulated
//! machine's key parameters produce the paper's effects, which doubles as
//! a sensitivity analysis of the reproduction.

use crate::table::{f, ms};
use crate::{Context, Table};
use emogi_core::toy::{self, ToyPattern};
use emogi_core::{AccessStrategy, Engine, EngineConfig, Transport};
use emogi_graph::DatasetKey;
use emogi_runtime::MachineConfig;

pub fn all(ctx: &Context) -> Vec<Table> {
    vec![
        mshr_sweep(ctx),
        cache_sweep(ctx),
        tag_sweep(ctx),
        rtt_sweep(ctx),
        compression(ctx),
    ]
}

/// §6 extension: `Transport::Compressed` (delta-varint lists) vs raw 8-byte
/// elements (BFS over the two web crawls, where id locality makes gaps
/// small).
pub fn compression(ctx: &Context) -> Table {
    let mut t = Table::new(
        "abl-compress",
        "Extension (paper §6): compressed neighbour lists (BFS)",
        &[
            "graph",
            "ratio",
            "raw MB moved",
            "comp MB moved",
            "raw ms",
            "comp ms",
        ],
    );
    for key in [DatasetKey::Sk, DatasetKey::Uk5, DatasetKey::Fs] {
        let d = ctx.store.get(key);
        let src = d.sources(1)[0];
        let mut raw = Engine::load(EngineConfig::emogi_v100(), &d.graph);
        let raw_run = raw.bfs(src);
        let compressed = EngineConfig::emogi_v100().with_transport(Transport::Compressed);
        let mut comp = Engine::load(compressed, &d.graph);
        let comp_run = comp.bfs(src);
        assert_eq!(comp_run.levels, raw_run.levels, "compressed BFS must agree");
        t.row(vec![
            d.spec.symbol.into(),
            f(raw.dataset_bytes() as f64 / comp.dataset_bytes() as f64),
            f(raw_run.stats.host_bytes as f64 / 1e6),
            f(comp_run.stats.host_bytes as f64 / 1e6),
            ms(raw_run.stats.elapsed_ns),
            ms(comp_run.stats.elapsed_ns),
        ]);
    }
    t.note("§6: \"EMOGI can potentially directly benefit from compression of input data\" — idle lanes absorb the decode cost while the interconnect moves several times fewer bytes");
    t
}

/// Per-warp in-flight read limit: EMOGI's §4.3.1 argument that worker
/// tuning cannot help when the interconnect is saturated.
pub fn mshr_sweep(ctx: &Context) -> Table {
    let mut t = Table::new(
        "abl-mshr",
        "Ablation: per-warp in-flight read limit (GK BFS)",
        &["limit", "Merged+Aligned (ms)", "Naive (ms)"],
    );
    let d = ctx.store.get(DatasetKey::Gk);
    let src = d.sources(1)[0];
    for limit in [2u32, 4, 8, 16] {
        let run = |strategy| {
            let mut cfg = EngineConfig::emogi_v100().with_strategy(strategy);
            cfg.machine.gpu.max_pending_per_warp = limit;
            let mut engine = Engine::load(cfg, &d.graph);
            engine.bfs(src).stats.elapsed_ns
        };
        t.row(vec![
            limit.to_string(),
            ms(run(AccessStrategy::MergedAligned)),
            ms(run(AccessStrategy::Naive)),
        ]);
    }
    t.note("merged kernels issue at most 3 reads per step and are insensitive; the naive kernel's per-lane parallelism depends directly on this limit");
    t
}

/// GPU cache capacity: the naive kernel's thrashing lever (§3.3).
pub fn cache_sweep(ctx: &Context) -> Table {
    let mut t = Table::new(
        "abl-cache",
        "Ablation: GPU cache capacity (GK BFS, Naive strategy)",
        &["cache MiB", "time (ms)", "amplification"],
    );
    let d = ctx.store.get(DatasetKey::Gk);
    let src = d.sources(1)[0];
    for mib in [1u64, 3, 6, 24] {
        let mut cfg = EngineConfig::emogi_v100().with_strategy(AccessStrategy::Naive);
        cfg.machine.gpu.cache.capacity_bytes = mib << 20;
        let mut engine = Engine::load(cfg, &d.graph);
        let dataset = engine.dataset_bytes();
        let run = engine.bfs(src);
        t.row(vec![
            mib.to_string(),
            ms(run.stats.elapsed_ns),
            f(run.stats.amplification(dataset)),
        ]);
    }
    t.note("finding: with MSHR merging of same-sector loads, Naive's amplification stays near 1 at every cache size — its slowness is per-lane concurrency, not re-fetch; the cache mainly serves the vertex/status arrays");
    t
}

/// PCIe tag count: the outstanding-request bound of §3.3.
pub fn tag_sweep(ctx: &Context) -> Table {
    let bytes = (8u64 << 20) / ctx.scale as u64;
    let mut t = Table::new(
        "abl-tags",
        "Ablation: PCIe outstanding-request tags (toy patterns, GB/s)",
        &["tags", "Strided", "Merged+Aligned"],
    );
    for tags in [64u32, 128, 256, 512] {
        let mut cfg = MachineConfig::v100_gen3();
        cfg.pcie.max_tags = tags;
        let s = toy::run_zero_copy(cfg.clone(), ToyPattern::Strided, bytes);
        let a = toy::run_zero_copy(cfg, ToyPattern::MergedAligned, bytes);
        t.row(vec![tags.to_string(), f(s.pcie_gbps()), f(a.pcie_gbps())]);
    }
    t.note("32-byte requests are tag-limited (bandwidth ~ tags x 32B / RTT); 128-byte requests saturate the wire long before the tag pool");
    t
}

/// Round-trip latency: the other §3.3 bound.
pub fn rtt_sweep(ctx: &Context) -> Table {
    let bytes = (8u64 << 20) / ctx.scale as u64;
    let mut t = Table::new(
        "abl-rtt",
        "Ablation: interconnect one-way latency (toy patterns, GB/s)",
        &["propagation ns", "Strided", "Merged+Aligned"],
    );
    for prop in [400u64, 780, 1200, 1600] {
        let mut cfg = MachineConfig::v100_gen3();
        cfg.pcie.propagation_ns = prop;
        let s = toy::run_zero_copy(cfg.clone(), ToyPattern::Strided, bytes);
        let a = toy::run_zero_copy(cfg, ToyPattern::MergedAligned, bytes);
        t.row(vec![prop.to_string(), f(s.pcie_gbps()), f(a.pcie_gbps())]);
    }
    t.note("the paper measured 1.0-1.6 us GPU-FPGA round trips; strided bandwidth is inversely proportional to RTT while merged traffic hides it");
    t
}
