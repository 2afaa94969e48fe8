//! The `scaling` experiment: sharded multi-GPU BFS on the skewed GK
//! graph — the shape of the paper's multi-GPU figure (§5.7).
//!
//! A burst of BFS traversals runs on 1, 2 and 4 simulated GPUs under
//! both vertex partitioners. Each device expands only the frontier
//! vertices it owns, reading their neighbour lists over its own PCIe
//! link; between iterations the devices exchange activated
//! `(vertex, level)` pairs over the NVLink-class peer link. Zero-copy
//! traversal keeps scaling because the per-link traffic shrinks with
//! the shard — best when the degree-balanced partitioner equalizes
//! per-shard edge counts, visibly worse under the contiguous partitioner
//! on this skewed graph. Every device count runs the split-hub kernel
//! (`ShardedConfig::emogi_v100`), so mega-hub lists are cut into
//! warp-sized pieces on one device too
//! ([`emogi_core::sharded::HUB_SPLIT_DEGREE`]) and the speedup measures
//! devices, not hub splitting.
//!
//! Every sharded run's levels are asserted bit-identical to the CPU
//! reference, per source, on every invocation.

use super::scaled_machine;
use crate::table::{f, ms};
use crate::{Context, Results, Table};
use emogi_core::sharded::{ShardedConfig, ShardedEngine};
use emogi_graph::{algo, DatasetKey, PartitionStrategy};
use emogi_runtime::RunStats;

/// BFS traversals per (devices, partitioner) cell.
const BURST: usize = 4;

/// Simulated GPU counts, the paper's 1/2/4 sweep.
pub const DEVICE_COUNTS: &[usize] = &[1, 2, 4];

/// One (devices, partitioner) measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The burst's group-level stats, folded: barrier-aligned wall clock
    /// per traversal summed over the burst, `host_bytes` summed over
    /// every device's link.
    pub stats: RunStats,
    /// Busiest single link's payload bytes (the imbalance witness).
    pub max_link_bytes: u64,
    /// Inter-device exchange bytes over the burst.
    pub exchange_bytes: u64,
}

/// Cells keyed by (simulated GPUs, partitioner display name).
pub type Cells = Results<(usize, &'static str), Measurement>;

/// Burst speedup of `devices` GPUs over the same partitioner's
/// single-GPU baseline.
pub fn speedup(r: &Cells, devices: usize, partition: &'static str) -> f64 {
    let base = r.get((1, partition)).stats.elapsed_ns;
    base as f64 / r.get((devices, partition)).stats.elapsed_ns as f64
}

/// Run every (devices, partitioner) cell, asserting output bit-identity
/// against the CPU reference as it goes.
pub fn measure(ctx: &Context) -> Cells {
    let gk = ctx.store.get(DatasetKey::Gk);
    let sources = gk.sources(BURST);
    let mut rows = Vec::new();
    for &devices in DEVICE_COUNTS {
        for strategy in PartitionStrategy::all() {
            eprintln!(
                "  [scaling] {} device(s), {} partition ...",
                devices,
                strategy.name()
            );
            let mut cfg = ShardedConfig::emogi_v100(devices).with_partition(strategy);
            cfg.engine = cfg.engine.with_machine(scaled_machine(ctx.scale));
            let mut engine = ShardedEngine::load(cfg, &gk.graph);
            let mut stats = RunStats::default();
            let mut per_link = vec![0u64; devices];
            let mut exchange_bytes = 0u64;
            for &s in &sources {
                let run = engine.bfs(s);
                assert_eq!(
                    run.levels,
                    algo::bfs_levels(&gk.graph, s),
                    "sharded BFS from {s} on {devices} devices diverged"
                );
                stats += &run.stats;
                for (d, stats) in run.per_device.iter().enumerate() {
                    per_link[d] += stats.host_bytes;
                }
                exchange_bytes += run.exchange.bytes;
            }
            let m = Measurement {
                stats,
                max_link_bytes: per_link.iter().copied().max().unwrap_or(0),
                exchange_bytes,
            };
            rows.push(((devices, strategy.name()), m));
        }
    }
    Results { rows }
}

/// The printable table.
pub fn table(r: &Cells) -> Table {
    let mut t = Table::new(
        "scaling",
        "Multi-GPU sharded BFS on GK: 1/2/4 simulated V100s, both partitioners",
        &[
            "devices",
            "partition",
            "time (ms)",
            "speedup",
            "PCIe MB (all links)",
            "busiest link MB",
            "exchange MB",
        ],
    );
    for ((devices, partition), m) in &r.rows {
        t.row(vec![
            devices.to_string(),
            (*partition).into(),
            ms(m.stats.elapsed_ns),
            f(speedup(r, *devices, partition)),
            format!("{:.2}", m.stats.host_bytes as f64 / 1e6),
            format!("{:.2}", m.max_link_bytes as f64 / 1e6),
            format!("{:.2}", m.exchange_bytes as f64 / 1e6),
        ]);
    }
    t.note(
        "each device reads only its frontier shard's neighbour lists over its own \
         PCIe link and exchanges activated (vertex, level) pairs over the peer link \
         between iterations; degree-balanced sharding equalizes per-link traffic on \
         the skewed graph; every device count, one included, cuts hub lists into \
         warp-sized pieces, so the speedup is the devices' alone; outputs are \
         asserted bit-identical to the CPU reference on every invocation",
    );
    t
}
