//! The `scaling` experiment: sharded multi-GPU BFS on the skewed GK
//! graph — the shape of the paper's multi-GPU figure (§5.7).
//!
//! A burst of BFS traversals runs on 1, 2 and 4 simulated GPUs under
//! both vertex partitioners. Each device expands only the frontier
//! vertices it owns, reading their neighbour lists over its own PCIe
//! link; between iterations the devices exchange activated
//! `(vertex, level)` pairs over the NVLink-class peer link. Zero-copy
//! traversal keeps scaling because the per-link traffic shrinks with
//! the shard — near-linearly when the degree-balanced partitioner
//! equalizes per-shard edge counts and mega-hub lists are expanded
//! cooperatively ([`emogi_core::sharded::HUB_SPLIT_DEGREE`]), visibly
//! worse under the contiguous partitioner on this skewed graph.
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
         the skewed graph, which is what keeps the scaling near-linear; outputs are \
         asserted bit-identical to the CPU reference on every invocation",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_scales_near_linearly_with_degree_balanced_shards() {
        let ctx = Context::new(1, 32);
        let r = measure(&ctx); // bit-identity asserted inside
        let db = PartitionStrategy::DegreeBalanced.name();
        let s2 = speedup(&r, 2, db);
        let s4 = speedup(&r, 4, db);
        assert!(s2 >= 1.6, "2-device speedup {s2:.2} below the 1.6x bar");
        assert!(s4 >= 2.5, "4-device speedup {s4:.2} below the 2.5x bar");
        assert!(s4 > s2, "scaling must keep improving with devices");
        // The exchange is the price of sharding: present, but small
        // relative to the edge-list traffic it parallelizes.
        let m4 = r.get((4, db));
        assert!(m4.exchange_bytes > 0);
        assert!(m4.exchange_bytes < m4.stats.host_bytes / 2);
    }

    #[test]
    fn degree_balanced_beats_contiguous_on_the_skewed_graph() {
        let ctx = Context::new(1, 32);
        let r = measure(&ctx);
        let db = PartitionStrategy::DegreeBalanced.name();
        let ct = PartitionStrategy::Contiguous.name();
        // The busiest link carries less of the load when shards are
        // edge-balanced rather than vertex-balanced.
        assert!(
            r.get((4, db)).max_link_bytes <= r.get((4, ct)).max_link_bytes,
            "degree-balanced busiest link must not exceed contiguous"
        );
        assert!(
            speedup(&r, 4, db) >= speedup(&r, 4, ct),
            "degree-balanced speedup {:.2} vs contiguous {:.2}",
            speedup(&r, 4, db),
            speedup(&r, 4, ct)
        );
    }
}
