//! Sharded multi-GPU execution: one traversal, many simulated GPUs.
//!
//! EMOGI's multi-GPU result (§5.7) is that zero-copy traversal keeps
//! scaling across GPUs because each GPU fetches only the edge-list
//! ranges its own frontier shard needs, over its **own** host link. A
//! [`ShardedEngine`] reproduces that execution model on a
//! [`DeviceGroup`]:
//!
//! * the vertex set is split into contiguous shards by an
//!   [`emogi_graph::partition`] partitioner (equal vertices, or equal
//!   edges for skew-balanced PCIe traffic);
//! * every device holds the full vertex list and status array (the
//!   paper's small device-resident structures) while the edge list
//!   stays in shared host memory, placed identically on each device's
//!   address map;
//! * per iteration, device `d` launches one kernel over the frontier
//!   vertices (or, for full sweeps, the vertex range) it owns — its
//!   PCIe link carries only those neighbour lists;
//! * between iterations the devices exchange their status updates
//!   (activated `(vertex, value)` pairs for frontier-driven programs,
//!   owned status slices for full sweeps) over the group's
//!   interconnect, then synchronize at a barrier.
//!
//! # Bit-identity
//!
//! Sharding is a *pure execution-plan change*: outputs and iteration
//! counts are identical to the single-device
//! [`Engine`](crate::engine::Engine) for any device count and either
//! partitioner, because every shipped program's
//! per-iteration semantics are a pure function of iteration-start state
//! (contexts are captured for the **whole** frontier before any shard's
//! kernel runs, BFS/SSSP updates are commutative mins, CC hooks against
//! an iteration-start snapshot, and PageRank folds its sums in
//! canonical edge order). With **one** device this *is* the
//! single-device engine — both are fronts of the same iteration driver
//! (`driver.rs`), nothing splits and the exchange is a no-op — so
//! outputs, iteration counts *and* every per-run statistic (including
//! hybrid transfer counters) are equal tick for tick.
//! `tests/sharded_differential.rs` checks both properties on random
//! graphs × 4 programs × 1/2/4 devices × both partitioners × every named
//! configuration — including graphs with planted hubs
//! (`tests/common::hub_graph`), whose lists reach [`HUB_SPLIT_DEGREE`] and are walked cooperatively —
//! and the `scaling` experiment measures the payoff (near-linear BFS
//! scaling on GK). `emogi_serve::ShardedServer` serves queries over the
//! group: each query's iterations shard across it (latency-oriented)
//! instead of sharing fetches with a batch (throughput-oriented).
//!
//! [`DeviceGroup`]: emogi_runtime::DeviceGroup

use crate::driver::Driver;
use crate::engine::EngineConfig;
use crate::program::VertexProgram;
use emogi_graph::{CsrGraph, PartitionStrategy, VertexId, VertexPartition};
use emogi_runtime::group::{DeviceGroup, DeviceGroupConfig};
use emogi_runtime::report::RunStats;
use emogi_sim::interconnect::{LinkStats, PeerLinkConfig};

/// Bytes per frontier-update record exchanged between devices: a 4-byte
/// vertex id plus its 4-byte status value.
pub const FRONTIER_UPDATE_BYTES: u64 = 8;

/// Neighbour lists at least this many elements long are expanded
/// **cooperatively**: the owner keeps the vertex (status, activation,
/// scan) but the list walk is split into one line-aligned slice per
/// device. A warp walks its list serially, so an unsplit mega-hub's
/// walk would be a latency chain no amount of sharding shortens — on
/// power-law graphs that chain *is* the critical path of the busiest
/// iterations, and splitting it is what keeps multi-GPU scaling near
/// linear (single-device runs never split, preserving tick-identity
/// with [`Engine`](crate::engine::Engine)).
pub const HUB_SPLIT_DEGREE: u64 = 256;

/// How to build a [`ShardedEngine`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The per-device engine configuration (platform, kernel strategy,
    /// transport); every device is identical.
    pub engine: EngineConfig,
    /// Simulated GPUs.
    pub devices: usize,
    /// How vertices are split across devices.
    pub partition: PartitionStrategy,
    /// Inter-GPU peer link for the iteration-end exchange; `None`
    /// routes exchanges through host memory over two PCIe hops.
    pub peer: Option<PeerLinkConfig>,
}

impl ShardedConfig {
    /// `devices` × the EMOGI V100 platform, degree-balanced sharding,
    /// NVLink-class peer link.
    pub fn emogi_v100(devices: usize) -> Self {
        Self {
            engine: EngineConfig::emogi_v100(),
            devices,
            partition: PartitionStrategy::DegreeBalanced,
            peer: Some(PeerLinkConfig::default()),
        }
    }

    /// Replace the vertex partitioner.
    pub fn with_partition(mut self, partition: PartitionStrategy) -> Self {
        self.partition = partition;
        self
    }
}

/// Result of one sharded program execution.
///
/// Like [`Run`](crate::engine::Run), `ShardedRun` derefs to the
/// program's output.
#[derive(Debug, Clone)]
pub struct ShardedRun<O> {
    /// The program's output (levels, distances, labels, ranks, ...) —
    /// bit-identical to a single-device run.
    pub output: O,
    /// Group-level totals: elapsed time is the barrier-aligned wall
    /// clock (max over devices), traffic counters sum across links, and
    /// `kernel_launches` is the *logical* launch-wave count (equal to
    /// [`iterations`](Self::iterations), hence directly comparable with
    /// a single-device run's launch count).
    pub stats: RunStats,
    /// Per-device measurements, index = device id.
    pub per_device: Vec<RunStats>,
    /// Inter-device exchange traffic of this run (all lanes summed;
    /// zero for a single device).
    pub exchange: LinkStats,
    /// Synchronous iterations executed (kernel launches *per device
    /// with work*; equals the single-device engine's launch count).
    pub iterations: u64,
}

impl<O> std::ops::Deref for ShardedRun<O> {
    type Target = O;

    fn deref(&self) -> &O {
        &self.output
    }
}

/// A graph placed on every device of a group, ready to run any
/// [`VertexProgram`] sharded.
///
/// ```
/// use emogi_core::sharded::{ShardedConfig, ShardedEngine};
/// use emogi_graph::{algo, generators};
///
/// let graph = generators::kronecker(9, 8, 21);
/// let mut sharded = ShardedEngine::load(ShardedConfig::emogi_v100(2), &graph);
/// let run = sharded.bfs(1);
/// assert_eq!(run.levels, algo::bfs_levels(&graph, 1));
/// assert_eq!(run.per_device.len(), 2);
/// assert!(run.exchange.bytes > 0, "devices exchanged frontier updates");
/// ```
pub struct ShardedEngine<'g> {
    /// The device group (machines + interconnect) the shards run on.
    pub group: DeviceGroup,
    /// The per-device placements, the vertex partition and the iteration
    /// driver.
    core: Driver<'g>,
}

impl<'g> ShardedEngine<'g> {
    /// Place `graph` on `cfg.devices` machines and partition its vertex
    /// set. Each device gets the same layout a single-device
    /// [`Engine`](crate::engine::Engine) would build.
    pub fn load(cfg: ShardedConfig, graph: &'g CsrGraph) -> Self {
        let partition = cfg.partition.partition(graph, cfg.devices);
        let mut group = DeviceGroup::new(DeviceGroupConfig {
            devices: cfg.devices,
            machine: cfg.engine.machine.clone(),
            peer: cfg.peer,
        });
        let core = Driver::load(&cfg.engine, graph, &mut group.machines, partition);
        Self { group, core }
    }

    /// The placed graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.core.graph
    }

    /// Devices in the group.
    pub fn num_devices(&self) -> usize {
        self.group.num_devices()
    }

    /// Aggregate host-link payload bandwidth across the device group,
    /// bytes per simulated nanosecond: every device fetches over its
    /// own link, so the group's effective bandwidth is the per-device
    /// usable rate times the device count. The serving layer's
    /// cost-model admission uses this like
    /// [`Engine::link_bytes_per_ns`](crate::Engine::link_bytes_per_ns).
    pub fn link_bytes_per_ns(&self) -> f64 {
        let per_device = self
            .group
            .machines
            .first()
            .map(|m| m.cfg.pcie.usable_gbps())
            .unwrap_or(0.0);
        per_device * self.group.num_devices() as f64
    }

    /// The vertex partition shards are derived from.
    pub fn partition(&self) -> &VertexPartition {
        &self.core.partition
    }

    /// Run `program` to convergence across all shards. One synchronous
    /// iteration = one kernel launch on every device that has work this
    /// iteration, followed by the inter-device update exchange and a
    /// barrier.
    pub fn run<P: VertexProgram>(&mut self, program: P) -> ShardedRun<P::Output> {
        let exchange_base = self.group.interconnect.totals();
        let mut driven = self.core.drive(&mut self.group, vec![program], false);
        let mut stats = RunStats::aggregate_concurrent(&driven.per_device);
        // The group-level launch count is the *logical* one: each
        // synchronous iteration is one launch wave, however many devices
        // participated — so `stats.kernel_launches` compares directly
        // with a single-device run's (physical per-device launches stay
        // in `per_device`).
        stats.kernel_launches = driven.iterations;
        ShardedRun {
            output: driven.outputs.pop().expect("one program, one output"),
            stats,
            per_device: driven.per_device,
            exchange: self.group.interconnect.totals() - exchange_base,
            iterations: driven.iterations,
        }
    }

    /// Sharded BFS from `src`.
    pub fn bfs(&mut self, src: VertexId) -> ShardedRun<crate::bfs::BfsOutput> {
        self.run(crate::bfs::BfsProgram::new(self.core.graph, src))
    }

    /// Sharded SSSP from `src` with per-edge `weights`.
    pub fn sssp(&mut self, weights: &[u32], src: VertexId) -> ShardedRun<crate::sssp::SsspOutput> {
        self.run(crate::sssp::SsspProgram::new(self.core.graph, weights, src))
    }

    /// Sharded CC.
    pub fn cc(&mut self) -> ShardedRun<crate::cc::CcOutput> {
        self.run(crate::cc::CcProgram::new(self.core.graph))
    }

    /// Sharded PageRank.
    pub fn pagerank(
        &mut self,
        damping: f64,
        iterations: u32,
    ) -> ShardedRun<crate::pagerank::PageRankOutput> {
        let graph = self.core.graph;
        self.run(crate::pagerank::PageRankProgram::new(
            graph, damping, iterations,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::{algo, generators};

    fn sharded_cfg(devices: usize, engine: EngineConfig) -> ShardedConfig {
        let mut cfg = ShardedConfig::emogi_v100(devices);
        cfg.engine = engine;
        cfg
    }

    #[test]
    fn one_device_sharded_runs_are_tick_identical_to_the_engine() {
        // The acceptance bar: outputs, iteration counts AND stats
        // (including hybrid transfer counters) must equal the
        // single-device engine exactly.
        let g = generators::kronecker(9, 8, 21);
        let w = generate_weights(g.num_edges(), 21);
        let presets = [
            ("Merged+Aligned", EngineConfig::emogi_v100()),
            ("Hybrid", EngineConfig::hybrid_v100()),
        ];
        for (mode, cfg) in presets {
            let mut solo = Engine::load(cfg.clone(), &g);
            let mut shard = ShardedEngine::load(sharded_cfg(1, cfg), &g);

            let (sr, dr) = (solo.bfs(1), shard.bfs(1));
            assert_eq!(dr.levels, sr.levels, "{mode} bfs output");
            assert_eq!(dr.iterations, sr.stats.kernel_launches);
            assert_eq!(dr.per_device[0], sr.stats, "{mode} bfs stats");

            let (sr, dr) = (solo.sssp(&w, 1), shard.sssp(&w, 1));
            assert_eq!(dr.dist, sr.dist, "{mode} sssp output");
            assert_eq!(dr.per_device[0], sr.stats, "{mode} sssp stats");

            let (sr, dr) = (solo.cc(), shard.cc());
            assert_eq!(dr.comp, sr.comp, "{mode} cc output");
            assert_eq!(dr.hook_passes, sr.hook_passes);
            assert_eq!(dr.per_device[0], sr.stats, "{mode} cc stats");

            let (sr, dr) = (solo.pagerank(0.85, 8), shard.pagerank(0.85, 8));
            assert_eq!(dr.ranks, sr.ranks, "{mode} pagerank output");
            assert_eq!(dr.per_device[0], sr.stats, "{mode} pagerank stats");

            assert_eq!(dr.exchange, LinkStats::default(), "no peers, no bytes");
        }
    }

    #[test]
    fn multi_device_outputs_match_references_for_both_partitioners() {
        let g = generators::kronecker(9, 8, 7);
        let w = generate_weights(g.num_edges(), 7);
        let want_bfs = algo::bfs_levels(&g, 3);
        let want_sssp = algo::sssp_distances(&g, &w, 3);
        let want_cc = algo::cc_labels(&g);
        for devices in [2usize, 4] {
            for partition in PartitionStrategy::all() {
                let cfg = ShardedConfig::emogi_v100(devices).with_partition(partition);
                let mut e = ShardedEngine::load(cfg, &g);
                let tag = format!("{devices} devices / {partition:?}");
                assert_eq!(e.bfs(3).levels, want_bfs, "{tag} bfs");
                let dist = e.sssp(&w, 3);
                for (v, &want) in want_sssp.iter().enumerate() {
                    let got = if dist.dist[v] == crate::sssp::INF {
                        algo::UNREACHABLE
                    } else {
                        u64::from(dist.dist[v])
                    };
                    assert_eq!(got, want, "{tag} sssp vertex {v}");
                }
                assert_eq!(e.cc().comp, want_cc, "{tag} cc");
                let pr = e.pagerank(0.85, 8);
                let want_pr = algo::pagerank(&g, 0.85, 8);
                assert_eq!(pr.ranks, want_pr, "{tag} pagerank is bit-exact");
            }
        }
    }

    #[test]
    fn multi_device_iteration_counts_match_the_engine() {
        let g = generators::kronecker(9, 8, 3);
        let mut solo = Engine::load(EngineConfig::emogi_v100(), &g);
        let solo_bfs = solo.bfs(0);
        let solo_cc = solo.cc();
        for devices in [2usize, 4] {
            let mut e = ShardedEngine::load(ShardedConfig::emogi_v100(devices), &g);
            assert_eq!(e.bfs(0).iterations, solo_bfs.stats.kernel_launches);
            assert_eq!(e.cc().iterations, solo_cc.stats.kernel_launches);
        }
    }

    #[test]
    fn devices_exchange_updates_and_split_the_pcie_traffic() {
        let g = generators::kronecker(10, 8, 5);
        let mut solo = ShardedEngine::load(ShardedConfig::emogi_v100(1), &g);
        let mut duo = ShardedEngine::load(ShardedConfig::emogi_v100(2), &g);
        let r1 = solo.bfs(0);
        let r2 = duo.bfs(0);
        assert_eq!(r2.levels, r1.levels);
        assert!(r2.exchange.bytes > 0, "frontier updates must cross links");
        assert!(r2.exchange.transfers > 0);
        // Each device reads roughly its shard's share of the edge list.
        let total: u64 = r2.per_device.iter().map(|s| s.host_bytes).sum();
        let max = r2.per_device.iter().map(|s| s.host_bytes).max().unwrap();
        assert!(
            max < total,
            "both devices must carry part of the traffic: {:?}",
            r2.per_device
                .iter()
                .map(|s| s.host_bytes)
                .collect::<Vec<_>>()
        );
        // And the barrier-aligned wall clock beats the single device.
        assert!(
            r2.stats.elapsed_ns < r1.stats.elapsed_ns,
            "2 devices {} must beat 1 device {}",
            r2.stats.elapsed_ns,
            r1.stats.elapsed_ns
        );
    }

    #[test]
    fn hybrid_sharded_runs_stage_per_device_and_stay_correct() {
        let g = generators::lognormal_dense(800, 60.0, 0.5, 16, 5);
        let mut cfg = sharded_cfg(2, EngineConfig::hybrid_v100());
        cfg.engine.machine.gpu.cache.capacity_bytes = 64 << 10;
        let mut e = ShardedEngine::load(cfg, &g);
        let run = e.cc();
        assert_eq!(run.comp, algo::cc_labels(&g));
        for (d, s) in run.per_device.iter().enumerate() {
            assert!(
                s.transfer.staged_regions > 0,
                "device {d} full sweep must stage its owned range"
            );
        }
    }

    #[test]
    fn empty_shards_are_skipped_not_launched() {
        // More devices than vertices: trailing shards own nothing and
        // must not launch kernels.
        let g = generators::uniform_random(3, 2, 1);
        let mut e = ShardedEngine::load(ShardedConfig::emogi_v100(8), &g);
        let run = e.bfs(0);
        assert_eq!(run.levels, algo::bfs_levels(&g, 0));
        let launched: u64 = run.per_device.iter().map(|s| s.kernel_launches).sum();
        assert!(launched > 0);
        assert!(
            run.per_device.iter().any(|s| s.kernel_launches == 0),
            "empty shards must stay idle"
        );
    }
}
