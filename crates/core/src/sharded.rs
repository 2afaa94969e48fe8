//! Sharded multi-GPU execution: one traversal, many simulated GPUs.
//!
//! EMOGI's multi-GPU result (§5.7) is that zero-copy traversal keeps
//! scaling across GPUs because each GPU fetches only the edge-list
//! ranges its own frontier shard needs, over its **own** host link. A
//! [`ShardedEngine`] reproduces that execution model on a
//! [`DeviceGroup`]:
//!
//! * the vertex set is split into contiguous shards of about equal
//!   edge counts ([`VertexPartition::degree_balanced`], a function of the
//!   graph and the device count); a shard anchors its hubs' pieces and
//!   its full-sweep range;
//! * every device holds the full vertex list and status array (the
//!   paper's small device-resident structures) while the edge list
//!   stays in shared host memory, placed identically on each device's
//!   address map;
//! * per iteration, device `d` launches one kernel over its deal of the
//!   frontier: an equal-work span of the short lists, in vertex order,
//!   plus its round-robin pieces of the hubs (for full sweeps, the
//!   vertex range it owns) — its PCIe link carries only those
//!   neighbour lists;
//! * each device launches on its own copy of the status arrays: device 0
//!   on the program's state, every other device on a replica of it taken
//!   at iteration start, so no device sees a peer's updates before the
//!   exchange; the launches run side by side on host threads;
//! * between iterations the devices synchronize at a barrier and
//!   exchange their status updates (activated `(vertex, value)` pairs
//!   for frontier-driven programs, owned status slices for full sweeps)
//!   over the group's NVLink-class peer link — the one exchange route;
//!   the host links carry only each device's own kernel traffic. A
//!   vertex that several devices activate in one iteration is sent by
//!   each of them, as each device's copy discovered it.
//!
//! # Bit-identity
//!
//! Sharding is a *pure execution-plan change*: outputs and iteration
//! counts are identical to the single-device
//! [`Engine`](crate::engine::Engine) for any device count, because
//! every shipped program's per-iteration semantics are a pure function
//! of iteration-start state
//! (contexts are captured for the **whole** frontier before any shard's
//! kernel runs, BFS/SSSP updates are commutative mins that
//! [`VertexProgram::join`] folds across the devices' copies, CC hooks
//! against an iteration-start snapshot, and PageRank folds its sums in
//! canonical edge order). With **one** device this *is* the
//! single-device engine — both are fronts of the same iteration driver
//! (`driver.rs`), hubs are cut by the same rule and the exchange is a
//! no-op — so
//! outputs, iteration counts *and* every per-run statistic (including
//! hybrid transfer counters) are equal tick for tick.
//! `tests/sharded_differential.rs` checks both properties on random
//! graphs × 4 programs × 1/2/4 devices × every named configuration —
//! including graphs with planted hubs
//! (`tests/common::hub_graph`), whose lists reach [`HUB_SPLIT_DEGREE`]
//! and are walked cooperatively —
//! and the `scaling` experiment measures the payoff (near-linear BFS
//! scaling on GK). `emogi_serve::ShardedServer` serves queries over the
//! group: each query's iterations shard across it (latency-oriented)
//! instead of sharing fetches with a batch (throughput-oriented).
//!
//! [`DeviceGroup`]: emogi_runtime::DeviceGroup
//! [`VertexPartition::degree_balanced`]: emogi_graph::VertexPartition::degree_balanced

use crate::driver::Driver;
use crate::engine::EngineConfig;
use crate::program::VertexProgram;
use crate::strategy::AccessStrategy;
use emogi_graph::{CsrGraph, PartitionStrategy, VertexId};
use emogi_runtime::group::DeviceGroup;
use emogi_runtime::report::RunStats;
use emogi_sim::interconnect::LinkStats;

/// Bytes per frontier-update record exchanged between devices: a 4-byte
/// vertex id plus its 4-byte status value.
pub const FRONTIER_UPDATE_BYTES: u64 = 8;

/// Neighbour lists at least this many elements long are expanded
/// **cooperatively**: the list walk is cut into line-aligned pieces of
/// `min(⌈deg / spread⌉, hub_slice)` elements, the driver's one
/// hub-split rule. A frontier spreads a hub over every device, round
/// robin from its owner, so its pieces meet the same devices' L2 query
/// after query; a full sweep keeps the pieces on the owner. Shorter
/// lists stay whole and are dealt in equal-work spans across devices,
/// in vertex order, whoever owns them.
/// A warp walks its list serially, so an uncut mega-hub's walk would be
/// a latency chain no amount of sharding shortens — on power-law graphs
/// that chain *is* the critical path of the busiest iterations. The
/// paper's strategies have no `hub_slice`, so they cut only frontier
/// hubs, only across devices; the split-hub kernel
/// ([`AccessStrategy::MergedAlignedSplit`], whose slice is this
/// constant) cuts on every device count, sweeps included. Either way a
/// one-device group cuts exactly as the [`Engine`](crate::engine::Engine)
/// does, which keeps the two tick-identical.
pub const HUB_SPLIT_DEGREE: u64 = 256;

/// How to build a [`ShardedEngine`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The per-device engine configuration (platform, kernel strategy,
    /// transport); every device is identical.
    pub engine: EngineConfig,
    /// Simulated GPUs.
    pub devices: usize,
}

impl ShardedConfig {
    /// `devices` × the EMOGI V100 platform on the split-hub kernel
    /// ([`AccessStrategy::MergedAlignedSplit`]).
    pub fn emogi_v100(devices: usize) -> Self {
        Self {
            engine: EngineConfig::emogi_v100().with_strategy(AccessStrategy::MergedAlignedSplit),
            devices,
        }
    }

    /// The configuration unchanged: the partition is always degree
    /// balanced. Kept only because the benchmark's pinned API calls it.
    pub fn with_partition(self, _: PartitionStrategy) -> Self {
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
    /// Group-level totals, folded per iteration: elapsed time is the
    /// barrier-aligned wall clock (slowest device each iteration),
    /// traffic counters sum across links, and `kernel_launches` is the
    /// *logical* launch-wave count, equal to
    /// [`iterations`](Self::iterations) and so directly comparable with a
    /// single-device run's (physical per-device launches stay in
    /// [`per_device`](Self::per_device)).
    pub stats: RunStats,
    /// Per-device measurements, index = device id.
    pub per_device: Vec<RunStats>,
    /// Inter-device exchange traffic of this run (every device's peer
    /// egress port summed; zero for a single device).
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
        let mut group = DeviceGroup::new(cfg.devices, cfg.engine.machine.clone());
        let core = Driver::load(&cfg.engine, graph, &mut group.machines);
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

    /// Run `program` to convergence across all shards. One synchronous
    /// iteration = one kernel launch on every device that has work this
    /// iteration, followed by the inter-device update exchange and a
    /// barrier.
    pub fn run<P: VertexProgram>(&mut self, program: P) -> ShardedRun<P::Output> {
        let exchange_base = self.group.interconnect.totals();
        let mut driven = self.core.drive(&mut self.group, vec![program], false);
        ShardedRun {
            output: driven.outputs.pop().expect("one program, one output"),
            stats: driven.per_query.pop().expect("one program, one fold"),
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
    use emogi_graph::{algo, generators};

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
        let mut cfg = ShardedConfig::emogi_v100(2);
        cfg.engine = EngineConfig::hybrid_v100();
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
        // More devices than vertices: every frontier leaves devices
        // dealt nothing, and they must not launch kernels.
        let g = generators::uniform_random(3, 2, 1);
        let mut e = ShardedEngine::load(ShardedConfig::emogi_v100(8), &g);
        let run = e.bfs(0);
        assert_eq!(run.levels, algo::bfs_levels(&g, 0));
        let launched: u64 = run.per_device.iter().map(|s| s.kernel_launches).sum();
        assert!(launched > 0);
        assert!(
            run.per_device.iter().any(|s| s.kernel_launches == 0),
            "devices dealt nothing must stay idle"
        );
    }
}
