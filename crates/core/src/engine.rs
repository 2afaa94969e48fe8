//! The place-once, query-many traversal engine.
//!
//! One [`Engine`] owns a simulated machine with a graph placed on it
//! (§4.2's layout) and runs any [`VertexProgram`] against it, launching
//! one kernel per iteration — BFS level, SSSP relaxation round, CC hook
//! pass, PageRank power iteration — mirroring the paper's execution
//! structure. The graph is placed **once** at [`Engine::load`]; every
//! subsequent [`Engine::run`] reuses the placement, the warmed cache and
//! (in hybrid mode) the already-staged regions, which is what makes
//! multi-query scenarios (analytics serving, multi-source BFS) cheap.
//!
//! `Engine` is the N = 1 front of the one iteration driver
//! (`driver.rs`): between launches the driver charges the
//! device-side vertex scan that selects active vertices (the kernels
//! iterate over all vertices and test their status, §2.1 Algorithm 1),
//! plans hybrid transfers from the program's declared
//! [`AccessPattern`] — frontier-driven programs predict exactly the
//! neighbour lists the next launch reads, full-sweep programs the whole
//! edge list — and applies the program's device-side inter-launch work
//! (CC's pointer-jumping shortcut).

use crate::batch::BatchRun;
use crate::bfs::{BfsOutput, BfsProgram};
use crate::cc::{CcOutput, CcProgram};
use crate::driver::Driver;
use crate::layout::{GraphLayout, Transport};
use crate::pagerank::{PageRankOutput, PageRankProgram};
use crate::program::{AccessPattern, VertexProgram};
use crate::sssp::{SsspOutput, SsspProgram};
use crate::strategy::AccessStrategy;
use emogi_graph::{CsrGraph, VertexId};
use emogi_runtime::machine::MachineConfig;
use emogi_runtime::report::RunStats;
use emogi_runtime::{Machine, TransferConfig};

/// How to build an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated platform (GPU, PCIe link, host DRAM, UVM template).
    pub machine: MachineConfig,
    /// Kernel-level access strategy (the paper's Naive / Merged /
    /// Merged+Aligned, or the split-hub extension kernel).
    pub strategy: AccessStrategy,
    /// Where the edge list lives and how it reaches the GPU.
    pub transport: Transport,
    /// Simulated edge element size: 8 by default, 4 for Subway and the
    /// EMOGI side it is compared with (§5.6).
    pub elem_bytes: u64,
}

impl EngineConfig {
    /// EMOGI as evaluated: V100, PCIe 3.0, merged + aligned zero-copy.
    pub fn emogi_v100() -> Self {
        Self {
            machine: MachineConfig::v100_gen3(),
            strategy: AccessStrategy::MergedAligned,
            transport: Transport::ZeroCopy,
            elem_bytes: 8,
        }
    }

    /// The paper's optimized UVM baseline: same kernels, edge list in
    /// managed memory with read-duplication (§5.1.2 (a)).
    pub fn uvm_v100() -> Self {
        Self::emogi_v100()
            .with_strategy(AccessStrategy::Merged)
            .with_transport(Transport::Uvm)
    }

    /// Hybrid transport on the V100 platform: the split-hub merged +
    /// aligned kernel ([`AccessStrategy::MergedAlignedSplit`]), with dense
    /// / recurring edge-list regions bulk-staged into device memory and
    /// the rest read zero-copy.
    pub fn hybrid_v100() -> Self {
        Self::emogi_v100()
            .with_strategy(AccessStrategy::MergedAlignedSplit)
            .with_transport(Transport::Hybrid {
                transfer: TransferConfig::default(),
                pipelined: false,
            })
    }

    /// Pipelined hybrid transport on the V100 platform:
    /// [`hybrid_v100`](Self::hybrid_v100) with staging DMA overlapped
    /// behind kernel compute via the default prefetcher.
    pub fn pipelined_v100() -> Self {
        Self::hybrid_v100().with_transport(Transport::Hybrid {
            transfer: TransferConfig::default(),
            pipelined: true,
        })
    }

    /// Subway as §5.6 runs it, on the V100 platform: 4-byte elements,
    /// each iteration's active subgraph packed on the host and copied into
    /// device memory ([`Transport::Compacted`]), on
    /// [`emogi_v100`](Self::emogi_v100)'s strategy, so Table 3's two sides
    /// differ only in transport.
    pub fn subway_v100() -> Self {
        Self::emogi_v100()
            .with_transport(Transport::Compacted)
            .with_elem_bytes(4)
    }

    /// Replace only the kernel-level access strategy.
    pub fn with_strategy(mut self, s: AccessStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Replace only the transport.
    pub fn with_transport(mut self, t: Transport) -> Self {
        self.transport = t;
        self
    }

    /// Replace the simulated platform.
    pub fn with_machine(mut self, m: MachineConfig) -> Self {
        self.machine = m;
        self
    }

    /// Set the simulated edge element size (8, or 4 for §5.6 protocols).
    pub fn with_elem_bytes(mut self, b: u64) -> Self {
        self.elem_bytes = b;
        self
    }
}

/// Result of one program execution: the program's output plus the run's
/// measurements (which carry their own transfer counters — hybrid runs
/// fill [`RunStats::transfer`], everything else leaves it zeroed).
///
/// `Run` derefs to the output, so `run.levels` / `run.dist` / `run.comp`
/// read exactly like the pre-redesign result structs.
#[derive(Debug, Clone)]
pub struct Run<O> {
    /// The program's output (levels, distances, labels, ranks, ...).
    pub output: O,
    /// The run's measurements.
    pub stats: RunStats,
}

impl<O> std::ops::Deref for Run<O> {
    type Target = O;

    fn deref(&self) -> &O {
        &self.output
    }
}

/// Result of one full BFS.
pub type BfsRun = Run<BfsOutput>;
/// Result of one full SSSP.
pub type SsspRun = Run<SsspOutput>;
/// Result of one full CC.
pub type CcRun = Run<CcOutput>;
/// Result of one full PageRank.
pub type PageRankRun = Run<PageRankOutput>;

/// A graph placed on a machine, ready to run any [`VertexProgram`].
///
/// ```
/// use emogi_core::{BfsProgram, Engine, EngineConfig};
/// use emogi_graph::{algo, generators};
///
/// let graph = generators::uniform_random(2_000, 8, 7);
/// // Place the graph once ...
/// let mut engine = Engine::load(EngineConfig::emogi_v100(), &graph);
/// // ... then serve as many queries as you like against the placement.
/// for src in [0u32, 17, 99] {
///     let run = engine.run(BfsProgram::new(&graph, src));
///     assert_eq!(run.levels, algo::bfs_levels(&graph, src));
///     assert!(run.stats.elapsed_ns > 0);
/// }
/// ```
pub struct Engine<'g> {
    /// The simulated machine the graph is placed on.
    pub machine: Machine,
    /// The placement and the iteration driver, on one device.
    core: Driver<'g>,
}

impl<'g> Engine<'g> {
    /// Place `graph` on a machine built from `cfg`. Auxiliary edge data
    /// (SSSP's weight array) is placed on demand by the first program
    /// that declares it — weights are a program input, not an engine
    /// field.
    pub fn load(cfg: EngineConfig, graph: &'g CsrGraph) -> Self {
        let mut machine = Machine::new(cfg.machine.clone());
        let core = Driver::load(&cfg, graph, std::slice::from_mut(&mut machine));
        Self { machine, core }
    }

    /// The placed graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.core.graph
    }

    /// The graph as placed on the machine: where its arrays live, and
    /// (in hybrid mode) the staging state that manages them.
    pub fn layout(&self) -> &GraphLayout {
        &self.core.places[0]
    }

    /// The kernel-level access strategy every run uses.
    pub fn strategy(&self) -> AccessStrategy {
        self.core.strategy
    }

    /// Effective host-link payload bandwidth in bytes per simulated
    /// nanosecond (numerically equal to usable GB/s). The serving
    /// layer's cost-model admission uses this to convert an estimated
    /// `iterations × frontier-bytes` workload into simulated time
    /// before accepting a deadline.
    pub fn link_bytes_per_ns(&self) -> f64 {
        self.machine.cfg.pcie.usable_gbps()
    }

    /// Edge-list bytes as placed, compressed or raw (the Figure 10
    /// denominator).
    pub fn dataset_bytes(&self) -> u64 {
        let (graph, layout) = (self.core.graph, self.layout());
        let mut b = match &layout.compressed {
            Some(offsets) => offsets[offsets.len() - 1],
            None => graph.edge_list_bytes(layout.elem_bytes),
        };
        if layout.weight_base.is_some() {
            b += graph.num_edges() as u64 * 4;
        }
        b
    }

    /// Run `program` to convergence against the placed graph. One generic
    /// driver serves every program; there are no per-algorithm branches —
    /// only pattern dispatch on the program's declared [`AccessPattern`].
    pub fn run<P: VertexProgram>(&mut self, program: P) -> Run<P::Output> {
        let mut driven = self.core.drive(&mut self.machine, vec![program], false);
        Run {
            output: driven.outputs.pop().expect("one program, one output"),
            stats: driven.per_query.pop().expect("one program, one fold"),
        }
    }

    /// Run a batch of same-type frontier-driven programs concurrently
    /// over the shared placement: each iteration launches one kernel over
    /// the **union** of the still-active queries' frontiers, so an
    /// edge-list region crosses PCIe once per iteration no matter how
    /// many queries read it.
    ///
    /// Per-query results (outputs *and* iteration counts) are
    /// bit-identical to running the same programs one at a time via
    /// [`run`](Self::run) — contexts are captured at iteration start and
    /// the shipped frontier-driven programs' per-edge updates are
    /// commutative within an iteration, so a query cannot observe its
    /// batch neighbours. Each query's [`RunStats`] accumulates the
    /// machine diff of the iterations it was active in, flagged
    /// [`shared_fetch`](RunStats::shared_fetch); the returned
    /// [`BatchRun::stats`] is the batch-level total in which every
    /// shared fetch is counted exactly once.
    ///
    /// The batch's status is one vertex-major device block, a slot per
    /// query with one vertex's entries adjacent, plus — for programs
    /// that need only a visited bit, such as BFS — one shared visit-mask
    /// word per vertex. When device memory cannot hold a block as wide
    /// as the batch — hybrid staging already filled it, or the UVM
    /// driver froze the device layout — the batch degrades gracefully:
    /// it splits into groups sized to the slots that fit, down to plain
    /// back-to-back solo runs. Results are bit-identical in every case;
    /// only the fetch sharing shrinks.
    ///
    /// Panics if the batch is empty, exceeds
    /// [`MAX_BATCH_QUERIES`](crate::batch::MAX_BATCH_QUERIES), or
    /// contains a [`AccessPattern::FullSweep`] program (full sweeps read
    /// everything every launch — there is no frontier to merge; run them
    /// solo).
    pub fn run_batch<P: VertexProgram>(&mut self, mut programs: Vec<P>) -> BatchRun<P::Output> {
        assert!(!programs.is_empty(), "empty batch");
        assert!(
            programs.len() <= crate::batch::MAX_BATCH_QUERIES,
            "batch exceeds {} queries",
            crate::batch::MAX_BATCH_QUERIES
        );
        for p in &programs {
            assert_eq!(
                p.pattern(),
                AccessPattern::FrontierDriven,
                "batched execution requires frontier-driven programs"
            );
        }
        let n = self.core.graph.num_vertices();
        let visit_mask = programs[0].needs_only_visited_bit();
        let slots = self.core.places[0].ensure_batch_status(
            &mut self.machine,
            n,
            programs.len(),
            visit_mask,
        );
        let mut runs = Vec::with_capacity(programs.len());
        let mut stats = RunStats::default();
        while !programs.is_empty() {
            // With no slot at all a "group" is one query on the layout's
            // own status array: the solo path.
            let rest = programs.split_off(slots.clamp(1, programs.len()));
            let driven = self.core.drive(&mut self.machine, programs, slots > 0);
            // Groups run back to back on one machine, so their diffs
            // tile the batch's: the fold is the batch-level machine diff.
            stats += &driven.per_device[0];
            let per_query = driven.outputs.into_iter().zip(driven.per_query);
            runs.extend(per_query.map(|(output, stats)| Run { output, stats }));
            programs = rest;
        }
        BatchRun { runs, stats }
    }

    /// Full BFS from `src`; one kernel launch per level.
    pub fn bfs(&mut self, src: VertexId) -> BfsRun {
        self.run(BfsProgram::new(self.core.graph, src))
    }

    /// Full SSSP from `src` with per-edge `weights`; relaxation rounds
    /// until no distance changes.
    pub fn sssp(&mut self, weights: &[u32], src: VertexId) -> SsspRun {
        self.run(SsspProgram::new(self.core.graph, weights, src))
    }

    /// Full CC; hook passes over the whole edge list until stable, with a
    /// device-side pointer-jumping shortcut after each pass.
    pub fn cc(&mut self) -> CcRun {
        self.run(CcProgram::new(self.core.graph))
    }

    /// PageRank: `iterations` damped power iterations over the full edge
    /// list.
    pub fn pagerank(&mut self, damping: f64, iterations: u32) -> PageRankRun {
        self.run(PageRankProgram::new(self.core.graph, damping, iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::{algo, generators};

    /// Every preset's strategy and transport, and that a strategy is
    /// only a strategy.
    #[test]
    fn presets_and_modes_select_the_expected_strategy_and_transport() {
        use AccessStrategy::{Merged, MergedAligned, MergedAlignedSplit, Naive};
        fn shape(cfg: &EngineConfig) -> (AccessStrategy, &'static str) {
            let transport = match &cfg.transport {
                Transport::ZeroCopy => "zero-copy",
                Transport::Uvm => "uvm",
                Transport::Hybrid {
                    pipelined: false, ..
                } => "hybrid",
                Transport::Hybrid {
                    pipelined: true, ..
                } => "hybrid+prefetch",
                Transport::Compressed => "compressed",
                Transport::Compacted => "compacted",
            };
            (cfg.strategy, transport)
        }
        let presets: [(fn() -> EngineConfig, _); 5] = [
            (EngineConfig::emogi_v100, (MergedAligned, "zero-copy")),
            (EngineConfig::subway_v100, (MergedAligned, "compacted")),
            (EngineConfig::uvm_v100, (Merged, "uvm")),
            (EngineConfig::hybrid_v100, (MergedAlignedSplit, "hybrid")),
            (
                EngineConfig::pipelined_v100,
                (MergedAlignedSplit, "hybrid+prefetch"),
            ),
        ];
        for (i, (preset, want)) in presets.into_iter().enumerate() {
            assert_eq!(shape(&preset()), want, "preset {i}");
            let cfg = preset().with_strategy(Naive);
            assert_eq!(shape(&cfg), (Naive, want.1), "preset {i}.with_strategy");
        }
    }

    #[test]
    fn second_bfs_reuses_the_machine() {
        let g = generators::uniform_random(300, 6, 2);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let a = engine.bfs(0);
        let b = engine.bfs(10);
        assert_eq!(b.levels, algo::bfs_levels(&g, 10));
        // Stats are per-run, not cumulative; and this tiny edge list fits
        // in the cache, so the second traversal rides on warmed lines.
        assert!(b.stats.elapsed_ns > 0);
        assert!(a.stats.host_bytes > 0);
        assert!(
            b.stats.host_bytes < a.stats.host_bytes,
            "second run should benefit from the warm cache"
        );
        // Weights are a program input, not a load-time field: the first
        // SSSP places them on the same placement.
        assert!(engine.layout().weight_base.is_none(), "no SSSP yet");
        engine.sssp(&generate_weights(g.num_edges(), 2), 0);
        assert!(
            engine.layout().weight_base.is_some(),
            "edge data placed on demand"
        );
    }

    #[test]
    fn hybrid_stays_pure_zero_copy_on_a_sparse_one_shot_bfs() {
        // A single sparse BFS reads each region at most ~once in total:
        // the ski-rental policy must never stage, so hybrid and pure
        // merged+aligned are the *same* simulation, tick for tick.
        let g = generators::uniform_random(2_000, 16, 1);
        let mut zc = Engine::load(EngineConfig::emogi_v100(), &g);
        let mut hy = Engine::load(EngineConfig::hybrid_v100(), &g);
        let rz = zc.bfs(0);
        let rh = hy.bfs(0);
        assert_eq!(
            rh.stats.transfer.staged_regions, 0,
            "one-shot sparse BFS must not stage"
        );
        assert_eq!(rh.stats.elapsed_ns, rz.stats.elapsed_ns);
        assert_eq!(rh.stats.pcie_read_requests, rz.stats.pcie_read_requests);
    }

    /// V100 config with the cache shrunk below the test graphs' edge
    /// lists, modelling the paper's regime (edge list >> cache) without
    /// paying for multi-million-edge graphs in a unit test.
    fn oversubscribed(mut cfg: EngineConfig) -> EngineConfig {
        cfg.machine.gpu.cache.capacity_bytes = 64 << 10;
        cfg
    }

    #[test]
    fn hybrid_cc_stages_the_full_sweep_and_beats_zero_copy() {
        // CC hook passes read the whole edge list every pass: the policy
        // stages everything up front and passes 2+ run from HBM.
        let g = generators::lognormal_dense(400, 60.0, 0.5, 16, 5);
        let mut zc = Engine::load(oversubscribed(EngineConfig::emogi_v100()), &g);
        let mut hy = Engine::load(oversubscribed(EngineConfig::hybrid_v100()), &g);
        let rz = zc.cc();
        let rh = hy.cc();
        assert_eq!(rh.comp, rz.comp);
        assert!(
            rh.stats.transfer.staged_regions > 0,
            "full sweep must stage"
        );
        assert!(
            rh.stats.elapsed_ns < rz.stats.elapsed_ns,
            "hybrid CC {} must beat zero-copy {}",
            rh.stats.elapsed_ns,
            rz.stats.elapsed_ns
        );
    }

    #[test]
    fn hybrid_learns_across_repeated_traversals() {
        // Multiple BFS sources on one engine: regions recur, cross the
        // ski-rental point, and later traversals read mostly from HBM.
        let g = generators::uniform_random(3_000, 24, 4);
        let mut zc = Engine::load(oversubscribed(EngineConfig::emogi_v100()), &g);
        let mut hy = Engine::load(oversubscribed(EngineConfig::hybrid_v100()), &g);
        let sources = [0u32, 7, 21, 40];
        let mut zc_total = 0u64;
        let mut hy_total = 0u64;
        let mut hy_last_reqs = 0u64;
        let mut staged_total = 0u64;
        for &s in &sources {
            let rz = zc.bfs(s);
            let rh = hy.bfs(s);
            assert_eq!(rh.levels, rz.levels, "source {s}");
            zc_total += rz.stats.elapsed_ns;
            hy_total += rh.stats.elapsed_ns;
            hy_last_reqs = rh.stats.pcie_read_requests;
            staged_total += rh.stats.transfer.staged_regions;
        }
        assert!(staged_total > 0, "recurring regions must stage");
        assert!(
            hy_total < zc_total,
            "hybrid total {hy_total} must beat zero-copy {zc_total}"
        );
        // Once staged, the final traversal barely touches the link.
        let first_reqs = {
            let mut fresh = Engine::load(oversubscribed(EngineConfig::hybrid_v100()), &g);
            fresh.bfs(0).stats.pcie_read_requests
        };
        assert!(
            hy_last_reqs < first_reqs / 2,
            "staged regions should absorb most reads: {hy_last_reqs} vs {first_reqs}"
        );
    }

    #[test]
    fn per_run_transfer_stats_diff_not_accumulate() {
        // Staging happens on the early runs; per-run counters must show
        // later runs staging little or nothing (the counters are diffs,
        // not lifetime totals).
        let g = generators::uniform_random(3_000, 24, 4);
        let mut hy = Engine::load(oversubscribed(EngineConfig::hybrid_v100()), &g);
        let runs: Vec<u64> = [0u32, 7, 21, 40, 0, 7]
            .iter()
            .map(|&s| hy.bfs(s).stats.transfer.staged_regions)
            .collect();
        let total: u64 = runs.iter().sum();
        assert!(total > 0, "something must stage across the sequence");
        assert!(
            *runs.last().unwrap() < total,
            "per-run diffs cannot all equal the running total: {runs:?}"
        );
    }

    #[test]
    fn amplification_is_sane_for_merged_aligned() {
        let g = generators::uniform_random(2_000, 32, 5);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let run = engine.bfs(0);
        let amp = run.stats.amplification(engine.dataset_bytes());
        // Every edge is touched once; sector granularity and alignment
        // overfetch keep amplification a little above 1 (Figure 10 shows
        // ≤ 1.31 for EMOGI).
        assert!(amp > 0.8 && amp < 1.9, "amplification {amp}");
    }

    /// A lane cannot find an element of a varint stream without
    /// decoding the list before it: only whole warps walk one.
    #[test]
    #[should_panic(expected = "compressed lists are walked by whole warps")]
    fn naive_cannot_read_compressed_lists() {
        let g = generators::uniform_random(50, 4, 1);
        let cfg = EngineConfig::emogi_v100()
            .with_strategy(AccessStrategy::Naive)
            .with_transport(Transport::Compressed);
        let _ = Engine::load(cfg, &g);
    }

    /// A compressed placement reports the compressed stream as its
    /// dataset, and moves fewer bytes than the raw list for the same
    /// levels on a graph with id locality.
    #[test]
    fn compressed_lists_report_and_move_the_compressed_bytes() {
        let g = generators::web_crawl(4_000, 16, 200, 0.9, 9);
        let src = (0..4_000u32).find(|&v| g.degree(v) > 0).unwrap();
        let mut raw = Engine::load(EngineConfig::emogi_v100(), &g);
        let compressed = EngineConfig::emogi_v100().with_transport(Transport::Compressed);
        let mut comp = Engine::load(compressed, &g);
        let want = emogi_graph::compress::CompressedCsr::encode(&g).compressed_bytes();
        assert_eq!(comp.dataset_bytes(), want);
        let (r, c) = (raw.bfs(src), comp.bfs(src));
        assert_eq!(c.levels, r.levels);
        assert!(
            c.stats.host_bytes * 2 < r.stats.host_bytes,
            "compressed {} vs raw {} bytes",
            c.stats.host_bytes,
            r.stats.host_bytes
        );
    }

    #[test]
    #[should_panic(expected = "before the first managed kernel")]
    fn uvm_edge_data_after_first_kernel_is_rejected() {
        let g = generators::uniform_random(200, 6, 1);
        let w = generate_weights(g.num_edges(), 1);
        let mut engine = Engine::load(EngineConfig::uvm_v100(), &g);
        let _ = engine.bfs(0); // initializes the UVM driver
        let _ = engine.sssp(&w, 0); // would grow the managed span: refuse
    }
}
