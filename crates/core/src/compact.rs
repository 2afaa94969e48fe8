//! Subway's transport (EuroSys 2020, the paper's reference \[45\]): the
//! active subgraph, packed on the host and copied to device memory.
//!
//! Subway never reads the edge list from the GPU. Each iteration it
//! (1) determines the active vertices, (2) *generates a subgraph* — the
//! active vertices' neighbour lists packed into a contiguous buffer, plus
//! a `(vertex, offset, degree)` triple per list — (3) `cudaMemcpy`s the
//! subgraph to device memory, and (4) runs the iteration's kernel out of
//! device memory. This is Subway's asynchronous pipeline, the one §5.6
//! runs: each subgraph's generation overlaps the device's previous kernel.
//!
//! Under [`Transport::Compacted`](crate::layout::Transport::Compacted) the
//! driver's work items are the active lists. The layout keeps the edge
//! list in pinned host memory and reserves one packed buffer in device
//! memory; before each launch [`Packed::pack`] prices the generation,
//! copies the launch's items (and their weights, once placed) into the
//! buffer and records where each item landed, so the layout's
//! `edge_addr` / `weight_addr` resolve into it and the one kernel reads
//! the subgraph warp by warp through the L2 and HBM. An iteration whose
//! subgraph exceeds the buffer runs in buffer-sized chunks, in item
//! order: each chunk is one generation, one copy and one launch.
//!
//! Matching the public implementation, Subway uses 4-byte edge elements
//! (`EngineConfig::subway_v100`); the paper therefore re-evaluates EMOGI
//! at 4 bytes when comparing. The gather reads host DRAM for a spilled
//! tail too: a CXL-spilled Subway graph prices its generation as if the
//! tail were local.

use crate::kernel::WorkSlice;
use emogi_graph::CsrGraph;
use emogi_runtime::Machine;
use emogi_sim::time::{bytes_over_bandwidth_ps, Time, PS_PER_NS};
use std::ops::Range;

// Costs of the subgraph generator, scaled like the rest of the machine:
// they correspond to tens of milliseconds per iteration at the paper's
// graph sizes.
/// Per-vertex activeness scan (flag check + prefix-sum share), ns, once
/// per iteration. Fitted to Table 3's Subway timings.
const SCAN_NS_PER_VERTEX: f64 = 1.0;
/// Per-active-vertex gather bookkeeping (offset rewrite), ns. Fitted to
/// Table 3's Subway timings.
const GATHER_NS_PER_VERTEX: f64 = 18.0;
/// Effective bandwidth of gathering scattered neighbour lists into the
/// packed buffer, GB/s. Far below DRAM peak: the lists are short and
/// scattered, so the copy is cache-miss-bound. Fitted to Table 3's Subway
/// timings (a few GB/s at the paper's scale).
const GATHER_GBPS: f64 = 4.0;
/// The `(vertex, offset, degree)` triple packed with every list, bytes.
const ITEM_BYTES: u64 = 12;

/// The packed subgraph buffer in device memory, and where the items of
/// the launch it was last packed for landed.
#[derive(Debug)]
pub(crate) struct Packed {
    /// Device address of the buffer.
    base: u64,
    /// Buffer size in bytes.
    capacity: u64,
    /// Size of one packed edge element.
    elem_bytes: u64,
    /// The host's activeness scan over every vertex, ns.
    scan_ns: Time,
    /// The packed items in item order: each one's first element, and the
    /// number of elements packed before it.
    slots: Vec<(u64, u64)>,
    /// Device address of the packed weights, which follow the elements.
    weights: u64,
    /// Bytes copied into the buffer over the layout's life.
    pub(crate) bytes: u64,
}

impl Packed {
    /// Reserve the buffer for `graph`'s subgraphs at `elem_bytes` per
    /// element on `machine`: the smaller of the free device memory and
    /// the whole graph's subgraph, weights included.
    pub(crate) fn new(machine: &mut Machine, graph: &CsrGraph, elem_bytes: u64) -> Self {
        let (n, e) = (graph.num_vertices() as u64, graph.num_edges() as u64);
        let whole = e * (elem_bytes + 4) + n * ITEM_BYTES;
        let capacity = whole.min(machine.spaces.device_free());
        Self {
            base: machine.alloc_device(capacity),
            capacity,
            elem_bytes,
            scan_ns: (n as f64 * SCAN_NS_PER_VERTEX) as Time,
            slots: Vec::new(),
            weights: 0,
            bytes: 0,
        }
    }

    /// Bytes packed per element: the element, and its weight when
    /// `weighted`.
    fn per_elem(&self, weighted: bool) -> u64 {
        self.elem_bytes + if weighted { 4 } else { 0 }
    }

    /// Split `items` into consecutive chunks whose subgraphs fit the
    /// buffer. A list larger than the whole buffer cannot be packed.
    pub(crate) fn chunks(&self, items: &[WorkSlice], weighted: bool) -> Vec<Range<usize>> {
        let per_elem = self.per_elem(weighted);
        let mut out = Vec::new();
        let (mut start, mut held) = (0, 0);
        for (i, &(_, lo, hi)) in items.iter().enumerate() {
            let bytes = (hi - lo) * per_elem + ITEM_BYTES;
            assert!(
                bytes <= self.capacity,
                "a {bytes} B list exceeds the {} B packed buffer",
                self.capacity
            );
            if held + bytes > self.capacity {
                out.push(start..i);
                (start, held) = (i, 0);
            }
            held += bytes;
        }
        out.push(start..items.len());
        out
    }

    /// Generate and copy the subgraph of `items`, one chunk, advancing
    /// the machine clock. Generation — the activeness scan when `scan`
    /// (the iteration's first chunk), the per-list gather bookkeeping and
    /// the scattered copy, paced by the slower of host DRAM and the
    /// gather bandwidth — overlaps the device's previous kernel,
    /// `prev_kernel_ns` long; the `cudaMemcpy` of the subgraph follows.
    pub(crate) fn pack(
        &mut self,
        m: &mut Machine,
        items: &[WorkSlice],
        weighted: bool,
        scan: bool,
        prev_kernel_ns: Time,
    ) {
        let elems: u64 = items.iter().map(|&(_, lo, hi)| hi - lo).sum();
        let bytes = elems * self.per_elem(weighted) + items.len() as u64 * ITEM_BYTES;
        let scan = if scan { self.scan_ns } else { 0 };
        let gather = (items.len() as f64 * GATHER_NS_PER_VERTEX) as Time;
        let dram_ns = m.host_dram.read_bulk(m.now, bytes) - m.now;
        let copy_ns = bytes_over_bandwidth_ps(bytes, GATHER_GBPS).div_ceil(PS_PER_NS);
        let gen = dram_ns.max(copy_ns) + scan + gather;
        m.now += gen.saturating_sub(prev_kernel_ns);
        m.memcpy_to_device(bytes);
        self.bytes += bytes;
        self.slots.clear();
        let mut packed = 0;
        for &(_, lo, hi) in items {
            self.slots.push((lo, packed));
            packed += hi - lo;
        }
        self.weights = self.base + elems * self.elem_bytes;
    }

    /// Where element `i` of the packed launch sits, in elements from the
    /// buffer's start. An empty item shares its first element with the
    /// next item, so the last item starting at or below `i` holds it.
    fn slot(&self, i: u64) -> u64 {
        let k = self.slots.partition_point(|&(lo, _)| lo <= i) - 1;
        let (lo, packed) = self.slots[k];
        packed + (i - lo)
    }

    /// Device address of edge-list element `i`. Never inlined, so the
    /// layout's address path stays small enough to inline into the walks
    /// of every other transport.
    #[inline(never)]
    pub(crate) fn edge_addr(&self, i: u64) -> u64 {
        self.base + self.slot(i) * self.elem_bytes
    }

    /// Device address of weight element `i`; never inlined, like
    /// [`edge_addr`](Self::edge_addr).
    #[inline(never)]
    pub(crate) fn weight_addr(&self, i: u64) -> u64 {
        self.weights + self.slot(i) * 4
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, EngineConfig};
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::{generators, CsrGraph, UNVISITED};

    /// A Subway engine whose GPU has `mem_bytes` of memory.
    fn small(mem_bytes: u64) -> EngineConfig {
        let mut cfg = EngineConfig::subway_v100();
        cfg.machine.gpu.mem_bytes = mem_bytes;
        cfg
    }

    /// A full sweep makes one pass even when no label moves, and a graph
    /// without vertices is dealt no work: one logical launch either way.
    #[test]
    fn cc_on_an_edgeless_graph_still_makes_one_pass_and_one_launch() {
        for n in [0, 5] {
            let g = CsrGraph::empty(n);
            let run = Engine::load(EngineConfig::subway_v100(), &g).cc();
            assert_eq!((run.hook_passes, run.stats.kernel_launches), (1, 1), "{n}");
            assert_eq!(run.comp, (0..n as u32).collect::<Vec<_>>());
        }
    }

    /// Every edge and weight the kernel reads comes out of the packed
    /// buffer: no zero-copy read, no fault, only `cudaMemcpy` bytes.
    #[test]
    fn traffic_is_memcpy_not_zero_copy_or_uvm() {
        let g = generators::uniform_random(400, 8, 7);
        let w = generate_weights(g.num_edges(), 7);
        let mut e = Engine::load(EngineConfig::subway_v100(), &g);
        for run in [e.sssp(&w, 0).stats, e.bfs(0).stats, e.cc().stats] {
            assert_eq!((run.pcie_read_requests, run.page_faults), (0, 0));
            assert!(run.host_bytes >= g.num_edges() as u64 * 4);
        }
    }

    /// Subway moves every activated list exactly once per activation: a
    /// BFS copies each reachable vertex's list once, 4 B per element, 4 B
    /// more per element once weights are placed, and its 12 B triple,
    /// whether or not the buffer makes the levels run in chunks.
    #[test]
    fn host_bytes_are_the_packed_lists_exactly() {
        let g = generators::uniform_random(500, 8, 9);
        let w = generate_weights(g.num_edges(), 9);
        let (whole, chunked) = (EngineConfig::subway_v100(), small(16 << 10));
        for (cfg, chunks) in [(whole, false), (chunked, true)] {
            let mut e = Engine::load(cfg, &g);
            let expect = |levels: &[u32], per_elem: u64| {
                let reached = (0..500u32).filter(|&v| levels[v as usize] != UNVISITED);
                reached.map(|v| g.degree(v) * per_elem + 12).sum::<u64>()
            };
            let bfs = e.bfs(1);
            assert_eq!(bfs.stats.host_bytes, expect(&bfs.levels, 4));
            let launches = e.machine.kernel_launches;
            assert_eq!(launches > bfs.stats.kernel_launches, chunks, "{launches}");
            e.sssp(&w, 1);
            let bfs = e.bfs(1);
            assert_eq!(bfs.stats.host_bytes, expect(&bfs.levels, 8));
        }
    }

    /// One launch per level, per pass and per chunk: on a full-size
    /// buffer a BFS launches once per level and CC once per hook pass; on
    /// a GPU whose buffer holds a fraction of the graph, every CC pass
    /// launches the sweep's chunk count.
    #[test]
    fn one_launch_per_level_per_chunk() {
        let g = generators::uniform_random(500, 6, 4);
        let mut e = Engine::load(EngineConfig::subway_v100(), &g);
        for src in [3u32, 9] {
            let before = e.machine.kernel_launches;
            let run = e.bfs(src);
            let depth = run.levels.iter().filter(|&&l| l != UNVISITED).max();
            let levels = u64::from(*depth.expect("the source")) + 1;
            assert_eq!(run.stats.kernel_launches, levels);
            assert_eq!(e.machine.kernel_launches - before, levels);
        }
        let mut e = Engine::load(small(16 << 10), &g);
        let sweep: Vec<_> = (0..g.num_vertices() as u32)
            .map(|v| (v, g.neighbor_start(v), g.neighbor_end(v)))
            .collect();
        let chunks = e.layout().chunks(&sweep).len() as u64;
        assert!(chunks > 1, "the buffer must not hold the sweep");
        let cc = e.cc();
        assert_eq!(cc.stats.kernel_launches, cc.hook_passes);
        assert_eq!(e.machine.kernel_launches, cc.hook_passes * chunks);
    }
}
