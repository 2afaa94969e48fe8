//! Zero-copy BFS over a *compressed* edge list — the §6 extension.
//!
//! The kernel structure is EMOGI's merged+aligned sweep, but each warp
//! reads its vertex's delta-varint-compressed byte range instead of raw
//! 8-byte elements, then spends extra compute decompressing (the paper's
//! argument: lanes idle on interconnect latency anyway, so decompression
//! is free). The interconnect moves 2–4× fewer bytes on graphs with
//! id-space locality, which is exactly where an interconnect-bound
//! traversal gains.

use emogi_gpu::access::{AccessBatch, Space, WARP_SIZE};
use emogi_graph::compress::CompressedCsr;
use emogi_graph::{VertexId, UNVISITED};
use emogi_runtime::exec::run_kernel;
use emogi_runtime::machine::MachineConfig;
use emogi_runtime::report::RunStats;
use emogi_runtime::{Kernel, Machine, StepOutcome};

/// Decode cost per edge, ns (a few shifts/adds per varint byte; far below
/// the ~100 ns/edge the interconnect costs at 32 B per 3-ish edges).
const DECODE_NS_PER_EDGE: u32 = 2;

/// BFS engine over a compressed zero-copy edge list.
pub struct CompressedBfs<'g> {
    machine: Machine,
    graph: &'g CompressedCsr,
    /// Compressed bytes base in pinned host memory.
    edge_base: u64,
    layout_status: u64,
    layout_vertex: u64,
}

struct CompressedBfsKernel<'a, 'g> {
    sys_graph: &'g CompressedCsr,
    edge_base: u64,
    status_base: u64,
    vertex_base: u64,
    levels: &'a mut [u32],
    next_level: u32,
    frontier: &'a [VertexId],
    next_frontier: &'a mut Vec<VertexId>,
    pos: usize,
    scratch: Vec<VertexId>,
}

struct CompressedTask {
    v: VertexId,
    /// Byte cursor within the compressed stream; `None` until the offsets
    /// have been read.
    cursor: Option<u64>,
    end: u64,
}

impl Kernel for CompressedBfsKernel<'_, '_> {
    type Task = CompressedTask;

    fn next_task(&mut self) -> Option<CompressedTask> {
        let v = *self.frontier.get(self.pos)?;
        self.pos += 1;
        Some(CompressedTask {
            v,
            cursor: None,
            end: 0,
        })
    }

    fn step(&mut self, task: &mut CompressedTask, batch: &mut AccessBatch) -> StepOutcome {
        let Some(cursor) = task.cursor else {
            // Offsets from device memory, then align the byte cursor down
            // to the 128-byte boundary (EMOGI's aligned trick, applied to
            // the byte stream).
            batch.load(self.vertex_base + u64::from(task.v) * 8, 8, Space::Device);
            batch.load(
                self.vertex_base + (u64::from(task.v) + 1) * 8,
                8,
                Space::Device,
            );
            let (start, end) = self.sys_graph.byte_range(task.v);
            if start == end {
                return StepOutcome::Done;
            }
            task.cursor = Some(start & !127);
            task.end = end;
            // Semantics: decode the list now; traffic is still charged
            // byte-by-byte below.
            self.sys_graph.decode_into(task.v, &mut self.scratch);
            for i in 0..self.scratch.len() {
                let dst = self.scratch[i];
                if self.levels[dst as usize] == UNVISITED {
                    self.levels[dst as usize] = self.next_level;
                    self.next_frontier.push(dst);
                }
            }
            return StepOutcome::Continue;
        };
        // One warp iteration: 32 lanes x 8 bytes of the compressed
        // stream, skipping lanes below the true start.
        let (true_start, _) = self.sys_graph.byte_range(task.v);
        let chunk_end = (cursor + (WARP_SIZE as u64) * 8).min(task.end);
        let lo = cursor.max(true_start & !7);
        let mut b = lo;
        while b < chunk_end {
            batch.load(self.edge_base + b, 8, Space::HostPinned);
            b += 8;
        }
        // Status gathers + stores for the edges decoded in this window
        // are approximated by charging them when the bytes arrive.
        let window_edges = ((chunk_end - lo) / 2).max(1); // ~2 B per edge
        batch.compute_ns = DECODE_NS_PER_EDGE * window_edges as u32;
        for _ in 0..window_edges.min(WARP_SIZE as u64) {
            batch.load(self.status_base, 4, Space::Device);
        }
        task.cursor = Some(chunk_end);
        if chunk_end >= task.end {
            StepOutcome::Done
        } else {
            StepOutcome::Continue
        }
    }
}

impl<'g> CompressedBfs<'g> {
    /// A BFS system over a delta-varint-compressed graph on a fresh
    /// machine.
    pub fn new(machine_cfg: MachineConfig, graph: &'g CompressedCsr) -> Self {
        let mut machine = Machine::new(machine_cfg);
        let edge_base = machine.alloc_host_pinned(graph.compressed_bytes().max(1));
        let layout_vertex = machine.alloc_device((graph.num_vertices() as u64 + 1) * 8);
        let layout_status = machine.alloc_device(graph.num_vertices() as u64 * 4);
        Self {
            machine,
            graph,
            edge_base,
            layout_status,
            layout_vertex,
        }
    }

    /// Bytes the interconnect must move at minimum (the compressed size).
    pub fn dataset_bytes(&self) -> u64 {
        self.graph.compressed_bytes()
    }

    /// Full BFS from `src` over the compressed stream.
    pub fn bfs(&mut self, src: VertexId) -> (Vec<u32>, RunStats) {
        let mut levels = vec![UNVISITED; self.graph.num_vertices()];
        levels[src as usize] = 0;
        self.machine.measure(|machine| {
            let mut frontier = vec![src];
            let mut level = 0u32;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                let mut kernel = CompressedBfsKernel {
                    sys_graph: self.graph,
                    edge_base: self.edge_base,
                    status_base: self.layout_status,
                    vertex_base: self.layout_vertex,
                    levels: &mut levels,
                    next_level: level + 1,
                    frontier: &frontier,
                    next_frontier: &mut next,
                    pos: 0,
                    scratch: Vec::new(),
                };
                run_kernel(machine, &mut kernel);
                level += 1;
                next.sort_unstable();
                frontier = next;
            }
            levels
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};
    use emogi_graph::{algo, generators};

    #[test]
    fn compressed_bfs_matches_reference() {
        let g = generators::web_crawl(1_500, 10, 100, 0.85, 8);
        let c = CompressedCsr::encode(&g);
        let mut sys = CompressedBfs::new(MachineConfig::v100_gen3(), &c);
        let src = (0..1_500u32).find(|&v| g.degree(v) > 0).unwrap();
        let (levels, stats) = sys.bfs(src);
        assert_eq!(levels, algo::bfs_levels(&g, src));
        assert!(stats.pcie_read_requests > 0);
    }

    #[test]
    fn compression_reduces_interconnect_traffic() {
        // The §6 hypothesis: on a local-structured graph, the compressed
        // engine moves far fewer bytes than the raw 8-byte engine.
        let g = generators::web_crawl(4_000, 16, 200, 0.9, 9);
        let src = (0..4_000u32).find(|&v| g.degree(v) > 0).unwrap();

        let mut raw = Engine::load(EngineConfig::emogi_v100(), &g);
        let raw_run = raw.bfs(src);

        let c = CompressedCsr::encode(&g);
        let mut comp = CompressedBfs::new(MachineConfig::v100_gen3(), &c);
        let (levels, comp_stats) = comp.bfs(src);
        assert_eq!(levels, raw_run.levels);
        assert!(
            comp_stats.host_bytes * 2 < raw_run.stats.host_bytes,
            "compressed {} vs raw {} bytes",
            comp_stats.host_bytes,
            raw_run.stats.host_bytes
        );
    }
}
