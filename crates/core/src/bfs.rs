//! Breadth-first search as a [`VertexProgram`] (§5.3's case study).
//!
//! Vertex-centric, level-synchronous, push-based: one kernel launch per
//! BFS level ("the total number of kernels launched ... is equal to the
//! distance between the source vertex to the furthest reachable vertex",
//! §4.2). Frontier-driven: each launch expands only the vertices
//! discovered by the previous one, reading the edge list from host
//! memory and checking/updating the 4-byte level array in device memory.

use crate::program::{AccessPattern, EdgeEffect, VertexProgram};
use emogi_graph::{CsrGraph, VertexId, UNVISITED};

/// BFS result: per-vertex levels ([`UNVISITED`] when unreachable).
#[derive(Debug, Clone)]
pub struct BfsOutput {
    /// Per-vertex BFS level; [`UNVISITED`] for unreachable vertices.
    pub levels: Vec<u32>,
}

/// The BFS vertex program. Per-vertex state: the device-resident level
/// array (semantic copy).
pub struct BfsProgram {
    src: VertexId,
    levels: Vec<u32>,
    /// Level assigned to vertices discovered in the current launch.
    next_level: u32,
}

impl BfsProgram {
    /// A BFS from `src` over `graph`. Panics if `src` is not a vertex
    /// of `graph`.
    pub fn new(graph: &CsrGraph, src: VertexId) -> Self {
        let n = graph.num_vertices();
        assert!(
            (src as usize) < n,
            "BFS source {src} out of range: the graph has {n} vertices"
        );
        let mut levels = vec![UNVISITED; n];
        levels[src as usize] = 0;
        Self {
            src,
            levels,
            next_level: 0,
        }
    }
}

impl VertexProgram for BfsProgram {
    type Ctx = ();
    type Output = BfsOutput;

    fn pattern(&self) -> AccessPattern {
        AccessPattern::FrontierDriven
    }

    /// A BFS task needs only its CSR offsets; its own level is implied by
    /// being on the frontier.
    fn reads_source_status(&self) -> bool {
        false
    }

    fn initial_frontier(&self) -> Vec<VertexId> {
        vec![self.src]
    }

    fn begin_iteration(&mut self) {
        self.next_level += 1;
    }

    fn source_ctx(&self, _v: VertexId) -> Self::Ctx {}

    fn edge(&mut self, _i: u64, _src: VertexId, dst: VertexId, _ctx: ()) -> EdgeEffect {
        if self.levels[dst as usize] == UNVISITED {
            self.levels[dst as usize] = self.next_level;
            EdgeEffect::UpdateDst { activate: true }
        } else {
            EdgeEffect::None
        }
    }

    fn finish(self) -> BfsOutput {
        BfsOutput {
            levels: self.levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, EngineConfig};
    use crate::strategy::AccessStrategy;
    use emogi_graph::{algo, generators};

    /// Run a full BFS through the engine and compare with the CPU
    /// reference, for every strategy.
    fn bfs_via_engine(strategy: AccessStrategy) {
        let g = generators::uniform_random(500, 6, 42);
        let mut engine = Engine::load(EngineConfig::emogi_v100().with_strategy(strategy), &g);
        let run = engine.bfs(3);
        assert_eq!(run.levels, algo::bfs_levels(&g, 3), "{strategy:?}");
        assert!(run.stats.pcie_read_requests > 0);
    }

    #[test]
    #[should_panic(expected = "BFS source 500 out of range: the graph has 500 vertices")]
    fn out_of_range_source_is_named() {
        let g = generators::uniform_random(500, 6, 42);
        Engine::load(EngineConfig::emogi_v100(), &g).bfs(500);
    }

    #[test]
    fn merged_aligned_matches_reference() {
        bfs_via_engine(AccessStrategy::MergedAligned);
    }

    #[test]
    fn merged_matches_reference() {
        bfs_via_engine(AccessStrategy::Merged);
    }

    #[test]
    fn naive_matches_reference() {
        bfs_via_engine(AccessStrategy::Naive);
    }

    #[test]
    fn naive_produces_mostly_32_byte_requests() {
        // §5.3.1: "nearly all PCIe requests in the case of Naive
        // implementation are of 32-byte granularity".
        let g = generators::uniform_random(2_000, 32, 7);
        let mut engine = Engine::load(
            EngineConfig::emogi_v100().with_strategy(AccessStrategy::Naive),
            &g,
        );
        let run = engine.bfs(0);
        let frac32 = run.stats.request_sizes.fraction(32);
        assert!(frac32 > 0.9, "32-byte fraction {frac32}");
    }

    #[test]
    fn aligned_produces_more_128_byte_requests_than_merged() {
        let g = generators::lognormal_dense(400, 150.0, 0.4, 64, 5);
        let run = |strategy| {
            let mut engine = Engine::load(EngineConfig::emogi_v100().with_strategy(strategy), &g);
            engine.bfs(0).stats.request_sizes.fraction(128)
        };
        let merged = run(AccessStrategy::Merged);
        let aligned = run(AccessStrategy::MergedAligned);
        assert!(
            aligned > merged,
            "aligned 128B fraction {aligned} must beat merged {merged}"
        );
    }
}
