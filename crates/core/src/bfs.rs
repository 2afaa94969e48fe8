//! Breadth-first search as a [`VertexProgram`] (§5.3's case study).
//!
//! Vertex-centric, level-synchronous, push-based: one kernel launch per
//! BFS level ("the total number of kernels launched ... is equal to the
//! distance between the source vertex to the furthest reachable vertex",
//! §4.2). Frontier-driven: each launch expands only the vertices
//! discovered by the previous one, reading the edge list from host
//! memory and checking/updating the 4-byte level array in device memory.

use crate::program::{join_min, AccessPattern, EdgeEffect, EdgeFn, VertexProgram};
use emogi_graph::{CsrGraph, VertexId, UNVISITED};

/// BFS result: per-vertex levels ([`UNVISITED`] when unreachable).
#[derive(Debug, Clone)]
pub struct BfsOutput {
    /// Per-vertex BFS level; [`UNVISITED`] for unreachable vertices.
    pub levels: Vec<u32>,
}

/// The BFS vertex program. Per-vertex state: the device-resident level
/// array (semantic copy).
#[derive(Clone)]
pub struct BfsProgram {
    src: VertexId,
    levels: Vec<u32>,
    /// Level assigned to vertices discovered in the current launch.
    next_level: u32,
}

impl BfsProgram {
    /// A BFS from `src` over `graph`. Panics with
    /// [`ProgramSpec::check`](crate::ProgramSpec::check)'s error if
    /// `src` is not a vertex of `graph`.
    pub fn new(graph: &CsrGraph, src: VertexId) -> Self {
        if let Err(e) = crate::spec::check(graph, Some(src), None) {
            panic!("BFS {e}");
        }
        let mut levels = vec![UNVISITED; graph.num_vertices()];
        levels[src as usize] = 0;
        Self {
            src,
            levels,
            next_level: 0,
        }
    }
}

/// One launch's edge view of a [`BfsProgram`]: the level array and the
/// level this launch assigns.
pub struct BfsEdges<'a> {
    levels: &'a mut [u32],
    level: u32,
}

impl EdgeFn<()> for BfsEdges<'_> {
    fn edge(&mut self, _i: u64, _src: VertexId, dst: VertexId, _ctx: ()) -> EdgeEffect {
        if self.levels[dst as usize] == UNVISITED {
            self.levels[dst as usize] = self.level;
            EdgeEffect::UpdateDst { activate: true }
        } else {
            EdgeEffect::None
        }
    }
}

impl VertexProgram for BfsProgram {
    type Ctx = ();
    type Output = BfsOutput;
    type Edges<'a> = BfsEdges<'a>;

    fn pattern(&self) -> AccessPattern {
        AccessPattern::FrontierDriven
    }

    /// A BFS task needs only its CSR offsets; its own level is implied by
    /// being on the frontier.
    fn reads_source_status(&self) -> bool {
        false
    }

    /// Discovery asks only "visited yet?": batched launches share one
    /// visit-mask word per vertex.
    fn needs_only_visited_bit(&self) -> bool {
        true
    }

    fn initial_frontier(&self) -> Vec<VertexId> {
        vec![self.src]
    }

    fn begin_iteration(&mut self) {
        self.next_level += 1;
    }

    fn source_ctx(&self, _v: VertexId) -> Self::Ctx {}

    fn edges(&mut self) -> BfsEdges<'_> {
        BfsEdges {
            levels: &mut self.levels,
            level: self.next_level,
        }
    }

    /// A level the replica discovered this iteration is `next_level`,
    /// and every other entry is the same on both sides or still
    /// [`UNVISITED`] (the largest value): the minimum takes the
    /// discoveries.
    fn join(&mut self, replica: &Self) {
        join_min(&mut self.levels, &replica.levels);
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
    use emogi_graph::generators;

    #[test]
    #[should_panic(expected = "BFS source 500 out of range: the graph has 500 vertices")]
    fn out_of_range_source_is_named() {
        let g = generators::uniform_random(500, 6, 42);
        Engine::load(EngineConfig::emogi_v100(), &g).bfs(500);
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
