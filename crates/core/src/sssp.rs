//! Single-source shortest paths as a [`VertexProgram`] (Bellman-Ford
//! style with an active worklist, the standard GPU formulation the paper
//! bases its SSSP on [28, 37]).
//!
//! Per iteration, every active vertex relaxes its outgoing edges; a
//! vertex whose distance improves becomes active for the next iteration.
//! Two zero-copy streams are read in lock-step: the 8-byte edge list and
//! the 4-byte weight list (Table 2's separate `|w|` array) — SSSP is the
//! program that declares [`VertexProgram::uses_edge_data`], and the
//! weights are its own input rather than an engine field.

use crate::program::{join_min, AccessPattern, EdgeEffect, EdgeFn, VertexProgram};
use emogi_graph::{CsrGraph, VertexId};

/// Distance marker for unreached vertices (4-byte device entries).
pub const INF: u32 = u32::MAX;

/// SSSP result: per-vertex distances ([`INF`] when unreachable).
#[derive(Debug, Clone)]
pub struct SsspOutput {
    /// Per-vertex shortest distance; [`INF`] for unreachable vertices.
    pub dist: Vec<u32>,
}

/// The SSSP vertex program. Per-vertex state: the device-resident
/// distance array (semantic copy); auxiliary edge data: the weight
/// stream.
#[derive(Clone)]
pub struct SsspProgram<'w> {
    src: VertexId,
    weights: &'w [u32],
    dist: Vec<u32>,
}

impl<'w> SsspProgram<'w> {
    /// An SSSP from `src` over `graph`, with one weight per edge. Panics
    /// with [`ProgramSpec::check`](crate::ProgramSpec::check)'s error if
    /// `src` is not a vertex of `graph` or the weight count is wrong.
    pub fn new(graph: &CsrGraph, weights: &'w [u32], src: VertexId) -> Self {
        if let Err(e) = crate::spec::check(graph, Some(src), Some(weights)) {
            panic!("SSSP {e}");
        }
        let mut dist = vec![INF; graph.num_vertices()];
        dist[src as usize] = 0;
        Self { src, weights, dist }
    }
}

/// One launch's edge view of an [`SsspProgram`]: the distance array and
/// the weight stream.
///
/// A live context read planted in SSSP's edge update does not compile:
/// the view has no program behind it, so there is no `source_ctx` to
/// call.
///
/// ```compile_fail,E0599
/// use emogi_core::program::{EdgeFn, VertexProgram};
/// use emogi_core::sssp::SsspEdges;
/// use emogi_graph::VertexId;
///
/// fn relax(edges: &mut SsspEdges<'_>, i: u64, src: VertexId, dst: VertexId, dist_v: u32) {
///     let _live = edges.source_ctx(dst);
///     edges.edge(i, src, dst, dist_v);
/// }
/// ```
///
/// Its twin, reading the captured context instead, compiles:
///
/// ```
/// use emogi_core::program::{EdgeFn, VertexProgram};
/// use emogi_core::sssp::SsspEdges;
/// use emogi_graph::VertexId;
///
/// fn relax(edges: &mut SsspEdges<'_>, i: u64, src: VertexId, dst: VertexId, dist_v: u32) {
///     let _live = dist_v;
///     edges.edge(i, src, dst, dist_v);
/// }
/// ```
pub struct SsspEdges<'a> {
    dist: &'a mut [u32],
    weights: &'a [u32],
}

impl EdgeFn<u32> for SsspEdges<'_> {
    fn edge(&mut self, i: u64, _src: VertexId, dst: VertexId, dist_v: u32) -> EdgeEffect {
        let nd = dist_v.saturating_add(self.weights[i as usize]);
        if nd < self.dist[dst as usize] {
            // atomicMin on the device distance array.
            self.dist[dst as usize] = nd;
            EdgeEffect::UpdateDst { activate: true }
        } else {
            EdgeEffect::None
        }
    }
}

impl VertexProgram for SsspProgram<'_> {
    /// The source's distance at task start.
    type Ctx = u32;
    type Output = SsspOutput;
    type Edges<'a>
        = SsspEdges<'a>
    where
        Self: 'a;

    fn pattern(&self) -> AccessPattern {
        AccessPattern::FrontierDriven
    }

    fn uses_edge_data(&self) -> bool {
        true
    }

    fn reads_source_status(&self) -> bool {
        true
    }

    fn initial_frontier(&self) -> Vec<VertexId> {
        vec![self.src]
    }

    fn source_ctx(&self, v: VertexId) -> u32 {
        self.dist[v as usize]
    }

    fn edges(&mut self) -> SsspEdges<'_> {
        SsspEdges {
            dist: &mut self.dist,
            weights: self.weights,
        }
    }

    /// Every relaxation is an atomicMin: the minimum of both copies.
    fn join(&mut self, replica: &Self) {
        join_min(&mut self.dist, &replica.dist);
    }

    fn finish(self) -> SsspOutput {
        SsspOutput { dist: self.dist }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::generators;

    #[test]
    #[should_panic(expected = "SSSP source 400 out of range: the graph has 400 vertices")]
    fn out_of_range_source_is_named() {
        let g = generators::uniform_random(400, 6, 1);
        let w = generate_weights(g.num_edges(), 1);
        Engine::load(EngineConfig::emogi_v100(), &g).sssp(&w, 400);
    }

    #[test]
    fn weight_stream_reads_both_arrays() {
        let g = generators::uniform_random(300, 8, 9);
        let w = generate_weights(g.num_edges(), 9);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let run = engine.sssp(&w, 0);
        // Edge bytes (8 B) + weight bytes (4 B) for every reachable
        // neighbour list, at sector granularity: at least 12 bytes per
        // relaxed edge.
        let reachable_edges: u64 = (0..g.num_vertices() as u32)
            .filter(|&v| run.dist[v as usize] != INF)
            .map(|v| g.degree(v))
            .sum();
        assert!(run.stats.host_bytes >= reachable_edges * 12);
    }

    #[test]
    #[should_panic(expected = "SSSP one weight per edge: got 3 for")]
    fn wrong_weight_count_rejected() {
        let g = generators::uniform_random(100, 4, 1);
        let _ = SsspProgram::new(&g, &[1, 2, 3], 0);
    }
}
