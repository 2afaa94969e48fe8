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

use crate::program::{AccessPattern, EdgeEffect, VertexProgram};
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
pub struct SsspProgram<'w> {
    src: VertexId,
    weights: &'w [u32],
    dist: Vec<u32>,
}

impl<'w> SsspProgram<'w> {
    /// An SSSP from `src` over `graph`, with one weight per edge. Panics
    /// if `src` is not a vertex of `graph`.
    pub fn new(graph: &CsrGraph, weights: &'w [u32], src: VertexId) -> Self {
        assert_eq!(weights.len(), graph.num_edges(), "one weight per edge");
        let n = graph.num_vertices();
        assert!(
            (src as usize) < n,
            "SSSP source {src} out of range: the graph has {n} vertices"
        );
        let mut dist = vec![INF; n];
        dist[src as usize] = 0;
        Self { src, weights, dist }
    }
}

impl VertexProgram for SsspProgram<'_> {
    /// The source's distance at task start.
    type Ctx = u32;
    type Output = SsspOutput;

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

    fn finish(self) -> SsspOutput {
        SsspOutput { dist: self.dist }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::strategy::AccessStrategy;
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::{algo, generators};

    #[test]
    #[should_panic(expected = "SSSP source 400 out of range: the graph has 400 vertices")]
    fn out_of_range_source_is_named() {
        let g = generators::uniform_random(400, 6, 1);
        let w = generate_weights(g.num_edges(), 1);
        Engine::load(EngineConfig::emogi_v100(), &g).sssp(&w, 400);
    }

    fn sssp_via_engine(strategy: AccessStrategy, seed: u64) {
        let g = generators::uniform_random(400, 6, seed);
        let w = generate_weights(g.num_edges(), seed);
        let mut engine = Engine::load(EngineConfig::emogi_v100().with_strategy(strategy), &g);
        let run = engine.sssp(&w, 7);
        let expect = algo::sssp_distances(&g, &w, 7);
        for (v, &want) in expect.iter().enumerate() {
            let got = if run.dist[v] == INF {
                algo::UNREACHABLE
            } else {
                u64::from(run.dist[v])
            };
            assert_eq!(got, want, "vertex {v}, {strategy:?}");
        }
    }

    #[test]
    fn merged_aligned_matches_dijkstra() {
        sssp_via_engine(AccessStrategy::MergedAligned, 1);
    }

    #[test]
    fn merged_matches_dijkstra() {
        sssp_via_engine(AccessStrategy::Merged, 2);
    }

    #[test]
    fn naive_matches_dijkstra() {
        sssp_via_engine(AccessStrategy::Naive, 3);
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
    #[should_panic(expected = "one weight per edge")]
    fn wrong_weight_count_rejected() {
        let g = generators::uniform_random(100, 4, 1);
        let _ = SsspProgram::new(&g, &[1, 2, 3], 0);
    }
}
