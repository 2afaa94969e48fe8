//! PageRank as a [`VertexProgram`] — the fourth program, added to prove
//! the engine's generality: it reuses the generic kernel, driver and
//! hybrid transfer planning without a single change to any of them.
//!
//! Push-based damped power iteration: each sweep, every vertex pushes
//! `rank[v] / outdeg(v)` along its outgoing edges (an atomicAdd into the
//! destination's accumulator entry — the same gather + store shape as
//! the other programs' status updates); the rank update between sweeps
//! is device-array work like CC's shortcut. Dangling vertices (no
//! outgoing edges) redistribute their mass uniformly, so the ranks of a
//! connected graph sum to 1. Like CC, PageRank streams the entire edge
//! list every launch ([`AccessPattern::FullSweep`]), which makes it the
//! best case for the hybrid transfer manager: everything stages after
//! the first couple of sweeps and later iterations run at HBM speed.
//!
//! Ranks are kept in `f64` for fidelity to the CPU reference
//! ([`emogi_graph::algo::pagerank`]); the simulated traffic models the
//! 4-byte per-vertex accumulator entries the paper's status arrays use.

use crate::program::{AccessPattern, DeviceWork, EdgeEffect, VertexProgram};
use emogi_graph::{CsrGraph, VertexId};

/// PageRank result: per-vertex ranks (summing to ~1) and the number of
/// power iterations run.
#[derive(Debug, Clone)]
pub struct PageRankOutput {
    /// Per-vertex rank; sums to ~1 on connected graphs.
    pub ranks: Vec<f64>,
    /// Power iterations actually run.
    pub iterations: u32,
}

/// The PageRank vertex program.
pub struct PageRankProgram<'g> {
    /// The graph, kept for the value-ordered semantic reduction in
    /// [`post_iteration`](VertexProgram::post_iteration).
    graph: &'g CsrGraph,
    damping: f64,
    max_iterations: u32,
    iterations: u32,
    /// Out-degrees, fixed at construction.
    deg: Vec<u64>,
    rank: Vec<f64>,
    /// This sweep's accumulators (the device-resident status array).
    next: Vec<f64>,
    /// Per-vertex contribution `rank[v] / deg[v]`, snapshotted at
    /// iteration start.
    contrib: Vec<f64>,
    /// Mass held by dangling vertices this iteration.
    dangling: f64,
}

impl<'g> PageRankProgram<'g> {
    /// `iterations` damped power iterations over `graph`.
    pub fn new(graph: &'g CsrGraph, damping: f64, iterations: u32) -> Self {
        assert!((0.0..1.0).contains(&damping), "damping must be in [0, 1)");
        assert!(iterations > 0, "at least one iteration");
        let n = graph.num_vertices();
        assert!(n > 0, "PageRank needs a non-empty graph");
        Self {
            graph,
            damping,
            max_iterations: iterations,
            iterations: 0,
            deg: (0..n as u32).map(|v| graph.degree(v)).collect(),
            rank: vec![1.0 / n as f64; n],
            next: vec![0.0; n],
            contrib: vec![0.0; n],
            dangling: 0.0,
        }
    }
}

impl VertexProgram for PageRankProgram<'_> {
    /// The source's out-contribution this sweep.
    type Ctx = f64;
    type Output = PageRankOutput;

    fn pattern(&self) -> AccessPattern {
        AccessPattern::FullSweep
    }

    /// Each task reads its own rank entry to compute its contribution.
    fn reads_source_status(&self) -> bool {
        true
    }

    fn begin_iteration(&mut self) {
        self.iterations += 1;
        // Dangling mass folds in ascending value order: every rank is
        // positive, so the IEEE-754 bit pattern orders exactly like the
        // value and the sum is independent of the vertex labeling (the
        // multiset of dangling ranks is what a relabeling preserves).
        let mut dangling_bits: Vec<u64> = Vec::new();
        for v in 0..self.rank.len() {
            self.next[v] = 0.0;
            if self.deg[v] == 0 {
                self.contrib[v] = 0.0;
                dangling_bits.push(self.rank[v].to_bits());
            } else {
                self.contrib[v] = self.rank[v] / self.deg[v] as f64;
            }
        }
        dangling_bits.sort_unstable();
        self.dangling = 0.0;
        for &b in &dangling_bits {
            self.dangling += f64::from_bits(b);
        }
    }

    fn source_ctx(&self, v: VertexId) -> f64 {
        self.contrib[v as usize]
    }

    /// Models the kernel's atomicAdd into the destination's accumulator
    /// entry. Traffic only: the *semantic* sum is applied in
    /// [`post_iteration`](VertexProgram::post_iteration) in a canonical
    /// value-sorted order, because floating-point addition is not
    /// associative — summing in warp-interleaving (or shard) order
    /// would make the ranks depend on simulation timing and device
    /// count.
    fn edge(&mut self, _i: u64, _src: VertexId, _dst: VertexId, _contrib: f64) -> EdgeEffect {
        EdgeEffect::UpdateDst { activate: false }
    }

    /// Between sweeps: fold every vertex's contribution into its
    /// neighbours' accumulators in **ascending value order per
    /// destination** — each `(dst, contribution-bits)` pair is gathered
    /// and sorted before the fold. Every contribution is positive, so
    /// bit order equals numeric order, and the per-destination addend
    /// *multiset* (which any vertex relabeling preserves) fully
    /// determines the sum: ranks are bit-equal to
    /// [`emogi_graph::algo::pagerank`] (which folds the same way),
    /// independent of sharding **and** invariant under cache-aware
    /// relabelings (`tests/layout_differential.rs`). Then the rank
    /// update — one bulk pass over two per-vertex streams.
    fn post_iteration(&mut self, work: &mut DeviceWork) {
        let mut addends: Vec<(VertexId, u64)> = Vec::with_capacity(self.graph.num_edges());
        for v in 0..self.rank.len() {
            if self.deg[v] == 0 {
                continue;
            }
            let bits = self.contrib[v].to_bits();
            for &dst in self.graph.neighbors(v as VertexId) {
                addends.push((dst, bits));
            }
        }
        addends.sort_unstable();
        for &(dst, bits) in &addends {
            self.next[dst as usize] += f64::from_bits(bits);
        }
        let n = self.rank.len() as f64;
        let base = (1.0 - self.damping) / n + self.damping * self.dangling / n;
        for v in 0..self.rank.len() {
            self.rank[v] = base + self.damping * self.next[v];
        }
        work.bulk_read(self.rank.len() as u64 * 8);
    }

    fn converged(&self) -> bool {
        self.iterations >= self.max_iterations
    }

    fn finish(self) -> PageRankOutput {
        PageRankOutput {
            ranks: self.rank,
            iterations: self.iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::strategy::AccessStrategy;
    use emogi_graph::{algo, generators};

    fn assert_close(got: &[f64], want: &[f64], tag: &str) {
        assert_eq!(got.len(), want.len());
        for (v, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() < 1e-9,
                "{tag}: vertex {v} rank {g} vs reference {w}"
            );
        }
    }

    #[test]
    fn every_access_mode_matches_the_cpu_reference() {
        let g = generators::kronecker(9, 8, 21);
        let want = algo::pagerank(&g, 0.85, 15);
        let zero_copy = AccessStrategy::all().map(|s| EngineConfig::emogi_v100().with_strategy(s));
        for cfg in zero_copy.into_iter().chain([EngineConfig::hybrid_v100()]) {
            let mode = format!("{:?} over {:?}", cfg.strategy, cfg.transport);
            let mut engine = Engine::load(cfg, &g);
            let run = engine.pagerank(0.85, 15);
            assert_close(&run.ranks, &want, &mode);
            assert_eq!(run.iterations, 15);
            assert_eq!(run.stats.kernel_launches, 15, "one launch per sweep");
        }
    }

    #[test]
    fn uvm_engine_runs_pagerank_too() {
        let g = generators::uniform_random(400, 6, 9);
        let want = algo::pagerank(&g, 0.85, 10);
        let mut engine = Engine::load(EngineConfig::uvm_v100(), &g);
        let run = engine.pagerank(0.85, 10);
        assert_close(&run.ranks, &want, "uvm");
        assert!(run.stats.page_faults > 0);
    }

    #[test]
    fn ranks_sum_to_one_with_dangling_vertices() {
        // A directed graph where half the pages have no outgoing links:
        // their mass must be redistributed, keeping the distribution
        // normalized.
        let mut b = emogi_graph::EdgeListBuilder::new(200);
        for v in 0..100u32 {
            b.push(v, 100 + v); // 100..200 are dangling sinks
            b.push(v, (v + 1) % 100);
        }
        let g = b.build();
        let dangling = (0..g.num_vertices() as u32)
            .filter(|&v| g.degree(v) == 0)
            .count();
        assert_eq!(dangling, 100);
        let want = algo::pagerank(&g, 0.85, 20);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let run = engine.pagerank(0.85, 20);
        assert_close(&run.ranks, &want, "dangling");
        let sum: f64 = run.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "ranks sum to {sum}");
    }

    #[test]
    fn high_degree_vertices_rank_higher() {
        let g = generators::kronecker(10, 8, 5);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let run = engine.pagerank(0.85, 20);
        let max_deg = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let median = {
            let mut r = run.ranks.clone();
            r.sort_by(|a, b| a.partial_cmp(b).unwrap());
            r[r.len() / 2]
        };
        assert!(
            run.ranks[max_deg as usize] > 4.0 * median,
            "hub rank {} vs median {median}",
            run.ranks[max_deg as usize]
        );
    }

    #[test]
    fn hybrid_pagerank_stages_and_beats_zero_copy() {
        // Full sweeps every iteration: the ski-rental policy stages the
        // whole (oversubscribed) edge list and later sweeps run from HBM.
        let g = generators::lognormal_dense(400, 60.0, 0.5, 16, 5);
        let shrink = |mut cfg: EngineConfig| {
            cfg.machine.gpu.cache.capacity_bytes = 64 << 10;
            cfg
        };
        let mut zc = Engine::load(shrink(EngineConfig::emogi_v100()), &g);
        let mut hy = Engine::load(shrink(EngineConfig::hybrid_v100()), &g);
        let rz = zc.pagerank(0.85, 10);
        let rh = hy.pagerank(0.85, 10);
        assert_close(&rh.ranks, &rz.ranks, "hybrid vs zero-copy");
        assert!(
            rh.stats.transfer.staged_regions > 0,
            "full sweeps must stage"
        );
        assert!(
            rh.stats.elapsed_ns < rz.stats.elapsed_ns,
            "hybrid {} must beat zero-copy {}",
            rh.stats.elapsed_ns,
            rz.stats.elapsed_ns
        );
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn bad_damping_rejected() {
        let g = generators::uniform_random(10, 2, 1);
        let _ = PageRankProgram::new(&g, 1.5, 10);
    }
}
