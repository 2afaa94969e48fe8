//! Degree-distribution analysis.
//!
//! Reproduces the paper's Figure 6: the cumulative fraction of *edges*
//! (not vertices) associated with vertices of degree ≤ d. The paper reads
//! request-size behaviour straight off this CDF — e.g. GU's edges all
//! sitting between degree 16 and 48 explains why alignment barely helps
//! it, while ML's mass above degree 96 explains its 128-byte-dominated
//! request mix.

use crate::csr::CsrGraph;

/// Edge-count CDF over vertex degree.
#[derive(Debug, Clone)]
pub struct DegreeCdf {
    /// `counts[d]` = number of edge endpoints on vertices of degree `d`
    /// (clamped to `max_tracked`).
    counts: Vec<u64>,
    total: u64,
}

impl DegreeCdf {
    /// Build the CDF, tracking degrees up to `max_tracked` (larger degrees
    /// accumulate in the last bucket, like the paper cutting the x-axis
    /// at 96).
    pub fn new(g: &CsrGraph, max_tracked: usize) -> Self {
        let mut counts = vec![0u64; max_tracked + 1];
        for v in 0..g.num_vertices() {
            let d = g.degree(v as u32);
            let bucket = (d as usize).min(max_tracked);
            counts[bucket] += d;
        }
        Self {
            counts,
            total: g.num_edges() as u64,
        }
    }

    /// Fraction of edges on vertices with degree ≤ `d`.
    pub fn cdf_at(&self, d: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let upto: u64 = self.counts[..=d.min(self.counts.len() - 1)].iter().sum();
        upto as f64 / self.total as f64
    }
}

/// A work estimate for one query: expected kernel iterations and the
/// host-link bytes those iterations move. Produced by [`CostModel`],
/// consumed by the serving layer's deadline admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Expected kernel iterations (BFS levels, relaxation rounds,
    /// full-sweep passes).
    pub iterations: u64,
    /// Expected host→GPU payload bytes across all iterations.
    pub bytes: u64,
}

impl CostEstimate {
    /// Convert the estimate into simulated time: transfer time at
    /// `bytes_per_ns` of link bandwidth plus a fixed `per_iteration_ns`
    /// overhead (launch + vertex scan) per iteration.
    pub fn ns(&self, bytes_per_ns: f64, per_iteration_ns: u64) -> u64 {
        let transfer = if bytes_per_ns > 0.0 {
            (self.bytes as f64 / bytes_per_ns).ceil() as u64
        } else {
            u64::MAX
        };
        transfer.saturating_add(self.iterations.saturating_mul(per_iteration_ns))
    }
}

/// Admission-control cost model: degree-distribution statistics plus a
/// reachable-set heuristic, compressed into per-query work estimates.
///
/// The model is deliberately coarse — it exists to answer "can this
/// query possibly meet its deadline?" *before* running it, not to
/// predict runtimes. Two heuristics drive it:
///
/// * **reachable set** — isolated vertices can never be reached, so a
///   traversal from any connected source is expected to touch the
///   non-isolated vertex set and cross (roughly) every edge once;
/// * **depth** — on a random-ish graph the frontier grows by the
///   average reachable degree per level, so the expected iteration
///   count is `log(reachable) / log(avg_degree)` (plus slack); for
///   near-chain graphs (average degree ≤ the growth threshold) the
///   depth degenerates toward the reachable-vertex count.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    num_edges: u64,
    reachable_vertices: u64,
    est_depth: u64,
}

impl CostModel {
    /// Build the model from one pass over the degree array.
    pub fn new(g: &CsrGraph) -> Self {
        let isolated = (0..g.num_vertices())
            .filter(|&v| g.degree(v as u32) == 0)
            .count() as u64;
        let reachable = g.num_vertices() as u64 - isolated;
        let avg = if reachable == 0 {
            0.0
        } else {
            g.num_edges() as f64 / reachable as f64
        };
        let est_depth = if reachable <= 1 {
            1
        } else if avg > 1.5 {
            ((reachable as f64).ln() / avg.ln()).ceil() as u64 + 2
        } else {
            reachable
        };
        Self {
            num_edges: g.num_edges() as u64,
            reachable_vertices: reachable,
            est_depth: est_depth.clamp(1, reachable.max(1)),
        }
    }

    /// Expected iteration count of a frontier traversal (the depth
    /// heuristic).
    pub fn est_depth(&self) -> u64 {
        self.est_depth
    }

    /// Vertices with at least one edge (the reachable-set heuristic's
    /// upper bound on any traversal).
    pub fn reachable_vertices(&self) -> u64 {
        self.reachable_vertices
    }

    /// Estimate a frontier-driven traversal from a source of degree
    /// `src_degree`, moving `elem_bytes` per edge element: expected
    /// depth iterations crossing the reachable edge set once. An
    /// isolated source terminates after one empty-frontier iteration.
    pub fn frontier_cost(&self, src_degree: u64, elem_bytes: u64) -> CostEstimate {
        if src_degree == 0 {
            return CostEstimate {
                iterations: 1,
                bytes: elem_bytes,
            };
        }
        CostEstimate {
            iterations: self.est_depth,
            bytes: self.num_edges.saturating_mul(elem_bytes),
        }
    }

    /// Estimate a full-sweep analytic: `passes` sweeps over the whole
    /// edge list at `elem_bytes` per element.
    pub fn full_sweep_cost(&self, passes: u64, elem_bytes: u64) -> CostEstimate {
        let passes = passes.max(1);
        CostEstimate {
            iterations: passes,
            bytes: passes.saturating_mul(self.num_edges.saturating_mul(elem_bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeListBuilder;
    use crate::generators;

    fn star_plus_path() -> CsrGraph {
        // Vertex 0 is a hub of degree 4; vertices 5-6 form one edge.
        let mut b = EdgeListBuilder::new(7).symmetrize(true);
        for d in 1..5 {
            b.push(0, d);
        }
        b.push(5, 6);
        b.build()
    }

    #[test]
    fn cdf_splits_hub_and_leaf_edges() {
        let g = star_plus_path();
        let cdf = DegreeCdf::new(&g, 16);
        // 10 edge endpoints: 4 on the hub (degree 4), 4 on its leaves
        // (degree 1), 2 on the 5-6 pair (degree 1).
        assert!((cdf.cdf_at(1) - 0.6).abs() < 1e-12);
        assert!((cdf.cdf_at(3) - 0.6).abs() < 1e-12);
        assert!((cdf.cdf_at(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let g = generators::kronecker(10, 8, 5);
        let cdf = DegreeCdf::new(&g, 96);
        let mut prev = 0.0;
        for d in 0..=96 {
            let c = cdf.cdf_at(d);
            assert!(c >= prev - 1e-12, "CDF must be monotone");
            prev = c;
        }
        assert!(
            (cdf.cdf_at(96) - 1.0).abs() < 1e-12,
            "last bucket absorbs the tail"
        );
    }

    #[test]
    fn gu_band_property_shows_in_cdf() {
        let g = generators::uniform_random(2_000, 32, 9);
        let cdf = DegreeCdf::new(&g, 96);
        assert!(cdf.cdf_at(15) < 0.02, "nothing below degree 16");
        assert!(cdf.cdf_at(48) > 0.98, "everything by degree 48");
    }

    #[test]
    fn cost_model_depth_tracks_graph_shape() {
        // Dense random graph: logarithmic depth, far below n.
        let dense = generators::uniform_random(2_000, 16, 3);
        let m = CostModel::new(&dense);
        assert!(m.est_depth() >= 3, "depth {}", m.est_depth());
        assert!(m.est_depth() < 64, "depth {}", m.est_depth());
        // Below the growth threshold (a perfect matching, average
        // degree 1) the depth degenerates to the reachable-vertex
        // count.
        let mut b = EdgeListBuilder::new(64).symmetrize(true);
        for v in 0..32 {
            b.push(2 * v, 2 * v + 1);
        }
        let sparse = CostModel::new(&b.build());
        assert_eq!(sparse.est_depth(), 64);
    }

    #[test]
    fn cost_model_charges_reachable_edges_and_spares_isolated_sources() {
        let g = star_plus_path();
        let m = CostModel::new(&g);
        assert_eq!(m.reachable_vertices(), 7);
        let c = m.frontier_cost(4, 8);
        assert_eq!(c.bytes, g.num_edges() as u64 * 8);
        assert!(c.iterations >= 1);
        let isolated = m.frontier_cost(0, 8);
        assert_eq!(isolated.iterations, 1);
        assert!(isolated.bytes < c.bytes);
        // Full sweeps scale linearly in passes.
        let one = m.full_sweep_cost(1, 8);
        let five = m.full_sweep_cost(5, 8);
        assert_eq!(five.bytes, one.bytes * 5);
        assert_eq!(five.iterations, 5);
    }

    #[test]
    fn cost_estimate_converts_to_time() {
        let c = CostEstimate {
            iterations: 4,
            bytes: 1_000,
        };
        // 10 bytes/ns → 100 ns transfer + 4 × 50 ns overhead.
        assert_eq!(c.ns(10.0, 50), 300);
        assert_eq!(c.ns(0.0, 50), u64::MAX, "no link, no deadline met");
    }
}
