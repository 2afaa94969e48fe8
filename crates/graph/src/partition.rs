//! The vertex partition for sharded multi-GPU traversal.
//!
//! EMOGI's multi-GPU execution assigns each GPU a slice of the vertex
//! set. The sharded engine's iteration driver uses that ownership to
//! anchor a frontier hub's round-robin pieces and a full sweep's
//! per-device range; a frontier's short lists it deals in equal-work
//! spans whoever owns them, so ownership does not balance frontier
//! work. There is one partition, a function of the graph and the shard
//! count: [`VertexPartition::degree_balanced`] places the split points
//! so every shard owns a **contiguous** vertex range holding roughly the
//! same number of **edges** (the CSR offset array is the degree prefix
//! sum, so the split is a binary search per boundary). Contiguity keeps
//! every shard's edge-list reads a dense byte range (good for the hybrid
//! transfer planner) and makes ownership lookup a binary search; edge
//! balance evens out full sweeps' per-device PCIe traffic on power-law
//! graphs. One shard is `[0, n)`, the single-device engine's view.

use crate::csr::CsrGraph;
use crate::VertexId;

/// The vertex partitioner: one, [`VertexPartition::degree_balanced`],
/// which the sharded engine derives itself. The enum and
/// `ShardedConfig::with_partition` remain only because the benchmark's
/// pinned API names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// Equal edge counts per shard (balanced CSR offset spans).
    DegreeBalanced,
}

/// A partition of `0..n` into contiguous shard ranges: shard `s` owns
/// vertices `starts[s]..starts[s + 1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexPartition {
    /// `shards + 1` monotone boundaries, `starts[0] == 0` and
    /// `starts[shards] == n`.
    starts: Vec<VertexId>,
}

impl VertexPartition {
    /// Split placing each boundary where the CSR offset array crosses
    /// the next multiple of `|E| / shards`, so every shard owns about
    /// the same number of edge-list entries. Degenerates to single-
    /// vertex steps around mega-hubs (a range is never empty unless the
    /// graph has fewer vertices than shards).
    pub fn degree_balanced(graph: &CsrGraph, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        let n = graph.num_vertices() as u32;
        let e = graph.num_edges() as u64;
        let mut starts = Vec::with_capacity(shards + 1);
        starts.push(0u32);
        for s in 1..shards {
            let target = e * s as u64 / shards as u64;
            // First vertex whose list starts at or past the target (the
            // offset array is the degree prefix sum).
            let split = graph.offsets().partition_point(|&off| off < target) as u32;
            let prev = *starts.last().unwrap();
            // Monotone, and advance at least one vertex while any remain
            // (mega-hub ranges collapse to single vertices, and graphs
            // with fewer vertices than shards leave trailing ranges
            // empty).
            starts.push(split.max((prev + 1).min(n)).min(n));
        }
        starts.push(n);
        Self { starts }
    }

    /// Shards in the partition.
    pub fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// The contiguous vertex range shard `s` owns.
    pub fn range(&self, s: usize) -> std::ops::Range<VertexId> {
        self.starts[s]..self.starts[s + 1]
    }

    /// The shard owning vertex `v`.
    pub fn owner(&self, v: VertexId) -> usize {
        debug_assert!(v < *self.starts.last().unwrap(), "vertex out of range");
        self.starts.partition_point(|&b| b <= v) - 1
    }

    /// Split a **sorted** vertex list into per-shard position bounds:
    /// shard `s`'s vertices are `sorted[bounds[s].0..bounds[s].1]`.
    /// No engine stage calls it any more (the driver deals a frontier's
    /// short lists in equal-work spans, whoever owns them); it stays
    /// because the benchmark's `graph.partition_ns` layer times it.
    pub fn slice_bounds(&self, sorted: &[VertexId]) -> Vec<(usize, usize)> {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "sorted + dedup");
        let mut bounds = Vec::with_capacity(self.num_shards());
        let mut lo = 0usize;
        for s in 0..self.num_shards() {
            let end = self.starts[s + 1];
            let hi = lo + sorted[lo..].partition_point(|&v| v < end);
            bounds.push((lo, hi));
            lo = hi;
        }
        bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// `n` vertices of `deg` edges each: the offsets are `deg * v`, so a
    /// degree-balanced split lands exactly where an equal-count one does.
    fn regular(n: usize, deg: u64) -> CsrGraph {
        let offsets = (0..=n as u64).map(|v| v * deg).collect();
        let edges = (0..n as u64 * deg).map(|i| (i / deg) as VertexId).collect();
        CsrGraph::from_parts(offsets, edges, false)
    }

    /// Seeded mutations: `degree_balanced` splitting on `off <= target`
    /// fails here and `slice_bounds_split_a_sorted_frontier`; `owner`
    /// returning 0 fails both and
    /// `more_shards_than_vertices_leaves_trailing_shards_empty`.
    #[test]
    fn degree_balanced_splits_cover_without_overlap() {
        // 20 edges over 3 shards: the boundaries sit at the first lists
        // starting at or past edges 6 and 13.
        let p = VertexPartition::degree_balanced(&regular(10, 2), 3);
        assert_eq!(p.num_shards(), 3);
        assert_eq!(p.range(0), 0..3);
        assert_eq!(p.range(1), 3..7);
        assert_eq!(p.range(2), 7..10);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(3), 1);
        assert_eq!(p.owner(9), 2);
        let g = generators::kronecker(9, 16, 21);
        let n = g.num_vertices() as VertexId;
        for shards in 1..=5 {
            let p = VertexPartition::degree_balanced(&g, shards);
            let mut at = 0;
            for s in 0..shards {
                assert_eq!(
                    p.range(s).start,
                    at,
                    "{shards} shards: shard {s} follows on"
                );
                at = p.range(s).end;
            }
            assert_eq!(at, n, "{shards} shards cover every vertex");
            for v in 0..n {
                assert!(
                    p.range(p.owner(v)).contains(&v),
                    "{shards} shards, vertex {v}"
                );
            }
        }
    }

    #[test]
    fn degree_balanced_equalizes_edge_counts_on_skewed_graphs() {
        let g = generators::kronecker(11, 16, 7);
        let e = g.num_edges() as u64;
        let n = g.num_vertices() as u64;
        let edges_in = |r: std::ops::Range<VertexId>| -> u64 {
            if r.is_empty() {
                0
            } else {
                g.neighbor_end(r.end - 1) - g.neighbor_start(r.start)
            }
        };
        for shards in [2usize, 4] {
            let p = VertexPartition::degree_balanced(&g, shards);
            let max = (0..shards).map(|s| edges_in(p.range(s))).max().unwrap();
            let sum: u64 = (0..shards).map(|s| edges_in(p.range(s))).sum();
            assert_eq!(sum, e, "shards must cover every edge exactly once");
            // Perfect balance is e/shards; allow slack for hub rounding.
            assert!(
                max < 2 * e / shards as u64,
                "{shards} shards: max {max} vs total {e}"
            );

            // An equal-vertex-count split of the same skewed graph is no
            // better balanced.
            let s = shards as u64;
            let cut = |i: u64| (n * i / s) as VertexId;
            let even_max = (0..s).map(|i| edges_in(cut(i)..cut(i + 1))).max().unwrap();
            assert!(
                max <= even_max,
                "degree-balanced max {max} must not exceed equal-count max {even_max}"
            );
        }
    }

    #[test]
    fn slice_bounds_split_a_sorted_frontier() {
        let p = VertexPartition::degree_balanced(&regular(100, 2), 4);
        let f = vec![0u32, 1, 24, 25, 49, 99];
        let b = p.slice_bounds(&f);
        assert_eq!(b, vec![(0, 3), (3, 5), (5, 5), (5, 6)]);
        for (s, &(lo, hi)) in b.iter().enumerate() {
            for &v in &f[lo..hi] {
                assert_eq!(p.owner(v), s);
            }
        }
    }

    #[test]
    fn more_shards_than_vertices_leaves_trailing_shards_empty() {
        let g = generators::uniform_random(3, 2, 1);
        let p = VertexPartition::degree_balanced(&g, 8);
        assert_eq!(p.num_shards(), 8);
        let total: usize = (0..8).map(|s| p.range(s).len()).sum();
        assert_eq!(total, 3);
        assert!((3..8).all(|s| p.range(s).is_empty()), "{p:?}");
        // Every vertex owned exactly once.
        for v in 0..3u32 {
            let o = p.owner(v);
            assert!(p.range(o).contains(&v), "vertex {v}");
        }
    }

    #[test]
    fn one_shard_owns_everything() {
        let g = generators::uniform_random(50, 4, 2);
        assert_eq!(VertexPartition::degree_balanced(&g, 1).range(0), 0..50);
        let empty = VertexPartition::degree_balanced(&CsrGraph::empty(0), 1);
        assert_eq!(empty.num_shards(), 1);
        assert_eq!(empty.range(0), 0..0);
    }
}
