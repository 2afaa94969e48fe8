//! CPU reference implementations of the paper's three traversal
//! applications (§5.1.2): BFS, SSSP and CC.
//!
//! Every simulated engine configuration — EMOGI's access strategies, the
//! UVM baseline, HALO's relabeling, Subway's compacted subgraphs — must
//! produce results identical to these.
//! They are deliberately simple and obviously correct rather than fast.

use crate::csr::CsrGraph;
use crate::{VertexId, UNVISITED};
use std::collections::VecDeque;

/// Distance value for unreachable vertices in SSSP results.
pub const UNREACHABLE: u64 = u64::MAX;

/// Breadth-first search levels from `src` (level of `src` is 0;
/// unreachable vertices are [`UNVISITED`]).
pub fn bfs_levels(g: &CsrGraph, src: VertexId) -> Vec<u32> {
    let mut level = vec![UNVISITED; g.num_vertices()];
    let mut queue = VecDeque::new();
    level[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let next = level[v as usize] + 1;
        for &d in g.neighbors(v) {
            if level[d as usize] == UNVISITED {
                level[d as usize] = next;
                queue.push_back(d);
            }
        }
    }
    level
}

/// Dijkstra single-source shortest paths with non-negative edge weights
/// (`weights[i]` belongs to edge-list entry `i`).
pub fn sssp_distances(g: &CsrGraph, weights: &[u32], src: VertexId) -> Vec<u64> {
    assert_eq!(weights.len(), g.num_edges(), "one weight per edge");
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    let mut heap = std::collections::BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(std::cmp::Reverse((0u64, src)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        let start = g.neighbor_start(v);
        for (k, &dst) in g.neighbors(v).iter().enumerate() {
            let w = u64::from(weights[start as usize + k]);
            let nd = d + w;
            if nd < dist[dst as usize] {
                dist[dst as usize] = nd;
                heap.push(std::cmp::Reverse((nd, dst)));
            }
        }
    }
    dist
}

/// Connected components by union–find; returns the smallest vertex id in
/// each component as its label (matching the GPU kernels' convergence
/// point). Only meaningful on undirected graphs, which is why the paper
/// skips CC for the directed SK/UK5 (§5.4).
pub fn cc_labels(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for v in 0..n as u32 {
        for &d in g.neighbors(v) {
            let (a, b) = (find(&mut parent, v), find(&mut parent, d));
            if a != b {
                // Union by smaller label so roots are component minima.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi as usize] = lo;
            }
        }
    }
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

/// PageRank by damped power iteration (push formulation): per sweep,
/// every vertex pushes `rank[v] / outdeg(v)` along its outgoing edges;
/// dangling vertices (no outgoing edges) redistribute their mass
/// uniformly, so ranks always sum to 1.
///
/// Both floating-point folds — the dangling-mass gather and the
/// per-destination contribution sum — run in **ascending value order**
/// (every addend is positive, so IEEE-754 bit order equals numeric
/// order). That makes each sum a function of its addend *multiset*
/// alone, which a vertex relabeling preserves: the GPU program
/// (`emogi_core::PageRankProgram`) folds the same way, so engine ranks
/// are bit-equal to this reference and invariant under the cache-aware
/// layouts of [`crate::reorder`].
pub fn pagerank(g: &CsrGraph, damping: f64, iterations: u32) -> Vec<f64> {
    assert!((0.0..1.0).contains(&damping), "damping must be in [0, 1)");
    let n = g.num_vertices();
    assert!(n > 0, "PageRank needs a non-empty graph");
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling_bits: Vec<u64> = (0..n as u32)
            .filter(|&v| g.degree(v) == 0)
            .map(|v| rank[v as usize].to_bits())
            .collect();
        dangling_bits.sort_unstable();
        let mut dangling = 0.0;
        for &b in &dangling_bits {
            dangling += f64::from_bits(b);
        }
        let mut addends: Vec<(VertexId, u64)> = Vec::with_capacity(g.num_edges());
        for v in 0..n as u32 {
            let deg = g.degree(v);
            if deg == 0 {
                continue;
            }
            let bits = (rank[v as usize] / deg as f64).to_bits();
            for &dst in g.neighbors(v) {
                addends.push((dst, bits));
            }
        }
        addends.sort_unstable();
        for &(dst, bits) in &addends {
            next[dst as usize] += f64::from_bits(bits);
        }
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        for v in 0..n {
            rank[v] = base + damping * next[v];
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EdgeListBuilder;
    use crate::generators;

    fn figure1() -> CsrGraph {
        let mut b = EdgeListBuilder::new(5).symmetrize(true);
        for (s, d) in [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)] {
            b.push(s, d);
        }
        b.build()
    }

    #[test]
    fn bfs_on_figure1() {
        let g = figure1();
        assert_eq!(bfs_levels(&g, 4), vec![2, 1, 1, 1, 0]);
    }

    #[test]
    fn bfs_unreachable_marked() {
        let mut b = EdgeListBuilder::new(4).symmetrize(true);
        b.push(0, 1);
        b.push(2, 3);
        let g = b.build();
        let l = bfs_levels(&g, 0);
        assert_eq!(l[1], 1);
        assert_eq!(l[2], UNVISITED);
    }

    #[test]
    fn sssp_prefers_cheap_detour() {
        // 0 -> 1 (10), 0 -> 2 (1), 2 -> 1 (2): best 0->1 is 3 via 2.
        let mut b = EdgeListBuilder::new(3);
        b.push(0, 1);
        b.push(0, 2);
        b.push(2, 1);
        let g = b.build();
        // Neighbour lists are sorted, so edge order is (0,1), (0,2), (2,1).
        let w = vec![10, 1, 2];
        let d = sssp_distances(&g, &w, 0);
        assert_eq!(d, vec![0, 3, 1]);
    }

    #[test]
    fn sssp_unreachable() {
        let g = EdgeListBuilder::new(2).build();
        let d = sssp_distances(&g, &[], 0);
        assert_eq!(d, vec![0, UNREACHABLE]);
    }

    #[test]
    fn cc_on_two_components() {
        let mut b = EdgeListBuilder::new(5).symmetrize(true);
        b.push(0, 1);
        b.push(1, 2);
        b.push(3, 4);
        let g = b.build();
        assert_eq!(cc_labels(&g), vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn cc_matches_bfs_reachability_on_random_graphs() {
        for seed in 0..5 {
            let g = generators::uniform_random(300, 4, seed);
            let cc = cc_labels(&g);
            let from0 = bfs_levels(&g, 0);
            for v in 0..300 {
                let same_cc = cc[v] == cc[0];
                let reachable = from0[v] != UNVISITED;
                assert_eq!(same_cc, reachable, "vertex {v}, seed {seed}");
            }
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_favors_hubs() {
        // Star graph: 0 <-> everyone. The hub must dominate.
        let mut b = EdgeListBuilder::new(6).symmetrize(true);
        for v in 1..6 {
            b.push(0, v);
        }
        let g = b.build();
        let r = pagerank(&g, 0.85, 30);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum {sum}");
        for v in 1..6 {
            assert!(r[0] > r[v], "hub must outrank leaf {v}");
            assert!((r[v] - r[1]).abs() < 1e-12, "leaves are symmetric");
        }
    }

    #[test]
    fn pagerank_redistributes_dangling_mass() {
        // 0 -> 1, 1 dangling: without redistribution the sum decays.
        let mut b = EdgeListBuilder::new(2);
        b.push(0, 1);
        let g = b.build();
        let r = pagerank(&g, 0.85, 50);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum {sum}");
        assert!(r[1] > r[0], "1 receives 0's mass plus its teleport share");
    }

    #[test]
    fn pagerank_uniform_on_a_cycle() {
        let mut b = EdgeListBuilder::new(5);
        for v in 0..5u32 {
            b.push(v, (v + 1) % 5);
        }
        let g = b.build();
        let r = pagerank(&g, 0.85, 40);
        for &rv in &r {
            assert!((rv - 0.2).abs() < 1e-12, "cycle is rank-uniform, got {rv}");
        }
    }

    #[test]
    fn sssp_distance_never_below_bfs_levels() {
        // With min weight w_min, dist >= level * w_min.
        let g = generators::uniform_random(400, 6, 3);
        let w: Vec<u32> = (0..g.num_edges()).map(|i| 8 + (i as u32 % 65)).collect();
        let lv = bfs_levels(&g, 7);
        let ds = sssp_distances(&g, &w, 7);
        for v in 0..400 {
            if lv[v] != UNVISITED {
                assert!(ds[v] >= u64::from(lv[v]) * 8);
                assert!(ds[v] <= u64::from(lv[v]) * 72);
            } else {
                assert_eq!(ds[v], UNREACHABLE);
            }
        }
    }
}
