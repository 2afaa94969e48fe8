//! HALO-style locality-enhancing reordering + UVM traversal.
//!
//! HALO ("Traversing Large Graphs on GPUs with Unified Memory", VLDB 2020,
//! the paper's reference \[21\]) keeps the UVM machinery but *reorders the CSR* so that vertices
//! that are traversed together store their neighbour lists on the same
//! pages, cutting page thrashing. Its source is not public; the paper
//! compares against published numbers (Table 3). We reproduce the
//! published mechanism with a BFS-rank relabeling from a high-degree
//! root: a BFS level's vertices receive consecutive ids, so a level's
//! edge reads walk contiguous pages instead of spraying across the edge
//! list.
//!
//! Preprocessing time is *not* charged to traversal, matching how such
//! systems report results (EMOGI's §5.6 measurement includes only kernel
//! and data-movement time for HALO).

use emogi_core::bfs::BfsOutput;
use emogi_core::{BfsRun, Engine, EngineConfig};
use emogi_graph::reorder::LayoutPlan;
use emogi_graph::{CsrGraph, VertexId, UNVISITED};

/// Compute the HALO-style permutation: `perm[old] = new`.
///
/// BFS ranks from the highest-degree vertex; remaining components are
/// appended in discovery order from their own highest-degree roots.
pub fn locality_reorder(g: &CsrGraph) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut perm = vec![UNVISITED; n];
    let mut next_id: u32 = 0;
    // Roots in decreasing degree order.
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut queue = std::collections::VecDeque::new();
    for root in by_degree {
        if perm[root as usize] != UNVISITED {
            continue;
        }
        perm[root as usize] = next_id;
        next_id += 1;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &d in g.neighbors(v) {
                if perm[d as usize] == UNVISITED {
                    perm[d as usize] = next_id;
                    next_id += 1;
                    queue.push_back(d);
                }
            }
        }
    }
    debug_assert_eq!(next_id as usize, n);
    perm
}

/// A graph pre-processed with the locality reordering, traversed via UVM.
pub struct HaloSystem {
    reordered: CsrGraph,
    plan: LayoutPlan,
    cfg: EngineConfig,
}

impl HaloSystem {
    /// Reorder `graph` (preprocessing) and prepare a UVM traversal
    /// configuration on the given machine.
    pub fn new(cfg: EngineConfig, graph: &CsrGraph) -> Self {
        let plan = LayoutPlan::from_perm(locality_reorder(graph));
        Self {
            reordered: plan.apply(graph),
            plan,
            cfg,
        }
    }

    pub fn reordered_graph(&self) -> &CsrGraph {
        &self.reordered
    }

    /// Run BFS from `src` (an *original* vertex id); levels come back in
    /// original id space.
    pub fn bfs(&self, src: VertexId) -> BfsRun {
        let mut engine = Engine::load(self.cfg.clone(), &self.reordered);
        let run = engine.bfs(self.plan.map_vertex(src));
        BfsRun {
            output: BfsOutput {
                levels: self.plan.unmap_values(&run.levels),
            },
            stats: run.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emogi_core::Transport;
    use emogi_graph::{algo, generators};

    fn uvm_cfg() -> EngineConfig {
        EngineConfig::uvm_v100()
    }

    #[test]
    fn reorder_is_a_permutation() {
        let g = generators::web_crawl(500, 8, 50, 0.8, 3);
        let perm = locality_reorder(&g);
        let mut seen = vec![false; 500];
        for &p in &perm {
            assert!(!std::mem::replace(&mut seen[p as usize], true));
        }
    }

    #[test]
    fn bfs_results_map_back_to_original_ids() {
        let g = generators::uniform_random(400, 6, 9);
        let halo = HaloSystem::new(uvm_cfg(), &g);
        assert_eq!(halo.bfs(7).levels, algo::bfs_levels(&g, 7));
    }

    #[test]
    fn reordering_improves_frontier_locality() {
        // HALO's claim: vertices *activated together* (one BFS level from
        // the traversal root) hold adjacent neighbour lists after the
        // relabeling. Measure the page footprint of every BFS level from
        // the reorder root, before and after: the randomly-permuted
        // social graph sprays each level across the edge list, the
        // reordered one packs levels into consecutive pages.
        let g = generators::social(4_096, 6, 5);
        // Pick the root exactly as locality_reorder does (same sort, first
        // entry), so a degree tie cannot make us measure levels from a
        // different vertex than the one the relabeling clustered around.
        let root = {
            let mut by_degree: Vec<u32> = (0..g.num_vertices() as u32).collect();
            by_degree.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
            by_degree[0]
        };
        let levels = algo::bfs_levels(&g, root);
        let pages = |g: &CsrGraph, members: &[u32]| {
            let mut p: Vec<u64> = members
                .iter()
                .flat_map(|&v| {
                    let s = g.neighbor_start(v) * 8 / 4096;
                    let e = (g.neighbor_end(v).max(g.neighbor_start(v) + 1) - 1) * 8 / 4096;
                    s..=e
                })
                .collect();
            p.sort_unstable();
            p.dedup();
            p.len()
        };
        let halo = HaloSystem::new(uvm_cfg(), &g);
        let perm = locality_reorder(&g);
        let max_level = levels
            .iter()
            .filter(|&&l| l != u32::MAX)
            .max()
            .copied()
            .unwrap();
        let (mut before, mut after) = (0usize, 0usize);
        for lvl in 1..=max_level {
            let members: Vec<u32> = (0..g.num_vertices() as u32)
                .filter(|&v| levels[v as usize] == lvl)
                .collect();
            let mapped: Vec<u32> = members.iter().map(|&v| perm[v as usize]).collect();
            before += pages(&g, &members);
            after += pages(halo.reordered_graph(), &mapped);
        }
        assert!(
            after < before,
            "reordering should shrink the per-level page footprint: {after} vs {before}"
        );
    }

    #[test]
    fn halo_uses_uvm_not_zero_copy() {
        let g = generators::uniform_random(300, 6, 2);
        let halo = HaloSystem::new(uvm_cfg(), &g);
        let run = halo.bfs(0);
        assert_eq!(run.stats.pcie_read_requests, 0);
        assert!(run.stats.pages_migrated > 0);
        assert!(matches!(halo.cfg.transport, Transport::Uvm));
    }
}
