//! Cache-aware vertex reordering: the degree-sorted layout.
//!
//! EMOGI runs over whatever vertex order the dataset shipped with, but
//! the simulated L2 cache and coalescer reward locality: destination
//! status gathers hit fewer cache lines — and merge into fewer, larger
//! PCIe/HBM transactions — when the hot (high-degree) vertices sit next
//! to each other in the status array. A [`LayoutPlan`] is a bijective
//! relabeling `perm` (new id = `perm[old id]`) bundled with its inverse
//! so a caller can
//!
//! 1. build a relabeled graph with [`LayoutPlan::apply`] (and remap any
//!    per-edge auxiliary data with [`LayoutPlan::apply_edge_data`]),
//! 2. run any `VertexProgram` over it completely unchanged, and
//! 3. map the per-vertex results back through the inverse with
//!    [`LayoutPlan::unmap_values`] (or [`LayoutPlan::unmap_components`]
//!    for component labels, which are themselves vertex ids).
//!
//! Relabeling is semantics-preserving: neighbour sets and per-edge data
//! multisets are conserved, so BFS levels, SSSP distances and PageRank
//! ranks come back **bit-identical** to an unpermuted run
//! (`tests/layout_differential.rs` pins this for every layout × program
//! × named configuration, solo / batched / sharded, pipelined included;
//! `random_relabeling_never_changes_results` in `tests/proptests.rs`) —
//! PageRank's because its folds sort their addends canonically.
//!
//! What a layout *does* change is the address stream, and two `RunStats`
//! derived metrics expose it: `l2_hit_rate()` (sector hits / sector
//! probes) and `coalescing_efficiency()` (lane-requested bytes /
//! transaction bytes moved). The `layout` experiment pins the cache to a
//! quarter of the status array (the paper's oversubscribed regime — at
//! reduced scale the whole array would fit the scaled L2, and no layout
//! can improve a cache that never evicts) and shows degree-sorted beating
//! original ids on *both* metrics for all four programs (rerun by
//! `tests/experiments_smoke.rs`). There is no runtime half: the driver
//! never reorders a device's work list, because it is already in
//! edge-list address order (`work_items_arrive_in_edge_address_order` in
//! `crates/core/src/driver.rs`).

use crate::csr::CsrGraph;
use crate::VertexId;

/// A bijective vertex relabeling with its inverse.
///
/// `perm[old] = new` and `inv_perm[new] = old`; composing them either
/// way yields the identity (pinned by unit tests below).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutPlan {
    perm: Vec<VertexId>,
    inv_perm: Vec<VertexId>,
}

impl LayoutPlan {
    /// The identity layout over `n` vertices (the "original order"
    /// baseline of the `layout` experiment).
    pub fn identity(n: usize) -> Self {
        let perm: Vec<VertexId> = (0..n as VertexId).collect();
        Self {
            inv_perm: perm.clone(),
            perm,
        }
    }

    /// Build a plan from an explicit permutation (`perm[old] = new`).
    ///
    /// # Panics
    /// If `perm` is not a bijection of `0..perm.len()`.
    pub fn from_perm(perm: Vec<VertexId>) -> Self {
        let n = perm.len();
        let mut inv_perm = vec![VertexId::MAX; n];
        for (old, &new) in perm.iter().enumerate() {
            assert!(
                (new as usize) < n && inv_perm[new as usize] == VertexId::MAX,
                "perm is not a bijection"
            );
            inv_perm[new as usize] = old as VertexId;
        }
        Self { perm, inv_perm }
    }

    /// Build a plan from a placement order (`order[new] = old`).
    fn from_order(order: Vec<VertexId>) -> Self {
        let mut perm = vec![VertexId::MAX; order.len()];
        for (new, &old) in order.iter().enumerate() {
            assert!(
                perm[old as usize] == VertexId::MAX,
                "order is not a bijection"
            );
            perm[old as usize] = new as VertexId;
        }
        Self {
            perm,
            inv_perm: order,
        }
    }

    /// Degree-sorted layout: vertices relabeled by descending degree
    /// (ties by ascending original id). Hot status entries cluster at
    /// the low end of the status array, where one cache line covers 32
    /// of them.
    pub fn degree_sorted(graph: &CsrGraph) -> Self {
        let mut order: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        Self::from_order(order)
    }

    /// Vertices covered by the plan.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the zero-vertex plan.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The forward permutation (`perm[old] = new`).
    pub fn perm(&self) -> &[VertexId] {
        &self.perm
    }

    /// The inverse permutation (`inv_perm[new] = old`).
    pub fn inv_perm(&self) -> &[VertexId] {
        &self.inv_perm
    }

    /// New id of original vertex `old` (e.g. to translate BFS/SSSP
    /// sources before running over the relabeled graph).
    pub fn map_vertex(&self, old: VertexId) -> VertexId {
        self.perm[old as usize]
    }

    /// Original id of relabeled vertex `new`.
    pub fn unmap_vertex(&self, new: VertexId) -> VertexId {
        self.inv_perm[new as usize]
    }

    /// The relabeled graph. Delegates to [`CsrGraph::relabel`], which
    /// re-validates every CSR invariant and keeps each neighbour list
    /// sorted.
    pub fn apply(&self, graph: &CsrGraph) -> CsrGraph {
        graph.relabel(&self.perm)
    }

    /// Remap a per-edge auxiliary array (e.g. SSSP weights) so entry
    /// `k` of the relabeled graph's edge list carries the datum of the
    /// edge it came from. [`CsrGraph::relabel`] sorts each neighbour
    /// list by new destination id; this mirrors that sort on
    /// `(new_dst, datum)` pairs, so for parallel edges the data
    /// *multiset* per (src, dst) pair is what is preserved — exactly
    /// the property integer shortest paths depend on.
    ///
    /// # Panics
    /// If `data.len()` differs from the graph's edge count.
    pub fn apply_edge_data(&self, graph: &CsrGraph, data: &[u32]) -> Vec<u32> {
        assert_eq!(data.len(), graph.num_edges(), "edge data length mismatch");
        let n = graph.num_vertices();
        assert_eq!(self.perm.len(), n, "plan covers a different vertex count");
        // Same new row offsets `relabel` computes.
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[self.perm[v] as usize + 1] = graph.degree(v as VertexId);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut out = vec![0u32; data.len()];
        let mut pairs: Vec<(VertexId, u32)> = Vec::new();
        for v in 0..n {
            let s = graph.neighbor_start(v as VertexId) as usize;
            pairs.clear();
            pairs.extend(
                graph
                    .neighbors(v as VertexId)
                    .iter()
                    .enumerate()
                    .map(|(k, &d)| (self.perm[d as usize], data[s + k])),
            );
            pairs.sort_unstable();
            let start = offsets[self.perm[v] as usize] as usize;
            for (k, &(_, w)) in pairs.iter().enumerate() {
                out[start + k] = w;
            }
        }
        out
    }

    /// Map per-vertex results of a relabeled run back to original ids:
    /// `out[old] = new_values[perm[old]]`.
    ///
    /// # Panics
    /// If `new_values.len()` differs from the plan's vertex count.
    pub fn unmap_values<T: Copy>(&self, new_values: &[T]) -> Vec<T> {
        assert_eq!(
            new_values.len(),
            self.perm.len(),
            "value array length mismatch"
        );
        self.perm.iter().map(|&p| new_values[p as usize]).collect()
    }

    /// Map component labels of a relabeled run back to original ids.
    ///
    /// Component labels are vertex ids themselves (the engine converges
    /// each component to its minimum label), so positional unmapping
    /// alone would leave *new*-id labels behind. This canonicalizes
    /// each component to the smallest **original** id it contains —
    /// which is exactly what an unpermuted run converges to, so the
    /// result is bit-comparable with it.
    ///
    /// # Panics
    /// If `comp_new.len()` differs from the plan's vertex count.
    pub fn unmap_components(&self, comp_new: &[u32]) -> Vec<u32> {
        let n = self.perm.len();
        assert_eq!(comp_new.len(), n, "component array length mismatch");
        // canon[new_label] = smallest old id in that component (old ids
        // scan in ascending order, so first write wins).
        let mut canon = vec![u32::MAX; n];
        for old in 0..n {
            let rep = comp_new[self.perm[old] as usize] as usize;
            if canon[rep] == u32::MAX {
                canon[rep] = old as u32;
            }
        }
        (0..n)
            .map(|old| canon[comp_new[self.perm[old] as usize] as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algo, generators};

    fn sample() -> CsrGraph {
        generators::kronecker(8, 8, 42)
    }

    /// A second plan unrelated to degree: ids reversed.
    fn reversed(g: &CsrGraph) -> LayoutPlan {
        LayoutPlan::from_perm((0..g.num_vertices() as VertexId).rev().collect())
    }

    fn assert_inverse(plan: &LayoutPlan) {
        let n = plan.len();
        for v in 0..n as VertexId {
            assert_eq!(plan.unmap_vertex(plan.map_vertex(v)), v, "perm ∘ inv");
            assert_eq!(plan.map_vertex(plan.unmap_vertex(v)), v, "inv ∘ perm");
        }
    }

    #[test]
    fn perm_composed_with_inverse_is_identity_for_every_layout() {
        let g = sample();
        assert_inverse(&LayoutPlan::identity(g.num_vertices()));
        assert_inverse(&LayoutPlan::degree_sorted(&g));
    }

    #[test]
    fn degree_sorted_is_monotonically_non_increasing() {
        let g = sample();
        let plan = LayoutPlan::degree_sorted(&g);
        let r = plan.apply(&g);
        for new in 1..r.num_vertices() as VertexId {
            assert!(
                r.degree(new - 1) >= r.degree(new),
                "degree order broken at new id {new}"
            );
        }
    }

    #[test]
    fn apply_produces_a_well_formed_csr_with_preserved_adjacency() {
        let g = sample();
        for plan in [LayoutPlan::degree_sorted(&g), reversed(&g)] {
            let r = plan.apply(&g);
            assert_eq!(r.num_vertices(), g.num_vertices());
            assert_eq!(r.num_edges(), g.num_edges());
            // from_parts already re-validated monotone offsets; check
            // the per-list sort and the mapped neighbour sets too.
            for old in 0..g.num_vertices() as VertexId {
                let new = plan.map_vertex(old);
                let got = r.neighbors(new);
                assert!(got.windows(2).all(|w| w[0] <= w[1]), "unsorted list");
                let mut want: Vec<VertexId> = g
                    .neighbors(old)
                    .iter()
                    .map(|&d| plan.map_vertex(d))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want.as_slice(), "old vertex {old}");
            }
        }
    }

    #[test]
    fn edge_data_stays_aligned_with_its_edges() {
        let g = sample();
        let weights = crate::datasets::generate_weights(g.num_edges(), 7);
        let plan = LayoutPlan::degree_sorted(&g);
        let r = plan.apply(&g);
        let rw = plan.apply_edge_data(&g, &weights);
        assert_eq!(rw.len(), weights.len());
        // Per source vertex, the (dst, weight) multiset is conserved.
        for old in 0..g.num_vertices() as VertexId {
            let new = plan.map_vertex(old);
            let (os, ns) = (g.neighbor_start(old), r.neighbor_start(new));
            let mut want: Vec<(VertexId, u32)> = g
                .neighbors(old)
                .iter()
                .enumerate()
                .map(|(k, &d)| (plan.map_vertex(d), weights[os as usize + k]))
                .collect();
            want.sort_unstable();
            let got: Vec<(VertexId, u32)> = r
                .neighbors(new)
                .iter()
                .enumerate()
                .map(|(k, &d)| (d, rw[ns as usize + k]))
                .collect();
            assert_eq!(got, want, "old vertex {old}");
        }
    }

    #[test]
    fn unmap_values_inverts_positional_mapping() {
        let g = sample();
        let plan = LayoutPlan::degree_sorted(&g);
        let old_vals: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v * 3 + 1).collect();
        // A relabeled run would see new_vals[new] = old_vals[old].
        let new_vals: Vec<u32> = plan
            .inv_perm()
            .iter()
            .map(|&o| old_vals[o as usize])
            .collect();
        assert_eq!(plan.unmap_values(&new_vals), old_vals);
    }

    #[test]
    fn unmap_components_restores_min_old_id_labels() {
        let g = sample();
        let want = algo::cc_labels(&g);
        for plan in [LayoutPlan::degree_sorted(&g), reversed(&g)] {
            let r = plan.apply(&g);
            let comp_new = algo::cc_labels(&r);
            assert_eq!(plan.unmap_components(&comp_new), want);
        }
        // Identity plan on already-canonical labels is a no-op.
        let id = LayoutPlan::identity(g.num_vertices());
        assert_eq!(id.unmap_components(&want), want);
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn from_perm_rejects_non_permutations() {
        let _ = LayoutPlan::from_perm(vec![0, 0, 1]);
    }

    #[test]
    fn empty_and_isolated_graphs_are_handled() {
        let empty = CsrGraph::empty(0);
        assert!(LayoutPlan::degree_sorted(&empty).is_empty());
        let isolated = CsrGraph::empty(5);
        let plan = LayoutPlan::degree_sorted(&isolated);
        assert_eq!(plan.len(), 5);
        assert_inverse(&plan);
    }
}
