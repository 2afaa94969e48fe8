//! Frontier access reordering: sort each iteration's work by the cache
//! segment its edge-region read starts in.
//!
//! Inspired by in-advance reordering (IAR) schemes for irregular GPU
//! workloads: when the frontier is processed in vertex-id order, warps
//! jump between distant edge-list regions and their dst-status gathers
//! scatter across the L2. Sorting the iteration's work items by the
//! cache segment of their first edge-list access groups warps whose
//! reads share lines, so sectors fetched by one warp are still resident
//! when its neighbours in launch order touch them.
//!
//! # Determinism
//!
//! Reordering happens in the *driver loop*, before kernel construction,
//! and is a pure function of iteration-start state: the device's work
//! items (with their member masks), the immutable [`GraphLayout`] and a
//! fixed segment size. [`segment_key`] is the
//! kernel-purity hook emogi-lint audits — its body may read only the
//! layout's address arithmetic, never live machine state, so the sort
//! order cannot depend on how previous warps interleaved. Because every
//! shipped [`VertexProgram`](crate::program::VertexProgram) commutes
//! over edge-visit order within an iteration (first-discovery BFS,
//! min-fold SSSP/CC, value-sorted PageRank reduction), outputs and
//! iteration counts are bit-identical with the stage on or off; only
//! traffic statistics move. `tests/layout_differential.rs` asserts
//! exactly that.

use crate::kernel::WorkSlice;
use crate::layout::GraphLayout;

/// Sort key of an edge-region access that begins at edge-list element
/// `start`: the cache segment the first byte lands in, then the exact
/// address within it. A pure function of the immutable layout — the
/// kernel-purity contract for this module (see `emogi-lint.toml`).
#[inline]
pub fn segment_key(layout: &GraphLayout, start: u64, segment_bytes: u64) -> (u64, u64) {
    let addr = layout.edge_addr(start);
    (addr / segment_bytes.max(1), addr)
}

/// Sort one device's work items `(vertex, lo, hi)` by the cache segment
/// of each item's first edge-list element, ties broken by address, then
/// vertex, then `lo` (hub splitting can hand a device several slices of
/// one vertex). Call at the top of an iteration, before contexts are
/// captured. `masks` is empty (single query) or parallel to `items`;
/// members move with their item.
pub fn reorder_slices(
    layout: &GraphLayout,
    items: &mut Vec<WorkSlice>,
    masks: &mut Vec<u64>,
    segment_bytes: u64,
) {
    let key = |&(v, lo, _): &WorkSlice| {
        let (seg, addr) = segment_key(layout, lo, segment_bytes);
        (seg, addr, v, lo)
    };
    if masks.is_empty() {
        items.sort_by_key(key);
        return;
    }
    debug_assert_eq!(items.len(), masks.len(), "one mask per work item");
    let mut paired: Vec<(WorkSlice, u64)> = items.drain(..).zip(masks.drain(..)).collect();
    paired.sort_by_key(|(item, _)| key(item));
    (*items, *masks) = paired.into_iter().unzip();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EdgePlacement;
    use emogi_graph::{generators, VertexId};
    use emogi_runtime::machine::MachineConfig;
    use emogi_runtime::Machine;

    fn layout_for(graph: &emogi_graph::CsrGraph) -> GraphLayout {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        GraphLayout::place(&mut m, graph, 8, EdgePlacement::ZeroCopyHost, false)
    }

    /// Every vertex `0..n` with its whole list, in descending id order.
    fn reversed_items(g: &emogi_graph::CsrGraph, n: VertexId) -> Vec<WorkSlice> {
        (0..n)
            .rev()
            .map(|v| (v, g.neighbor_start(v), g.neighbor_end(v)))
            .collect()
    }

    #[test]
    fn segment_key_groups_by_segment_then_address() {
        let g = generators::uniform_random(64, 4, 9);
        let l = layout_for(&g);
        let a = segment_key(&l, 0, 4096);
        let b = segment_key(&l, 1, 4096);
        assert_eq!(a.0, b.0, "adjacent elements share a 4 KiB segment");
        assert!(b.1 > a.1, "address breaks the tie");
        let far = segment_key(&l, 4096, 4096);
        assert!(far.0 > a.0, "distant element lands in a later segment");
    }

    #[test]
    fn segment_key_survives_zero_segment() {
        let g = generators::uniform_random(8, 2, 1);
        let l = layout_for(&g);
        // max(1) guards the division; the key degenerates to plain address order.
        let k = segment_key(&l, 3, 0);
        assert_eq!(k.0, l.edge_addr(3));
    }

    #[test]
    fn reorder_is_a_permutation_in_segment_order() {
        let g = generators::uniform_random(500, 6, 3);
        let l = layout_for(&g);
        let mut items = reversed_items(&g, 500);
        let mut expected = items.clone();
        expected.sort_unstable();
        reorder_slices(&l, &mut items, &mut Vec::new(), 4096);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected, "reorder permutes, never drops");
        for w in items.windows(2) {
            let ka = segment_key(&l, w[0].1, 4096);
            let kb = segment_key(&l, w[1].1, 4096);
            assert!(ka <= kb, "non-decreasing segment keys");
        }
    }

    #[test]
    fn members_move_with_their_item() {
        let g = generators::uniform_random(200, 5, 7);
        let l = layout_for(&g);
        let mut items = reversed_items(&g, 200);
        let mut masks: Vec<u64> = items.iter().map(|&(v, ..)| u64::from(v) << 1 | 1).collect();
        let mut unmasked = items.clone();
        reorder_slices(&l, &mut items, &mut masks, 2048);
        assert_eq!(items.len(), masks.len());
        for (&(v, ..), &m) in items.iter().zip(&masks) {
            assert_eq!(m, u64::from(v) << 1 | 1, "mask moved with its item");
        }
        // The masks never influence the order.
        reorder_slices(&l, &mut unmasked, &mut Vec::new(), 2048);
        assert_eq!(items, unmasked);
    }

    #[test]
    fn slices_of_one_vertex_stay_distinct_and_address_ordered() {
        let g = generators::uniform_random(100, 8, 5);
        let l = layout_for(&g);
        // Split every list in two, as hub splitting would.
        let mut items: Vec<WorkSlice> = reversed_items(&g, 100)
            .into_iter()
            .flat_map(|(v, lo, hi)| {
                let mid = lo + (hi - lo) / 2;
                [(v, mid, hi), (v, lo, mid)]
            })
            .collect();
        reorder_slices(&l, &mut items, &mut Vec::new(), 4096);
        assert_eq!(items.len(), 200);
        for w in items.windows(2) {
            assert!(
                l.edge_addr(w[0].1) <= l.edge_addr(w[1].1),
                "slices in edge-address order"
            );
        }
    }
}
