//! Neighbour-list walking shared by the BFS / SSSP / CC kernels.
//!
//! [`WarpWalk`] is the merged (warp-per-vertex) iterator of Listing 2:
//! the warp sweeps the list 32 elements at a time, optionally starting
//! from the 128-byte-aligned index below the list head with the
//! underflowing lanes masked off. [`LaneWalk`] is the naive
//! (thread-per-vertex) iterator of Listing 1: each lane advances its own
//! list one element at a time.

use crate::layout::GraphLayout;
use crate::strategy::AccessStrategy;
use emogi_gpu::access::{AccessBatch, WARP_SIZE};

/// Merged/aligned warp sweep over one `[start, end)` element range.
#[derive(Debug, Clone, Copy)]
pub struct WarpWalk {
    cursor: u64,
    start_org: u64,
    end: u64,
}

impl WarpWalk {
    /// A warp sweep over elements `[start, end)` under `strategy`.
    pub fn new(start: u64, end: u64, strategy: AccessStrategy, layout: &GraphLayout) -> Self {
        debug_assert!(strategy.warp_per_vertex());
        Self {
            cursor: strategy.start_cursor(start, layout.elems_per_line()),
            start_org: start,
            end,
        }
    }

    /// Whether the sweep has covered the whole range.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.end
    }

    /// Emit this iteration's edge loads (one lane per element, one span
    /// per run of address-contiguous elements) and advance. Every element
    /// is still translated on its own, so a staged-region or CXL-spill
    /// boundary ends a span exactly where it separates two lanes.
    /// Returns the `[lo, hi)` range of *real* elements covered (the
    /// aligned prefix below `start_org` is fetched but carries no edges).
    pub fn emit_edges(&mut self, layout: &GraphLayout, batch: &mut AccessBatch) -> (u64, u64) {
        debug_assert!(!self.is_done());
        let chunk_end = (self.cursor + WARP_SIZE as u64).min(self.end);
        let lo = self.cursor.max(self.start_org);
        let elem = layout.elem_bytes;
        // The open span: first address, lanes so far.
        let (mut first, mut lanes) = (layout.edge_addr(lo), 1u8);
        for i in lo + 1..chunk_end {
            let addr = layout.edge_addr(i);
            if addr == first + u64::from(lanes) * elem {
                lanes += 1;
            } else {
                batch.load_span(first, elem as u8, lanes, layout.edge_addr_space(first));
                (first, lanes) = (addr, 1);
            }
        }
        batch.load_span(first, elem as u8, lanes, layout.edge_addr_space(first));
        self.cursor = chunk_end;
        (lo, chunk_end)
    }

    /// Emit weight loads for the same element range (SSSP reads the
    /// 4-byte weight array in lock-step with the edge array): one span,
    /// the weight array is never staged or spilled.
    pub fn emit_weights(layout: &GraphLayout, batch: &mut AccessBatch, lo: u64, hi: u64) {
        debug_assert!(lo < hi && hi - lo <= WARP_SIZE as u64);
        batch.load_span(
            layout.weight_addr(lo),
            4,
            (hi - lo) as u8,
            layout.edge_space,
        );
    }
}

/// Loop iterations a lane keeps in flight per step: modern GPUs issue the
/// *independent* edge loads of several loop iterations back-to-back
/// (per-thread memory-level parallelism), so a lane is never limited to
/// one outstanding sector. Each iteration is its own instruction group,
/// which keeps the naive pattern's requests at 32 bytes on the wire.
pub const LANE_RUNAHEAD: usize = 32;

/// Naive per-lane walk: up to 32 independent `[cursor, end)` ranges.
#[derive(Debug, Clone)]
pub struct LaneWalk {
    lanes: [(u64, u64); WARP_SIZE],
    active: u32,
}

impl LaneWalk {
    /// A per-lane walk over up to 32 independent element ranges.
    pub fn new(ranges: &[(u64, u64)]) -> Self {
        assert!(ranges.len() <= WARP_SIZE);
        let mut lanes = [(0u64, 0u64); WARP_SIZE];
        let mut active = 0;
        for (i, &(s, e)) in ranges.iter().enumerate() {
            lanes[i] = (s, e);
            if s < e {
                active += 1;
            }
        }
        Self { lanes, active }
    }

    /// Whether every lane has exhausted its range.
    pub fn is_done(&self) -> bool {
        self.active == 0
    }

    /// Emit up to [`LANE_RUNAHEAD`] element loads per still-active lane,
    /// one instruction group per loop iteration, and record the
    /// `(element, iteration)` pairs in `loaded`. Lanes whose lists are
    /// exhausted idle — the §4.3.1 divergence cost of unequal list
    /// lengths.
    pub fn emit_edges(
        &mut self,
        layout: &GraphLayout,
        batch: &mut AccessBatch,
        loaded: &mut Vec<(u64, u8)>,
    ) {
        debug_assert!(!self.is_done());
        for k in 0..LANE_RUNAHEAD as u8 {
            let mut any = false;
            for lane in &mut self.lanes {
                if lane.0 < lane.1 {
                    let addr = layout.edge_addr(lane.0);
                    batch.load_instr(
                        addr,
                        layout.elem_bytes as u8,
                        layout.edge_addr_space(addr),
                        k,
                    );
                    loaded.push((lane.0, k));
                    lane.0 += 1;
                    if lane.0 == lane.1 {
                        self.active -= 1;
                    }
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    /// Weight loads matching the `(element, iteration)` pairs just loaded
    /// (their own instruction groups, offset from the edge loads').
    pub fn emit_weights(layout: &GraphLayout, batch: &mut AccessBatch, loaded: &[(u64, u8)]) {
        for &(i, k) in loaded {
            batch.load_instr(layout.weight_addr(i), 4, layout.edge_space, 64 + k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emogi_gpu::access::Space;

    fn layout() -> GraphLayout {
        GraphLayout {
            edge_base: 0x2_0000_0000_0000,
            weight_base: Some(0x2_0000_1000_0000),
            vertex_base: 0x1_0000_0000_0000,
            status_base: 0x1_0000_1000_0000,
            elem_bytes: 8,
            edge_space: Space::HostPinned,
            host_edge_bytes: u64::MAX,
            cxl_edge_base: None,
            staged_edges: None,
        }
    }

    #[test]
    fn aligned_walk_masks_underflow_lanes() {
        let l = layout();
        // List spans elements [19, 40): aligned start is 16.
        let mut w = WarpWalk::new(19, 40, AccessStrategy::MergedAligned, &l);
        let mut b = AccessBatch::new();
        let (lo, hi) = w.emit_edges(&l, &mut b);
        // The first chunk is the aligned 16..48 window clipped to the list.
        assert_eq!((lo, hi), (19, 40));
        // One span: lanes 16..19 masked, 40..48 beyond end. Its first
        // address is element 19, but the *chunk* covers the aligned line;
        // the coalescer sees loads from 19 to 39.
        assert_eq!(b.len(), 1);
        assert_eq!(b.items()[0].addr, l.edge_addr(19));
        assert_eq!(b.items()[0].count, 40 - 19);
        assert_eq!(b.lane_bytes(), (40 - 19) * 8);
        assert!(w.is_done());
    }

    #[test]
    fn merged_walk_starts_at_list_head() {
        let l = layout();
        let mut w = WarpWalk::new(19, 100, AccessStrategy::Merged, &l);
        let mut b = AccessBatch::new();
        let (lo, hi) = w.emit_edges(&l, &mut b);
        assert_eq!((lo, hi), (19, 51));
        assert_eq!((b.len(), b.items()[0].count), (1, 32));
        assert!(!w.is_done());
        b.clear();
        let (lo2, _) = w.emit_edges(&l, &mut b);
        assert_eq!(lo2, 51);
    }

    /// Spans end where the address translation jumps: the element past
    /// the host-resident prefix opens a new span in the CXL window, and
    /// lane for lane the spans are the per-element loads.
    #[test]
    fn a_spill_boundary_splits_the_span() {
        use emogi_runtime::CXL_BASE;
        let l = GraphLayout {
            host_edge_bytes: 24 * 8,
            cxl_edge_base: Some(CXL_BASE),
            ..layout()
        };
        let mut w = WarpWalk::new(19, 100, AccessStrategy::Merged, &l);
        let mut b = AccessBatch::new();
        let (lo, hi) = w.emit_edges(&l, &mut b);
        assert_eq!((lo, hi), (19, 51));
        let spans: Vec<_> = b
            .items()
            .iter()
            .map(|a| (a.addr, a.size, a.count, a.space))
            .collect();
        assert_eq!(
            spans,
            vec![
                (l.edge_addr(19), 8, 5, Space::HostPinned),
                (CXL_BASE, 8, 27, Space::Cxl),
            ]
        );
        let per_lane: Vec<u64> = b
            .items()
            .iter()
            .flat_map(|a| (0..u64::from(a.count)).map(move |k| a.addr + k * 8))
            .collect();
        let want: Vec<u64> = (lo..hi).map(|i| l.edge_addr(i)).collect();
        assert_eq!(per_lane, want);
    }

    #[test]
    fn warp_walk_covers_every_real_element_exactly_once() {
        let l = layout();
        for strategy in [AccessStrategy::Merged, AccessStrategy::MergedAligned] {
            for (s, e) in [(0u64, 1u64), (5, 37), (16, 48), (19, 20), (100, 164)] {
                let mut w = WarpWalk::new(s, e, strategy, &l);
                let mut seen = Vec::new();
                let mut b = AccessBatch::new();
                while !w.is_done() {
                    b.clear();
                    let (lo, hi) = w.emit_edges(&l, &mut b);
                    seen.extend(lo..hi.min(e));
                }
                let want: Vec<u64> = (s..e).collect();
                assert_eq!(seen, want, "strategy {strategy:?} range {s}..{e}");
            }
        }
    }

    #[test]
    fn lane_walk_diverges_and_runs_ahead() {
        let l = layout();
        let mut w = LaneWalk::new(&[(0, 3), (10, 11), (20, 20)]);
        let mut b = AccessBatch::new();
        let mut loaded = Vec::new();
        // One step drains both short lists thanks to the runahead;
        // iterations interleave lane-major within each instruction group.
        w.emit_edges(&l, &mut b, &mut loaded);
        assert_eq!(loaded, vec![(0, 0), (10, 0), (1, 1), (2, 2)]);
        assert!(w.is_done());
        // Per-iteration instruction ids keep same-lane consecutive
        // elements in separate groups.
        assert_eq!(b.items()[0].instr, 0);
        assert_eq!(b.items()[2].instr, 1);
    }

    #[test]
    fn lane_walk_long_list_stops_at_runahead() {
        let l = layout();
        let mut w = LaneWalk::new(&[(0, 100)]);
        let mut b = AccessBatch::new();
        let mut loaded = Vec::new();
        w.emit_edges(&l, &mut b, &mut loaded);
        assert_eq!(loaded.len(), LANE_RUNAHEAD);
        assert!(!w.is_done());
    }

    #[test]
    fn weight_loads_are_4_byte_in_edge_space() {
        let l = layout();
        let mut b = AccessBatch::new();
        WarpWalk::emit_weights(&l, &mut b, 5, 8);
        assert_eq!((b.len(), b.items()[0].count), (1, 3));
        assert_eq!(b.items()[0].addr, l.weight_addr(5));
        assert_eq!(b.items()[0].size, 4);
        assert_eq!(b.items()[0].space, Space::HostPinned);

        let mut b2 = AccessBatch::new();
        LaneWalk::emit_weights(&l, &mut b2, &[(5, 0), (6, 1)]);
        assert_eq!(b2.items()[0].instr, 64);
        assert_eq!(b2.items()[1].instr, 65);
    }
}
