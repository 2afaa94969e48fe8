//! Neighbour-list walking shared by the BFS / SSSP / CC kernels.
//!
//! [`WarpWalk`] is the merged (warp-per-vertex) iterator of Listing 2:
//! the warp sweeps the list 32 elements at a time, optionally starting
//! from the 128-byte-aligned index below the list head with the
//! underflowing lanes masked off. Over a compressed edge list (§6,
//! [`Transport::Compressed`](crate::layout::Transport::Compressed)) it
//! sweeps the list's varint bytes 32 eight-byte words at a time instead,
//! and each step yields the elements whose varints it completed.
//! [`LaneWalk`] is the naive (thread-per-vertex) iterator of Listing 1:
//! each lane advances its own list one element at a time.

use crate::layout::GraphLayout;
use crate::strategy::AccessStrategy;
use emogi_gpu::access::{AccessBatch, LaneAccess, WARP_SIZE};

/// Decode cost per compressed edge, ns: a few shifts and adds per varint
/// byte, far below the ~100 ns per edge the interconnect costs at 32 B
/// per three-odd edges.
pub const DECODE_NS_PER_EDGE: u32 = 2;

/// Merged/aligned warp sweep over one `[start, end)` element range, or
/// over the words of the compressed stream holding it.
#[derive(Debug, Clone, Copy)]
pub struct WarpWalk {
    cursor: u64,
    start_org: u64,
    end: u64,
}

impl WarpWalk {
    /// A warp sweep over elements `[start, end)` under `strategy`. Over a
    /// compressed layout it sweeps the 8-byte words from the one holding
    /// element `start`'s first byte to the one holding element `end - 1`'s
    /// last, so the aligned strategies start at the 128-byte boundary
    /// below the list and Merged at its first word.
    pub fn new(start: u64, end: u64, strategy: AccessStrategy, layout: &GraphLayout) -> Self {
        debug_assert!(strategy.warp_per_vertex());
        let (start, end) = match &layout.compressed {
            Some(offsets) => (
                offsets[start as usize] / 8,
                offsets[end as usize].div_ceil(8),
            ),
            None => (start, end),
        };
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
    ///
    /// Over a compressed layout the lanes load words, and the range
    /// returned is the elements of `range` (the walk's element range)
    /// whose varints end in this step's words: the edges it decoded,
    /// each charged [`DECODE_NS_PER_EDGE`]. Successive steps' ranges
    /// tile `range`, up to 256 elements a step.
    pub fn emit_edges(
        &mut self,
        layout: &GraphLayout,
        batch: &mut AccessBatch,
        (start, end): (u64, u64),
    ) -> (u64, u64) {
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
        let Some(offsets) = &layout.compressed else {
            return (lo, chunk_end);
        };
        let ends = &offsets[start as usize + 1..=end as usize];
        let decoded = |word: u64| start + ends.partition_point(|&e| e <= word * 8) as u64;
        let (lo, hi) = (decoded(lo), decoded(chunk_end));
        batch.compute_ns += DECODE_NS_PER_EDGE * (hi - lo) as u32;
        (lo, hi)
    }

    /// Emit weight loads for the same element range (SSSP reads the
    /// 4-byte weight array in lock-step with the edge array): one span
    /// per 32 elements, span `k` its own instruction `k`, in the space of
    /// its translated address; the weight array is never staged, spilled
    /// or compressed, but a packed subgraph carries it.
    pub fn emit_weights(layout: &GraphLayout, batch: &mut AccessBatch, lo: u64, hi: u64) {
        for (k, at) in (0..).zip((lo..hi).step_by(WARP_SIZE)) {
            let lanes = (hi - at).min(WARP_SIZE as u64) as u8;
            let addr = layout.weight_addr(at);
            let load = LaneAccess::load(addr, 4, layout.edge_addr_space(addr));
            let span = LaneAccess {
                count: lanes,
                ..load
            };
            batch.push(span.with_instr(k));
        }
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
    /// `(element, iteration, lane)` triples in `loaded`. Lanes whose
    /// lists are exhausted idle — the §4.3.1 divergence cost of unequal
    /// list lengths.
    pub fn emit_edges(
        &mut self,
        layout: &GraphLayout,
        batch: &mut AccessBatch,
        loaded: &mut Vec<(u64, u8, u8)>,
    ) {
        debug_assert!(!self.is_done());
        for k in 0..LANE_RUNAHEAD as u8 {
            let mut any = false;
            for (l, lane) in (0u8..).zip(&mut self.lanes) {
                if lane.0 < lane.1 {
                    let addr = layout.edge_addr(lane.0);
                    batch.load_instr(
                        addr,
                        layout.elem_bytes as u8,
                        layout.edge_addr_space(addr),
                        k,
                    );
                    loaded.push((lane.0, k, l));
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

    /// Weight loads matching the `(element, iteration, lane)` triples just
    /// loaded (their own instruction groups, offset from the edge loads').
    pub fn emit_weights(layout: &GraphLayout, batch: &mut AccessBatch, loaded: &[(u64, u8, u8)]) {
        for &(i, k, _) in loaded {
            let addr = layout.weight_addr(i);
            batch.load_instr(addr, 4, layout.edge_addr_space(addr), 64 + k);
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
            redirect: None,
            prefetcher: None,
            compressed: None,
            batch_block: None,
            visit_mask: None,
        }
    }

    #[test]
    fn aligned_walk_masks_underflow_lanes() {
        let l = layout();
        // List spans elements [19, 40): aligned start is 16.
        let mut w = WarpWalk::new(19, 40, AccessStrategy::MergedAligned, &l);
        let mut b = AccessBatch::new();
        let (lo, hi) = w.emit_edges(&l, &mut b, (19, 40));
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
        let (lo, hi) = w.emit_edges(&l, &mut b, (19, 100));
        assert_eq!((lo, hi), (19, 51));
        assert_eq!((b.len(), b.items()[0].count), (1, 32));
        assert!(!w.is_done());
        b.clear();
        let (lo2, _) = w.emit_edges(&l, &mut b, (19, 100));
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
        let (lo, hi) = w.emit_edges(&l, &mut b, (19, 100));
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
                    let (lo, hi) = w.emit_edges(&l, &mut b, (s, e));
                    seen.extend(lo..hi.min(e));
                }
                let want: Vec<u64> = (s..e).collect();
                assert_eq!(seen, want, "strategy {strategy:?} range {s}..{e}");
            }
        }
    }

    /// The word loads of the compressed BFS kernel this walk replaced:
    /// the byte cursor starts at the list's 128-byte line (at its word
    /// under plain Merged), and each step loads the 8-byte words of the
    /// next 256 bytes from the list's first word to its last byte.
    fn replaced_kernel_words(l: &GraphLayout, (start, end): (u64, u64), aligned: bool) -> Vec<u64> {
        let mut cursor = if aligned { start & !127 } else { start & !7 };
        let mut words = Vec::new();
        while cursor < end {
            let chunk_end = (cursor + 256).min(end);
            let lo = cursor.max(start & !7);
            words.extend((lo..chunk_end).step_by(8).map(|b| l.edge_base + b));
            cursor = chunk_end;
        }
        words
    }

    /// On a whole list and on a hub piece, under both strategies: the
    /// compressed walk loads exactly the replaced kernel's words, 32 a
    /// step, and the elements its steps decode tile the range in order,
    /// each step charged for the edges it decoded.
    #[test]
    fn compressed_walk_loads_the_replaced_kernels_words_and_tiles_its_range() {
        use crate::layout::Transport;
        use emogi_graph::generators;
        use emogi_runtime::{Machine, MachineConfig};
        let g = generators::kronecker(12, 16, 3);
        let mut m = Machine::new(MachineConfig::v100_gen3());
        let l = GraphLayout::place(&mut m, &g, 8, &Transport::Compressed);
        let offsets = l.compressed.as_ref().expect("a compressed layout");
        let hub = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let (s, e) = (g.neighbor_start(hub), g.neighbor_end(hub));
        assert!(
            offsets[e as usize] - offsets[s as usize] > 3 * 256,
            "a multi-step list"
        );
        let piece = (s + 48, e - 80);
        for strategy in [AccessStrategy::Merged, AccessStrategy::MergedAligned] {
            for (lo, hi) in [(s, e), piece] {
                let mut w = WarpWalk::new(lo, hi, strategy, &l);
                let (mut words, mut decoded, mut b) = (Vec::new(), Vec::new(), AccessBatch::new());
                while !w.is_done() {
                    b.clear();
                    let (a, z) = w.emit_edges(&l, &mut b, (lo, hi));
                    let lanes = b
                        .items()
                        .iter()
                        .flat_map(|x| (0..x.count).map(move |k| x.addr + 8 * u64::from(k)));
                    let step: Vec<u64> = lanes.collect();
                    assert!(step.len() <= WARP_SIZE, "{strategy:?}: one word per lane");
                    words.extend(step);
                    assert_eq!(b.compute_ns, DECODE_NS_PER_EDGE * (z - a) as u32);
                    decoded.push((a, z));
                }
                let bytes = (offsets[lo as usize], offsets[hi as usize]);
                let aligned = strategy == AccessStrategy::MergedAligned;
                assert_eq!(
                    words,
                    replaced_kernel_words(&l, bytes, aligned),
                    "{strategy:?} {lo}..{hi}"
                );
                let flat: Vec<u64> = decoded.iter().flat_map(|&(a, z)| a..z).collect();
                assert_eq!(flat, Vec::from_iter(lo..hi), "{strategy:?} {lo}..{hi}");
            }
        }
    }

    /// A decoded step's weights: spans of at most 32, one instruction
    /// each, covering the step's elements once.
    #[test]
    fn weights_of_a_long_step_come_in_spans_of_32() {
        let l = layout();
        let mut b = AccessBatch::new();
        WarpWalk::emit_weights(&l, &mut b, 5, 80);
        let spans: Vec<_> = b
            .items()
            .iter()
            .map(|a| (a.addr, a.count, a.instr))
            .collect();
        let at = |i| l.weight_addr(i);
        assert_eq!(
            spans,
            vec![(at(5), 32, 0), (at(37), 32, 1), (at(69), 11, 2)]
        );
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
        assert_eq!(loaded, vec![(0, 0, 0), (10, 0, 1), (1, 1, 0), (2, 2, 0)]);
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
        LaneWalk::emit_weights(&l, &mut b2, &[(5, 0, 0), (6, 1, 0)]);
        assert_eq!(b2.items()[0].instr, 64);
        assert_eq!(b2.items()[1].instr, 65);
    }
}
