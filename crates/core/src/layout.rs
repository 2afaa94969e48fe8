//! Where a graph's pieces live on the machine.
//!
//! EMOGI's placement (§4.2): "The edge list is allocated in the host
//! memory as it doesn't fit in GPU memory, but other small data structures
//! such as buffers and the vertex list are allocated in GPU memory." The
//! UVM baseline (§5.1.2) differs only in putting the edge list (and the
//! weight list, for SSSP) into the managed space. That one decision —
//! where the edge list lives and how it reaches the GPU — is a
//! [`Transport`]; §6's proposal, the edge list compressed in pinned host
//! memory, is one more, and so is §5.6's Subway, which copies each
//! iteration's active subgraph into device memory.
//!
//! # Memory hierarchy
//!
//! EMOGI's model is two-level: hot state in HBM, the edge list in pinned
//! host DRAM behind zero-copy PCIe. The CXL external-memory follow-up
//! (PAPERS.md) motivates a third level, and the machine carries an
//! optional one: `MachineConfig::with_cxl(CxlConfig::external_x8())`
//! attaches an `emogi_sim::cxl::CxlLink`, and `with_host_capacity(bytes)`
//! bounds pinned host DRAM so [`GraphLayout::place`] spills the edge
//! list's cold tail — the host-resident prefix aligned down to
//! [`SPILL_ALIGN`] — into the external tier. Only the edge tail spills
//! (SSSP's weights are placed on first use, in host DRAM, with no
//! capacity check — a recorded defect, ROADMAP item 5.2); spilling
//! without a CXL tier is a placement error, not a silent truncation. Both
//! knobs default off: an unconfigured machine is the two-tier machine,
//! bit for bit.
//!
//! | tier | modelled as | unloaded latency | bandwidth |
//! |---|---|---|---|
//! | HBM (staged regions; never a home) | sectored L2 + device DRAM | tens of ns | ~900 GB/s class |
//! | `MemoryTier::Host` | pinned memory over PCIe 3.0 ×16 (tags, split transactions, MSHR interplay) | 2 × 780 ns propagation + queueing | 15.75 GB/s raw × 0.90 efficiency ≈ 14 GB/s usable (~12 GB/s achieved bulk) |
//! | `MemoryTier::Cxl` | `CxlLink` — a load/store flit protocol, deliberately *not* a `PcieLink`: one busy-until wire in front of far-memory DRAM | 2 × 900 ns fabric + 250 ns media ≈ 2.1 µs round trip | 25 GB/s raw × 0.85 efficiency ≈ 21 GB/s usable; 16 B flit header per access (256 B payload flits on bulk streams) |
//!
//! Under [`Transport::Hybrid`] the runtime's `TransferManager` watches the
//! pinned edge list in fixed-size regions and before every launch asks
//! `emogi_uvm::TransferPolicy::decide_tiered`, per touched region,
//! whether to stay in place or bulk-stage the region into free device
//! memory (one rent/buy rule, one threshold per home tier — see
//! `emogi_uvm::transfer`). `TransferManager::with_tiers` takes this
//! layout's host/CXL split as `host_bytes`: a region is host-homed when
//! it starts below that offset and CXL-homed otherwise. Dense, recurring
//! regions end up in HBM; sparse one-shot regions stay zero-copy, and a
//! traversal with no reuse is tick-identical to pure Merged+Aligned.
//! Everything above the transfer manager is tier-agnostic: `Engine`,
//! `run_batch`, `ShardedEngine` and the prefetcher run unchanged programs
//! over any tier configuration; spilled addresses price as `Space::Cxl`
//! in the executor (the coalescer splits transactions at the host/CXL
//! boundary), and CXL traffic lands in its own `RunStats` counters
//! (`cxl_read_requests`, `cxl_bytes`).
//!
//! | invariant | witnessed by |
//! |---|---|
//! | idle-CXL tick-identity: an attached-but-unused CXL tier gives full `RunStats` equality (clock included) with the two-tier engine; spilled configs keep outputs + iteration counts bit-identical across solo / batched / sharded | `tests/tiering_differential.rs` (CI reruns it seed-pinned) |
//! | host and CXL homes run one rent/buy rule against two thresholds, for every history and density | `host_and_cxl_homes_share_one_rent_buy_rule` in `crates/uvm/src/transfer.rs` |
//! | speculation never allocates, so it never lowers the demand budget (the allocator's free device bytes); an outside allocation that leaves `slice_used` above them is repaired before the next speculation | `speculative_charge_never_steals_the_pool_from_demand_staging`, `outside_allocation_consumes_speculative_headroom_without_double_counting`, `outside_allocation_overhang_is_repaired_before_any_new_speculation` in `crates/runtime/src/transfer.rs` |
//! | speculation has one bound, the free device memory: with room to spare it holds every qualifying region, and `slice_used` never passes the free bytes | `speculation_grows_to_the_free_device_memory` in `crates/runtime/src/transfer.rs`; the per-round assert in `TransferManager`'s planner |
//! | a spill splits the edge list on a [`SPILL_ALIGN`] boundary; spilling without a CXL tier is rejected | `bounded_host_spills_edge_tail_to_cxl`, `spill_without_cxl_tier_is_rejected` below |
//! | tier decisions are pure (no `Machine`, clock or monitor reads) | `cargo test --test sim_golden`: a live clock feeding `decide_tiered` fails both matrix tests (seed in its header) |
//!
//! The `tiering` experiment runs the bigger-than-host-DRAM regime on GK.

use crate::compact::Packed;
use crate::kernel::WorkSlice;
use emogi_gpu::access::Space;
use emogi_graph::compress::CompressedCsr;
use emogi_graph::CsrGraph;
use emogi_runtime::alloc::device_charge;
use emogi_runtime::machine::law;
use emogi_runtime::report::RunStats;
use emogi_runtime::{
    Machine, PrefetchConfig, Prefetcher, TransferConfig, TransferManager, CXL_BASE, HOST_BASE,
};
use emogi_sim::pipeline::CopyEngineConfig;
use emogi_sim::time::Time;
use std::ops::Range;

/// Granularity of the host/CXL split when the edge list spills past a
/// bounded host DRAM: the host-resident prefix is aligned down to 64 KiB
/// (the transfer manager's default region size) so it lands on a region
/// boundary for every power-of-two region size up to 64 KiB. Larger
/// region configurations are rejected by the transfer manager's own
/// boundary assertion.
pub const SPILL_ALIGN: u64 = 64 << 10;

/// Where the edge list lives and how it reaches the GPU. Every value is
/// a complete, legal configuration: staging exists only over pinned host
/// memory, and a prefetcher only next to the transfer manager it feeds.
/// The hybrid transport has two settings, a region size and a switch;
/// its rent/buy points are constants of the home tier
/// (`emogi_uvm::MemoryTier::stage_threshold`), and speculation is bounded
/// by the free device memory alone.
#[derive(Debug, Clone)]
pub enum Transport {
    /// EMOGI: pinned host memory, zero-copy cache-line reads.
    ZeroCopy,
    /// Baseline: UVM-managed memory, 4 KiB page migration on fault.
    Uvm,
    /// Pinned host memory, with dense / recurring regions bulk-staged
    /// into device memory by the runtime's transfer manager and the rest
    /// read zero-copy.
    Hybrid {
        /// The transfer manager's region size.
        transfer: TransferConfig,
        /// Pipelined execution: overlap the staging DMA with kernel
        /// compute by speculatively prefetching predicted-reuse regions
        /// onto an asynchronous copy lane; `false` stages synchronously.
        /// Outputs, iteration counts and traffic counters are
        /// bit-identical either way; only elapsed time (and the
        /// `RunStats::prefetch` counters) change.
        pipelined: bool,
    },
    /// The §6 extension: the edge list delta-varint-compressed
    /// (`emogi_graph::compress`) once, at placement, into pinned host
    /// memory, read zero-copy in 8-byte words and decoded on the warp's
    /// lanes, which idle on link latency anyway
    /// ([`WarpWalk`](crate::walk::WarpWalk)). Only whole warps walk
    /// compressed lists: the driver refuses it under Naive.
    Compressed,
    /// Subway (§5.6): the edge list and weights in pinned host memory,
    /// and before every launch the launch's lists gathered on the host
    /// into a packed subgraph, copied into a device buffer with one
    /// `cudaMemcpy` and read there (`compact.rs`). The buffer is the
    /// smaller of the free device memory and the whole graph's subgraph;
    /// a larger iteration runs in buffer-sized chunks.
    Compacted,
}

/// Where a layout redirects a launch's edge-list reads into device
/// memory: at most one of the two, so the zero-copy address path tests
/// one discriminant.
#[derive(Debug)]
pub(crate) enum Redirect {
    /// [`Transport::Hybrid`]: the per-region zero-copy / DMA transfer
    /// manager, the one record of staged regions.
    Staged(TransferManager),
    /// [`Transport::Compacted`]: the packed subgraph buffer.
    Packed(Packed),
}

/// A graph placed on one device: the simulated addresses of every array
/// a traversal kernel touches, and the state that manages them across
/// runs.
#[derive(Debug)]
pub struct GraphLayout {
    /// Edge list base (host-pinned or managed).
    pub edge_base: u64,
    /// Edge weights base (same space as the edge list); placed by the
    /// driver when the first program that streams edge data runs.
    pub weight_base: Option<u64>,
    /// Vertex list (CSR offsets) in device memory, 8-byte entries.
    pub vertex_base: u64,
    /// Status array (BFS level / SSSP distance / CC label) in device
    /// memory, 4-byte entries.
    pub status_base: u64,
    /// Simulated size of one edge element (8 by default; 4 for Subway
    /// and the EMOGI side it is compared with, §5.6); under
    /// [`Transport::Compressed`], of one word of the compressed stream
    /// (8).
    pub elem_bytes: u64,
    /// Space the edge and weight arrays live in.
    pub edge_space: Space,
    /// Bytes of the edge list resident in its primary home
    /// (pinned host or managed). Equal to the full edge-list size unless
    /// a bounded host DRAM forced the tail past it.
    pub host_edge_bytes: u64,
    /// Base of the CXL-resident tail of the edge list; present only when
    /// host capacity forced a spill into the external tier.
    pub cxl_edge_base: Option<u64>,
    /// Present exactly under [`Transport::Hybrid`] (the transfer
    /// manager) and [`Transport::Compacted`] (the packed buffer).
    pub(crate) redirect: Option<Redirect>,
    /// Pipelined hybrid only: the speculative prefetcher feeding the
    /// manager's asynchronous copy lane.
    pub(crate) prefetcher: Option<Prefetcher>,
    /// Present exactly under [`Transport::Compressed`]: the byte offset
    /// of every element's varint in the compressed stream, then the
    /// stream's length (`|E| + 1` entries).
    pub(crate) compressed: Option<Vec<u64>>,
    /// Batched multi-query status: one vertex-major block and its
    /// capacity in query slots, allocated on first use and reused by
    /// every batch it holds.
    pub(crate) batch_block: Option<(u64, usize)>,
    /// The batched visit mask: one `u64` per vertex, bit `q` for query
    /// slot `q`; allocated on the first multi-member batch of a program
    /// that needs only a visited bit.
    pub(crate) visit_mask: Option<u64>,
}

/// Where a launch's member queries keep their status. Slot `q`'s entry
/// for vertex `v` is the 4-byte word at `base + v·stride + q·4`: a solo
/// run has stride 4, a batch of `k` members stride `4k`, so the members'
/// entries for one vertex are adjacent and share sectors. With `mask`,
/// destination gathers read the one 8-byte visit-mask word of `v` at
/// `mask + v·8` for every member instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusPlace {
    /// Slot 0's entry for vertex 0.
    pub base: u64,
    /// Bytes between one vertex's entries and the next vertex's.
    pub stride: u64,
    /// Base of the shared visit mask, when the launch gathers it.
    pub mask: Option<u64>,
}

impl StatusPlace {
    /// One query's own status array at `base`.
    pub fn solo(base: u64) -> Self {
        Self {
            base,
            stride: 4,
            mask: None,
        }
    }

    /// Address of slot `q`'s entry for `v`.
    #[inline]
    pub fn entry(&self, v: u64, q: usize) -> u64 {
        self.base + v * self.stride + q as u64 * 4
    }
}

impl GraphLayout {
    /// Allocate the arrays for `graph` on `machine` per the placement
    /// discipline above. A pinned-host edge list — raw or compressed —
    /// that exceeds a bounded host DRAM spills its tail into the CXL
    /// tier. Under [`Transport::Hybrid`] the host/CXL split becomes the
    /// transfer manager's tier homes, so a spilled tail is promoted over
    /// the CXL link rather than the PCIe lane; the copy lane takes the
    /// machine's PCIe overhead, bandwidth and framing, so its
    /// hidden-latency estimates follow the synchronous DMA path without
    /// its propagation term. Under [`Transport::Compacted`] the packed
    /// buffer is the last device allocation.
    pub fn place(
        machine: &mut Machine,
        graph: &CsrGraph,
        elem_bytes: u64,
        transport: &Transport,
    ) -> GraphLayout {
        assert!(
            elem_bytes == 4 || elem_bytes == 8,
            "CSR elements are 4 or 8 bytes"
        );
        let compressed = matches!(transport, Transport::Compressed)
            .then(|| CompressedCsr::encode(graph).element_offsets());
        let (elem_bytes, edge_bytes) = match &compressed {
            Some(offsets) => (8, offsets[offsets.len() - 1]),
            None => (elem_bytes, graph.num_edges() as u64 * elem_bytes),
        };
        let (edge_space, edge_base, host_edge_bytes, cxl_edge_base) = match transport {
            Transport::ZeroCopy
            | Transport::Hybrid { .. }
            | Transport::Compressed
            | Transport::Compacted => {
                let avail = machine.host_free();
                let host_part = if avail >= edge_bytes {
                    edge_bytes
                } else {
                    avail / SPILL_ALIGN * SPILL_ALIGN
                };
                let spill = edge_bytes - host_part;
                assert!(
                    spill == 0 || machine.cxl.is_some(),
                    "edge list ({edge_bytes} B) exceeds host DRAM capacity \
                     ({avail} B free) and the machine has no CXL tier to \
                     spill into (MachineConfig::with_cxl)"
                );
                let edge_base = machine.alloc_host_pinned(host_part);
                let cxl_edge_base = (spill > 0).then(|| machine.alloc_cxl(spill));
                (Space::HostPinned, edge_base, host_part, cxl_edge_base)
            }
            Transport::Uvm => {
                let edge_base = machine.alloc_managed(edge_bytes);
                (Space::Managed, edge_base, edge_bytes, None)
            }
        };
        let vertex_base = machine.alloc_device(graph.vertex_list_bytes());
        let status_base = machine.alloc_device(graph.num_vertices() as u64 * 4);
        let (redirect, prefetcher) = match transport {
            Transport::Hybrid {
                transfer,
                pipelined,
            } => {
                let tm = TransferManager::with_tiers(edge_bytes, host_edge_bytes, transfer.clone());
                let copy = CopyEngineConfig::from_pcie(&machine.cfg.pcie);
                let pf = pipelined.then(|| Prefetcher::new(tm.num_regions(), PrefetchConfig, copy));
                (Some(Redirect::Staged(tm)), pf)
            }
            Transport::Compacted => {
                let packed = Packed::new(machine, graph, elem_bytes);
                (Some(Redirect::Packed(packed)), None)
            }
            Transport::ZeroCopy | Transport::Uvm | Transport::Compressed => (None, None),
        };
        GraphLayout {
            edge_base,
            weight_base: None,
            vertex_base,
            status_base,
            elem_bytes,
            edge_space,
            host_edge_bytes,
            cxl_edge_base,
            redirect,
            prefetcher,
            compressed,
            batch_block: None,
            visit_mask: None,
        }
    }

    /// Place the auxiliary 4-byte-per-edge data array in the edge list's
    /// space, if not already placed. The edge-space bump allocator is
    /// independent of the device one, so the array lands at the same
    /// address it would have at load time.
    pub(crate) fn ensure_edge_data(&mut self, machine: &mut Machine, graph: &CsrGraph) {
        if self.weight_base.is_some() {
            return;
        }
        let bytes = graph.num_edges() as u64 * 4;
        self.weight_base = Some(if self.edge_space == Space::Managed {
            assert!(
                machine.uvm.is_none(),
                "place edge data before the first managed kernel runs \
                 (the UVM driver's span is fixed at initialization)"
            );
            machine.alloc_managed(bytes)
        } else {
            machine.alloc_host_pinned(bytes)
        });
    }

    /// Ensure batched status for up to `want` query slots of
    /// `num_vertices` entries each — one vertex-major block, plus the
    /// visit mask when `visit_mask` and more than one slot — reused
    /// across batches. A block of capacity `c` serves any batch of
    /// `k ≤ c`; a larger batch allocates a larger block (the simulated
    /// allocator never frees). The transfer manager reads the same
    /// allocator, so staging can never outrun the real device capacity.
    /// Best-effort: when device memory is short (e.g. staging already
    /// filled it) or the UVM driver has pinned the device layout, fewer
    /// slots are returned, possibly none.
    pub(crate) fn ensure_batch_status(
        &mut self,
        machine: &mut Machine,
        num_vertices: usize,
        want: usize,
        visit_mask: bool,
    ) -> usize {
        let n = num_vertices as u64;
        let have = self.batch_block.map_or(0, |(_, c)| c);
        let mask_missing = |k: usize| visit_mask && k > 1 && self.visit_mask.is_none();
        // Slots usable without allocating.
        let usable = if mask_missing(have.min(want)) {
            have.min(1)
        } else {
            have.min(want)
        };
        if usable == want || machine.uvm.is_some() {
            return usable;
        }
        let free = machine.spaces.device_free();
        let cost = |k: usize| {
            let block = (k > have).then(|| device_charge(k as u64 * n * 4));
            let mask = mask_missing(k).then(|| device_charge(n * 8));
            block.unwrap_or(0) + mask.unwrap_or(0)
        };
        let Some(k) = (usable + 1..=want).rev().find(|&k| cost(k) <= free) else {
            return usable;
        };
        // The mask first: it is allocated once, while a wider batch later
        // allocates a new block after it.
        if mask_missing(k) {
            self.visit_mask = Some(machine.alloc_device(n * 8));
        }
        if k > have {
            self.batch_block = Some((machine.alloc_device(k as u64 * n * 4), k));
        }
        k
    }

    /// The status of a `k`-member batch in the block
    /// [`ensure_batch_status`](Self::ensure_batch_status) provided, with
    /// the visit mask when `visit_mask` and `k > 1`. A one-member batch
    /// keeps stride 4 and no mask: it addresses like a solo run.
    pub(crate) fn batch_status(&self, k: usize, visit_mask: bool) -> StatusPlace {
        let (block, cap) = self.batch_block.expect("batch status ensured");
        assert!(k <= cap, "batch of {k} in a block of {cap} slots");
        StatusPlace {
            base: block,
            stride: k as u64 * 4,
            mask: (visit_mask && k > 1).then(|| self.visit_mask.expect("visit mask ensured")),
        }
    }

    /// The launch chunks of one device's iteration `items`: consecutive
    /// item ranges, one launch each. Only a packed subgraph larger than
    /// its buffer has more than one.
    pub(crate) fn chunks(&self, items: &[WorkSlice]) -> Vec<Range<usize>> {
        match &self.redirect {
            Some(Redirect::Packed(p)) => p.chunks(items, self.weight_base.is_some()),
            _ => std::iter::once(0..items.len()).collect(),
        }
    }

    /// Prepare the launch of work `items`, the iteration's first chunk
    /// when `first`, advancing the machine clock. Hybrid: let the
    /// transfer manager stage regions of exactly the edge-list byte
    /// ranges the launch will read, then feed the asynchronous lane with
    /// the next iteration's predicted regions so their copies overlap the
    /// kernel launched right after. Compacted: pack the items' subgraph,
    /// its generation overlapping the device's previous kernel
    /// (`prev_kernel_ns`).
    pub(crate) fn plan(
        &mut self,
        machine: &mut Machine,
        items: &[WorkSlice],
        first: bool,
        prev_kernel_ns: Time,
    ) {
        let (elem, weighted) = (self.elem_bytes, self.weight_base.is_some());
        let ranges = items.iter().map(|&(_, lo, hi)| (lo * elem, hi * elem));
        match (&mut self.redirect, self.prefetcher.as_mut()) {
            (Some(Redirect::Staged(tm)), Some(p)) => {
                tm.plan_iteration_pipelined(machine, ranges, p);
                tm.prefetch_for_next(machine.now, p);
            }
            (Some(Redirect::Staged(tm)), None) => {
                tm.plan_iteration(machine, ranges);
            }
            (Some(Redirect::Packed(p)), _) => {
                p.pack(machine, items, weighted, first, prev_kernel_ns)
            }
            (None, _) => {}
        }
    }

    /// The device's cumulative counters: the machine's own, plus the
    /// transfer manager's and prefetcher's, which live outside it.
    pub(crate) fn counters(&self, machine: &Machine) -> RunStats {
        let mut c = machine.counters();
        if let Some(Redirect::Staged(tm)) = &self.redirect {
            c.transfer = tm.stats;
        }
        if let Some(p) = &self.prefetcher {
            c.prefetch = p.stats;
        }
        c
    }

    /// Panic unless `machine`'s ledgers agree with this placement's:
    /// [`Machine::check_invariants`], plus every DMA byte being a
    /// host-homed staging copy (demand or adopted) or a packed subgraph,
    /// every host-to-GPU byte of a compacted placement a packed one,
    /// every CXL bulk byte a CXL promotion, and — with a prefetcher —
    /// every adopted or evicted speculative byte having been prefetched,
    /// every adopted byte counted as DMA. [`Driver::drive`](crate::driver::Driver::drive)
    /// runs it on every device when its loop ends.
    pub(crate) fn check_ledgers(&self, machine: &Machine) {
        machine.check_invariants();
        law(
            "last_warp_alone_ns <= elapsed_ns",
            machine.last_warp_alone_ns,
            machine.now,
            u64::le,
        );
        law(
            "barrier_wait_ns <= elapsed_ns",
            machine.barrier_wait_ns,
            machine.now,
            u64::le,
        );
        let (staged, packed) = match &self.redirect {
            Some(Redirect::Staged(tm)) => (tm.stats, 0),
            Some(Redirect::Packed(p)) => {
                law(
                    "host_bytes == compacted_bytes",
                    machine.monitor.host_to_gpu_bytes(),
                    p.bytes,
                    u64::eq,
                );
                (Default::default(), p.bytes)
            }
            None => Default::default(),
        };
        let dma = machine.dma.bytes_to_device;
        law(
            "dma.bytes_to_device == staged_bytes - cxl_staged_bytes + compacted_bytes",
            dma,
            staged.staged_bytes - staged.cxl_staged_bytes + packed,
            u64::eq,
        );
        law(
            "cxl.bulk_bytes == cxl_staged_bytes",
            machine.cxl.as_ref().map_or(0, |c| c.bulk_bytes),
            staged.cxl_staged_bytes,
            u64::eq,
        );
        if let Some(p) = &self.prefetcher {
            let s = &p.stats;
            law(
                "hit_bytes + wasted_bytes <= prefetched_bytes",
                s.hit_bytes + s.wasted_bytes,
                s.prefetched_bytes,
                u64::le,
            );
            law(
                "hit_bytes <= dma.bytes_to_device",
                s.hit_bytes,
                dma,
                u64::le,
            );
        }
    }

    /// Elements per 128-byte cache line (16 for 8-byte, 32 for 4-byte).
    #[inline]
    pub fn elems_per_line(&self) -> u64 {
        128 / self.elem_bytes
    }

    /// Address of edge-list element `i`. In hybrid mode a region the
    /// transfer manager staged redirects into device memory, and under
    /// compaction every element of the packed launch does; offsets past
    /// the host-resident prefix resolve into the CXL spill tail.
    #[inline]
    pub fn edge_addr(&self, i: u64) -> u64 {
        let off = i * self.elem_bytes;
        match &self.redirect {
            None => self.byte_addr(off),
            Some(Redirect::Staged(tm)) => tm.translate(off).unwrap_or_else(|| self.byte_addr(off)),
            Some(Redirect::Packed(p)) => p.edge_addr(i),
        }
    }

    /// Address of byte `off` of the edge list as placed: offsets past the
    /// host-resident prefix resolve into the CXL spill tail.
    #[inline]
    fn byte_addr(&self, off: u64) -> u64 {
        match self.cxl_edge_base {
            Some(cxl) if off >= self.host_edge_bytes => cxl + (off - self.host_edge_bytes),
            _ => self.edge_base + off,
        }
    }

    /// Space of an edge-list access at `addr` (as produced by
    /// [`edge_addr`](Self::edge_addr)): staged addresses live below the
    /// pinned-host window and are priced as device memory; spilled
    /// addresses live at or above the CXL window and are priced over the
    /// CXL link.
    #[inline]
    pub fn edge_addr_space(&self, addr: u64) -> Space {
        if addr < HOST_BASE {
            Space::Device
        } else if addr >= CXL_BASE {
            Space::Cxl
        } else {
            self.edge_space
        }
    }

    /// Address of weight element `i`: in the packed buffer under
    /// compaction, else in the edge list's space, never staged or spilled.
    #[inline]
    pub fn weight_addr(&self, i: u64) -> u64 {
        if let Some(Redirect::Packed(p)) = &self.redirect {
            return p.weight_addr(i);
        }
        self.weight_base.expect("layout has no weights") + i * 4
    }

    /// Device address of vertex-list entry `v`.
    #[inline]
    pub fn vertex_addr(&self, v: u64) -> u64 {
        self.vertex_base + v * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emogi_graph::generators;
    use emogi_runtime::machine::MachineConfig;
    use emogi_runtime::{DEVICE_BASE, HOST_BASE, MANAGED_BASE};

    #[test]
    fn zero_copy_placement_uses_pinned_host() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        let g = generators::uniform_random(1000, 8, 1);
        let l = GraphLayout::place(&mut m, &g, 8, &Transport::ZeroCopy);
        assert!(l.edge_base >= HOST_BASE);
        assert!(l.weight_base.is_none(), "weights are placed on demand");
        assert!(l.vertex_base >= DEVICE_BASE && l.vertex_base < HOST_BASE);
        assert_eq!(l.elems_per_line(), 16);
        assert_eq!(l.edge_addr(2), l.edge_base + 16);
    }

    #[test]
    fn uvm_placement_uses_managed_space() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        let g = generators::uniform_random(1000, 8, 1);
        let l = GraphLayout::place(&mut m, &g, 8, &Transport::Uvm);
        assert!(l.edge_base >= MANAGED_BASE);
        assert!(l.weight_base.is_none());
        assert_eq!(l.edge_space, Space::Managed);
    }

    #[test]
    fn four_byte_elements() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        let g = generators::uniform_random(100, 4, 1);
        let l = GraphLayout::place(&mut m, &g, 4, &Transport::ZeroCopy);
        assert_eq!(l.elems_per_line(), 32);
        assert_eq!(l.edge_addr(3), l.edge_base + 12);
    }

    #[test]
    fn batch_status_is_one_vertex_major_block_plus_one_visit_mask() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        let g = generators::uniform_random(1000, 8, 1);
        let mut l = GraphLayout::place(&mut m, &g, 8, &Transport::ZeroCopy);
        let n = g.num_vertices();
        // A pair that needs no mask: one block, members adjacent.
        assert_eq!(l.ensure_batch_status(&mut m, n, 2, false), 2);
        let pair = l.batch_status(2, false);
        assert_eq!((pair.stride, pair.mask), (8, None));
        assert_eq!(pair.entry(5, 1), pair.base + 5 * 8 + 4);
        // A wider visited-bit batch: the mask once, then a new block.
        assert_eq!(l.ensure_batch_status(&mut m, n, 3, true), 3);
        let trio = l.batch_status(3, true);
        assert!(trio.mask.is_some() && trio.base > pair.base);
        // Narrower batches reuse both; a batch of one has no mask.
        let free = m.spaces.device_free();
        assert_eq!(l.ensure_batch_status(&mut m, n, 2, true), 2);
        assert_eq!(l.ensure_batch_status(&mut m, n, 1, true), 1);
        assert_eq!(m.spaces.device_free(), free, "nothing allocated");
        assert_eq!(l.batch_status(2, true).mask, trio.mask);
        let one = StatusPlace::solo(trio.base);
        assert_eq!(l.batch_status(1, true), one);
    }

    #[test]
    fn unbounded_host_never_spills() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        let g = generators::uniform_random(1000, 8, 1);
        let l = GraphLayout::place(&mut m, &g, 8, &Transport::ZeroCopy);
        assert_eq!(l.host_edge_bytes, g.num_edges() as u64 * 8);
        assert!(l.cxl_edge_base.is_none());
        assert_eq!(l.edge_addr_space(l.edge_base), Space::HostPinned);
    }

    #[test]
    fn bounded_host_spills_edge_tail_to_cxl() {
        use emogi_runtime::CXL_BASE;
        use emogi_sim::CxlConfig;
        let g = generators::uniform_random(100_000, 10, 1); // ~8 MB of edges
        let mut m = Machine::new(
            MachineConfig::v100_gen3()
                .with_cxl(CxlConfig::external_x8())
                .with_host_capacity(3 << 20),
        );
        let l = GraphLayout::place(&mut m, &g, 8, &Transport::ZeroCopy);
        assert_eq!(l.host_edge_bytes, 3 << 20, "prefix aligned to SPILL_ALIGN");
        let cxl = l.cxl_edge_base.expect("tail spilled");
        assert!(cxl >= CXL_BASE);
        // Addresses on each side of the split resolve to the right tier.
        let boundary = l.host_edge_bytes / 8;
        assert_eq!(
            l.edge_addr(boundary - 1),
            l.edge_base + l.host_edge_bytes - 8
        );
        assert_eq!(l.edge_addr(boundary), cxl);
        assert_eq!(l.edge_addr(boundary + 1), cxl + 8);
        assert_eq!(l.edge_addr_space(l.edge_addr(boundary)), Space::Cxl);
        assert_eq!(
            l.edge_addr_space(l.edge_addr(boundary - 1)),
            Space::HostPinned
        );
    }

    #[test]
    #[should_panic(expected = "no CXL tier")]
    fn spill_without_cxl_tier_is_rejected() {
        let g = generators::uniform_random(100_000, 10, 1);
        let mut m = Machine::new(MachineConfig::v100_gen3().with_host_capacity(1 << 20));
        let _ = GraphLayout::place(&mut m, &g, 8, &Transport::ZeroCopy);
    }

    #[test]
    #[should_panic(expected = "4 or 8")]
    fn bad_element_size_rejected() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        let g = generators::uniform_random(10, 2, 1);
        let _ = GraphLayout::place(&mut m, &g, 16, &Transport::ZeroCopy);
    }
}
