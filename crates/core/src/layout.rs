//! Where a graph's pieces live on the machine.
//!
//! EMOGI's placement (§4.2): "The edge list is allocated in the host
//! memory as it doesn't fit in GPU memory, but other small data structures
//! such as buffers and the vertex list are allocated in GPU memory." The
//! UVM baseline (§5.1.2) differs only in putting the edge list (and the
//! weight list, for SSSP) into the managed space. That one decision —
//! where the edge list lives and how it reaches the GPU — is a
//! [`Transport`].
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
//! capacity check — a recorded defect, ROADMAP item 2(b)); spilling
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
//! whether to stay in place or bulk-stage the region into a bounded HBM
//! pool (one rent/buy rule, one threshold per home tier — see
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
//! | speculation never lowers the demand budget; a reservation that leaves `slice_used > pool` is repaired before the next speculation | `speculative_charge_never_steals_the_pool_from_demand_staging`, `reserve_consumes_speculative_headroom_without_double_counting`, `reserve_overhang_is_repaired_before_any_new_speculation` in `crates/runtime/src/transfer.rs` |
//! | a spill splits the edge list on a [`SPILL_ALIGN`] boundary; spilling without a CXL tier is rejected | `bounded_host_spills_edge_tail_to_cxl`, `spill_without_cxl_tier_is_rejected` below |
//! | tier decisions are pure (no `Machine`, clock or monitor reads) | `emogi-lint` kernel-purity over `crates/uvm` + the tier fixtures/guard in `tools/lint` |
//!
//! The `tiering` experiment runs the bigger-than-host-DRAM regime on GK.

use emogi_gpu::access::Space;
use emogi_graph::CsrGraph;
use emogi_runtime::{Machine, PrefetchConfig, RegionMap, TransferConfig, CXL_BASE, HOST_BASE};

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
        /// The transfer manager's region size, pool budget and policy.
        transfer: TransferConfig,
        /// Pipelined execution: overlap the staging DMA with kernel
        /// compute by speculatively prefetching predicted-reuse regions
        /// onto an asynchronous copy lane; `None` stages synchronously.
        /// Outputs, iteration counts and traffic counters are
        /// bit-identical either way; only elapsed time (and the
        /// `RunStats::prefetch` counters) change.
        prefetch: Option<PrefetchConfig>,
    },
}

/// Simulated addresses of every array a traversal kernel touches.
#[derive(Debug, Clone)]
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
    /// Simulated size of one edge element (8 by default; 4 in the §5.6
    /// Subway comparison).
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
    /// Hybrid mode only: regions of the edge list staged into device
    /// memory by the transfer manager; refreshed before each launch.
    pub staged_edges: Option<RegionMap>,
}

impl GraphLayout {
    /// Allocate the arrays for `graph` on `machine` per the placement
    /// discipline above. A pinned-host edge list that exceeds a bounded
    /// host DRAM spills its tail into the CXL tier.
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
        let edge_bytes = graph.num_edges() as u64 * elem_bytes;
        let (edge_space, edge_base, host_edge_bytes, cxl_edge_base) = match transport {
            Transport::ZeroCopy | Transport::Hybrid { .. } => {
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
        GraphLayout {
            edge_base,
            weight_base: None,
            vertex_base,
            status_base,
            elem_bytes,
            edge_space,
            host_edge_bytes,
            cxl_edge_base,
            staged_edges: None,
        }
    }

    /// Elements per 128-byte cache line (16 for 8-byte, 32 for 4-byte).
    #[inline]
    pub fn elems_per_line(&self) -> u64 {
        128 / self.elem_bytes
    }

    /// Address of edge-list element `i`. In hybrid mode a staged region
    /// redirects into device memory; offsets past the host-resident
    /// prefix resolve into the CXL spill tail.
    #[inline]
    pub fn edge_addr(&self, i: u64) -> u64 {
        let off = i * self.elem_bytes;
        if let Some(map) = &self.staged_edges {
            if let Some(dev) = map.translate(off) {
                return dev;
            }
        }
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

    /// Address of weight element `i`.
    #[inline]
    pub fn weight_addr(&self, i: u64) -> u64 {
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
