//! Warp-level memory accesses.
//!
//! A kernel step produces one [`AccessBatch`] per warp: the set of loads and
//! stores the warp's 32 lanes issue together, plus the compute time the step
//! consumed. The executor coalesces the batch ([`crate::coalesce`]), prices
//! the resulting transactions, and resumes the warp when they complete —
//! the lock-step load-use model of the paper's Listing 1/2 kernels.

/// Number of lanes per warp. EMOGI deliberately fixes the worker size to a
/// full warp (§4.3.1: "EMOGI always fixes the worker size to an entire
/// warp (i.e., 32 threads)").
pub const WARP_SIZE: usize = 32;

/// Address space targeted by an access. The first three spaces have the
/// three cost models of §2.2/§3: device memory is HBM behind the cache,
/// host pinned memory is zero-copy over PCIe, and managed memory is UVM
/// with page migration. `Cxl` is the microsecond-latency external tier of
/// the CXL follow-up paper — load/store served over a CXL.mem-style link
/// with no PCIe tag semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// GPU device memory (vertex list, status arrays, output buffers).
    Device,
    /// Pinned host memory accessed zero-copy over PCIe (the edge list).
    HostPinned,
    /// UVM-managed memory, resident wherever the driver last put it.
    Managed,
    /// CXL-class external memory: cold edge regions spilled past host DRAM.
    Cxl,
}

/// One lane's memory access within a warp step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAccess {
    pub addr: u64,
    /// Access width in bytes (4 or 8 for CSR elements).
    pub size: u8,
    /// Adjacent lanes of the same instruction reading `count` consecutive
    /// `size`-byte elements from `addr` up — a *span*, equal by
    /// definition to those `count` single-lane accesses. 1 for one lane.
    pub count: u8,
    /// Instruction group: the hardware coalescing unit merges lane
    /// accesses of the *same load instruction*; accesses from different
    /// loop iterations issued together (memory-level parallelism within a
    /// lane) never merge with each other. This is why the Naive kernel's
    /// per-lane sweeps stay 32-byte requests on the wire even though each
    /// lane has several loads in flight.
    pub instr: u8,
    pub space: Space,
    /// `true` for stores; stores are fire-and-forget (they retire through a
    /// write buffer and do not stall the warp) but still cost bandwidth.
    pub store: bool,
}

impl LaneAccess {
    #[inline]
    pub fn load(addr: u64, size: u8, space: Space) -> Self {
        Self {
            addr,
            size,
            count: 1,
            instr: 0,
            space,
            store: false,
        }
    }

    #[inline]
    pub fn store(addr: u64, size: u8, space: Space) -> Self {
        Self {
            addr,
            size,
            count: 1,
            instr: 0,
            space,
            store: true,
        }
    }

    #[inline]
    pub fn with_instr(mut self, instr: u8) -> Self {
        self.instr = instr;
        self
    }
}

/// The accesses of one warp step. Reused as scratch by the executor —
/// `clear` between steps, push up to a few accesses per lane.
#[derive(Debug, Default, Clone)]
pub struct AccessBatch {
    items: Vec<LaneAccess>,
    /// Bytes the lanes asked for: `size x count` over `items`.
    lane_bytes: u64,
    /// Compute time consumed by the step before the accesses issue, ns.
    pub compute_ns: u32,
}

impl AccessBatch {
    pub fn new() -> Self {
        Self {
            items: Vec::with_capacity(2 * WARP_SIZE),
            lane_bytes: 0,
            compute_ns: 0,
        }
    }

    #[inline]
    pub fn clear(&mut self) {
        self.items.clear();
        self.lane_bytes = 0;
        self.compute_ns = 0;
    }

    #[inline]
    pub fn push(&mut self, access: LaneAccess) {
        self.lane_bytes += u64::from(access.size) * u64::from(access.count);
        self.items.push(access);
    }

    #[inline]
    pub fn load(&mut self, addr: u64, size: u8, space: Space) {
        self.push(LaneAccess::load(addr, size, space));
    }

    /// `count` adjacent lanes of one load instruction reading consecutive
    /// `size`-byte elements from `addr` up, as one item.
    #[inline]
    pub fn load_span(&mut self, addr: u64, size: u8, count: u8, space: Space) {
        self.push(LaneAccess {
            count,
            ..LaneAccess::load(addr, size, space)
        });
    }

    /// Load belonging to a specific instruction group (loop iteration).
    #[inline]
    pub fn load_instr(&mut self, addr: u64, size: u8, space: Space, instr: u8) {
        self.push(LaneAccess::load(addr, size, space).with_instr(instr));
    }

    #[inline]
    pub fn store(&mut self, addr: u64, size: u8, space: Space) {
        self.push(LaneAccess::store(addr, size, space));
    }

    #[inline]
    pub fn items(&self) -> &[LaneAccess] {
        &self.items
    }

    /// Bytes the lanes asked for since the last `clear` (the numerator
    /// of coalescing efficiency).
    #[inline]
    pub fn lane_bytes(&self) -> u64 {
        self.lane_bytes
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accumulates_and_clears() {
        let mut b = AccessBatch::new();
        b.load(0x100, 8, Space::HostPinned);
        b.store(0x200, 4, Space::Device);
        b.compute_ns = 7;
        assert_eq!(b.len(), 2);
        assert!(!b.items()[0].store);
        assert!(b.items()[1].store);
        assert_eq!(b.lane_bytes(), 12);
        b.clear();
        assert!(b.is_empty());
        assert_eq!((b.compute_ns, b.lane_bytes()), (0, 0));
    }

    #[test]
    fn a_span_is_one_item_of_count_lanes() {
        let mut b = AccessBatch::new();
        b.load_span(0x1000, 8, 21, Space::HostPinned);
        assert_eq!(b.len(), 1);
        assert_eq!(b.lane_bytes(), 8 * 21);
        let a = b.items()[0];
        assert_eq!((a.addr, a.size, a.count, a.instr), (0x1000, 8, 21, 0));
        assert!(!a.store);
    }

    #[test]
    fn constructors_set_fields() {
        let l = LaneAccess::load(16, 8, Space::Managed);
        assert_eq!(
            (l.addr, l.size, l.space, l.store),
            (16, 8, Space::Managed, false)
        );
        let s = LaneAccess::store(32, 4, Space::Device);
        assert!(s.store);
    }
}
