//! Simulated address spaces.
//!
//! EMOGI's placement discipline (§4.2): the vertex list and status arrays
//! live in GPU memory, the edge list is pinned in host memory and accessed
//! zero-copy; the UVM baseline instead puts the edge list in managed
//! memory. Each placement is a distinct region of the simulated physical
//! address space, far enough apart that no transaction can straddle two
//! spaces. No data lives at these addresses — kernels keep real Rust
//! arrays and use the addresses only for traffic modelling.

/// Base of the device-memory region.
pub const DEVICE_BASE: u64 = 0x1_0000_0000_0000;
/// Base of the pinned-host (zero-copy) region.
pub const HOST_BASE: u64 = 0x2_0000_0000_0000;
/// Base of the UVM-managed region.
pub const MANAGED_BASE: u64 = 0x3_0000_0000_0000;
/// Base of the CXL external-memory region (the cold spill tier).
pub const CXL_BASE: u64 = 0x4_0000_0000_0000;

/// Bump allocators for the four spaces.
#[derive(Debug, Clone)]
pub struct AddressSpaces {
    device_cursor: u64,
    host_cursor: u64,
    managed_cursor: u64,
    cxl_cursor: u64,
    device_capacity: u64,
}

impl AddressSpaces {
    /// Fresh spaces for a machine with `device_capacity` bytes of device
    /// memory.
    pub fn new(device_capacity: u64) -> Self {
        Self {
            device_cursor: DEVICE_BASE,
            host_cursor: HOST_BASE,
            managed_cursor: MANAGED_BASE,
            cxl_cursor: CXL_BASE,
            device_capacity,
        }
    }

    /// Allocate `bytes` of device memory (128-byte aligned, like
    /// `cudaMalloc`). Panics if the scaled device capacity is exceeded —
    /// the experiments size their explicit allocations to fit.
    pub fn alloc_device(&mut self, bytes: u64) -> u64 {
        let addr = self.device_cursor;
        self.device_cursor += align128(bytes);
        assert!(
            self.device_used() <= self.device_capacity,
            "device allocation of {bytes} B exceeds capacity {} B",
            self.device_capacity
        );
        addr
    }

    /// Allocate pinned host memory (`cudaMallocHost`; 4 KiB aligned as the
    /// pinning granularity is a page).
    pub fn alloc_host_pinned(&mut self, bytes: u64) -> u64 {
        let addr = self.host_cursor;
        self.host_cursor += align4k(bytes);
        addr
    }

    /// Allocate managed memory (`cudaMallocManaged`; page aligned).
    pub fn alloc_managed(&mut self, bytes: u64) -> u64 {
        let addr = self.managed_cursor;
        self.managed_cursor += align4k(bytes);
        addr
    }

    /// Allocate CXL external memory (page aligned, like host pinning —
    /// the expander is mapped at page granularity).
    pub fn alloc_cxl(&mut self, bytes: u64) -> u64 {
        let addr = self.cxl_cursor;
        self.cxl_cursor += align4k(bytes);
        addr
    }

    /// Explicitly allocated device bytes (excludes the UVM page pool).
    pub fn device_used(&self) -> u64 {
        self.device_cursor - DEVICE_BASE
    }

    /// Total pinned host bytes allocated so far.
    pub fn host_used(&self) -> u64 {
        self.host_cursor - HOST_BASE
    }

    /// Total managed bytes allocated so far.
    pub fn managed_used(&self) -> u64 {
        self.managed_cursor - MANAGED_BASE
    }

    /// Device bytes left for the UVM page pool.
    pub fn device_free(&self) -> u64 {
        self.device_capacity.saturating_sub(self.device_used())
    }

    /// Total (scaled) device memory capacity.
    pub fn device_capacity(&self) -> u64 {
        self.device_capacity
    }
}

fn align128(bytes: u64) -> u64 {
    bytes.div_ceil(128) * 128
}

fn align4k(bytes: u64) -> u64 {
    bytes.div_ceil(4096) * 4096
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut a = AddressSpaces::new(1 << 20);
        let d1 = a.alloc_device(100);
        let d2 = a.alloc_device(1);
        assert_eq!(d1, DEVICE_BASE);
        assert_eq!(d2, DEVICE_BASE + 128);
        let h = a.alloc_host_pinned(5000);
        assert_eq!(h % 4096, 0);
        let h2 = a.alloc_host_pinned(1);
        assert_eq!(h2, h + 8192);
        let m = a.alloc_managed(1);
        assert_eq!(m, MANAGED_BASE);
    }

    #[test]
    fn cxl_allocations_are_page_aligned_and_tracked() {
        let mut a = AddressSpaces::new(1 << 20);
        let c1 = a.alloc_cxl(100);
        let c2 = a.alloc_cxl(1);
        assert_eq!(c1, CXL_BASE);
        assert_eq!(c2, CXL_BASE + 4096);
        assert_eq!(a.host_used(), 0);
    }

    #[test]
    fn device_capacity_tracking() {
        let mut a = AddressSpaces::new(1024);
        a.alloc_device(512);
        assert_eq!(a.device_used(), 512);
        assert_eq!(a.device_free(), 512);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn overcommit_device_panics() {
        let mut a = AddressSpaces::new(256);
        a.alloc_device(512);
    }
}
