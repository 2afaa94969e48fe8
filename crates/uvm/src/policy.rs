//! UVM driver tunables.
//!
//! A machine sets three values: the page size, the pool and the fault
//! batch cap. The driver's costs and granularities are constants in
//! `driver.rs`, calibrated so that a purely sequential streaming
//! workload — the UVM reference in the paper's Figure 4 toy experiment —
//! achieves ≈9 GB/s on PCIe 3.0. A full handler pass of 256 faults
//! (`fault_batch_max`) pays `BATCH_OVERHEAD_NS` (8 µs) once, then per
//! 4 KiB page `PAGE_CPU_OVERHEAD_NS` (105 ns) of driver time plus its
//! wire time (4 KiB / 12.26 GB/s ≈ 334 ns): 256 × 4096 B / (8,000 +
//! 256 × (105 + 334)) ns ≈ 8.7 GB/s. The driver's streaming test
//! measures 8.64 GB/s, each batch's propagation delay included.
//! On PCIe 4.0 only the wire half shrinks (≈ 167 ns), so migration
//! peaks at 256 × 4096 B / (8,000 + 256 × (105 + 167)) ns ≈ 13.5 GB/s —
//! 1.55× (1.54× measured), near UVM's 1.53× scaling in Figure 12, while
//! the link itself doubled.

/// Static configuration of the UVM driver model.
#[derive(Debug, Clone)]
pub struct UvmConfig {
    /// System page size; UVM's minimum migration granularity (§2.2).
    pub page_bytes: u64,
    /// Device-memory bytes available for migrated pages (device capacity
    /// minus explicit allocations; set by the runtime allocator).
    pub pool_bytes: u64,
    /// Maximum faults the handler picks up per processing pass; real
    /// drivers drain the fault buffer in bounded batches.
    pub fault_batch_max: usize,
}

impl Default for UvmConfig {
    fn default() -> Self {
        Self {
            page_bytes: 4096,
            pool_bytes: 0, // runtime fills this in from device capacity
            fault_batch_max: 256,
        }
    }
}

impl UvmConfig {
    /// Pages that fit in the device pool.
    pub fn pool_pages(&self) -> u64 {
        self.pool_bytes / self.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_page_arithmetic() {
        let cfg = UvmConfig {
            pool_bytes: 1 << 20,
            ..Default::default()
        };
        assert_eq!(cfg.pool_pages(), 256);
    }
}
