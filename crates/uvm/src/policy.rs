//! UVM driver tunables.
//!
//! Defaults are calibrated so that a purely sequential streaming workload —
//! the UVM reference in the paper's Figure 4 toy experiment — achieves
//! ≈9.1–9.3 GB/s on PCIe 3.0: each 4 KiB page costs
//! `PAGE_CPU_OVERHEAD_NS` (105 ns, in `driver.rs`) of driver time plus its
//! wire time (4 KiB / 12.26 GB/s ≈ 334 ns), giving 4096 B / (105 + 334) ns
//! ≈ 9.3 GB/s.
//! On PCIe 4.0 only the wire half shrinks, so migration peaks at
//! ≈15 GB/s — a 1.6× improvement, near UVM's measured 1.53× scaling in
//! Figure 12, while the link itself doubled.

use emogi_sim::time::Time;

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
    /// Fixed software cost per handler pass (batch dequeue, dedup, TLB
    /// shootdowns), ns.
    pub batch_overhead_ns: Time,
    /// Density-based block prefetch: migrating a faulted page pulls in the
    /// rest of its block when the access stream looks sequential
    /// (the real driver's tree-based prefetcher).
    pub prefetch: bool,
    /// Eviction granularity in pages: the real driver evicts whole
    /// virtual-address chunks (up to 2 MiB), throwing out still-hot pages
    /// along with cold ones — a major source of thrashing under
    /// oversubscription (§2.2).
    pub evict_block_pages: u64,
}

impl Default for UvmConfig {
    fn default() -> Self {
        Self {
            page_bytes: 4096,
            pool_bytes: 0, // runtime fills this in from device capacity
            fault_batch_max: 256,
            batch_overhead_ns: 8_000,
            prefetch: true,
            evict_block_pages: 16,
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
