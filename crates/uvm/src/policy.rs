//! UVM driver tunables.
//!
//! Defaults are calibrated so that a purely sequential streaming workload —
//! the UVM reference in the paper's Figure 4 toy experiment — achieves
//! ≈9.1–9.3 GB/s on PCIe 3.0: each 4 KiB page costs
//! `page_cpu_overhead_ns` of driver time plus its wire time
//! (4 KiB / 12.26 GB/s ≈ 334 ns), giving 4096 B / (120 + 334) ns ≈ 9.0 GB/s.
//! On PCIe 4.0 only the wire half shrinks, so migration peaks at
//! ≈14 GB/s — a 1.55× improvement that matches UVM's measured 1.53×
//! scaling in Figure 12 while the link itself doubled.

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
    /// Per-page software cost (page-table updates, DMA descriptor), ns.
    /// This is the single-threaded CPU work that caps migration throughput.
    pub page_cpu_overhead_ns: Time,
    /// Per-page cost of evicting a resident page, ns.
    pub evict_overhead_ns: Time,
    /// Density-based block prefetch: migrating a faulted page pulls in the
    /// rest of its block when the access stream looks sequential
    /// (the real driver's tree-based prefetcher).
    pub prefetch: bool,
    /// Prefetch block size in pages (16 pages = 64 KiB).
    pub prefetch_block_pages: u64,
    /// Super-block promotion factor: when a faulting page's super-block
    /// (`prefetch_block_pages * promote_factor` pages, the 2 MiB level of
    /// the real tree prefetcher) already has this many blocks partially
    /// resident, the whole super-block migrates. 0 disables promotion.
    pub promote_threshold_blocks: u64,
    /// Blocks per super-block.
    pub promote_factor: u64,
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
            page_cpu_overhead_ns: 105,
            evict_overhead_ns: 40,
            prefetch: true,
            prefetch_block_pages: 16,
            promote_threshold_blocks: 4,
            promote_factor: 16,
            evict_block_pages: 16,
        }
    }
}

impl UvmConfig {
    /// Pages that fit in the device pool.
    pub fn pool_pages(&self) -> u64 {
        self.pool_bytes / self.page_bytes
    }

    /// Analytic migration-throughput ceiling given the link's effective
    /// bulk bandwidth, GB/s. Useful for calibration assertions.
    pub fn migration_ceiling_gbps(&self, link_bulk_gbps: f64) -> f64 {
        let wire_ns = self.page_bytes as f64 / link_bulk_gbps;
        self.page_bytes as f64 / (wire_ns + self.page_cpu_overhead_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ceiling_matches_paper_uvm_bandwidth() {
        let cfg = UvmConfig::default();
        // Effective gen3 bulk bandwidth with 128 B TLPs is ~12.26 GB/s.
        let gen3 = cfg.migration_ceiling_gbps(12.26);
        assert!((8.7..9.4).contains(&gen3), "gen3 UVM ceiling {gen3}");
        // Doubling the link must NOT double UVM (Figure 12: 1.53x).
        let gen4 = cfg.migration_ceiling_gbps(24.52);
        let scaling = gen4 / gen3;
        assert!(
            (1.45..1.65).contains(&scaling),
            "UVM gen4 scaling {scaling}"
        );
    }

    #[test]
    fn pool_page_arithmetic() {
        let cfg = UvmConfig {
            pool_bytes: 1 << 20,
            ..Default::default()
        };
        assert_eq!(cfg.pool_pages(), 256);
    }
}
