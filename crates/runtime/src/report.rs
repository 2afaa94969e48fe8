//! Per-kernel and per-run statistics.

use crate::prefetch::PrefetchStats;
use crate::transfer::TransferStats;
use emogi_sim::monitor::SizeHistogram;
use emogi_sim::time::Time;

/// What one kernel launch did, measured by the executor.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Launch time.
    pub start: Time,
    /// Completion time (all warps drained).
    pub end: Time,
    /// Warp tasks executed.
    pub tasks: u64,
    /// Warp steps executed.
    pub steps: u64,
    /// Coalesced device-space transactions.
    pub device_txns: u64,
    /// Coalesced pinned-host (zero-copy) transactions.
    pub host_txns: u64,
    /// Coalesced managed-space transactions.
    pub managed_txns: u64,
    /// Coalesced CXL-space transactions (regions served in place from the
    /// external tier).
    pub cxl_txns: u64,
    /// Host transactions that were satisfied by attaching to an already
    /// in-flight request (MSHR merges).
    pub mshr_merges: u64,
    /// Page faults raised against the UVM driver.
    pub page_faults: u64,
}

impl KernelReport {
    /// Launch-to-drain time of the kernel.
    pub fn elapsed(&self) -> Time {
        self.end - self.start
    }
}

emogi_sim::ledger! {
    /// Cumulative measurements for a whole traversal run (all kernel
    /// launches of one BFS/SSSP/CC execution): the difference of two
    /// [`Machine::counters`](crate::Machine::counters) readings. `-`
    /// diffs two readings and `+=` folds diffs — back-to-back runs on one
    /// machine into their combined diff, a batch iteration's diff into
    /// every query active in it; both re-derive the average bandwidth
    /// from the new bytes and time.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct RunStats {
        /// Total simulated wall time.
        pub elapsed_ns: Time,
        /// Kernel launches ("the total number of kernels launched ... is
        /// equal to the distance from the source vertex", §4.2).
        pub kernel_launches: u64,
        /// Zero-copy PCIe read requests (Figure 5).
        pub pcie_read_requests: u64,
        /// Their size mix (Figure 7).
        pub request_sizes: SizeHistogram,
        /// Host→GPU payload bytes: zero-copy reads plus DMA/migrations
        /// (Figure 10's numerator).
        pub host_bytes: u64,
        /// UVM page faults (zero for EMOGI engines).
        pub page_faults: u64,
        /// UVM pages migrated to the device (zero for EMOGI engines).
        pub pages_migrated: u64,
        /// Host DRAM traffic (Figure 4's DRAM lane).
        pub host_dram_bytes: u64,
        /// L2 sectors that hit during this run's kernels (the cache-aware
        /// `layout` experiment's numerator).
        pub l2_sector_hits: u64,
        /// L2 sectors that missed during this run's kernels.
        pub l2_sector_misses: u64,
        /// Bytes the kernels' lanes requested, before coalescing.
        pub lane_bytes: u64,
        /// Bytes the coalesced transactions moved for those lanes.
        pub txn_bytes: u64,
        /// Demand read requests served by the CXL external tier; zero on
        /// two-tier machines.
        pub cxl_read_requests: u64,
        /// Payload bytes the CXL tier served — zero-copy demand reads plus
        /// bulk promotions into HBM. Kept separate from
        /// [`host_bytes`](Self::host_bytes), which stays PCIe-only.
        pub cxl_bytes: u64,
        /// Hybrid transfer-manager counters for this run; all-zero for
        /// runs that never stage (pure zero-copy, UVM).
        pub transfer: TransferStats,
        /// Pipelined-execution prefetch counters for this run (speculative
        /// bytes issued, adoption hits, mispredicted waste, residual stall
        /// and hidden staging latency); all-zero for synchronous runs.
        pub prefetch: PrefetchStats,
    }
    carried {
        /// Average achieved PCIe bandwidth over the run, GB/s (Figure 8).
        pub avg_pcie_gbps: f64,
        /// `true` when these counters describe traffic *shared* with other
        /// queries of a batched multi-query execution: the merged edge
        /// fetch is accounted once globally (in the batch-level stats) and
        /// every query that was active in an iteration absorbs that
        /// iteration's totals, so summing flagged stats across queries
        /// double-counts the shared bytes by design. Always `false` for
        /// solo runs. It describes how a total was attributed, not what it
        /// counts, so `-` and `+=` leave it alone.
        pub shared_fetch: bool,
    } settled by RunStats::derive_avg_pcie_gbps
}

impl RunStats {
    /// Fraction of probed L2 sectors that hit over this run; 0 when no
    /// sector was probed. Higher under cache-aware vertex layouts.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_sector_hits + self.l2_sector_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_sector_hits as f64 / total as f64
        }
    }

    /// Requested lane bytes over moved transaction bytes — 1.0 means
    /// every transferred byte was asked for by a lane; lower means the
    /// coalescer padded scattered accesses out to sector granularity.
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.txn_bytes == 0 {
            0.0
        } else {
            self.lane_bytes as f64 / self.txn_bytes as f64
        }
    }

    /// The paper's I/O read amplification metric (Figure 10).
    pub fn amplification(&self, dataset_bytes: u64) -> f64 {
        if dataset_bytes == 0 {
            0.0
        } else {
            self.host_bytes as f64 / dataset_bytes as f64
        }
    }

    /// Fold the per-device stats of one multi-GPU run into a group
    /// total: `+=` every device, except that the devices ran
    /// *concurrently* — their clocks are barrier-aligned each iteration —
    /// so elapsed time is the maximum, not the sum, and the average
    /// bandwidth is aggregate bytes over that shared wall clock.
    pub fn aggregate_concurrent(per_device: &[RunStats]) -> RunStats {
        let mut total = RunStats::default();
        for s in per_device {
            total += s;
        }
        total.elapsed_ns = per_device.iter().map(|s| s.elapsed_ns).max().unwrap_or(0);
        total.derive_avg_pcie_gbps();
        total
    }

    /// Average bandwidth is bytes over time, never a sum of averages.
    pub(crate) fn derive_avg_pcie_gbps(&mut self) {
        self.avg_pcie_gbps = if self.elapsed_ns == 0 {
            0.0
        } else {
            self.host_bytes as f64 / self.elapsed_ns as f64
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_and_amplification() {
        let r = KernelReport {
            start: 100,
            end: 350,
            ..Default::default()
        };
        assert_eq!(r.elapsed(), 250);
        let s = RunStats {
            host_bytes: 150,
            ..Default::default()
        };
        assert!((s.amplification(100) - 1.5).abs() < 1e-12);
        assert_eq!(s.amplification(0), 0.0);
    }

    #[test]
    fn sequential_fold_sums_time_and_concurrent_fold_takes_the_slowest() {
        let device = |elapsed_ns, host_bytes| RunStats {
            elapsed_ns,
            host_bytes,
            kernel_launches: 2,
            ..Default::default()
        };
        let (a, b) = (device(100, 300), device(400, 500));
        let mut seq = a.clone();
        seq += &b;
        assert_eq!(
            (seq.elapsed_ns, seq.host_bytes, seq.kernel_launches),
            (500, 800, 4)
        );
        assert_eq!(seq.avg_pcie_gbps, 800.0 / 500.0);
        let con = RunStats::aggregate_concurrent(&[a, b]);
        assert_eq!(
            (con.elapsed_ns, con.host_bytes, con.kernel_launches),
            (400, 800, 4)
        );
        assert_eq!(con.avg_pcie_gbps, 800.0 / 400.0);
        assert_eq!(RunStats::aggregate_concurrent(&[]), RunStats::default());
    }
}
