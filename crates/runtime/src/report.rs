//! Per-kernel and per-run statistics.

use crate::prefetch::PrefetchStats;
use crate::transfer::TransferStats;
use emogi_sim::monitor::SizeHistogram;
use emogi_sim::time::Time;

/// What one kernel launch did, measured by the executor. Its elapsed
/// time and page faults live in the machine clock and
/// `UvmStats::faults`; [`Machine::measure`](crate::Machine::measure)
/// diffs them.
#[derive(Debug, Clone, Default)]
pub struct KernelReport {
    /// Completion time (all warps drained): the clock `run_kernel` leaves
    /// on the machine. Kept because the frozen benchmark reads it.
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
}

emogi_sim::ledger! {
    /// Cumulative measurements for a whole traversal run (all kernel
    /// launches of one BFS/SSSP/CC execution): the difference of two
    /// [`Machine::counters`](crate::Machine::counters) readings. `-`
    /// diffs two readings and `+=` folds diffs — back-to-back runs on one
    /// machine into their combined diff, a batch iteration's diff into
    /// every query active in it. Ratios are methods over the counters, so
    /// they follow every diff and fold:
    /// [`avg_pcie_gbps`](Self::avg_pcie_gbps),
    /// [`l2_hit_rate`](Self::l2_hit_rate),
    /// [`coalescing_efficiency`](Self::coalescing_efficiency) and
    /// [`amplification`](Self::amplification).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct RunStats {
        /// Total simulated wall time.
        pub elapsed_ns: Time,
        /// Kernel launches ("the total number of kernels launched ... is
        /// equal to the distance from the source vertex", §4.2).
        pub kernel_launches: u64,
        /// Of [`elapsed_ns`](Self::elapsed_ns), the time each launch's
        /// last warp slot ran alone after the second-to-last retired
        /// (from the launch start, with one slot): the straggler tail a
        /// serial walk of one long list leaves. Never more than elapsed
        /// on one device; a concurrent fold sums the devices' tails.
        pub last_warp_alone_ns: Time,
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
        /// `true` when these counters describe traffic *shared* with other
        /// queries of a batched multi-query execution: the merged edge
        /// fetch is accounted once globally (in the batch-level stats) and
        /// every query that was active in an iteration absorbs that
        /// iteration's totals, so summing flagged stats across queries
        /// double-counts the shared bytes by design. Always `false` for
        /// solo runs. It describes how a total was attributed, not what it
        /// counts, so `-` and `+=` leave it alone.
        pub shared_fetch: bool,
    }
}

impl RunStats {
    /// Average achieved PCIe bandwidth over the run, GB/s (Figure 8):
    /// bytes over time, never a sum of averages; 0 when no time passed.
    pub fn avg_pcie_gbps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.host_bytes as f64 / self.elapsed_ns as f64
        }
    }

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

    /// Fold the per-device diffs of one multi-GPU iteration into a group
    /// total: `+=` every device, except that the devices ran
    /// *concurrently* — the exchange barrier-aligns their clocks at the
    /// iteration's end — so elapsed time is the maximum, not the sum.
    pub fn aggregate_concurrent(per_device: &[RunStats]) -> RunStats {
        let mut total = RunStats::default();
        for s in per_device {
            total += s;
        }
        total.elapsed_ns = per_device.iter().map(|s| s.elapsed_ns).max().unwrap_or(0);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_and_bandwidth_are_ratios_of_the_counters() {
        let s = RunStats {
            host_bytes: 150,
            ..Default::default()
        };
        assert!((s.amplification(100) - 1.5).abs() < 1e-12);
        assert_eq!(s.amplification(0), 0.0);
        assert_eq!(s.avg_pcie_gbps(), 0.0, "no time passed");
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
        assert_eq!(seq.avg_pcie_gbps(), 800.0 / 500.0);
        let con = RunStats::aggregate_concurrent(&[a, b]);
        assert_eq!(
            (con.elapsed_ns, con.host_bytes, con.kernel_launches),
            (400, 800, 4)
        );
        assert_eq!(con.avg_pcie_gbps(), 800.0 / 400.0);
        assert_eq!(RunStats::aggregate_concurrent(&[]), RunStats::default());
    }

    fn reading(host_bytes: u64, staged_bytes: u64) -> RunStats {
        RunStats {
            host_bytes,
            transfer: TransferStats {
                staged_bytes,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// A backwards diff is a bookkeeping bug: it panics naming the field
    /// in every build profile, never wraps to a huge count.
    #[test]
    #[should_panic(expected = "RunStats::host_bytes")]
    fn a_counter_that_went_backwards_panics_by_name() {
        let _ = reading(10, 0) - reading(11, 0);
    }

    #[test]
    #[should_panic(expected = "TransferStats::staged_bytes")]
    fn a_nested_counter_that_went_backwards_panics_by_its_own_name() {
        let _ = reading(10, 5) - reading(10, 6);
    }

    #[test]
    #[should_panic(expected = "SizeHistogram::buckets")]
    fn a_histogram_bucket_that_went_backwards_panics_by_name() {
        let mut base = reading(0, 0);
        base.request_sizes.record(128);
        let _ = reading(0, 0) - base;
    }
}
