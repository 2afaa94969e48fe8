//! Asynchronous copy-engine lane for pipelined (double-buffered) staging.
//!
//! Real GPUs expose dedicated copy engines: DMA transfers issued on a
//! separate stream proceed concurrently with kernel compute, and their
//! completions are ordinary events on the device's timeline. This module
//! adds that lane to the discrete-event model. A [`CopyEngine`] owns its
//! own busy-until horizon — submissions serialize against each other but
//! *not* against the kernel's simulated clock — and every submission gets
//! a deterministic completion time computed from the same wire model the
//! synchronous DMA path uses (per-TLP completion headers over the usable
//! link bandwidth, plus the fixed launch overhead).
//!
//! Completions are totally ordered: the lane is FIFO, so `done_at` is
//! non-decreasing in submission order, and ties against kernel events are
//! resolved by the consumer (the transfer planner polls the lane at
//! iteration start, a fixed point in the event order). Nothing in here
//! touches the shared PCIe link state, the host DRAM model or the traffic
//! monitor — the speculative lane models *when* bytes land, while the
//! byte *accounting* stays with the demand path so that pipelined and
//! synchronous runs report identical traffic counters.

use crate::dma::MEMCPY_LAUNCH_OVERHEAD_NS;
use crate::pcie::PcieConfig;
use crate::time::{bytes_over_bandwidth_ns, framed_wire_bytes, Time};
use std::collections::VecDeque;

/// Wire-cost parameters of the asynchronous copy lane.
///
/// Deliberately a value type decoupled from [`PcieConfig`]: the lane can
/// be configured independently (e.g. a slower speculative class), but the
/// default [`CopyEngineConfig::from_pcie`] mirrors the synchronous bulk
/// DMA path exactly so hidden latency estimates are apples to apples.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyEngineConfig {
    /// Fixed per-submission launch overhead (driver + doorbell), ns.
    pub launch_overhead_ns: Time,
    /// Usable link bandwidth for the lane, GB/s.
    pub gbps: f64,
    /// Max payload per TLP; bulk copies are chunked at this size.
    pub payload_bytes: u32,
    /// Overhead bytes per completion TLP (header + framing + LCRC).
    pub completion_header_bytes: u32,
}

impl CopyEngineConfig {
    /// Derive the lane from a PCIe configuration, matching the cost
    /// model of the synchronous `DmaEngine` path chunk for chunk.
    pub fn from_pcie(pcie: &PcieConfig) -> Self {
        Self {
            launch_overhead_ns: MEMCPY_LAUNCH_OVERHEAD_NS,
            gbps: pcie.usable_gbps(),
            payload_bytes: pcie.dma_payload_bytes,
            completion_header_bytes: pcie.completion_header_bytes,
        }
    }
}

/// One in-flight (or completed but undrained) copy on the lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyTicket {
    /// Submission-order id, dense from 0.
    pub id: u64,
    /// Bytes carried by this copy.
    pub bytes: u64,
    /// Completion time on the simulated clock. Non-decreasing in `id`.
    pub done_at: Time,
}

/// Monotonic lane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyLaneStats {
    /// Copies submitted.
    pub copies: u64,
    /// Bytes submitted.
    pub bytes: u64,
    /// Total ns the lane spent busy (overhead + wire time).
    pub busy_ns: u64,
}

/// An asynchronous copy lane: FIFO, deterministic, and isolated from the
/// demand-path link state.
#[derive(Debug, Clone)]
pub struct CopyEngine {
    cfg: CopyEngineConfig,
    /// The lane's own busy-until horizon.
    lane_free: Time,
    next_id: u64,
    /// Submitted copies not yet drained, in submission (= completion)
    /// order.
    inflight: VecDeque<CopyTicket>,
    /// Monotonic counters.
    pub stats: CopyLaneStats,
}

impl CopyEngine {
    /// A fresh, idle lane.
    pub fn new(cfg: CopyEngineConfig) -> Self {
        Self {
            cfg,
            lane_free: 0,
            next_id: 0,
            inflight: VecDeque::new(),
            stats: CopyLaneStats::default(),
        }
    }

    /// The lane's configuration.
    pub fn config(&self) -> &CopyEngineConfig {
        &self.cfg
    }

    /// Wire time for `bytes` on this lane: payload plus per-chunk
    /// completion headers over the usable bandwidth.
    pub fn wire_time(&self, bytes: u64) -> Time {
        if bytes == 0 {
            return 0;
        }
        let wire = framed_wire_bytes(
            bytes,
            self.cfg.payload_bytes,
            self.cfg.completion_header_bytes,
        );
        bytes_over_bandwidth_ns(wire, self.cfg.gbps)
    }

    /// Full marginal cost of one submission on an idle lane.
    pub fn cost(&self, bytes: u64) -> Time {
        self.cfg.launch_overhead_ns + self.wire_time(bytes)
    }

    /// Submitted copies not yet drained.
    pub fn pending(&self) -> usize {
        self.inflight.len()
    }

    /// Submit a copy at simulated time `at`; returns its ticket. The
    /// copy starts when both the caller's clock and the lane are free,
    /// so back-to-back submissions serialize on the lane only.
    pub fn submit(&mut self, at: Time, bytes: u64) -> CopyTicket {
        let start = at.max(self.lane_free);
        let done_at = start + self.cost(bytes);
        self.lane_free = done_at;
        let ticket = CopyTicket {
            id: self.next_id,
            bytes,
            done_at,
        };
        self.next_id += 1;
        self.inflight.push_back(ticket);
        self.stats.copies += 1;
        self.stats.bytes += bytes;
        self.stats.busy_ns += done_at - start;
        ticket
    }

    /// Pop every copy complete at time `at`, in completion order. The
    /// FIFO lane makes this deterministic: ids and `done_at` values come
    /// out strictly ascending and non-decreasing respectively.
    pub fn drain_completed(&mut self, at: Time) -> Vec<CopyTicket> {
        let mut out = Vec::new();
        while let Some(front) = self.inflight.front() {
            if front.done_at > at {
                break;
            }
            out.push(self.inflight.pop_front().expect("front exists"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane() -> CopyEngine {
        CopyEngine::new(CopyEngineConfig::from_pcie(&PcieConfig::gen3_x16()))
    }

    #[test]
    fn from_pcie_mirrors_the_sync_dma_cost_model() {
        let pcie = PcieConfig::gen3_x16();
        let cfg = CopyEngineConfig::from_pcie(&pcie);
        assert_eq!(cfg.launch_overhead_ns, MEMCPY_LAUNCH_OVERHEAD_NS);
        assert_eq!(cfg.payload_bytes, pcie.dma_payload_bytes);
        assert_eq!(cfg.completion_header_bytes, pcie.completion_header_bytes);
        // One 256 KiB copy: 2048 chunks of 128 B, 20 B header each.
        let e = CopyEngine::new(cfg);
        let bytes = 256u64 << 10;
        let wire = bytes + bytes.div_ceil(128) * 20;
        assert_eq!(
            e.wire_time(bytes),
            bytes_over_bandwidth_ns(wire, pcie.usable_gbps())
        );
    }

    #[test]
    fn submissions_serialize_on_the_lane_not_the_caller_clock() {
        let mut e = lane();
        let a = e.submit(1_000, 64 << 10);
        // Submitted "while the kernel computes" at the same caller time:
        // starts when the lane frees, not at 1 000.
        let b = e.submit(1_000, 64 << 10);
        assert_eq!(a.done_at, 1_000 + e.cost(64 << 10));
        assert_eq!(b.done_at, a.done_at + e.cost(64 << 10));
        assert!(a.id < b.id);
        // An idle lane later starts at the caller clock again.
        let far = b.done_at + 5_000;
        let c = e.submit(far, 64 << 10);
        assert_eq!(c.done_at, far + e.cost(64 << 10));
    }

    #[test]
    fn drain_is_fifo_and_respects_completion_times() {
        let mut e = lane();
        let a = e.submit(0, 4 << 10);
        let b = e.submit(0, 4 << 10);
        let c = e.submit(0, 4 << 10);
        assert_eq!(e.pending(), 3);
        assert!(e.drain_completed(a.done_at - 1).is_empty());
        let first = e.drain_completed(b.done_at);
        assert_eq!(
            first.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![a.id, b.id]
        );
        let rest = e.drain_completed(Time::MAX);
        assert_eq!(rest, vec![c]);
        assert_eq!(e.pending(), 0);
        assert_eq!(e.stats.copies, 3);
        assert_eq!(e.stats.bytes, 3 * (4 << 10));
    }

    #[test]
    fn zero_byte_submission_costs_only_launch_overhead() {
        let mut e = lane();
        let t = e.submit(0, 0);
        assert_eq!(t.done_at, MEMCPY_LAUNCH_OVERHEAD_NS);
    }
}
