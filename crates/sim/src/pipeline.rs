//! Asynchronous copy-engine lane for pipelined (double-buffered) staging.
//!
//! Real GPUs expose dedicated copy engines: DMA transfers issued on a
//! separate stream proceed concurrently with kernel compute, and their
//! completions are ordinary events on the device's timeline. This module
//! adds that lane to the discrete-event model. A [`CopyEngine`] owns its
//! own picosecond [`BusyClock`] — submissions serialize against each other
//! but *not* against the kernel's simulated clock — and every submission
//! gets a deterministic completion time: the fixed launch overhead plus
//! the framed wire time (per-TLP completion headers over the usable link
//! bandwidth), summed in ps so back-to-back copies drain at the rated
//! bandwidth. That is only part of what the synchronous DMA path
//! charges: `DmaEngine::copy_to_device` → `PcieLink::dma_host_to_gpu`
//! also waits for the link's downlink, takes the max with the host-DRAM
//! and HBM bulk times, and adds `propagation_ns` (780 ns on both
//! presets). The lane's cost is a model of the synchronous cost with no
//! propagation term, not a copy of it.
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
use crate::time::{bytes_over_bandwidth_ps, framed_wire_bytes, BusyClock, Time, PS_PER_NS};
use std::collections::VecDeque;

/// Wire-cost parameters of the asynchronous copy lane, derived from a
/// [`PcieConfig`] by [`CopyEngineConfig::from_pcie`] and settable no
/// other way. They are the synchronous bulk DMA path's launch overhead,
/// bandwidth and TLP framing, but not its downlink wait, memory bulk
/// times or `propagation_ns` (see the [module docs](self)), so
/// hidden-latency estimates built on them are estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyEngineConfig {
    /// Fixed per-submission launch overhead (driver + doorbell), ns.
    launch_overhead_ns: Time,
    /// Usable link bandwidth for the lane, GB/s.
    gbps: f64,
    /// Max payload per TLP; bulk copies are chunked at this size.
    payload_bytes: u32,
    /// Overhead bytes per completion TLP (header + framing + LCRC).
    completion_header_bytes: u32,
}

impl CopyEngineConfig {
    /// Derive the lane from a PCIe configuration: the synchronous
    /// `DmaEngine` path's launch overhead, usable bandwidth and TLP
    /// framing. The lane has no propagation term and no memory or
    /// downlink contention, so its cost is below the synchronous one.
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

/// An asynchronous copy lane: FIFO, deterministic, and isolated from the
/// demand-path link state.
#[derive(Debug, Clone)]
pub struct CopyEngine {
    cfg: CopyEngineConfig,
    /// The lane's own busy-until horizon.
    lane: BusyClock,
    next_id: u64,
    /// Submitted copies not yet drained, in submission (= completion)
    /// order.
    inflight: VecDeque<CopyTicket>,
}

impl CopyEngine {
    /// A fresh, idle lane.
    pub fn new(cfg: CopyEngineConfig) -> Self {
        Self {
            cfg,
            lane: BusyClock::default(),
            next_id: 0,
            inflight: VecDeque::new(),
        }
    }

    /// Wire time in ps for `bytes` on this lane: payload plus per-chunk
    /// completion headers over the usable bandwidth.
    fn wire_ps(&self, bytes: u64) -> u64 {
        let wire = framed_wire_bytes(
            bytes,
            self.cfg.payload_bytes,
            self.cfg.completion_header_bytes,
        );
        bytes_over_bandwidth_ps(wire, self.cfg.gbps)
    }

    /// Lane occupancy in ps of one submission: launch overhead plus wire.
    fn cost_ps(&self, bytes: u64) -> u64 {
        self.cfg.launch_overhead_ns * PS_PER_NS + self.wire_ps(bytes)
    }

    /// The wire time of `bytes` alone on this lane, rounded up to a
    /// whole ns.
    pub fn wire_time(&self, bytes: u64) -> Time {
        self.wire_ps(bytes).div_ceil(PS_PER_NS)
    }

    /// Full marginal cost of one submission on an idle lane.
    pub fn cost(&self, bytes: u64) -> Time {
        self.cfg.launch_overhead_ns + self.wire_time(bytes)
    }

    /// Submit a copy at simulated time `at`; returns its ticket. The
    /// copy starts when both the caller's clock and the lane are free,
    /// so back-to-back submissions serialize on the lane only.
    pub fn submit(&mut self, at: Time, bytes: u64) -> CopyTicket {
        let done_at = self.lane.occupy(at, self.cost_ps(bytes));
        let ticket = CopyTicket {
            id: self.next_id,
            bytes,
            done_at,
        };
        self.next_id += 1;
        self.inflight.push_back(ticket);
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
    fn from_pcie_takes_the_sync_dma_overhead_and_framing() {
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
            e.wire_ps(bytes),
            bytes_over_bandwidth_ps(wire, pcie.usable_gbps())
        );
        assert_eq!(e.wire_time(bytes), e.wire_ps(bytes).div_ceil(PS_PER_NS));
    }

    #[test]
    fn submissions_serialize_on_the_lane_not_the_caller_clock() {
        let mut e = lane();
        let a = e.submit(1_000, 64 << 10);
        // Submitted "while the kernel computes" at the same caller time:
        // starts when the lane frees, not at 1 000.
        let b = e.submit(1_000, 64 << 10);
        assert_eq!(a.done_at, 1_000 + e.cost(64 << 10));
        // Back to back, the two occupancies add in ps.
        let two_ps = 1_000 * PS_PER_NS + 2 * e.cost_ps(64 << 10);
        assert_eq!(b.done_at, two_ps.div_ceil(PS_PER_NS));
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
        assert!(e.drain_completed(a.done_at - 1).is_empty());
        let first = e.drain_completed(b.done_at);
        assert_eq!(
            first.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![a.id, b.id]
        );
        let rest = e.drain_completed(Time::MAX);
        assert_eq!(rest, vec![c]);
        assert!(e.drain_completed(Time::MAX).is_empty(), "drained once");
    }

    #[test]
    fn lane_drains_at_its_rated_bandwidth() {
        const N: u64 = 1_000;
        // Up to 1 ps of rounding per copy, plus the final whole-ns rounding.
        const SLACK_NS: Time = 1 + N / PS_PER_NS;
        let pcie = PcieConfig::gen3_x16();
        let mut e = lane();
        let bytes = 64u64 << 10;
        let last = (0..N).map(|_| e.submit(0, bytes).done_at).max().unwrap();
        let wire = framed_wire_bytes(bytes, pcie.dma_payload_bytes, pcie.completion_header_bytes);
        let ideal = N * MEMCPY_LAUNCH_OVERHEAD_NS
            + (N as f64 * wire as f64 / pcie.usable_gbps()).ceil() as Time;
        assert!(
            (ideal..=ideal + SLACK_NS).contains(&last),
            "{N} copies drained at {last} ns, ideal {ideal} ns"
        );
    }

    #[test]
    fn zero_byte_submission_costs_only_launch_overhead() {
        let mut e = lane();
        let t = e.submit(0, 0);
        assert_eq!(t.done_at, MEMCPY_LAUNCH_OVERHEAD_NS);
    }
}
