//! CXL-class external-memory link: microsecond latency, decent bandwidth.
//!
//! The CXL external-memory paper (PAPERS.md: "GPU Graph Processing on
//! CXL-Based Microsecond-Latency External Memory") extends EMOGI's
//! two-level HBM/host hierarchy with a third tier: a memory device behind
//! a CXL.mem-style link whose round trip is microsecond-class — an order
//! of magnitude above HBM, a small factor above the PCIe zero-copy path —
//! but whose bandwidth is still a usable fraction of the host link's.
//! Graphs larger than host DRAM spill their cold edge-list regions there.
//!
//! Deliberately **not** a [`PcieLink`](crate::pcie::PcieLink): CXL.mem is
//! a load/store protocol with flow-controlled flits, so there is no tag
//! pool, no split-transaction queueing and no MSHR interplay to model. A
//! read is synchronous against a single busy-until wire resource: the
//! request pays a fixed one-way latency, the far-memory DRAM services the
//! access at its own granularity, and the response serializes on the wire
//! (per-access flit overhead included) before paying the return latency.
//! The link keeps its own occupancy and byte accounting, reported
//! separately from PCIe traffic. The wire is a picosecond [`BusyClock`]:
//! back-to-back 144-byte flits drain at the usable bandwidth, not at one
//! whole-ns charge each.
//!
//! ```
//! use emogi_sim::cxl::{CxlConfig, CxlLink};
//!
//! let mut link = CxlLink::new(CxlConfig::external_x8());
//! // A single 128-byte read pays a microsecond-class round trip ...
//! let done = link.read(0, 0x40, 128);
//! assert!(done > 1_500, "round trip {done} ns should be µs-class");
//! // ... and the link accounts payload and wire bytes separately.
//! assert_eq!(link.bytes_read, 128);
//! assert!(link.wire_bytes > 128, "flit overhead rides on the wire");
//! ```

use crate::dram::{Dram, DramConfig};
use crate::time::{bytes_over_bandwidth_ps, framed_wire_bytes, BusyClock, Time};

/// Static parameters of one CXL-class external-memory link.
#[derive(Debug, Clone)]
pub struct CxlConfig {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// Raw link bandwidth in GB/s (per direction).
    pub raw_gbps: f64,
    /// Protocol efficiency multiplier (flit framing, credits, CRC).
    pub efficiency: f64,
    /// Overhead bytes per data-carrying flit on the response path.
    pub flit_header_bytes: u32,
    /// Payload bytes per flit for bulk streams (header accounting).
    pub flit_payload_bytes: u32,
    /// One-way request latency through the controller fabric, ns. With
    /// the response latency and the device access this puts the unloaded
    /// round trip in the microsecond class.
    pub request_latency_ns: Time,
    /// One-way response latency back to the GPU, ns.
    pub response_latency_ns: Time,
    /// The far-memory device behind the controller.
    pub dram: DramConfig,
}

impl CxlConfig {
    /// A CXL 2.0 x8-class external-memory expander: ~25 GB/s raw,
    /// microsecond-class unloaded round trip, DDR4-grade media with
    /// elevated controller latency.
    pub fn external_x8() -> Self {
        Self {
            name: "CXL x8 external memory",
            raw_gbps: 25.0,
            efficiency: 0.85,
            flit_header_bytes: 16,
            flit_payload_bytes: 256,
            request_latency_ns: 900,
            response_latency_ns: 900,
            dram: DramConfig {
                name: "CXL far memory (DDR4 media)",
                access_granularity: 64,
                bandwidth_gbps: 38.4,
                latency_ns: 250,
            },
        }
    }

    /// Usable link bandwidth (raw × efficiency), GB/s.
    #[inline]
    pub fn usable_gbps(&self) -> f64 {
        self.raw_gbps * self.efficiency
    }
}

/// The link itself: one busy-until wire in front of the far-memory DRAM,
/// plus cumulative occupancy/byte counters.
#[derive(Debug, Clone)]
pub struct CxlLink {
    cfg: CxlConfig,
    /// Response-path wire occupancy (busy-until).
    wire: BusyClock,
    /// The far-memory device.
    dram: Dram,
    /// Demand (load/store-path) reads served.
    pub read_requests: u64,
    /// Payload bytes of demand reads.
    pub bytes_read: u64,
    /// Payload bytes of bulk promotion streams ([`read_bulk`](Self::read_bulk)).
    pub bulk_bytes: u64,
    /// Total response-path wire bytes (payload + flit overhead).
    pub wire_bytes: u64,
}

impl CxlLink {
    /// A fresh, idle link.
    pub fn new(cfg: CxlConfig) -> Self {
        let dram = Dram::new(cfg.dram.clone());
        Self {
            cfg,
            wire: BusyClock::default(),
            dram,
            read_requests: 0,
            bytes_read: 0,
            bulk_bytes: 0,
            wire_bytes: 0,
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &CxlConfig {
        &self.cfg
    }

    /// Total payload bytes the tier has served (demand + bulk).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bulk_bytes
    }

    /// Serve a demand read of `[addr, addr + size)` arriving at `now`;
    /// returns the time the data is back at the GPU. Synchronous: request
    /// latency, far-memory access, response serialization on the wire,
    /// response latency. Concurrent reads pipeline on the wire but each
    /// pays the full latency — exactly the regime the CXL paper's
    /// latency-hiding kernels are built for.
    pub fn read(&mut self, now: Time, addr: u64, size: u32) -> Time {
        self.read_requests += 1;
        self.bytes_read += u64::from(size);
        let arrive = now + self.cfg.request_latency_ns;
        let data_ready = self.dram.read(arrive, addr, size);
        let flit = u64::from(size + self.cfg.flit_header_bytes);
        let wire_end = self.wire.occupy(
            data_ready,
            bytes_over_bandwidth_ps(flit, self.cfg.usable_gbps()),
        );
        self.wire_bytes += flit;
        wire_end + self.cfg.response_latency_ns
    }

    /// Stream `bytes` sequentially out of the tier (a region promotion
    /// into HBM); returns the arrival time of the last byte. Chunked into
    /// `flit_payload_bytes` flits for header accounting; far-memory reads
    /// and wire transfer pipeline, the slower dominates.
    pub fn read_bulk(&mut self, now: Time, bytes: u64) -> Time {
        if bytes == 0 {
            return now;
        }
        self.bulk_bytes += bytes;
        let start = now + self.cfg.request_latency_ns;
        let dram_done = self.dram.read_bulk(start, bytes);
        let wire = framed_wire_bytes(
            bytes,
            self.cfg.flit_payload_bytes,
            self.cfg.flit_header_bytes,
        );
        let wire_end = self
            .wire
            .occupy(start, bytes_over_bandwidth_ps(wire, self.cfg.usable_gbps()));
        self.wire_bytes += wire;
        wire_end.max(dram_done) + self.cfg.response_latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::PS_PER_NS;

    fn link() -> CxlLink {
        CxlLink::new(CxlConfig::external_x8())
    }

    #[test]
    fn unloaded_round_trip_is_microsecond_class() {
        let mut l = link();
        let done = l.read(0, 0x1000, 128);
        assert!(
            (1_800..=4_000).contains(&done),
            "round trip {done} ns outside the µs-class window"
        );
        // And far above a PCIe-class propagation pair (2 × 780 ns).
        assert!(done > 1_560);
    }

    #[test]
    fn reads_pipeline_on_the_wire_but_each_pays_latency() {
        let mut l = link();
        let mut times = Vec::new();
        for i in 0..32u64 {
            times.push(l.read(0, i * 128, 128));
        }
        // The mean steady-state spacing is the wire time of one 144-byte
        // flit in ps, not the full round trip: latency overlaps across
        // reads. Each gap is a whole ns, so k gaps sum to within 1 ns of
        // k wire times.
        let expected_ps = bytes_over_bandwidth_ps(144, l.config().usable_gbps());
        let k = (times.len() - 5) as u64;
        let sum_ns = times[times.len() - 1] - times[4];
        assert!(
            (sum_ns * PS_PER_NS).abs_diff(k * expected_ps) < PS_PER_NS,
            "{k} steady-state gaps sum to {sum_ns} ns, expected {k} x {expected_ps} ps"
        );
    }

    #[test]
    fn flits_drain_at_the_usable_bandwidth() {
        const N: u64 = 1_000;
        // Up to 1 ps of rounding per flit, plus the final whole-ns rounding.
        const SLACK_NS: Time = 1 + N / PS_PER_NS;
        let mut l = link();
        let flit = 128 + u64::from(l.config().flit_header_bytes);
        let times: Vec<Time> = (0..N).map(|i| l.read(0, i * 128, 128)).collect();
        // From the first flit's start on an idle wire to the last one's end.
        let flit_ps = bytes_over_bandwidth_ps(flit, l.config().usable_gbps());
        let drain = times[times.len() - 1] - (times[0] - flit_ps.div_ceil(PS_PER_NS));
        let ideal = (N as f64 * flit as f64 / l.config().usable_gbps()).ceil() as Time;
        assert!(
            (ideal..=ideal + SLACK_NS).contains(&drain),
            "{N} flits drained in {drain} ns, ideal {ideal} ns"
        );
    }

    #[test]
    fn bandwidth_is_a_usable_fraction_of_the_host_link() {
        let mut l = link();
        let bytes = 64u64 << 20;
        let done = l.read_bulk(0, bytes);
        let gbps = bytes as f64 / done as f64;
        // Decent but below the PCIe 3.0 x16 cudaMemcpy peak's HBM side;
        // well above zero — the tier is usable, not a tape drive.
        assert!((15.0..25.0).contains(&gbps), "bulk stream {gbps} GB/s");
    }

    #[test]
    fn counters_split_demand_and_bulk_traffic() {
        let mut l = link();
        l.read(0, 0, 128);
        l.read_bulk(0, 4096);
        assert_eq!(l.read_requests, 1);
        assert_eq!(l.bytes_read, 128);
        assert_eq!(l.bulk_bytes, 4096);
        assert_eq!(l.total_bytes(), 128 + 4096);
        assert!(l.wire_bytes > l.total_bytes(), "flit overhead accounted");
    }

    #[test]
    fn zero_byte_bulk_is_free() {
        let mut l = link();
        assert_eq!(l.read_bulk(42, 0), 42);
        assert_eq!(l.wire_bytes, 0);
    }
}
