//! DRAM model with a minimum access granularity.
//!
//! EMOGI §3.3 points out that the host's DDR4 DRAM serves a minimum of 64
//! bytes per access, so a stream of 32-byte PCIe reads wastes half of the
//! DRAM bandwidth (the paper's Figure 4 shows the DRAM lane running at
//! exactly twice the PCIe lane for the strided pattern). We reproduce that
//! by charging every request the 64-byte-aligned *span* it touches.
//!
//! The same model doubles as the GPU's HBM when configured with HBM numbers;
//! granularity for HBM2 is one 32-byte sector.
//!
//! Callers see integer-ns [`Time`], but the device's [`BusyClock`] runs in
//! picoseconds: an access occupies it for `⌈span × 1000 / GB/s⌉` ps. A
//! 32-byte HBM2 sector takes 36 ps, so a whole-ns charge per access would
//! serve sector traffic at 32 GB/s, 28× below the V100's rated 900 GB/s.
//! An access completes at the busy clock's whole-ns end plus the latency,
//! so one access on an idle device completes exactly as a whole-ns model
//! would; only throughput under load changes.

use crate::time::{aligned_span, bytes_over_bandwidth_ps, BusyClock, Time};

/// Static configuration of one DRAM device.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Human-readable name used in reports ("DDR4-2933 quad", "HBM2").
    pub name: &'static str,
    /// Minimum access size in bytes (64 for DDR4, 32 for HBM2).
    pub access_granularity: u64,
    /// Peak sequential bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Access latency in nanoseconds (row activation + CAS, amortized).
    pub latency_ns: Time,
}

impl DramConfig {
    /// The evaluation host of Table 1: DDR4-2933 in quad-channel mode.
    /// 4 channels x 2933 MT/s x 8 B = 93.9 GB/s peak.
    pub fn ddr4_2933_quad() -> Self {
        Self {
            name: "DDR4-2933 quad-channel",
            access_granularity: 64,
            bandwidth_gbps: 93.9,
            latency_ns: 90,
        }
    }

    /// DGX A100 host memory (8-channel DDR4-3200 per socket; we model the
    /// share reachable from one root port generously — it is never the
    /// bottleneck).
    pub fn ddr4_3200_octa() -> Self {
        Self {
            name: "DDR4-3200 octa-channel",
            access_granularity: 64,
            bandwidth_gbps: 204.8,
            latency_ns: 90,
        }
    }

    /// V100 on-package HBM2 (16 GB, ~900 GB/s).
    pub fn hbm2_v100() -> Self {
        Self {
            name: "HBM2 (V100)",
            access_granularity: 32,
            bandwidth_gbps: 900.0,
            latency_ns: 350,
        }
    }

    /// A100 on-package HBM2e (40 GB, ~1555 GB/s).
    pub fn hbm2e_a100() -> Self {
        Self {
            name: "HBM2e (A100)",
            access_granularity: 32,
            bandwidth_gbps: 1555.0,
            latency_ns: 320,
        }
    }

    /// Titan Xp GDDR5X (12 GB, ~547 GB/s).
    pub fn gddr5x_titan_xp() -> Self {
        Self {
            name: "GDDR5X (Titan Xp)",
            access_granularity: 32,
            bandwidth_gbps: 547.0,
            latency_ns: 400,
        }
    }
}

/// Spans with a memoised transfer time: the multiples of 32 B up to 512 B,
/// which is every span a sector-granular transaction can touch.
const TABLE_STEP: u64 = 32;
const TABLE_MAX_SPAN: u64 = 512;

/// A DRAM device: a bandwidth resource with busy-until semantics plus
/// cumulative traffic counters.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    /// `bytes_over_bandwidth_ps(i * TABLE_STEP, bandwidth)`, computed once:
    /// the per-transaction path would otherwise pay a float divide and a
    /// `ceil` per access. The table *is* the formula, memoised.
    xfer_table: [u64; (TABLE_MAX_SPAN / TABLE_STEP) as usize + 1],
    /// End of the last access's occupancy.
    busy: BusyClock,
    /// Total bytes read from the array, after granularity rounding.
    pub bytes_read: u64,
    /// Total bytes written to the array, after granularity rounding.
    pub bytes_written: u64,
}

impl Dram {
    pub fn new(cfg: DramConfig) -> Self {
        let xfer_table = std::array::from_fn(|i| {
            bytes_over_bandwidth_ps(i as u64 * TABLE_STEP, cfg.bandwidth_gbps)
        });
        Self {
            cfg,
            xfer_table,
            busy: BusyClock::default(),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Service a read of `[addr, addr + size)` arriving at `arrive`.
    /// Returns the time the data is available. Charges the 64-byte-aligned
    /// span against bandwidth and the traffic counter.
    #[inline]
    pub fn read(&mut self, arrive: Time, addr: u64, size: u32) -> Time {
        let span = aligned_span(addr, size, self.cfg.access_granularity);
        self.bytes_read += span;
        self.occupy(arrive, span)
    }

    /// Service a write (same cost model as a read; the simulated workloads
    /// are read-dominated so we do not model write combining).
    #[inline]
    pub fn write(&mut self, arrive: Time, addr: u64, size: u32) -> Time {
        let span = aligned_span(addr, size, self.cfg.access_granularity);
        self.bytes_written += span;
        self.occupy(arrive, span)
    }

    /// Service a bulk sequential read of `bytes` (DMA): granularity rounding
    /// is irrelevant for large streams, bandwidth occupancy is not.
    pub fn read_bulk(&mut self, arrive: Time, bytes: u64) -> Time {
        let span = crate::time::align_up(bytes.max(1), self.cfg.access_granularity);
        self.bytes_read += span;
        self.occupy(arrive, span)
    }

    /// Service a bulk sequential write of `bytes` (DMA into this device).
    pub fn write_bulk(&mut self, arrive: Time, bytes: u64) -> Time {
        let span = crate::time::align_up(bytes.max(1), self.cfg.access_granularity);
        self.bytes_written += span;
        self.occupy(arrive, span)
    }

    /// Counter-only twin of [`read_bulk`](Self::read_bulk): charge the
    /// traffic a bulk read would record without occupying the bank or
    /// returning a completion time. Used to retro-account asynchronous
    /// copies whose *time* was already paid on a pipelined copy lane but
    /// whose *bytes* must still appear in the traffic counters exactly as
    /// a synchronous copy's would.
    pub fn account_bulk_read(&mut self, bytes: u64) {
        self.bytes_read += crate::time::align_up(bytes.max(1), self.cfg.access_granularity);
    }

    /// Counter-only twin of [`write_bulk`](Self::write_bulk); see
    /// [`account_bulk_read`](Self::account_bulk_read).
    pub fn account_bulk_write(&mut self, bytes: u64) {
        self.bytes_written += crate::time::align_up(bytes.max(1), self.cfg.access_granularity);
    }

    /// Transfer time of `span` bytes at this device's bandwidth, in ps.
    #[inline]
    fn xfer_ps(&self, span: u64) -> u64 {
        if span.is_multiple_of(TABLE_STEP) && span <= TABLE_MAX_SPAN {
            self.xfer_table[(span / TABLE_STEP) as usize]
        } else {
            bytes_over_bandwidth_ps(span, self.cfg.bandwidth_gbps)
        }
    }

    #[inline]
    fn occupy(&mut self, arrive: Time, span: u64) -> Time {
        self.busy.occupy(arrive, self.xfer_ps(span)) + self.cfg.latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::PS_PER_NS;

    fn dram() -> Dram {
        Dram::new(DramConfig {
            name: "test",
            access_granularity: 64,
            bandwidth_gbps: 64.0, // 64 B/ns: one word per ns
            latency_ns: 10,
        })
    }

    #[test]
    fn small_read_charges_full_word() {
        let mut d = dram();
        let done = d.read(0, 0, 32);
        assert_eq!(d.bytes_read, 64, "32 B read must cost one 64 B word");
        assert_eq!(done, 1 + 10); // 1 ns transfer + latency
    }

    #[test]
    fn straddling_read_charges_two_words() {
        let mut d = dram();
        d.read(0, 48, 32);
        assert_eq!(d.bytes_read, 128);
    }

    #[test]
    fn back_to_back_reads_queue_on_bandwidth() {
        let mut d = dram();
        let a = d.read(0, 0, 64); // busy 0..1
        let b = d.read(0, 64, 64); // busy 1..2
        assert_eq!(a, 11);
        assert_eq!(b, 12, "second read must wait for the first transfer");
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut d = dram();
        d.read(0, 0, 64);
        let b = d.read(100, 64, 64);
        assert_eq!(b, 111, "arrival after idle period starts immediately");
    }

    #[test]
    fn bulk_read_rounds_to_granularity() {
        let mut d = dram();
        d.read_bulk(0, 100);
        assert_eq!(d.bytes_read, 128);
    }

    fn presets() -> [DramConfig; 5] {
        [
            DramConfig::ddr4_2933_quad(),
            DramConfig::ddr4_3200_octa(),
            DramConfig::hbm2_v100(),
            DramConfig::hbm2e_a100(),
            DramConfig::gddr5x_titan_xp(),
        ]
    }

    #[test]
    fn drains_at_its_rated_bandwidth_on_every_preset() {
        const N: u64 = 10_000;
        // Each access's occupancy rounds up to a whole ps, so a drain may
        // overshoot the ideal by up to 1 ps per access on top of the final
        // rounding to a whole ns.
        const SLACK_NS: Time = 1 + N / PS_PER_NS;
        for cfg in presets() {
            let (g, lat) = (cfg.access_granularity, cfg.latency_ns);
            let drain = |gbps: f64| {
                let mut d = Dram::new(DramConfig {
                    bandwidth_gbps: gbps,
                    ..cfg.clone()
                });
                (0..N).map(|i| d.read(0, i * g, g as u32)).max().unwrap()
            };
            // At twice the bandwidth the ideal, and so the drain, halves.
            for gbps in [cfg.bandwidth_gbps, 2.0 * cfg.bandwidth_gbps] {
                let ideal = (N as f64 * g as f64 / gbps).ceil() as Time + lat;
                let done = drain(gbps);
                assert!(
                    (ideal..=ideal + SLACK_NS).contains(&done),
                    "{} at {gbps} GB/s: drained at {done} ns, ideal {ideal} ns",
                    cfg.name
                );
            }
            assert_eq!(Dram::new(cfg.clone()).read(0, 0, g as u32), 1 + lat);
        }
    }

    #[test]
    fn memoised_transfer_times_equal_the_formula_on_every_preset() {
        for cfg in presets() {
            let d = Dram::new(cfg);
            for span in 0..=2 * TABLE_MAX_SPAN {
                assert_eq!(
                    d.xfer_ps(span),
                    bytes_over_bandwidth_ps(span, d.cfg.bandwidth_gbps),
                    "{}: {span} B",
                    d.cfg.name
                );
            }
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut d = dram();
        d.read(0, 0, 64);
        d.write(0, 0, 64);
        assert_eq!((d.bytes_read, d.bytes_written), (64, 64));
    }
}
