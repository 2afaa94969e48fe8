//! Simulation time and bandwidth arithmetic.
//!
//! Time is measured in integer **nanoseconds** so that event ordering is
//! exact and runs are bit-reproducible. Bandwidths are expressed in GB/s,
//! which conveniently equals bytes-per-nanosecond (1 GB/s = 10⁹ B / 10⁹ ns).
//!
//! Every serialising resource — a [`Dram`](crate::dram::Dram), both halves
//! of a [`PcieLink`](crate::pcie::PcieLink), the
//! [`CxlLink`](crate::cxl::CxlLink) wire, each peer-link egress port and
//! the [`CopyEngine`](crate::pipeline::CopyEngine) lane — keeps a finer
//! clock inside: one [`BusyClock`], counting integer picoseconds
//! ([`bytes_over_bandwidth_ps`]). A 32-byte sector at HBM speed takes
//! 36 ps and a 148-byte PCIe 3.0 completion 10.44 ns, so a whole-ns charge
//! per transfer would cap 900 GB/s HBM at 32 GB/s of sector traffic and
//! run merged 128-byte zero-copy reads 5 % below the wire. Completions
//! are still whole-ns `Time`.

/// Simulation timestamp in nanoseconds.
pub type Time = u64;

/// Picoseconds per nanosecond: the busy clocks' unit below [`Time`]'s.
pub const PS_PER_NS: u64 = 1000;

/// Serialization delay for `bytes` over a link of `gbps` GB/s in
/// **picoseconds**: `⌈bytes × 1000 / gbps⌉`, at least 1 ps for any
/// non-empty transfer, so a transfer can never be free.
#[inline]
pub fn bytes_over_bandwidth_ps(bytes: u64, gbps: f64) -> u64 {
    debug_assert!(gbps > 0.0, "bandwidth must be positive");
    if bytes == 0 {
        return 0;
    }
    let ps = (bytes as f64 * PS_PER_NS as f64 / gbps).ceil() as u64;
    ps.max(1)
}

/// The busy-until horizon of one serialising resource, in picoseconds.
///
/// The one occupancy rule of the simulator: a transfer of `ps`
/// picoseconds arriving at `arrive` starts at `max(busy, arrive × 1000)`,
/// moves the horizon to `start + ps`, and completes at the horizon
/// rounded up to the next whole ns. One transfer on an idle resource thus
/// completes exactly as a whole-ns model would; back-to-back transfers
/// pay their exact sum, not one rounding each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusyClock {
    busy_ps: u64,
}

impl BusyClock {
    /// Occupy the resource for `ps` picoseconds, starting no earlier than
    /// `arrive`; returns the whole ns at which the occupancy ends.
    #[inline]
    pub fn occupy(&mut self, arrive: Time, ps: u64) -> Time {
        let start = self.busy_ps.max(arrive * PS_PER_NS);
        self.busy_ps = start + ps;
        self.busy_ps.div_ceil(PS_PER_NS)
    }

    /// Keep the resource busy until at least `t`: a path whose end is set
    /// by another resource (a DMA waiting on host DRAM) holds the wire.
    #[inline]
    pub fn hold_until(&mut self, t: Time) {
        self.busy_ps = self.busy_ps.max(t * PS_PER_NS);
    }

    /// The first whole ns at which the resource is free.
    #[inline]
    pub fn free_at(&self) -> Time {
        self.busy_ps.div_ceil(PS_PER_NS)
    }
}

/// Wire bytes of a bulk copy of `bytes` payload bytes framed into
/// `payload_bytes`-sized packets (PCIe completion TLPs, CXL flits) that
/// each carry a `header_bytes` header. Every bulk path — synchronous DMA
/// in both directions, the asynchronous copy lane, its retro-accounting
/// and CXL bulk promotion — frames through this one function, which is
/// what keeps pipelined staging byte-identical to the demand path.
#[inline]
pub fn framed_wire_bytes(bytes: u64, payload_bytes: u32, header_bytes: u32) -> u64 {
    bytes + bytes.div_ceil(u64::from(payload_bytes)) * u64::from(header_bytes)
}

/// Achieved bandwidth in GB/s for `bytes` moved over `elapsed` nanoseconds.
/// Returns 0.0 for an empty interval.
#[inline]
pub fn achieved_gbps(bytes: u64, elapsed: Time) -> f64 {
    if elapsed == 0 {
        0.0
    } else {
        bytes as f64 / elapsed as f64
    }
}

/// Round `addr` down to a multiple of `align` (power of two).
#[inline]
pub fn align_down(addr: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    addr & !(align - 1)
}

/// Round `addr` up to a multiple of `align` (power of two).
#[inline]
pub fn align_up(addr: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (addr + align - 1) & !(align - 1)
}

/// Number of bytes touched when `[addr, addr + size)` is accessed at
/// `granularity`-byte granularity, i.e. the aligned span covering the range.
/// This is how a 32-byte PCIe read turns into 64 bytes of DDR4 traffic
/// (EMOGI §3.3, "the minimum memory access size for DDR4 DRAM is 64-byte").
#[inline]
pub fn aligned_span(addr: u64, size: u32, granularity: u64) -> u64 {
    if size == 0 {
        return 0;
    }
    let start = align_down(addr, granularity);
    let end = align_up(addr + u64::from(size), granularity);
    end - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picosecond_transfer_time_rounds_up_and_is_never_zero() {
        // One HBM2 sector: 32 B at 900 GB/s is 35.6 ps.
        assert_eq!(bytes_over_bandwidth_ps(32, 900.0), 36);
        // 16 GB/s moves 16 bytes per ns; 1600 bytes take 100 ns.
        assert_eq!(bytes_over_bandwidth_ps(1600, 16.0), 100_000);
        assert_eq!(bytes_over_bandwidth_ps(1, 1e6), 1);
        assert_eq!(bytes_over_bandwidth_ps(0, 16.0), 0);
    }

    #[test]
    fn busy_clock_sums_picoseconds_and_rounds_only_the_completion() {
        let mut c = BusyClock::default();
        // Idle: starts at the arrival, completes at the next whole ns.
        assert_eq!(c.occupy(10, 10_440), 21);
        // Back to back: the exact sum, 20.88 ns after 10, not 2 × 11.
        assert_eq!(c.occupy(10, 10_440), 31);
        assert_eq!(c.free_at(), 31);
        // A later arrival on an idle clock starts at the arrival.
        assert_eq!(c.occupy(100, 1), 101);
        // Holding never moves the horizon backwards.
        c.hold_until(50);
        assert_eq!(c.free_at(), 101);
        c.hold_until(200);
        assert_eq!(c.occupy(0, 500), 201);
    }

    #[test]
    fn framing_adds_one_header_per_started_packet() {
        // 256 KiB in 128 B packets: 2048 headers of 20 B.
        assert_eq!(
            framed_wire_bytes(256 << 10, 128, 20),
            (256 << 10) + 2048 * 20
        );
        // A partial trailing packet still pays a whole header.
        assert_eq!(framed_wire_bytes(129, 128, 20), 129 + 2 * 20);
        assert_eq!(framed_wire_bytes(0, 128, 20), 0);
    }

    #[test]
    fn achieved_bandwidth_roundtrips() {
        let t = bytes_over_bandwidth_ps(1 << 30, 12.3).div_ceil(PS_PER_NS);
        let bw = achieved_gbps(1 << 30, t);
        assert!((bw - 12.3).abs() < 0.01, "got {bw}");
    }

    #[test]
    fn alignment_helpers() {
        assert_eq!(align_down(130, 128), 128);
        assert_eq!(align_up(130, 128), 256);
        assert_eq!(align_down(128, 128), 128);
        assert_eq!(align_up(128, 128), 128);
    }

    #[test]
    fn aligned_span_covers_straddles() {
        // A 32-byte read at offset 48 straddles two 64-byte DRAM words.
        assert_eq!(aligned_span(48, 32, 64), 128);
        // An aligned 32-byte read costs one word.
        assert_eq!(aligned_span(64, 32, 64), 64);
        // A 96-byte read misaligned by 32 spans two words of 64.
        assert_eq!(aligned_span(32, 96, 64), 128);
        assert_eq!(aligned_span(0, 0, 64), 0);
    }
}
