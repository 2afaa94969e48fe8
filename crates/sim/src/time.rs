//! Simulation time and bandwidth arithmetic.
//!
//! Time is measured in integer **nanoseconds** so that event ordering is
//! exact and runs are bit-reproducible. Bandwidths are expressed in GB/s,
//! which conveniently equals bytes-per-nanosecond (1 GB/s = 10⁹ B / 10⁹ ns).
//!
//! One resource keeps a finer clock inside: a [`Dram`](crate::dram::Dram)
//! counts its busy time in integer picoseconds
//! ([`bytes_over_bandwidth_ps`]), because a 32-byte sector at HBM speed
//! takes 36 ps and a whole-nanosecond charge would cap 900 GB/s HBM at
//! 32 GB/s of sector traffic. Its completions are still whole-ns `Time`.

/// Simulation timestamp in nanoseconds.
pub type Time = u64;

/// Serialization delay for `bytes` over a link of `gbps` GB/s, rounded up to
/// a whole nanosecond (and at least 1 ns for any non-empty transfer, so a
/// transfer can never be free).
#[inline]
pub fn bytes_over_bandwidth_ns(bytes: u64, gbps: f64) -> Time {
    debug_assert!(gbps > 0.0, "bandwidth must be positive");
    if bytes == 0 {
        return 0;
    }
    let ns = (bytes as f64 / gbps).ceil() as Time;
    ns.max(1)
}

/// [`bytes_over_bandwidth_ns`] in **picoseconds**: `⌈bytes × 1000 / gbps⌉`,
/// at least 1 ps for any non-empty transfer. The DRAM model keeps its busy
/// clock at this resolution, because one 32-byte sector at HBM speed
/// (36 ps at 900 GB/s) is far below a whole nanosecond.
#[inline]
pub fn bytes_over_bandwidth_ps(bytes: u64, gbps: f64) -> u64 {
    debug_assert!(gbps > 0.0, "bandwidth must be positive");
    if bytes == 0 {
        return 0;
    }
    let ps = (bytes as f64 * 1000.0 / gbps).ceil() as u64;
    ps.max(1)
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
    fn bandwidth_is_bytes_per_ns() {
        // 16 GB/s moves 16 bytes per ns; 1600 bytes take 100 ns.
        assert_eq!(bytes_over_bandwidth_ns(1600, 16.0), 100);
    }

    #[test]
    fn transfer_time_rounds_up_and_is_never_zero() {
        assert_eq!(bytes_over_bandwidth_ns(1, 16.0), 1);
        assert_eq!(bytes_over_bandwidth_ns(17, 16.0), 2);
        assert_eq!(bytes_over_bandwidth_ns(0, 16.0), 0);
    }

    #[test]
    fn picosecond_transfer_time_rounds_up_and_is_never_zero() {
        // One HBM2 sector: 32 B at 900 GB/s is 35.6 ps.
        assert_eq!(bytes_over_bandwidth_ps(32, 900.0), 36);
        assert_eq!(bytes_over_bandwidth_ps(1600, 16.0), 100_000);
        assert_eq!(bytes_over_bandwidth_ps(1, 1e6), 1);
        assert_eq!(bytes_over_bandwidth_ps(0, 16.0), 0);
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
        let t = bytes_over_bandwidth_ns(1 << 30, 12.3);
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
