//! The FPGA-style PCIe traffic monitor.
//!
//! EMOGI's authors connected an FPGA to the PCIe switch and programmed it to
//! record "the request count, average/peak number of outstanding memory
//! requests, and request sizes" (§3.2). This module is the software
//! equivalent: the link model reports every request to a `TrafficMonitor`,
//! which maintains exactly those statistics plus the bandwidth-over-time
//! series used to draw Figure 4 and the byte counters behind the I/O
//! amplification study (Figure 10).

use crate::time::{achieved_gbps, Time};

/// Histogram of zero-copy read request sizes. The GPU coalescing unit can
/// only emit 32/64/96/128-byte requests (Figure 3), but the histogram keeps
/// an `other` bucket so a modelling bug cannot hide.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    /// Counts for 32, 64, 96 and 128-byte requests.
    pub buckets: [u64; 4],
    /// Requests of any other size (always 0 in a correct model).
    pub other: u64,
}

impl SizeHistogram {
    pub fn record(&mut self, size: u32) {
        match size {
            32 => self.buckets[0] += 1,
            64 => self.buckets[1] += 1,
            96 => self.buckets[2] += 1,
            128 => self.buckets[3] += 1,
            _ => self.other += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.other
    }

    /// Fraction of requests in the `size` bucket (32/64/96/128).
    pub fn fraction(&self, size: u32) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let count = match size {
            32 => self.buckets[0],
            64 => self.buckets[1],
            96 => self.buckets[2],
            128 => self.buckets[3],
            _ => self.other,
        };
        count as f64 / total as f64
    }
}

/// A histogram is a ledger field (see [`ledger!`](crate::ledger!)): its
/// buckets diff and fold like any other counter.
impl std::ops::Sub for SizeHistogram {
    type Output = SizeHistogram;

    fn sub(mut self, base: SizeHistogram) -> SizeHistogram {
        for (a, b) in self.buckets.iter_mut().zip(base.buckets) {
            *a -= b;
        }
        self.other -= base.other;
        self
    }
}

impl std::ops::AddAssign<&SizeHistogram> for SizeHistogram {
    fn add_assign(&mut self, other: &SizeHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
        self.other += other.other;
    }
}

/// Bytes moved per fixed time window; used to plot bandwidth over time like
/// the Intel VTune traces in Figure 4.
#[derive(Debug, Clone)]
pub struct BandwidthSeries {
    window_ns: Time,
    windows: Vec<u64>,
}

impl BandwidthSeries {
    pub fn new(window_ns: Time) -> Self {
        assert!(window_ns > 0);
        Self {
            window_ns,
            windows: Vec::new(),
        }
    }

    pub fn record(&mut self, at: Time, bytes: u64) {
        let idx = (at / self.window_ns) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, 0);
        }
        self.windows[idx] += bytes;
    }

    /// (window start time, achieved GB/s) samples.
    pub fn samples(&self) -> impl Iterator<Item = (Time, f64)> + '_ {
        let w = self.window_ns;
        self.windows
            .iter()
            .enumerate()
            .map(move |(i, &b)| (i as Time * w, achieved_gbps(b, w)))
    }

    /// Peak single-window bandwidth in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.windows
            .iter()
            .map(|&b| achieved_gbps(b, self.window_ns))
            .fold(0.0, f64::max)
    }
}

/// Running statistics about the number of in-flight (tagged) requests.
#[derive(Debug, Clone, Default)]
pub struct OutstandingGauge {
    current: u32,
    peak: u32,
    area: f64, // time-weighted sum of `current`
    last_change: Time,
}

impl OutstandingGauge {
    pub fn inc(&mut self, now: Time) {
        self.advance(now);
        self.current += 1;
        self.peak = self.peak.max(self.current);
    }

    pub fn dec(&mut self, now: Time) {
        self.advance(now);
        debug_assert!(self.current > 0, "gauge underflow");
        self.current = self.current.saturating_sub(1);
    }

    fn advance(&mut self, now: Time) {
        // Issues are timestamped at the end of their warp's compute phase,
        // which can sit a few ns past an interleaved completion event;
        // clamp instead of asserting (the time-weighted area is unaffected
        // by a zero-length interval).
        let now = now.max(self.last_change);
        self.area += f64::from(self.current) * (now - self.last_change) as f64;
        self.last_change = now;
    }

    pub fn current(&self) -> u32 {
        self.current
    }

    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Time-weighted average number of outstanding requests over `[0, now]`.
    pub fn average(&self, now: Time) -> f64 {
        if now == 0 {
            return 0.0;
        }
        let area =
            self.area + f64::from(self.current) * (now.saturating_sub(self.last_change)) as f64;
        area / now as f64
    }
}

/// The monitor proper. One per simulated machine; reset between phases.
#[derive(Debug, Clone)]
pub struct TrafficMonitor {
    /// Number of zero-copy read requests observed on the link.
    pub read_requests: u64,
    /// Request-size histogram (Figure 5 / Figure 7 data).
    pub sizes: SizeHistogram,
    /// Payload bytes of zero-copy reads (host→GPU data).
    pub zero_copy_bytes: u64,
    /// Bytes moved by bulk DMA (cudaMemcpy and UVM page migration).
    pub dma_bytes: u64,
    /// Wire bytes including TLP headers, both mechanisms.
    pub wire_bytes: u64,
    /// In-flight request statistics.
    pub outstanding: OutstandingGauge,
    /// Host→GPU payload bandwidth over time.
    pub series: BandwidthSeries,
}

impl TrafficMonitor {
    /// `window_ns` sets the resolution of the bandwidth time series.
    pub fn new(window_ns: Time) -> Self {
        Self {
            read_requests: 0,
            sizes: SizeHistogram::default(),
            zero_copy_bytes: 0,
            dma_bytes: 0,
            wire_bytes: 0,
            outstanding: OutstandingGauge::default(),
            series: BandwidthSeries::new(window_ns),
        }
    }

    /// Record the issue of a zero-copy read request of `size` bytes.
    pub fn on_read_issued(&mut self, now: Time, size: u32) {
        self.read_requests += 1;
        self.sizes.record(size);
        self.outstanding.inc(now);
    }

    /// Record completion of a zero-copy read (payload + header wire cost).
    pub fn on_read_completed(&mut self, now: Time, size: u32, wire: u32) {
        self.outstanding.dec(now);
        self.zero_copy_bytes += u64::from(size);
        self.wire_bytes += u64::from(wire);
        self.series.record(now, u64::from(size));
    }

    /// Record a bulk DMA of `bytes` payload finishing at `now`, having
    /// occupied the wire for `wire` total bytes.
    pub fn on_dma(&mut self, now: Time, bytes: u64, wire: u64) {
        self.dma_bytes += bytes;
        self.wire_bytes += wire;
        self.series.record(now, bytes);
    }

    /// All payload bytes that crossed host→GPU.
    pub fn host_to_gpu_bytes(&self) -> u64 {
        self.zero_copy_bytes + self.dma_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = SizeHistogram::default();
        for &s in &[32, 64, 96, 128, 128, 40] {
            h.record(s);
        }
        assert_eq!(h.buckets, [1, 1, 1, 2]);
        assert_eq!(h.other, 1);
        assert_eq!(h.total(), 6);
        assert!((h.fraction(128) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_folds_and_diffs_bucket_by_bucket() {
        let mut a = SizeHistogram::default();
        a.record(32);
        let mut b = SizeHistogram::default();
        b.record(128);
        b.record(40);
        let base = a.clone();
        a += &b;
        assert_eq!(a.total(), 3);
        assert_eq!(a - base, b);
    }

    #[test]
    fn series_buckets_by_window() {
        let mut s = BandwidthSeries::new(100);
        s.record(10, 1000);
        s.record(90, 1000);
        s.record(150, 500);
        let v: Vec<_> = s.samples().collect();
        assert_eq!(v.len(), 2);
        assert!((v[0].1 - 20.0).abs() < 1e-9); // 2000 B / 100 ns = 20 GB/s
        assert!((v[1].1 - 5.0).abs() < 1e-9);
        assert!((s.peak_gbps() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn gauge_tracks_average_and_peak() {
        let mut g = OutstandingGauge::default();
        g.inc(0);
        g.inc(0);
        g.dec(50);
        g.dec(100);
        // 2 outstanding for 50 ns, then 1 for 50 ns => average 1.5
        assert!((g.average(100) - 1.5).abs() < 1e-12);
        assert_eq!(g.peak(), 2);
        assert_eq!(g.current(), 0);
    }

    #[test]
    fn host_to_gpu_bytes_counts_zero_copy_and_dma() {
        let mut m = TrafficMonitor::new(1000);
        m.on_read_issued(0, 128);
        m.on_read_completed(10, 128, 148);
        m.on_dma(20, 4096, 4416);
        assert_eq!(m.host_to_gpu_bytes(), 4224);
        assert_eq!(m.read_requests, 1);
    }
}
