//! `cudaMemcpy`-style bulk transfer engine.
//!
//! Explicit copies are the transport of the Subway baseline (§5.6) and the
//! "cudaMemcpy peak" reference line of Figure 8. A copy pays a fixed
//! driver/launch overhead and then streams through the PCIe link's bulk
//! path, touching host DRAM on one side and device memory on the other.

use crate::dram::Dram;
use crate::monitor::TrafficMonitor;
use crate::pcie::PcieLink;
use crate::time::Time;

/// Fixed software cost of one `cudaMemcpy` call (driver validation, DMA
/// descriptor setup). Measured values on the paper's platform are in the
/// 5–15 µs range for device-synchronous copies.
pub const MEMCPY_LAUNCH_OVERHEAD_NS: Time = 8_000;

/// Bulk copy engine bound to one link + host/device memory pair.
#[derive(Debug, Default)]
pub struct DmaEngine {
    /// Total payload bytes copied host→device.
    pub bytes_to_device: u64,
    /// Number of copies issued.
    pub copies: u64,
}

impl DmaEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Synchronous host→device copy; returns completion time.
    pub fn copy_to_device(
        &mut self,
        now: Time,
        bytes: u64,
        link: &mut PcieLink,
        host: &mut Dram,
        device: &mut Dram,
        monitor: &mut TrafficMonitor,
    ) -> Time {
        if bytes == 0 {
            return now;
        }
        self.copies += 1;
        self.bytes_to_device += bytes;
        let start = now + MEMCPY_LAUNCH_OVERHEAD_NS;
        let arrived = link.dma_host_to_gpu(start, bytes, host, monitor);
        // The device-side write happens as data streams in; it only shows
        // up in the completion time if HBM is slower than the link, which
        // it never is on these platforms, but we keep the accounting exact.
        device.write_bulk(start, bytes).max(arrived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;
    use crate::pcie::PcieConfig;

    fn rig() -> (PcieLink, Dram, Dram, TrafficMonitor, DmaEngine) {
        (
            PcieLink::new(PcieConfig::gen3_x16()),
            Dram::new(DramConfig::ddr4_2933_quad()),
            Dram::new(DramConfig::hbm2_v100()),
            TrafficMonitor::new(10_000),
            DmaEngine::new(),
        )
    }

    #[test]
    fn large_copy_amortizes_launch_overhead() {
        let (mut link, mut host, mut dev, mut mon, mut dma) = rig();
        let bytes = 256u64 << 20;
        let done = dma.copy_to_device(0, bytes, &mut link, &mut host, &mut dev, &mut mon);
        let gbps = bytes as f64 / done as f64;
        assert!((12.0..12.6).contains(&gbps), "large memcpy {gbps} GB/s");
    }

    #[test]
    fn small_copy_is_overhead_dominated() {
        let (mut link, mut host, mut dev, mut mon, mut dma) = rig();
        let done = dma.copy_to_device(0, 4096, &mut link, &mut host, &mut dev, &mut mon);
        assert!(done >= MEMCPY_LAUNCH_OVERHEAD_NS);
        let gbps = 4096.0 / done as f64;
        assert!(
            gbps < 1.0,
            "4 KiB memcpy should be far from peak, got {gbps}"
        );
    }

    #[test]
    fn zero_byte_copy_is_free() {
        let (mut link, mut host, mut dev, mut mon, mut dma) = rig();
        assert_eq!(
            dma.copy_to_device(42, 0, &mut link, &mut host, &mut dev, &mut mon),
            42
        );
        assert_eq!(dma.copies, 0);
    }

    #[test]
    fn device_side_traffic_is_accounted() {
        let (mut link, mut host, mut dev, mut mon, mut dma) = rig();
        dma.copy_to_device(0, 1 << 20, &mut link, &mut host, &mut dev, &mut mon);
        assert_eq!(dev.bytes_written, 1 << 20);
        assert_eq!(host.bytes_read, 1 << 20);
        assert_eq!(mon.dma_bytes, 1 << 20);
    }
}
