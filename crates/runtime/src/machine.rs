//! The simulated machine: one GPU, one PCIe link, host memory, optional
//! UVM — i.e. one row of the paper's Table 1, in miniature.

use crate::alloc::{AddressSpaces, MANAGED_BASE};
use crate::report::RunStats;
use emogi_gpu::cache::SectoredCache;
use emogi_gpu::config::{GpuConfig, GpuPreset};
use emogi_sim::cxl::{CxlConfig, CxlLink};
use emogi_sim::dma::{DmaEngine, MEMCPY_LAUNCH_OVERHEAD_NS};
use emogi_sim::dram::{Dram, DramConfig};
use emogi_sim::monitor::TrafficMonitor;
use emogi_sim::pcie::{PcieConfig, PcieGen, PcieLink};
use emogi_sim::time::{framed_wire_bytes, Time};
use emogi_uvm::{UvmConfig, UvmDriver};

/// Everything needed to assemble a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The GPU model (SIMT limits, cache, HBM, device capacity).
    pub gpu: GpuConfig,
    /// The host↔GPU interconnect.
    pub pcie: PcieConfig,
    /// The host memory behind the link.
    pub host_dram: DramConfig,
    /// Template for the UVM driver (pool size is filled in from leftover
    /// device memory when the first managed allocation is made).
    pub uvm: UvmConfig,
    /// Optional CXL-class external-memory tier. `None` (the default in
    /// every preset) reproduces the paper's two-level machine exactly.
    pub cxl: Option<CxlConfig>,
    /// Pinned-host capacity in bytes; allocations past it spill to the
    /// CXL tier. `None` models unbounded host DRAM (the two-tier default).
    pub host_capacity_bytes: Option<u64>,
}

impl MachineConfig {
    /// Table 1: V100 + PCIe 3.0 + Cascade-Lake quad-channel DDR4.
    pub fn v100_gen3() -> Self {
        Self {
            gpu: GpuPreset::V100.config(),
            pcie: PcieGen::Gen3x16.config(),
            host_dram: DramConfig::ddr4_2933_quad(),
            uvm: UvmConfig::default(),
            cxl: None,
            host_capacity_bytes: None,
        }
    }

    /// §5.5: DGX A100 with the root port in PCIe 3.0 mode.
    pub fn a100_gen3() -> Self {
        Self {
            gpu: GpuPreset::A100.config(),
            pcie: PcieGen::Gen3x16.config(),
            host_dram: DramConfig::ddr4_3200_octa(),
            uvm: UvmConfig::default(),
            cxl: None,
            host_capacity_bytes: None,
        }
    }

    /// §5.5: DGX A100 with PCIe 4.0.
    pub fn a100_gen4() -> Self {
        Self {
            pcie: PcieGen::Gen4x16.config(),
            ..Self::a100_gen3()
        }
    }

    /// Table 3: Titan Xp platform used for the HALO comparison.
    pub fn titan_xp_gen3() -> Self {
        Self {
            gpu: GpuPreset::TitanXp.config(),
            pcie: PcieGen::Gen3x16.config(),
            host_dram: DramConfig::ddr4_2933_quad(),
            uvm: UvmConfig::default(),
            cxl: None,
            host_capacity_bytes: None,
        }
    }

    /// Attach a CXL-class external-memory tier.
    pub fn with_cxl(mut self, cxl: CxlConfig) -> Self {
        self.cxl = Some(cxl);
        self
    }

    /// Cap pinned host DRAM at `bytes`; allocations past the cap spill to
    /// the CXL tier (which must then be configured).
    pub fn with_host_capacity(mut self, bytes: u64) -> Self {
        self.host_capacity_bytes = Some(bytes);
        self
    }
}

/// Panic unless `holds(lhs, rhs)`, naming the conservation law and both
/// numbers: the one form every ledger check ([`Machine::check_invariants`]
/// and the placements built on it) fails in.
pub fn law(name: &str, lhs: u64, rhs: u64, holds: fn(&u64, &u64) -> bool) {
    assert!(
        holds(&lhs, &rhs),
        "machine invariant `{name}` broken: {lhs} vs {rhs}"
    );
}

/// Resolution of the monitor's bandwidth time series (§3.2).
const MONITOR_WINDOW_NS: Time = 50_000;

/// The assembled machine. The executor (`crate::exec`) mutates it in
/// place; experiments read the monitors afterwards.
#[derive(Debug)]
pub struct Machine {
    /// The configuration the machine was assembled from.
    pub cfg: MachineConfig,
    /// The PCIe link with its tag pool and queueing model.
    pub link: PcieLink,
    /// Host DRAM serving zero-copy reads and DMA sources.
    pub host_dram: Dram,
    /// The GPU's device memory.
    pub hbm: Dram,
    /// Unified sectored cache in front of HBM and the PCIe path.
    pub cache: SectoredCache,
    /// The FPGA-style PCIe traffic monitor (§3.2).
    pub monitor: TrafficMonitor,
    /// The bulk-copy engine (`cudaMemcpy`, UVM migration batches).
    pub dma: DmaEngine,
    /// The simulated address-space allocators.
    pub spaces: AddressSpaces,
    /// The CXL external-memory link, present when the config attaches one.
    pub cxl: Option<CxlLink>,
    /// The UVM driver, initialized before the first managed kernel.
    pub uvm: Option<UvmDriver>,
    /// Simulated wall clock, advanced by kernels and copies.
    pub now: Time,
    /// Bytes the kernels' lanes actually requested (pre-coalescing);
    /// incremented by the executor per warp step.
    pub lane_bytes: u64,
    /// Bytes the coalescer moved for those lanes (post-coalescing
    /// transaction sizes). `lane_bytes / txn_bytes` is the coalescing
    /// efficiency the layout experiments report.
    pub txn_bytes: u64,
    /// Kernels launched since construction; bumped by
    /// [`run_kernel`](crate::exec::run_kernel) (and by analytic baselines
    /// that model a launch without executing one).
    pub kernel_launches: u64,
    /// Summed over every launch: how long its last warp slot ran alone,
    /// from the second-to-last slot's retirement (or the launch start)
    /// to its own — the straggler tail of the launch. A reading of when
    /// warps retired, never a cost: no clock waits on it.
    pub last_warp_alone_ns: Time,
}

impl Machine {
    /// Assemble a machine from `cfg`, at time 0, with nothing allocated.
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            link: PcieLink::new(cfg.pcie.clone()),
            host_dram: Dram::new(cfg.host_dram.clone()),
            hbm: Dram::new(cfg.gpu.hbm.clone()),
            cache: SectoredCache::new(&cfg.gpu.cache),
            monitor: TrafficMonitor::new(MONITOR_WINDOW_NS),
            dma: DmaEngine::new(),
            spaces: AddressSpaces::new(cfg.gpu.mem_bytes),
            cxl: cfg.cxl.clone().map(CxlLink::new),
            uvm: None,
            now: 0,
            lane_bytes: 0,
            txn_bytes: 0,
            kernel_launches: 0,
            last_warp_alone_ns: 0,
            cfg,
        }
    }

    /// `cudaMalloc`: device memory for vertex lists and status arrays.
    pub fn alloc_device(&mut self, bytes: u64) -> u64 {
        assert!(
            self.uvm.is_none(),
            "allocate all device memory before the first kernel runs \
             (the UVM pool is sized from leftover device memory)"
        );
        self.spaces.alloc_device(bytes)
    }

    /// `cudaMallocHost`: pinned, zero-copy-accessible host memory.
    pub fn alloc_host_pinned(&mut self, bytes: u64) -> u64 {
        self.spaces.alloc_host_pinned(bytes)
    }

    /// `cudaMallocManaged`: UVM-managed memory.
    pub fn alloc_managed(&mut self, bytes: u64) -> u64 {
        self.spaces.alloc_managed(bytes)
    }

    /// Allocate CXL external memory. Panics when no CXL tier is attached —
    /// spilling past host DRAM on a two-tier machine is a configuration
    /// error, not a silent fallback.
    pub fn alloc_cxl(&mut self, bytes: u64) -> u64 {
        assert!(
            self.cxl.is_some(),
            "allocating {bytes} B of CXL external memory, but the machine \
             has no CXL tier (MachineConfig::with_cxl)"
        );
        self.spaces.alloc_cxl(bytes)
    }

    /// Pinned host bytes still available under the configured capacity
    /// cap; `u64::MAX` when host DRAM is unbounded (the two-tier default).
    pub fn host_free(&self) -> u64 {
        match self.cfg.host_capacity_bytes {
            Some(cap) => cap.saturating_sub(self.spaces.host_used()),
            None => u64::MAX,
        }
    }

    /// Create the UVM driver covering every managed allocation so far,
    /// with a page pool equal to the unallocated device memory. Called
    /// automatically by the executor before the first kernel that touches
    /// managed space.
    pub fn ensure_uvm(&mut self) {
        if self.uvm.is_some() {
            return;
        }
        let managed_len = self.managed_used().max(4096);
        let mut uvm_cfg = self.cfg.uvm.clone();
        uvm_cfg.pool_bytes = self.spaces.device_free().max(uvm_cfg.page_bytes);
        self.uvm = Some(UvmDriver::new(uvm_cfg, MANAGED_BASE, managed_len));
    }

    fn managed_used(&self) -> u64 {
        self.spaces.managed_used()
    }

    /// Synchronous `cudaMemcpy` host→device; advances the clock.
    pub fn memcpy_to_device(&mut self, bytes: u64) {
        self.now = self.dma.copy_to_device(
            self.now,
            bytes,
            &mut self.link,
            &mut self.host_dram,
            &mut self.hbm,
            &mut self.monitor,
        );
    }

    /// Retro-account an asynchronous staging copy the pipelined planner
    /// has just adopted: the transfer's *time* was paid on the prefetch
    /// copy lane while a kernel computed, but its *traffic* must appear
    /// in every counter exactly as the synchronous batched copy's would —
    /// DMA bytes, monitor DMA/wire bytes (per-TLP completion headers
    /// included), host-DRAM read span and HBM write span. Deliberately
    /// does not advance the clock or occupy any busy-until lane; the
    /// caller applies any residual in-flight stall separately.
    pub fn account_async_stage(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.dma.bytes_to_device += bytes;
        let wire = framed_wire_bytes(
            bytes,
            self.cfg.pcie.dma_payload_bytes,
            self.cfg.pcie.completion_header_bytes,
        );
        self.monitor.on_dma(self.now, bytes, wire);
        self.host_dram.account_bulk_read(bytes);
        self.hbm.account_bulk_write(bytes);
    }

    /// Synchronous bulk promotion CXL→device; advances the clock. The
    /// stream pays the memcpy launch overhead, reads out of the CXL tier
    /// (link occupancy + flit headers) and lands in HBM — the far-memory
    /// twin of [`memcpy_to_device`](Self::memcpy_to_device). CXL traffic
    /// is *not* PCIe traffic: the monitor and DMA counters stay untouched
    /// and the bytes surface in [`RunStats::cxl_bytes`].
    pub fn memcpy_cxl_to_device(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let cxl = self
            .cxl
            .as_mut()
            .expect("CXL promotion on a machine without a CXL tier");
        let start = self.now + MEMCPY_LAUNCH_OVERHEAD_NS;
        let arrived = cxl.read_bulk(start, bytes);
        self.now = self.hbm.write_bulk(start, bytes).max(arrived);
    }

    /// Every counter a run reports, cumulative since construction
    /// (`elapsed_ns` is the clock itself). A run's stats are the
    /// difference of two readings, taken by [`measure`](Self::measure)
    /// (the engine's driver keeps its own running per-device reading). The
    /// transfer manager and prefetcher live outside the machine; whoever
    /// owns them (the engine's placement) fills `transfer` / `prefetch`.
    pub fn counters(&self) -> RunStats {
        let uvm = self.uvm.as_ref().map(|u| &u.stats);
        RunStats {
            elapsed_ns: self.now,
            kernel_launches: self.kernel_launches,
            last_warp_alone_ns: self.last_warp_alone_ns,
            pcie_read_requests: self.monitor.read_requests,
            request_sizes: self.monitor.sizes.clone(),
            host_bytes: self.monitor.host_to_gpu_bytes(),
            page_faults: uvm.map_or(0, |s| s.faults),
            pages_migrated: uvm.map_or(0, |s| s.pages_migrated),
            host_dram_bytes: self.host_dram.bytes_read,
            l2_sector_hits: self.cache.stats.sector_hits,
            l2_sector_misses: self.cache.stats.sector_misses,
            lane_bytes: self.lane_bytes,
            txn_bytes: self.txn_bytes,
            cxl_read_requests: self.cxl.as_ref().map_or(0, |c| c.read_requests),
            cxl_bytes: self.cxl.as_ref().map_or(0, CxlLink::total_bytes),
            ..RunStats::default()
        }
    }

    /// Panic unless the conservation laws that hold by construction do:
    /// every zero-copy request has one of the four sizes the coalescer
    /// emits, the size histogram counts each request once and weighs
    /// exactly the zero-copy payload, no link carries fewer wire bytes
    /// than payload, host DRAM serves at least every payload byte the
    /// monitor saw leave it, and every byte the DMA engine delivers
    /// crossed the monitor and was written to HBM (UVM migrations cross
    /// the monitor too, but not the DMA engine). A failure names the law
    /// and both numbers.
    pub fn check_invariants(&self) {
        let mon = &self.monitor;
        law("monitor.sizes.other == 0", mon.sizes.other, 0, u64::eq);
        law(
            "monitor.sizes.total() == monitor.read_requests",
            mon.sizes.total(),
            mon.read_requests,
            u64::eq,
        );
        law(
            "sum of sizes.buckets[i] * 32(i + 1) == monitor.zero_copy_bytes",
            (1..).zip(mon.sizes.buckets).map(|(i, n)| 32 * i * n).sum(),
            mon.zero_copy_bytes,
            u64::eq,
        );
        law(
            "monitor.wire_bytes >= zero_copy_bytes + dma_bytes",
            mon.wire_bytes,
            mon.zero_copy_bytes + mon.dma_bytes,
            u64::ge,
        );
        law(
            "host_dram.bytes_read >= zero_copy_bytes + dma_bytes",
            self.host_dram.bytes_read,
            mon.zero_copy_bytes + mon.dma_bytes,
            u64::ge,
        );
        law(
            "monitor.dma_bytes >= dma.bytes_to_device",
            mon.dma_bytes,
            self.dma.bytes_to_device,
            u64::ge,
        );
        law(
            "hbm.bytes_written >= dma.bytes_to_device",
            self.hbm.bytes_written,
            self.dma.bytes_to_device,
            u64::ge,
        );
        if let Some(cxl) = &self.cxl {
            law(
                "cxl.wire_bytes >= cxl.total_bytes()",
                cxl.wire_bytes,
                cxl.total_bytes(),
                u64::ge,
            );
        }
    }

    /// The one bracket for a run that bypasses the engine's driver (§3.2:
    /// read the monitor before and after): whatever `run` does to the
    /// machine, with the counters it moved. Brackets nest and adjoin —
    /// two adjacent ones `+=` to the one enclosing both.
    pub fn measure<T>(&mut self, run: impl FnOnce(&mut Machine) -> T) -> (T, RunStats) {
        let base = self.counters();
        let out = run(self);
        (out, self.counters() - base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build() {
        for m in [
            MachineConfig::v100_gen3(),
            MachineConfig::a100_gen3(),
            MachineConfig::a100_gen4(),
            MachineConfig::titan_xp_gen3(),
        ] {
            let machine = Machine::new(m);
            assert_eq!(machine.now, 0);
        }
    }

    #[test]
    fn memcpy_advances_clock_and_counts() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        m.memcpy_to_device(1 << 20);
        assert!(m.now > 0);
        assert_eq!(m.monitor.dma_bytes, 1 << 20);
    }

    #[test]
    fn uvm_pool_is_leftover_device_memory() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        let cap = m.spaces.device_capacity();
        m.alloc_device(1 << 20);
        m.alloc_managed(8 << 20);
        m.ensure_uvm();
        let pool = m.uvm.as_ref().unwrap().config().pool_bytes;
        assert_eq!(pool, cap - (1 << 20));
    }

    #[test]
    #[should_panic(expected = "before the first kernel")]
    fn device_alloc_after_uvm_panics() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        m.alloc_managed(4096);
        m.ensure_uvm();
        m.alloc_device(128);
    }

    #[test]
    fn cxl_tier_is_opt_in_and_accounted_separately() {
        let mut m = Machine::new(
            MachineConfig::v100_gen3()
                .with_cxl(CxlConfig::external_x8())
                .with_host_capacity(1 << 20),
        );
        assert_eq!(m.host_free(), 1 << 20);
        m.alloc_host_pinned(1 << 20);
        assert_eq!(m.host_free(), 0, "host cap is exhausted");
        m.alloc_cxl(1 << 20);
        let ((), stats) = m.measure(|m| m.memcpy_cxl_to_device(1 << 20));
        assert_eq!(stats.cxl_bytes, 1 << 20);
        assert_eq!(stats.host_bytes, 0, "CXL traffic must not count as PCIe");
        assert_eq!(m.monitor.dma_bytes, 0);
        assert!(m.now > MEMCPY_LAUNCH_OVERHEAD_NS);
    }

    #[test]
    #[should_panic(expected = "`monitor.sizes.total() == monitor.read_requests` broken: 0 vs 1")]
    fn check_invariants_names_the_broken_law_and_both_numbers() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        m.memcpy_to_device(1 << 20);
        m.check_invariants();
        m.monitor.read_requests += 1;
        m.check_invariants();
    }

    #[test]
    #[should_panic(expected = "no CXL tier")]
    fn cxl_alloc_without_tier_panics() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        m.alloc_cxl(4096);
    }

    #[test]
    fn measure_returns_the_value_and_exactly_the_counters_moved() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        m.memcpy_to_device(1 << 20);
        let base = m.counters();
        assert_eq!((base.elapsed_ns, base.host_bytes), (m.now, 1 << 20));
        let (end, stats) = m.measure(|m| {
            m.memcpy_to_device(2 << 20);
            m.now
        });
        assert_eq!(end, m.now, "the closure's value comes back");
        let after = m.counters();
        assert_eq!(stats, after - base.clone(), "after minus before, exactly");
        assert_eq!(stats.host_bytes, 2 << 20);
        assert_eq!(stats.kernel_launches, 0, "a memcpy is not a launch");
        assert_eq!(stats.elapsed_ns, m.now - base.elapsed_ns);
        assert_eq!(
            stats.avg_pcie_gbps(),
            (2u64 << 20) as f64 / stats.elapsed_ns as f64,
            "the rate is derived from the diff, not diffed"
        );
    }

    /// The ledger law the driver's per-iteration diffs obey: adjacent
    /// brackets add up to the enclosing one, field for field.
    #[test]
    fn adjacent_measures_sum_to_the_enclosing_one() {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        m.memcpy_to_device(4096);
        let ((first, second), whole) = m.measure(|m| {
            let ((), first) = m.measure(|m| m.memcpy_to_device(1 << 20));
            let ((), second) = m.measure(|m| m.kernel_launches += 3);
            (first, second)
        });
        assert_eq!((first.host_bytes, second.host_bytes), (1 << 20, 0));
        assert_eq!((first.kernel_launches, second.kernel_launches), (0, 3));
        let mut sum = first;
        sum += &second;
        assert_eq!(sum, whole);
    }
}
