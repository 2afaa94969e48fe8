//! `emogi_uvm`: the fault-batch path of the driver with its pool at
//! capacity, and the tiered transfer policy.

use super::{Inputs, Timing};
use emogi_repro::sim::{Dram, DramConfig, PcieConfig, PcieLink, TrafficMonitor};
use emogi_repro::uvm::{MemoryTier, TransferPolicy, TransferPolicyConfig, UvmConfig, UvmDriver};
use std::hint::black_box;

const POOL_PAGES: u64 = 1_024;
/// The managed span is 16 pools long, so a sequential walk finds every
/// page evicted again by the time it wraps.
const SPAN_PAGES: u64 = 16 * POOL_PAGES;
const REGIONS: usize = 1_000;

pub fn run(timing: Timing, _inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let fault_batch = {
        let cfg = UvmConfig::default();
        let page_bytes = cfg.page_bytes;
        let batch_max = cfg.fault_batch_max;
        let mut driver = UvmDriver::new(
            UvmConfig {
                pool_bytes: POOL_PAGES * page_bytes,
                ..cfg
            },
            0,
            SPAN_PAGES * page_bytes,
        );
        let mut link = PcieLink::new(PcieConfig::gen3_x16());
        let mut dram = Dram::new(DramConfig::ddr4_2933_quad());
        let mut monitor = TrafficMonitor::new(1 << 20);
        let mut now = 0u64;
        let mut page = 0u64;
        // `record_fault` → `start_batch` → `complete_batch` for one full
        // fault batch; returns the pages it migrated.
        let mut one_batch = move || {
            let before = driver.stats.pages_migrated;
            let mut queued = 0;
            while queued < batch_max {
                queued += usize::from(driver.record_fault(page));
                page = (page + 1) % SPAN_PAGES;
            }
            let batch = driver
                .start_batch(now, &mut link, &mut dram, &mut monitor)
                .expect("faults are queued and no batch is in flight");
            now = batch.done_at;
            black_box(driver.complete_batch().len());
            driver.stats.pages_migrated - before
        };
        // Fill the pool first so that every measured batch evicts.
        let mut resident = 0;
        while resident < 2 * POOL_PAGES {
            resident += one_batch();
        }
        timing.ns_per_op(one_batch)
    };
    let decide_tiered = {
        let mut policy = TransferPolicy::new(REGIONS, TransferPolicyConfig::default());
        for r in 0..REGIONS {
            policy.note_zero_copy(r, (r % 10) as f64 / 20.0);
        }
        timing.ns_per_op(|| {
            for r in 0..REGIONS {
                let home = if r % 2 == 0 {
                    MemoryTier::Host
                } else {
                    MemoryTier::Cxl
                };
                black_box(policy.decide_tiered(r, (r % 7) as f64 / 8.0, home));
            }
            REGIONS as u64
        })
    };
    vec![
        ("uvm.driver.fault_batch_ns_per_page", fault_batch),
        ("uvm.policy.decide_tiered_ns", decide_tiered),
    ]
}
