//! The UVM driver state machine.
//!
//! Lifecycle of a page: `NotResident` → (GPU touch) → `Faulted` →
//! (handler batch) → `Migrating` → (DMA completes) → `Resident` →
//! (clock eviction under oversubscription) → `NotResident` → …
//!
//! The handler is single-threaded: it processes one batch at a time,
//! serializing per-page CPU overhead with per-page wire time — the paper's
//! explanation for why UVM cannot exploit PCIe 4.0 (§5.5). The executor
//! in `emogi-runtime` owns event scheduling; this type only computes
//! *when* things finish and keeps the page table honest.

use crate::policy::UvmConfig;
use emogi_sim::dram::Dram;
use emogi_sim::monitor::TrafficMonitor;
use emogi_sim::pcie::PcieLink;
use emogi_sim::time::Time;
use std::collections::VecDeque;

/// Absolute page number (address / page size).
pub type PageId = u64;

/// Residency state of one managed page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    NotResident,
    /// Fault recorded, waiting for the handler.
    Faulted,
    /// Part of the in-flight batch; data is on the wire.
    Migrating,
    Resident,
}

/// Cumulative driver statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct UvmStats {
    /// Distinct page faults delivered to the driver.
    pub faults: u64,
    /// Handler passes executed.
    pub batches: u64,
    /// Pages migrated host→device (demand + prefetch).
    pub pages_migrated: u64,
    /// Subset of migrations initiated by the prefetcher.
    pub pages_prefetched: u64,
    /// Pages evicted from the device pool.
    pub pages_evicted: u64,
    /// Payload bytes migrated host→device.
    pub bytes_migrated: u64,
}

/// Result of starting a handler batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Simulated time at which every page of the batch is resident.
    pub done_at: Time,
    /// Address ranges evicted to make room (the executor must invalidate
    /// cached sectors for them).
    pub evicted: Vec<(u64, u64)>,
}

/// The driver proper, managing one contiguous managed allocation.
#[derive(Debug)]
pub struct UvmDriver {
    cfg: UvmConfig,
    base_addr: u64,
    base_page: PageId,
    states: Vec<PageState>,
    ref_bits: Vec<bool>,
    epochs: Vec<u32>,
    /// Clock ring of (page, epoch) candidates; stale entries are skipped.
    ring: VecDeque<(PageId, u32)>,
    resident: u64,
    fault_queue: VecDeque<PageId>,
    in_flight: Option<Vec<PageId>>,
    pub stats: UvmStats,
}

impl UvmDriver {
    /// Manage `[base_addr, base_addr + len)`. `base_addr` must be
    /// page-aligned (the runtime allocator guarantees it).
    pub fn new(cfg: UvmConfig, base_addr: u64, len: u64) -> Self {
        assert!(
            cfg.pool_bytes >= cfg.page_bytes,
            "UVM pool smaller than one page"
        );
        assert_eq!(
            base_addr % cfg.page_bytes,
            0,
            "managed base must be page-aligned"
        );
        let pages = len.div_ceil(cfg.page_bytes) as usize;
        Self {
            base_page: base_addr / cfg.page_bytes,
            base_addr,
            states: vec![PageState::NotResident; pages],
            ref_bits: vec![false; pages],
            epochs: vec![0; pages],
            ring: VecDeque::new(),
            resident: 0,
            fault_queue: VecDeque::new(),
            in_flight: None,
            stats: UvmStats::default(),
            cfg,
        }
    }

    pub fn config(&self) -> &UvmConfig {
        &self.cfg
    }

    #[inline]
    pub fn page_of(&self, addr: u64) -> PageId {
        addr / self.cfg.page_bytes
    }

    /// Address range `[start, end)` covered by `page`.
    pub fn page_span(&self, page: PageId) -> (u64, u64) {
        let start = page * self.cfg.page_bytes;
        (start, start + self.cfg.page_bytes)
    }

    #[inline]
    fn idx(&self, page: PageId) -> usize {
        debug_assert!(page >= self.base_page, "address below managed region");
        (page - self.base_page) as usize
    }

    pub fn state(&self, page: PageId) -> PageState {
        self.states[self.idx(page)]
    }

    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Record a reference to a resident page (clock second-chance bit).
    pub fn touch(&mut self, page: PageId) {
        let i = self.idx(page);
        debug_assert_eq!(self.states[i], PageState::Resident);
        self.ref_bits[i] = true;
    }

    /// Deliver a fault for `page`. Returns `true` if this was a new fault
    /// (the page was not already queued, migrating or resident).
    pub fn record_fault(&mut self, page: PageId) -> bool {
        let i = self.idx(page);
        match self.states[i] {
            PageState::NotResident => {
                self.states[i] = PageState::Faulted;
                self.fault_queue.push_back(page);
                self.stats.faults += 1;
                true
            }
            PageState::Faulted | PageState::Migrating | PageState::Resident => false,
        }
    }

    /// Can the handler start a pass right now?
    pub fn handler_ready(&self) -> bool {
        self.in_flight.is_none() && !self.fault_queue.is_empty()
    }

    /// Run one handler pass at `now`: dequeue up to `fault_batch_max`
    /// faults, expand with prefetch, evict to make room, and put the
    /// migration on the wire. Returns when the batch lands; the caller
    /// must invoke [`Self::complete_batch`] at that time.
    pub fn start_batch(
        &mut self,
        now: Time,
        link: &mut PcieLink,
        host_dram: &mut Dram,
        monitor: &mut TrafficMonitor,
    ) -> Option<BatchResult> {
        if !self.handler_ready() {
            return None;
        }
        let mut batch: Vec<PageId> = Vec::with_capacity(self.cfg.fault_batch_max);
        while batch.len() < self.cfg.fault_batch_max {
            let Some(page) = self.fault_queue.pop_front() else {
                break;
            };
            let i = self.idx(page);
            // A queued page can have been satisfied by a prefetch in an
            // earlier batch; skip stale entries.
            if self.states[i] != PageState::Faulted {
                continue;
            }
            self.states[i] = PageState::Migrating;
            batch.push(page);
            if self.cfg.prefetch {
                self.expand_prefetch(page, &mut batch);
            }
        }
        if batch.is_empty() {
            return None;
        }

        // Make room: evict clock victims for the whole batch. Eviction is
        // block-granular like the real driver's chunked unmaps: the clock
        // picks a victim page, then its entire block goes, referenced or
        // not — which is what makes oversubscribed UVM thrash.
        let pool = self.cfg.pool_pages();
        let need = (self.resident + batch.len() as u64).saturating_sub(pool);
        let mut evicted = Vec::new();
        let mut evict_time: Time = 0;
        let mut done = 0u64;
        while done < need {
            let Some(span) = self.evict_one() else { break };
            done += 1;
            evict_time += self.cfg.evict_overhead_ns;
            let mut spans = vec![span];
            // Take down the rest of the victim's block.
            let victim_rel = (span.0 - self.base_addr) / self.cfg.page_bytes;
            let block = victim_rel / self.cfg.evict_block_pages;
            let lo = block * self.cfg.evict_block_pages;
            let hi = ((block + 1) * self.cfg.evict_block_pages).min(self.states.len() as u64);
            for r in lo..hi {
                if self.states[r as usize] == PageState::Resident {
                    self.states[r as usize] = PageState::NotResident;
                    self.resident -= 1;
                    self.stats.pages_evicted += 1;
                    done += 1;
                    evict_time += self.cfg.evict_overhead_ns;
                    spans.push(self.page_span(self.base_page + r));
                }
            }
            // Pages are read-duplicated (`cudaMemAdviseSetReadMostly`, the
            // paper's baseline, §5.1.2 (a)): eviction never writes back.
            evicted.extend(spans);
        }

        // Serialized handler: per-page CPU work, then its wire time. The
        // propagation delay is paid once at the end (migrations pipeline
        // through the link, but the handler does not overlap CPU work
        // with the *next* page's DMA completion).
        let prop = link.config().propagation_ns;
        let mut t = now + self.cfg.batch_overhead_ns + evict_time;
        for _ in &batch {
            t += self.cfg.page_cpu_overhead_ns;
            let arrival = link.dma_host_to_gpu(t, self.cfg.page_bytes, host_dram, monitor);
            t = arrival - prop;
        }
        let done_at = t + prop;

        self.stats.batches += 1;
        self.stats.pages_migrated += batch.len() as u64;
        self.stats.bytes_migrated += batch.len() as u64 * self.cfg.page_bytes;
        self.in_flight = Some(batch);
        Some(BatchResult { done_at, evicted })
    }

    /// Commit the in-flight batch: its pages become resident. Returns the
    /// pages so the executor can wake the warps stalled on them.
    pub fn complete_batch(&mut self) -> Vec<PageId> {
        let batch = self.in_flight.take().expect("no batch in flight");
        for &page in &batch {
            let i = self.idx(page);
            debug_assert_eq!(self.states[i], PageState::Migrating);
            self.states[i] = PageState::Resident;
            self.ref_bits[i] = false;
            self.epochs[i] = self.epochs[i].wrapping_add(1);
            self.ring.push_back((page, self.epochs[i]));
            self.resident += 1;
        }
        batch
    }

    /// Density-based tree prefetch: when any *other* page of the faulting
    /// page's block is already on the device (or inbound), pull the whole
    /// block — the real driver widens migrations whenever a region shows
    /// density, over-fetching heavily on scattered access patterns.
    fn expand_prefetch(&mut self, page: PageId, batch: &mut Vec<PageId>) {
        let rel = self.idx(page) as u64;
        let block = rel / self.cfg.prefetch_block_pages;
        let block_start = block * self.cfg.prefetch_block_pages;
        let block_end = ((block + 1) * self.cfg.prefetch_block_pages).min(self.states.len() as u64);
        let dense = (block_start..block_end).any(|r| {
            r != rel
                && matches!(
                    self.states[r as usize],
                    PageState::Resident | PageState::Migrating
                )
        });
        if !dense {
            return;
        }
        // Try promoting to the super-block (the tree prefetcher's upper
        // level): if enough sibling blocks already show residency, the
        // whole super-block migrates — heavy over-fetch on scattered
        // access patterns, exactly the UVM behaviour the paper blames.
        let (mut lo, mut hi) = (block_start, block_end);
        if self.cfg.promote_threshold_blocks > 0 {
            let sb_pages = self.cfg.prefetch_block_pages * self.cfg.promote_factor;
            let sb = rel / sb_pages;
            let sb_start = sb * sb_pages;
            let sb_end = ((sb + 1) * sb_pages).min(self.states.len() as u64);
            let dense_blocks = (sb_start..sb_end)
                .step_by(self.cfg.prefetch_block_pages as usize)
                .filter(|&b0| {
                    let b1 = (b0 + self.cfg.prefetch_block_pages).min(sb_end);
                    (b0..b1).any(|r| {
                        matches!(
                            self.states[r as usize],
                            PageState::Resident | PageState::Migrating
                        )
                    })
                })
                .count() as u64;
            if dense_blocks >= self.cfg.promote_threshold_blocks {
                lo = sb_start;
                hi = sb_end;
            }
        }
        for r in lo..hi {
            if self.states[r as usize] == PageState::NotResident {
                self.states[r as usize] = PageState::Migrating;
                batch.push(self.base_page + r);
                self.stats.pages_prefetched += 1;
            }
        }
    }

    /// Clock (second-chance) eviction of one resident page. Returns its
    /// address span, or `None` if nothing is evictable.
    fn evict_one(&mut self) -> Option<(u64, u64)> {
        // Two sweeps are enough: the first clears reference bits.
        let mut budget = 2 * self.ring.len() + 1;
        while budget > 0 {
            budget -= 1;
            let (page, epoch) = self.ring.pop_front()?;
            let i = self.idx(page);
            if self.epochs[i] != epoch || self.states[i] != PageState::Resident {
                continue; // stale ring entry
            }
            if self.ref_bits[i] {
                self.ref_bits[i] = false;
                self.ring.push_back((page, epoch));
                continue;
            }
            self.states[i] = PageState::NotResident;
            self.resident -= 1;
            self.stats.pages_evicted += 1;
            return Some(self.page_span(page));
        }
        None
    }

    /// Fraction of the managed region currently resident (diagnostics).
    pub fn residency(&self) -> f64 {
        if self.states.is_empty() {
            return 0.0;
        }
        self.resident as f64 / self.states.len() as f64
    }

    /// Base address of the managed region.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emogi_sim::dram::DramConfig;
    use emogi_sim::pcie::PcieConfig;

    const PAGE: u64 = 4096;
    const BASE: u64 = 1 << 40;

    fn rig(pool_pages: u64, prefetch: bool) -> (UvmDriver, PcieLink, Dram, TrafficMonitor) {
        let cfg = UvmConfig {
            pool_bytes: pool_pages * PAGE,
            prefetch,
            batch_overhead_ns: 1_000,
            // Page-granular eviction keeps the clock-policy tests sharp;
            // block eviction has its own test below.
            evict_block_pages: 1,
            ..Default::default()
        };
        (
            UvmDriver::new(cfg, BASE, 1 << 22), // 1024 pages managed
            PcieLink::new(PcieConfig::gen3_x16()),
            Dram::new(DramConfig::ddr4_2933_quad()),
            TrafficMonitor::new(100_000),
        )
    }

    fn run_batch(
        d: &mut UvmDriver,
        now: Time,
        l: &mut PcieLink,
        h: &mut Dram,
        m: &mut TrafficMonitor,
    ) -> (Time, Vec<PageId>) {
        let r = d.start_batch(now, l, h, m).expect("batch should start");
        let pages = d.complete_batch();
        (r.done_at, pages)
    }

    #[test]
    fn fault_dedup_and_lifecycle() {
        let (mut d, mut l, mut h, mut m) = rig(64, false);
        let p = d.page_of(BASE);
        assert!(d.record_fault(p));
        assert!(!d.record_fault(p), "duplicate fault must not re-queue");
        assert_eq!(d.state(p), PageState::Faulted);
        let (done, pages) = run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        assert!(done > 0);
        assert_eq!(pages, vec![p]);
        assert_eq!(d.state(p), PageState::Resident);
        assert!(!d.record_fault(p), "resident pages do not fault");
        assert_eq!(d.stats.faults, 1);
        assert_eq!(d.stats.pages_migrated, 1);
    }

    #[test]
    fn batch_bounded_by_config() {
        let (mut d, mut l, mut h, mut m) = rig(1024, false);
        for i in 0..300 {
            d.record_fault(d.page_of(BASE + i * PAGE));
        }
        let r = d.start_batch(0, &mut l, &mut h, &mut m).unwrap();
        let pages = d.complete_batch();
        assert_eq!(pages.len(), 256, "fault_batch_max caps the pass");
        assert!(
            d.handler_ready(),
            "remaining faults queue for the next pass"
        );
        assert!(r.evicted.is_empty());
    }

    #[test]
    fn oversubscription_evicts_lru_pages() {
        let (mut d, mut l, mut h, mut m) = rig(4, false);
        for i in 0..4 {
            d.record_fault(d.page_of(BASE + i * PAGE));
        }
        run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        assert_eq!(d.resident_pages(), 4);
        // Touch page 0 so it survives the clock sweep.
        d.touch(d.page_of(BASE));
        d.record_fault(d.page_of(BASE + 10 * PAGE));
        let r = d.start_batch(1_000_000, &mut l, &mut h, &mut m).unwrap();
        d.complete_batch();
        assert_eq!(r.evicted.len(), 1);
        assert_eq!(d.resident_pages(), 4);
        assert_eq!(
            d.state(d.page_of(BASE)),
            PageState::Resident,
            "referenced page survives"
        );
        assert_eq!(
            d.state(d.page_of(BASE + PAGE)),
            PageState::NotResident,
            "unreferenced LRU page evicted"
        );
        assert_eq!(r.evicted[0], (BASE + PAGE, BASE + 2 * PAGE));
    }

    #[test]
    fn evicted_page_refaults_and_counts_amplification() {
        let (mut d, mut l, mut h, mut m) = rig(2, false);
        for i in 0..3 {
            d.record_fault(d.page_of(BASE + i * PAGE));
            run_batch(&mut d, i * 10_000_000, &mut l, &mut h, &mut m);
        }
        // Pool holds 2; page 0 must have been evicted.
        assert_eq!(d.state(d.page_of(BASE)), PageState::NotResident);
        assert!(d.record_fault(d.page_of(BASE)), "evicted page faults again");
        run_batch(&mut d, 40_000_000, &mut l, &mut h, &mut m);
        assert_eq!(d.stats.pages_migrated, 4, "page 0 moved twice: thrashing");
        assert_eq!(d.stats.bytes_migrated, 4 * PAGE);
    }

    #[test]
    fn prefetch_expands_blocks_for_sequential_streams() {
        let (mut d, mut l, mut h, mut m) = rig(1024, true);
        // Cold fault on page 0: no residency behind it, no prefetch.
        d.record_fault(d.page_of(BASE));
        let (_, pages) = run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        assert_eq!(pages.len(), 1, "cold fault must not prefetch");
        // Fault on page 1: page 0 resident => rest of the 16-page block.
        d.record_fault(d.page_of(BASE + PAGE));
        let (_, pages) = run_batch(&mut d, 1_000_000, &mut l, &mut h, &mut m);
        assert_eq!(pages.len(), 15, "block prefetch pulls pages 1..16");
        assert_eq!(d.stats.pages_prefetched, 14);
        // A random far fault prefetches nothing.
        d.record_fault(d.page_of(BASE + 600 * PAGE));
        let (_, pages) = run_batch(&mut d, 2_000_000, &mut l, &mut h, &mut m);
        assert_eq!(pages.len(), 1);
    }

    #[test]
    fn streaming_throughput_matches_uvm_measurements() {
        // Sequentially fault through 512 pages (2 MiB) the way the Fig. 4
        // toy example's UVM reference does, and check the achieved
        // migration bandwidth is the paper's ~9 GB/s (PCIe 3.0).
        let (mut d, mut l, mut h, mut m) = rig(1024, true);
        let mut now = 0;
        let total_pages = 512u64;
        let mut next = 0u64;
        while next < total_pages {
            // The GPU faults ahead of the handler; under load the fault
            // buffer fills to the batch cap while a batch is in flight.
            for p in next..(next + 256).min(total_pages) {
                d.record_fault(d.page_of(BASE + p * PAGE));
            }
            let r = d.start_batch(now, &mut l, &mut h, &mut m).unwrap();
            let pages = d.complete_batch();
            next += pages.len() as u64;
            now = r.done_at;
        }
        let gbps = (total_pages * PAGE) as f64 / now as f64;
        assert!(
            (8.2..9.6).contains(&gbps),
            "UVM streaming bandwidth {gbps} GB/s, expected ~9"
        );
    }

    #[test]
    fn gen4_migration_scales_like_the_paper() {
        // Same streaming experiment over PCIe 4.0; Figure 12 reports UVM
        // scaling only ~1.53x when the link doubles.
        let run = |link_cfg: PcieConfig| {
            let cfg = UvmConfig {
                pool_bytes: 1024 * PAGE,
                batch_overhead_ns: 1_000,
                ..Default::default()
            };
            let mut d = UvmDriver::new(cfg, BASE, 1 << 22);
            let mut l = PcieLink::new(link_cfg);
            let mut h = Dram::new(DramConfig::ddr4_3200_octa());
            let mut m = TrafficMonitor::new(100_000);
            let mut now = 0;
            let mut next = 0u64;
            while next < 512 {
                for p in next..(next + 256).min(512) {
                    d.record_fault(d.page_of(BASE + p * PAGE));
                }
                let r = d.start_batch(now, &mut l, &mut h, &mut m).unwrap();
                next += d.complete_batch().len() as u64;
                now = r.done_at;
            }
            (512 * PAGE) as f64 / now as f64
        };
        let gen3 = run(PcieConfig::gen3_x16());
        let gen4 = run(PcieConfig::gen4_x16());
        let scaling = gen4 / gen3;
        assert!(
            (1.35..1.75).contains(&scaling),
            "UVM gen3→gen4 scaling {scaling}, paper measured 1.53x"
        );
    }

    #[test]
    fn block_eviction_takes_out_whole_blocks() {
        // Pool of 4 pages, 4-page eviction blocks: filling pages 0..4 and
        // then faulting page 10 must dump the victim's entire block, hot
        // pages included — the §2.2 thrashing mechanism.
        let cfg = UvmConfig {
            pool_bytes: 4 * PAGE,
            prefetch: false,
            batch_overhead_ns: 1_000,
            evict_block_pages: 4,
            ..Default::default()
        };
        let mut d = UvmDriver::new(cfg, BASE, 1 << 22);
        let mut l = PcieLink::new(PcieConfig::gen3_x16());
        let mut h = Dram::new(DramConfig::ddr4_2933_quad());
        let mut m = TrafficMonitor::new(100_000);
        for i in 0..4 {
            d.record_fault(d.page_of(BASE + i * PAGE));
        }
        run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        d.touch(d.page_of(BASE)); // hot page in the victim block
        d.record_fault(d.page_of(BASE + 10 * PAGE));
        let r = d.start_batch(1_000_000, &mut l, &mut h, &mut m).unwrap();
        d.complete_batch();
        assert_eq!(r.evicted.len(), 4, "the whole 4-page block goes");
        assert_eq!(
            d.state(d.page_of(BASE)),
            PageState::NotResident,
            "even the referenced page is gone"
        );
        assert_eq!(d.resident_pages(), 1);
    }

    #[test]
    fn density_prefetch_triggers_on_any_sibling() {
        let (mut d, mut l, mut h, mut m) = rig(1024, true);
        // Page 5 resident, then a fault on page 2 (same 16-page block):
        // density prefetch pulls the whole block.
        d.record_fault(d.page_of(BASE + 5 * PAGE));
        run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        d.record_fault(d.page_of(BASE + 2 * PAGE));
        let (_, pages) = run_batch(&mut d, 1_000_000, &mut l, &mut h, &mut m);
        assert_eq!(pages.len(), 15, "the block's other 15 pages all migrate");
    }

    #[test]
    fn residency_fraction() {
        let (mut d, mut l, mut h, mut m) = rig(1024, false);
        assert_eq!(d.residency(), 0.0);
        d.record_fault(d.page_of(BASE));
        run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        assert!((d.residency() - 1.0 / 1024.0).abs() < 1e-9);
    }
}
