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

/// Per-page software cost of a handler pass (page-table updates, DMA
/// descriptor), ns: the single-threaded CPU work that caps migration
/// throughput.
const PAGE_CPU_OVERHEAD_NS: Time = 105;
/// Fixed software cost of one handler pass (batch dequeue, dedup, TLB
/// shootdowns), ns.
const BATCH_OVERHEAD_NS: Time = 8_000;
/// Per-page cost of evicting a resident page, ns.
const EVICT_OVERHEAD_NS: Time = 40;
/// Eviction granularity in pages: the real driver evicts whole
/// virtual-address chunks, throwing out still-hot pages along with cold
/// ones — a major source of thrashing under oversubscription (§2.2).
const EVICT_BLOCK_PAGES: u64 = 16;
/// Prefetch block size in pages (16 pages = 64 KiB).
const PREFETCH_BLOCK_PAGES: u64 = 16;
/// Blocks per prefetch super-block: `PREFETCH_BLOCK_PAGES ×
/// PROMOTE_FACTOR` pages = 1 MiB, the model's stand-in for the real tree
/// prefetcher's upper (2 MiB) level.
const PROMOTE_FACTOR: u64 = 16;
/// When a faulting page's super-block already has this many blocks
/// partially resident, the whole super-block migrates.
const PROMOTE_THRESHOLD_BLOCKS: u64 = 4;

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
    /// Pages evicted from the device pool.
    pub pages_evicted: u64,
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
            self.expand_prefetch(page, &mut batch);
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
            evict_time += EVICT_OVERHEAD_NS;
            let mut spans = vec![span];
            // Take down the rest of the victim's block.
            let victim_rel = (span.0 - self.base_addr) / self.cfg.page_bytes;
            let block = victim_rel / EVICT_BLOCK_PAGES;
            let lo = block * EVICT_BLOCK_PAGES;
            let hi = ((block + 1) * EVICT_BLOCK_PAGES).min(self.states.len() as u64);
            for r in lo..hi {
                if self.states[r as usize] == PageState::Resident {
                    self.states[r as usize] = PageState::NotResident;
                    self.resident -= 1;
                    self.stats.pages_evicted += 1;
                    done += 1;
                    evict_time += EVICT_OVERHEAD_NS;
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
        let mut t = now + BATCH_OVERHEAD_NS + evict_time;
        for _ in &batch {
            t += PAGE_CPU_OVERHEAD_NS;
            let arrival = link.dma_host_to_gpu(t, self.cfg.page_bytes, host_dram, monitor);
            t = arrival - prop;
        }
        let done_at = t + prop;

        self.stats.batches += 1;
        self.stats.pages_migrated += batch.len() as u64;
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
        let block = rel / PREFETCH_BLOCK_PAGES;
        let block_start = block * PREFETCH_BLOCK_PAGES;
        let block_end = ((block + 1) * PREFETCH_BLOCK_PAGES).min(self.states.len() as u64);
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
        let sb_pages = PREFETCH_BLOCK_PAGES * PROMOTE_FACTOR;
        let sb = rel / sb_pages;
        let sb_start = sb * sb_pages;
        let sb_end = ((sb + 1) * sb_pages).min(self.states.len() as u64);
        let dense_blocks = (sb_start..sb_end)
            .step_by(PREFETCH_BLOCK_PAGES as usize)
            .filter(|&b0| {
                let b1 = (b0 + PREFETCH_BLOCK_PAGES).min(sb_end);
                (b0..b1).any(|r| {
                    matches!(
                        self.states[r as usize],
                        PageState::Resident | PageState::Migrating
                    )
                })
            })
            .count() as u64;
        let (lo, hi) = if dense_blocks >= PROMOTE_THRESHOLD_BLOCKS {
            (sb_start, sb_end)
        } else {
            (block_start, block_end)
        };
        for r in lo..hi {
            if self.states[r as usize] == PageState::NotResident {
                self.states[r as usize] = PageState::Migrating;
                batch.push(self.base_page + r);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use emogi_sim::dram::DramConfig;
    use emogi_sim::pcie::PcieConfig;

    const PAGE: u64 = 4096;
    const BASE: u64 = 1 << 40;

    /// The shipped driver over 1024 managed pages, with a pool of
    /// `pool_pages`, on a PCIe 3.0 link.
    fn rig(pool_pages: u64) -> (UvmDriver, PcieLink, Dram, TrafficMonitor) {
        rig_on(
            pool_pages,
            PcieConfig::gen3_x16(),
            DramConfig::ddr4_2933_quad(),
        )
    }

    fn rig_on(
        pool_pages: u64,
        link: PcieConfig,
        host: DramConfig,
    ) -> (UvmDriver, PcieLink, Dram, TrafficMonitor) {
        let cfg = UvmConfig {
            pool_bytes: pool_pages * PAGE,
            ..Default::default()
        };
        (
            UvmDriver::new(cfg, BASE, 1 << 22),
            PcieLink::new(link),
            Dram::new(host),
            TrafficMonitor::new(100_000),
        )
    }

    /// Page `i` of the managed span.
    fn page(d: &UvmDriver, i: u64) -> PageId {
        d.page_of(BASE + i * PAGE)
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
        let (mut d, mut l, mut h, mut m) = rig(64);
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
        let (mut d, mut l, mut h, mut m) = rig(1024);
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
        // One page in each of four eviction blocks, so a victim's block
        // holds only the victim and the clock's choice shows alone.
        let (mut d, mut l, mut h, mut m) = rig(4);
        for i in 0..4 {
            d.record_fault(page(&d, i * EVICT_BLOCK_PAGES));
        }
        run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        assert_eq!(d.resident_pages(), 4);
        // Touch page 0 so it survives the clock sweep.
        d.touch(page(&d, 0));
        d.record_fault(page(&d, 10 * EVICT_BLOCK_PAGES));
        let r = d.start_batch(1_000_000, &mut l, &mut h, &mut m).unwrap();
        d.complete_batch();
        assert_eq!(r.evicted.len(), 1);
        assert_eq!(d.resident_pages(), 4);
        assert_eq!(
            d.state(page(&d, 0)),
            PageState::Resident,
            "referenced page survives"
        );
        let lru = EVICT_BLOCK_PAGES;
        assert_eq!(
            d.state(page(&d, lru)),
            PageState::NotResident,
            "unreferenced LRU page evicted"
        );
        assert_eq!(r.evicted[0], d.page_span(page(&d, lru)));
    }

    #[test]
    fn evicted_page_refaults_and_counts_amplification() {
        // One page per block: no prefetch, and each eviction one page.
        let (mut d, mut l, mut h, mut m) = rig(2);
        for i in 0..3 {
            d.record_fault(page(&d, i * EVICT_BLOCK_PAGES));
            run_batch(&mut d, i * 10_000_000, &mut l, &mut h, &mut m);
        }
        // Pool holds 2; page 0 must have been evicted.
        assert_eq!(d.state(page(&d, 0)), PageState::NotResident);
        assert!(d.record_fault(page(&d, 0)), "evicted page faults again");
        run_batch(&mut d, 40_000_000, &mut l, &mut h, &mut m);
        assert_eq!(d.stats.pages_migrated, 4, "page 0 moved twice: thrashing");
        assert_eq!(m.dma_bytes, d.stats.pages_migrated * PAGE);
    }

    #[test]
    fn prefetch_expands_blocks_for_sequential_streams() {
        let (mut d, mut l, mut h, mut m) = rig(1024);
        // Cold fault on page 0: no residency behind it, no prefetch.
        d.record_fault(d.page_of(BASE));
        let (_, pages) = run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        assert_eq!(pages.len(), 1, "cold fault must not prefetch");
        // Fault on page 1: page 0 resident => rest of the 16-page block.
        d.record_fault(d.page_of(BASE + PAGE));
        let (_, pages) = run_batch(&mut d, 1_000_000, &mut l, &mut h, &mut m);
        assert_eq!(pages.len(), 15, "block prefetch pulls pages 1..16");
        assert_eq!(
            d.stats.pages_migrated - d.stats.faults,
            14,
            "migrated beyond the two faults: prefetched"
        );
        // A random far fault prefetches nothing.
        d.record_fault(d.page_of(BASE + 600 * PAGE));
        let (_, pages) = run_batch(&mut d, 2_000_000, &mut l, &mut h, &mut m);
        assert_eq!(pages.len(), 1);
    }

    #[test]
    fn default_ceiling_matches_paper_uvm_bandwidth() {
        // Analytic migration ceiling, GB/s: each page costs its wire time
        // at the link's effective bulk bandwidth plus the driver's
        // per-page CPU work. `BATCH_OVERHEAD_NS` amortises over a batch
        // and is left out: the streaming tests below run it, and
        // `policy.rs` works the full-batch figure.
        let page = UvmConfig::default().page_bytes as f64;
        let ceiling =
            |link_bulk_gbps: f64| page / (page / link_bulk_gbps + PAGE_CPU_OVERHEAD_NS as f64);
        // Effective gen3 bulk bandwidth with 128 B TLPs is ~12.26 GB/s.
        let gen3 = ceiling(12.26);
        assert!((8.7..9.4).contains(&gen3), "gen3 UVM ceiling {gen3}");
        // Doubling the link must NOT double UVM (Figure 12: 1.53x).
        let scaling = ceiling(24.52) / gen3;
        assert!(
            (1.45..1.65).contains(&scaling),
            "UVM gen4 scaling {scaling}"
        );
    }

    #[test]
    fn streaming_throughput_matches_uvm_measurements() {
        // Sequentially fault through 512 pages (2 MiB) the way the Fig. 4
        // toy example's UVM reference does, and check the achieved
        // migration bandwidth is the paper's ~9 GB/s (PCIe 3.0).
        let (mut d, mut l, mut h, mut m) = rig(1024);
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
            let (mut d, mut l, mut h, mut m) = rig_on(1024, link_cfg, DramConfig::ddr4_3200_octa());
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
        // Pool of one block: faulting pages 0..4 prefetches the rest of
        // block 0, and a fault in another block must then dump the
        // victim's entire block, hot page included — the §2.2 thrashing
        // mechanism.
        let (mut d, mut l, mut h, mut m) = rig(EVICT_BLOCK_PAGES);
        for i in 0..4 {
            d.record_fault(page(&d, i));
        }
        run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        assert_eq!(
            d.resident_pages(),
            EVICT_BLOCK_PAGES,
            "block 0 fills the pool"
        );
        d.touch(page(&d, 0)); // hot page in the victim block
        d.record_fault(page(&d, 10 * EVICT_BLOCK_PAGES));
        let r = d.start_batch(1_000_000, &mut l, &mut h, &mut m).unwrap();
        d.complete_batch();
        assert_eq!(
            r.evicted.len() as u64,
            EVICT_BLOCK_PAGES,
            "the whole block goes"
        );
        assert_eq!(
            d.state(page(&d, 0)),
            PageState::NotResident,
            "even the referenced page is gone"
        );
        assert_eq!(d.resident_pages(), 1);
    }

    #[test]
    fn density_prefetch_triggers_on_any_sibling() {
        let (mut d, mut l, mut h, mut m) = rig(1024);
        // Page 5 resident, then a fault on page 2 (same 16-page block):
        // density prefetch pulls the whole block.
        d.record_fault(d.page_of(BASE + 5 * PAGE));
        run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        d.record_fault(d.page_of(BASE + 2 * PAGE));
        let (_, pages) = run_batch(&mut d, 1_000_000, &mut l, &mut h, &mut m);
        assert_eq!(pages.len(), 15, "the block's other 15 pages all migrate");
    }

    #[test]
    fn resident_pages_count_migrations() {
        let (mut d, mut l, mut h, mut m) = rig(1024);
        assert_eq!(d.resident_pages(), 0);
        d.record_fault(d.page_of(BASE));
        run_batch(&mut d, 0, &mut l, &mut h, &mut m);
        assert_eq!(d.resident_pages(), 1);
    }
}
