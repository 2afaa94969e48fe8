//! Hybrid zero-copy / DMA transfer manager.
//!
//! One [`TransferManager`] watches a pinned-host array (the edge list) in
//! fixed-size regions. Before each kernel iteration the traversal driver
//! hands [`plan_iteration`](TransferManager::plan_iteration) exactly the
//! byte ranges the iteration will read (the frontier determines this
//! precisely): the [`emogi_uvm::TransferPolicy`] picks, per touched
//! region, between staying in place and staging the region into device
//! memory with one bulk DMA copy through the machine's
//! [`emogi_sim::DmaEngine`]. Staged regions are recorded in a
//! [`RegionMap`] that the kernel-side address computation consults, so
//! their reads are priced as cache-fronted HBM instead of PCIe.
//!
//! Device memory for staged regions comes from a bounded pool carved out
//! of the machine's free device capacity ([`crate::alloc`]); when the
//! pool runs dry the manager falls back to zero-copy for the remaining
//! regions (and keeps feeding the policy, so accounting stays truthful).
//! Nothing is ever un-staged: BFS re-touches a region with a period
//! longer than any staleness bound that would demote anything, so a
//! demotion only re-pays its copy (measured; ROADMAP item 4(b)), and a
//! bounded pool plus fallback keeps the model honest without an eviction
//! clock.
//!
//! The **pipelined path**
//! ([`plan_iteration_pipelined`](TransferManager::plan_iteration_pipelined),
//! [`prefetch_for_next`](TransferManager::prefetch_for_next)) pairs the
//! manager with a [`Prefetcher`]: after each
//! round it speculatively stages predicted-reuse regions onto an
//! asynchronous copy lane, and a later round that decides to stage such a
//! region *adopts* the in-flight copy instead of paying a demand copy on
//! the critical path. A pipelined round is *decide (adopting) →
//! evict-to-fit → prefetch*: decisions charge the pool exactly as the
//! synchronous path does, because speculation never lowers it — the
//! speculative charge lives only in the prefetcher
//! ([`Prefetcher::slice_used`]) and is kept within whatever the
//! decisions leave over. Decisions, allocation order and traffic
//! counters stay bit-identical to the synchronous path; only the clock
//! (and the new prefetch counters) differ.

use crate::machine::Machine;
use crate::prefetch::Prefetcher;
use emogi_sim::time::Time;
use emogi_uvm::{MemoryTier, TransferPolicy, TransferPolicyConfig};

/// Sentinel in a [`RegionMap`] table: region not staged.
pub const UNMAPPED: u64 = u64::MAX;

/// How to build a [`TransferManager`].
#[derive(Debug, Clone)]
pub struct TransferConfig {
    /// Region granularity in bytes; a power of two, at least one 128-byte
    /// cache line (so no line ever straddles a region boundary).
    pub region_bytes: u64,
    /// Device-pool budget for staged regions; `None` takes all device
    /// memory still free after the explicit allocations.
    pub pool_bytes: Option<u64>,
    /// The stage-or-stay-zero-copy decision policy.
    pub policy: TransferPolicyConfig,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self {
            region_bytes: 64 << 10,
            pool_bytes: None,
            policy: TransferPolicyConfig::default(),
        }
    }
}

/// Staged-region address translation table, cheap to clone into whoever
/// computes kernel addresses.
#[derive(Debug, Clone)]
pub struct RegionMap {
    shift: u32,
    /// Region index -> device base address, or [`UNMAPPED`].
    table: Vec<u64>,
}

impl RegionMap {
    /// Translate a byte offset within the watched array: `Some(device
    /// address)` when the offset's region is staged.
    #[inline]
    pub fn translate(&self, offset: u64) -> Option<u64> {
        let dev = self.table[(offset >> self.shift) as usize];
        if dev == UNMAPPED {
            None
        } else {
            Some(dev + (offset & ((1u64 << self.shift) - 1)))
        }
    }

    /// Regions the watched array is divided into.
    pub fn num_regions(&self) -> usize {
        self.table.len()
    }

    /// Regions currently staged on the device.
    pub fn staged_regions(&self) -> usize {
        self.table.iter().filter(|&&d| d != UNMAPPED).count()
    }
}

emogi_sim::ledger! {
    /// Counters for reporting and tests.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TransferStats {
        /// Regions staged into device memory so far.
        pub staged_regions: u64,
        /// Bytes bulk-copied for staging.
        pub staged_bytes: u64,
        /// Stage decisions that fell back to zero-copy because the device
        /// pool was exhausted.
        pub pool_fallbacks: u64,
        /// Planning rounds that staged at least one region.
        pub staging_rounds: u64,
        /// Staged regions whose home is the CXL tier (promotions); a
        /// subset of [`staged_regions`](Self::staged_regions).
        pub cxl_staged_regions: u64,
        /// Bytes bulk-copied out of the CXL tier for those promotions; a
        /// subset of [`staged_bytes`](Self::staged_bytes).
        pub cxl_staged_bytes: u64,
        /// Always 0: nothing is ever un-staged. Kept because the frozen
        /// benchmark reads the field by name.
        pub demoted_regions: u64,
    }
}

/// The per-array hybrid transfer manager.
#[derive(Debug)]
pub struct TransferManager {
    region_bytes: u64,
    shift: u32,
    /// Total bytes of the watched array.
    len_bytes: u64,
    policy: TransferPolicy,
    /// Region -> staged device base ([`UNMAPPED`] when zero-copy).
    table: Vec<u64>,
    /// Scratch: bytes the upcoming iteration reads, per region.
    upcoming: Vec<u64>,
    /// Scratch: regions with nonzero `upcoming`, in first-touch order.
    touched: Vec<u32>,
    /// The previous round's `(region, upcoming bytes)` pairs, sorted by
    /// region — the prefetcher's prediction input.
    last_touched: Vec<(u32, u64)>,
    /// Device-pool bytes not yet consumed by demand stagings or permanent
    /// reservations. Speculative stages are not debited here: their
    /// charge is [`Prefetcher::slice_used`], kept `<= pool`.
    pool: u64,
    /// Bytes of the watched array homed in pinned host DRAM; offsets past
    /// this are homed in the CXL tier. Equal to `len_bytes` on a two-tier
    /// machine.
    host_bytes: u64,
    /// Monotonically growing lifetime counters; snapshot and diff for
    /// per-run reporting.
    pub stats: TransferStats,
}

impl TransferManager {
    /// Watch `len_bytes` of pinned host memory on `machine`. The pool
    /// budget is capped by the device memory still free at this point.
    pub fn new(machine: &Machine, len_bytes: u64, cfg: TransferConfig) -> Self {
        Self::with_tiers(machine, len_bytes, len_bytes, cfg)
    }

    /// Watch `len_bytes` of which the first `host_bytes` are homed in
    /// pinned host DRAM and the rest in the CXL external tier (the
    /// spilled layout of a bigger-than-host-DRAM graph). `host_bytes`
    /// must land on a region boundary (or cover the whole array) so every
    /// region has exactly one home tier. The pool budget is capped by the
    /// device memory still free at this point.
    pub fn with_tiers(
        machine: &Machine,
        len_bytes: u64,
        host_bytes: u64,
        cfg: TransferConfig,
    ) -> Self {
        assert!(
            cfg.region_bytes.is_power_of_two() && cfg.region_bytes >= 128,
            "region_bytes must be a power of two >= 128, got {}",
            cfg.region_bytes
        );
        let host_bytes = host_bytes.min(len_bytes);
        assert!(
            host_bytes == len_bytes || host_bytes.is_multiple_of(cfg.region_bytes),
            "host/CXL split at {host_bytes} B does not land on a \
             {}-byte region boundary",
            cfg.region_bytes
        );
        let regions = len_bytes.div_ceil(cfg.region_bytes) as usize;
        let pool = cfg
            .pool_bytes
            .unwrap_or(u64::MAX)
            .min(machine.spaces.device_free());
        Self {
            region_bytes: cfg.region_bytes,
            shift: cfg.region_bytes.trailing_zeros(),
            len_bytes,
            policy: TransferPolicy::new(regions, cfg.policy),
            table: vec![UNMAPPED; regions],
            upcoming: vec![0; regions],
            touched: Vec::new(),
            last_touched: Vec::new(),
            pool,
            host_bytes,
            stats: TransferStats::default(),
        }
    }

    /// The tier region `r` is homed in — where its bytes live when it is
    /// not staged. Staging overlays a region into HBM without changing
    /// its home.
    pub fn home(&self, r: usize) -> MemoryTier {
        if (r as u64) * self.region_bytes < self.host_bytes {
            MemoryTier::Host
        } else {
            MemoryTier::Cxl
        }
    }

    /// Regions the watched array is divided into.
    pub fn num_regions(&self) -> usize {
        self.table.len()
    }

    /// Region granularity in bytes.
    pub fn region_bytes(&self) -> u64 {
        self.region_bytes
    }

    /// The demand budget: device-pool bytes not yet consumed by demand
    /// stagings or permanent reservations — what a synchronous manager
    /// would hold. Live speculative stages occupy up to this much of it
    /// ([`Prefetcher::slice_used`]) until adopted or evicted.
    pub fn pool_left(&self) -> u64 {
        self.pool
    }

    /// Inform the manager that `bytes` of device memory were allocated
    /// outside it after construction (e.g. the engine's batch-query
    /// status arrays): the staging pool shrinks accordingly, so the
    /// combined usage never exceeds the device capacity. Saturates at
    /// zero — staging then simply falls back to zero-copy.
    ///
    /// Live speculative stages the shrunken pool no longer covers are
    /// evicted at the next planning round, before any new speculation.
    pub fn reserve(&mut self, bytes: u64) {
        self.pool = self.pool.saturating_sub(bytes.div_ceil(128) * 128);
    }

    /// Whether `region` has been staged into device memory.
    pub fn is_staged(&self, region: usize) -> bool {
        self.table[region] != UNMAPPED
    }

    /// Regions staged so far over the manager's lifetime.
    pub fn staged_regions(&self) -> usize {
        self.stats.staged_regions as usize
    }

    /// Actual bytes of region `r` (the last region may be partial).
    fn region_len(&self, r: usize) -> u64 {
        let start = r as u64 * self.region_bytes;
        self.region_bytes.min(self.len_bytes - start)
    }

    /// Record that the upcoming iteration reads byte range `[lo, hi)` of
    /// the watched array. Ranges may overlap region boundaries and each
    /// other; per-region bytes saturate at the region size.
    fn note_upcoming(&mut self, lo: u64, hi: u64) {
        debug_assert!(lo <= hi && hi <= self.len_bytes, "range {lo}..{hi}");
        if lo == hi {
            return;
        }
        let first = (lo >> self.shift) as usize;
        let last = ((hi - 1) >> self.shift) as usize;
        for r in first..=last {
            let r_start = r as u64 * self.region_bytes;
            let r_end = r_start + self.region_len(r);
            let bytes = hi.min(r_end) - lo.max(r_start);
            if self.upcoming[r] == 0 {
                self.touched.push(r as u32);
            }
            self.upcoming[r] = (self.upcoming[r] + bytes).min(self.region_len(r));
        }
    }

    /// Note `ranges`, then decide and execute this iteration's stagings:
    /// consult the policy for every touched, not-yet-staged region,
    /// allocate device memory for the winners while the pool lasts, and
    /// issue one batched bulk copy for all of them (the copies queue
    /// back-to-back on the DMA engine, so the launch overhead is paid
    /// once per round). Clears the upcoming-iteration scratch. Returns
    /// whether any region was staged this round (i.e. whether the
    /// translation table changed).
    ///
    /// With a [`Prefetcher`] in the loop, staging decisions, allocation
    /// order and traffic counters are identical, but a staged region
    /// whose speculative copy is already on the asynchronous lane is
    /// *adopted* — its bytes are retro-accounted instead of re-copied,
    /// and the clock waits only if the copy is still in flight.
    fn plan(
        &mut self,
        machine: &mut Machine,
        ranges: impl IntoIterator<Item = (u64, u64)>,
        mut pf: Option<&mut Prefetcher>,
    ) -> bool {
        for (lo, hi) in ranges {
            self.note_upcoming(lo, hi);
        }
        // First-touch order follows the frontier, which is sorted by the
        // traversal drivers — sort to be robust against unsorted callers
        // (determinism, and allocation order independent of touch order).
        self.touched.sort_unstable();
        if pf.is_some() {
            // Record the touch set for the predictor before the loop
            // consumes the per-region byte counts.
            self.last_touched.clear();
            for &r in &self.touched {
                self.last_touched.push((r, self.upcoming[r as usize]));
            }
        }
        let mut copy_bytes = 0u64;
        let mut cxl_copy_bytes = 0u64;
        let mut adopted_bytes = 0u64;
        let mut staged_count = 0u64;
        let mut stall_until: Time = 0;
        for i in 0..self.touched.len() {
            let r = self.touched[i] as usize;
            let bytes = std::mem::take(&mut self.upcoming[r]);
            if self.table[r] != UNMAPPED {
                continue; // already on device; reads go to HBM
            }
            let len = self.region_len(r);
            // The allocator rounds to 128-byte lines; budget the rounded
            // size so the pool never outruns real capacity (a partial
            // last region is smaller than its allocation).
            let need = len.div_ceil(128) * 128;
            let density = bytes as f64 / len as f64;
            let home = self.home(r);
            let stage = self.policy.decide_tiered(r, density.min(1.0), home);
            if !stage || self.pool < need {
                // Stays in place, by decision or because the pool is dry.
                if stage {
                    self.stats.pool_fallbacks += 1;
                }
                self.policy.note_zero_copy(r, density);
                continue;
            }
            self.pool -= need;
            self.table[r] = machine.alloc_device(len);
            self.stats.staged_regions += 1;
            self.stats.staged_bytes += len;
            staged_count += 1;
            if home == MemoryTier::Cxl {
                // Promotions stream over the CXL link, never the PCIe
                // copy lane — and the prefetcher only ever speculates
                // host-homed regions, so there is no adoption path here.
                self.stats.cxl_staged_regions += 1;
                self.stats.cxl_staged_bytes += len;
                cxl_copy_bytes += len;
                continue;
            }
            // A speculative copy of this region is already on (or past)
            // the async lane: adopt it instead of paying a demand copy.
            match pf.as_deref_mut().and_then(|p| p.adopt(r as u32)) {
                Some(done_at) => {
                    adopted_bytes += len;
                    stall_until = stall_until.max(done_at);
                }
                None => copy_bytes += len,
            }
        }
        self.touched.clear();
        if staged_count > 0 {
            self.stats.staging_rounds += 1;
        }
        if copy_bytes > 0 {
            machine.memcpy_to_device(copy_bytes);
        }
        if cxl_copy_bytes > 0 {
            machine.memcpy_cxl_to_device(cxl_copy_bytes);
        }
        if let Some(p) = pf {
            if adopted_bytes > 0 {
                // The adopted bytes crossed the link on the speculative
                // lane; charge them to the traffic counters exactly as
                // the synchronous batched copy would have (at most one
                // partial region exists, so the alignment rounding splits
                // exactly between the demand and adopted shares).
                machine.account_async_stage(adopted_bytes);
                let hidden_estimate = p.sync_cost_delta(copy_bytes, adopted_bytes);
                let wait = stall_until.saturating_sub(machine.now);
                if wait > 0 {
                    p.stats.stall_ns += wait;
                    machine.now = stall_until;
                }
                p.stats.hidden_ns += hidden_estimate.saturating_sub(wait);
            }
            // Speculative stages keep what the demand decisions (and any
            // reservation since last round) left over; the rest are evicted.
            p.evict_to_fit(self.pool);
            debug_assert!(p.slice_used() <= self.pool);
        }
        staged_count > 0
    }

    /// Feed the asynchronous copy lane for the next iteration: rank
    /// not-yet-staged regions by predicted reuse (a pure function of this
    /// round's planner state) and issue speculative stages into the
    /// prefetcher's bounded pool slice. Call right after
    /// [`plan_iteration_pipelined`](Self::plan_iteration_pipelined), at
    /// iteration start, so the copies overlap the kernel that follows.
    pub fn prefetch_for_next(&mut self, at: Time, pf: &mut Prefetcher) {
        pf.observe_round(at, &self.last_touched);
        let mut wanted = pf.rank_candidates(
            &self.policy,
            &self.table,
            &self.last_touched,
            self.region_bytes,
            self.len_bytes,
        );
        // Speculate only into host-homed regions: the asynchronous copy
        // lane and its retro-accounting model the PCIe path, and CXL
        // promotions are demand-driven over their own link.
        wanted.retain(|&r| self.home(r as usize) == MemoryTier::Host);
        for r in wanted {
            let len = self.region_len(r as usize);
            let charge = len.div_ceil(128) * 128;
            // Make room in the bounded slice: evict the oldest
            // speculative stages (stale predictions).
            while pf.slice_used() + charge > pf.slice_bytes() {
                if !pf.evict_oldest() {
                    break;
                }
            }
            if pf.slice_used() + charge > pf.slice_bytes() {
                break; // a region larger than the whole slice
            }
            if self.pool.saturating_sub(pf.slice_used()) < charge {
                break; // speculate only into real pool slack
            }
            pf.issue(r, len, charge, at);
        }
    }

    /// The planning hook for a kernel launch: note every byte range the
    /// launch will read (frontier-driven callers pass one range per
    /// active neighbour list, full-sweep callers the whole array) and run
    /// the staging decision. Returns whether the translation table
    /// changed, i.e. whether callers must refresh their [`RegionMap`].
    pub fn plan_iteration(
        &mut self,
        machine: &mut Machine,
        ranges: impl IntoIterator<Item = (u64, u64)>,
    ) -> bool {
        self.plan(machine, ranges, None)
    }

    /// [`plan_iteration`](Self::plan_iteration) with `prefetcher` in the
    /// loop: identical decisions and traffic, but stagings the lane
    /// already copied are adopted instead of re-copied. Call
    /// [`prefetch_for_next`](Self::prefetch_for_next) after each round to
    /// keep the lane fed.
    pub fn plan_iteration_pipelined(
        &mut self,
        machine: &mut Machine,
        ranges: impl IntoIterator<Item = (u64, u64)>,
        prefetcher: &mut Prefetcher,
    ) -> bool {
        self.plan(machine, ranges, Some(prefetcher))
    }

    /// Snapshot of the translation table for the kernel address path.
    pub fn region_map(&self) -> RegionMap {
        RegionMap {
            shift: self.shift,
            table: self.table.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use emogi_uvm::TransferPolicyConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::v100_gen3())
    }

    fn cfg(region_bytes: u64, pool: Option<u64>) -> TransferConfig {
        TransferConfig {
            region_bytes,
            pool_bytes: pool,
            policy: TransferPolicyConfig::default(),
        }
    }

    #[test]
    fn regions_cover_the_array() {
        let m = machine();
        let tm = TransferManager::new(&m, 200 << 10, cfg(64 << 10, None));
        assert_eq!(tm.num_regions(), 4);
        assert_eq!(tm.region_len(0), 64 << 10);
        assert_eq!(tm.region_len(3), 8 << 10, "last region is partial");
    }

    #[test]
    fn dense_upcoming_region_is_staged_and_copied() {
        let mut m = machine();
        m.alloc_host_pinned(128 << 10);
        let mut tm = TransferManager::new(&m, 128 << 10, cfg(64 << 10, None));
        let before = m.now;
        // Region 0 fully read next iteration, region 1 barely touched.
        tm.plan_iteration(&mut m, [(0, 64 << 10), (80 << 10, 81 << 10)]);
        assert!(tm.is_staged(0));
        assert!(!tm.is_staged(1));
        assert_eq!(tm.stats.staged_bytes, 64 << 10);
        assert_eq!(
            m.dma.bytes_to_device,
            64 << 10,
            "staging used the DMA engine"
        );
        assert!(m.now > before, "bulk copy advances the clock");
        // Translation: offsets in region 0 map into device space.
        let map = tm.region_map();
        let dev = map.translate(4096).expect("staged");
        assert!(dev < crate::alloc::HOST_BASE);
        assert_eq!(map.translate(64 << 10), None, "region 1 stays zero-copy");
    }

    #[test]
    fn sparse_traffic_accumulates_then_stages() {
        let mut m = machine();
        let mut tm = TransferManager::new(&m, 64 << 10, cfg(64 << 10, None));
        // 0.41-dense iterations: decisions stay zero-copy until
        // cumulative + upcoming density reaches the ski-rental point
        // (1.5), i.e. on the fourth round (3 x 0.41 + 0.41 = 1.63).
        for round in 0..4 {
            tm.plan_iteration(&mut m, [(0, 26 << 10)]);
            let staged = tm.is_staged(0);
            match round {
                0..=2 => assert!(!staged, "round {round} must stay zero-copy"),
                _ => assert!(staged, "cumulative reuse must trigger staging"),
            }
        }
        assert_eq!(tm.stats.staging_rounds, 1);
    }

    #[test]
    fn pool_exhaustion_falls_back_to_zero_copy() {
        let mut m = machine();
        // Pool holds exactly one region.
        let mut tm = TransferManager::new(&m, 256 << 10, cfg(64 << 10, Some(64 << 10)));
        tm.plan_iteration(&mut m, [(0, 256 << 10)]); // all four regions fully dense
        assert_eq!(tm.stats.staged_regions, 1);
        assert_eq!(tm.stats.pool_fallbacks, 3);
        assert_eq!(tm.pool_left(), 0);
        assert!(tm.is_staged(0) && !tm.is_staged(1));
        // The fallen-back regions keep accruing zero-copy history.
        tm.plan_iteration(&mut m, [(64 << 10, 128 << 10)]);
        assert_eq!(tm.stats.pool_fallbacks, 4);
    }

    #[test]
    fn partial_region_budgets_its_rounded_allocation() {
        let mut m = machine();
        // One 8000-byte (non-128-multiple) region; a pool of exactly
        // 8000 bytes cannot hold its 8064-byte rounded allocation, so
        // staging must fall back rather than underflow the budget.
        let mut tm = TransferManager::new(&m, 8_000, cfg(64 << 10, Some(8_000)));
        assert!(!tm.plan_iteration(&mut m, [(0, 8_000)]));
        assert!(!tm.is_staged(0));
        assert_eq!(tm.stats.pool_fallbacks, 1);
        assert_eq!(tm.pool_left(), 8_000);
        // With the rounded size available the region stages fine.
        let mut tm = TransferManager::new(&m, 8_000, cfg(64 << 10, Some(8_064)));
        assert!(tm.plan_iteration(&mut m, [(0, 8_000)]));
        assert!(tm.is_staged(0));
        assert_eq!(tm.pool_left(), 0);
    }

    #[test]
    fn pool_is_capped_by_free_device_memory() {
        let mut m = machine();
        let free = m.spaces.device_free();
        m.alloc_device(free - (64 << 10));
        let tm = TransferManager::new(&m, 1 << 20, cfg(64 << 10, None));
        assert_eq!(tm.pool_left(), 64 << 10);
    }

    #[test]
    fn staged_region_is_not_replanned() {
        let mut m = machine();
        let mut tm = TransferManager::new(&m, 64 << 10, cfg(64 << 10, None));
        tm.plan_iteration(&mut m, [(0, 64 << 10)]);
        assert_eq!(tm.stats.staged_regions, 1);
        let copied = m.dma.bytes_to_device;
        tm.plan_iteration(&mut m, [(0, 64 << 10)]);
        assert_eq!(tm.stats.staged_regions, 1, "no double staging");
        assert_eq!(m.dma.bytes_to_device, copied, "no repeat copy");
    }

    #[test]
    fn overlapping_notes_saturate_at_region_size() {
        let m = machine();
        let mut tm = TransferManager::new(&m, 64 << 10, cfg(64 << 10, None));
        for _ in 0..8 {
            tm.note_upcoming(0, 32 << 10);
        }
        assert_eq!(tm.upcoming[0], 64 << 10, "clamped to the region size");
    }

    #[test]
    fn plan_iteration_notes_then_plans() {
        let mut m = machine();
        let mut tm = TransferManager::new(&m, 128 << 10, cfg(64 << 10, None));
        let changed = tm.plan_iteration(&mut m, [(0u64, 64 << 10), (80 << 10, 81 << 10)]);
        assert!(changed, "dense region 0 must stage");
        assert!(tm.is_staged(0) && !tm.is_staged(1));
        assert!(
            !tm.plan_iteration(&mut m, std::iter::empty()),
            "nothing new to stage"
        );
    }

    #[test]
    fn stats_diff_and_accumulate() {
        // Real counters: read the manager's lifetime stats around two
        // planning rounds, one staging from host DRAM and one from CXL.
        let mut m = Machine::new(
            MachineConfig::v100_gen3().with_cxl(emogi_sim::cxl::CxlConfig::external_x8()),
        );
        let mut tm = TransferManager::with_tiers(&m, 128 << 10, 64 << 10, cfg(64 << 10, None));
        let c0 = tm.stats;
        tm.plan_iteration(&mut m, [(0u64, 64 << 10)]);
        let c1 = tm.stats;
        tm.plan_iteration(&mut m, [(64u64 << 10, 128 << 10)]);
        let c2 = tm.stats;

        let (first, second) = (c1 - c0, c2 - c1);
        assert_eq!((first.staged_regions, first.cxl_staged_regions), (1, 0));
        assert_eq!((second.staged_regions, second.cxl_staged_regions), (1, 1));
        assert_eq!(second.cxl_staged_bytes, 64 << 10);
        let mut acc = first;
        acc += second;
        assert_eq!(acc, c2 - c0);
        assert_eq!(acc.staging_rounds, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_region_rejected() {
        let m = machine();
        let _ = TransferManager::new(&m, 1 << 20, cfg(48 << 10, None));
    }

    // ----------------------------------------------- N-tier placement

    use emogi_sim::cxl::CxlConfig;

    fn cxl_machine() -> Machine {
        Machine::new(MachineConfig::v100_gen3().with_cxl(CxlConfig::external_x8()))
    }

    #[test]
    fn homes_split_at_the_host_byte_boundary() {
        let m = machine();
        let tm = TransferManager::with_tiers(&m, 256 << 10, 128 << 10, cfg(64 << 10, None));
        assert_eq!(tm.home(0), MemoryTier::Host);
        assert_eq!(tm.home(1), MemoryTier::Host);
        assert_eq!(tm.home(2), MemoryTier::Cxl);
        assert_eq!(tm.home(3), MemoryTier::Cxl);
        // A fully host-resident array has no CXL-homed regions.
        let tm = TransferManager::new(&m, 256 << 10, cfg(64 << 10, None));
        assert!((0..4).all(|r| tm.home(r) == MemoryTier::Host));
    }

    #[test]
    #[should_panic(expected = "region boundary")]
    fn misaligned_host_split_is_rejected() {
        let m = machine();
        let _ = TransferManager::with_tiers(&m, 256 << 10, 100 << 10, cfg(64 << 10, None));
    }

    /// A CXL-homed region promotes over the CXL link — at the *lower*
    /// rent/buy point — and the copy never touches the PCIe counters.
    #[test]
    fn cxl_homed_region_promotes_over_the_cxl_link() {
        let mut m = cxl_machine();
        let mut tm = TransferManager::with_tiers(&m, 128 << 10, 64 << 10, cfg(64 << 10, None));
        // 0.41-dense rounds on the CXL-homed region 1: threshold 0.75 is
        // crossed on the second round (0.41 + 0.41), where the host-homed
        // region 0 with identical traffic still rents (threshold 1.5).
        for _ in 0..2 {
            tm.plan_iteration(&mut m, [(0, 26 << 10), (64 << 10, 90 << 10)]);
        }
        assert!(tm.is_staged(1), "CXL home promotes at the lower threshold");
        assert!(!tm.is_staged(0), "host home still rents");
        assert_eq!(tm.stats.cxl_staged_regions, 1);
        assert_eq!(tm.stats.cxl_staged_bytes, 64 << 10);
        assert_eq!(m.dma.bytes_to_device, 0, "no PCIe copy for a promotion");
        assert_eq!(m.monitor.dma_bytes, 0);
        assert_eq!(m.cxl.as_ref().unwrap().bulk_bytes, 64 << 10);
    }

    /// The prefetcher never speculates CXL-homed regions: the async copy
    /// lane models the PCIe path only.
    #[test]
    fn prefetcher_skips_cxl_homed_regions() {
        let mut m = cxl_machine();
        let mut tm = TransferManager::with_tiers(&m, 128 << 10, 64 << 10, cfg(64 << 10, None));
        let mut pf = prefetcher(&m, &tm);
        // Recurring sub-threshold traffic on both homes: region 1 (CXL)
        // promotes on demand at its lower threshold and must never appear
        // on the speculative lane.
        for _ in 0..3 {
            let ranges = [(0, 26 << 10), (64 << 10, 80 << 10)];
            tm.plan_iteration_pipelined(&mut m, ranges, &mut pf);
            tm.prefetch_for_next(m.now, &mut pf);
        }
        assert!(!pf.is_speculative(1), "CXL home never speculated");
        assert_eq!(pf.stats.prefetched_regions, 1, "host home speculated");
    }

    // ----------------------------------------------- pipelined path

    use crate::prefetch::{PrefetchConfig, Prefetcher};
    use emogi_sim::pipeline::CopyEngineConfig;

    fn prefetcher(m: &Machine, tm: &TransferManager) -> Prefetcher {
        Prefetcher::new(
            tm.num_regions(),
            PrefetchConfig::default(),
            CopyEngineConfig::from_pcie(&m.cfg.pcie),
        )
    }

    /// The sparse-accumulation scenario, pipelined: the prefetcher spots
    /// region 0 once its score crosses the margin, speculates it onto the
    /// lane, and the round that finally stages it adopts the copy — all
    /// decision and traffic counters equal to the synchronous twin.
    #[test]
    fn adopted_prefetch_skips_the_demand_copy_but_counts_identical_traffic() {
        let mut ms = machine();
        let mut tms = TransferManager::new(&ms, 64 << 10, cfg(64 << 10, None));
        let mut mp = machine();
        let mut tmp = TransferManager::new(&mp, 64 << 10, cfg(64 << 10, None));
        let mut pf = prefetcher(&mp, &tmp);

        for _ in 0..4 {
            tms.plan_iteration(&mut ms, [(0, 26 << 10)]);
            tmp.plan_iteration_pipelined(&mut mp, [(0, 26 << 10)], &mut pf);
            tmp.prefetch_for_next(mp.now, &mut pf);
        }
        assert!(tms.is_staged(0) && tmp.is_staged(0));
        assert_eq!(tmp.stats, tms.stats, "decision counters identical");
        assert_eq!(pf.stats.prefetched_regions, 1);
        assert_eq!(pf.stats.hit_regions, 1, "the speculative copy was adopted");
        assert_eq!(pf.stats.hit_bytes, 64 << 10);
        assert_eq!(pf.stats.wasted_bytes, 0);
        // Traffic counters: the adopted copy is retro-accounted so the
        // pipelined machine reports byte-identical DMA/DRAM/monitor
        // traffic to the synchronous one.
        assert_eq!(mp.dma.bytes_to_device, ms.dma.bytes_to_device);
        assert_eq!(mp.monitor.dma_bytes, ms.monitor.dma_bytes);
        assert_eq!(mp.monitor.wire_bytes, ms.monitor.wire_bytes);
        assert_eq!(mp.host_dram.bytes_read, ms.host_dram.bytes_read);
        assert_eq!(mp.hbm.bytes_written, ms.hbm.bytes_written);
        // The pool equals the synchronous one, and the adoption released
        // the speculative charge.
        assert_eq!(tmp.pool_left(), tms.pool_left());
        assert_eq!(pf.slice_used(), 0);
    }

    /// Speculative charges never change staging decisions: with a pool of
    /// exactly one region, a speculative stage of the *wrong* region never
    /// lowers the demand budget, so the dense region still wins the pool
    /// and the misprediction only costs wasted bytes.
    #[test]
    fn speculative_charge_never_steals_the_pool_from_demand_staging() {
        let mut m = machine();
        let mut tm = TransferManager::new(&m, 128 << 10, cfg(64 << 10, Some(64 << 10)));
        let mut pf = prefetcher(&m, &tm);
        // Make region 1 look hot so the prefetcher speculates it.
        for _ in 0..3 {
            tm.plan_iteration_pipelined(&mut m, [(64 << 10, 90 << 10)], &mut pf);
            tm.prefetch_for_next(m.now, &mut pf);
        }
        assert!(pf.is_speculative(1), "region 1 speculated");
        assert_eq!(
            tm.pool_left(),
            64 << 10,
            "speculation leaves the demand budget alone"
        );
        assert_eq!(
            pf.slice_used(),
            64 << 10,
            "slack fully held by the speculation"
        );
        // Now region 0 arrives fully dense: it must stage exactly as it
        // would synchronously; the speculation is evicted, not the stage.
        assert!(tm.plan_iteration_pipelined(&mut m, [(0, 64 << 10)], &mut pf));
        assert!(tm.is_staged(0));
        assert!(!pf.is_speculative(1), "speculation evicted to fit");
        assert_eq!(pf.stats.wasted_bytes, 64 << 10);
        assert_eq!((tm.pool_left(), pf.slice_used()), (0, 0));
    }

    /// A permanent reservation consumes the headroom a speculation was
    /// holding, and the evicted speculation's charge must not resurrect
    /// pool budget at the next round.
    #[test]
    fn reserve_consumes_speculative_headroom_without_double_counting() {
        let mut m = machine();
        let mut tm = TransferManager::new(&m, 128 << 10, cfg(64 << 10, Some(64 << 10)));
        let mut pf = prefetcher(&m, &tm);
        for _ in 0..3 {
            tm.plan_iteration_pipelined(&mut m, [(64 << 10, 90 << 10)], &mut pf);
            tm.prefetch_for_next(m.now, &mut pf);
        }
        assert!(pf.is_speculative(1));
        assert_eq!((tm.pool_left(), pf.slice_used()), (64 << 10, 64 << 10));
        // Reserve the whole pool: the headroom the speculation holds is
        // the only headroom left, so it is consumed.
        tm.reserve(64 << 10);
        assert_eq!(tm.pool_left(), 0);
        // The next round evicts the speculation (its budget is gone) and
        // — the regression this guards — no pool bytes reappear from the
        // stale charge.
        tm.plan_iteration_pipelined(&mut m, [(0, 64 << 10)], &mut pf);
        assert!(!tm.is_staged(0), "pool is fully reserved");
        assert!(!pf.is_speculative(1), "orphaned speculation evicted");
        assert_eq!(tm.pool_left(), 0, "no budget resurrected");
        assert_eq!(pf.slice_used(), 0);
        assert_eq!(pf.stats.wasted_bytes, 64 << 10);
    }

    /// A `reserve` between rounds can leave `slice_used > pool`; the next
    /// round's evict-to-fit repairs it — oldest speculation kept, newest
    /// evicted — before `prefetch_for_next` may speculate again.
    #[test]
    fn reserve_overhang_is_repaired_before_any_new_speculation() {
        let mut m = machine();
        let mut tm = TransferManager::new(&m, 256 << 10, cfg(64 << 10, Some(128 << 10)));
        let mut pf = prefetcher(&m, &tm);
        // Regions 1, 2 and 3 look equally hot: the first two are
        // speculated, filling the pool; region 3 stays a candidate.
        for _ in 0..3 {
            let hot = (1..4u64).map(|r| (r * (64 << 10), r * (64 << 10) + (26 << 10)));
            tm.plan_iteration_pipelined(&mut m, hot, &mut pf);
            tm.prefetch_for_next(m.now, &mut pf);
        }
        assert!(pf.is_speculative(1) && pf.is_speculative(2) && !pf.is_speculative(3));
        assert_eq!((tm.pool_left(), pf.slice_used()), (128 << 10, 128 << 10));
        tm.reserve(64 << 10);
        assert!(pf.slice_used() > tm.pool_left(), "the overhang");
        // Speculation into the overhang is refused, not underflowed ...
        let issued = pf.stats.prefetched_regions;
        tm.prefetch_for_next(m.now, &mut pf);
        assert_eq!(pf.stats.prefetched_regions, issued);
        // ... and the next round evicts in issue order until it fits.
        tm.plan_iteration_pipelined(&mut m, std::iter::empty(), &mut pf);
        assert!(pf.is_speculative(1) && !pf.is_speculative(2));
        assert_eq!((tm.pool_left(), pf.slice_used()), (64 << 10, 64 << 10));
        assert_eq!(pf.stats.wasted_bytes, 64 << 10);
        tm.prefetch_for_next(m.now, &mut pf);
        assert_eq!(
            pf.stats.prefetched_regions, issued,
            "no slack, no speculation"
        );
    }

    /// With a prefetcher that never issues, the pipelined entry point is
    /// the synchronous one (same decisions, same clock).
    #[test]
    fn plan_pipelined_without_speculation_matches_plan_exactly() {
        let mut ms = machine();
        let mut tms = TransferManager::new(&ms, 256 << 10, cfg(64 << 10, None));
        let mut mp = machine();
        let mut tmp = TransferManager::new(&mp, 256 << 10, cfg(64 << 10, None));
        // A prefetcher with a zero-byte slice can never issue.
        let mut pf = Prefetcher::new(
            tmp.num_regions(),
            PrefetchConfig {
                slice_bytes: 0,
                ..PrefetchConfig::default()
            },
            CopyEngineConfig::from_pcie(&mp.cfg.pcie),
        );
        for _ in 0..3 {
            let a = tms.plan_iteration(&mut ms, [(0u64, 200u64 << 10)]);
            let b = tmp.plan_iteration_pipelined(&mut mp, [(0u64, 200u64 << 10)], &mut pf);
            tmp.prefetch_for_next(mp.now, &mut pf);
            assert_eq!(a, b);
        }
        assert_eq!(tmp.stats, tms.stats);
        assert_eq!(mp.now, ms.now, "clocks identical without speculation");
        assert_eq!(pf.stats, crate::prefetch::PrefetchStats::default());
    }
}
