//! Hybrid zero-copy / DMA transfer manager.
//!
//! One [`TransferManager`] watches a pinned-host array (the edge list) in
//! fixed-size regions. Before each kernel iteration the traversal driver
//! hands [`plan_iteration`](TransferManager::plan_iteration) exactly the
//! byte ranges the iteration will read (the frontier determines this
//! precisely): the [`emogi_uvm::TransferPolicy`] picks, per touched
//! region, between staying in place and staging the region into device
//! memory with one bulk DMA copy through the machine's
//! [`emogi_sim::DmaEngine`]. The manager's staging table is the one
//! record of staged regions: the kernel-side address computation asks
//! [`translate`](TransferManager::translate), so their reads are priced as
//! cache-fronted HBM instead of PCIe.
//!
//! The staging budget is the machine's free device memory, read from the
//! allocator ([`crate::alloc`]) at every stage-or-fall-back test, so an
//! allocation made outside the manager shrinks it with no bookkeeping
//! here. When it runs dry the manager falls back to zero-copy for the
//! remaining regions (and keeps feeding the policy, so accounting stays
//! truthful). Nothing is ever un-staged: BFS re-touches a region with a
//! period longer than any staleness bound that would demote anything, so
//! a demotion only re-pays its copy (measured; ROADMAP parks cold
//! demotion), and bounded device memory plus fallback keeps the model
//! honest without an eviction clock.
//!
//! The **pipelined path**
//! ([`plan_iteration_pipelined`](TransferManager::plan_iteration_pipelined),
//! [`prefetch_for_next`](TransferManager::prefetch_for_next)) pairs the
//! manager with a [`Prefetcher`]: after each
//! round it speculatively stages predicted-reuse regions onto an
//! asynchronous copy lane, and a later round that decides to stage such a
//! region *adopts* the in-flight copy instead of paying a demand copy on
//! the critical path. A pipelined round is *decide (adopting) →
//! evict-to-fit → prefetch*: decisions allocate exactly as the
//! synchronous path does, because speculation never allocates — the
//! speculative charge lives only in the prefetcher
//! ([`Prefetcher::slice_used`]) and is kept within the free device memory
//! the decisions leave — speculation's one bound. Decisions, allocation
//! order and traffic counters stay bit-identical to the synchronous path;
//! only the clock (and the new prefetch counters) differ.

use crate::alloc::device_charge;
use crate::machine::Machine;
use crate::prefetch::Prefetcher;
use emogi_sim::time::Time;
use emogi_uvm::{MemoryTier, TransferPolicy, TransferPolicyConfig};

/// Sentinel in the staging table: region not staged.
pub const UNMAPPED: u64 = u64::MAX;

/// How to build a [`TransferManager`]. The staging rule itself has no
/// settings: its rent/buy points are constants of the home tier
/// ([`MemoryTier::stage_threshold`]).
#[derive(Debug, Clone)]
pub struct TransferConfig {
    /// Region granularity in bytes; a power of two, at least one 128-byte
    /// cache line (so no line ever straddles a region boundary).
    pub region_bytes: u64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self {
            region_bytes: 64 << 10,
        }
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
        /// memory was full.
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
    /// The free device bytes the last pipelined round fit its speculation
    /// into, written once per round: the reading
    /// [`prefetch_for_next`](Self::prefetch_for_next) speculates against.
    round_free: u64,
    /// Bytes of the watched array homed in pinned host DRAM; offsets past
    /// this are homed in the CXL tier. Equal to `len_bytes` on a two-tier
    /// machine.
    host_bytes: u64,
    /// Monotonically growing lifetime counters; snapshot and diff for
    /// per-run reporting.
    pub stats: TransferStats,
}

impl TransferManager {
    /// Watch `len_bytes` of pinned host memory. The machine is not read
    /// here (each round reads its free device memory); the parameter
    /// keeps the signature the benchmark package calls.
    pub fn new(_machine: &Machine, len_bytes: u64, cfg: TransferConfig) -> Self {
        Self::with_tiers(len_bytes, len_bytes, cfg)
    }

    /// Watch `len_bytes` of which the first `host_bytes` are homed in
    /// pinned host DRAM and the rest in the CXL external tier (the
    /// spilled layout of a bigger-than-host-DRAM graph). `host_bytes`
    /// must land on a region boundary (or cover the whole array) so every
    /// region has exactly one home tier.
    pub fn with_tiers(len_bytes: u64, host_bytes: u64, cfg: TransferConfig) -> Self {
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
        Self {
            region_bytes: cfg.region_bytes,
            shift: cfg.region_bytes.trailing_zeros(),
            len_bytes,
            policy: TransferPolicy::new(regions, TransferPolicyConfig),
            table: vec![UNMAPPED; regions],
            upcoming: vec![0; regions],
            touched: Vec::new(),
            last_touched: Vec::new(),
            round_free: 0,
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

    /// Whether `region` has been staged into device memory.
    pub fn is_staged(&self, region: usize) -> bool {
        self.table[region] != UNMAPPED
    }

    /// Translate a byte offset within the watched array: `Some(device
    /// address)` when the offset's region is staged.
    #[inline]
    pub fn translate(&self, offset: u64) -> Option<u64> {
        let dev = self.table[(offset >> self.shift) as usize];
        if dev == UNMAPPED {
            None
        } else {
            Some(dev + (offset & (self.region_bytes - 1)))
        }
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
    /// allocate device memory for the winners while it lasts, and
    /// issue one batched bulk copy for all of them (the copies queue
    /// back-to-back on the DMA engine, so the launch overhead is paid
    /// once per round). Clears the upcoming-iteration scratch. Returns
    /// whether any region was staged this round.
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
            let density = bytes as f64 / len as f64;
            let home = self.home(r);
            let stage = self.policy.decide_tiered(r, density.min(1.0), home);
            if !stage || machine.spaces.device_free() < device_charge(len) {
                // Stays in place, by decision or because device memory is full.
                if stage {
                    self.stats.pool_fallbacks += 1;
                }
                self.policy.note_zero_copy(r, density);
                continue;
            }
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
            // outside allocation since last round) left free; the rest are
            // evicted.
            let free = machine.spaces.device_free();
            p.evict_to_fit(free);
            assert!(
                p.slice_used() <= free,
                "speculative slice {} B outgrew the free device memory {} B",
                p.slice_used(),
                free
            );
            self.round_free = free;
        }
        staged_count > 0
    }

    /// Feed the asynchronous copy lane for the next iteration: rank
    /// not-yet-staged regions by predicted reuse (a pure function of this
    /// round's planner state) and issue speculative stages, best first,
    /// while the free device memory the round's evict-to-fit read, minus
    /// what live speculation already holds, covers them. Call right after
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
            let charge = device_charge(len);
            if self.round_free.saturating_sub(pf.slice_used()) < charge {
                break; // speculate only into free device memory
            }
            pf.issue(r, len, charge, at);
        }
    }

    /// The planning hook for a kernel launch: note every byte range the
    /// launch will read (frontier-driven callers pass one range per
    /// active neighbour list, full-sweep callers the whole array) and run
    /// the staging decision. Returns whether any region was staged.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::v100_gen3())
    }

    /// A V100 whose free device memory — the staging budget of every
    /// manager — is exactly `pool` bytes (a multiple of 128: device
    /// allocations round up to whole lines).
    fn machine_with_pool(pool: u64) -> Machine {
        let mut m = machine();
        let free = m.spaces.device_free();
        m.alloc_device(free - pool);
        assert_eq!(m.spaces.device_free(), pool);
        m
    }

    fn cfg(region_bytes: u64) -> TransferConfig {
        TransferConfig { region_bytes }
    }

    #[test]
    fn regions_cover_the_array() {
        let m = machine();
        let tm = TransferManager::new(&m, 200 << 10, cfg(64 << 10));
        assert_eq!(tm.num_regions(), 4);
        assert_eq!(tm.region_len(0), 64 << 10);
        assert_eq!(tm.region_len(3), 8 << 10, "last region is partial");
    }

    #[test]
    fn dense_upcoming_region_is_staged_and_copied() {
        let mut m = machine();
        m.alloc_host_pinned(128 << 10);
        let mut tm = TransferManager::new(&m, 128 << 10, cfg(64 << 10));
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
        let dev = tm.translate(4096).expect("staged");
        assert!(dev < crate::alloc::HOST_BASE);
        assert_eq!(tm.translate(64 << 10), None, "region 1 stays zero-copy");
    }

    #[test]
    fn sparse_traffic_accumulates_then_stages() {
        let mut m = machine();
        let mut tm = TransferManager::new(&m, 64 << 10, cfg(64 << 10));
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
        // Pool holds exactly one region.
        let mut m = machine_with_pool(64 << 10);
        let mut tm = TransferManager::new(&m, 256 << 10, cfg(64 << 10));
        tm.plan_iteration(&mut m, [(0, 256 << 10)]); // all four regions fully dense
        assert_eq!(tm.stats.staged_regions, 1);
        assert_eq!(tm.stats.pool_fallbacks, 3);
        assert_eq!(m.spaces.device_free(), 0);
        assert!(tm.is_staged(0) && !tm.is_staged(1));
        // The fallen-back regions keep accruing zero-copy history.
        tm.plan_iteration(&mut m, [(64 << 10, 128 << 10)]);
        assert_eq!(tm.stats.pool_fallbacks, 4);
    }

    #[test]
    fn partial_region_budgets_its_rounded_allocation() {
        // One 8000-byte (non-128-multiple) region; a pool of 7936 bytes
        // (whole lines, under the region's own size) cannot hold its
        // 8064-byte rounded allocation, so staging must fall back rather
        // than underflow the budget.
        let mut m = machine_with_pool(7_936);
        let mut tm = TransferManager::new(&m, 8_000, cfg(64 << 10));
        assert!(!tm.plan_iteration(&mut m, [(0, 8_000)]));
        assert!(!tm.is_staged(0));
        assert_eq!(tm.stats.pool_fallbacks, 1);
        assert_eq!(m.spaces.device_free(), 7_936);
        // With the rounded size available the region stages fine.
        let mut m = machine_with_pool(8_064);
        let mut tm = TransferManager::new(&m, 8_000, cfg(64 << 10));
        assert!(tm.plan_iteration(&mut m, [(0, 8_000)]));
        assert!(tm.is_staged(0));
        assert_eq!(m.spaces.device_free(), 0);
    }

    #[test]
    fn staged_region_is_not_replanned() {
        let mut m = machine();
        let mut tm = TransferManager::new(&m, 64 << 10, cfg(64 << 10));
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
        let mut tm = TransferManager::new(&m, 64 << 10, cfg(64 << 10));
        for _ in 0..8 {
            tm.note_upcoming(0, 32 << 10);
        }
        assert_eq!(tm.upcoming[0], 64 << 10, "clamped to the region size");
    }

    #[test]
    fn plan_iteration_notes_then_plans() {
        let mut m = machine();
        let mut tm = TransferManager::new(&m, 128 << 10, cfg(64 << 10));
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
        let mut tm = TransferManager::with_tiers(128 << 10, 64 << 10, cfg(64 << 10));
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
        let _ = TransferManager::new(&m, 1 << 20, cfg(48 << 10));
    }

    // ----------------------------------------------- N-tier placement

    use emogi_sim::cxl::CxlConfig;

    fn cxl_machine() -> Machine {
        Machine::new(MachineConfig::v100_gen3().with_cxl(CxlConfig::external_x8()))
    }

    #[test]
    fn homes_split_at_the_host_byte_boundary() {
        let m = machine();
        let tm = TransferManager::with_tiers(256 << 10, 128 << 10, cfg(64 << 10));
        assert_eq!(tm.home(0), MemoryTier::Host);
        assert_eq!(tm.home(1), MemoryTier::Host);
        assert_eq!(tm.home(2), MemoryTier::Cxl);
        assert_eq!(tm.home(3), MemoryTier::Cxl);
        // A fully host-resident array has no CXL-homed regions.
        let tm = TransferManager::new(&m, 256 << 10, cfg(64 << 10));
        assert!((0..4).all(|r| tm.home(r) == MemoryTier::Host));
    }

    #[test]
    #[should_panic(expected = "region boundary")]
    fn misaligned_host_split_is_rejected() {
        let _ = TransferManager::with_tiers(256 << 10, 100 << 10, cfg(64 << 10));
    }

    /// A CXL-homed region promotes over the CXL link — at the *lower*
    /// rent/buy point — and the copy never touches the PCIe counters.
    #[test]
    fn cxl_homed_region_promotes_over_the_cxl_link() {
        let mut m = cxl_machine();
        let mut tm = TransferManager::with_tiers(128 << 10, 64 << 10, cfg(64 << 10));
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
        let mut tm = TransferManager::with_tiers(128 << 10, 64 << 10, cfg(64 << 10));
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
            PrefetchConfig,
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
        let mut tms = TransferManager::new(&ms, 64 << 10, cfg(64 << 10));
        let mut mp = machine();
        let mut tmp = TransferManager::new(&mp, 64 << 10, cfg(64 << 10));
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
        // Device memory is allocated as in the synchronous run, and the
        // adoption released the speculative charge.
        assert_eq!(mp.spaces.device_free(), ms.spaces.device_free());
        assert_eq!(pf.slice_used(), 0);
    }

    /// Speculative charges never change staging decisions: with a pool of
    /// exactly one region, a speculative stage of the *wrong* region never
    /// lowers the demand budget, so the dense region still wins the pool
    /// and the misprediction only costs wasted bytes.
    #[test]
    fn speculative_charge_never_steals_the_pool_from_demand_staging() {
        let mut m = machine_with_pool(64 << 10);
        let mut tm = TransferManager::new(&m, 128 << 10, cfg(64 << 10));
        let mut pf = prefetcher(&m, &tm);
        // Make region 1 look hot so the prefetcher speculates it.
        for _ in 0..3 {
            tm.plan_iteration_pipelined(&mut m, [(64 << 10, 90 << 10)], &mut pf);
            tm.prefetch_for_next(m.now, &mut pf);
        }
        assert!(pf.is_speculative(1), "region 1 speculated");
        assert_eq!(
            m.spaces.device_free(),
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
        assert_eq!((m.spaces.device_free(), pf.slice_used()), (0, 0));
    }

    /// An allocation outside the manager (as the engine's batch status
    /// arrays make) consumes the headroom a speculation was holding, and
    /// the evicted speculation's charge must not resurrect budget at the
    /// next round.
    #[test]
    fn outside_allocation_consumes_speculative_headroom_without_double_counting() {
        let mut m = machine_with_pool(64 << 10);
        let mut tm = TransferManager::new(&m, 128 << 10, cfg(64 << 10));
        let mut pf = prefetcher(&m, &tm);
        for _ in 0..3 {
            tm.plan_iteration_pipelined(&mut m, [(64 << 10, 90 << 10)], &mut pf);
            tm.prefetch_for_next(m.now, &mut pf);
        }
        assert!(pf.is_speculative(1));
        assert_eq!(
            (m.spaces.device_free(), pf.slice_used()),
            (64 << 10, 64 << 10)
        );
        // Allocate all free device memory: the headroom the speculation
        // holds is the only headroom left, so it is consumed.
        m.alloc_device(64 << 10);
        assert_eq!(m.spaces.device_free(), 0);
        // The next round evicts the speculation (its budget is gone) and
        // — the regression this guards — no budget reappears from the
        // stale charge.
        tm.plan_iteration_pipelined(&mut m, [(0, 64 << 10)], &mut pf);
        assert!(!tm.is_staged(0), "device memory is fully allocated");
        assert!(!pf.is_speculative(1), "orphaned speculation evicted");
        assert_eq!(m.spaces.device_free(), 0, "no budget resurrected");
        assert_eq!(pf.slice_used(), 0);
        assert_eq!(pf.stats.wasted_bytes, 64 << 10);
    }

    /// An outside allocation between rounds can leave `slice_used` above
    /// the free device memory; the next round's evict-to-fit repairs it —
    /// oldest speculation kept, newest evicted — before
    /// `prefetch_for_next` may speculate again.
    #[test]
    fn outside_allocation_overhang_is_repaired_before_any_new_speculation() {
        let mut m = machine_with_pool(128 << 10);
        let mut tm = TransferManager::new(&m, 256 << 10, cfg(64 << 10));
        let mut pf = prefetcher(&m, &tm);
        // Regions 1, 2 and 3 look equally hot: the first two are
        // speculated, filling the pool; region 3 stays a candidate.
        for _ in 0..3 {
            let hot = (1..4u64).map(|r| (r * (64 << 10), r * (64 << 10) + (26 << 10)));
            tm.plan_iteration_pipelined(&mut m, hot, &mut pf);
            tm.prefetch_for_next(m.now, &mut pf);
        }
        assert!(pf.is_speculative(1) && pf.is_speculative(2) && !pf.is_speculative(3));
        assert_eq!(
            (m.spaces.device_free(), pf.slice_used()),
            (128 << 10, 128 << 10)
        );
        m.alloc_device(64 << 10);
        assert!(pf.slice_used() > m.spaces.device_free(), "the overhang");
        // Speculation into the overhang is refused, not underflowed ...
        let issued = pf.stats.prefetched_regions;
        tm.prefetch_for_next(m.now, &mut pf);
        assert_eq!(pf.stats.prefetched_regions, issued);
        // ... and the next round evicts in issue order until it fits.
        tm.plan_iteration_pipelined(&mut m, std::iter::empty(), &mut pf);
        assert!(pf.is_speculative(1) && !pf.is_speculative(2));
        assert_eq!(
            (m.spaces.device_free(), pf.slice_used()),
            (64 << 10, 64 << 10)
        );
        assert_eq!(pf.stats.wasted_bytes, 64 << 10);
        tm.prefetch_for_next(m.now, &mut pf);
        assert_eq!(
            pf.stats.prefetched_regions, issued,
            "no slack, no speculation"
        );
    }

    /// While no region qualifies for speculation, the pipelined entry
    /// point is the synchronous one (same decisions, same clock).
    #[test]
    fn plan_pipelined_without_speculation_matches_plan_exactly() {
        let mut ms = machine();
        let mut tms = TransferManager::new(&ms, 256 << 10, cfg(64 << 10));
        let mut mp = machine();
        let mut tmp = TransferManager::new(&mp, 256 << 10, cfg(64 << 10));
        let mut pf = prefetcher(&mp, &tmp);
        // Regions 0-2 are read whole and stage on demand; region 3 is read
        // at 1/8 density, so after three rounds its score (3/8 of history
        // plus 1/8 predicted) stays under the margin (0.7 x 1.5).
        for _ in 0..3 {
            let a = tms.plan_iteration(&mut ms, [(0u64, 200u64 << 10)]);
            let b = tmp.plan_iteration_pipelined(&mut mp, [(0u64, 200u64 << 10)], &mut pf);
            tmp.prefetch_for_next(mp.now, &mut pf);
            assert_eq!(a, b);
        }
        assert_eq!(tmp.stats, tms.stats);
        assert_eq!(mp.now, ms.now, "clocks identical without speculation");
        assert_eq!(pf.stats.prefetched_regions, 0, "nothing qualified");
        assert_eq!(pf.stats, crate::prefetch::PrefetchStats::default());
    }

    /// Speculation's one bound is the free device memory: with room to
    /// spare, more than 4 MiB of qualifying regions all go live — none is
    /// evicted to make room for another — and every round keeps
    /// `slice_used` within the free device memory.
    #[test]
    fn speculation_grows_to_the_free_device_memory() {
        let region = 64u64 << 10;
        let regions = 96u64; // 6 MiB of edge list
        let mut m = machine_with_pool(8 << 20);
        let mut tm = TransferManager::new(&m, regions * region, cfg(region));
        let mut pf = prefetcher(&m, &tm);
        // Three rounds read every region at 3/8 density: the history
        // (9/8) qualifies each region for speculation but stays under
        // the host's rent/buy point, so nothing stages on demand. Later
        // rounds read nothing, and the prefetcher issues 16 qualifying
        // regions a round until all are live.
        let sparse = |r: u64| (r * region, r * region + 3 * region / 8);
        let mut peak = 0;
        for round in 0..12 {
            if round < 3 {
                tm.plan_iteration_pipelined(&mut m, (0..regions).map(sparse), &mut pf);
            } else {
                tm.plan_iteration_pipelined(&mut m, std::iter::empty(), &mut pf);
            }
            tm.prefetch_for_next(m.now, &mut pf);
            assert!(
                pf.slice_used() <= m.spaces.device_free(),
                "round {round}: {} B speculative over {} B free",
                pf.slice_used(),
                m.spaces.device_free()
            );
            peak = peak.max(pf.slice_used());
        }
        assert_eq!(tm.stats.staged_regions, 0, "no demand staging");
        assert!(peak > 4 << 20, "speculation stopped at {peak} B");
        assert_eq!(peak, regions * region, "every qualifying region is live");
        assert_eq!(pf.stats.wasted_bytes, 0);
    }
}
