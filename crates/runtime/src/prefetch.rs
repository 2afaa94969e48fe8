//! Speculative prefetcher for the hybrid transfer manager.
//!
//! The synchronous planner ([`crate::transfer`]) stages a region only in
//! the round that first proves it worth staging — and then the bulk copy
//! sits on the critical path. This module overlaps that copy with the
//! *previous* iteration's kernel: after each planning round the
//! [`Prefetcher`] ranks not-yet-staged regions by predicted reuse
//! ([`Prefetcher::rank_candidates`], a pure function of iteration-start
//! state), and
//! [`TransferManager::prefetch_for_next`](crate::transfer::TransferManager::prefetch_for_next)
//! issues the
//! top-ranked ones onto an asynchronous [`CopyEngine`] lane, charged
//! against the free device memory that demand staging leaves. When a
//! later round decides to stage a prefetched region, the planner
//! *adopts* the speculative
//! copy instead of issuing a demand copy: the bytes are retro-accounted
//! so every traffic counter matches the synchronous run, and the clock
//! only waits if the copy is still in flight (usually it is not — the
//! latency hid behind compute). Mispredicted regions are evicted when
//! demand staging or an outside allocation needs their room, and cost
//! only wasted bytes, never correctness.
//!
//! ```text
//! synchronous:   plan──copy━━━━━━━│ kernel i │ plan──copy━━━━│ kernel i+1 │
//!                                                  (staging waits on the clock)
//!
//! pipelined:     plan─┬───────────│ kernel i │ plan(adopt)────│ kernel i+1 │
//!                     └─copy lane: ━━━━━regions for i+1━━━━─┘
//!                                  (copy overlaps kernel i; round i+1 pays
//!                                   at most the residual in-flight wait)
//! ```
//!
//! A pipelined round is *decide → evict-to-fit → prefetch*. Inside
//! `plan_iteration_pipelined` the transfer manager **decides** — the
//! unchanged ski-rental policy against the allocator's free device bytes,
//! adopting an in-flight copy where it stages a prefetched region — and
//! then **evicts to fit**: `Prefetcher::evict_to_fit` walks the surviving
//! speculative stages in issue order, keeps what the free device memory
//! still covers and evicts the rest (as `wasted_bytes`). After the round,
//! `prefetch_for_next` **prefetches**: it ranks candidates for the *next*
//! round and issues them while the free bytes that evict-to-fit read,
//! minus `slice_used`, have room. That is speculation's one bound: a
//! speculative stage lives until a demand staging adopts it or the free
//! device memory no longer covers it. A region
//! qualifies when `cumulative_density + min(1, touch_density × growth)`
//! reaches `MARGIN` × the host tier's rent/buy point
//! ([`MemoryTier::stage_threshold`]; growth: a clamped frontier-growth
//! ratio).
//!
//! Determinism: prediction inputs are exactly the planner's own
//! iteration-start state (last touch set, policy densities, staging
//! table), the ranking is totally ordered (score then region index), and
//! speculative charges are never allocated — the charge is stored once,
//! as [`Prefetcher::slice_used`], so the decision loop reads exactly the
//! free device memory a synchronous run has. Staging *decisions*
//! therefore depend only on iteration-start state (only real allocations
//! — demand stagings and the engine's batch status block — ever move
//! it; adoption allocates at exactly the point the synchronous path
//! would). Traffic
//! *counters* match because adopted copies are retro-accounted with the
//! same alignment and per-TLP header arithmetic as the demand path (one
//! function, `emogi_sim::time::framed_wire_bytes`, frames every bulk
//! copy), and because all executor busy-until lanes are ≤ the kernel
//! start in both paths, the kernel's coalescing/caching behaviour is
//! translation-invariant in the clock. What may differ: `elapsed_ns` (the
//! point), the `avg_pcie_gbps()` divided by it, and the
//! `RunStats::prefetch` counters themselves — which are also the one
//! record of the copy lane's traffic (`prefetched_regions` /
//! `prefetched_bytes`). `tests/pipeline_differential.rs` property-checks
//! outputs, iteration counts and semantic stats of pipelined-vs-
//! synchronous hybrid pairs across solo / batched / sharded execution ×
//! 4 programs × small region sizes × 1/2/4 devices, plus one fixed case
//! asserting the pipelined side really prefetched and adopted; the
//! `overlap` experiment measures the payoff (speedup and the fraction of
//! staging latency hidden behind compute).

use emogi_sim::pipeline::{CopyEngine, CopyEngineConfig};
use emogi_sim::time::Time;
use emogi_uvm::{MemoryTier, TransferPolicy};

use crate::transfer::UNMAPPED;

/// The prefetcher has no settings: speculation is bounded by the free
/// device memory alone. The type stays because the benchmark package
/// builds its prefetcher with `Prefetcher::new(n, PrefetchConfig::default(),
/// copy)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchConfig;

/// Most regions [`Prefetcher::rank_candidates`] returns per planning
/// round (the lane is one copy engine; flooding it would just queue
/// copies behind each other).
const MAX_REGIONS_PER_ROUND: usize = 16;
/// Fraction of the host tier's rent/buy point
/// ([`MemoryTier::stage_threshold`]) a predicted score must reach to be
/// worth speculating on. Lower values prefetch earlier but
/// waste more bytes on mispredictions.
const MARGIN: f64 = 0.7;

emogi_sim::ledger! {
    /// Monotonic prefetch counters; read and diff for per-run reporting
    /// (the same protocol as [`crate::transfer::TransferStats`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PrefetchStats {
        /// Regions speculatively issued onto the copy lane.
        pub prefetched_regions: u64,
        /// Bytes speculatively issued onto the copy lane.
        pub prefetched_bytes: u64,
        /// Prefetched regions later adopted by a demand staging decision.
        pub hit_regions: u64,
        /// Bytes of adopted prefetches — staging traffic whose latency was
        /// (partially or fully) hidden behind kernel compute.
        pub hit_bytes: u64,
        /// Bytes of evicted prefetches that were never adopted — the cost
        /// of misprediction.
        pub wasted_bytes: u64,
        /// Ns the clock stalled waiting for adopted copies still in flight.
        pub stall_ns: u64,
        /// Estimated ns of staging latency hidden behind compute: the
        /// synchronous marginal copy cost of adopted bytes minus the stall
        /// actually paid. A diagnostic estimate, not a clock input.
        pub hidden_ns: u64,
    }
}

/// One live speculative stage.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Actual bytes of the region (the last region may be partial).
    len: u64,
    /// Rounded allocation charge held against free device memory.
    charge: u64,
    /// When the copy lands on the async lane's timeline.
    done_at: Time,
}

/// The speculative-staging side of the pipelined transfer manager.
///
/// Owned by the engine next to its `TransferManager`; all interaction
/// goes through the manager's `plan_iteration_pipelined` /
/// `prefetch_for_next` hooks. [`slice_used`](Self::slice_used) is the
/// only record of the speculative charge; the manager reads it against
/// the free device memory.
#[derive(Debug)]
pub struct Prefetcher {
    lane: CopyEngine,
    /// Region index -> live speculative stage.
    slots: Vec<Option<Slot>>,
    /// Live speculative regions in issue order (evict-to-fit keeps the
    /// oldest).
    order: Vec<u32>,
    /// Sum of live slot charges (bounded by the free device memory).
    slice_used: u64,
    /// Touched bytes of the previous round, for the growth ratio.
    prev_touched_bytes: u64,
    /// Frontier-growth ratio (this round's touched bytes over the
    /// previous round's), clamped; scales the predicted re-touch density.
    growth: f64,
    /// Monotonically growing lifetime counters; snapshot and diff for
    /// per-run reporting.
    pub stats: PrefetchStats,
}

impl Prefetcher {
    /// A prefetcher over `num_regions` regions with lane parameters
    /// `copy` — derived from the machine's PCIe configuration
    /// ([`CopyEngineConfig::from_pcie`]): the synchronous DMA path's
    /// overhead, bandwidth and framing, without its propagation term.
    pub fn new(num_regions: usize, _cfg: PrefetchConfig, copy: CopyEngineConfig) -> Self {
        Self {
            lane: CopyEngine::new(copy),
            slots: vec![None; num_regions],
            order: Vec::new(),
            slice_used: 0,
            prev_touched_bytes: 0,
            growth: 1.0,
            stats: PrefetchStats::default(),
        }
    }

    /// Device bytes currently held by live speculative stages.
    pub fn slice_used(&self) -> u64 {
        self.slice_used
    }

    /// Whether `region` currently holds a live speculative stage.
    pub fn is_speculative(&self, region: usize) -> bool {
        self.slots[region].is_some()
    }

    /// Record one planning round's touch set: drains the lane's
    /// completion queue up to `at` and updates the frontier-growth
    /// ratio. Call once per round, before ranking.
    pub fn observe_round(&mut self, at: Time, touched: &[(u32, u64)]) {
        let _ = self.lane.drain_completed(at);
        let cur: u64 = touched.iter().map(|&(_, b)| b).sum();
        self.growth = if self.prev_touched_bytes > 0 && cur > 0 {
            (cur as f64 / self.prev_touched_bytes as f64).clamp(0.5, 2.0)
        } else {
            1.0
        };
        self.prev_touched_bytes = cur;
    }

    /// Rank candidate regions for speculative staging, best first.
    ///
    /// A **pure function of iteration-start state** (a live clock
    /// feeding it fails `cargo test --test sim_golden`, seed in that
    /// file's header): the inputs are the planner's own staging
    /// `table`, the policy's cumulative densities, and the round's sorted
    /// touch set — never live machine or clock state. A region's score is
    /// its accumulated zero-copy density plus its predicted next-round
    /// touch density (this round's density scaled by the frontier-growth
    /// ratio); regions already staged or already speculative are skipped,
    /// and only scores within `MARGIN` of the host tier's rent/buy point
    /// qualify. Ties break on region index, so the ranking — and with it
    /// every downstream speculative charge — is totally ordered.
    pub fn rank_candidates(
        &self,
        policy: &TransferPolicy,
        table: &[u64],
        touched: &[(u32, u64)],
        region_bytes: u64,
        len_bytes: u64,
    ) -> Vec<u32> {
        let threshold = MemoryTier::Host.stage_threshold() * MARGIN;
        let mut scored: Vec<(f64, u32)> = Vec::new();
        let mut ti = 0usize;
        for (r, &mapped) in table.iter().enumerate() {
            while ti < touched.len() && (touched[ti].0 as usize) < r {
                ti += 1;
            }
            if mapped != UNMAPPED || self.slots[r].is_some() {
                continue;
            }
            let start = r as u64 * region_bytes;
            let len = region_bytes.min(len_bytes - start);
            if len == 0 {
                continue;
            }
            let touch_bytes = if ti < touched.len() && (touched[ti].0 as usize) == r {
                touched[ti].1
            } else {
                0
            };
            let predicted = ((touch_bytes as f64 / len as f64) * self.growth).min(1.0);
            let score = policy.cumulative_density(r) + predicted;
            if score >= threshold {
                scored.push((score, r as u32));
            }
        }
        scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(MAX_REGIONS_PER_ROUND);
        scored.into_iter().map(|(_, r)| r).collect()
    }

    /// Issue a speculative stage of `region` (`len` payload bytes,
    /// `charge` rounded device bytes) onto the copy lane at time `at`.
    /// The caller has checked that `charge` fits in free device memory.
    pub(crate) fn issue(&mut self, region: u32, len: u64, charge: u64, at: Time) {
        debug_assert!(self.slots[region as usize].is_none(), "region {region}");
        let ticket = self.lane.submit(at, len);
        self.slots[region as usize] = Some(Slot {
            len,
            charge,
            done_at: ticket.done_at,
        });
        self.order.push(region);
        self.slice_used += charge;
        self.stats.prefetched_regions += 1;
        self.stats.prefetched_bytes += len;
    }

    /// Adopt `region`'s speculative stage into a demand staging decision:
    /// releases its charge and returns the copy's completion time
    /// (the caller stalls only if it is still in the future). `None` when
    /// the region was never prefetched (or already evicted).
    pub(crate) fn adopt(&mut self, region: u32) -> Option<Time> {
        let slot = self.slots[region as usize].take()?;
        self.slice_used -= slot.charge;
        self.stats.hit_regions += 1;
        self.stats.hit_bytes += slot.len;
        Some(slot.done_at)
    }

    /// Fit the live speculative stages into `free` device bytes — what
    /// demand stagings and outside allocations have left: walk them in
    /// issue order, keep each one that still fits beside the ones kept
    /// before it, evict the rest as wasted. Afterwards
    /// `slice_used() <= free`.
    pub(crate) fn evict_to_fit(&mut self, free: u64) {
        let mut left = free;
        self.order.retain(|&region| {
            let Some(slot) = self.slots[region as usize] else {
                return false; // adopted earlier this round
            };
            let fits = left >= slot.charge;
            if fits {
                left -= slot.charge;
            } else {
                self.slots[region as usize] = None;
                self.slice_used -= slot.charge;
                self.stats.wasted_bytes += slot.len;
            }
            fits
        });
    }

    /// Marginal cost a synchronous round would have paid to copy
    /// `extra_bytes` on top of `base_bytes` in its one batched memcpy —
    /// the amount of latency an adopted prefetch can hide. Uses the
    /// lane's cost model, which leaves out the demand DMA path's
    /// propagation term and memory contention: an estimate.
    pub(crate) fn sync_cost_delta(&self, base_bytes: u64, extra_bytes: u64) -> Time {
        if extra_bytes == 0 {
            return 0;
        }
        if base_bytes == 0 {
            // The synchronous round would have paid the launch overhead
            // too; the pipelined round skips the memcpy entirely.
            self.lane.cost(extra_bytes)
        } else {
            self.lane.wire_time(base_bytes + extra_bytes) - self.lane.wire_time(base_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emogi_sim::pcie::PcieConfig;
    use emogi_uvm::{TransferPolicy, TransferPolicyConfig};

    fn pf(regions: usize) -> Prefetcher {
        Prefetcher::new(
            regions,
            PrefetchConfig,
            CopyEngineConfig::from_pcie(&PcieConfig::gen3_x16()),
        )
    }

    #[test]
    fn ranking_prefers_high_cumulative_density_and_breaks_ties_by_region() {
        let mut policy = TransferPolicy::new(4, TransferPolicyConfig);
        policy.note_zero_copy(2, 0.9);
        policy.note_zero_copy(2, 0.4); // cum 1.3
        policy.note_zero_copy(1, 1.2); // cum 1.2
        policy.note_zero_copy(3, 1.2); // cum 1.2
        let table = [UNMAPPED; 4];
        let got = pf(4).rank_candidates(&policy, &table, &[], 64 << 10, 256 << 10);
        // Threshold 1.5 * 0.7 = 1.05: region 0 (cum 0) is out; 2 ranks
        // first, then 1 and 3 tie on score and order by index.
        assert_eq!(got, vec![2, 1, 3]);
    }

    #[test]
    fn ranking_skips_staged_and_speculative_regions_and_uses_touch_growth() {
        let mut policy = TransferPolicy::new(4, TransferPolicyConfig);
        policy.note_zero_copy(0, 1.4);
        policy.note_zero_copy(1, 1.4);
        policy.note_zero_copy(2, 1.4);
        let mut p = pf(4);
        p.issue(2, 64 << 10, 64 << 10, 0);
        let mut table = [UNMAPPED; 4];
        table[0] = 42; // demand-staged already

        // Region 3 touched at half density with growth 1: predicted 0.5.
        let touched = [(3u32, 32u64 << 10)];
        let got = p.rank_candidates(&policy, &table, &touched, 64 << 10, 256 << 10);
        assert_eq!(got, vec![1], "0 staged, 2 speculative, 3 under margin");
    }

    #[test]
    fn adopt_and_evict_settle_the_slice_and_count_hits_and_waste() {
        let mut p = pf(3);
        p.issue(0, 10, 128, 0);
        p.issue(1, 64 << 10, 64 << 10, 0);
        assert_eq!(p.slice_used(), 128 + (64 << 10));
        assert!(p.is_speculative(0) && p.is_speculative(1));

        let done = p.adopt(0).expect("live slot");
        assert!(done > 0);
        assert_eq!(p.adopt(0), None, "adoption consumes the slot");
        assert_eq!(p.stats.hit_regions, 1);
        assert_eq!(p.stats.hit_bytes, 10);

        // Evicting to fit no free memory skips the adopted region's stale
        // entry and counts only the live one as wasted.
        p.evict_to_fit(0);
        assert!(!p.is_speculative(1));
        assert_eq!(p.slice_used(), 0);
        assert_eq!(p.stats.wasted_bytes, 64 << 10);
    }

    #[test]
    fn evict_to_fit_keeps_what_fits_and_evicts_the_rest_in_issue_order() {
        let mut p = pf(3);
        p.issue(0, 100, 128, 0);
        p.issue(1, 100, 128, 0);
        p.issue(2, 100, 128, 0);
        p.evict_to_fit(300); // room for two of the three charges
        assert_eq!(p.slice_used(), 256);
        assert!(p.is_speculative(0) && p.is_speculative(1));
        assert!(!p.is_speculative(2), "newest eviction victim");
        assert_eq!(p.stats.wasted_bytes, 100);
    }

    #[test]
    fn growth_ratio_tracks_touched_bytes_and_clamps() {
        let mut p = pf(1);
        p.observe_round(0, &[(0, 100)]);
        assert_eq!(p.growth, 1.0, "no previous round");
        p.observe_round(0, &[(0, 150)]);
        assert_eq!(p.growth, 1.5);
        p.observe_round(0, &[(0, 1)]);
        assert_eq!(p.growth, 0.5, "clamped below");
        p.observe_round(0, &[]);
        assert_eq!(p.growth, 1.0, "empty round resets");
    }

    #[test]
    fn sync_cost_delta_includes_launch_overhead_only_without_a_base_copy() {
        let p = pf(1);
        assert_eq!(p.sync_cost_delta(0, 0), 0);
        let solo = p.sync_cost_delta(0, 64 << 10);
        let marginal = p.sync_cost_delta(64 << 10, 64 << 10);
        assert!(solo > marginal, "launch overhead counted once");
    }
}
