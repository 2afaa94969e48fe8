//! Per-region transport selection for the hybrid zero-copy / DMA engine.
//!
//! EMOGI (§4) shows zero-copy beats page migration for sparse traversal;
//! HyTGraph-style systems show the best transport is *workload-dependent*:
//! a region of the edge list that is dense and repeatedly touched is
//! cheaper to stage into device memory once with a bulk DMA copy, while a
//! sparse, one-shot region should stay zero-copy. [`TransferPolicy`] makes
//! that call per fixed-size edge-list region, from two signals the runtime
//! feeds it each kernel iteration:
//!
//! * **upcoming density** — the fraction of the region the next kernel
//!   will read (known exactly: the frontier determines the neighbour
//!   lists to be walked);
//! * **cumulative density** — how much of the region has already moved
//!   over the link zero-copy, accumulated across iterations (and across
//!   traversals on the same machine).
//!
//! The staging rule is a ski-rental argument. Bulk DMA moves a region's
//! bytes at least as cheaply per byte as 128-byte zero-copy requests (no
//! per-request header overhead), so:
//!
//! * if the upcoming iteration alone will read (almost) the whole region
//!   (`dense_now`), staging is already no worse than zero-copying it and
//!   every later touch is free HBM bandwidth — stage immediately;
//! * otherwise stage once cumulative + upcoming zero-copy traffic reaches
//!   `stage_threshold` region-sizes: at that point the region has proven
//!   it recurs, and capping its future cost at one more region-copy keeps
//!   total traffic within `stage_threshold + 1` copies of optimal.
//!
//! A region that never recurs never reaches the threshold, so a sparse
//! one-shot traversal stays pure zero-copy and pays nothing for the
//! hybrid machinery.

use crate::tier::{MemoryTier, TierDecision};

/// Tunables of the staging rule.
#[derive(Debug, Clone)]
pub struct TransferPolicyConfig {
    /// Stage outright when the upcoming iteration's density reaches this
    /// fraction of the region (1.0 = the whole region is about to be
    /// read, so a bulk copy is free even without reuse).
    pub dense_now: f64,
    /// Stage when cumulative + upcoming zero-copy density reaches this
    /// many region-sizes (the ski-rental rent/buy point).
    pub stage_threshold: f64,
    /// Rent/buy point for regions homed in the CXL external tier
    /// ([`MemoryTier::Cxl`]). Serving a byte
    /// from CXL costs more than serving it from host DRAM (µs-class round
    /// trips, lower bandwidth), so the promotion threshold sits *below*
    /// [`stage_threshold`](Self::stage_threshold): a CXL-homed region buys
    /// its copy into HBM sooner. Irrelevant — and unread — when no CXL
    /// tier is configured.
    pub cxl_stage_threshold: f64,
}

impl Default for TransferPolicyConfig {
    fn default() -> Self {
        Self {
            dense_now: 1.0,
            stage_threshold: 1.5,
            cxl_stage_threshold: 0.75,
        }
    }
}

/// Per-region transport selector. Regions are dense indices `0..n`.
#[derive(Debug, Clone)]
pub struct TransferPolicy {
    cfg: TransferPolicyConfig,
    /// Region-sizes of traffic each region has moved zero-copy so far.
    cumulative: Vec<f64>,
}

impl TransferPolicy {
    pub fn new(num_regions: usize, cfg: TransferPolicyConfig) -> Self {
        Self {
            cfg,
            cumulative: vec![0.0; num_regions],
        }
    }

    pub fn config(&self) -> &TransferPolicyConfig {
        &self.cfg
    }

    pub fn num_regions(&self) -> usize {
        self.cumulative.len()
    }

    /// Zero-copy density region `r` has accumulated so far.
    pub fn cumulative_density(&self, r: usize) -> f64 {
        self.cumulative[r]
    }

    /// Record that region `r` moved `density` region-sizes zero-copy this
    /// iteration (because it was not staged, by decision or by budget).
    pub fn note_zero_copy(&mut self, r: usize, density: f64) {
        self.cumulative[r] += density;
    }

    /// Has region `r` crossed the rent/buy point at `threshold` for an
    /// iteration about to read `upcoming` of it? An untouched region never
    /// buys; a (near-)fully dense one buys outright; otherwise recurring
    /// traffic must have reached `threshold` region-sizes.
    fn buys(&self, r: usize, upcoming: f64, threshold: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&upcoming), "density {upcoming}");
        upcoming > 0.0
            && (upcoming >= self.cfg.dense_now || self.cumulative[r] + upcoming >= threshold)
    }

    /// Decide region `r`'s transport, given the tier it is homed in, for
    /// an iteration about to read `upcoming` of it (density in `[0, 1]`).
    /// Pure: commit a stay-in-place outcome with
    /// [`note_zero_copy`](Self::note_zero_copy) if the region stays (or is
    /// forced to stay) where it is.
    ///
    /// [`MemoryTier::Hbm`] homes are already resident.
    /// [`MemoryTier::Host`] homes apply the ski-rental rule against
    /// [`stage_threshold`](TransferPolicyConfig::stage_threshold) — the
    /// original two-tier rule, which is what makes a CXL-disabled engine
    /// tick-identical to the two-tier one. [`MemoryTier::Cxl`] homes apply
    /// the same rule against the lower
    /// [`cxl_stage_threshold`](TransferPolicyConfig::cxl_stage_threshold).
    pub fn decide_tiered(&self, r: usize, upcoming: f64, home: MemoryTier) -> TierDecision {
        let (threshold, stay) = match home {
            MemoryTier::Hbm => return TierDecision::StageToHbm,
            MemoryTier::Host => (self.cfg.stage_threshold, TierDecision::ZeroCopyHost),
            MemoryTier::Cxl => (self.cfg.cxl_stage_threshold, TierDecision::ServeCxl),
        };
        if self.buys(r, upcoming, threshold) {
            TierDecision::StageToHbm
        } else {
            stay
        }
    }

    /// Forget region `r`'s zero-copy history. Called when a staged region
    /// is demoted out of HBM: its next promotion must be re-earned from a
    /// clean slate, otherwise stale density would re-promote it instantly
    /// and the demotion loop would thrash.
    pub fn reset(&mut self, r: usize) {
        self.cumulative[r] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TierDecision::{StageToHbm, ZeroCopyHost};

    fn policy(n: usize) -> TransferPolicy {
        TransferPolicy::new(n, TransferPolicyConfig::default())
    }

    /// The two-tier rule: a host-homed region's decision.
    fn host(p: &TransferPolicy, r: usize, upcoming: f64) -> TierDecision {
        p.decide_tiered(r, upcoming, MemoryTier::Host)
    }

    #[test]
    fn untouched_region_is_never_staged() {
        let p = policy(4);
        assert_eq!(host(&p, 0, 0.0), ZeroCopyHost);
    }

    #[test]
    fn fully_dense_iteration_stages_immediately() {
        // A region about to be read end-to-end: bulk copy is no worse
        // than zero-copying the same bytes, so stage even with no history.
        let p = policy(4);
        assert_eq!(host(&p, 2, 1.0), StageToHbm);
        assert_eq!(host(&p, 2, 0.99), ZeroCopyHost);
    }

    #[test]
    fn sparse_one_shot_traversal_never_stages() {
        // A whole single traversal reads each region at most once in
        // total (cumulative <= 1.0 < 1.5), spread over iterations: no
        // staging decision may fire.
        let mut p = policy(1);
        for _ in 0..10 {
            assert_eq!(host(&p, 0, 0.1), ZeroCopyHost);
            p.note_zero_copy(0, 0.1);
        }
        assert!((p.cumulative_density(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recurring_region_crosses_the_ski_rental_point() {
        // Second traversal over the same machine: cumulative ~1.0 from
        // the first pass, so a 0.5-dense iteration tips the rule.
        let mut p = policy(1);
        p.note_zero_copy(0, 1.0);
        assert_eq!(host(&p, 0, 0.4), ZeroCopyHost);
        p.note_zero_copy(0, 0.4);
        assert_eq!(host(&p, 0, 0.1), StageToHbm);
    }

    #[test]
    fn thresholds_are_configurable() {
        let eager = TransferPolicy::new(
            2,
            TransferPolicyConfig {
                dense_now: 0.5,
                stage_threshold: 0.75,
                ..Default::default()
            },
        );
        assert_eq!(host(&eager, 0, 0.5), StageToHbm);
        assert_eq!(host(&eager, 1, 0.4), ZeroCopyHost);
        let mut eager = eager;
        eager.note_zero_copy(1, 0.4);
        assert_eq!(host(&eager, 1, 0.4), StageToHbm);
    }

    #[test]
    fn regions_are_independent() {
        let mut p = policy(3);
        p.note_zero_copy(1, 1.4);
        assert_eq!(host(&p, 0, 0.2), ZeroCopyHost);
        assert_eq!(host(&p, 1, 0.2), StageToHbm);
        assert_eq!(host(&p, 2, 0.2), ZeroCopyHost);
    }
}
