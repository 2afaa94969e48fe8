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
//!
//! **Home tiers.** The CXL external-memory follow-up adds a level below
//! host DRAM: a microsecond-latency tier holding the cold tail of graphs
//! larger than host memory. The rule stays one ski-rental argument with
//! one threshold per [`MemoryTier`] a region is *homed* in: a CXL-homed
//! region pays more per rented byte (µs-class round trips, lower
//! bandwidth), so its rent/buy point (`cxl_stage_threshold`) sits
//! *lower* — promote sooner, serve only genuinely cold traffic in place.
//! With no CXL tier configured every region is host-homed and only the
//! original two-tier rule ever runs, so an idle CXL tier leaves the
//! engine tick-identical to one without it (witness:
//! `tests/tiering_differential.rs`). Both arms are one expression
//! evaluated against two thresholds:
//!
//! ```text
//! stage  ⇔  upcoming > 0  AND ( upcoming ≥ dense_now (1.0)
//!                               OR cumulative + upcoming ≥ threshold(home) )
//!
//! home   threshold                     stage                  stay
//! Host   stage_threshold (1.5)         bulk DMA over PCIe     zero-copy reads
//! Cxl    cxl_stage_threshold (0.75)    CxlLink::read_bulk,    demand reads pay µs
//!                                      flit-accounted         round trips in place
//! ```
//!
//! ```
//! use emogi_uvm::{MemoryTier, TransferPolicy, TransferPolicyConfig};
//!
//! let mut p = TransferPolicy::new(2, TransferPolicyConfig::default());
//!
//! // Sparse one-shot traffic stays where it is, on either home tier ...
//! assert!(!p.decide_tiered(0, 0.2, MemoryTier::Host));
//! assert!(!p.decide_tiered(1, 0.2, MemoryTier::Cxl));
//! p.note_zero_copy(0, 0.6);
//! p.note_zero_copy(1, 0.6);
//! // ... 0.6 + 0.2 ≥ cxl_stage_threshold (0.75): the CXL region has
//! // proven it recurs and is promoted, where its host-homed twin with
//! // the same history still rents (stage_threshold is 1.5).
//! assert!(p.decide_tiered(1, 0.2, MemoryTier::Cxl));
//! assert!(!p.decide_tiered(0, 0.2, MemoryTier::Host));
//! ```

/// The tier a region of the edge list is *homed* in — where its bytes
/// live when it is not staged into HBM. The home determines the region's
/// demand-access cost model (PCIe zero-copy / CXL.mem round trips) and
/// its rent/buy threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTier {
    /// Pinned host DRAM reached zero-copy over PCIe — EMOGI's home tier.
    Host,
    /// CXL-class external memory: the cold spill tier for graphs larger
    /// than host DRAM (microsecond latency, decent bandwidth).
    Cxl,
}

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

    /// Zero-copy density region `r` has accumulated so far.
    pub fn cumulative_density(&self, r: usize) -> f64 {
        self.cumulative[r]
    }

    /// Record that region `r` moved `density` region-sizes zero-copy this
    /// iteration (because it was not staged, by decision or by budget).
    pub fn note_zero_copy(&mut self, r: usize, density: f64) {
        self.cumulative[r] += density;
    }

    /// Should region `r`, homed in `home`, be staged into HBM for an
    /// iteration about to read `upcoming` of it (density in `[0, 1]`)?
    /// An untouched region never buys; a (near-)fully dense one buys
    /// outright; otherwise recurring traffic must have reached the home
    /// tier's threshold. `false` means the region stays in place —
    /// zero-copy from host DRAM, or served from the CXL tier. Pure:
    /// commit a stay-in-place outcome with
    /// [`note_zero_copy`](Self::note_zero_copy) if the region stays (or is
    /// forced to stay) where it is.
    ///
    /// [`MemoryTier::Host`] homes apply the ski-rental rule against
    /// [`stage_threshold`](TransferPolicyConfig::stage_threshold) — the
    /// original two-tier rule, which is what makes a CXL-disabled engine
    /// tick-identical to the two-tier one. [`MemoryTier::Cxl`] homes apply
    /// the same rule against the lower
    /// [`cxl_stage_threshold`](TransferPolicyConfig::cxl_stage_threshold).
    pub fn decide_tiered(&self, r: usize, upcoming: f64, home: MemoryTier) -> bool {
        let threshold = match home {
            MemoryTier::Host => self.cfg.stage_threshold,
            MemoryTier::Cxl => self.cfg.cxl_stage_threshold,
        };
        debug_assert!((0.0..=1.0).contains(&upcoming), "density {upcoming}");
        upcoming > 0.0
            && (upcoming >= self.cfg.dense_now || self.cumulative[r] + upcoming >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(n: usize) -> TransferPolicy {
        TransferPolicy::new(n, TransferPolicyConfig::default())
    }

    /// The two-tier rule: does a host-homed region stage?
    fn host(p: &TransferPolicy, r: usize, upcoming: f64) -> bool {
        p.decide_tiered(r, upcoming, MemoryTier::Host)
    }

    fn cxl(p: &TransferPolicy, r: usize, upcoming: f64) -> bool {
        p.decide_tiered(r, upcoming, MemoryTier::Cxl)
    }

    #[test]
    fn untouched_region_is_never_staged() {
        let p = policy(4);
        assert!(!host(&p, 0, 0.0));
    }

    #[test]
    fn fully_dense_iteration_stages_immediately() {
        // A region about to be read end-to-end: bulk copy is no worse
        // than zero-copying the same bytes, so stage even with no history.
        let p = policy(4);
        assert!(host(&p, 2, 1.0));
        assert!(!host(&p, 2, 0.99));
    }

    #[test]
    fn sparse_one_shot_traversal_never_stages() {
        // A whole single traversal reads each region at most once in
        // total (cumulative <= 1.0 < 1.5), spread over iterations: no
        // staging decision may fire.
        let mut p = policy(1);
        for _ in 0..10 {
            assert!(!host(&p, 0, 0.1));
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
        assert!(!host(&p, 0, 0.4));
        p.note_zero_copy(0, 0.4);
        assert!(host(&p, 0, 0.1));
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
        assert!(host(&eager, 0, 0.5));
        assert!(!host(&eager, 1, 0.4));
        let mut eager = eager;
        eager.note_zero_copy(1, 0.4);
        assert!(host(&eager, 1, 0.4));
    }

    #[test]
    fn regions_are_independent() {
        let mut p = policy(3);
        p.note_zero_copy(1, 1.4);
        assert!(!host(&p, 0, 0.2));
        assert!(host(&p, 1, 0.2));
        assert!(!host(&p, 2, 0.2));
    }

    /// Host and CXL homes run one rule against two thresholds: with the
    /// thresholds set equal they agree on every history and density.
    #[test]
    fn host_and_cxl_homes_share_one_rent_buy_rule() {
        let cfg = TransferPolicyConfig {
            cxl_stage_threshold: TransferPolicyConfig::default().stage_threshold,
            ..Default::default()
        };
        let mut p = TransferPolicy::new(1, cfg);
        let mut staged = 0;
        for step in 0..40 {
            let upcoming = f64::from(step % 11) / 10.0;
            let stage = host(&p, 0, upcoming);
            assert_eq!(cxl(&p, 0, upcoming), stage, "step {step}");
            if stage {
                staged += 1;
            } else {
                p.note_zero_copy(0, upcoming);
            }
        }
        assert!(staged > 0 && staged < 40, "both outcomes were compared");
    }

    #[test]
    fn untouched_cxl_region_is_served_in_place() {
        assert!(!cxl(&policy(1), 0, 0.0));
    }

    #[test]
    fn fully_dense_iteration_promotes_from_cxl_immediately() {
        assert!(cxl(&policy(1), 0, 1.0));
    }

    #[test]
    fn cxl_promotes_at_the_lower_rent_buy_point() {
        let mut p = policy(2);
        p.note_zero_copy(0, 0.5);
        p.note_zero_copy(1, 0.5);
        // 0.5 + 0.3 = 0.8 ≥ 0.75: the CXL tier buys; host still rents.
        assert!(cxl(&p, 0, 0.3));
        assert!(!host(&p, 1, 0.3));
    }
}
