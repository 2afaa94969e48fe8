//! N-tier memory placement: where a region lives and where it should go.
//!
//! EMOGI's original model is a two-level split — edge list in pinned host
//! DRAM, everything hot in HBM — and the hybrid engine's ski-rental rule
//! ([`TransferPolicy`](crate::transfer::TransferPolicy)) picks between
//! *staying* in host memory (zero-copy reads) and *buying* a bulk copy
//! into HBM. The CXL external-memory follow-up paper adds a third level
//! below host DRAM: a microsecond-latency CXL tier holding the cold tail
//! of graphs larger than host memory. [`MemoryTier`] names the levels and
//! [`TierDecision`] is the per-region staging decision over them.
//!
//! The decision logic stays a ski-rental argument, applied per tier:
//!
//! * a region homed in **HBM** is already resident — nothing to decide;
//! * a region homed in **host DRAM** keeps the original rule: stage to
//!   HBM once recurring zero-copy traffic would exceed one bulk copy
//!   (`stage_threshold`), else keep zero-copying;
//! * a region homed in **CXL** pays more per zero-copy byte (µs-class
//!   round trips, lower bandwidth), so its rent/buy point
//!   (`cxl_stage_threshold`) sits *lower*: promote to HBM sooner, and
//!   serve only genuinely cold traffic in place.
//!
//! One function makes the call:
//! [`decide_tiered`](crate::transfer::TransferPolicy::decide_tiered).
//! With no CXL tier configured every region is host-homed and only the
//! original two-tier rule ever runs, so an idle CXL tier leaves the
//! engine tick-identical to one without it (witness:
//! `tests/tiering_differential.rs`).
//!
//! ```
//! use emogi_uvm::tier::{MemoryTier, TierDecision};
//! use emogi_uvm::transfer::{TransferPolicy, TransferPolicyConfig};
//!
//! let mut p = TransferPolicy::new(2, TransferPolicyConfig::default());
//!
//! // A host-homed region behaves exactly like the two-tier rule:
//! // sparse one-shot traffic stays zero-copy ...
//! assert_eq!(
//!     p.decide_tiered(0, 0.2, MemoryTier::Host),
//!     TierDecision::ZeroCopyHost,
//! );
//! // ... while the same history on a CXL-homed region, judged against the
//! // lower rent/buy point, still serves in place until it recurs.
//! assert_eq!(
//!     p.decide_tiered(1, 0.2, MemoryTier::Cxl),
//!     TierDecision::ServeCxl,
//! );
//! p.note_zero_copy(1, 0.6);
//! // 0.6 + 0.2 ≥ cxl_stage_threshold (0.75): the CXL region has proven it
//! // recurs and is promoted, where the host-homed twin would still rent.
//! assert_eq!(
//!     p.decide_tiered(1, 0.2, MemoryTier::Cxl),
//!     TierDecision::StageToHbm,
//! );
//! assert_eq!(
//!     p.decide_tiered(0, 0.2, MemoryTier::Host),
//!     TierDecision::ZeroCopyHost,
//! );
//! ```

/// One level of the simulated memory hierarchy, ordered hot to cold.
///
/// The tier a region is *homed* in determines both its demand-access cost
/// model (HBM sector reads / PCIe zero-copy / CXL.mem round trips) and
/// which budget ledger a promotion draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemoryTier {
    /// GPU device memory: staged (promoted) regions live here.
    Hbm,
    /// Pinned host DRAM reached zero-copy over PCIe — EMOGI's home tier.
    Host,
    /// CXL-class external memory: the cold spill tier for graphs larger
    /// than host DRAM (microsecond latency, decent bandwidth).
    Cxl,
}

impl MemoryTier {
    /// All tiers, hot to cold.
    pub const ALL: [MemoryTier; 3] = [MemoryTier::Hbm, MemoryTier::Host, MemoryTier::Cxl];

    /// Short lowercase name used in reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            MemoryTier::Hbm => "hbm",
            MemoryTier::Host => "host",
            MemoryTier::Cxl => "cxl",
        }
    }
}

/// What the runtime should do with one region for the next iteration,
/// given the tier it is homed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierDecision {
    /// Bulk-copy (promote) the region into HBM before the kernel.
    StageToHbm,
    /// Keep reading the region zero-copy from pinned host DRAM.
    ZeroCopyHost,
    /// Serve the region's reads in place from the CXL tier — it is too
    /// cold to be worth a promotion.
    ServeCxl,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::{TransferPolicy, TransferPolicyConfig};

    fn policy(n: usize) -> TransferPolicy {
        TransferPolicy::new(n, TransferPolicyConfig::default())
    }

    #[test]
    fn tier_names_and_order() {
        assert_eq!(
            MemoryTier::ALL.map(MemoryTier::name),
            ["hbm", "host", "cxl"]
        );
        assert!(MemoryTier::Hbm < MemoryTier::Host && MemoryTier::Host < MemoryTier::Cxl);
    }

    #[test]
    fn hbm_homed_regions_are_already_resident() {
        let p = policy(1);
        assert_eq!(
            p.decide_tiered(0, 0.0, MemoryTier::Hbm),
            TierDecision::StageToHbm
        );
        assert_eq!(
            p.decide_tiered(0, 0.7, MemoryTier::Hbm),
            TierDecision::StageToHbm
        );
    }

    /// Host and CXL homes run one rule against two thresholds: with the
    /// thresholds set equal they agree on every history and density, up
    /// to the name of the stay-in-place outcome.
    #[test]
    fn host_and_cxl_homes_share_one_rent_buy_rule() {
        let cfg = TransferPolicyConfig {
            cxl_stage_threshold: TransferPolicyConfig::default().stage_threshold,
            ..Default::default()
        };
        let mut p = TransferPolicy::new(1, cfg);
        for step in 0..40 {
            let upcoming = f64::from(step % 11) / 10.0;
            let host = p.decide_tiered(0, upcoming, MemoryTier::Host);
            let cxl = p.decide_tiered(0, upcoming, MemoryTier::Cxl);
            match host {
                TierDecision::StageToHbm => assert_eq!(cxl, TierDecision::StageToHbm),
                _ => {
                    assert_eq!(host, TierDecision::ZeroCopyHost);
                    assert_eq!(cxl, TierDecision::ServeCxl);
                    p.note_zero_copy(0, upcoming);
                }
            }
        }
    }

    #[test]
    fn untouched_cxl_region_is_served_in_place() {
        let p = policy(1);
        assert_eq!(
            p.decide_tiered(0, 0.0, MemoryTier::Cxl),
            TierDecision::ServeCxl
        );
    }

    #[test]
    fn cxl_promotes_at_the_lower_rent_buy_point() {
        let mut p = policy(2);
        p.note_zero_copy(0, 0.5);
        p.note_zero_copy(1, 0.5);
        // 0.5 + 0.3 = 0.8 ≥ 0.75: the CXL tier buys; host still rents.
        assert_eq!(
            p.decide_tiered(0, 0.3, MemoryTier::Cxl),
            TierDecision::StageToHbm
        );
        assert_eq!(
            p.decide_tiered(1, 0.3, MemoryTier::Host),
            TierDecision::ZeroCopyHost
        );
    }

    #[test]
    fn fully_dense_iteration_promotes_from_cxl_immediately() {
        let p = policy(1);
        assert_eq!(
            p.decide_tiered(0, 1.0, MemoryTier::Cxl),
            TierDecision::StageToHbm
        );
    }

    #[test]
    fn reset_forgets_history_after_demotion() {
        let mut p = policy(1);
        p.note_zero_copy(0, 1.4);
        assert_eq!(
            p.decide_tiered(0, 0.2, MemoryTier::Host),
            TierDecision::StageToHbm
        );
        p.reset(0);
        assert_eq!(p.cumulative_density(0), 0.0);
        assert_eq!(
            p.decide_tiered(0, 0.2, MemoryTier::Host),
            TierDecision::ZeroCopyHost
        );
    }
}
