//! Per-tier byte budgets for the N-tier transfer manager.
//!
//! The two-tier [`TransferManager`](crate::transfer::TransferManager)
//! carried its device-pool accounting in two bare fields (`pool_left`,
//! `spec_charged`) whose interaction with permanent reservations had
//! grown special cases. [`TierBudget`] packages that ledger — free bytes
//! plus bytes charged to live speculative stages — behind an invariant,
//! and [`TierBudgets`] holds one ledger per
//! [`MemoryTier`](emogi_uvm::MemoryTier):
//!
//! * the **HBM** ledger is the staging pool: demand stagings charge it,
//!   speculative stagings move bytes from `free` to `spec`, and batch
//!   reservations draw on the combined total;
//! * the **host** and **CXL** ledgers are placement ledgers recording how
//!   many bytes of the watched array are homed in each tier — the
//!   denominators of the bytes-per-tier columns in the `tiering`
//!   experiment.
//!
//! ```
//! use emogi_runtime::tier::TierBudget;
//!
//! let mut pool = TierBudget::new(256 << 10);
//! assert!(pool.try_charge(128 << 10), "demand staging fits");
//! pool.move_free_to_spec(64 << 10); // speculative stage in flight
//! assert_eq!(pool.free(), 64 << 10);
//! // A permanent reservation larger than the free pool consumes the
//! // speculative headroom instead of going negative:
//! pool.reserve(96 << 10);
//! assert_eq!((pool.free(), pool.spec()), (0, 32 << 10));
//! assert_eq!(pool.combined(), 32 << 10);
//! ```

/// One tier's byte ledger: bytes still free plus bytes charged to live
/// speculative stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierBudget {
    free: u64,
    spec: u64,
}

impl TierBudget {
    /// A ledger holding `free` uncommitted bytes.
    pub fn new(free: u64) -> Self {
        Self { free, spec: 0 }
    }

    /// Bytes not charged to anything.
    pub fn free(&self) -> u64 {
        self.free
    }

    /// Bytes charged to live speculative stages.
    pub fn spec(&self) -> u64 {
        self.spec
    }

    /// The budget a speculation-free manager would hold: `free + spec`.
    /// Speculative charges are refundable (credited back at adoption or
    /// eviction), so this is the real headroom.
    pub fn combined(&self) -> u64 {
        self.free + self.spec
    }

    /// Charge `bytes` against the free pool; `false` (and no change) when
    /// it does not fit.
    #[must_use]
    pub fn try_charge(&mut self, bytes: u64) -> bool {
        if self.free >= bytes {
            self.free -= bytes;
            true
        } else {
            false
        }
    }

    /// Credit `bytes` back to the free pool (a demoted region's slot).
    pub fn credit(&mut self, bytes: u64) {
        self.free += bytes;
    }

    /// Move `bytes` of free pool onto the speculative charge (a
    /// speculative stage was issued).
    pub fn move_free_to_spec(&mut self, bytes: u64) {
        debug_assert!(self.free >= bytes, "speculating past the free pool");
        self.free -= bytes;
        self.spec += bytes;
    }

    /// Return `bytes` of speculative charge to the free pool (a
    /// speculative stage was evicted before use).
    pub fn move_spec_to_free(&mut self, bytes: u64) {
        debug_assert!(self.spec >= bytes, "crediting more spec than charged");
        self.spec -= bytes;
        self.free += bytes;
    }

    /// Credit every speculative charge back to the free pool and return
    /// the previous charge. Run before a decision round so demand
    /// decisions see exactly the pool a speculation-free manager would;
    /// survivors are re-charged afterwards with
    /// [`move_free_to_spec`](Self::move_free_to_spec).
    pub fn settle(&mut self) -> u64 {
        let was = self.spec;
        self.free += was;
        self.spec = 0;
        was
    }

    /// Permanently reserve `bytes` out of this ledger.
    ///
    /// Invariant: `free + spec` is the budget not yet consumed by demand
    /// allocations or permanent reservations — speculative charges are
    /// refundable, so a reservation must deduct from the *combined*
    /// total, taking free bytes first and speculative headroom second.
    /// Deducting from `free` alone (saturating at zero) would leave an
    /// evicted speculation's stale charge alive and resurrect pool bytes
    /// at the next settle — the double-count this method exists to
    /// prevent. Shortfalls pushed onto the speculative side surface as
    /// deterministic evictions at the next recharge pass.
    pub fn reserve(&mut self, bytes: u64) {
        let combined = (self.free + self.spec).saturating_sub(bytes);
        self.spec = self.spec.min(combined);
        self.free = combined - self.spec;
    }
}

/// One [`TierBudget`] per memory tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierBudgets {
    /// The HBM staging pool (demand + speculative stagings, reservations).
    pub hbm: TierBudget,
    /// Host placement ledger: bytes of the watched array homed in pinned
    /// host DRAM.
    pub host: TierBudget,
    /// CXL placement ledger: bytes of the watched array homed in the
    /// external tier.
    pub cxl: TierBudget,
}

impl TierBudgets {
    /// The ledger for `tier`.
    pub fn get(&self, tier: emogi_uvm::MemoryTier) -> &TierBudget {
        match tier {
            emogi_uvm::MemoryTier::Hbm => &self.hbm,
            emogi_uvm::MemoryTier::Host => &self.host,
            emogi_uvm::MemoryTier::Cxl => &self.cxl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emogi_uvm::MemoryTier;

    #[test]
    fn exhaustion_refuses_the_charge_without_mutating() {
        let mut b = TierBudget::new(100);
        assert!(b.try_charge(100));
        assert!(!b.try_charge(1), "exhausted budget must refuse");
        assert_eq!((b.free(), b.spec()), (0, 0));
        b.credit(64);
        assert!(b.try_charge(64));
    }

    #[test]
    fn speculative_round_trip_is_lossless() {
        let mut b = TierBudget::new(256);
        b.move_free_to_spec(100);
        assert_eq!((b.free(), b.spec(), b.combined()), (156, 100, 256));
        b.move_spec_to_free(40);
        assert_eq!((b.free(), b.spec()), (196, 60));
        assert_eq!(b.settle(), 60);
        assert_eq!((b.free(), b.spec()), (256, 0));
    }

    /// The regression `reserve` exists for: a reservation overlapping the
    /// speculative charge consumes it instead of leaving it to resurrect
    /// budget at the next settle.
    #[test]
    fn reserve_draws_free_first_then_speculative_headroom() {
        let mut b = TierBudget::new(256);
        b.move_free_to_spec(100);
        b.reserve(200); // 156 free + 44 of the speculative charge
        assert_eq!((b.free(), b.spec()), (0, 56));
        b.settle();
        assert_eq!(b.free(), 56, "no bytes resurrected past the reservation");
        // Reserving more than the combined budget saturates at zero.
        b.reserve(1 << 20);
        assert_eq!((b.free(), b.spec(), b.combined()), (0, 0, 0));
    }

    #[test]
    fn budgets_index_by_tier() {
        let b = TierBudgets {
            hbm: TierBudget::new(1),
            host: TierBudget::new(2),
            cxl: TierBudget::new(3),
        };
        assert_eq!(b.get(MemoryTier::Hbm).free(), 1);
        assert_eq!(b.get(MemoryTier::Host).free(), 2);
        assert_eq!(b.get(MemoryTier::Cxl).free(), 3);
    }
}
