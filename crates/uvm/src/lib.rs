//! # emogi-uvm — Unified Virtual Memory driver model
//!
//! The baseline EMOGI compares against (§2.2) keeps the edge list in
//! UVM-managed memory: GPU accesses to non-resident 4 KiB pages raise
//! faults, and a **single-threaded** driver migrates pages over PCIe in
//! batches. The paper attributes UVM's losses to three mechanisms, all of
//! which this model reproduces:
//!
//! * **I/O read amplification** — a whole 4 KiB page moves even when the
//!   kernel needed a 300-byte neighbour list (Figure 10);
//! * **thrashing** — under oversubscription, pages are evicted and
//!   re-migrated across BFS levels (§2.2);
//! * **fault-handler serialization** — the handler "is part of the UVM
//!   driver running on the CPU and can't keep up to make use of the higher
//!   bandwidth of the PCIe 4.0 interface" (§5.5), which is why UVM scales
//!   only ~1.5× from gen3 to gen4 while EMOGI scales ~1.9× (Figure 12).
//!
//! The driver is a state machine: the executor in `emogi-runtime` records
//! faults, starts handler batches, and commits them when the simulated
//! migration completes.

#![forbid(unsafe_code)]

pub mod driver;
pub mod policy;
pub mod tier;
pub mod transfer;

pub use driver::{BatchResult, PageId, PageState, UvmDriver, UvmStats};
pub use policy::UvmConfig;
pub use tier::{MemoryTier, TierDecision};
pub use transfer::{TransferPolicy, TransferPolicyConfig};
