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
//!
//! [`transfer`] is the crate's second resident: the hybrid engine's
//! per-region stage-or-stay policy and its [`MemoryTier`] vocabulary.
//! It is not UVM paging, but it is the same kind of thing — a pure
//! policy the runtime consults about where edge-list bytes should live —
//! and it must sit below `emogi_runtime`, which owns the mechanism
//! (`TransferManager`); the frozen benchmark imports it from this path.

#![forbid(unsafe_code)]

pub mod driver;
pub mod policy;
pub mod transfer;

pub use driver::{BatchResult, PageId, PageState, UvmDriver, UvmStats};
pub use policy::UvmConfig;
pub use transfer::{MemoryTier, TransferPolicy, TransferPolicyConfig};
