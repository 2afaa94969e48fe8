//! # emogi-runtime — kernel execution runtime
//!
//! Wires the SIMT model (`emogi-gpu`), the interconnect substrate
//! (`emogi-sim`) and the UVM driver (`emogi-uvm`) into an executable
//! machine. Graph kernels implement the [`Kernel`] trait: the executor
//! schedules up to `resident_warps` concurrent warp tasks, coalesces each
//! step's lane accesses, prices them against the cache / HBM / PCIe / UVM
//! models in a discrete-event loop, and resumes warps as their data
//! arrives. Kernels do their *real* computation inside `step`, so every
//! simulated run also produces checkable algorithm output.
//!
//! Layout:
//! * [`alloc`] — simulated address spaces (device / pinned-host / managed);
//! * [`machine`] — the machine bundle: GPU + link + DRAMs + cache + UVM;
//! * [`group`] — the multi-GPU device group: one machine per simulated
//!   GPU plus the inter-device exchange interconnect;
//! * [`exec`] — the discrete-event executor and the [`Kernel`] trait;
//! * [`transfer`] — the hybrid N-tier transfer manager (zero-copy / DMA
//!   staging / CXL promotion);
//! * [`prefetch`] — the speculative prefetcher feeding the pipelined
//!   (overlapped DMA/kernel) staging path;
//! * [`report`] — per-kernel and per-run statistics;
//! * [`util`] — the hot path's point-lookup map ([`util::PointMap`]): a
//!   fast integer hash with no iterator, so no hash order escapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod exec;
pub mod group;
pub mod machine;
pub mod prefetch;
pub mod report;
pub mod transfer;
pub mod util;

pub use alloc::{AddressSpaces, CXL_BASE, DEVICE_BASE, HOST_BASE, MANAGED_BASE};
pub use exec::{Kernel, StepOutcome};
pub use group::DeviceGroup;
pub use machine::{Machine, MachineConfig};
pub use prefetch::{PrefetchConfig, PrefetchStats, Prefetcher};
pub use report::{KernelReport, RunStats};
pub use transfer::{TransferConfig, TransferManager, TransferStats};
