//! # emogi-sim — interconnect and memory substrate
//!
//! This crate models the part of the EMOGI (VLDB 2020) evaluation platform
//! that sits *outside* the GPU: the PCIe link between the GPU and the host,
//! the host DRAM behind it, and the FPGA-based PCIe traffic monitor the
//! paper uses to characterize zero-copy access patterns (§3.2).
//!
//! Everything is simulated at *transaction* granularity with a
//! discrete-event model: a read request holds a PCIe tag from issue to
//! completion, crosses the link (paying per-TLP header overhead), is
//! serviced by a DRAM model with 64-byte access granularity, and its
//! completion serializes on the host→GPU half of the link. These are
//! exactly the mechanisms the paper identifies as the performance limiters
//! of zero-copy access (§3.3): bounded outstanding tags, per-request header
//! overhead, and DRAM minimum access size.
//!
//! The crate is deliberately GPU-agnostic; the SIMT side lives in
//! `emogi-gpu` and the two are wired together by `emogi-runtime`.

#![forbid(unsafe_code)]

pub mod cxl;
pub mod dma;
pub mod dram;
pub mod events;
pub mod interconnect;
pub mod ledger;
pub mod monitor;
pub mod pcie;
pub mod pipeline;
pub mod time;

pub use cxl::{CxlConfig, CxlLink};
pub use dma::DmaEngine;
pub use dram::{Dram, DramConfig};
pub use events::EventQueue;
pub use interconnect::{Interconnect, InterconnectConfig, LinkStats, PeerLinkConfig};
pub use monitor::{BandwidthSeries, SizeHistogram, TrafficMonitor};
pub use pcie::{PcieConfig, PcieGen, PcieLink, ReadOutcome, ReqId};
pub use pipeline::{CopyEngine, CopyEngineConfig, CopyLaneStats, CopyTicket};
pub use time::{bytes_over_bandwidth_ns, Time};
