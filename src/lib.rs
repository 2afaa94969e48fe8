//! # emogi-repro — facade crate
//!
//! Re-exports the full EMOGI reproduction stack so examples and downstream
//! users can depend on a single crate. See the individual crates for the
//! substance:
//!
//! * [`sim`] — PCIe link, CXL external-memory link, DRAM, traffic
//!   monitor (the FPGA stand-in)
//! * [`gpu`] — SIMT warps, coalescing unit, sectored cache
//! * [`uvm`] — Unified Virtual Memory driver model
//! * [`runtime`] — kernel executor wiring the above together
//! * [`graph`] — CSR graphs and the Table 2 dataset generators
//! * [`core`] — EMOGI itself: the place-once, query-many [`core::Engine`]
//!   and the [`core::VertexProgram`] algorithms (BFS / SSSP / CC /
//!   PageRank), the [`core::spec`] vocabulary and dispatcher over those
//!   four, batched multi-query execution, and the sharded multi-GPU
//!   [`core::ShardedEngine`]
//! * [`serve`] — the SLA-aware concurrent-query front end:
//!   [`serve::QueryServer`] with cost-model admission control, deadline
//!   classes scheduled earliest-deadline-first within priority,
//!   cancellation, and a compatibility scheduler that batches queries
//!   so overlapping frontiers share PCIe cache lines, plus the
//!   device-group path ([`serve::ShardedServer`])
//! * [`baselines`] — UVM, HALO-style and Subway-style comparison systems
//!
//! Most users want the [`prelude`]:
//!
//! ```
//! use emogi_repro::prelude::*;
//!
//! let graph = generators::uniform_random(1_000, 8, 7);
//! let mut engine = Engine::load(EngineConfig::emogi_v100(), &graph);
//! let run = engine.bfs(0);
//! assert_eq!(run.levels, algo::bfs_levels(&graph, 0));
//! ```

#![forbid(unsafe_code)]

pub use emogi_baselines as baselines;
pub use emogi_core as core;
pub use emogi_gpu as gpu;
pub use emogi_graph as graph;
pub use emogi_runtime as runtime;
pub use emogi_serve as serve;
pub use emogi_sim as sim;
pub use emogi_uvm as uvm;

/// Everything a typical engine user needs in one import: the engines
/// (single-device and sharded multi-GPU) and their configs, the four
/// shipped vertex programs (plus the trait to write your own), the
/// [`spec`](emogi_core::spec) vocabulary and dispatcher that run one
/// from a description (serving's `QuerySpec` / `QueryKind` /
/// `QueryResult` are re-exports of `ProgramSpec` / `ProgramKind` /
/// `ProgramRun`), access
/// strategies and transports, vertex partitioners, graph types and
/// generators, the CPU reference algorithms, machine presets and the
/// comparison baselines.
pub mod prelude {
    pub use emogi_baselines::{HaloSystem, SubwayMode, SubwaySystem};
    pub use emogi_core::spec;
    pub use emogi_core::sssp::INF;
    pub use emogi_core::{
        AccessPattern, AccessStrategy, BatchRun, BfsOutput, BfsProgram, BfsRun, CcOutput,
        CcProgram, CcRun, DeviceWork, EdgeEffect, Engine, EngineConfig, Front, GroupRun,
        PageRankOutput, PageRankProgram, PageRankRun, ProgramKind, ProgramRun, ProgramSpec, Run,
        ShardedConfig, ShardedEngine, ShardedRun, SsspOutput, SsspProgram, SsspRun, Transport,
        VertexProgram,
    };
    pub use emogi_graph::{
        algo, datasets, generators, CsrGraph, Dataset, DatasetKey, EdgeListBuilder, LayoutPlan,
        PartitionStrategy, VertexId, VertexPartition, UNVISITED,
    };
    pub use emogi_runtime::{
        DeviceGroup, DeviceGroupConfig, Machine, MachineConfig, PrefetchConfig, PrefetchStats,
        Prefetcher, RunStats, TransferConfig, TransferStats,
    };
    pub use emogi_serve::{
        Priority, QoS, Query, QueryId, QueryKind, QueryOutcome, QueryResult, QueryServer,
        QuerySpec, SchedPolicy, ServeBackend, Server, ServerConfig, ServerStats, ShardedServer,
        SubmitError,
    };
    pub use emogi_sim::interconnect::PeerLinkConfig;
    pub use emogi_sim::CxlConfig;
    pub use emogi_uvm::MemoryTier;
}

/// README.md's Rust blocks, compiled (and the quickstart run) as
/// doctests so a rename cannot strand a snippet.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
