//! # emogi-core — EMOGI: zero-copy graph traversal
//!
//! The paper's contribution, §4: traverse graphs whose edge list lives in
//! *pinned host memory*, accessed zero-copy at cache-line granularity,
//! with two kernel-level optimizations:
//!
//! * **Merged** (§4.3.1) — a full 32-thread warp works on one vertex's
//!   neighbour list, so the coalescing unit emits maximum-size 128-byte
//!   PCIe requests;
//! * **Aligned** (§4.3.2) — each warp shifts its first access down to the
//!   preceding 128-byte boundary, masking the underflowing lanes, so a
//!   misaligned list start costs one partial request instead of
//!   cascading misalignment through the whole list.
//!
//! The unoptimized **Naive** strategy (thread-per-vertex, Listing 1) is
//! retained as the paper's own strawman.
//!
//! # Architecture: programs over an engine
//!
//! The crate is layered exactly the way the paper's contribution is
//! algorithm-agnostic:
//!
//! * [`program`] — the [`VertexProgram`] trait: an algorithm declares its
//!   access pattern (frontier-driven vs full-sweep), whether it streams
//!   auxiliary edge data, and its per-iteration logic; its per-edge
//!   logic lives on a per-launch edge view ([`EdgeFn`]);
//! * [`kernel`] — one generic kernel ([`kernel::ProgramKernel`]) that
//!   runs any program under any [`AccessStrategy`], for one query or
//!   for the member queries of a batch sharing each fetch;
//! * `driver` (private) — the one iteration loop over N ≥ 1 machines ×
//!   Q ≥ 1 same-type programs: merge → shard → scan + plan → capture →
//!   launch → post → exchange → stats. [`Engine`],
//!   [`Engine::run_batch`] and [`ShardedEngine`] are its fronts;
//! * [`engine`] — the place-once, query-many [`Engine`]: it owns the
//!   machine and the graph's placement on it (layout and, in hybrid
//!   mode, transfer manager), and runs any number of programs against
//!   that one placement;
//! * [`batch`] — batched multi-query execution: frontier merging and
//!   the [`BatchRun`] result of [`Engine::run_batch`];
//! * [`bfs`] / [`sssp`] / [`cc`] / [`pagerank`] — the four shipped
//!   programs. The first three are the paper's applications; PageRank is
//!   the generality proof: a fourth program with zero driver, kernel or
//!   transfer-planner changes;
//! * [`sharded`] — the multi-GPU [`ShardedEngine`]: the same programs
//!   over a device group, each iteration's frontier dealt across devices
//!   in equal-work spans, each device reading only its deal's edge-list
//!   ranges over its own link — outputs and iteration counts
//!   bit-identical to the single-device engine;
//! * [`spec`] — the closed vocabulary over those four programs
//!   ([`ProgramSpec`] / [`ProgramKind`] / [`ProgramRun`]) and the one
//!   dispatcher that runs a description — solo ([`spec::run`]) or as a
//!   kind-pure group ([`spec::run_group`]) — on any [`Front`]: the
//!   server, the experiment harness and the test suites all go through
//!   it instead of re-deciding "which of the four".
//!
//! [`compressed`] adds the paper's §6 extension: traversal over
//! delta-varint-compressed neighbour lists, trading idle-lane compute for
//! interconnect bytes. [`toy`] reproduces the §3.3 microbenchmark behind
//! Figures 3 and 4.
//!
//! # Example
//!
//! ```
//! use emogi_core::{BfsProgram, Engine, EngineConfig};
//! use emogi_graph::{algo, generators};
//!
//! let graph = generators::uniform_random(2_000, 8, 7);
//! // Place the graph once ...
//! let mut engine = Engine::load(EngineConfig::emogi_v100(), &graph);
//! // ... then run any vertex program against the placement, repeatedly.
//! let run = engine.run(BfsProgram::new(&graph, 0));
//! assert_eq!(run.levels, algo::bfs_levels(&graph, 0));
//! assert!(run.stats.avg_pcie_gbps() > 0.0);
//! let pr = engine.pagerank(0.85, 10);
//! assert!((pr.ranks.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bfs;
pub mod cc;
pub mod compressed;
mod driver;
pub mod engine;
pub mod kernel;
pub mod layout;
pub mod pagerank;
pub mod program;
pub mod sharded;
pub mod spec;
pub mod sssp;
pub mod strategy;
pub mod toy;
pub mod walk;

pub use batch::{BatchRun, MAX_BATCH_QUERIES};
pub use bfs::{BfsOutput, BfsProgram};
pub use cc::{CcOutput, CcProgram};
pub use engine::{BfsRun, CcRun, Engine, EngineConfig, PageRankRun, Run, SsspRun};
pub use kernel::{ProgramKernel, Work, WorkSlice};
pub use layout::{GraphLayout, StatusPlace, Transport};
pub use pagerank::{PageRankOutput, PageRankProgram};
pub use program::{AccessPattern, DeviceWork, EdgeEffect, EdgeFn, VertexProgram};
pub use sharded::{ShardedConfig, ShardedEngine, ShardedRun};
pub use spec::{Front, GroupRun, ProgramKind, ProgramRun, ProgramSpec, SpecError};
pub use sssp::{SsspOutput, SsspProgram};
pub use strategy::AccessStrategy;
