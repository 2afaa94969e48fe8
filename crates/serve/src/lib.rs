//! # emogi-serve — SLA-aware concurrent query serving over a shared placement
//!
//! EMOGI ([`emogi_core`]) makes every PCIe cache line count; this crate
//! makes *concurrent* queries share those cache lines — under service
//! level objectives. One generic [`Server`] core fronts either engine
//! (any [`ServeBackend`], the core's [`Front`](emogi_core::Front)). The
//! program vocabulary — [`QuerySpec`], [`QueryKind`], [`QueryResult`] —
//! and the dispatcher that executes a planned batch are
//! [`emogi_core::spec`]'s; this crate adds what serving adds:
//!
//! * **admission control** — [`Server::submit`] bounds *outstanding*
//!   queries (pending + unredeemed results), validates queries up front
//!   ([`SubmitError`]), and runs a cost model
//!   ([`emogi_graph::analysis::CostModel`]) against each query's
//!   deadline budget, rejecting certain misses with
//!   [`SubmitError::OverBudget`];
//! * **QoS scheduling** — every [`Query`] carries a [`QoS`]
//!   (priority class + optional deadline);
//!   [`scheduler::plan_batches`] orders the queue
//!   earliest-deadline-first within priority (deterministically — ties
//!   break by submission id) and groups compatible same-kind queries
//!   into kind-pure batches ([`SlaBatch`]);
//! * **batched execution** — each frontier-driven batch runs as one
//!   [`Engine::run_batch`](emogi_core::Engine::run_batch) call: per
//!   iteration the queries' frontiers merge and each edge-list region
//!   crosses PCIe once, serving every query that touches it. Full-sweep
//!   analytics ([`Query::cc`], [`Query::pagerank`]) run solo through
//!   the same lifecycle;
//! * **lifecycle** — [`Server::cancel`] revokes pending queries;
//!   queries that complete past their deadline are marked
//!   [`QueryOutcome::DeadlineMissed`] rather than served silently, and
//!   queries whose deadline expires while queued are
//!   [`QueryOutcome::DeadlineCancelled`] without executing.
//!
//! Batched results are bit-identical — outputs *and* iteration counts —
//! to running the same queries sequentially; per-query
//! [`RunStats`](emogi_runtime::RunStats) stay attributable, with shared
//! iteration traffic flagged via
//! [`shared_fetch`](emogi_runtime::RunStats::shared_fetch). The `serve`
//! and `sla` experiments in `emogi_bench` measure the payoff: fewer
//! total PCIe bytes and higher queries/sec than sequential execution,
//! and a higher deadline-hit rate under EDF than FIFO on mixed
//! bulk/latency bursts — with served outputs digest-equal across
//! schedulers.
//!
//! The **device-group path** ([`ShardedServer`]) serves the same query
//! types over a multi-GPU
//! [`ShardedEngine`](emogi_core::sharded::ShardedEngine): identical
//! admission, QoS and lifecycle machinery (it *is* the same [`Server`]
//! type), but each query's iterations shard across every device instead
//! of sharing fetches with its batch — the latency-oriented counterpart
//! to the throughput-oriented batched path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod query;
pub mod scheduler;
pub mod server;
pub mod sharded;

pub use query::{
    Priority, QoS, Query, QueryId, QueryKind, QueryOutcome, QueryResult, QuerySpec, SubmitError,
};
pub use scheduler::{plan_batches, sched_key, Pending, SchedPolicy, SlaBatch};
pub use server::{QueryServer, ServeBackend, Server, ServerConfig, ServerStats, ShardedServer};
