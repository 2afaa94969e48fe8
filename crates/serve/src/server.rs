//! The query server: admission control, SLA scheduling, batched
//! execution, and the query lifecycle (serve / cancel / deadline).
//!
//! One [`Server`] with one execution path: every planned batch goes to
//! `emogi_core::spec::run_group`, which merges a BFS/SSSP group through
//! `Engine::run_batch` and runs anything else — a full-sweep kind, any
//! group on a `ShardedEngine` — back to back. Shipping a fifth program is
//! a variant in each `spec` enum, an arm in `spec::run` and a cost arm in
//! [`Server::estimate_ns`]. A deadline budget becomes an *absolute*
//! deadline on the server's simulated clock at admission; the server
//! never reads a wall clock — expiry compares two counters, so serving
//! outcomes replay exactly.
//!
//! ```text
//! submit(query)
//!   │
//!   ├─ admission ───────────── Err(QueueFull)    outstanding = pending +
//!   │                                            unredeemed outcomes ≥ cap
//!   │                          Err(OverBudget)   cost-model estimate
//!   │                                            exceeds the deadline budget
//!   ▼
//! pending ── cancel(id) ─────► cancelled         slot freed, never runs,
//!   │                                            no outcome stored
//!   ▼  run_pending()
//! plan_batches (EDF-within-priority, deterministic)
//!   │
//!   ├─ deadline already past ► DeadlineCancelled expired before its batch
//!   │                                            started; never executed
//!   ▼  execute batch, clock += elapsed
//!   ├─ finished in time ─────► Served
//!   └─ finished late ────────► DeadlineMissed    result still delivered,
//!                                                lateness reported
//! ```
//!
//! | invariant | witnessed by |
//! |---|---|
//! | executed outputs are bit-identical to solo runs, for every kind, QoS mix and named configuration | `no_admitted_query_is_lost_and_served_outputs_match_solo` in `tests/sla_proptests.rs`; the `sla` experiment asserts cross-policy digest equality in-run |
//! | no admitted query is lost: exactly one terminal state, stats partition the admitted set | the same proptest, plus the lifecycle unit tests below |
//! | EDF plan ordering: kind-pure batches, caps (full sweeps solo), anchors and members in key order, exactly-once partition | `edf_plan_upholds_its_ordering_invariants` in `tests/sla_proptests.rs` |
//! | the one-pass FIFO plan equals incremental oldest-anchor selection | `fifo_plan_equals_incremental_next_batch` in `tests/sla_proptests.rs`; FIFO unit tests in `scheduler.rs` |
//! | unredeemed results count against capacity (no results-map leak) | `unredeemed_results_count_against_capacity` below |
//! | both front ends normalize `ServerConfig` identically | `both_front_ends_normalize_max_batch_identically` in `sharded.rs` |
//! | expiry is a function of the simulated clock, never the wall clock | `emogi-lint` ambient-nondet over `crates/serve` + the deadline-clock fixtures/guard in `tools/lint/tests/fixtures.rs` |

use crate::query::{self, Query, QueryId, QueryOutcome, QuerySpec, SubmitError};
use crate::scheduler::{plan_batches, Pending, SchedPolicy};
use emogi_core::sharded::ShardedEngine;
use emogi_core::{spec, Engine};

/// What a [`Server`] needs from an execution engine: the core's
/// [`Front`](emogi_core::Front) — the placed graph, the link bandwidth
/// for cost-model admission, and "run one program". Both shipped
/// engines implement it; the server executes every planned batch
/// through the one dispatcher, [`emogi_core::spec::run_group`].
pub use emogi_core::Front as ServeBackend;
use emogi_graph::analysis::{CostEstimate, CostModel};
use std::collections::BTreeMap;

/// Fixed per-iteration overhead the cost model charges on top of
/// transfer time: kernel launch plus the frontier/vertex scan.
const EST_ITERATION_OVERHEAD_NS: u64 = 2_000;

/// How a [`Server`] admits, orders and batches queries.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum queries per batch; clamped to
    /// `[1, `[`MAX_BATCH_QUERIES`](emogi_core::MAX_BATCH_QUERIES)`]` by
    /// the shared constructor. A batch of one runs exactly like a solo
    /// [`Engine::run`](emogi_core::Engine) call.
    pub max_batch: usize,
    /// Admission control: *outstanding* queries — pending plus finished
    ///-but-unredeemed — beyond this are rejected with
    /// [`SubmitError::QueueFull`] until the queue drains **and**
    /// results are [`take`](Server::take)n. Counting unredeemed results
    /// keeps a submit-heavy client that never redeems from growing the
    /// results map without bound.
    pub queue_capacity: usize,
    /// How the pending queue is ordered; [`SchedPolicy::Edf`] by
    /// default (identical to FIFO while every query carries the
    /// default QoS).
    pub policy: SchedPolicy,
    /// Server-wide completion budget applied to queries that carry no
    /// deadline of their own, simulated ns from admission; `None` (the
    /// default) leaves undated queries unbounded.
    pub query_budget_ns: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            queue_capacity: 1024,
            policy: SchedPolicy::Edf,
            query_budget_ns: None,
        }
    }
}

impl ServerConfig {
    /// The shared normalization every front end's constructor applies —
    /// one code path, so the single-device and sharded servers cannot
    /// drift.
    fn normalized(self) -> Self {
        Self {
            max_batch: self.max_batch.clamp(1, emogi_core::MAX_BATCH_QUERIES),
            ..self
        }
    }
}

/// Cumulative serving counters, kept since server construction. Every
/// admitted query ends in exactly one of [`served`](Self::served),
/// [`deadline_missed`](Self::deadline_missed),
/// [`deadline_cancelled`](Self::deadline_cancelled) or
/// [`cancelled`](Self::cancelled).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Queries accepted by [`Server::submit`].
    pub submitted: u64,
    /// Submissions refused by admission control (including
    /// [`SubmitError::OverBudget`]).
    pub rejected: u64,
    /// Queries executed to completion within their contract (on time,
    /// or with no deadline).
    pub served: u64,
    /// Queries that executed but completed past their deadline.
    pub deadline_missed: u64,
    /// Queries whose deadline expired while still queued; never ran.
    pub deadline_cancelled: u64,
    /// Queries revoked by [`Server::cancel`] while still pending.
    pub cancelled: u64,
    /// Deadline-carrying queries that completed on time (the
    /// numerator of a deadline-hit rate whose denominator is
    /// `deadline_met + deadline_missed + deadline_cancelled`).
    pub deadline_met: u64,
    /// Batches executed (a solo query still counts as one batch).
    pub batches: u64,
    /// Queries that shared their batch with at least one other query.
    pub batched_queries: u64,
    /// Simulated time spent executing batches, ns.
    pub busy_ns: u64,
    /// Host→GPU bytes moved while serving (batch-level totals, each
    /// shared fetch counted once).
    pub host_bytes: u64,
}

impl ServerStats {
    /// Serving throughput over the simulated busy time: executed
    /// queries (served + late) per second.
    pub fn queries_per_sec(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            (self.served + self.deadline_missed) as f64 / (self.busy_ns as f64 * 1e-9)
        }
    }

    /// Fraction of deadline-carrying, uncancelled queries that
    /// completed on time; 1.0 when no query carried a deadline.
    pub fn deadline_hit_rate(&self) -> f64 {
        let with_deadline = self.deadline_met + self.deadline_missed + self.deadline_cancelled;
        if with_deadline == 0 {
            1.0
        } else {
            self.deadline_met as f64 / with_deadline as f64
        }
    }
}

/// An SLA-aware concurrent-query front end over one execution backend.
///
/// One implementation and one execution path
/// ([`emogi_core::spec::run_group`]) serve both shipped engines —
/// [`QueryServer`] batches frontier-driven queries on a single
/// [`Engine`] (overlapping frontiers share PCIe cache lines), while
/// [`ShardedServer`] runs every query sharded across a device group —
/// so admission, QoS scheduling, cancellation, deadlines and
/// accounting cannot drift between the two.
///
/// **Lifecycle.** [`submit`](Self::submit) validates the query
/// (structure, capacity, and — when it carries a deadline — the cost
/// model's work estimate) and queues it.
/// [`run_pending`](Self::run_pending) plans the whole queue with the
/// deterministic EDF-within-priority scheduler
/// ([`plan_batches`]), expires entries
/// whose deadline already passed on the simulated clock, executes each
/// batch, and records one terminal [`QueryOutcome`] per executed or
/// expired query. [`cancel`](Self::cancel) revokes a still-pending
/// query and frees its slot immediately. [`take`](Self::take) redeems
/// an outcome exactly once.
///
/// **Determinism.** The server clock is simulated time accumulated from
/// batch execution; deadlines are absolute points on that clock fixed
/// at admission. Scheduling, expiry and outcomes are pure functions of
/// the submitted workload — no wall clock, no randomness (enforced by
/// `emogi-lint`'s `ambient-nondet` rule).
///
/// ```
/// use emogi_core::{Engine, EngineConfig};
/// use emogi_graph::{algo, generators};
/// use emogi_serve::{Query, QueryServer, ServerConfig};
///
/// let graph = generators::uniform_random(1_000, 8, 7);
/// let engine = Engine::load(EngineConfig::emogi_v100(), &graph);
/// let mut server = QueryServer::new(ServerConfig::default(), engine);
///
/// let a = server.submit(Query::bfs(0)).unwrap();
/// let b = server.submit(Query::bfs(42)).unwrap();
/// assert_eq!(server.run_pending(), 2);
///
/// let run = server.take(a).unwrap().into_bfs();
/// assert_eq!(run.levels, algo::bfs_levels(&graph, 0));
/// assert!(server.take(b).is_some());
/// assert_eq!(server.stats().batches, 1, "both queries shared one batch");
/// ```
pub struct Server<B> {
    backend: B,
    cfg: ServerConfig,
    cost: CostModel,
    next_id: u64,
    pending: Vec<Pending>,
    outcomes: BTreeMap<QueryId, QueryOutcome>,
    stats: ServerStats,
    clock_ns: u64,
}

/// The single-device batched front end: a [`Server`] over an
/// [`Engine`]. Frontier-driven batches run as one
/// [`Engine::run_batch`](emogi_core::Engine::run_batch) call; results
/// are bit-identical — outputs and iteration counts — to running the
/// same queries one at a time.
///
/// Pipelined execution is configured on the engine, not the server:
/// wrap an engine loaded with a prefetching
/// [`Transport::Hybrid`](emogi_core::Transport::Hybrid) (the
/// `pipelined_v100` preset) and every batch the server executes
/// overlaps its DMA staging with kernel compute. Serving results stay
/// bit-identical to a synchronous server's; only the wall clock and the
/// [`prefetch`](emogi_runtime::RunStats::prefetch) counters differ.
pub type QueryServer<'g> = Server<Engine<'g>>;

/// The device-group front end: a [`Server`] over a
/// [`ShardedEngine`]. Each query
/// runs solo but sharded across every device — the latency-oriented
/// counterpart to the throughput-oriented batched path, behind the
/// same admission, QoS and lifecycle machinery.
pub type ShardedServer<'g> = Server<ShardedEngine<'g>>;

impl<'g, B: ServeBackend<'g>> Server<B> {
    /// Wrap an already-loaded backend. The backend's placement is the
    /// shared resource every accepted query runs against; the config
    /// passes through one shared normalization (`max_batch` clamped to
    /// `[1, MAX_BATCH_QUERIES]`) for every front end.
    pub fn new(cfg: ServerConfig, backend: B) -> Self {
        let cost = CostModel::new(backend.graph());
        Self {
            backend,
            cfg: cfg.normalized(),
            cost,
            next_id: 0,
            pending: Vec::new(),
            outcomes: BTreeMap::new(),
            stats: ServerStats::default(),
            clock_ns: 0,
        }
    }

    /// Submit a query. Admission control may refuse it: outstanding
    /// queries (pending + unredeemed) are bounded, sources must be in
    /// range, SSSP weights must have one entry per edge, and a
    /// deadline-carrying query whose cost-model estimate already
    /// exceeds its budget is rejected [`SubmitError::OverBudget`]
    /// rather than admitted to certainly miss. On success the returned
    /// handle redeems the outcome via [`take`](Self::take) after a
    /// [`run_pending`](Self::run_pending).
    pub fn submit(&mut self, query: Query) -> Result<QueryId, SubmitError> {
        match self.admit(&query) {
            Ok(deadline_ns) => {
                let id = QueryId(self.next_id);
                self.next_id += 1;
                self.pending.push(Pending {
                    id,
                    query,
                    deadline_ns,
                });
                self.stats.submitted += 1;
                Ok(id)
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Full admission: structural checks, then the deadline budget
    /// check. Returns the query's *absolute* deadline on the server
    /// clock, if any.
    fn admit(&self, query: &Query) -> Result<Option<u64>, SubmitError> {
        query::admit(
            self.backend.graph(),
            self.outstanding(),
            self.cfg.queue_capacity,
            query,
        )?;
        let budget = query.qos.deadline_ns.or(self.cfg.query_budget_ns);
        match budget {
            None => Ok(None),
            Some(budget_ns) => {
                let estimated_ns = self.estimate_ns(query);
                if estimated_ns > budget_ns {
                    return Err(SubmitError::OverBudget {
                        estimated_ns,
                        budget_ns,
                    });
                }
                Ok(Some(self.clock_ns.saturating_add(budget_ns)))
            }
        }
    }

    /// The cost model's completion estimate for `query` if it ran
    /// alone, simulated ns: `iterations × frontier-bytes` from the
    /// graph's degree distribution and reachable-set heuristic,
    /// converted to time over the backend's link bandwidth. Useful for
    /// picking deadline budgets that admission will accept.
    pub fn estimate_ns(&self, query: &Query) -> u64 {
        let est = match &query.spec {
            QuerySpec::Bfs { src } => self
                .cost
                .frontier_cost(self.backend.graph().degree(*src), 8),
            QuerySpec::Sssp { src, .. } => {
                // Weighted relaxation converges in more rounds than BFS
                // and streams the 4-byte weight beside each 8-byte edge
                // element.
                let base = self
                    .cost
                    .frontier_cost(self.backend.graph().degree(*src), 12);
                CostEstimate {
                    iterations: base.iterations.saturating_mul(2),
                    bytes: base.bytes.saturating_mul(2),
                }
            }
            QuerySpec::Cc => self.cost.full_sweep_cost(self.cost.est_depth(), 8),
            QuerySpec::PageRank { iterations, .. } => {
                self.cost.full_sweep_cost(u64::from(*iterations), 8)
            }
        };
        est.ns(self.backend.link_bytes_per_ns(), EST_ITERATION_OVERHEAD_NS)
    }

    /// Queries waiting for execution.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Queries counted against [`queue_capacity`](ServerConfig::queue_capacity):
    /// pending plus finished-but-unredeemed.
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.outcomes.len()
    }

    /// The server's simulated clock: time accumulated executing
    /// batches, ns. Deadlines are absolute points on this clock.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Revoke a still-pending query, freeing its queue slot
    /// immediately. Returns `true` if the query was pending (it will
    /// never run and stores no outcome); `false` if the handle is
    /// unknown, already executed, or already cancelled.
    pub fn cancel(&mut self, id: QueryId) -> bool {
        match self.pending.iter().position(|p| p.id == id) {
            Some(i) => {
                self.pending.remove(i);
                self.stats.cancelled += 1;
                true
            }
            None => false,
        }
    }

    /// Drain the pending queue: plan it with the configured scheduler,
    /// expire queries whose deadline already passed on the simulated
    /// clock, and execute each planned batch. Returns the number of
    /// queries executed (on time or late); deadline-cancelled queries
    /// are not executed and not counted.
    pub fn run_pending(&mut self) -> usize {
        let plan = plan_batches(
            std::mem::take(&mut self.pending),
            self.cfg.policy,
            self.cfg.max_batch,
        );
        let mut executed = 0;
        for batch in plan {
            let mut live = Vec::with_capacity(batch.entries.len());
            for p in batch.entries {
                match p.deadline_ns {
                    Some(d) if d < self.clock_ns => {
                        self.outcomes
                            .insert(p.id, QueryOutcome::DeadlineCancelled { deadline_ns: d });
                        self.stats.deadline_cancelled += 1;
                    }
                    _ => live.push(p),
                }
            }
            if live.is_empty() {
                continue;
            }
            let specs: Vec<&QuerySpec> = live.iter().map(|p| &p.query.spec).collect();
            let group = spec::run_group(&mut self.backend, &specs);
            debug_assert_eq!(group.runs.len(), live.len(), "one result per entry");
            self.clock_ns += group.stats.elapsed_ns;
            self.stats.batches += 1;
            self.stats.busy_ns += group.stats.elapsed_ns;
            self.stats.host_bytes += group.stats.host_bytes;
            if group.shared && live.len() > 1 {
                self.stats.batched_queries += live.len() as u64;
            }
            let completed_ns = self.clock_ns;
            for (p, result) in live.into_iter().zip(group.runs) {
                executed += 1;
                match p.deadline_ns {
                    Some(deadline_ns) if completed_ns > deadline_ns => {
                        self.outcomes.insert(
                            p.id,
                            QueryOutcome::DeadlineMissed {
                                result,
                                completed_ns,
                                deadline_ns,
                            },
                        );
                        self.stats.deadline_missed += 1;
                    }
                    deadline => {
                        self.outcomes.insert(
                            p.id,
                            QueryOutcome::Served {
                                result,
                                completed_ns,
                            },
                        );
                        self.stats.served += 1;
                        if deadline.is_some() {
                            self.stats.deadline_met += 1;
                        }
                    }
                }
            }
        }
        executed
    }

    /// Redeem a finished query's outcome; `None` while it is still
    /// pending (or if the handle was already taken or cancelled).
    pub fn take(&mut self, id: QueryId) -> Option<QueryOutcome> {
        self.outcomes.remove(&id)
    }

    /// Cumulative serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The wrapped backend (e.g. for reading machine counters).
    pub fn engine(&self) -> &B {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Priority, QueryResult};
    use emogi_core::EngineConfig;
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::{algo, generators};
    use std::sync::Arc;

    fn server(g: &emogi_graph::CsrGraph, cfg: ServerConfig) -> QueryServer<'_> {
        QueryServer::new(cfg, Engine::load(EngineConfig::emogi_v100(), g))
    }

    #[test]
    fn serves_a_mixed_workload_correctly() {
        let g = generators::uniform_random(500, 6, 11);
        let w = Arc::new(generate_weights(g.num_edges(), 11));
        let mut s = server(&g, ServerConfig::default());
        let b0 = s.submit(Query::bfs(0)).unwrap();
        let s0 = s.submit(Query::sssp(3, Arc::clone(&w))).unwrap();
        let b1 = s.submit(Query::bfs(9)).unwrap();
        assert_eq!(s.pending(), 3);
        assert_eq!(s.run_pending(), 3);
        assert_eq!(s.pending(), 0);

        let r = s.take(b0).unwrap().into_bfs();
        assert_eq!(r.levels, algo::bfs_levels(&g, 0));
        let r = s.take(b1).unwrap().into_bfs();
        assert_eq!(r.levels, algo::bfs_levels(&g, 9));
        let r = s.take(s0).unwrap().into_sssp();
        let want = algo::sssp_distances(&g, &w, 3);
        for (v, &expect) in want.iter().enumerate() {
            let got = if r.dist[v] == u32::MAX {
                algo::UNREACHABLE
            } else {
                u64::from(r.dist[v])
            };
            assert_eq!(got, expect, "vertex {v}");
        }

        // Two batches: {bfs 0, bfs 9} and {sssp 3}.
        assert_eq!(s.stats().batches, 2);
        assert_eq!(s.stats().served, 3);
        assert_eq!(s.stats().batched_queries, 2);
        assert!(s.stats().queries_per_sec() > 0.0);
    }

    #[test]
    fn admission_rejects_bad_queries_and_full_queues() {
        let g = generators::uniform_random(100, 4, 1);
        let mut s = server(
            &g,
            ServerConfig {
                queue_capacity: 2,
                ..ServerConfig::default()
            },
        );
        assert_eq!(
            s.submit(Query::bfs(1_000)),
            Err(SubmitError::SourceOutOfRange {
                src: 1_000,
                num_vertices: 100
            })
        );
        let short = Arc::new(vec![1u32; 3]);
        assert!(matches!(
            s.submit(Query::sssp(0, short)),
            Err(SubmitError::WeightCountMismatch { got: 3, .. })
        ));
        let a = s.submit(Query::bfs(0)).unwrap();
        let b = s.submit(Query::bfs(1)).unwrap();
        assert_eq!(
            s.submit(Query::bfs(2)),
            Err(SubmitError::QueueFull { capacity: 2 })
        );
        assert_eq!(s.stats().rejected, 3);
        assert_eq!(s.run_pending(), 2);
        // Executed but unredeemed results still hold their slots.
        assert_eq!(
            s.submit(Query::bfs(2)),
            Err(SubmitError::QueueFull { capacity: 2 })
        );
        s.take(a).unwrap();
        s.take(b).unwrap();
        // Redeemed: admission opens again.
        s.submit(Query::bfs(2)).unwrap();
    }

    #[test]
    fn unredeemed_results_count_against_capacity() {
        // Regression test for the unbounded results-map leak: a
        // submit-heavy client that never takes its results must hit
        // admission control instead of growing the results map forever.
        let g = generators::uniform_random(100, 4, 5);
        let cap = 4;
        let mut s = server(
            &g,
            ServerConfig {
                queue_capacity: cap,
                ..ServerConfig::default()
            },
        );
        let mut admitted = 0usize;
        for round in 0..10 {
            loop {
                match s.submit(Query::bfs((admitted % 100) as u32)) {
                    Ok(_) => admitted += 1,
                    Err(SubmitError::QueueFull { capacity }) => {
                        assert_eq!(capacity, cap);
                        break;
                    }
                    Err(e) => panic!("unexpected rejection: {e}"),
                }
            }
            s.run_pending();
            assert!(
                s.outstanding() <= cap,
                "round {round}: outstanding {} exceeds capacity {cap}",
                s.outstanding()
            );
        }
        assert_eq!(
            admitted, cap,
            "without redeeming, exactly one capacity's worth is ever admitted"
        );
    }

    #[test]
    fn results_are_taken_once_and_ids_are_unique() {
        let g = generators::uniform_random(200, 4, 2);
        let mut s = server(&g, ServerConfig::default());
        let a = s.submit(Query::bfs(0)).unwrap();
        let b = s.submit(Query::bfs(0)).unwrap();
        assert_ne!(a, b, "identical queries still get distinct handles");
        s.run_pending();
        assert!(s.take(a).is_some());
        assert!(s.take(a).is_none(), "a result is redeemed once");
        assert!(s.take(b).is_some());
    }

    #[test]
    fn batched_stats_are_flagged_shared_and_solo_ones_are_not() {
        let g = generators::uniform_random(300, 6, 3);
        let mut s = server(&g, ServerConfig::default());
        let a = s.submit(Query::bfs(0)).unwrap();
        let b = s.submit(Query::bfs(7)).unwrap();
        s.run_pending();
        assert!(s.take(a).unwrap().stats().shared_fetch);
        assert!(s.take(b).unwrap().stats().shared_fetch);
        let c = s.submit(Query::bfs(9)).unwrap();
        s.run_pending();
        assert!(
            !s.take(c).unwrap().stats().shared_fetch,
            "a batch of one shares its fetches with nobody"
        );
    }

    #[test]
    fn a_pipelined_engine_serves_bit_identically_to_a_synchronous_one() {
        let g = generators::uniform_random(400, 8, 13);
        let mut results: Vec<Vec<QueryResult>> = Vec::new();
        for cfg in [EngineConfig::hybrid_v100(), EngineConfig::pipelined_v100()] {
            let mut s = QueryServer::new(ServerConfig::default(), Engine::load(cfg, &g));
            let ids: Vec<_> = [0u32, 7, 42, 301]
                .iter()
                .map(|&v| s.submit(Query::bfs(v)).unwrap())
                .collect();
            assert_eq!(s.run_pending(), 4);
            results.push(
                ids.into_iter()
                    .map(|id| s.take(id).unwrap().into_result().unwrap())
                    .collect(),
            );
        }
        let (sync, pipe) = (&results[0], &results[1]);
        for (a, b) in sync.iter().zip(pipe) {
            assert_eq!(a.stats().kernel_launches, b.stats().kernel_launches);
            assert_eq!(a.stats().host_bytes, b.stats().host_bytes);
        }
        for pair in sync.iter().zip(pipe) {
            let (QueryResult::Bfs(want), QueryResult::Bfs(got)) = pair else {
                panic!("BFS queries answered by {pair:?}");
            };
            assert_eq!(want.levels, got.levels);
        }
    }

    #[test]
    fn max_batch_splits_a_burst_into_several_batches() {
        let g = generators::uniform_random(300, 6, 4);
        let mut s = server(
            &g,
            ServerConfig {
                max_batch: 3,
                ..ServerConfig::default()
            },
        );
        let ids: Vec<_> = (0..7)
            .map(|i| s.submit(Query::bfs(i as u32)).unwrap())
            .collect();
        assert_eq!(s.run_pending(), 7);
        assert_eq!(s.stats().batches, 3, "7 queries at cap 3 → 3+3+1");
        assert_eq!(s.stats().batched_queries, 6);
        for id in ids {
            assert!(s.take(id).is_some());
        }
    }

    #[test]
    fn full_sweep_queries_serve_solo_through_the_same_lifecycle() {
        let g = generators::uniform_random(300, 6, 9);
        let mut s = server(&g, ServerConfig::default());
        let cc = s.submit(Query::cc()).unwrap();
        let pr = s.submit(Query::pagerank(0.85, 5)).unwrap();
        let bfs = s.submit(Query::bfs(0)).unwrap();
        assert_eq!(s.run_pending(), 3);
        assert_eq!(
            s.stats().batches,
            3,
            "full sweeps never share, BFS alone in its batch"
        );
        assert_eq!(s.stats().batched_queries, 0);

        let mut solo = Engine::load(EngineConfig::emogi_v100(), &g);
        let got = s.take(cc).unwrap().into_cc();
        assert_eq!(got.output.comp, solo.cc().output.comp);
        let got = s.take(pr).unwrap().into_pagerank();
        let want = solo.pagerank(0.85, 5);
        assert_eq!(got.output.ranks, want.output.ranks);
        assert_eq!(got.output.iterations, want.output.iterations);
        assert!(s.take(bfs).unwrap().is_served());
    }

    #[test]
    fn cancel_frees_the_slot_and_cancelled_queries_never_run() {
        let g = generators::uniform_random(200, 4, 3);
        let mut s = server(
            &g,
            ServerConfig {
                queue_capacity: 2,
                ..ServerConfig::default()
            },
        );
        let a = s.submit(Query::bfs(0)).unwrap();
        let b = s.submit(Query::bfs(1)).unwrap();
        assert!(matches!(
            s.submit(Query::bfs(2)),
            Err(SubmitError::QueueFull { .. })
        ));
        assert!(s.cancel(a), "pending query cancels");
        let c = s.submit(Query::bfs(2)).expect("cancel freed the slot");
        assert!(!s.cancel(a), "a handle cancels once");
        assert_eq!(s.run_pending(), 2, "cancelled query never executes");
        assert!(s.take(a).is_none(), "no outcome for a cancelled query");
        assert!(s.take(b).is_some());
        assert!(s.take(c).is_some());
        assert!(!s.cancel(b), "executed queries cannot be cancelled");
        assert_eq!(s.stats().cancelled, 1);
    }

    #[test]
    fn deadlines_mark_late_queries_instead_of_serving_them_silently() {
        let g = generators::uniform_random(400, 8, 7);
        let mut s = server(&g, ServerConfig::default());
        // A deadline one bulk sweep blows: admit a BFS whose budget
        // covers most — but not all — of the PageRank it is forced to
        // wait behind under FIFO order, so it executes and completes
        // late (rather than expiring unexecuted).
        let mut fifo = server(
            &g,
            ServerConfig {
                policy: SchedPolicy::Fifo,
                ..ServerConfig::default()
            },
        );
        let mut solo = Engine::load(EngineConfig::emogi_v100(), &g);
        let pr_ns = solo.pagerank(0.85, 50).stats.elapsed_ns;
        let bfs_ns = solo.bfs(0).stats.elapsed_ns;
        let budget = pr_ns + bfs_ns / 2;
        let probe = Query::bfs(0);
        let pr = fifo.submit(Query::pagerank(0.85, 50)).unwrap();
        let late = fifo.submit(Query::bfs(0).with_deadline_ns(budget)).unwrap();
        assert_eq!(fifo.run_pending(), 2);
        let outcome = fifo.take(late).unwrap();
        assert!(
            matches!(outcome, QueryOutcome::DeadlineMissed { .. }),
            "FIFO runs the sweep first, the dated BFS completes late: {outcome:?}"
        );
        assert_eq!(fifo.stats().deadline_missed, 1);
        assert!(fifo.take(pr).unwrap().is_served());

        // The same workload under EDF: the dated query runs first and
        // meets its deadline.
        let own = s.estimate_ns(&probe);
        let pr = s.submit(Query::pagerank(0.85, 50)).unwrap();
        let tight = s
            .submit(Query::bfs(0).with_deadline_ns(own.saturating_mul(2)))
            .unwrap();
        assert_eq!(s.run_pending(), 2);
        assert!(s.take(tight).unwrap().is_served());
        assert!(s.take(pr).unwrap().is_served());
        assert_eq!(s.stats().deadline_met, 1);
        assert!((s.stats().deadline_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expired_queries_are_deadline_cancelled_not_executed() {
        let g = generators::uniform_random(300, 6, 5);
        // FIFO so the dated query is scheduled behind the sweeps and
        // its deadline expires before its batch starts.
        let mut s = server(
            &g,
            ServerConfig {
                policy: SchedPolicy::Fifo,
                max_batch: 1,
                ..ServerConfig::default()
            },
        );
        let own = s.estimate_ns(&Query::bfs(0));
        let a = s.submit(Query::pagerank(0.85, 60)).unwrap();
        let b = s.submit(Query::pagerank(0.85, 60)).unwrap();
        let dated = s
            .submit(Query::bfs(0).with_deadline_ns(own.saturating_mul(2)))
            .unwrap();
        // Two separate drains: the first runs the sweeps past the
        // deadline, the second finds the dated query expired.
        assert_eq!(s.run_pending(), 3 - 1, "dated query expired unexecuted");
        let outcome = s.take(dated).unwrap();
        assert!(
            matches!(outcome, QueryOutcome::DeadlineCancelled { .. }),
            "{outcome:?}"
        );
        assert!(outcome.result().is_none());
        assert_eq!(s.stats().deadline_cancelled, 1);
        assert!(s.take(a).unwrap().is_served());
        assert!(s.take(b).unwrap().is_served());
    }

    #[test]
    fn over_budget_submissions_are_rejected_up_front() {
        let g = generators::uniform_random(400, 8, 7);
        let mut s = server(&g, ServerConfig::default());
        let err = s.submit(Query::bfs(0).with_deadline_ns(1)).unwrap_err();
        assert!(
            matches!(err, SubmitError::OverBudget { budget_ns: 1, .. }),
            "{err:?}"
        );
        assert_eq!(s.stats().rejected, 1);
        // The server-wide budget applies to undated queries too.
        let mut tight = server(
            &g,
            ServerConfig {
                query_budget_ns: Some(1),
                ..ServerConfig::default()
            },
        );
        assert!(matches!(
            tight.submit(Query::bfs(0)),
            Err(SubmitError::OverBudget { .. })
        ));
        // A generous estimate-derived budget is accepted.
        let q = Query::bfs(0);
        let est = s.estimate_ns(&q);
        s.submit(q.with_deadline_ns(est)).unwrap();
    }

    #[test]
    fn latency_class_preempts_bulk_queries_of_every_kind() {
        let g = generators::uniform_random(300, 6, 2);
        let mut s = server(&g, ServerConfig::default());
        let bulk = s.submit(Query::bfs(0)).unwrap();
        let urgent = s
            .submit(Query::bfs(5).with_priority(Priority::Latency))
            .unwrap();
        s.run_pending();
        // Same kind: they share one batch, anchored by the latency
        // query (observable through completion times being equal and
        // the batch count).
        assert_eq!(s.stats().batches, 1);
        let (u, b) = (s.take(urgent).unwrap(), s.take(bulk).unwrap());
        assert_eq!(u.completed_ns(), b.completed_ns());
    }
}
