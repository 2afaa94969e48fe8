//! Query descriptions, QoS classes, handles, results and outcomes.

use emogi_core::{BfsOutput, CcOutput, PageRankOutput, Run, SsspOutput};
use emogi_graph::VertexId;
use std::sync::Arc;

// The program vocabulary is `emogi_core::spec`'s; serving adds only the
// QoS contract around a spec and the lifecycle around a run.
pub use emogi_core::spec::{
    ProgramKind as QueryKind, ProgramRun as QueryResult, ProgramSpec as QuerySpec,
};

/// Opaque handle returned by
/// [`Server::submit`](crate::Server::submit); redeem it with
/// [`Server::take`](crate::Server::take) once the query ran, or revoke
/// it with [`Server::cancel`](crate::Server::cancel) while it is still
/// pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub(crate) u64);

impl QueryId {
    /// Build a handle from its raw submission number. Handles are plain
    /// sequence numbers, not capabilities; this exists so the standalone
    /// scheduler ([`plan_batches`](crate::scheduler::plan_batches)) can
    /// be driven — and property-tested — outside the server.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw submission number (0 for a server's first admitted
    /// query, then counting up).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Scheduling class of a query. The scheduler never lets a [`Bulk`]
/// query delay a [`Latency`] one: priority is compared before any
/// deadline.
///
/// [`Bulk`]: Priority::Bulk
/// [`Latency`]: Priority::Latency
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Interactive traffic: scheduled ahead of all bulk work.
    Latency,
    /// Throughput traffic (the default): scheduled after latency work,
    /// earliest deadline first.
    #[default]
    Bulk,
}

impl Priority {
    /// Scheduling rank; lower runs earlier.
    pub(crate) fn rank(self) -> u8 {
        match self {
            Priority::Latency => 0,
            Priority::Bulk => 1,
        }
    }
}

/// Per-query quality-of-service contract.
///
/// `deadline_ns` is a *budget on the server's simulated clock*, counted
/// from admission: a query submitted at simulated time `t` with budget
/// `d` must complete by `t + d`. A query that overruns is not silently
/// served late — it ends [`QueryOutcome::DeadlineMissed`] (it ran, too
/// late) or [`QueryOutcome::DeadlineCancelled`] (it expired while still
/// queued and never ran). The default QoS (bulk, no deadline) schedules
/// exactly like the pre-QoS FIFO server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QoS {
    /// Scheduling class.
    pub priority: Priority,
    /// Completion budget on the simulated clock, ns from admission;
    /// `None` means the query may take arbitrarily long (subject to the
    /// server-wide [`query_budget_ns`](crate::ServerConfig::query_budget_ns)).
    pub deadline_ns: Option<u64>,
}

/// A query against the server's shared placement: a [`QuerySpec`] plus
/// its [`QoS`] contract.
///
/// Only frontier-driven specs (BFS, SSSP) batch — their per-iteration
/// frontiers merge into one [`Engine::run_batch`](emogi_core::Engine::run_batch)
/// call. Full-sweep analytics (CC, PageRank) read the whole edge list
/// every launch anyway, so the scheduler runs them solo, but they pass
/// through the same admission, accounting and deadline machinery.
#[derive(Debug, Clone)]
pub struct Query {
    /// What to compute.
    pub spec: QuerySpec,
    /// How urgently to compute it.
    pub qos: QoS,
}

impl Query {
    /// A BFS query from `src` with default QoS (bulk, no deadline).
    pub fn bfs(src: VertexId) -> Self {
        Self {
            spec: QuerySpec::Bfs { src },
            qos: QoS::default(),
        }
    }

    /// An SSSP query from `src` over `weights` with default QoS.
    pub fn sssp(src: VertexId, weights: Arc<Vec<u32>>) -> Self {
        Self {
            spec: QuerySpec::Sssp { src, weights },
            qos: QoS::default(),
        }
    }

    /// A connected-components query with default QoS.
    pub fn cc() -> Self {
        Self {
            spec: QuerySpec::Cc,
            qos: QoS::default(),
        }
    }

    /// A PageRank query with default QoS.
    pub fn pagerank(damping: f64, iterations: u32) -> Self {
        Self {
            spec: QuerySpec::PageRank {
                damping,
                iterations,
            },
            qos: QoS::default(),
        }
    }

    /// Set the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.qos.priority = priority;
        self
    }

    /// Set the completion budget (simulated ns from admission).
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.qos.deadline_ns = Some(deadline_ns);
        self
    }

    /// The compatibility kind the scheduler groups by.
    pub fn kind(&self) -> QueryKind {
        self.spec.kind()
    }

    /// The query's source vertex; `None` for full-sweep analytics.
    pub fn src(&self) -> Option<VertexId> {
        self.spec.src()
    }
}

/// Terminal state of an admitted query, redeemed once via
/// [`Server::take`](crate::Server::take).
///
/// The full lifecycle is: `submitted → pending → {served | deadline
/// missed | deadline cancelled}`, or `pending → cancelled` via an
/// explicit [`Server::cancel`](crate::Server::cancel) (which frees the
/// queue slot immediately and stores no outcome).
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The query ran and completed within its deadline (or had none).
    Served {
        /// The program output and run measurements.
        result: QueryResult,
        /// Simulated server-clock time at completion, ns.
        completed_ns: u64,
    },
    /// The query ran but completed after its deadline had passed.
    DeadlineMissed {
        /// The (still correct) program output and run measurements.
        result: QueryResult,
        /// Simulated server-clock time at completion, ns.
        completed_ns: u64,
        /// The absolute deadline it missed, ns on the server clock.
        deadline_ns: u64,
    },
    /// The query's deadline expired while it was still queued; it never
    /// ran and has no result.
    DeadlineCancelled {
        /// The absolute deadline that expired, ns on the server clock.
        deadline_ns: u64,
    },
}

impl QueryOutcome {
    /// Whether the query completed within its contract.
    pub fn is_served(&self) -> bool {
        matches!(self, QueryOutcome::Served { .. })
    }

    /// The result, if the query executed (served or late); `None` for a
    /// deadline-cancelled query.
    pub fn result(&self) -> Option<&QueryResult> {
        match self {
            QueryOutcome::Served { result, .. } | QueryOutcome::DeadlineMissed { result, .. } => {
                Some(result)
            }
            QueryOutcome::DeadlineCancelled { .. } => None,
        }
    }

    /// Consume into the result, if the query executed.
    pub fn into_result(self) -> Option<QueryResult> {
        match self {
            QueryOutcome::Served { result, .. } | QueryOutcome::DeadlineMissed { result, .. } => {
                Some(result)
            }
            QueryOutcome::DeadlineCancelled { .. } => None,
        }
    }

    /// Simulated completion time, ns; `None` if the query never ran.
    pub fn completed_ns(&self) -> Option<u64> {
        match self {
            QueryOutcome::Served { completed_ns, .. }
            | QueryOutcome::DeadlineMissed { completed_ns, .. } => Some(*completed_ns),
            QueryOutcome::DeadlineCancelled { .. } => None,
        }
    }

    /// The executed run's measurements; panics if the query was
    /// deadline-cancelled before running.
    pub fn stats(&self) -> &emogi_runtime::RunStats {
        self.result()
            .expect("deadline-cancelled query has no run stats")
            .stats()
    }

    /// Unwrap an executed BFS run; panics on a different kind or a
    /// deadline-cancelled query.
    pub fn into_bfs(self) -> Run<BfsOutput> {
        match self.into_result() {
            Some(QueryResult::Bfs(run)) => run,
            other => panic!(
                "expected an executed BFS query, got {:?}",
                other.map(|r| r.kind())
            ),
        }
    }

    /// Unwrap an executed SSSP run; panics on a different kind or a
    /// deadline-cancelled query.
    pub fn into_sssp(self) -> Run<SsspOutput> {
        match self.into_result() {
            Some(QueryResult::Sssp(run)) => run,
            other => panic!(
                "expected an executed SSSP query, got {:?}",
                other.map(|r| r.kind())
            ),
        }
    }

    /// Unwrap an executed connected-components run; panics on a
    /// different kind or a deadline-cancelled query.
    pub fn into_cc(self) -> Run<CcOutput> {
        match self.into_result() {
            Some(QueryResult::Cc(run)) => run,
            other => panic!(
                "expected an executed CC query, got {:?}",
                other.map(|r| r.kind())
            ),
        }
    }

    /// Unwrap an executed PageRank run; panics on a different kind or a
    /// deadline-cancelled query.
    pub fn into_pagerank(self) -> Run<PageRankOutput> {
        match self.into_result() {
            Some(QueryResult::PageRank(run)) => run,
            other => panic!(
                "expected an executed PageRank query, got {:?}",
                other.map(|r| r.kind())
            ),
        }
    }
}

/// Why the server refused a submission (admission control).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Outstanding queries (pending + unredeemed results) are at the
    /// configured capacity; retry after
    /// [`run_pending`](crate::Server::run_pending) **and** redeeming
    /// finished queries with [`take`](crate::Server::take).
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The query's source vertex is not in the graph.
    SourceOutOfRange {
        /// The offending source.
        src: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// An SSSP query's weight array does not have one weight per edge.
    WeightCountMismatch {
        /// Weights provided.
        got: usize,
        /// Edges in the graph.
        want: usize,
    },
    /// The cost model's work estimate for the query exceeds its
    /// deadline budget: it would be admitted only to miss. Raise the
    /// budget or drop the deadline.
    OverBudget {
        /// Estimated completion time, simulated ns.
        estimated_ns: u64,
        /// The query's budget (its own deadline, or the server-wide
        /// default), simulated ns.
        budget_ns: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "outstanding queries at capacity ({capacity})")
            }
            SubmitError::SourceOutOfRange { src, num_vertices } => {
                write!(
                    f,
                    "source {src} out of range (graph has {num_vertices} vertices)"
                )
            }
            SubmitError::WeightCountMismatch { got, want } => {
                write!(f, "got {got} weights for {want} edges")
            }
            SubmitError::OverBudget {
                estimated_ns,
                budget_ns,
            } => {
                write!(
                    f,
                    "estimated {estimated_ns} ns exceeds deadline budget {budget_ns} ns"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Shared structural admission control for every server front end:
/// bound the outstanding queries (pending **plus** unredeemed results —
/// `outstanding` is that total *before* this query), check the source
/// range, and require one weight per edge for SSSP. Deadline-budget
/// admission is layered on top by [`Server::submit`](crate::Server::submit).
pub(crate) fn admit(
    graph: &emogi_graph::CsrGraph,
    outstanding: usize,
    capacity: usize,
    query: &Query,
) -> Result<(), SubmitError> {
    if outstanding >= capacity {
        return Err(SubmitError::QueueFull { capacity });
    }
    let nv = graph.num_vertices();
    if let Some(src) = query.src() {
        if src as usize >= nv {
            return Err(SubmitError::SourceOutOfRange {
                src,
                num_vertices: nv,
            });
        }
    }
    if let QuerySpec::Sssp { weights, .. } = &query.spec {
        let want = graph.num_edges();
        if weights.len() != want {
            return Err(SubmitError::WeightCountMismatch {
                got: weights.len(),
                want,
            });
        }
    }
    Ok(())
}
