//! The `sla` experiment: deadline scheduling under a mixed GK burst —
//! EDF-within-priority vs plain FIFO on the same workload.
//!
//! The workload is the worst case for a FIFO server: a bulk analytics
//! prefix (batched BFS plus full-sweep CC and PageRank, no deadlines)
//! submitted just before a latency-class suffix of deadline-carrying
//! traversals. FIFO serves in arrival order, so the dated queries wait
//! behind every bulk sweep and blow their deadlines; EDF-within-priority
//! reorders them to the front and meets the same deadlines on the same
//! engine.
//!
//! Scheduling must never change answers: for every executed query, of
//! either policy, this experiment folds the output into an FNV-1a
//! digest and asserts it equal to a solo run of the same query on a
//! fresh engine — so the two schedulers' served outputs are
//! digest-equal by transitivity, checked on every invocation.

use super::scaled_machine;
use crate::table::{f, ms};
use crate::{cell, Context, Results, Table};
use emogi_core::{AccessMode, Engine, EngineConfig};
use emogi_graph::DatasetKey;
use emogi_serve::{
    Priority, Query, QueryOutcome, QueryResult, QueryServer, SchedPolicy, ServerConfig,
};
use std::sync::Arc;

/// Bulk-class BFS queries in the prefix (they share one batch).
const BULK_BFS: usize = 6;
/// PageRank iterations in the bulk prefix — the sweep the dated
/// queries wait behind under FIFO.
const BULK_PR_ITERS: u32 = 40;
/// Latency-class sources in the suffix (3 BFS + 1 SSSP).
const LATENCY_BFS: usize = 3;

/// One policy's serving outcome over the shared workload.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Queries admitted.
    pub queries: usize,
    /// Deadline-carrying queries that completed on time.
    pub deadline_met: u64,
    /// Deadline-carrying queries that executed but finished late.
    pub deadline_missed: u64,
    /// Deadline-carrying queries that expired in the queue, unexecuted.
    pub deadline_cancelled: u64,
    /// p99 completion latency over executed queries, ns (simulated,
    /// from submission at clock zero).
    pub p99_latency_ns: u64,
    /// Simulated time the engine spent executing batches, ns.
    pub busy_ns: u64,
}

impl Measurement {
    /// Fraction of deadline-carrying queries that met their deadline.
    pub fn hit_rate(&self) -> f64 {
        let total = self.deadline_met + self.deadline_missed + self.deadline_cancelled;
        if total == 0 {
            1.0
        } else {
            self.deadline_met as f64 / total as f64
        }
    }
}

/// The cell runner's digest of a result's output words, so "same
/// answer" is a single comparable number.
fn digest(r: &QueryResult) -> u64 {
    match r {
        QueryResult::Bfs(run) => cell::digest(cell::words(&run.output.levels)),
        QueryResult::Sssp(run) => cell::digest(cell::words(&run.output.dist)),
        QueryResult::Cc(run) => cell::digest(cell::words(&run.output.comp)),
        QueryResult::PageRank(run) => cell::digest(run.output.ranks.iter().map(|r| r.to_bits())),
    }
}

/// The mixed burst, in submission order: bulk prefix then latency
/// suffix. Returns `(query, is_latency_class)` pairs; deadlines are
/// attached later from measured solo costs.
fn workload(sources: &[u32], weights: &Arc<Vec<u32>>) -> Vec<(Query, bool)> {
    let mut q: Vec<(Query, bool)> = Vec::new();
    for &s in &sources[..BULK_BFS] {
        q.push((Query::bfs(s), false));
    }
    q.push((Query::cc(), false));
    q.push((Query::pagerank(0.85, BULK_PR_ITERS), false));
    for (i, &s) in sources[BULK_BFS..].iter().enumerate() {
        let query = if i < LATENCY_BFS {
            Query::bfs(s)
        } else {
            Query::sssp(s, Arc::clone(weights))
        };
        q.push((query.with_priority(Priority::Latency), true));
    }
    q
}

/// Run the identical workload under FIFO and EDF, asserting every
/// executed output digest-equal to a solo run as it goes.
pub fn measure(ctx: &Context) -> Results<&'static str, Measurement> {
    let gk = ctx.store.get(DatasetKey::Gk);
    let sources = gk.sources(BULK_BFS + LATENCY_BFS + 1);
    let weights = Arc::new(gk.weights.clone());
    let cfg = EngineConfig::emogi_v100()
        .with_mode(AccessMode::Hybrid)
        .with_machine(scaled_machine(ctx.scale));

    // Solo reference runs: per-query digests (the bit-identity oracle)
    // and elapsed times (the deadline calibration).
    let mut solo = Engine::load(cfg.clone(), &gk.graph);
    let mut solo_digest = Vec::new();
    let mut latency_solo_ns = 0u64;
    for (query, is_latency) in workload(&sources, &weights) {
        let result = match &query.spec {
            emogi_serve::QuerySpec::Bfs { src } => QueryResult::Bfs(solo.bfs(*src)),
            emogi_serve::QuerySpec::Sssp { src, weights } => {
                QueryResult::Sssp(solo.sssp(weights, *src))
            }
            emogi_serve::QuerySpec::Cc => QueryResult::Cc(solo.cc()),
            emogi_serve::QuerySpec::PageRank {
                damping,
                iterations,
            } => QueryResult::PageRank(solo.pagerank(*damping, *iterations)),
        };
        solo_digest.push(digest(&result));
        if is_latency {
            latency_solo_ns += result.stats().elapsed_ns;
        }
    }
    // A budget the latency class can only meet if scheduled first:
    // twice the class's total solo time — generous for an EDF server
    // that runs it up front, hopeless behind the bulk sweeps.
    let budget_ns = latency_solo_ns * 2;

    let mut rows = Vec::new();
    for (name, policy) in [("FIFO", SchedPolicy::Fifo), ("EDF", SchedPolicy::Edf)] {
        eprintln!("  sla: serving mixed burst under {name}");
        let mut server = QueryServer::new(
            ServerConfig {
                policy,
                ..ServerConfig::default()
            },
            Engine::load(cfg.clone(), &gk.graph),
        );
        let ids: Vec<_> = workload(&sources, &weights)
            .into_iter()
            .map(|(query, is_latency)| {
                let query = if is_latency {
                    // Never below the admission estimate, so every
                    // latency query is accepted under both policies.
                    let deadline = server.estimate_ns(&query).max(budget_ns);
                    query.with_deadline_ns(deadline)
                } else {
                    query
                };
                server.submit(query).expect("workload query admitted")
            })
            .collect();
        server.run_pending();

        let mut completions = Vec::new();
        for (i, id) in ids.into_iter().enumerate() {
            let outcome = server
                .take(id)
                .expect("every admitted query has an outcome");
            if let Some(ns) = outcome.completed_ns() {
                completions.push(ns);
            }
            if let QueryOutcome::DeadlineCancelled { .. } = outcome {
                continue;
            }
            let result = outcome.result().expect("executed queries carry results");
            assert_eq!(
                digest(result),
                solo_digest[i],
                "{name}: query {i} output diverged from its solo run"
            );
        }
        completions.sort_unstable();
        let p99 = completions[((completions.len() * 99).div_ceil(100)).saturating_sub(1)];
        let st = server.stats();
        let m = Measurement {
            queries: st.submitted as usize,
            deadline_met: st.deadline_met,
            deadline_missed: st.deadline_missed,
            deadline_cancelled: st.deadline_cancelled,
            p99_latency_ns: p99,
            busy_ns: st.busy_ns,
        };
        rows.push((name, m));
    }
    Results { rows }
}

/// The printable table.
pub fn table(r: &Results<&'static str, Measurement>) -> Table {
    let mut t = Table::new(
        "sla",
        "SLA scheduling: deadline-hit rate and p99 latency, EDF vs FIFO (mixed GK burst)",
        &[
            "policy",
            "queries",
            "deadlines met",
            "missed",
            "expired",
            "hit rate",
            "p99 latency (ms)",
            "busy (ms)",
        ],
    );
    for (policy, m) in &r.rows {
        t.row(vec![
            (*policy).into(),
            m.queries.to_string(),
            m.deadline_met.to_string(),
            m.deadline_missed.to_string(),
            m.deadline_cancelled.to_string(),
            f(m.hit_rate()),
            ms(m.p99_latency_ns),
            ms(m.busy_ns),
        ]);
    }
    t.note(
        "identical workload and engine under both policies: a bulk prefix (batched BFS, \
         CC, PageRank) ahead of a latency-class deadline-carrying suffix; EDF-within-\
         priority reorders the dated queries to the front, FIFO serves them late; every \
         executed output is asserted digest-equal to a solo run on every invocation",
    );
    t
}
