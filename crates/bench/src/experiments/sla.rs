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
//! digest ([`cell::digest`]) and asserts it equal to a solo run of the
//! same spec ([`spec::run`]) on a fresh engine — so the two schedulers'
//! served outputs are digest-equal by transitivity, checked on every
//! invocation.

use super::scaled_machine;
use crate::table::{f, ms};
use crate::{cell, Context, Results, Table};
use emogi_core::{spec, Engine, EngineConfig};
use emogi_graph::DatasetKey;
use emogi_serve::{Priority, Query, QueryServer, SchedPolicy, ServerConfig, ServerStats};
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
    /// The server's own counters after the burst.
    pub stats: ServerStats,
    /// p99 completion latency over executed queries, ns (simulated,
    /// from submission at clock zero).
    pub p99_latency_ns: u64,
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
    let cfg = EngineConfig::hybrid_v100().with_machine(scaled_machine(ctx.scale));

    // Solo reference runs: per-query digests (the bit-identity oracle)
    // and elapsed times (the deadline calibration).
    let mut solo = Engine::load(cfg.clone(), &gk.graph);
    let mut solo_digest = Vec::new();
    let mut latency_solo_ns = 0u64;
    for (query, is_latency) in workload(&sources, &weights) {
        let result = spec::run(&mut solo, &query.spec);
        solo_digest.push(cell::digest(&result));
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
            // Deadline-cancelled queries never ran and carry no result.
            if let Some(result) = outcome.result() {
                assert_eq!(
                    cell::digest(result),
                    solo_digest[i],
                    "{name}: query {i} output diverged from its solo run"
                );
            }
        }
        completions.sort_unstable();
        let p99 = completions[((completions.len() * 99).div_ceil(100)).saturating_sub(1)];
        let m = Measurement {
            stats: *server.stats(),
            p99_latency_ns: p99,
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
            m.stats.submitted.to_string(),
            m.stats.deadline_met.to_string(),
            m.stats.deadline_missed.to_string(),
            m.stats.deadline_cancelled.to_string(),
            f(m.stats.deadline_hit_rate()),
            ms(m.p99_latency_ns),
            ms(m.stats.busy_ns),
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
