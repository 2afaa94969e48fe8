//! The `serve` experiment: batched multi-query serving vs sequential
//! execution of the same queries on the same shared placement.
//!
//! The workload is the analytics-service pattern the `emogi_serve`
//! crate exists for: a burst of N concurrent frontier-driven queries
//! (BFS and SSSP) against one placed graph. Sequential execution runs
//! them one at a time on one engine (so it still enjoys the warm cache
//! and, in hybrid mode, previously staged regions); batched execution
//! submits the burst to a [`QueryServer`], whose scheduler groups the
//! compatible queries into one [`emogi_core::Engine::run_batch`] launch
//! per iteration — each edge-list region crosses PCIe once and serves every
//! query touching it.
//!
//! The skewed GK graph makes the case: after a level or two every BFS
//! frontier contains the same hub vertices, so the union fetch is much
//! smaller than N solo fetches. Measured: total PCIe bytes (saved),
//! wall time and queries/second — with per-query results asserted
//! bit-identical between the two executions on every run. Both
//! executions run the same [`QuerySpec`]s: sequentially through the core
//! dispatcher ([`spec::run`]), batched through the server.

use super::scaled_machine;
use crate::table::{f, ms};
use crate::{cell, Context, Results, Table};
use emogi_core::{spec, Engine, EngineConfig};
use emogi_graph::{DatasetKey, VertexId};
use emogi_runtime::RunStats;
use emogi_serve::{QoS, Query, QueryServer, QuerySpec, ServerConfig, ServerStats};
use std::sync::Arc;

/// Queries per burst.
const BURST: usize = 8;

/// EMOGI-family engines of this experiment.
fn modes() -> [(&'static str, EngineConfig); 2] {
    [
        ("Merged+Aligned", EngineConfig::emogi_v100()),
        ("Hybrid", EngineConfig::hybrid_v100()),
    ]
}

/// Cells keyed by (scenario, engine mode, `Sequential` | `Batched`).
/// The value is the server's own [`ServerStats`]; a sequential cell is
/// the same counters for a server that runs every query as its own
/// batch.
pub type Cells = Results<(&'static str, &'static str, &'static str), ServerStats>;

/// Run every (scenario, mode, execution) cell, asserting per-query
/// bit-identity between sequential and batched execution as it goes.
pub fn measure(ctx: &Context) -> Cells {
    let gk = ctx.store.get(DatasetKey::Gk);
    let sources = gk.sources(BURST);
    let weights = Arc::new(gk.weights.clone());
    let mut cells = Results { rows: Vec::new() };

    for (mode, preset) in modes() {
        let cfg = preset.with_machine(scaled_machine(ctx.scale));
        let bfs: Vec<_> = sources.iter().map(|&src| QuerySpec::Bfs { src }).collect();
        let sssp = |&src: &VertexId| QuerySpec::Sssp {
            src,
            weights: Arc::clone(&weights),
        };
        let sssp: Vec<_> = sources.iter().map(sssp).collect();
        for (scenario, specs) in [("bfs-burst", bfs), ("sssp-burst", sssp)] {
            eprintln!("  [serve] {scenario} {mode} ({} queries) ...", specs.len());
            let (sequential, batched) = measure_scenario(&cfg, &gk.graph, &specs);
            cells
                .rows
                .push(((scenario, mode, "Sequential"), sequential));
            cells.rows.push(((scenario, mode, "Batched"), batched));
        }
    }
    cells
}

/// Measure one cell: the burst sequentially on a fresh engine, then
/// batched on a fresh [`QueryServer`], asserting per-query bit-identity
/// (output digest and iteration count) between the two.
fn measure_scenario(
    cfg: &EngineConfig,
    graph: &emogi_graph::CsrGraph,
    specs: &[QuerySpec],
) -> (ServerStats, ServerStats) {
    let mut seq = Engine::load(cfg.clone(), graph);
    let mut seq_total = RunStats::default();
    let seq_runs: Vec<_> = specs.iter().map(|s| spec::run(&mut seq, s)).collect();
    seq_runs.iter().for_each(|r| seq_total += r.stats());
    let queries = specs.len() as u64;
    let sequential = ServerStats {
        submitted: queries,
        served: queries,
        batches: queries,
        busy_ns: seq_total.elapsed_ns,
        host_bytes: seq_total.host_bytes,
        ..ServerStats::default()
    };

    let mut server = QueryServer::new(
        ServerConfig {
            max_batch: BURST,
            ..ServerConfig::default()
        },
        Engine::load(cfg.clone(), graph),
    );
    let submit = |spec: &QuerySpec| {
        let (spec, qos) = (spec.clone(), QoS::default());
        server.submit(Query { spec, qos }).expect("admission")
    };
    let ids: Vec<_> = specs.iter().map(submit).collect();
    server.run_pending();
    for (id, want) in ids.into_iter().zip(&seq_runs) {
        let got = server.take(id).expect("served").into_result();
        let got = got.expect("no deadline, so it ran");
        assert_eq!(
            cell::digest(&got),
            cell::digest(want),
            "batched result must be bit-identical"
        );
        assert_eq!(got.stats().kernel_launches, want.stats().kernel_launches);
    }
    (sequential, *server.stats())
}

/// The printable table.
pub fn table(r: &Cells) -> Table {
    let mut t = Table::new(
        "serve",
        "Concurrent query serving: batched multi-query execution vs sequential (GK burst)",
        &[
            "scenario",
            "mode",
            "execution",
            "queries",
            "time (ms)",
            "queries/s",
            "PCIe MB",
            "PCIe bytes saved",
        ],
    );
    for ((scenario, mode, execution), m) in &r.rows {
        let seq_bytes = r.get((scenario, mode, "Sequential")).host_bytes;
        let saved = if *execution == "Batched" && seq_bytes > 0 {
            format!(
                "{:.1}%",
                100.0 * (seq_bytes.saturating_sub(m.host_bytes)) as f64 / seq_bytes as f64
            )
        } else {
            "—".to_string()
        };
        t.row(vec![
            (*scenario).into(),
            (*mode).into(),
            (*execution).into(),
            m.served.to_string(),
            ms(m.busy_ns),
            f(m.queries_per_sec()),
            format!("{:.2}", m.host_bytes as f64 / 1e6),
            saved,
        ]);
    }
    t.note(
        "batched execution merges the per-iteration frontiers of all queries in a batch, \
         so each edge-list region crosses PCIe once and serves every query touching it; \
         per-query results are asserted bit-identical to the sequential runs on every \
         invocation of this experiment",
    );
    t
}
