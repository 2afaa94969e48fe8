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
//! bit-identical between the two executions on every run.

use super::scaled_machine;
use crate::table::{f, ms};
use crate::{Context, Results, Table};
use emogi_core::{AccessMode, Engine, EngineConfig};
use emogi_graph::DatasetKey;
use emogi_runtime::RunStats;
use emogi_serve::{Query, QueryServer, ServerConfig};
use std::sync::Arc;

/// Queries per burst.
const BURST: usize = 8;

/// EMOGI-family engines of this experiment.
const MODES: &[(&str, AccessMode)] = &[
    ("Merged+Aligned", AccessMode::MergedAligned),
    ("Hybrid", AccessMode::Hybrid),
];

/// One (scenario, mode, execution) measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Queries in the burst.
    pub queries: usize,
    /// Total simulated time serving the burst, ns.
    pub total_ns: u64,
    /// Host→GPU payload bytes (shared fetches counted once).
    pub host_bytes: u64,
}

impl Measurement {
    /// Serving throughput, queries per simulated second.
    pub fn queries_per_sec(&self) -> f64 {
        self.queries as f64 / (self.total_ns as f64 * 1e-9)
    }
}

/// Cells keyed by (scenario, engine mode, `Sequential` | `Batched`).
pub type Cells = Results<(&'static str, &'static str, &'static str), Measurement>;

fn cfg(ctx: &Context, mode: AccessMode) -> EngineConfig {
    EngineConfig::emogi_v100()
        .with_mode(mode)
        .with_machine(scaled_machine(ctx.scale))
}

/// Run every (scenario, mode, execution) cell, asserting per-query
/// bit-identity between sequential and batched execution as it goes.
pub fn measure(ctx: &Context) -> Cells {
    let gk = ctx.store.get(DatasetKey::Gk);
    let sources = gk.sources(BURST);
    let weights = Arc::new(gk.weights.clone());
    let mut cells = Results { rows: Vec::new() };

    for &(mode_name, mode) in MODES {
        let engine_cfg = cfg(ctx, mode);
        measure_scenario(
            Cell {
                scenario: "bfs-burst",
                mode: mode_name,
                engine_cfg: engine_cfg.clone(),
                graph: &gk.graph,
                sources: &sources,
            },
            &mut cells,
            |engine, s| {
                let run = engine.bfs(s);
                (run.output.levels, run.stats)
            },
            |server, s| server.submit(Query::bfs(s)).expect("admission"),
            |result| {
                let run = result.into_bfs();
                (run.output.levels, run.stats)
            },
        );
        let w = Arc::clone(&weights);
        measure_scenario(
            Cell {
                scenario: "sssp-burst",
                mode: mode_name,
                engine_cfg,
                graph: &gk.graph,
                sources: &sources,
            },
            &mut cells,
            |engine, s| {
                let run = engine.sssp(&weights, s);
                (run.output.dist, run.stats)
            },
            |server, s| {
                server
                    .submit(Query::sssp(s, Arc::clone(&w)))
                    .expect("admission")
            },
            |result| {
                let run = result.into_sssp();
                (run.output.dist, run.stats)
            },
        );
    }
    cells
}

/// One (scenario, mode) cell's fixed inputs.
struct Cell<'a> {
    scenario: &'static str,
    mode: &'static str,
    engine_cfg: EngineConfig,
    graph: &'a emogi_graph::CsrGraph,
    sources: &'a [emogi_graph::VertexId],
}

/// Measure one cell: the burst sequentially on a fresh engine, then
/// batched on a fresh [`QueryServer`], asserting per-query bit-identity
/// (output vector and iteration count) between the two. The three
/// closures are the only program-kind-specific parts: run one query
/// solo, submit one query, and unwrap one result — both programs reduce
/// to a `Vec<u32>` output (levels / distances).
fn measure_scenario<'g>(
    cell: Cell<'g>,
    cells: &mut Cells,
    mut solo: impl FnMut(&mut Engine<'g>, emogi_graph::VertexId) -> (Vec<u32>, RunStats),
    mut submit: impl FnMut(&mut QueryServer<'g>, emogi_graph::VertexId) -> emogi_serve::QueryId,
    mut take: impl FnMut(emogi_serve::QueryOutcome) -> (Vec<u32>, RunStats),
) {
    eprintln!(
        "  [serve] {} {} ({} queries) ...",
        cell.scenario,
        cell.mode,
        cell.sources.len()
    );
    let mut seq = Engine::load(cell.engine_cfg.clone(), cell.graph);
    let mut seq_total = RunStats::default();
    let seq_runs: Vec<(Vec<u32>, RunStats)> = cell
        .sources
        .iter()
        .map(|&s| {
            let (out, stats) = solo(&mut seq, s);
            seq_total += &stats;
            (out, stats)
        })
        .collect();
    let sequential = Measurement {
        queries: cell.sources.len(),
        total_ns: seq_total.elapsed_ns,
        host_bytes: seq_total.host_bytes,
    };
    let key = (cell.scenario, cell.mode, "Sequential");
    cells.rows.push((key, sequential));

    let mut server = QueryServer::new(
        ServerConfig {
            max_batch: BURST,
            ..ServerConfig::default()
        },
        Engine::load(cell.engine_cfg, cell.graph),
    );
    let ids: Vec<_> = cell
        .sources
        .iter()
        .map(|&s| submit(&mut server, s))
        .collect();
    server.run_pending();
    for (id, (want, want_stats)) in ids.into_iter().zip(&seq_runs) {
        let (got, got_stats) = take(server.take(id).expect("served"));
        assert_eq!(
            &got, want,
            "{}/{}: batched result must be bit-identical",
            cell.scenario, cell.mode
        );
        assert_eq!(got_stats.kernel_launches, want_stats.kernel_launches);
    }
    let st = server.stats();
    let batched = Measurement {
        queries: cell.sources.len(),
        total_ns: st.busy_ns,
        host_bytes: st.host_bytes,
    };
    let key = (cell.scenario, cell.mode, "Batched");
    cells.rows.push((key, batched));
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
            m.queries.to_string(),
            ms(m.total_ns),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_saves_pcie_bytes_and_raises_throughput() {
        let ctx = Context::new(1, 32);
        let r = measure(&ctx); // bit-identity asserted inside
        for &(mode_name, _) in MODES {
            for scenario in ["bfs-burst", "sssp-burst"] {
                let seq = r.get((scenario, mode_name, "Sequential"));
                let bat = r.get((scenario, mode_name, "Batched"));
                assert!(
                    bat.host_bytes < seq.host_bytes,
                    "{scenario}/{mode_name}: batched {} bytes must beat sequential {}",
                    bat.host_bytes,
                    seq.host_bytes
                );
                assert!(
                    bat.total_ns < seq.total_ns,
                    "{scenario}/{mode_name}: batched {} ns must beat sequential {}",
                    bat.total_ns,
                    seq.total_ns
                );
                assert!(bat.queries_per_sec() > seq.queries_per_sec());
            }
        }
    }
}
