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
//!
//! A second table, `serve-k`, sweeps the batch width (`max_batch` 1, 2,
//! 4, 8) in the two regimes of ROADMAP item 11: the GK burst on the
//! scaled machine, whose edge list is several times the L2, and SSSP on
//! kronecker(14, 19), whose edges and weights fill 94 % of the full
//! V100's 6 MiB L2. That set-up is fixed rather than divided by
//! `--scale`: the regime is the ratio, and it is where item 11 measured
//! the pair loss.

use super::scaled_machine;
use crate::table::{f, ms};
use crate::{cell, Context, Results, Table};
use emogi_core::{spec, Engine, EngineConfig, ProgramRun};
use emogi_graph::datasets::generate_weights;
use emogi_graph::{generators, CsrGraph, DatasetKey, VertexId};
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
    graph: &CsrGraph,
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

    let (batched, runs) = serve(cfg, graph, specs, BURST);
    assert_identical(&runs, &seq_runs);
    (sequential, batched)
}

/// Serve `specs` as one burst on a fresh [`QueryServer`] with
/// `max_batch` queries per batch; its stats and the runs, in order.
fn serve(
    cfg: &EngineConfig,
    graph: &CsrGraph,
    specs: &[QuerySpec],
    max_batch: usize,
) -> (ServerStats, Vec<ProgramRun>) {
    let config = ServerConfig {
        max_batch,
        ..ServerConfig::default()
    };
    let mut server = QueryServer::new(config, Engine::load(cfg.clone(), graph));
    let submit = |spec: &QuerySpec| {
        let (spec, qos) = (spec.clone(), QoS::default());
        server.submit(Query { spec, qos }).expect("admission")
    };
    let ids: Vec<_> = specs.iter().map(submit).collect();
    server.run_pending();
    let take = |id| {
        let got = server.take(id).expect("served").into_result();
        got.expect("no deadline, so it ran")
    };
    let runs = ids.into_iter().map(take).collect();
    (*server.stats(), runs)
}

/// Per-query bit-identity: output digest and iteration count.
fn assert_identical(got: &[ProgramRun], want: &[ProgramRun]) {
    for (got, want) in got.iter().zip(want) {
        assert_eq!(
            cell::digest(got),
            cell::digest(want),
            "batched result must be bit-identical"
        );
        assert_eq!(got.stats().kernel_launches, want.stats().kernel_launches);
    }
}

/// Batch widths of the `serve-k` sweep.
pub const WIDTHS: [usize; 4] = [1, 2, 4, 8];
/// The sweep regime whose edge list is several times the L2.
pub const BEYOND_L2: &str = "GK, scaled L2";
/// The sweep regime whose working set nearly fills the L2.
pub const NEAR_L2: &str = "kron(14,19), 6 MiB L2";

/// Sweep cells keyed by (regime, program, `max_batch`).
pub type Sweep = Results<(&'static str, &'static str, usize), ServerStats>;

/// Serve each regime's burst at every width of [`WIDTHS`], asserting
/// every width's results bit-identical to the solo width's.
pub fn sweep(ctx: &Context) -> Sweep {
    let gk = ctx.store.get(DatasetKey::Gk);
    let gk_cfg = EngineConfig::emogi_v100().with_machine(scaled_machine(ctx.scale));
    let gk_weights = Arc::new(gk.weights.clone());
    let gk_sources = gk.sources(BURST);
    // ROADMAP item 11's set-up: the 16 highest-degree sources.
    let kron = generators::kronecker(14, 19, 20260928);
    let kron_weights = Arc::new(generate_weights(kron.num_edges(), 20260928));
    let mut by_degree: Vec<VertexId> = (0..kron.num_vertices() as VertexId).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(kron.degree(v)));
    by_degree.truncate(16);

    let bfs =
        |sources: &[VertexId]| Vec::from_iter(sources.iter().map(|&src| QuerySpec::Bfs { src }));
    let sssp = |sources: &[VertexId], weights: &Arc<Vec<u32>>| {
        let weights = |src| QuerySpec::Sssp {
            src,
            weights: Arc::clone(weights),
        };
        Vec::from_iter(sources.iter().copied().map(weights))
    };
    let regimes = [
        (BEYOND_L2, "bfs", &gk_cfg, &gk.graph, bfs(&gk_sources)),
        (
            BEYOND_L2,
            "sssp",
            &gk_cfg,
            &gk.graph,
            sssp(&gk_sources, &gk_weights),
        ),
        (
            NEAR_L2,
            "sssp",
            &EngineConfig::emogi_v100(),
            &kron,
            sssp(&by_degree, &kron_weights),
        ),
    ];
    let mut cells = Results { rows: Vec::new() };
    for (regime, program, cfg, graph, specs) in regimes {
        let mut solo = Vec::new();
        for k in WIDTHS {
            eprintln!("  [serve-k] {regime} {program} k={k} ...");
            let (stats, runs) = serve(cfg, graph, &specs, k);
            if k == 1 {
                solo = runs;
            } else {
                assert_identical(&runs, &solo);
            }
            cells.rows.push(((regime, program, k), stats));
        }
    }
    cells
}

/// The printable `serve-k` table.
pub fn sweep_table(r: &Sweep) -> Table {
    let mut t = Table::new(
        "serve-k",
        "Batch width sweep: one burst served at 1, 2, 4 and 8 queries per batch",
        &[
            "regime",
            "program",
            "queries/batch",
            "queries",
            "time (ms)",
            "PCIe MB",
            "time / solo",
        ],
    );
    for ((regime, program, k), m) in &r.rows {
        let solo = r.get((regime, program, 1)).busy_ns;
        t.row(vec![
            (*regime).into(),
            (*program).into(),
            k.to_string(),
            m.served.to_string(),
            ms(m.busy_ns),
            format!("{:.2}", m.host_bytes as f64 / 1e6),
            format!("{:.2}", m.busy_ns as f64 / solo as f64),
        ]);
    }
    t.note(
        "batch status is vertex-major (one destination's member entries share sectors) and \
         BFS members share one visit-mask word per vertex; per-query results are asserted \
         bit-identical to the solo width's on every invocation",
    );
    t
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
