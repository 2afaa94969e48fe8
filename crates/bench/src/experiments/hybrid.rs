//! The `hybrid` experiment: the hybrid zero-copy/DMA transfer manager
//! against pure zero-copy, the UVM baseline and Subway-async, on the
//! Table 2 generators. Hybrid runs the split-hub kernel
//! ([`AccessStrategy::MergedAlignedSplit`]), and so does its zero-copy
//! row, so the two differ in transport only.
//!
//! Three scenarios span the transport trade-off space:
//!
//! * **reuse-cc** (ML, the dense graph) — CC hook passes sweep the whole
//!   edge list every pass: dense *and* recurring, the best case for bulk
//!   staging;
//! * **reuse-multi-bfs** (GK, the skewed graph) — several BFS traversals
//!   share one engine, the analytics-service pattern the place-once,
//!   query-many API exists for: regions recur across traversals and
//!   cross the policy's ski-rental point;
//! * **sparse-bfs** (GU, the uniform graph) — a single sparse traversal:
//!   no region recurs, so hybrid must degenerate to pure zero-copy and
//!   tie it exactly.
//!
//! Everything runs with 4-byte edge elements, the §5.6 protocol for
//! comparisons that include Subway. The cache and device capacities are
//! divided by the context's scale divisor, like the datasets themselves,
//! so the edge-list : cache : device-memory ratios that drive the
//! trade-off survive reduced-scale runs.

use super::scaled_machine;
use crate::cell::{self, Series};
use crate::table::{f, ms};
use crate::{Context, Results, Table};
use emogi_core::{AccessStrategy, Engine, EngineConfig};
use emogi_graph::DatasetKey;
use emogi_runtime::RunStats;

/// Sources per reuse-multi-bfs cell (the scenario is about cross-
/// traversal reuse, so it is fixed rather than taken from the context).
const MULTI_BFS_SOURCES: usize = 4;

/// One (scenario, engine) measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub graph: &'static str,
    /// The scenario's runs, folded; `stats.transfer` stays all-zero for
    /// the engines that never stage.
    pub stats: RunStats,
}

/// `preset` on the scaled machine, with 4-byte edge elements.
fn scaled(ctx: &Context, preset: EngineConfig) -> EngineConfig {
    preset
        .with_machine(scaled_machine(ctx.scale))
        .with_elem_bytes(4)
}

/// Run every (scenario, engine) cell.
pub fn measure(ctx: &Context) -> Results<(&'static str, &'static str), Measurement> {
    let mut rows = Vec::new();
    // (scenario, graph, BFS sources — `None` runs CC instead).
    for (scenario, key, bfs_sources) in [
        ("reuse-cc", DatasetKey::Ml, None),
        ("reuse-multi-bfs", DatasetKey::Gk, Some(MULTI_BFS_SOURCES)),
        ("sparse-bfs", DatasetKey::Gu, Some(1)),
    ] {
        let d = ctx.store.get(key);
        let graph = d.spec.symbol;
        let sources = d.sources(bfs_sources.unwrap_or(0));
        let series = match bfs_sources {
            Some(_) => Series::MultiBfs(&sources),
            None => Series::Cc,
        };
        eprintln!("  [hybrid] {scenario} {graph} ...");
        let split = AccessStrategy::MergedAlignedSplit;
        for (engine, cfg) in [
            ("Hybrid", scaled(ctx, EngineConfig::hybrid_v100())),
            (
                split.name(),
                scaled(ctx, EngineConfig::emogi_v100().with_strategy(split)),
            ),
            ("UVM", scaled(ctx, EngineConfig::uvm_v100())),
            ("Subway-async", scaled(ctx, EngineConfig::subway_v100())),
        ] {
            let mut e = Engine::load(cfg, &d.graph);
            let stats = cell::run(&mut e, series, &d, None).stats;
            rows.push(((scenario, engine), Measurement { graph, stats }));
        }
    }
    Results { rows }
}

/// The printable table.
pub fn table(r: &Results<(&'static str, &'static str), Measurement>) -> Table {
    let mut t = Table::new(
        "hybrid",
        "Hybrid zero-copy/DMA vs zero-copy (both split-hub) vs UVM vs Subway (4-byte elements)",
        &[
            "scenario",
            "graph",
            "engine",
            "time (ms)",
            "vs hybrid",
            "staged regions",
            "pool fallbacks",
        ],
    );
    for ((scenario, engine), m) in &r.rows {
        let hybrid_ns = r.get((scenario, "Hybrid")).stats.elapsed_ns;
        t.row(vec![
            (*scenario).into(),
            m.graph.into(),
            (*engine).into(),
            ms(m.stats.elapsed_ns),
            f(m.stats.elapsed_ns as f64 / hybrid_ns as f64),
            m.stats.transfer.staged_regions.to_string(),
            m.stats.transfer.pool_fallbacks.to_string(),
        ]);
    }
    t.note(
        "reuse scenarios: dense / recurring regions are bulk-staged into device memory \
         (DMA) and re-read at HBM speed; sparse-bfs: nothing recurs, the policy stages \
         nothing and hybrid ties pure zero-copy tick for tick",
    );
    t
}
