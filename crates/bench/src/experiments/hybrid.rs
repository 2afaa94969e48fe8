//! The `hybrid` experiment: the hybrid zero-copy/DMA transfer manager
//! against pure Merged+Aligned zero-copy, the UVM baseline and
//! Subway-async, on the Table 2 generators.
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
use emogi_baselines::{SubwayMode, SubwaySystem};
use emogi_core::{Engine, EngineConfig};
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

fn emogi_cfg(ctx: &Context, preset: EngineConfig) -> EngineConfig {
    preset
        .with_machine(scaled_machine(ctx.scale))
        .with_elem_bytes(4)
}

fn uvm_cfg(ctx: &Context) -> EngineConfig {
    EngineConfig::uvm_v100()
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
        for (engine, cfg) in [
            ("Hybrid", emogi_cfg(ctx, EngineConfig::hybrid_v100())),
            ("Merged+Aligned", emogi_cfg(ctx, EngineConfig::emogi_v100())),
            ("UVM", uvm_cfg(ctx)),
        ] {
            let mut e = Engine::load(cfg, &d.graph);
            let stats = cell::run(&mut e, series, &d, None).stats;
            rows.push(((scenario, engine), Measurement { graph, stats }));
        }
        // Subway is its own system, not an `Engine` (ML, the CC graph,
        // is undirected — `SubwaySystem::cc` asserts that itself).
        let mut sub =
            SubwaySystem::new(scaled_machine(ctx.scale), &d.graph, None, SubwayMode::Async);
        let mut stats = RunStats::default();
        match series {
            Series::Cc => stats += sub.cc().stats,
            _ => sources.iter().for_each(|&s| stats += sub.bfs(s).stats),
        }
        rows.push(((scenario, "Subway-async"), Measurement { graph, stats }));
    }
    Results { rows }
}

/// The printable table.
pub fn table(r: &Results<(&'static str, &'static str), Measurement>) -> Table {
    let mut t = Table::new(
        "hybrid",
        "Hybrid zero-copy/DMA vs Merged+Aligned vs UVM vs Subway (4-byte elements)",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_wins_reuse_and_ties_sparse() {
        let ctx = Context::new(1, 32);
        let r = measure(&ctx);
        let ns = |scenario, engine| r.get((scenario, engine)).stats.elapsed_ns;

        // Dense + recurring: hybrid must beat pure zero-copy outright.
        let hy_cc = ns("reuse-cc", "Hybrid");
        let zc_cc = ns("reuse-cc", "Merged+Aligned");
        assert!(
            hy_cc < zc_cc,
            "reuse-cc: hybrid {hy_cc} vs zero-copy {zc_cc}"
        );
        assert!(r.get(("reuse-cc", "Hybrid")).stats.transfer.staged_regions > 0);

        // Recurring across traversals: hybrid must beat zero-copy too.
        let hy_mb = ns("reuse-multi-bfs", "Hybrid");
        let zc_mb = ns("reuse-multi-bfs", "Merged+Aligned");
        assert!(
            hy_mb < zc_mb,
            "multi-bfs: hybrid {hy_mb} vs zero-copy {zc_mb}"
        );

        // Sparse one-shot: no staging, and never worse than the better of
        // zero-copy and Subway.
        let hy_sp = &r.get(("sparse-bfs", "Hybrid")).stats;
        let zc_sp = ns("sparse-bfs", "Merged+Aligned");
        let sub_sp = ns("sparse-bfs", "Subway-async");
        assert_eq!(
            hy_sp.transfer.staged_regions, 0,
            "sparse case must not stage"
        );
        assert!(
            hy_sp.elapsed_ns <= zc_sp.min(sub_sp),
            "sparse: hybrid {} vs zero-copy {zc_sp} / subway {sub_sp}",
            hy_sp.elapsed_ns
        );
    }
}
