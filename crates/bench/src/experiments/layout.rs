//! The `layout` experiment: cache-aware vertex reordering on GK — the
//! skewed Table 2 graph whose hubs dominate traffic — across all four
//! vertex programs.
//!
//! Each cell places a *relabeled* copy of GK (identity or
//! degree-sorted — see [`emogi_graph::reorder`]) on the same scaled
//! V100 and runs the same queries, mapping sources into the relabeled
//! id space and results back out through the plan's inverse. Outputs
//! are bit-identical across layouts by construction
//! (`tests/layout_differential.rs` pins every layout × program × mode
//! combination); this experiment measures the two things allowed to
//! move — the L2 sector hit rate and the coalescing efficiency of the
//! kernels' lane requests. Clustering hot vertices at low ids packs
//! their 4-byte status entries into few cache lines, so the dst-status
//! gathers of a skewed frontier hit resident sectors more often and
//! merge into fewer, fuller transactions.

use super::scaled_machine;
use crate::cell::{self, Series};
use crate::table::{f, ms, pct};
use crate::{Context, Results, Table};
use emogi_core::{Engine, EngineConfig};
use emogi_graph::reorder::LayoutPlan;
use emogi_graph::{CsrGraph, DatasetKey};
use emogi_runtime::RunStats;

/// Sources per BFS/SSSP cell (multi-query, like the `overlap`
/// experiment, so frontier reuse resembles a serving workload).
const SOURCES: usize = 4;

/// Simulated edge element size (4, matching the other GK experiments).
const ELEM_BYTES: u64 = 4;

/// The two layouts under comparison, built for `graph`.
fn plans(graph: &CsrGraph) -> [(&'static str, LayoutPlan); 2] {
    [
        ("original", LayoutPlan::identity(graph.num_vertices())),
        ("degree-sorted", LayoutPlan::degree_sorted(graph)),
    ]
}

/// Run every program over every layout of GK on the same platform; each
/// (program, layout) cell is its runs' folded stats.
pub fn measure(ctx: &Context) -> Results<(&'static str, &'static str), RunStats> {
    let gk = ctx.store.get(DatasetKey::Gk);
    let sources = gk.sources(SOURCES);
    let mut machine = scaled_machine(ctx.scale);
    // The paper's regime: the graph's working set oversubscribes the L2.
    // At reduced scale the status array would fit the scaled cache whole
    // (hiding any layout effect), so pin the cache to a quarter of it —
    // only a layout that concentrates the hot entries into few lines
    // keeps them resident under the edge stream's eviction pressure.
    let status_bytes = gk.graph.num_vertices() as u64 * 4;
    machine.gpu.cache.capacity_bytes = (status_bytes / 4).max(4 << 10);
    let mut rows = Vec::new();

    for series in Series::all(&sources) {
        let program = series.name();
        let mut base = None;
        for (layout_name, plan) in plans(&gk.graph) {
            eprintln!("  [layout] {program} GK / {layout_name} ...");
            let graph = plan.apply(&gk.graph);
            let cfg = EngineConfig::emogi_v100()
                .with_machine(machine.clone())
                .with_elem_bytes(ELEM_BYTES);
            let mut engine = Engine::load(cfg, &graph);
            let cell = cell::run(&mut engine, series, &gk, Some(&plan));
            // Iteration counts are layout-independent too — except CC's,
            // whose labels are vertex ids.
            let launches = (series != Series::Cc).then_some(cell.stats.kernel_launches);
            let witness = (cell.digest, launches);
            assert_eq!(
                *base.get_or_insert(witness),
                witness,
                "{program}: {layout_name} output diverged from the original layout"
            );
            rows.push(((program, layout_name), cell.stats));
        }
    }
    Results { rows }
}

/// The printable table.
pub fn table(r: &Results<(&'static str, &'static str), RunStats>) -> Table {
    let mut t = Table::new(
        "layout",
        "Cache-aware vertex reordering (degree-sorted) vs original ids on GK",
        &[
            "program",
            "layout",
            "L2 hit rate",
            "coalescing eff",
            "lane MiB",
            "txn MiB",
            "time (ms)",
        ],
    );
    let mib = |b: u64| f(b as f64 / (1 << 20) as f64);
    for ((program, layout), stats) in &r.rows {
        t.row(vec![
            (*program).into(),
            (*layout).into(),
            pct(stats.l2_hit_rate()),
            f(stats.coalescing_efficiency()),
            mib(stats.lane_bytes),
            mib(stats.txn_bytes),
            ms(stats.elapsed_ns),
        ]);
    }
    t.note(
        "each layout runs the same queries on a relabeled copy of GK, sources mapped in \
         and results mapped back through the plan's inverse permutation — outputs are \
         bit-identical across layouts (pinned by tests/layout_differential.rs); packing \
         hot vertices at low ids concentrates their status entries into few cache lines, \
         raising the L2 sector hit rate and merging dst-status gathers into fewer, \
         fuller transactions",
    );
    t
}
