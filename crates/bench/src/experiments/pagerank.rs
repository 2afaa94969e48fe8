//! The `pagerank` experiment: the generality proof for the vertex-program
//! engine. PageRank — a program the original paper never implemented —
//! runs through the *same* driver, generic kernel and transfer planner as
//! BFS/SSSP/CC, across every access mode, and is verified cell-by-cell
//! against the CPU reference.
//!
//! Full-sweep iteration makes PageRank the hybrid transport's best case:
//! every launch reads the whole edge list, so the ski-rental policy
//! stages everything early and later sweeps run at HBM speed: on GK at
//! 1/32 scale, ten hybrid sweeps take 0.52 ms against 0.85 ms zero-copy
//! on the same split-hub kernel. The machine is scaled like the `hybrid`
//! experiment so the edge list oversubscribes cache and device memory
//! even at reduced scale.

use super::scaled_machine;
use crate::cell::{self, Series, PR_DAMPING, PR_ITERATIONS};
use crate::table::ms;
use crate::{Context, Results, Table};
use emogi_core::{AccessStrategy, Engine, EngineConfig};
use emogi_graph::{algo, DatasetKey};
use emogi_runtime::RunStats;

/// One (graph, mode) measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub stats: RunStats,
    /// Largest absolute rank deviation from the CPU reference.
    pub max_abs_err: f64,
}

/// The five access modes, by the label the table prints: the paper's
/// three zero-copy strategies, zero-copy on the split-hub kernel, then
/// synchronous hybrid (which runs the split-hub kernel: compare it with
/// the row before it for transport alone).
fn modes() -> Vec<(&'static str, EngineConfig)> {
    let zero_copy = |s: AccessStrategy| (s.name(), EngineConfig::emogi_v100().with_strategy(s));
    let mut modes: Vec<_> = AccessStrategy::all().into_iter().map(zero_copy).collect();
    modes.push(zero_copy(AccessStrategy::MergedAlignedSplit));
    modes.push(("Hybrid", EngineConfig::hybrid_v100()));
    modes
}

/// Run PageRank on the skewed (GK) and dense (ML) graphs under all five
/// access modes, verifying every cell against [`algo::pagerank`].
pub fn measure(ctx: &Context) -> Results<(&'static str, &'static str), Measurement> {
    let mut rows = Vec::new();
    for key in [DatasetKey::Gk, DatasetKey::Ml] {
        let d = ctx.store.get(key);
        let want = algo::pagerank(&d.graph, PR_DAMPING, PR_ITERATIONS);
        for (mode, cfg) in modes() {
            eprintln!("  [pagerank] {} / {mode} ...", d.spec.symbol);
            let cfg = cfg.with_machine(scaled_machine(ctx.scale));
            let mut engine = Engine::load(cfg, &d.graph);
            let cell = cell::run(&mut engine, Series::PageRank, &d, None);
            let max_abs_err = cell
                .ranks
                .iter()
                .zip(&want)
                .map(|(&g, &w)| (g - w).abs())
                .fold(0.0f64, f64::max);
            assert!(
                max_abs_err < 1e-9,
                "{} / {mode}: max abs err {max_abs_err}",
                d.spec.symbol
            );
            let m = Measurement {
                stats: cell.stats,
                max_abs_err,
            };
            rows.push(((d.spec.symbol, mode), m));
        }
    }
    Results { rows }
}

/// The printable table.
pub fn table(r: &Results<(&'static str, &'static str), Measurement>) -> Table {
    let mut t = Table::new(
        "pagerank",
        "PageRank through the vertex-program engine (10 iterations, verified vs CPU)",
        &["graph", "mode", "time (ms)", "staged regions", "max |err|"],
    );
    for ((graph, mode), m) in &r.rows {
        t.row(vec![
            (*graph).into(),
            (*mode).into(),
            ms(m.stats.elapsed_ns),
            m.stats.transfer.staged_regions.to_string(),
            format!("{:.1e}", m.max_abs_err),
        ]);
    }
    t.note(format!(
        "a fourth vertex program with zero driver/kernel/transfer-planner changes; \
         full sweeps every iteration make it the hybrid transport's best case \
         (damping {PR_DAMPING}, every cell checked against the CPU reference)"
    ));
    t
}
