//! # emogi-bench — the experiment harness
//!
//! Regenerates every table and figure of the EMOGI paper's evaluation
//! (§3.3 and §5) on the simulated platform. The entry point is the
//! `repro` binary:
//!
//! ```text
//! cargo run --release -p emogi_bench --bin repro -- all
//! cargo run --release -p emogi_bench --bin repro -- fig9 --sources 8
//! ```
//!
//! Figures that share measurements are derived from one run matrix (the
//! BFS case study behind Figures 5, 7–11 runs each graph × engine
//! combination once per [`Context`]). `repro` reports each experiment's
//! host wall time; the simulator's per-component micro-benchmarks are
//! the layer drivers of the `benchmark/` package.
//!
//! The harness is three pieces: [`cell::run`] (one program series on one
//! engine, folded into a `RunStats` and an output digest), [`Results`]
//! (what every `measure(&Context)` returns and every `table(&results)`
//! renders) and [`experiments::REGISTRY`] (the one list of ids).
//!
//! Table 3's baselines are configurations, run through [`cell::run`]:
//! HALO is the UVM engine over `LayoutPlan::bfs_ranked`, and Subway is
//! `EngineConfig::subway_v100()`, the compacted-subgraph transport that
//! `table3` and the `hybrid` experiment run.

#![forbid(unsafe_code)]

pub mod cell;
pub mod experiments;
pub mod paper;
pub mod results;
pub mod store;
pub mod table;

pub use results::Results;
pub use store::DatasetStore;
pub use table::Table;

use experiments::matrix::BfsMatrix;
use std::cell::OnceCell;
use std::rc::Rc;

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct Context {
    /// BFS/SSSP sources per (graph, engine) cell. The paper uses 64;
    /// the default here trades precision for wall-clock time and is
    /// configurable via `--sources`.
    pub sources: usize,
    /// Dataset scale divisor (1 = the standard ~1/1000-of-paper scale).
    pub scale: usize,
    pub store: DatasetStore,
    bfs_matrix: Rc<OnceCell<BfsMatrix>>,
}

impl Context {
    pub fn new(sources: usize, scale: usize) -> Self {
        Self {
            sources,
            scale,
            store: DatasetStore::new(scale),
            bfs_matrix: Rc::default(),
        }
    }

    /// The BFS case-study matrix behind Figures 5 and 7–11, computed on
    /// first use and shared by every clone of this context.
    pub fn bfs_matrix(&self) -> &BfsMatrix {
        self.bfs_matrix.get_or_init(|| BfsMatrix::compute(self))
    }
}

impl Default for Context {
    fn default() -> Self {
        Self::new(3, 1)
    }
}
