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
//! BFS case study behind Figures 5, 7, 8, 9, 10 runs each graph × engine
//! combination once). `benches/figures.rs` times each experiment end to
//! end on the host clock; the simulator's per-component micro-benchmarks
//! are the layer drivers of the `benchmark/` package.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod store;
pub mod table;

pub use store::DatasetStore;
pub use table::Table;

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
}

impl Context {
    pub fn new(sources: usize, scale: usize) -> Self {
        Self {
            sources,
            scale,
            store: DatasetStore::new(scale),
        }
    }
}

impl Default for Context {
    fn default() -> Self {
        Self::new(3, 1)
    }
}
