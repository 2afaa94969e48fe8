//! The BFS case-study measurement matrix behind Figures 5, 7, 8, 9, 10:
//! every Table 2 graph × every engine (UVM baseline, Naive, Merged,
//! Merged+Aligned), averaged over the context's source vertices.

use crate::Context;
use emogi_core::{AccessStrategy, Engine, EngineConfig};
use emogi_graph::DatasetKey;
use emogi_sim::monitor::SizeHistogram;
use std::collections::BTreeMap;

/// One engine column of the §5.3 study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineKind {
    Uvm,
    Naive,
    Merged,
    MergedAligned,
}

impl EngineKind {
    pub fn all() -> [EngineKind; 4] {
        [
            EngineKind::Uvm,
            EngineKind::Naive,
            EngineKind::Merged,
            EngineKind::MergedAligned,
        ]
    }

    /// The three zero-copy implementations (Figure 5/7 columns).
    pub fn zero_copy() -> [EngineKind; 3] {
        [
            EngineKind::Naive,
            EngineKind::Merged,
            EngineKind::MergedAligned,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Uvm => "UVM",
            EngineKind::Naive => "Naive",
            EngineKind::Merged => "Merged",
            EngineKind::MergedAligned => "Merged+Aligned",
        }
    }

    pub fn config(self) -> EngineConfig {
        match self {
            EngineKind::Uvm => EngineConfig::uvm_v100(),
            EngineKind::Naive => EngineConfig::emogi_v100().with_strategy(AccessStrategy::Naive),
            EngineKind::Merged => EngineConfig::emogi_v100().with_strategy(AccessStrategy::Merged),
            EngineKind::MergedAligned => EngineConfig::emogi_v100(),
        }
    }
}

/// Averaged measurements of one (graph, engine) cell.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    pub avg_ns: f64,
    /// Mean over sources of each run's `avg_pcie_gbps()`.
    pub avg_gbps: f64,
    pub avg_amplification: f64,
    /// Total zero-copy read requests across all sources.
    pub requests: u64,
    pub sizes: SizeHistogram,
}

/// The full matrix.
#[derive(Debug)]
pub struct BfsMatrix {
    pub cells: BTreeMap<(DatasetKey, EngineKind), Cell>,
}

impl BfsMatrix {
    pub fn get(&self, g: DatasetKey, e: EngineKind) -> &Cell {
        &self.cells[&(g, e)]
    }

    /// Speedup of `e` over the UVM baseline on `g` (Figure 9's metric).
    pub fn speedup_vs_uvm(&self, g: DatasetKey, e: EngineKind) -> f64 {
        self.get(g, EngineKind::Uvm).avg_ns / self.get(g, e).avg_ns
    }

    pub fn compute(ctx: &Context) -> BfsMatrix {
        let mut cells = BTreeMap::new();
        for key in DatasetKey::all() {
            let d = ctx.store.get(key);
            let sources = d.sources(ctx.sources);
            for engine in EngineKind::all() {
                eprintln!("  [matrix] BFS {} / {} ...", d.spec.symbol, engine.name());
                let mut eng = Engine::load(engine.config(), &d.graph);
                let dataset = eng.dataset_bytes();
                let mut cell = Cell::default();
                for &s in &sources {
                    let run = eng.bfs(s);
                    cell.avg_ns += run.stats.elapsed_ns as f64;
                    cell.avg_gbps += run.stats.avg_pcie_gbps();
                    cell.avg_amplification += run.stats.amplification(dataset);
                    cell.requests += run.stats.pcie_read_requests;
                    cell.sizes += &run.stats.request_sizes;
                }
                let n = sources.len() as f64;
                cell.avg_ns /= n;
                cell.avg_gbps /= n;
                cell.avg_amplification /= n;
                cells.insert((key, engine), cell);
            }
        }
        BfsMatrix { cells }
    }
}
