//! `uvm-baseline`: the *same* executor, cache and DMA engine used
//! differently — managed-space accesses, fault batching, page migration,
//! eviction — while the PCIe read-tag path idles. Also the denominator of
//! the paper's headline ratio: it replays the first BFS sources of
//! `zc-aligned` on the same two graphs.

use super::solo::Solo;
use super::zc_aligned::{GK_STREAM, GU_STREAM};
use super::{generate, get, Rep, Totals, Workload};
use crate::inputs::{self, Preset};
use crate::trace::Stopwatch;
use crate::verify::Verifier;
use emogi_repro::prelude::*;

const GK_BFS: usize = 1;
const GU_BFS: usize = 1;

pub struct UvmBaseline {
    seed: u64,
    preset: Preset,
    verifier: Verifier,
}

impl UvmBaseline {
    pub fn new(seed: u64, preset: Preset) -> Self {
        Self {
            seed,
            preset,
            verifier: Verifier::default(),
        }
    }
}

/// Distinct managed pages holding the neighbour lists of every vertex a
/// traversal visited: what the migrations were *for*. The managed edge
/// list starts page-aligned, so edge-list byte offsets map to pages
/// directly.
fn pages_needed(graph: &CsrGraph, visited: &[bool], elem_bytes: u64, page_bytes: u64) -> u64 {
    let pages = graph.edge_list_bytes(elem_bytes).div_ceil(page_bytes) as usize;
    let mut needed = vec![false; pages];
    for v in 0..graph.num_vertices() as VertexId {
        if visited[v as usize] && graph.degree(v) > 0 {
            let first = graph.neighbor_start(v) * elem_bytes / page_bytes;
            let last = (graph.neighbor_end(v) * elem_bytes - 1) / page_bytes;
            needed[first as usize..=last as usize].fill(true);
        }
    }
    needed.iter().filter(|&&n| n).count() as u64
}

impl Workload for UvmBaseline {
    fn repetition(&mut self, sw: &mut Stopwatch) -> Rep {
        let (seed, preset) = (self.seed, self.preset);
        let gk = generate(sw, "gk", || preset.gk(seed));
        let gu = generate(sw, "gu", || preset.gu(seed));
        let gk_sources = inputs::sources(&gk, GK_BFS, seed, GK_STREAM);
        let gu_sources = inputs::sources(&gu, GU_BFS, seed, GU_STREAM);

        let mut totals = Totals::default();
        let mut checked = Vec::new();
        let cfg = EngineConfig::uvm_v100();
        let page_bytes = cfg.machine.uvm.page_bytes;
        for (graph, shape, sources) in [(&gk, "gk", &gk_sources), (&gu, "gu", &gu_sources)] {
            let mut solo = Solo::load(
                sw,
                &mut totals,
                &mut self.verifier,
                &mut checked,
                cfg.clone(),
                graph,
                shape,
            );
            let mut visited = vec![false; graph.num_vertices()];
            for &src in sources {
                let run = solo.bfs(src);
                for (seen, &level) in visited.iter_mut().zip(&run.levels) {
                    *seen |= level != UNVISITED;
                }
            }
            solo.finish();
            totals.useful_pages += pages_needed(graph, &visited, cfg.elem_bytes, page_bytes);
        }

        let sim = totals.metrics();
        let mechanism = vec![
            ("page_faults > 0", get(&sim, "uvm.driver.page_faults") > 0.0),
            (
                "pcie_read_requests == 0",
                get(&sim, "sim.pcie.read_requests") == 0.0,
            ),
        ];
        Rep::of_verified(
            sim,
            checked,
            mechanism,
            (gk.num_edges() + gu.num_edges()) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_needed_counts_each_page_once() {
        // Four vertices of degree 600: at 8 B per element each list spans
        // 4800 B, i.e. the lists straddle 4 KiB page boundaries.
        let mut b = EdgeListBuilder::new(700).dedup(false);
        for v in 0..4u32 {
            for d in 0..600u32 {
                b.push(v, 4 + d);
            }
        }
        let g = b.build();
        assert_eq!(g.degree(0), 600);
        let total_pages = g.edge_list_bytes(8).div_ceil(4096);
        let all = vec![true; g.num_vertices()];
        assert_eq!(pages_needed(&g, &all, 8, 4096), total_pages);
        let mut only_first = vec![false; g.num_vertices()];
        only_first[0] = true;
        assert_eq!(pages_needed(&g, &only_first, 8, 4096), 2);
        let none = vec![false; g.num_vertices()];
        assert_eq!(pages_needed(&g, &none, 8, 4096), 0);
    }
}
