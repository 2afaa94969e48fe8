//! Connected components as a [`VertexProgram`] (Shiloach-Vishkin-style
//! hook + shortcut, after the GARDENIA baseline the paper builds on,
//! its reference \[51\]).
//!
//! "With CC, instead of picking a specific vertex to start with, all
//! vertices are set as root vertices and the entire edge list is
//! traversed" (§5.4) — CC is the canonical
//! [`AccessPattern::FullSweep`] program: every hook pass streams the
//! whole edge list, which is why CC shows the most spatial locality of
//! the three applications and the smallest EMOGI-over-UVM gain. The
//! shortcut (pointer-jumping) passes touch only the device-resident
//! label array; the program reports them as inter-launch device work.

use crate::program::{join_min, AccessPattern, DeviceWork, EdgeEffect, EdgeFn, VertexProgram};
use emogi_graph::{CsrGraph, VertexId};

/// CC result: per-vertex component labels (the smallest vertex id of the
/// component) and the number of hook passes it took to converge.
#[derive(Debug, Clone)]
pub struct CcOutput {
    /// Per-vertex component label (smallest vertex id in the component).
    pub comp: Vec<u32>,
    /// Hook passes until convergence.
    pub hook_passes: u64,
}

/// The CC vertex program. Per-vertex state: the device-resident label
/// array (semantic copy) plus its iteration-start snapshot.
#[derive(Clone)]
pub struct CcProgram {
    comp: Vec<u32>,
    /// Iteration-start snapshot of `comp`: hooks read neighbour labels
    /// from here, so a pass's result is a pure function of its start
    /// state — independent of warp interleaving and of how the sweep is
    /// sharded across devices.
    prev: Vec<u32>,
    changed: bool,
    hook_passes: u64,
}

impl CcProgram {
    /// CC over `graph`, which must be undirected.
    pub fn new(graph: &CsrGraph) -> Self {
        assert!(
            graph.is_undirected(),
            "CC requires an undirected graph (the paper skips SK/UK5 for CC)"
        );
        Self {
            comp: (0..graph.num_vertices() as u32).collect(),
            prev: Vec::new(),
            changed: false,
            hook_passes: 0,
        }
    }
}

/// One launch's edge view of a [`CcProgram`]: the live labels, their
/// pass-start snapshot and the changed flag.
pub struct CcEdges<'a> {
    prev: &'a [u32],
    comp: &'a mut [u32],
    changed: &'a mut bool,
}

impl EdgeFn<()> for CcEdges<'_> {
    /// Hook: the source adopts the smaller of its own live label and the
    /// neighbour's **iteration-start** label. Reading the neighbour from
    /// the pass-start snapshot makes the pass a commutative min-fold —
    /// `comp'[v] = min(comp[v], min of start labels of N(v))` — so its
    /// result (and the pass count to convergence) is identical no matter
    /// how warps interleave or how the sweep is sharded across devices.
    fn edge(&mut self, _i: u64, src: VertexId, dst: VertexId, _ctx: ()) -> EdgeEffect {
        let cd = self.prev[dst as usize];
        if cd < self.comp[src as usize] {
            self.comp[src as usize] = cd;
            *self.changed = true;
            EdgeEffect::UpdateSrc
        } else {
            EdgeEffect::None
        }
    }
}

impl VertexProgram for CcProgram {
    type Ctx = ();
    type Output = CcOutput;
    type Edges<'a> = CcEdges<'a>;

    fn pattern(&self) -> AccessPattern {
        AccessPattern::FullSweep
    }

    fn reads_source_status(&self) -> bool {
        true
    }

    fn begin_iteration(&mut self) {
        self.changed = false;
        self.hook_passes += 1;
        self.prev.clone_from(&self.comp);
    }

    fn source_ctx(&self, _v: VertexId) -> Self::Ctx {}

    fn edges(&mut self) -> CcEdges<'_> {
        CcEdges {
            prev: &self.prev,
            comp: &mut self.comp,
            changed: &mut self.changed,
        }
    }

    /// Pointer-jumping shortcut after each hook pass. Pure device-array
    /// work: charge two 4-byte streams (read + gather) per pass.
    /// A hook only lowers its source's label: the minimum label, and a
    /// change if either side changed.
    fn join(&mut self, replica: &Self) {
        join_min(&mut self.comp, &replica.comp);
        self.changed |= replica.changed;
    }

    fn post_iteration(&mut self, work: &mut DeviceWork) {
        let jump_passes = shortcut(&mut self.comp);
        for _ in 0..jump_passes {
            work.bulk_read(self.comp.len() as u64 * 8);
        }
    }

    fn converged(&self) -> bool {
        !self.changed
    }

    fn finish(self) -> CcOutput {
        CcOutput {
            comp: self.comp,
            hook_passes: self.hook_passes,
        }
    }
}

/// Pointer-jumping shortcut: `comp[v] = comp[comp[v]]` to fixpoint.
/// Returns the number of jump passes so their cost can be charged.
pub fn shortcut(comp: &mut [u32]) -> u32 {
    let mut passes = 0;
    loop {
        passes += 1;
        let mut changed = false;
        for v in 0..comp.len() {
            let c = comp[v] as usize;
            let cc = comp[c];
            if comp[v] != cc {
                comp[v] = cc;
                changed = true;
            }
        }
        if !changed {
            return passes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use emogi_graph::generators;

    #[test]
    fn shortcut_compresses_chains() {
        let mut comp = vec![0, 0, 1, 2, 3];
        let passes = shortcut(&mut comp);
        assert_eq!(comp, vec![0; 5]);
        assert!(passes >= 2);
    }

    #[test]
    #[should_panic(expected = "undirected")]
    fn directed_graph_rejected() {
        let g = generators::web_crawl(100, 4, 20, 0.8, 1);
        let _ = CcProgram::new(&g);
    }

    #[test]
    fn full_pass_streams_whole_edge_list() {
        let g = generators::uniform_random(512, 8, 11);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let run = engine.cc();
        // Every hook pass must read at least every edge element once
        // (8 bytes each) — plus alignment overfetch, minus cache hits on
        // later passes; the first pass alone covers the edge list.
        assert!(run.stats.host_bytes >= g.num_edges() as u64 * 8);
    }
}
