//! One `Engine` on one graph, queried one program at a time — the shape
//! `zc-aligned`, `uvm-baseline` and `hybrid-tiered` share. Every call
//! into the engine is timed through the stopwatch and every output is
//! verified outside the timed region.

use super::{dataset_bytes, Totals};
use crate::trace::{Phase, Stopwatch};
use crate::verify::{Checked, Verifier};
use emogi_repro::prelude::*;

pub struct Solo<'a, 'g> {
    pub sw: &'a mut Stopwatch,
    pub totals: &'a mut Totals,
    pub verifier: &'a mut Verifier,
    pub checked: &'a mut Vec<Checked>,
    pub engine: Engine<'g>,
    graph: &'g CsrGraph,
    /// `gk` or `gu`: prefixes the query labels.
    shape: &'static str,
    elem_bytes: u64,
}

impl<'a, 'g> Solo<'a, 'g> {
    /// Load `graph` under `cfg` (booked to set-up).
    pub fn load(
        sw: &'a mut Stopwatch,
        totals: &'a mut Totals,
        verifier: &'a mut Verifier,
        checked: &'a mut Vec<Checked>,
        cfg: EngineConfig,
        graph: &'g CsrGraph,
        shape: &'static str,
    ) -> Self {
        let elem_bytes = cfg.elem_bytes;
        let engine = sw.call(Phase::Setup, "core.engine.load", || {
            Engine::load(cfg, graph)
        });
        sw.attr("graph", shape);
        Self {
            sw,
            totals,
            verifier,
            checked,
            engine,
            graph,
            shape,
            elem_bytes,
        }
    }

    fn record(&mut self, program: &str, stats: &RunStats, weighted: bool) {
        self.sw.attr("program", program);
        self.sw.attr("graph", self.shape);
        self.sw.attr("sim_ns", stats.elapsed_ns);
        let bytes = dataset_bytes(self.graph, self.elem_bytes, weighted);
        self.totals.add_query(stats, bytes);
    }

    fn verdict(&mut self, sim_ns: u64, check: impl FnOnce(&mut Verifier) -> Checked) {
        let verifier = &mut *self.verifier;
        let verdict = self
            .sw
            .call(Phase::Untimed, "verify.reference", || check(verifier));
        self.checked.push(verdict.with_sim_ns(sim_ns));
    }

    pub fn bfs(&mut self, src: VertexId) -> BfsRun {
        let engine = &mut self.engine;
        let run = self
            .sw
            .call(Phase::Timed, "core.engine.run", || engine.bfs(src));
        self.sw.attr("source", src);
        self.record("bfs", &run.stats, false);
        let (graph, label) = (self.graph, format!("{}.bfs.{src}", self.shape));
        self.verdict(run.stats.elapsed_ns, |v| {
            v.bfs(label, graph, src, &run.levels)
        });
        run
    }

    pub fn sssp(&mut self, weights: &[u32], src: VertexId) {
        let engine = &mut self.engine;
        let run = self.sw.call(Phase::Timed, "core.engine.run", || {
            engine.sssp(weights, src)
        });
        self.sw.attr("source", src);
        self.record("sssp", &run.stats, true);
        let (graph, label) = (self.graph, format!("{}.sssp.{src}", self.shape));
        self.verdict(run.stats.elapsed_ns, |v| {
            v.sssp(label, graph, weights, src, &run.dist)
        });
    }

    pub fn cc(&mut self) {
        let engine = &mut self.engine;
        let run = self
            .sw
            .call(Phase::Timed, "core.engine.run", || engine.cc());
        self.record("cc", &run.stats, false);
        let (graph, label) = (self.graph, format!("{}.cc", self.shape));
        self.verdict(run.stats.elapsed_ns, |v| v.cc(label, graph, &run.comp));
    }

    pub fn pagerank(&mut self, damping: f64, iterations: u32) {
        let engine = &mut self.engine;
        let run = self.sw.call(Phase::Timed, "core.engine.run", || {
            engine.pagerank(damping, iterations)
        });
        self.record("pagerank", &run.stats, false);
        let (graph, label) = (self.graph, format!("{}.pagerank.{iterations}", self.shape));
        self.verdict(run.stats.elapsed_ns, |v| {
            v.pagerank(label, graph, damping, iterations, &run.ranks)
        });
    }

    /// Read the machine's own counters once the runs are over.
    pub fn finish(self) {
        self.totals.add_machine(&self.engine.machine);
    }
}
