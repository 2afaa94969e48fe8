//! The closed program vocabulary: *which* of the four shipped programs,
//! and how to run one from a description.
//!
//! [`VertexProgram`] is open — anyone can write a fifth algorithm and
//! hand it to [`Engine::run`]. What ships is closed: BFS, SSSP, CC and
//! PageRank. Every consumer that holds a *description* of a run rather
//! than a typed program (a server's queue, an experiment's cell list, a
//! test harness's "all four programs" loop) needs the same three things
//! — a value naming the program and its inputs ([`ProgramSpec`]), its
//! compatibility key ([`ProgramKind`]) and the finished run
//! ([`ProgramRun`]) — and the same decision: build the typed program,
//! run it on whichever front is at hand. That decision is made here,
//! once: [`run`] executes one spec, [`run_group`] a kind-pure group.
//!
//! Both are generic over [`Front`], the three things a description
//! needs from an engine: the placed graph, the link bandwidth (for cost
//! models) and "run one `VertexProgram`". [`Engine`] additionally merges
//! a frontier-driven group's frontiers ([`Engine::run_batch`]); a front
//! without that path — [`ShardedEngine`] — runs every group back to
//! back.
//!
//! ```
//! use emogi_core::spec::{self, ProgramRun, ProgramSpec};
//! use emogi_core::{Engine, EngineConfig, ShardedConfig, ShardedEngine};
//! use emogi_graph::generators;
//!
//! let graph = generators::uniform_random(500, 6, 7);
//! let bfs = ProgramSpec::Bfs { src: 3 };
//! let mut one = Engine::load(EngineConfig::emogi_v100(), &graph);
//! let mut two = ShardedEngine::load(ShardedConfig::emogi_v100(2), &graph);
//! let (a, b) = (spec::run(&mut one, &bfs), spec::run(&mut two, &bfs));
//! match (a, b) {
//!     (ProgramRun::Bfs(a), ProgramRun::Bfs(b)) => assert_eq!(a.levels, b.levels),
//!     other => unreachable!("a BFS spec runs BFS: {other:?}"),
//! }
//! ```

use crate::batch::BatchRun;
use crate::bfs::{BfsOutput, BfsProgram};
use crate::cc::{CcOutput, CcProgram};
use crate::engine::{Engine, Run};
use crate::pagerank::{PageRankOutput, PageRankProgram};
use crate::program::VertexProgram;
use crate::sharded::{ShardedEngine, ShardedRun};
use crate::sssp::{SsspOutput, SsspProgram};
use emogi_graph::{CsrGraph, LayoutPlan, VertexId};
use emogi_runtime::RunStats;
use std::sync::Arc;

/// What to compute: a frontier-driven traversal from a source, or a
/// full-sweep analytic over the whole graph.
#[derive(Debug, Clone)]
pub enum ProgramSpec {
    /// Breadth-first search from a source vertex.
    Bfs {
        /// The BFS root.
        src: VertexId,
    },
    /// Single-source shortest paths from a source vertex with one 4-byte
    /// weight per edge.
    Sssp {
        /// The SSSP root.
        src: VertexId,
        /// Per-edge weights, shared cheaply between specs over the same
        /// weight assignment.
        weights: Arc<Vec<u32>>,
    },
    /// Connected components over the whole graph (full sweep).
    Cc,
    /// PageRank over the whole graph (full sweep).
    PageRank {
        /// Damping factor (the usual 0.85).
        damping: f64,
        /// Power iterations to run.
        iterations: u32,
    },
}

impl ProgramSpec {
    /// The program this spec names.
    pub fn kind(&self) -> ProgramKind {
        match self {
            ProgramSpec::Bfs { .. } => ProgramKind::Bfs,
            ProgramSpec::Sssp { .. } => ProgramKind::Sssp,
            ProgramSpec::Cc => ProgramKind::Cc,
            ProgramSpec::PageRank { .. } => ProgramKind::PageRank,
        }
    }

    /// The source vertex; `None` for full-sweep analytics.
    pub fn src(&self) -> Option<VertexId> {
        match self {
            ProgramSpec::Bfs { src } | ProgramSpec::Sssp { src, .. } => Some(*src),
            ProgramSpec::Cc | ProgramSpec::PageRank { .. } => None,
        }
    }
}

/// One of the four shipped programs — the compatibility key groups are
/// formed by: only specs of the same kind (on the same placement) share
/// a group, and only [`batchable`](Self::batchable) kinds share fetches.
/// `kind as usize` is a dense index into [`ALL`](Self::ALL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramKind {
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// Connected components (full sweep).
    Cc,
    /// PageRank (full sweep).
    PageRank,
}

impl ProgramKind {
    /// Every kind, in declaration (= index) order.
    pub const ALL: [ProgramKind; 4] = [Self::Bfs, Self::Sssp, Self::Cc, Self::PageRank];

    /// Whether runs of this kind can share fetches. Frontier-driven
    /// kinds batch (their frontiers merge); full-sweep kinds read the
    /// whole edge list every launch anyway and run solo.
    pub fn batchable(self) -> bool {
        matches!(self, ProgramKind::Bfs | ProgramKind::Sssp)
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ProgramKind::Bfs => "BFS",
            ProgramKind::Sssp => "SSSP",
            ProgramKind::Cc => "CC",
            ProgramKind::PageRank => "PageRank",
        }
    }
}

/// A finished spec: the program output plus the run's measurements.
///
/// Stats of runs that shared a merged group are flagged
/// [`shared_fetch`](RunStats::shared_fetch): their PCIe counters
/// describe iteration traffic that also served the group's other runs.
#[derive(Debug, Clone)]
pub enum ProgramRun {
    /// A finished BFS.
    Bfs(Run<BfsOutput>),
    /// A finished SSSP.
    Sssp(Run<SsspOutput>),
    /// A finished connected-components sweep.
    Cc(Run<CcOutput>),
    /// A finished PageRank sweep.
    PageRank(Run<PageRankOutput>),
}

impl ProgramRun {
    /// The kind of spec this run came from.
    pub fn kind(&self) -> ProgramKind {
        match self {
            ProgramRun::Bfs(_) => ProgramKind::Bfs,
            ProgramRun::Sssp(_) => ProgramKind::Sssp,
            ProgramRun::Cc(_) => ProgramKind::Cc,
            ProgramRun::PageRank(_) => ProgramKind::PageRank,
        }
    }

    /// The run's measurements, whichever program produced them.
    pub fn stats(&self) -> &RunStats {
        match self {
            ProgramRun::Bfs(r) => &r.stats,
            ProgramRun::Sssp(r) => &r.stats,
            ProgramRun::Cc(r) => &r.stats,
            ProgramRun::PageRank(r) => &r.stats,
        }
    }

    /// The output array as comparable words: levels, distances and
    /// labels widened, `f64` ranks by bit pattern. Every digest and every
    /// "same answer" comparison goes through this one mapping.
    pub fn words(&self) -> Vec<u64> {
        let wide = |v: &[u32]| v.iter().map(|&x| u64::from(x)).collect();
        match self {
            ProgramRun::Bfs(r) => wide(&r.levels),
            ProgramRun::Sssp(r) => wide(&r.dist),
            ProgramRun::Cc(r) => wide(&r.comp),
            ProgramRun::PageRank(r) => r.ranks.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// [`words`](Self::words) of a run over `plan.apply(graph)`, mapped
    /// back to the original vertex ids so they compare across layouts.
    /// CC's labels *are* vertex ids: they are canonicalized to each
    /// component's smallest original id, not permuted.
    pub fn unmapped_words(&self, plan: &LayoutPlan) -> Vec<u64> {
        match self {
            ProgramRun::Cc(r) => {
                let canonical = plan.unmap_components(&r.comp);
                canonical.into_iter().map(u64::from).collect()
            }
            _ => plan.unmap_values(&self.words()),
        }
    }

    /// A full sweep's pass count — CC's hook passes, PageRank's power
    /// iterations; `None` for the traversals, whose only count is the
    /// launch count in [`stats`](Self::stats).
    pub fn passes(&self) -> Option<u64> {
        match self {
            ProgramRun::Bfs(_) | ProgramRun::Sssp(_) => None,
            ProgramRun::Cc(r) => Some(r.hook_passes),
            ProgramRun::PageRank(r) => Some(u64::from(r.iterations)),
        }
    }
}

/// What running a description needs from an engine. `'g` is the placed
/// graph's lifetime: programs borrow the graph, not the front, so one
/// can be built from [`graph`](Self::graph) and handed straight back to
/// [`run_program`](Self::run_program).
pub trait Front<'g> {
    /// The placed graph every program runs against.
    fn graph(&self) -> &'g CsrGraph;

    /// Effective host-link payload bandwidth in bytes per simulated ns
    /// (cost models convert estimated traffic into time with it).
    fn link_bytes_per_ns(&self) -> f64;

    /// Run one program to convergence against the placement.
    fn run_program<P: VertexProgram>(&mut self, program: P) -> Run<P::Output>;

    /// Run same-type frontier-driven programs over their merged
    /// frontiers, if this front has such a path; `None` (the default,
    /// without consuming `programs`) sends the group back to back.
    fn run_merged<P: VertexProgram>(
        &mut self,
        _programs: impl Iterator<Item = P>,
    ) -> Option<BatchRun<P::Output>> {
        None
    }
}

impl<'g> Front<'g> for Engine<'g> {
    fn graph(&self) -> &'g CsrGraph {
        Engine::graph(self)
    }

    fn link_bytes_per_ns(&self) -> f64 {
        Engine::link_bytes_per_ns(self)
    }

    fn run_program<P: VertexProgram>(&mut self, program: P) -> Run<P::Output> {
        self.run(program)
    }

    fn run_merged<P: VertexProgram>(
        &mut self,
        programs: impl Iterator<Item = P>,
    ) -> Option<BatchRun<P::Output>> {
        Some(self.run_batch(programs.collect()))
    }
}

/// Every program runs sharded across the full device group — this front
/// shares devices, not fetches — and reports the group-level totals.
impl<'g> Front<'g> for ShardedEngine<'g> {
    fn graph(&self) -> &'g CsrGraph {
        ShardedEngine::graph(self)
    }

    fn link_bytes_per_ns(&self) -> f64 {
        ShardedEngine::link_bytes_per_ns(self)
    }

    fn run_program<P: VertexProgram>(&mut self, program: P) -> Run<P::Output> {
        let ShardedRun { output, stats, .. } = self.run(program);
        Run { output, stats }
    }
}

/// Run one spec solo on `front`.
pub fn run<'g, F: Front<'g>>(front: &mut F, spec: &ProgramSpec) -> ProgramRun {
    let g = front.graph();
    match spec {
        ProgramSpec::Bfs { src } => ProgramRun::Bfs(front.run_program(BfsProgram::new(g, *src))),
        ProgramSpec::Sssp { src, weights } => {
            ProgramRun::Sssp(front.run_program(SsspProgram::new(g, weights, *src)))
        }
        ProgramSpec::Cc => ProgramRun::Cc(front.run_program(CcProgram::new(g))),
        ProgramSpec::PageRank {
            damping,
            iterations,
        } => {
            ProgramRun::PageRank(front.run_program(PageRankProgram::new(g, *damping, *iterations)))
        }
    }
}

/// A finished kind-pure group.
#[derive(Debug, Clone, Default)]
pub struct GroupRun {
    /// One run per spec, in the group's order.
    pub runs: Vec<ProgramRun>,
    /// What the whole group cost: the machine diff of a merged group
    /// (each shared fetch counted once), the `+=` fold of a back-to-back
    /// one.
    pub stats: RunStats,
    /// Whether the group went through the front's merged-frontier path.
    pub shared: bool,
}

/// Run a kind-pure group on `front`: a [`batchable`](ProgramKind::batchable)
/// kind through the front's merged path where it has one (a group of one
/// included — it is tick-identical to a solo run), everything else back
/// to back through [`run`]. Panics on an empty or mixed-kind group.
pub fn run_group<'g, F: Front<'g>>(front: &mut F, specs: &[&ProgramSpec]) -> GroupRun {
    fn merged<O>(batch: BatchRun<O>, wrap: fn(Run<O>) -> ProgramRun) -> GroupRun {
        GroupRun {
            runs: batch.runs.into_iter().map(wrap).collect(),
            stats: batch.stats,
            shared: true,
        }
    }
    let g = front.graph();
    let kind = specs.first().expect("empty group").kind();
    assert!(specs.iter().all(|s| s.kind() == kind), "mixed-kind group");
    let group = match kind {
        ProgramKind::Bfs => {
            let sources = specs.iter().filter_map(|s| s.src());
            let batch = front.run_merged(sources.map(|src| BfsProgram::new(g, src)));
            batch.map(|b| merged(b, ProgramRun::Bfs))
        }
        ProgramKind::Sssp => {
            let batch = front.run_merged(specs.iter().filter_map(|s| match s {
                ProgramSpec::Sssp { src, weights } => Some(SsspProgram::new(g, weights, *src)),
                _ => None,
            }));
            batch.map(|b| merged(b, ProgramRun::Sssp))
        }
        ProgramKind::Cc | ProgramKind::PageRank => None,
    };
    if let Some(group) = group {
        return group;
    }
    let mut group = GroupRun::default();
    for spec in specs {
        let r = run(front, spec);
        group.stats += r.stats();
        group.runs.push(r);
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::sharded::ShardedConfig;
    use emogi_graph::datasets::generate_weights;
    use emogi_graph::generators;

    /// `(output words, stats)` of a run, whichever path produced it.
    fn flat(run: ProgramRun) -> (Vec<u64>, RunStats) {
        (run.words(), run.stats().clone())
    }

    /// The refactor's own tick-identity proof: for every program, the
    /// dispatcher — solo and as a group of one — returns the output and
    /// the full `RunStats` of the typed call on a fresh engine, on the
    /// single-device engine and on the sharded engine at 1 and 2 devices.
    #[test]
    fn spec_path_equals_typed_path_on_every_front() {
        let g = generators::kronecker(8, 8, 21);
        let w = Arc::new(generate_weights(g.num_edges(), 21));
        let specs = [
            ProgramSpec::Bfs { src: 1 },
            ProgramSpec::Sssp {
                src: 1,
                weights: Arc::clone(&w),
            },
            ProgramSpec::Cc,
            ProgramSpec::PageRank {
                damping: 0.85,
                iterations: 6,
            },
        ];
        for spec in &specs {
            let kind = spec.kind();

            let fresh = || Engine::load(EngineConfig::hybrid_v100(), &g);
            let typed = match kind {
                ProgramKind::Bfs => ProgramRun::Bfs(fresh().bfs(1)),
                ProgramKind::Sssp => ProgramRun::Sssp(fresh().sssp(&w, 1)),
                ProgramKind::Cc => ProgramRun::Cc(fresh().cc()),
                ProgramKind::PageRank => ProgramRun::PageRank(fresh().pagerank(0.85, 6)),
            };
            let typed = flat(typed);
            assert_eq!(flat(run(&mut fresh(), spec)), typed, "{kind:?} solo");
            let mut group = run_group(&mut fresh(), &[spec]);
            assert_eq!(group.shared, kind.batchable(), "{kind:?} group path");
            assert_eq!(group.stats, typed.1, "{kind:?} group total");
            let only = group.runs.pop().expect("one spec, one run");
            assert_eq!(flat(only), typed, "{kind:?} group of one");

            for devices in [1usize, 2] {
                let fresh = || ShardedEngine::load(ShardedConfig::emogi_v100(devices), &g);
                let (output, stats) = match kind {
                    ProgramKind::Bfs => flat_sharded(fresh().bfs(1), ProgramRun::Bfs),
                    ProgramKind::Sssp => flat_sharded(fresh().sssp(&w, 1), ProgramRun::Sssp),
                    ProgramKind::Cc => flat_sharded(fresh().cc(), ProgramRun::Cc),
                    ProgramKind::PageRank => {
                        flat_sharded(fresh().pagerank(0.85, 6), ProgramRun::PageRank)
                    }
                };
                let tag = format!("{kind:?} at {devices} devices");
                assert_eq!(output, typed.0, "{tag}: sharding changes no output");
                let typed = (output, stats);
                assert_eq!(flat(run(&mut fresh(), spec)), typed, "{tag} solo");
                let group = run_group(&mut fresh(), &[spec]);
                assert!(!group.shared, "{tag}: sharded groups run back to back");
                assert_eq!(group.stats, typed.1, "{tag} group total");
                assert_eq!(flat(group.runs[0].clone()), typed, "{tag} group of one");
            }
        }
    }

    fn flat_sharded<O>(r: ShardedRun<O>, wrap: fn(Run<O>) -> ProgramRun) -> (Vec<u64>, RunStats) {
        flat(wrap(Run {
            output: r.output,
            stats: r.stats,
        }))
    }

    #[test]
    fn groups_merge_on_the_engine_and_run_back_to_back_elsewhere() {
        let g = generators::uniform_random(400, 6, 5);
        let specs: Vec<ProgramSpec> = [0, 7, 42].map(|src| ProgramSpec::Bfs { src }).into();
        let refs: Vec<&ProgramSpec> = specs.iter().collect();

        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let merged = run_group(&mut engine, &refs);
        assert!(merged.shared);
        assert!(merged.runs.iter().all(|r| r.stats().shared_fetch));

        let mut sharded = ShardedEngine::load(ShardedConfig::emogi_v100(2), &g);
        let serial = run_group(&mut sharded, &refs);
        assert!(!serial.shared);
        let mut fold = RunStats::default();
        for (a, b) in merged.runs.iter().zip(&serial.runs) {
            assert_eq!(flat(a.clone()).0, flat(b.clone()).0, "same answers");
            fold += b.stats();
        }
        assert_eq!(serial.stats, fold, "a back-to-back total is the += fold");
    }

    #[test]
    #[should_panic(expected = "mixed-kind group")]
    fn mixed_kind_groups_are_rejected() {
        let g = generators::uniform_random(50, 4, 1);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        run_group(
            &mut engine,
            &[&ProgramSpec::Bfs { src: 0 }, &ProgramSpec::Cc],
        );
    }
}
