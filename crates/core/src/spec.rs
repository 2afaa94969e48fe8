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

    /// Whether this spec can run on `graph`: its source, if any, is a
    /// vertex of `graph`, and its weights, if any, number one per edge.
    /// Every run description is validated here and nowhere else: the
    /// typed constructors ([`BfsProgram::new`], [`SsspProgram::new`])
    /// panic with this error, a server refuses the query with it.
    pub fn check(&self, graph: &CsrGraph) -> Result<(), SpecError> {
        let weights = match self {
            ProgramSpec::Sssp { weights, .. } => Some(weights.as_slice()),
            _ => None,
        };
        check(graph, self.src(), weights)
    }
}

/// Why a [`ProgramSpec`] cannot run on a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The source vertex is not in the graph.
    SourceOutOfRange {
        /// The offending source.
        src: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// An SSSP spec's weight array does not hold one weight per edge.
    WeightCountMismatch {
        /// Weights provided.
        got: usize,
        /// Edges in the graph.
        want: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::SourceOutOfRange { src, num_vertices } => {
                write!(
                    f,
                    "source {src} out of range: the graph has {num_vertices} vertices"
                )
            }
            SpecError::WeightCountMismatch { got, want } => {
                write!(f, "one weight per edge: got {got} for {want} edges")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// [`ProgramSpec::check`] over a spec's parts, for the typed
/// constructors, which hold a borrowed weight slice rather than a spec.
pub(crate) fn check(
    graph: &CsrGraph,
    src: Option<VertexId>,
    weights: Option<&[u32]>,
) -> Result<(), SpecError> {
    let num_vertices = graph.num_vertices();
    if let Some(src) = src.filter(|&s| s as usize >= num_vertices) {
        return Err(SpecError::SourceOutOfRange { src, num_vertices });
    }
    match weights {
        Some(w) if w.len() != graph.num_edges() => Err(SpecError::WeightCountMismatch {
            got: w.len(),
            want: graph.num_edges(),
        }),
        _ => Ok(()),
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
    use emogi_graph::generators;

    #[test]
    fn groups_merge_on_the_engine_and_run_back_to_back_elsewhere() {
        let g = generators::uniform_random(400, 6, 5);
        let specs: Vec<ProgramSpec> = [0, 7, 42].map(|src| ProgramSpec::Bfs { src }).into();
        let refs: Vec<&ProgramSpec> = specs.iter().collect();

        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let merged = run_group(&mut engine, &refs);
        assert!(merged.shared);
        assert!(merged.runs.iter().all(|r| r.stats().shared_fetch));
        let sweep = run_group(&mut engine, &[&ProgramSpec::Cc]);
        assert!(!sweep.shared, "full sweeps never merge");
        let fresh = || Engine::load(EngineConfig::emogi_v100(), &g);
        let one = run_group(&mut fresh(), &refs[..1]);
        assert_eq!(one.stats, fresh().bfs(0).stats, "one-spec group vs solo");

        let mut sharded = ShardedEngine::load(ShardedConfig::emogi_v100(2), &g);
        let serial = run_group(&mut sharded, &refs);
        assert!(!serial.shared);
        let mut fold = RunStats::default();
        for (a, b) in merged.runs.iter().zip(&serial.runs) {
            assert_eq!(a.words(), b.words(), "same answers");
            fold += b.stats();
        }
        assert_eq!(serial.stats, fold, "a back-to-back total is the += fold");
    }

    #[test]
    fn check_bounds_the_source_and_the_weight_count_on_both_sides() {
        let g = generators::uniform_random(50, 4, 1);
        let (n, e) = (g.num_vertices() as u32, g.num_edges());
        let sssp = |src, len| ProgramSpec::Sssp {
            src,
            weights: Arc::new(vec![1; len]),
        };
        assert_eq!(ProgramSpec::Bfs { src: n - 1 }.check(&g), Ok(()));
        for src in [n, u32::MAX] {
            let out = SpecError::SourceOutOfRange {
                src,
                num_vertices: n as usize,
            };
            assert_eq!(ProgramSpec::Bfs { src }.check(&g), Err(out.clone()));
            assert_eq!(sssp(src, e).check(&g), Err(out));
        }
        assert_eq!(sssp(0, e).check(&g), Ok(()));
        for got in [e - 1, e + 1] {
            let err = SpecError::WeightCountMismatch { got, want: e };
            assert_eq!(sssp(0, got).check(&g), Err(err));
        }
        // An empty weight array is only valid on an edgeless graph.
        assert_eq!(sssp(0, 0).check(&CsrGraph::empty(4)), Ok(()));
        assert_eq!(ProgramSpec::Cc.check(&CsrGraph::empty(1)), Ok(()));
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
