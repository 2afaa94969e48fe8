//! The vertex-program abstraction: pluggable algorithms over one generic
//! traversal engine.
//!
//! EMOGI's contribution is deliberately algorithm-agnostic — §4's merged
//! / aligned zero-copy access pattern is applied uniformly to BFS, SSSP
//! and CC. A [`VertexProgram`] captures exactly what *does* differ
//! between those applications (and any new one):
//!
//! * its **access pattern** — [`AccessPattern::FrontierDriven`] programs
//!   expand an active-vertex worklist per launch (BFS, SSSP), while
//!   [`AccessPattern::FullSweep`] programs stream every neighbour list
//!   every launch (CC, PageRank). The pattern is all the engine and the
//!   hybrid transfer planner need to know — there are no per-algorithm
//!   branches anywhere in the driver;
//! * whether it reads **auxiliary edge data** in lock-step with the edge
//!   list (SSSP's 4-byte weight stream, Table 2's `|w|` array). The data
//!   itself is a program input, not an engine field;
//! * whether a task reads its **own status entry** at start (SSSP's
//!   distance, CC's label) or not (BFS);
//! * whether its destination check needs only a **visited bit** (BFS):
//!   then a batched launch gathers one shared visit-mask word per edge
//!   for all its members, as MS-BFS does;
//! * its **per-edge logic** — the one real computation, expressed as a
//!   state update plus an [`EdgeEffect`] describing the memory traffic it
//!   caused. It lives on a per-launch **edge view** ([`EdgeFn`]), which
//!   borrows only the arrays an edge update touches: a launch holds
//!   views, not programs, so it cannot reach [`VertexProgram::source_ctx`]
//!   or the per-iteration hooks;
//! * its **per-iteration logic** — frontier seeding, iteration setup,
//!   post-launch device-side work (CC's pointer-jumping shortcut,
//!   PageRank's rank swap) and convergence.
//!
//! The engine ([`crate::engine::Engine`]) owns the placed graph, machine
//! and transfer manager, and runs any program through one generic kernel
//! ([`crate::kernel::ProgramKernel`]).
//!
//! # Writing a new algorithm
//!
//! A program that counts, per vertex, how many of its incoming edges come
//! from the source's component — no engine, kernel or transfer-planner
//! changes needed:
//!
//! ```
//! use emogi_core::program::{AccessPattern, EdgeEffect, EdgeFn, VertexProgram};
//! use emogi_core::{Engine, EngineConfig};
//! use emogi_graph::{generators, VertexId};
//!
//! /// Count every vertex's in-degree with one full edge-list sweep.
//! #[derive(Clone)]
//! struct InDegree {
//!     counts: Vec<u32>,
//!     done: bool,
//! }
//!
//! /// One launch's view of `InDegree`: the counts, and nothing else.
//! struct InDegreeEdges<'a> {
//!     counts: &'a mut [u32],
//! }
//!
//! impl EdgeFn<()> for InDegreeEdges<'_> {
//!     fn edge(&mut self, _i: u64, _src: VertexId, dst: VertexId, _ctx: ()) -> EdgeEffect {
//!         self.counts[dst as usize] += 1;
//!         EdgeEffect::UpdateDst { activate: false } // atomicAdd on the status entry
//!     }
//! }
//!
//! impl VertexProgram for InDegree {
//!     type Ctx = ();
//!     type Output = Vec<u32>;
//!     type Edges<'a> = InDegreeEdges<'a>;
//!
//!     fn pattern(&self) -> AccessPattern {
//!         AccessPattern::FullSweep
//!     }
//!     fn reads_source_status(&self) -> bool {
//!         false
//!     }
//!     fn begin_iteration(&mut self) {
//!         self.done = true; // one sweep suffices
//!     }
//!     fn source_ctx(&self, _v: VertexId) -> Self::Ctx {}
//!     fn edges(&mut self) -> InDegreeEdges<'_> {
//!         InDegreeEdges { counts: &mut self.counts }
//!     }
//!     fn join(&mut self, replica: &Self) {
//!         // The one sweep starts from zero counts, so a replica's counts
//!         // are exactly its own launch's increments.
//!         for (c, r) in self.counts.iter_mut().zip(&replica.counts) {
//!             *c += r;
//!         }
//!     }
//!     fn converged(&self) -> bool {
//!         self.done
//!     }
//!     fn finish(self) -> Vec<u32> {
//!         self.counts
//!     }
//! }
//!
//! let g = generators::uniform_random(300, 4, 7);
//! let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
//! let run = engine.run(InDegree { counts: vec![0; g.num_vertices()], done: false });
//! let total: u64 = run.output.iter().map(|&c| u64::from(c)).sum();
//! assert_eq!(total, g.num_edges() as u64);
//! ```

use emogi_graph::VertexId;

/// How a program drives the engine's launch loop — and, equally, how the
/// hybrid transfer planner predicts the next launch's edge-list reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Per launch, only the active vertices' neighbour lists are read;
    /// the program seeds the first frontier and activates vertices via
    /// [`EdgeEffect::UpdateDst`]. The engine stops when a launch
    /// activates nothing.
    FrontierDriven,
    /// Every launch streams every vertex's neighbour list ("all vertices
    /// are set as root vertices and the entire edge list is traversed",
    /// §5.4). The engine stops when [`VertexProgram::converged`] holds.
    FullSweep,
}

/// What a program's per-edge update did, so the generic kernel can emit
/// the matching device-memory traffic. The destination-status gather is
/// always emitted before the program sees the edge; the effect only adds
/// the (conditional) store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeEffect {
    /// No state changed: the gather was read, nothing written.
    None,
    /// The destination's status entry was written (BFS discovery, SSSP
    /// relaxation, PageRank's atomicAdd). `activate` puts the destination
    /// on the next frontier; full-sweep launches re-enumerate every
    /// vertex anyway, so they ignore it.
    UpdateDst {
        /// Whether the destination joins the next frontier.
        activate: bool,
    },
    /// The *source's* status entry was written — CC's hook adopts the
    /// smaller neighbour label into the source.
    UpdateSrc,
}

/// Device-side work a program performs between kernel launches, outside
/// the edge-streaming kernels: bulk sweeps over device-resident arrays
/// (CC's pointer-jumping passes, PageRank's rank update). The engine
/// charges each sweep against the machine's HBM clock.
#[derive(Debug, Default)]
pub struct DeviceWork {
    bulk_reads: Vec<u64>,
}

impl DeviceWork {
    /// Charge one bulk HBM sweep of `bytes`.
    pub fn bulk_read(&mut self, bytes: u64) {
        self.bulk_reads.push(bytes);
    }

    pub(crate) fn drain(&mut self) -> impl Iterator<Item = u64> + '_ {
        self.bulk_reads.drain(..)
    }
}

/// Fold a replica's `u32` status array into `mine` by minimum: the join
/// of BFS levels ([`UNVISITED`](emogi_graph::UNVISITED) is the largest
/// value), SSSP distances and CC labels.
pub(crate) fn join_min(mine: &mut [u32], replica: &[u32]) {
    for (m, &r) in mine.iter_mut().zip(replica) {
        *m = (*m).min(r);
    }
}

/// One launch's per-edge update: a view of a [`VertexProgram`] that
/// borrows only what an edge update touches, built by
/// [`VertexProgram::edges`] when the launch is. The launch holds the
/// view, never the program, so an update — and anything the kernel calls
/// around it — can read only the captured context it is handed and the
/// view's own arrays.
pub trait EdgeFn<C> {
    /// Process edge-list element `i` (`src → dst`, with the source's
    /// captured context) and report what the update did. The kernel has
    /// already emitted the destination-status gather; it emits the store
    /// (and frontier push) the returned effect asks for.
    fn edge(&mut self, i: u64, src: VertexId, dst: VertexId, ctx: C) -> EdgeEffect;
}

/// A pluggable traversal algorithm. See the [module docs](self) for the
/// contract and a worked example of adding a new one.
///
/// `Clone + Send` because a sharded iteration launches its devices
/// concurrently, each on its own copy of the state: device 0 on the
/// program itself, every other device on a replica cloned from it after
/// [`begin_iteration`](Self::begin_iteration), which
/// [`join`](Self::join) folds back when the launches are done.
///
/// The engine calls, per run:
///
/// ```text
/// initial_frontier()                 (frontier-driven only)
/// loop {
///     begin_iteration()
///     — kernel launch: per task  source_ctx(v), then edges(), then
///       per edge  edge(..) on that view —
///     join(replica)                      (N > 1 devices: once per peer)
///     post_iteration(work)
/// } until the frontier empties / converged()
/// finish()
/// ```
pub trait VertexProgram: Clone + Send {
    /// Per-source context captured once at task start (e.g. SSSP's
    /// distance of the source at launch time, PageRank's out-contribution)
    /// and handed to every [`edge`](EdgeFn::edge) call of that task.
    type Ctx: Copy + Send;
    /// What [`finish`](Self::finish) extracts after convergence.
    type Output;
    /// The per-launch edge view [`edges`](Self::edges) returns.
    type Edges<'a>: EdgeFn<Self::Ctx>
    where
        Self: 'a;

    /// Frontier-driven or full-sweep (drives the launch loop *and* the
    /// hybrid transfer planning).
    fn pattern(&self) -> AccessPattern;

    /// Does the program read a 4-byte auxiliary edge-data stream (SSSP's
    /// weights) in lock-step with the edge list? The engine places the
    /// array on demand; the data itself lives in the program.
    fn uses_edge_data(&self) -> bool {
        false
    }

    /// Does a task read its own vertex's status entry at start (SSSP, CC,
    /// PageRank) or only its CSR offsets (BFS)?
    fn reads_source_status(&self) -> bool;

    /// Does the per-edge update read only whether the destination was
    /// visited (BFS), not its value? A batched launch of such a program
    /// gathers one 8-byte visit-mask word per edge, bit `q` for member
    /// `q`, instead of one status entry per member, and an update stores
    /// the member's own entry plus that word (MS-BFS, Then et al.).
    fn needs_only_visited_bit(&self) -> bool {
        false
    }

    /// Seed frontier for frontier-driven programs (ignored for full
    /// sweeps). May contain duplicates; the engine sorts and dedups.
    fn initial_frontier(&self) -> Vec<VertexId> {
        Vec::new()
    }

    /// Called before every kernel launch (BFS bumps its level, CC clears
    /// its changed flag, PageRank snapshots contributions).
    fn begin_iteration(&mut self) {}

    /// Capture the per-source context for vertex `v`. Called once per
    /// work item at **iteration start** (kernel construction), before any
    /// [`edge`](EdgeFn::edge) call of that iteration runs — so a launch's
    /// semantics are a pure function of the iteration-start state, which
    /// is what lets batched multi-query execution reproduce sequential
    /// results bit for bit.
    fn source_ctx(&self, v: VertexId) -> Self::Ctx;

    /// This launch's edge view, borrowing the state an edge update
    /// touches. Built once per launch, after every context of the
    /// iteration was captured.
    fn edges(&mut self) -> Self::Edges<'_>;

    /// Fold a peer device's launch into this state. `replica` was cloned
    /// from `self` after this iteration's
    /// [`begin_iteration`](Self::begin_iteration), and then saw exactly
    /// its own device's edge updates; `self` has seen device 0's and
    /// every earlier replica's. The driver joins replicas in device
    /// order; the result must be the state every update of the iteration
    /// gives, whichever device made it (BFS takes the newly discovered
    /// levels, SSSP and CC the minimum, PageRank — whose edge view holds
    /// no state — nothing). Never called on one device.
    fn join(&mut self, replica: &Self);

    /// Device-side work after a launch (before the convergence check).
    fn post_iteration(&mut self, work: &mut DeviceWork) {
        let _ = work;
    }

    /// Full-sweep convergence, checked after
    /// [`post_iteration`](Self::post_iteration). Frontier-driven programs
    /// converge by emptying their frontier instead.
    fn converged(&self) -> bool {
        true
    }

    /// Extract the result.
    fn finish(self) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_work_drains_in_order() {
        let mut w = DeviceWork::default();
        w.bulk_read(64);
        w.bulk_read(128);
        assert_eq!(w.drain().collect::<Vec<_>>(), vec![64, 128]);
        assert_eq!(w.drain().count(), 0, "drained");
    }
}
