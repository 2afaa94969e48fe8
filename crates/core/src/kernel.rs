//! The one generic traversal kernel: any [`VertexProgram`] over any
//! [`AccessStrategy`].
//!
//! This collapses what used to be three near-identical kernel structs
//! (BFS / SSSP / CC each carried its own `Warp`/`Lanes` task enum, offset
//! loading and walk plumbing) into one. The *memory shape* of a launch is
//! algorithm-independent — per task: two 8-byte CSR offset loads (plus
//! the 4-byte own-status load for programs that declare it), then a
//! [`WarpWalk`] or [`LaneWalk`] over the neighbour list with a 4-byte
//! status gather per edge (plus the 4-byte edge-data stream for programs
//! that declare it), with conditional status stores. Only the per-edge
//! state update is the program's.
//!
//! A launch serves one or more **member** queries of the same program
//! type: each work item names the query slots that expand it, the shared
//! loads (offsets, edge and weight streams) are emitted once per item,
//! and the status traffic once per member against that member's own
//! status array. A solo run is the one-member case — there is no separate
//! batched kernel.

use crate::layout::GraphLayout;
use crate::program::{EdgeEffect, EdgeFn, VertexProgram};
use crate::strategy::AccessStrategy;
use crate::walk::{LaneWalk, WarpWalk};
use emogi_gpu::access::{AccessBatch, Space, WARP_SIZE};
use emogi_graph::{CsrGraph, VertexId};
use emogi_runtime::{Kernel, StepOutcome};

/// One work item: expand edge-list elements `lo..hi` of vertex `v`'s
/// neighbour list (a sub-range when a mega-hub's list is split
/// cooperatively across devices, the full list otherwise).
pub type WorkSlice = (VertexId, u64, u64);

/// The work items one launch iterates over.
#[derive(Debug, Clone, Copy)]
pub enum WorkList<'a> {
    /// Full sweep: every vertex of the contiguous range `lo..hi` with its
    /// whole neighbour list. Never materialised as items.
    Range(VertexId, VertexId),
    /// Frontier: explicit `(vertex, edge lo, edge hi)` items, one per
    /// (possibly partial) neighbour-list walk.
    Slices(&'a [WorkSlice]),
}

impl WorkList<'_> {
    /// Number of work items.
    pub fn len(&self) -> usize {
        match self {
            WorkList::Range(lo, hi) => (hi - lo) as usize,
            WorkList::Slices(s) => s.len(),
        }
    }

    /// Does the launch have nothing to do?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Work item `i`.
    pub fn item(&self, i: usize, graph: &CsrGraph) -> WorkSlice {
        match self {
            WorkList::Range(lo, _) => {
                let v = lo + i as VertexId;
                (v, graph.neighbor_start(v), graph.neighbor_end(v))
            }
            WorkList::Slices(s) => s[i],
        }
    }
}

/// The query slots named by a member mask, ascending.
fn slots(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let q = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            q
        })
    })
}

/// One launch's work with its **members**: which query slots expand each
/// item, and the context each of them captured for it.
///
/// Contexts are captured here — at iteration start, before *any* kernel
/// of the iteration runs — so a launch's semantics are a pure function of
/// the iteration-start program state, independent of how warp tasks,
/// devices or batch neighbours interleave in the simulated machine. That
/// is what makes batched and sharded execution bit-identical to solo
/// runs.
pub struct Work<'a, C> {
    items: WorkList<'a>,
    /// Bit `q` of `masks[i]` set ⇔ query slot `q` expands item `i`.
    /// Empty for a single query: every item then has the one member
    /// slot 0, and no mask is ever materialised.
    masks: &'a [u64],
    /// Captured contexts, in item order, ascending slot within an item.
    ctxs: Vec<C>,
}

impl<'a, C: Copy> Work<'a, C> {
    /// Capture [`VertexProgram::source_ctx`] of every `(item, member)`
    /// pair. `masks` is empty or parallel to `items`.
    pub fn capture<P: VertexProgram<Ctx = C>>(
        items: WorkList<'a>,
        masks: &'a [u64],
        programs: &[P],
        graph: &CsrGraph,
    ) -> Self {
        assert!(
            masks.is_empty() || masks.len() == items.len(),
            "masks parallel the work items"
        );
        let mut ctxs = Vec::with_capacity(items.len());
        for i in 0..items.len() {
            let (v, _, _) = items.item(i, graph);
            let mask = masks.get(i).copied().unwrap_or(1);
            ctxs.extend(slots(mask).map(|q| programs[q].source_ctx(v)));
        }
        Self { items, masks, ctxs }
    }
}

/// One work item as a task holds it.
#[derive(Debug, Clone, Copy)]
pub struct Lane {
    v: VertexId,
    /// Edge-list element range this lane walks.
    range: (u64, u64),
    /// Member slots of the item, and the index of the first member's
    /// context (the others follow in ascending slot order).
    mask: u64,
    first_ctx: usize,
}

/// Task state: offset loading, then list walking.
///
/// The naive variant carries 32 lane cursors and is much larger than the
/// warp variant; tasks live in pre-sized executor slots, so the size
/// difference is intentional and harmless.
#[allow(clippy::large_enum_variant)]
pub enum ProgramTask {
    /// Merged/aligned: a warp on one item.
    Warp {
        /// The item this warp expands.
        lane: Lane,
        /// Neighbour-list sweep state (`None` until the offsets loaded).
        walk: Option<WarpWalk>,
    },
    /// Naive: 32 lanes on 32 items.
    Lanes {
        /// The items, one per lane.
        lanes: Vec<Lane>,
        /// Per-lane cursor state (`None` until the offsets loaded).
        walk: Option<LaneWalk>,
    },
}

/// One launch of one or more same-type programs over shared work.
///
/// The *shared* traffic — CSR offset loads, the edge-list stream and (for
/// edge-data programs) the weight stream — is emitted once per item. The
/// *per-member* traffic — the own-status load at task start, the
/// destination-status gather and the conditional status store per edge —
/// is emitted once per member query against that query's own status
/// array. A solo run is the one-member case.
///
/// The kernel holds each member's edge view ([`VertexProgram::edges`]),
/// not the program: nothing a launch runs can call
/// [`VertexProgram::source_ctx`] or a per-iteration hook, so contexts
/// are read only as [`Work::capture`] took them.
pub struct ProgramKernel<'a, P: VertexProgram + 'a> {
    graph: &'a CsrGraph,
    layout: &'a GraphLayout,
    strategy: AccessStrategy,
    /// Each query slot's edge view, in slot order.
    edges: Vec<P::Edges<'a>>,
    /// Device base address of each query slot's status array.
    status_bases: &'a [u64],
    work: Work<'a, P::Ctx>,
    /// Per-slot activations of this launch (frontier programs).
    next: &'a mut [Vec<VertexId>],
    pos: usize,
    next_ctx: usize,
    /// The naive step's `(element, iteration, lane)` loads (scratch).
    loaded_scratch: Vec<(u64, u8, u8)>,
    /// A step's status-store addresses, emitted after its loads (scratch).
    stores: Vec<u64>,
    /// Cached program capability flags (hot path).
    edge_data: bool,
    source_status: bool,
    /// Full sweeps re-enumerate every vertex anyway, so activations are
    /// meaningless there — don't collect them.
    collect_activations: bool,
}

impl<'a, P: VertexProgram> ProgramKernel<'a, P> {
    /// Build one launch of `programs` (slot `q` = `programs[q]`, status
    /// array at `status_bases[q]`, activations into `next[q]`) over
    /// pre-captured `work`.
    pub fn new(
        graph: &'a CsrGraph,
        layout: &'a GraphLayout,
        strategy: AccessStrategy,
        programs: &'a mut [P],
        status_bases: &'a [u64],
        work: Work<'a, P::Ctx>,
        next: &'a mut [Vec<VertexId>],
    ) -> Self {
        assert!(!programs.is_empty(), "a launch needs a program");
        assert!(status_bases.len() >= programs.len() && next.len() >= programs.len());
        let edge_data = programs[0].uses_edge_data();
        if edge_data {
            assert!(
                layout.weight_base.is_some(),
                "program needs edge data but none is placed"
            );
        }
        let source_status = programs[0].reads_source_status();
        let collect_activations = matches!(work.items, WorkList::Slices(_));
        Self {
            graph,
            layout,
            strategy,
            edges: programs.iter_mut().map(P::edges).collect(),
            status_bases,
            work,
            next,
            pos: 0,
            next_ctx: 0,
            loaded_scratch: Vec::with_capacity(WARP_SIZE),
            stores: Vec::new(),
            edge_data,
            source_status,
            collect_activations,
        }
    }

    /// Pop the next work item with its members.
    fn take_lane(&mut self) -> Lane {
        let (v, lo, hi) = self.work.items.item(self.pos, self.graph);
        let mask = self.work.masks.get(self.pos).copied().unwrap_or(1);
        let lane = Lane {
            v,
            range: (lo, hi),
            mask,
            first_ctx: self.next_ctx,
        };
        self.pos += 1;
        self.next_ctx += mask.count_ones() as usize;
        lane
    }

    /// Task-start loads for the task's items: the two CSR offsets of each
    /// item once (the vertex list is shared), then, for programs that read
    /// it, each member's own status entries, member by member.
    fn open_items(&mut self, lanes: &[Lane], batch: &mut AccessBatch) {
        for lane in lanes {
            let v = u64::from(lane.v);
            batch.load(self.layout.vertex_addr(v), 8, Space::Device);
            batch.load(self.layout.vertex_addr(v + 1), 8, Space::Device);
        }
        if self.source_status {
            for q in slots(members(lanes)) {
                for lane in lanes.iter().filter(|l| l.mask >> q & 1 == 1) {
                    let v = u64::from(lane.v);
                    batch.load(self.status_bases[q] + v * 4, 4, Space::Device);
                }
            }
        }
    }

    /// Process a step's edge-list elements, given as `(element, lane,
    /// instruction group)` with `lane` indexing `lanes`; the elements
    /// themselves were loaded once for all members. Member by member, in
    /// element order: one destination-status gather against the member's
    /// own array, then the member program's update. The status stores
    /// the updates call for follow all the step's loads. Each program
    /// sees its edges in the order it always did, and each member's
    /// gathers arrive as an ascending run when the list is
    /// destination-sorted — the order the coalescer merges in one pass.
    fn visit_edges(
        &mut self,
        lanes: &[Lane],
        edges: impl Iterator<Item = (u64, usize, u8)> + Clone,
        batch: &mut AccessBatch,
    ) {
        self.stores.clear();
        for q in slots(members(lanes)) {
            let base = self.status_bases[q];
            // `q`'s context in each lane's item (`None`: not a member); the
            // members below `q` give its offset among the item's contexts.
            let below = (1u64 << q) - 1;
            let mut ctxs = [None; WARP_SIZE];
            for (ctx, lane) in ctxs.iter_mut().zip(lanes) {
                *ctx = (lane.mask >> q & 1 == 1).then(|| {
                    self.work.ctxs[lane.first_ctx + (lane.mask & below).count_ones() as usize]
                });
            }
            for (i, l, instr) in edges.clone() {
                let Some(ctx) = ctxs[l] else {
                    continue;
                };
                let (src, dst) = (lanes[l].v, self.graph.edge_dst(i));
                batch.load_instr(base + u64::from(dst) * 4, 4, Space::Device, instr);
                match self.edges[q].edge(i, src, dst, ctx) {
                    EdgeEffect::None => {}
                    EdgeEffect::UpdateDst { activate } => {
                        self.stores.push(base + u64::from(dst) * 4);
                        if activate && self.collect_activations {
                            self.next[q].push(dst);
                        }
                    }
                    EdgeEffect::UpdateSrc => self.stores.push(base + u64::from(src) * 4),
                }
            }
        }
        for &addr in &self.stores {
            batch.store(addr, 4, Space::Device);
        }
    }
}

/// Every member slot of the task's items.
fn members(lanes: &[Lane]) -> u64 {
    lanes.iter().fold(0, |m, l| m | l.mask)
}

impl<'a, P: VertexProgram + 'a> Kernel for ProgramKernel<'a, P> {
    type Task = ProgramTask;

    fn next_task(&mut self) -> Option<Self::Task> {
        let n = self.work.items.len();
        if self.pos >= n {
            return None;
        }
        if self.strategy.warp_per_vertex() {
            let lane = self.take_lane();
            Some(ProgramTask::Warp { lane, walk: None })
        } else {
            let hi = (self.pos + WARP_SIZE).min(n);
            let lanes = (self.pos..hi).map(|_| self.take_lane()).collect();
            Some(ProgramTask::Lanes { lanes, walk: None })
        }
    }

    fn step(&mut self, task: &mut Self::Task, batch: &mut AccessBatch) -> StepOutcome {
        match task {
            ProgramTask::Warp { lane, walk } => {
                let lanes = std::slice::from_ref(lane);
                let Some(w) = walk else {
                    let (start, end) = lane.range;
                    self.open_items(lanes, batch);
                    if start == end {
                        return StepOutcome::Done;
                    }
                    *walk = Some(WarpWalk::new(start, end, self.strategy, self.layout));
                    return StepOutcome::Continue;
                };
                let (lo, hi) = w.emit_edges(self.layout, batch);
                if self.edge_data {
                    WarpWalk::emit_weights(self.layout, batch, lo, hi);
                }
                self.visit_edges(lanes, (lo..hi).map(|i| (i, 0, 128)), batch);
                if w.is_done() {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
            ProgramTask::Lanes { lanes, walk } => {
                let Some(w) = walk else {
                    self.open_items(lanes, batch);
                    let ranges: Vec<(u64, u64)> = lanes.iter().map(|l| l.range).collect();
                    let lw = LaneWalk::new(&ranges);
                    if lw.is_done() {
                        return StepOutcome::Done;
                    }
                    *walk = Some(lw);
                    return StepOutcome::Continue;
                };
                let mut loaded = std::mem::take(&mut self.loaded_scratch);
                loaded.clear();
                w.emit_edges(self.layout, batch, &mut loaded);
                if self.edge_data {
                    LaneWalk::emit_weights(self.layout, batch, &loaded);
                }
                let edges = loaded
                    .iter()
                    .map(|&(i, iter, l)| (i, usize::from(l), 128 + iter));
                self.visit_edges(lanes, edges, batch);
                let done = w.is_done();
                self.loaded_scratch = loaded;
                if done {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsProgram;
    use crate::layout::Transport;
    use emogi_graph::{algo, generators};
    use emogi_runtime::machine::MachineConfig;
    use emogi_runtime::{exec, Machine};

    /// Every vertex of `frontier` with its whole neighbour list.
    fn full_items(g: &CsrGraph, frontier: &[VertexId]) -> Vec<WorkSlice> {
        frontier
            .iter()
            .map(|&v| (v, g.neighbor_start(v), g.neighbor_end(v)))
            .collect()
    }

    #[test]
    fn work_lists_enumerate_their_items() {
        let g = generators::uniform_random(20, 3, 1);
        let range = WorkList::Range(7, 12);
        assert_eq!(range.len(), 5);
        assert!(!range.is_empty());
        assert_eq!(
            range.item(0, &g),
            (7, g.neighbor_start(7), g.neighbor_end(7))
        );
        assert_eq!(range.item(4, &g).0, 11);
        assert!(WorkList::Range(3, 3).is_empty());
        // Explicit items come back verbatim — partial ranges included.
        let items = [(3u32, 10u64, 12u64), (9, 40, 41)];
        let slices = WorkList::Slices(&items);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices.item(1, &g), (9, 40, 41));
    }

    /// Drive the generic kernel directly (no driver) through a full BFS,
    /// for every strategy — the seam the driver builds on.
    #[test]
    fn generic_kernel_runs_a_program_standalone() {
        for strategy in AccessStrategy::all() {
            let g = generators::uniform_random(500, 6, 42);
            let mut m = Machine::new(MachineConfig::v100_gen3());
            let layout = GraphLayout::place(&mut m, &g, 8, &Transport::ZeroCopy);
            let mut progs = [BfsProgram::new(&g, 3)];
            let mut frontier = vec![3u32];
            while !frontier.is_empty() {
                progs[0].begin_iteration();
                let items = full_items(&g, &frontier);
                let work = Work::capture(WorkList::Slices(&items), &[], &progs, &g);
                let mut next = [Vec::new()];
                let mut k = ProgramKernel::new(
                    &g,
                    &layout,
                    strategy,
                    &mut progs,
                    std::slice::from_ref(&layout.status_base),
                    work,
                    &mut next,
                );
                exec::run_kernel(&mut m, &mut k);
                let [mut activated] = next;
                activated.sort_unstable();
                activated.dedup();
                frontier = activated;
            }
            let [prog] = progs;
            assert_eq!(
                prog.finish().levels,
                algo::bfs_levels(&g, 3),
                "{strategy:?}"
            );
            assert!(m.monitor.read_requests > 0);
        }
    }

    /// Two member queries on one item: the edge list crosses the link
    /// once, each member updates its own state and activates into its
    /// own slot — for every strategy.
    #[test]
    fn members_share_one_fetch_and_keep_their_own_state() {
        for strategy in AccessStrategy::all() {
            let g = generators::uniform_random(300, 6, 7);
            let items = full_items(&g, &[5]);
            let launch = |progs: &mut [BfsProgram], masks: &[u64], bases: &[u64]| {
                let mut m = Machine::new(MachineConfig::v100_gen3());
                let layout = GraphLayout::place(&mut m, &g, 8, &Transport::ZeroCopy);
                for p in progs.iter_mut() {
                    p.begin_iteration();
                }
                let work = Work::capture(WorkList::Slices(&items), masks, progs, &g);
                let mut next = vec![Vec::new(); progs.len()];
                let mut k =
                    ProgramKernel::new(&g, &layout, strategy, progs, bases, work, &mut next);
                exec::run_kernel(&mut m, &mut k);
                (m.monitor.read_requests, next)
            };
            let mut solo = [BfsProgram::new(&g, 5)];
            let (solo_reads, solo_next) = launch(&mut solo, &[], &[0x1000]);
            let mut pair = [BfsProgram::new(&g, 5), BfsProgram::new(&g, 5)];
            let (pair_reads, pair_next) = launch(&mut pair, &[0b11], &[0x1000, 0x9000]);
            assert_eq!(pair_reads, solo_reads, "{strategy:?}: one shared fetch");
            assert_eq!(pair_next[0], solo_next[0], "{strategy:?}");
            assert_eq!(pair_next[1], solo_next[0], "{strategy:?}");
            // A member absent from the mask sees nothing.
            let mut half = [BfsProgram::new(&g, 5), BfsProgram::new(&g, 5)];
            let (_, half_next) = launch(&mut half, &[0b10], &[0x1000, 0x9000]);
            assert!(half_next[0].is_empty(), "{strategy:?}");
            assert_eq!(half_next[1], solo_next[0], "{strategy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "edge data")]
    fn edge_data_program_requires_placed_weights() {
        use crate::sssp::SsspProgram;
        let g = generators::uniform_random(50, 4, 1);
        let w = vec![1u32; g.num_edges()];
        let mut m = Machine::new(MachineConfig::v100_gen3());
        // Placed *without* the weight array.
        let layout = GraphLayout::place(&mut m, &g, 8, &Transport::ZeroCopy);
        let mut progs = [SsspProgram::new(&g, &w, 0)];
        let items = full_items(&g, &[0]);
        let work = Work::capture(WorkList::Slices(&items), &[], &progs, &g);
        let mut next = [Vec::new()];
        let _ = ProgramKernel::new(
            &g,
            &layout,
            AccessStrategy::MergedAligned,
            &mut progs,
            std::slice::from_ref(&layout.status_base),
            work,
            &mut next,
        );
    }
}
