//! The one generic traversal kernel: any [`VertexProgram`] over any
//! [`AccessStrategy`].
//!
//! This collapses what used to be three near-identical kernel structs
//! (BFS / SSSP / CC each carried its own `Warp`/`Lanes` task enum, offset
//! loading and walk plumbing) into one. The *memory shape* of a launch is
//! algorithm-independent — per task: two 8-byte CSR offset loads (plus
//! the 4-byte own-status load for programs that declare it), then a
//! [`WarpWalk`] or [`LaneWalk`] over the neighbour list (a warp's walk
//! over a compressed list yields the edges each step decoded) with a
//! 4-byte status gather per edge (plus the 4-byte edge-data stream for
//! programs that declare it), with conditional status stores. Only the
//! per-edge state update is the program's.
//!
//! A launch serves one or more **member** queries of the same program
//! type: each work item names the query slots that expand it, and the
//! shared loads (offsets, edge and weight streams) are emitted once per
//! item. Status lives in one vertex-major block ([`StatusPlace`]): the
//! members' entries for one vertex are adjacent, so one destination's
//! gathers share sectors, and a program that needs only a visited bit
//! (BFS) gathers one shared visit-mask word per edge for all members, as
//! MS-BFS does. A solo run is the one-member case — stride 4, no mask,
//! no separate batched kernel.

use crate::layout::{GraphLayout, StatusPlace};
use crate::program::{AccessPattern, EdgeEffect, EdgeFn, VertexProgram};
use crate::strategy::AccessStrategy;
use crate::walk::{LaneWalk, WarpWalk};
use emogi_gpu::access::{AccessBatch, Space, WARP_SIZE};
use emogi_graph::{CsrGraph, VertexId};
use emogi_runtime::{Kernel, StepOutcome};

/// One work item: expand edge-list elements `lo..hi` of vertex `v`'s
/// neighbour list — the whole list, or one line-aligned piece of a
/// mega-hub's list when the driver cut it (across devices, or into
/// [`AccessStrategy::hub_slice`]-sized pieces for the split-hub kernel).
/// Frontiers and full sweeps alike are launched as items.
pub type WorkSlice = (VertexId, u64, u64);

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
    items: &'a [WorkSlice],
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
        items: &'a [WorkSlice],
        masks: &'a [u64],
        programs: &[P],
    ) -> Self {
        assert!(
            masks.is_empty() || masks.len() == items.len(),
            "masks parallel the work items"
        );
        let mut ctxs = Vec::with_capacity(items.len());
        for (i, &(v, _, _)) in items.iter().enumerate() {
            let mask = masks.get(i).copied().unwrap_or(1);
            ctxs.extend(slots(mask).map(|q| programs[q].source_ctx(v)));
        }
        Self { items, masks, ctxs }
    }

    /// The work items, in launch order.
    pub(crate) fn items(&self) -> &'a [WorkSlice] {
        self.items
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

/// Task state: offset loading, then list walking. Every executor slot
/// holds one, so the naive variant boxes its 32 lane cursors to keep a
/// task the size of the warp variant.
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
        walk: Option<Box<LaneWalk>>,
    },
}

/// One launch of one or more same-type programs over shared work.
///
/// The *shared* traffic — CSR offset loads, the edge-list stream and (for
/// edge-data programs) the weight stream — is emitted once per item. The
/// *per-member* traffic — the own-status load at task start, the
/// destination-status gather and the conditional status store per edge —
/// is emitted once per member query at that member's entry in the
/// vertex-major [`StatusPlace`]; with a visit mask, the gather is one
/// mask word per edge for all members. A solo run is the one-member
/// case.
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
    /// Where every query slot's status entries (and the visit mask) live.
    status: StatusPlace,
    work: Work<'a, P::Ctx>,
    /// Per-slot activations of this launch (frontier programs).
    next: &'a mut [Vec<VertexId>],
    pos: usize,
    next_ctx: usize,
    /// The naive step's `(element, iteration, lane)` loads (scratch).
    loaded_scratch: Vec<(u64, u8, u8)>,
    /// A step's status-store addresses, emitted after its loads, entries
    /// before visit-mask words (scratch).
    stores: Vec<u64>,
    mask_stores: Vec<u64>,
    /// Cached program capability flags (hot path).
    edge_data: bool,
    source_status: bool,
    /// Full sweeps re-enumerate every vertex anyway, so activations are
    /// meaningless there — only frontier programs collect them.
    collect_activations: bool,
}

impl<'a, P: VertexProgram> ProgramKernel<'a, P> {
    /// Build one launch of `programs` (slot `q` = `programs[q]`, status
    /// entries in `status`, activations into `next[q]`) over
    /// pre-captured `work`.
    pub fn new(
        graph: &'a CsrGraph,
        layout: &'a GraphLayout,
        strategy: AccessStrategy,
        programs: &'a mut [P],
        status: StatusPlace,
        work: Work<'a, P::Ctx>,
        next: &'a mut [Vec<VertexId>],
    ) -> Self {
        assert!(!programs.is_empty(), "a launch needs a program");
        assert!(next.len() >= programs.len());
        assert!(
            status.stride >= programs.len() as u64 * 4,
            "a status stride of {} B cannot hold {} members",
            status.stride,
            programs.len()
        );
        let edge_data = programs[0].uses_edge_data();
        if edge_data {
            assert!(
                layout.weight_base.is_some(),
                "program needs edge data but none is placed"
            );
        }
        let source_status = programs[0].reads_source_status();
        let collect_activations = programs[0].pattern() == AccessPattern::FrontierDriven;
        Self {
            graph,
            layout,
            strategy,
            edges: programs.iter_mut().map(P::edges).collect(),
            status,
            work,
            next,
            pos: 0,
            next_ctx: 0,
            loaded_scratch: Vec::with_capacity(WARP_SIZE),
            stores: Vec::new(),
            mask_stores: Vec::new(),
            edge_data,
            source_status,
            collect_activations,
        }
    }

    /// Pop the next work item with its members.
    fn take_lane(&mut self) -> Lane {
        let (v, lo, hi) = self.work.items[self.pos];
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
    /// it, each member's own status entry, item by item and member by
    /// member within an item — one ascending run of adjacent entries.
    fn open_items(&mut self, lanes: &[Lane], batch: &mut AccessBatch) {
        for lane in lanes {
            let v = u64::from(lane.v);
            batch.load(self.layout.vertex_addr(v), 8, Space::Device);
            batch.load(self.layout.vertex_addr(v + 1), 8, Space::Device);
        }
        if self.source_status {
            for lane in lanes {
                for q in slots(lane.mask) {
                    let addr = self.status.entry(u64::from(lane.v), q);
                    batch.load(addr, 4, Space::Device);
                }
            }
        }
    }

    /// Process a step's edge-list elements, given as `(element, lane,
    /// instruction group)` with `lane` indexing `lanes`; the elements
    /// themselves were loaded once for all members. Edge by edge in
    /// element order, and member by member within an edge: the
    /// destination gather (the member's entry, or one visit-mask word
    /// for all members), then each member program's update. The status
    /// stores the updates call for follow all the step's loads, entries
    /// before mask words. Each program sees its edges in the order it
    /// always did, and a step's gathers arrive as one ascending run when
    /// the list is destination-sorted — the order the coalescer merges
    /// in one pass.
    fn visit_edges(
        &mut self,
        lanes: &[Lane],
        edges: impl Iterator<Item = (u64, usize, u8)>,
        batch: &mut AccessBatch,
    ) {
        self.stores.clear();
        self.mask_stores.clear();
        let status = self.status;
        for (i, l, instr) in edges {
            let lane = &lanes[l];
            let (src, dst) = (lane.v, self.graph.edge_dst(i));
            let mask_word = status.mask.map(|m| m + u64::from(dst) * 8);
            if let Some(word) = mask_word {
                batch.load_instr(word, 8, Space::Device, instr);
            }
            let ctxs = &self.work.ctxs[lane.first_ctx..];
            for (q, &ctx) in slots(lane.mask).zip(ctxs) {
                let entry = status.entry(u64::from(dst), q);
                if mask_word.is_none() {
                    batch.load_instr(entry, 4, Space::Device, instr);
                }
                match self.edges[q].edge(i, src, dst, ctx) {
                    EdgeEffect::None => {}
                    EdgeEffect::UpdateDst { activate } => {
                        self.stores.push(entry);
                        self.mask_stores.extend(mask_word);
                        if activate && self.collect_activations {
                            self.next[q].push(dst);
                        }
                    }
                    EdgeEffect::UpdateSrc => self.stores.push(status.entry(u64::from(src), q)),
                }
            }
        }
        for &addr in &self.stores {
            batch.store(addr, 4, Space::Device);
        }
        for &addr in &self.mask_stores {
            batch.store(addr, 8, Space::Device);
        }
    }
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
                let (lo, hi) = w.emit_edges(self.layout, batch, lane.range);
                if self.edge_data {
                    WarpWalk::emit_weights(self.layout, batch, lo, hi);
                }
                // One gather instruction per 32 edges: a compressed step
                // decodes up to 256.
                let edges = (lo..hi).map(|i| (i, 0, 128 + ((i - lo) / WARP_SIZE as u64) as u8));
                self.visit_edges(lanes, edges, batch);
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
                    *walk = Some(Box::new(lw));
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
    use crate::batch::MAX_BATCH_QUERIES;
    use crate::bfs::BfsProgram;
    use crate::layout::Transport;
    use emogi_gpu::access::LaneAccess;
    use emogi_gpu::coalesce::Coalescer;
    use emogi_graph::{algo, generators, EdgeListBuilder};
    use emogi_runtime::machine::MachineConfig;
    use emogi_runtime::{exec, Machine};

    /// Every vertex of `frontier` with its whole neighbour list.
    fn full_items(g: &CsrGraph, frontier: &[VertexId]) -> Vec<WorkSlice> {
        frontier
            .iter()
            .map(|&v| (v, g.neighbor_start(v), g.neighbor_end(v)))
            .collect()
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
                let work = Work::capture(&items, &[], &progs);
                let mut next = [Vec::new()];
                let mut k = ProgramKernel::new(
                    &g,
                    &layout,
                    strategy,
                    &mut progs,
                    StatusPlace::solo(layout.status_base),
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
            let launch = |progs: &mut [BfsProgram], masks: &[u64], status: StatusPlace| {
                let mut m = Machine::new(MachineConfig::v100_gen3());
                let layout = GraphLayout::place(&mut m, &g, 8, &Transport::ZeroCopy);
                for p in progs.iter_mut() {
                    p.begin_iteration();
                }
                let work = Work::capture(&items, masks, progs);
                let mut next = vec![Vec::new(); progs.len()];
                let mut k =
                    ProgramKernel::new(&g, &layout, strategy, progs, status, work, &mut next);
                exec::run_kernel(&mut m, &mut k);
                (m.monitor.read_requests, next)
            };
            let mut solo = [BfsProgram::new(&g, 5)];
            let (solo_reads, solo_next) = launch(&mut solo, &[], StatusPlace::solo(0x1000));
            let pair_status = StatusPlace {
                stride: 8,
                ..StatusPlace::solo(0x1000)
            };
            let mut pair = [BfsProgram::new(&g, 5), BfsProgram::new(&g, 5)];
            let (pair_reads, pair_next) = launch(&mut pair, &[0b11], pair_status);
            assert_eq!(pair_reads, solo_reads, "{strategy:?}: one shared fetch");
            assert_eq!(pair_next[0], solo_next[0], "{strategy:?}");
            assert_eq!(pair_next[1], solo_next[0], "{strategy:?}");
            // A member absent from the mask sees nothing.
            let mut half = [BfsProgram::new(&g, 5), BfsProgram::new(&g, 5)];
            let (_, half_next) = launch(&mut half, &[0b10], pair_status);
            assert!(half_next[0].is_empty(), "{strategy:?}");
            assert_eq!(half_next[1], solo_next[0], "{strategy:?}");
        }
    }

    /// Vertex 0 → 8, 16, …, 320: every destination's solo status entry
    /// and visit-mask word sits in a sector of its own.
    fn spaced_star() -> CsrGraph {
        let mut b = EdgeListBuilder::new(512);
        for j in 1..=40 {
            b.push(0, 8 * j);
        }
        b.build()
    }

    /// What one launch emits, its tasks stepped by hand.
    struct Emitted {
        status: StatusPlace,
        /// Loads inside the status block, in emission order.
        status_loads: Vec<u64>,
        /// Sectors of every coalesced load transaction: what the launch
        /// probes the L2 for.
        sectors: u64,
        /// Steps the coalescer sorted instead of merging.
        sorts: u64,
    }

    /// Step one launch of `progs` over `items`, every item expanded by
    /// every member, with status in a batch block of `progs.len()` slots
    /// (plus the visit mask, when the program asks for it). A block of
    /// one addresses like a solo run: stride 4, no mask.
    fn emit<P: VertexProgram>(g: &CsrGraph, progs: &mut [P], items: &[WorkSlice]) -> Emitted {
        let mut m = Machine::new(MachineConfig::v100_gen3());
        let mut layout = GraphLayout::place(&mut m, g, 8, &Transport::ZeroCopy);
        layout.ensure_edge_data(&mut m, g);
        let (k, visit) = (progs.len(), progs[0].needs_only_visited_bit());
        let slots = layout.ensure_batch_status(&mut m, g.num_vertices(), k, visit);
        assert_eq!(slots, k);
        let status = layout.batch_status(k, visit);
        let masks = vec![u64::MAX >> (64 - k); items.len()];
        progs.iter_mut().for_each(P::begin_iteration);
        let work = Work::capture(items, &masks, progs);
        let mut next = vec![Vec::new(); k];
        let strategy = AccessStrategy::MergedAligned;
        let mut kernel = ProgramKernel::new(g, &layout, strategy, progs, status, work, &mut next);
        let status_end = status.base + g.num_vertices() as u64 * status.stride;
        let in_block = |a: &&LaneAccess| !a.store && (status.base..status_end).contains(&a.addr);
        let (mut status_loads, mut coalescer, mut txns) =
            (Vec::new(), Coalescer::new(), Vec::new());
        while let Some(mut task) = kernel.next_task() {
            loop {
                let mut batch = AccessBatch::new();
                let outcome = kernel.step(&mut task, &mut batch);
                coalescer.coalesce(batch.items(), &mut txns);
                status_loads.extend(batch.items().iter().filter(in_block).map(|a| a.addr));
                if matches!(outcome, StepOutcome::Done) {
                    break;
                }
            }
        }
        let loads = txns.iter().filter(|t| !t.store);
        Emitted {
            status,
            status_loads,
            sectors: loads.map(|t| u64::from(t.size) / 32).sum(),
            sorts: coalescer.sorts,
        }
    }

    /// MS-BFS's shared visit mask: a BFS launch of any width gathers one
    /// 8-byte word per edge for all its members, so it probes exactly
    /// the sectors the solo launch probes — up to 64 members, mask bit 63
    /// included. Gathering each member's entry instead costs 2 sectors
    /// per destination at 16 members and 8 at 64.
    #[test]
    fn batched_bfs_probes_as_many_status_sectors_as_solo() {
        let g = spaced_star();
        let items = full_items(&g, &[0]);
        let solo = emit(&g, &mut [BfsProgram::new(&g, 0)], &items);
        assert!(solo.status.mask.is_none() && solo.status.stride == 4);
        for k in [2, 16, MAX_BATCH_QUERIES] {
            let mut progs: Vec<BfsProgram> = (0..k).map(|_| BfsProgram::new(&g, 0)).collect();
            let batched = emit(&g, &mut progs, &items);
            assert!(batched.status.mask.is_some());
            assert_eq!(batched.sectors, solo.sectors, "{k} members");
        }
    }

    /// Vertex-major status: a 4-member SSSP launch puts one destination's
    /// four gathers — and the source's four own-status loads — in one
    /// 32-byte sector, where four per-member arrays needed four.
    #[test]
    fn four_sssp_members_gather_one_destination_from_one_sector() {
        use crate::sssp::SsspProgram;
        let g = spaced_star();
        let w = vec![1u32; g.num_edges()];
        let mut progs: Vec<SsspProgram> = (0..4).map(|_| SsspProgram::new(&g, &w, 0)).collect();
        let Emitted {
            status_loads: loads,
            status,
            ..
        } = emit(&g, &mut progs, &full_items(&g, &[0]));
        assert_eq!(status.stride, 16);
        assert_eq!(
            loads.len(),
            4 * (1 + g.degree(0) as usize),
            "own + every edge"
        );
        for group in loads.chunks(4) {
            let v = (group[0] - status.base) / 16;
            let want: Vec<u64> = (0..4).map(|q| status.entry(v, q)).collect();
            assert_eq!(group, want, "vertex {v}: members in slot order");
            assert!(group.iter().all(|&a| a / 32 == group[0] / 32), "vertex {v}");
        }
    }

    /// Edge-outer, member-inner emission keeps a step's gathers one
    /// ascending run, so a 16-member step stays on the coalescer's merge
    /// path — for entry gathers (SSSP) and mask gathers (BFS) alike.
    /// Member-outer emission (each member's gathers for the whole step,
    /// then the next member's) sorts 15 of the hub's SSSP steps.
    #[test]
    fn a_sixteen_member_step_is_merged_not_sorted() {
        use crate::sssp::SsspProgram;
        let g = generators::kronecker(10, 16, 5);
        let hub = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let items = full_items(&g, &[hub]);
        let w = vec![1u32; g.num_edges()];
        let mut sssp: Vec<SsspProgram> = (0..16).map(|_| SsspProgram::new(&g, &w, hub)).collect();
        let sssp = emit(&g, &mut sssp, &items);
        assert_eq!(sssp.status_loads.len(), 16 * (1 + g.degree(hub) as usize));
        assert_eq!(sssp.sorts, 0, "SSSP");
        let mut bfs: Vec<BfsProgram> = (0..16).map(|_| BfsProgram::new(&g, hub)).collect();
        let bfs = emit(&g, &mut bfs, &items);
        assert!(bfs.status.mask.is_some());
        assert_eq!(bfs.sorts, 0, "BFS");
    }

    /// Every one of the executor's resident-warp slots holds a task, so
    /// a task's size is paid thousands of times per live launch: the
    /// naive walk's 32 cursors live behind a box, not inline.
    #[test]
    fn a_task_is_no_larger_than_a_warp_walk_task() {
        assert!(std::mem::size_of::<ProgramTask>() <= 72);
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
        let work = Work::capture(&items, &[], &progs);
        let mut next = [Vec::new()];
        let _ = ProgramKernel::new(
            &g,
            &layout,
            AccessStrategy::MergedAligned,
            &mut progs,
            StatusPlace::solo(layout.status_base),
            work,
            &mut next,
        );
    }
}
