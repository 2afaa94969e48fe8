//! The one iteration driver: N ≥ 1 machines × Q ≥ 1 same-type programs.
//!
//! EMOGI's claim (§4) is that one access discipline serves every
//! traversal; this module is the one loop that applies it. The
//! single-device [`Engine`](crate::engine::Engine) (N = 1), its batched
//! multi-query path (Q > 1) and the multi-GPU
//! [`ShardedEngine`](crate::sharded::ShardedEngine) (N > 1) are fronts
//! over [`Driver::drive`]; they only shape its result. Each device's
//! placement is one [`GraphLayout`]: the arrays' addresses, the hybrid
//! transfer manager and prefetcher or the packed subgraph buffer, and
//! the batch status block. Device bytes have one ledger, the machine's
//! allocator; staged regions have one record, the transfer manager's
//! table, and packed lists one, the buffer's slot list; the kernel's
//! address path reads both. One iteration is this ordered stage list,
//! for every entry point:
//!
//! 1. **merge** the active queries' frontiers into one sorted union with
//!    a member mask per vertex (Q = 1: the frontier itself, no masks);
//! 2. **shard** the union into per-device `(vertex, lo, hi)` work items
//!    by one deal, on every device count: one walk over the union deals
//!    short lists (under `HUB_SPLIT_DEGREE` elements) in vertex order,
//!    filling device 0 up to `⌈short elements / N⌉` elements, then
//!    device 1, and so on, so no device idles at the barrier while a
//!    peer walks a larger share; hubs go through one rule
//!    (`Driver::cut`): line-aligned pieces of
//!    `min(⌈deg / N⌉, hub_slice)` elements, round robin from the owner,
//!    so a hub's pieces meet the same devices' L2 query after query. The
//!    paper's kernels have no `hub_slice`, so on one device they never
//!    cut; the split-hub kernel cuts on every device count. One device
//!    gets everything. Full sweeps skip 1–2: a device's items are its
//!    owned vertex range, built once per drive by the same rule with
//!    every piece on the owner. Each device's items come out in
//!    ascending edge-list address order (the union is sorted, the deal
//!    walks it once, and CSR offsets are monotone in the vertex id), so
//!    there is no reorder stage: the stream is already sequential;
//! 3. per device with work: the active-vertex **scan**, once per active
//!    query;
//! 4. `begin_iteration` on every active program;
//! 5. **capture** every device's member contexts, per launch chunk —
//!    before any launch, so iteration-start state cannot depend on device
//!    order. A device's items are one chunk, unless a packed subgraph
//!    ([`Transport::Compacted`]) outgrows its buffer: then consecutive
//!    buffer-sized ones;
//! 6. **launch** every device with work, concurrently, on a scoped pool
//!    of min(host cores, devices with work) threads that start the
//!    largest deal first: per chunk, the layout's **plan** (the hybrid
//!    transfer plan over exactly the edge-list byte ranges the launch
//!    will read, or the packed subgraph's generation and copy), then one
//!    [`ProgramKernel`]. Device 0 launches on the master program state,
//!    every other device on a replica cloned from it just
//!    before the launches, so a launch sees iteration-start state plus
//!    its own writes and never a peer's writes of the same iteration. One
//!    device has no replica and spawns no thread;
//! 7. **fold** the replicas into the master in device order
//!    ([`VertexProgram::join`]);
//! 8. `post_iteration` device work, charged on every machine (each holds
//!    its own copy of the arrays);
//! 9. sort/dedup the activations, **exchange** them across devices and
//!    barrier (a no-op on one machine), rebuild the per-query frontiers;
//! 10. diff every device's running counter reading, fold the devices
//!     (concurrent: slowest clock, summed traffic, one launch wave) and
//!     add that into every active query's stats — the one fold a run's
//!     stats come from, on every front.
//!
//! When the loop ends, every device's placement checks its ledgers
//! against its machine's (`GraphLayout::check_ledgers`), in every build
//! profile, so every run on every front ends with its conservation laws
//! checked.
//!
//! Every stage before 6 is a pure function of iteration-start state (a
//! chunk split depends only on the items and the buffer's size),
//! which is what keeps batched and sharded runs bit-identical to solo
//! ones (`tests/sim_golden.rs` pins the numbers). No launch shares
//! mutable state with another — each owns its machine, its program state
//! and its activation lists — so a run does not depend on how many
//! threads the pool has.

use crate::batch::merge_frontiers;
use crate::engine::EngineConfig;
use crate::kernel::{ProgramKernel, Work, WorkSlice};
use crate::layout::{GraphLayout, StatusPlace, Transport};
use crate::program::{AccessPattern, DeviceWork, VertexProgram};
use crate::sharded::{FRONTIER_UPDATE_BYTES, HUB_SPLIT_DEGREE};
use crate::strategy::AccessStrategy;
use emogi_graph::{CsrGraph, VertexId, VertexPartition};
use emogi_runtime::exec::run_kernel;
use emogi_runtime::group::DeviceGroup;
use emogi_runtime::report::RunStats;
use emogi_runtime::Machine;
use emogi_sim::time::Time;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// The machines a drive runs on: one [`Machine`], or a [`DeviceGroup`]
/// with its exchange fabric.
pub(crate) trait Devices {
    /// The member machines, index = device id.
    fn machines(&mut self) -> &mut [Machine];
    /// Iteration-end exchange: barrier, broadcast `bytes[d]` from every
    /// device `d` to its peers, advance all clocks to the last delivery.
    fn exchange(&mut self, bytes: &[u64]);
}

impl Devices for Machine {
    fn machines(&mut self) -> &mut [Machine] {
        std::slice::from_mut(self)
    }

    /// A lone machine has no peers.
    fn exchange(&mut self, _bytes: &[u64]) {}
}

impl Devices for DeviceGroup {
    fn machines(&mut self) -> &mut [Machine] {
        &mut self.machines
    }

    fn exchange(&mut self, bytes: &[u64]) {
        DeviceGroup::exchange(self, bytes);
    }
}

/// Every device's cumulative counters, index = device id.
fn read_counters(machines: &[Machine], places: &[GraphLayout]) -> Vec<RunStats> {
    let each = machines.iter().zip(places);
    each.map(|(m, p)| p.counters(m)).collect()
}

/// Per-device stats between two readings.
fn diff(now: &[RunStats], base: Vec<RunStats>) -> Vec<RunStats> {
    now.iter().cloned().zip(base).map(|(n, b)| n - b).collect()
}

/// One device's launches of an iteration, handed to a pool worker.
struct Launch<'s, P: VertexProgram> {
    /// Edge-list elements dealt to the device: the pool starts the
    /// largest deal first.
    deal: u64,
    machine: &'s mut Machine,
    layout: &'s mut GraphLayout,
    status: StatusPlace,
    /// The master state (device 0) or the device's replica.
    programs: &'s mut [P],
    /// The device's work, captured per launch chunk (one chunk unless a
    /// packed subgraph outgrows its buffer).
    chunks: Vec<Work<'s, P::Ctx>>,
    /// How long the device's previous launch of this drive ran.
    kernel_ns: &'s mut Time,
    next: &'s mut [Vec<VertexId>],
}

/// Run every job, in order, on `min(workers, jobs)` scoped host threads,
/// the calling thread among them; each pulls the next job when it is
/// free. A job owns everything it touches, so what it computes does not
/// depend on which worker runs it or when. One worker spawns no thread.
fn pool<J: Send>(jobs: Vec<J>, workers: usize, run: impl Fn(J) + Sync) {
    let spawned = workers.min(jobs.len()).saturating_sub(1);
    if spawned == 0 {
        jobs.into_iter().for_each(run);
        return;
    }
    let queue = Mutex::new(jobs.into_iter());
    // No job runs under the lock, so a job's panic cannot poison it; the
    // scope re-raises that panic once every worker has ended.
    let work = || loop {
        let Some(job) = queue.lock().unwrap_or_else(PoisonError::into_inner).next() else {
            break;
        };
        run(job);
    };
    std::thread::scope(|s| {
        for _ in 0..spawned {
            s.spawn(work);
        }
        work();
    });
}

/// What one [`Driver::drive`] produced; the fronts shape it into
/// `Run` / `BatchRun` / `ShardedRun`.
pub(crate) struct Driven<O> {
    /// Program outputs, in submission order.
    pub outputs: Vec<O>,
    /// Per-query totals of the iterations each query was active in
    /// (flagged [`RunStats::shared_fetch`] when Q > 1): the one fold
    /// every front takes a run's stats from.
    pub per_query: Vec<RunStats>,
    /// Per-device counter diffs over the whole drive (`kernel_launches`
    /// is each device's physical launch count).
    pub per_device: Vec<RunStats>,
    /// Synchronous iterations executed (logical launch waves).
    pub iterations: u64,
}

/// A graph placed on N machines, and the loop that runs programs on it.
pub(crate) struct Driver<'g> {
    /// The placed graph.
    pub graph: &'g CsrGraph,
    /// The kernel-level access strategy every launch uses.
    pub strategy: AccessStrategy,
    /// Vertex ownership, one shard per device.
    pub partition: VertexPartition,
    /// Per-device placements; identical bases on every device.
    pub places: Vec<GraphLayout>,
}

impl<'g> Driver<'g> {
    /// Place `graph` on every machine; device `d` owns shard `d` of the
    /// degree-balanced partition over `machines.len()` shards (one
    /// device owns `[0, n)`). Panics on compressed lists under Naive: a
    /// lane cannot find an element of a varint stream without decoding
    /// the list before it.
    pub fn load(cfg: &EngineConfig, graph: &'g CsrGraph, machines: &mut [Machine]) -> Self {
        assert!(
            cfg.strategy.warp_per_vertex() || !matches!(cfg.transport, Transport::Compressed),
            "compressed lists are walked by whole warps: {} cannot read Transport::Compressed",
            cfg.strategy.name()
        );
        Self {
            graph,
            strategy: cfg.strategy,
            partition: VertexPartition::degree_balanced(graph, machines.len()),
            places: machines
                .iter_mut()
                .map(|m| GraphLayout::place(m, graph, cfg.elem_bytes, &cfg.transport))
                .collect(),
        }
    }

    /// The one hub-split rule. `v`'s list becomes one work item on
    /// `anchor`, unless it holds at least [`HUB_SPLIT_DEGREE`] elements:
    /// then it is cut into pieces of `min(⌈deg / spread⌉, hub_slice)`
    /// elements, rounded up to whole lines, and piece `k` goes to device
    /// `(anchor + k % spread) % ndev` — round robin over `spread` devices
    /// from the anchor. A warp walks its piece serially, so an uncut
    /// mega-hub is a latency chain no amount of sharding shortens. A
    /// paper strategy has no `hub_slice`, so on one device (or with
    /// `spread` 1) it never cuts. `place(d)` runs once per item pushed
    /// onto `items[d]`.
    fn cut(
        &self,
        v: VertexId,
        anchor: usize,
        spread: usize,
        items: &mut [Vec<WorkSlice>],
        mut place: impl FnMut(usize),
    ) {
        let ndev = items.len();
        let (start, end) = (self.graph.neighbor_start(v), self.graph.neighbor_end(v));
        let deg = end - start;
        let piece = if deg >= HUB_SPLIT_DEGREE {
            let even = deg.div_ceil(spread as u64);
            let piece = self.strategy.hub_slice().map_or(even, |c| even.min(c));
            let line = self.places[0].elems_per_line();
            piece.div_ceil(line) * line
        } else {
            deg.max(1)
        };
        let mut at = start;
        for d in (0..spread).cycle().map(|k| (anchor + k) % ndev) {
            let upto = (at + piece).min(end);
            items[d].push((v, at, upto));
            place(d);
            at = upto;
            if at >= end {
                break;
            }
        }
    }

    /// Stage 2 for a frontier, the one deal: one walk over the sorted
    /// union. Short lists (under [`HUB_SPLIT_DEGREE`]) fill device 0
    /// until it holds `⌈short elements / ndev⌉` elements, then device 1,
    /// and so on, so every device gets an equal span of short-list work
    /// whoever owns it. Hubs are [`cut`](Self::cut) round robin over
    /// every device from their owner, so a hub's pieces land on the same
    /// devices query after query. A member mask follows every item.
    fn shard(
        &self,
        union: &[VertexId],
        masks: &[u64],
        items: &mut [Vec<WorkSlice>],
        item_masks: &mut [Vec<u64>],
    ) {
        let ndev = items.len();
        items.iter_mut().for_each(Vec::clear);
        item_masks.iter_mut().for_each(Vec::clear);
        let short: u64 = union
            .iter()
            .map(|&v| self.graph.degree(v))
            .filter(|&deg| deg < HUB_SPLIT_DEGREE)
            .sum();
        let share = short.div_ceil(ndev as u64);
        let (mut d, mut held) = (0, 0);
        for (i, &v) in union.iter().enumerate() {
            let deg = self.graph.degree(v);
            let hub = deg >= HUB_SPLIT_DEGREE;
            let (anchor, spread) = if hub {
                (self.partition.owner(v), ndev)
            } else {
                (d, 1)
            };
            let mask = masks.get(i);
            self.cut(v, anchor, spread, items, |e| item_masks[e].extend(mask));
            if !hub {
                held += deg;
                if held >= share && d + 1 < ndev {
                    (d, held) = (d + 1, 0);
                }
            }
        }
    }

    /// A full sweep's work items, built once per drive: every owned
    /// vertex on its owner, hubs [`cut`](Self::cut) with spread 1 — the
    /// pieces stay on the owner, so what each device exchanges does not
    /// change.
    fn sweep(&self, items: &mut [Vec<WorkSlice>]) {
        for d in 0..items.len() {
            for v in self.partition.range(d) {
                self.cut(v, d, 1, items, |_| {});
            }
        }
    }

    /// Run `programs` (same type, same access pattern) to convergence.
    /// `batched` selects the status: the vertex-major block
    /// [`GraphLayout::ensure_batch_status`] provided (the caller ensured a
    /// slot per program, and the visit mask for a program that needs
    /// only a visited bit), or — for a single program — the layout's own
    /// array. A sharded iteration's launches run on one worker per host
    /// core.
    pub fn drive<P: VertexProgram>(
        &mut self,
        devices: &mut dyn Devices,
        programs: Vec<P>,
        batched: bool,
    ) -> Driven<P::Output> {
        // One device never spawns a thread, so it never asks for the
        // host's core count.
        let workers = match self.places.len() {
            1 => 1,
            _ => std::thread::available_parallelism().map_or(1, usize::from),
        };
        self.drive_on(devices, programs, batched, workers)
    }

    /// [`drive`](Self::drive) with an iteration's launches on at most
    /// `workers` host threads. The result does not depend on `workers`.
    pub(crate) fn drive_on<P: VertexProgram>(
        &mut self,
        devices: &mut dyn Devices,
        mut programs: Vec<P>,
        batched: bool,
        workers: usize,
    ) -> Driven<P::Output> {
        let (ndev, nq) = (self.places.len(), programs.len());
        let frontier_driven = programs[0].pattern() == AccessPattern::FrontierDriven;
        let visit_mask = programs[0].needs_only_visited_bit();
        assert!(
            frontier_driven || nq == 1,
            "full sweeps read everything every launch: there is no frontier to merge"
        );
        assert!(
            batched || nq == 1,
            "concurrent queries need a slot each in the batch status block"
        );
        if programs[0].uses_edge_data() {
            for (m, p) in devices.machines().iter_mut().zip(&mut self.places) {
                p.ensure_edge_data(m, self.graph);
            }
        }
        // One running reading per device: iteration k's close is
        // iteration k + 1's open.
        let start = read_counters(devices.machines(), &self.places);
        let mut reading = start.clone();
        let mut iterations = 0u64;
        // A batch of one shares its fetches with nobody; only real
        // multi-query batches flag their per-query stats.
        let mut per_query = vec![
            RunStats {
                shared_fetch: nq > 1,
                ..RunStats::default()
            };
            nq
        ];
        let mut frontiers: Vec<Vec<VertexId>> = programs
            .iter()
            .map(|p| {
                let mut f = if frontier_driven {
                    p.initial_frontier()
                } else {
                    Vec::new()
                };
                f.sort_unstable();
                f.dedup();
                f
            })
            .collect();
        // Frontier-sized buffers, reused across iterations.
        let (mut union, mut masks) = (Vec::new(), Vec::new());
        let mut items: Vec<Vec<WorkSlice>> = vec![Vec::new(); ndev];
        let mut item_masks: Vec<Vec<u64>> = vec![Vec::new(); ndev];
        if !frontier_driven {
            self.sweep(&mut items);
        }
        // Activations of device `d`, query `q`: `next[d * nq + q]`.
        let mut next: Vec<Vec<VertexId>> = vec![Vec::new(); ndev * nq];
        let mut active: Vec<usize> = Vec::new();
        let mut payload = vec![0u64; ndev];
        let mut kernel_ns: Vec<Time> = vec![0; ndev];
        let mut device_work = DeviceWork::default();
        // Devices 1.. launch on these copies of the programs.
        let mut replicas: Vec<Vec<P>> = vec![Vec::new(); ndev - 1];
        loop {
            active.clear();
            if frontier_driven {
                active.extend((0..nq).filter(|&q| !frontiers[q].is_empty()));
                if active.is_empty() {
                    break;
                }
                merge_frontiers(&frontiers, &mut union, &mut masks);
                self.shard(&union, &masks, &mut items, &mut item_masks);
            } else {
                active.push(0);
            }
            iterations += 1;

            for (m, its) in devices.machines().iter_mut().zip(&items) {
                // Devices dealt nothing this iteration stay idle.
                if its.is_empty() {
                    continue;
                }
                // The kernels iterate over all vertices and test their
                // status (§2.1 Algorithm 1) — once per query, exactly as
                // many times as sequential runs would pay it: batching
                // saves edge fetches, not bookkeeping.
                for _ in &active {
                    m.now = m.hbm.read_bulk(m.now, self.graph.num_vertices() as u64 * 4);
                }
            }

            for &q in &active {
                programs[q].begin_iteration();
            }
            let captured: Vec<Vec<Work<P::Ctx>>> = (0..ndev)
                .map(|d| {
                    let capture = |r: Range<usize>| {
                        let masks = item_masks[d].get(r.clone()).unwrap_or_default();
                        Work::capture(&items[d][r], masks, &programs)
                    };
                    self.places[d]
                        .chunks(&items[d])
                        .into_iter()
                        .map(capture)
                        .collect()
                })
                .collect();

            // Device 0 launches on the master state, every other device
            // with work on a replica of it, so no launch sees a peer's
            // writes of this iteration.
            for (reps, its) in replicas.iter_mut().zip(&items[1..]) {
                if !its.is_empty() {
                    reps.clone_from(&programs);
                }
            }
            let states = std::iter::once(&mut programs).chain(&mut replicas);
            let mut launches: Vec<Launch<P>> = devices
                .machines()
                .iter_mut()
                .zip(&mut self.places)
                .zip(states.zip(next.chunks_mut(nq)))
                .zip(captured.into_iter().zip(&mut kernel_ns))
                .zip(&items)
                .filter(|(_, its)| !its.is_empty())
                .map(
                    |((((machine, layout), (programs, next)), (chunks, kernel_ns)), its)| Launch {
                        deal: its.iter().map(|&(_, lo, hi)| hi - lo).sum(),
                        machine,
                        status: if batched {
                            layout.batch_status(nq, visit_mask)
                        } else {
                            StatusPlace::solo(layout.status_base)
                        },
                        layout,
                        programs,
                        chunks,
                        kernel_ns,
                        next,
                    },
                )
                .collect();
            launches.sort_by_key(|l| std::cmp::Reverse(l.deal));
            let (graph, strategy) = (self.graph, self.strategy);
            pool(launches, workers, |l| {
                for (k, work) in l.chunks.into_iter().enumerate() {
                    l.layout.plan(l.machine, work.items(), k == 0, *l.kernel_ns);
                    let start = l.machine.now;
                    let mut kernel = ProgramKernel::new(
                        graph, l.layout, strategy, l.programs, l.status, work, l.next,
                    );
                    run_kernel(l.machine, &mut kernel);
                    *l.kernel_ns = l.machine.now - start;
                }
            });
            for (reps, its) in replicas.iter().zip(&items[1..]) {
                if !its.is_empty() {
                    for &q in &active {
                        programs[q].join(&reps[q]);
                    }
                }
            }

            // The work is semantic once (program state updates a single
            // time) but every device performs it on its own copy of the
            // arrays, so each machine is charged the same bulk sweeps.
            for &q in &active {
                programs[q].post_iteration(&mut device_work);
            }
            let sweeps: Vec<u64> = device_work.drain().collect();
            for m in devices.machines() {
                for &bytes in &sweeps {
                    m.now = m.hbm.read_bulk(m.now, bytes);
                }
            }

            // Every device broadcasts what it changed: the (vertex,
            // value) pairs it activated (a vertex several devices
            // activate is sent by each of them), or — full sweeps update
            // owned entries (CC) or reduce into owners (PageRank) — its
            // owned status slice. Remote activations join their owners' next
            // shards, and every device's status copy stays coherent.
            for (d, bytes) in payload.iter_mut().enumerate() {
                let activated = &mut next[d * nq..(d + 1) * nq];
                for a in activated.iter_mut() {
                    a.sort_unstable();
                    a.dedup();
                }
                *bytes = if frontier_driven {
                    activated.iter().map(|a| a.len() as u64).sum::<u64>() * FRONTIER_UPDATE_BYTES
                } else {
                    self.partition.range(d).len() as u64 * 4
                };
            }
            devices.exchange(&payload);
            for (q, f) in frontiers.iter_mut().enumerate() {
                f.clear();
                for d in 0..ndev {
                    f.append(&mut next[d * nq + q]);
                }
                f.sort_unstable();
                f.dedup();
            }

            let now = read_counters(devices.machines(), &self.places);
            let mut iteration = RunStats::aggregate_concurrent(&diff(&now, reading));
            reading = now;
            iteration.kernel_launches = 1;
            for &q in &active {
                per_query[q] += &iteration;
            }
            if !frontier_driven && programs[0].converged() {
                break;
            }
        }
        for (m, p) in devices.machines().iter().zip(&self.places) {
            p.check_ledgers(m);
        }
        Driven {
            outputs: programs.into_iter().map(P::finish).collect(),
            per_query,
            per_device: diff(&reading, start),
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsProgram;
    use crate::cc::CcProgram;
    use emogi_graph::generators;
    use emogi_runtime::machine::MachineConfig;
    use emogi_runtime::TransferConfig;
    use emogi_sim::cxl::CxlConfig;

    fn driver(graph: &CsrGraph, devices: usize) -> (Vec<Machine>, Driver<'_>) {
        driver_with(&EngineConfig::emogi_v100(), graph, devices)
    }

    fn driver_with<'g>(
        cfg: &EngineConfig,
        graph: &'g CsrGraph,
        devices: usize,
    ) -> (Vec<Machine>, Driver<'g>) {
        let mut machines: Vec<Machine> = (0..devices)
            .map(|_| Machine::new(cfg.machine.clone()))
            .collect();
        let driver = Driver::load(cfg, graph, &mut machines);
        (machines, driver)
    }

    /// The paper's kernels under the one deal: a hub is cut only across
    /// devices, into one line-aligned slice per device from its owner; a
    /// short list stays whole and goes where the deal's span puts it.
    #[test]
    fn hubs_split_across_devices_and_members_follow_every_slice() {
        let g = generators::kronecker(10, 16, 5);
        let n = g.num_vertices() as u32;
        let hub = (0..n).max_by_key(|&v| g.degree(v)).unwrap();
        assert!(g.degree(hub) >= HUB_SPLIT_DEGREE, "scenario needs a hub");
        // A leaf in the upper half of the ids: device 0 never owns it.
        let leaf = (n / 2..n)
            .find(|&v| v != hub && (1..HUB_SPLIT_DEGREE).contains(&g.degree(v)))
            .unwrap();
        let mut union = vec![hub, leaf];
        union.sort_unstable();
        let masks: Vec<u64> = union
            .iter()
            .map(|&v| if v == hub { 0b101 } else { 0b010 })
            .collect();
        let (start, end) = (g.neighbor_start(hub), g.neighbor_end(hub));

        // One device never cuts a paper kernel's hub: the items are
        // exactly the union.
        let (_, one) = driver(&g, 1);
        let (mut items, mut item_masks) = (vec![Vec::new()], vec![Vec::new()]);
        one.shard(&union, &masks, &mut items, &mut item_masks);
        let whole: Vec<WorkSlice> = union
            .iter()
            .map(|&v| (v, g.neighbor_start(v), g.neighbor_end(v)))
            .collect();
        assert_eq!(items[0], whole);
        assert_eq!(item_masks[0], masks);
        // A single query materialises no masks.
        one.shard(&union, &[], &mut items, &mut item_masks);
        assert_eq!(items[0], whole);
        assert!(item_masks[0].is_empty());

        // Four devices: the hub's list becomes one line-aligned slice
        // per device, the owner keeping the first; the leaf, the only
        // short list, is all of device 0's span and stays whole there,
        // whoever owns it; masks move with every slice.
        let (_, four) = driver(&g, 4);
        assert_ne!(
            four.partition.owner(leaf),
            0,
            "the leaf is another device's"
        );
        let (mut items, mut item_masks) = (vec![Vec::new(); 4], vec![Vec::new(); 4]);
        four.shard(&union, &masks, &mut items, &mut item_masks);
        let owner = four.partition.owner(hub);
        let line = four.places[0].elems_per_line();
        let mut slices: Vec<(u64, u64)> = Vec::new();
        for (d, (its, ms)) in items.iter().zip(&item_masks).enumerate() {
            assert_eq!(its.len(), ms.len(), "device {d}: one mask per item");
            for (&(v, lo, hi), &m) in its.iter().zip(ms) {
                if v == hub {
                    assert_eq!(m, 0b101);
                    assert_eq!(d == owner, lo == start, "the owner keeps the first slice");
                    slices.push((lo, hi));
                } else {
                    assert_eq!((v, m), (leaf, 0b010));
                    assert_eq!(d, 0, "the only short list fills device 0's span");
                    assert_eq!((lo, hi), (g.neighbor_start(leaf), g.neighbor_end(leaf)));
                }
            }
        }
        slices.sort_unstable();
        assert_eq!(slices.len(), 4, "one slice per device");
        assert_eq!((slices[0].0, slices[3].1), (start, end));
        for w in slices.windows(2) {
            assert_eq!(w[0].1, w[1].0, "slices tile the list");
            assert_eq!((w[0].1 - start) % line, 0, "cuts are line-aligned");
        }
    }

    /// The one deal on a real batch union: on N devices every device's
    /// short-list work is at most `⌈short / N⌉ + HUB_SPLIT_DEGREE − 1`
    /// elements, device `d`'s short vertices all precede device
    /// `d + 1`'s, hub pieces go round robin from the owner, and each
    /// item carries its vertex's member mask. On one device the items
    /// are the union in order, hubs cut only by the kernel's slice.
    #[test]
    fn the_deal_gives_every_device_an_equal_span_of_short_lists() {
        let g = generators::kronecker(12, 16, 5);
        let n = g.num_vertices() as u32;
        let is_hub = |v: VertexId| g.degree(v) >= HUB_SPLIT_DEGREE;
        let every = |k: u32| -> Vec<VertexId> { (0..n).filter(|v| v % k == 0).collect() };
        let (mut union, mut masks) = (Vec::new(), Vec::new());
        merge_frontiers(&[every(2), every(3), every(7)], &mut union, &mut masks);
        let short: u64 = union
            .iter()
            .filter(|&&v| !is_hub(v))
            .map(|&v| g.degree(v))
            .sum();
        assert!(
            union.iter().filter(|&&v| is_hub(v)).count() > 1,
            "scenario needs hubs"
        );
        let mask_of = |v: VertexId| masks[union.binary_search(&v).unwrap()];

        let plain = EngineConfig::emogi_v100();
        let split = plain
            .clone()
            .with_strategy(AccessStrategy::MergedAlignedSplit);
        for cfg in [&plain, &split] {
            // One device: the union in order, a hub cut into whole warps'
            // worth of elements only when the kernel has a slice.
            let (_, one) = driver_with(cfg, &g, 1);
            let (mut items, mut item_masks) = (vec![Vec::new()], vec![Vec::new()]);
            one.shard(&union, &masks, &mut items, &mut item_masks);
            let (mut want, mut want_masks) = (Vec::new(), Vec::new());
            for (&v, &m) in union.iter().zip(&masks) {
                let (mut lo, end) = (g.neighbor_start(v), g.neighbor_end(v));
                let piece = match cfg.strategy.hub_slice() {
                    Some(slice) if is_hub(v) => slice,
                    _ => (end - lo).max(1),
                };
                loop {
                    want.push((v, lo, (lo + piece).min(end)));
                    want_masks.push(m);
                    lo += piece;
                    if lo >= end {
                        break;
                    }
                }
            }
            assert_eq!(items[0], want, "{:?}", cfg.strategy);
            assert_eq!(item_masks[0], want_masks, "{:?}", cfg.strategy);

            for devices in [2, 4] {
                let what = format!("{:?}, {devices} devices", cfg.strategy);
                let (_, driver) = driver_with(cfg, &g, devices);
                let mut items = vec![Vec::new(); devices];
                let mut item_masks = vec![Vec::new(); devices];
                driver.shard(&union, &masks, &mut items, &mut item_masks);
                let share = short.div_ceil(devices as u64);
                let mut spans: Vec<(VertexId, VertexId)> = Vec::new();
                let mut dealt = 0;
                for (d, (its, ms)) in items.iter().zip(&item_masks).enumerate() {
                    assert_eq!(its.len(), ms.len(), "{what}: one mask per item");
                    for (&(v, _, _), &m) in its.iter().zip(ms) {
                        assert_eq!(m, mask_of(v), "{what}: device {d}, vertex {v}");
                    }
                    let shorts: Vec<VertexId> =
                        its.iter().map(|it| it.0).filter(|&v| !is_hub(v)).collect();
                    let work: u64 = shorts.iter().map(|&v| g.degree(v)).sum();
                    assert!(
                        work < share + HUB_SPLIT_DEGREE,
                        "{what}: device {d} holds {work} of a {share} share"
                    );
                    dealt += work;
                    if let (Some(&first), Some(&last)) = (shorts.first(), shorts.last()) {
                        spans.push((first, last));
                    }
                }
                assert_eq!(dealt, short, "{what}: every short list is dealt once");
                assert_eq!(spans.len(), devices, "{what}: every device gets a span");
                for w in spans.windows(2) {
                    assert!(w[0].1 < w[1].0, "{what}: spans follow vertex order");
                }
                for &hub in union.iter().filter(|&&v| is_hub(v)) {
                    let owner = driver.partition.owner(hub);
                    for (k, &(d, _)) in pieces_of(&driver, hub, &items).iter().enumerate() {
                        assert_eq!(d, (owner + k) % devices, "{what}: hub {hub} piece {k}");
                    }
                }
            }
        }
    }

    /// The straggler counter: BFS from a directed star's hub is one list.
    /// On the paper kernel one warp walks it, so most of the run is that
    /// warp alone; the split-hub kernel walks warp-sized pieces side by
    /// side and the lone tail all but vanishes. The counter is a reading:
    /// the ledger law `last_warp_alone_ns <= elapsed_ns` holds either way.
    #[test]
    fn a_lone_hub_walk_is_the_last_warp_alone() {
        let leaves = 8 * HUB_SPLIT_DEGREE as u32;
        let mut star = emogi_graph::EdgeListBuilder::new(leaves as usize + 1);
        for leaf in 1..=leaves {
            star.push(0, leaf);
        }
        let g = star.build();
        let alone = |strategy| {
            let cfg = EngineConfig::emogi_v100().with_strategy(strategy);
            let (mut machines, mut one) = driver_with(&cfg, &g, 1);
            let driven = one.drive(&mut machines[0], vec![BfsProgram::new(&g, 0)], false);
            let s = &driven.per_query[0];
            assert!(s.last_warp_alone_ns <= s.elapsed_ns);
            s.last_warp_alone_ns as f64 / s.elapsed_ns as f64
        };
        let (paper, split) = (
            alone(AccessStrategy::MergedAligned),
            alone(AccessStrategy::MergedAlignedSplit),
        );
        assert!(paper > 0.5, "one warp walks the hub alone: {paper:.3}");
        assert!(
            split < paper / 4.0,
            "pieces walk side by side: {split:.3} vs {paper:.3}"
        );
    }

    /// The pieces of `v` in `items`, in edge order, with the device each
    /// landed on. Panics unless they tile `v`'s list and every cut sits a
    /// whole number of lines past its start.
    fn pieces_of(driver: &Driver, v: VertexId, items: &[Vec<WorkSlice>]) -> Vec<(usize, u64)> {
        let g = driver.graph;
        let line = driver.places[0].elems_per_line();
        let mut pieces: Vec<(u64, u64, usize)> = Vec::new();
        for (d, its) in items.iter().enumerate() {
            let mine = its.iter().filter(|it| it.0 == v);
            pieces.extend(mine.map(|&(_, lo, hi)| (lo, hi, d)));
        }
        pieces.sort_unstable();
        let (start, end) = (g.neighbor_start(v), g.neighbor_end(v));
        assert_eq!(pieces.first().map(|p| p.0), Some(start));
        assert_eq!(pieces.last().map(|p| p.1), Some(end));
        for w in pieces.windows(2) {
            assert_eq!(w[0].1, w[1].0, "pieces tile the list");
            assert_eq!((w[0].1 - start) % line, 0, "cuts are line-aligned");
        }
        pieces.iter().map(|&(lo, hi, d)| (d, hi - lo)).collect()
    }

    /// The split-hub kernel's rule on every device count: a frontier hub
    /// becomes line-aligned pieces of at most `HUB_SPLIT_DEGREE` elements
    /// that tile its list, dealt round robin from the owner (on one
    /// device, all of them there); its member mask follows every piece;
    /// short lists stay whole, in the deal's spans.
    #[test]
    fn the_split_kernel_cuts_frontier_hubs_into_warp_sized_pieces() {
        let g = generators::kronecker(12, 16, 5);
        let n = g.num_vertices() as u32;
        let hub = (0..n).max_by_key(|&v| g.degree(v)).unwrap();
        assert!(
            g.degree(hub) > 4 * HUB_SPLIT_DEGREE,
            "scenario needs a hub that wraps round four devices"
        );
        // A leaf in the upper half of the ids: on 2 and 4 devices, device
        // 0 never owns it.
        let leaf = (n / 2..n)
            .find(|&v| v != hub && (1..HUB_SPLIT_DEGREE).contains(&g.degree(v)))
            .unwrap();
        let mut union = vec![hub, leaf];
        union.sort_unstable();
        let masks: Vec<u64> = union
            .iter()
            .map(|&v| if v == hub { 0b101 } else { 0b010 })
            .collect();
        let split = EngineConfig::emogi_v100().with_strategy(AccessStrategy::MergedAlignedSplit);
        for devices in [1, 2, 4] {
            let (_, driver) = driver_with(&split, &g, devices);
            assert_eq!(driver.partition.owner(leaf) == 0, devices == 1);
            let (mut items, mut item_masks) =
                (vec![Vec::new(); devices], vec![Vec::new(); devices]);
            driver.shard(&union, &masks, &mut items, &mut item_masks);
            for (its, ms) in items.iter().zip(&item_masks) {
                assert_eq!(its.len(), ms.len(), "one mask per item");
                for (&(v, _, _), &m) in its.iter().zip(ms) {
                    assert_eq!(m, if v == hub { 0b101 } else { 0b010 });
                }
            }
            let owner = driver.partition.owner(hub);
            let pieces = pieces_of(&driver, hub, &items);
            assert_eq!(
                pieces.len() as u64,
                g.degree(hub).div_ceil(HUB_SPLIT_DEGREE),
                "{devices} devices: every piece but the last is a full warp's"
            );
            for (k, &(d, len)) in pieces.iter().enumerate() {
                assert_eq!(d, (owner + k) % devices, "{devices} devices: round robin");
                assert!(len <= HUB_SPLIT_DEGREE, "{devices} devices: piece {k}");
            }
            // The only short list is all of device 0's span.
            let leaf_pieces = pieces_of(&driver, leaf, &items);
            assert_eq!(leaf_pieces, [(0, g.degree(leaf))]);
        }
    }

    /// A full sweep's items, per device: every owned vertex, in order,
    /// tiling the device's edge range. The split-hub kernel cuts each
    /// hub into warp-sized pieces that all stay on the owner (so the
    /// exchange does not change); the paper's kernels never cut a sweep,
    /// on any device count.
    #[test]
    fn sweep_items_tile_each_owned_range_and_hub_pieces_stay_home() {
        let g = generators::kronecker(10, 16, 5);
        let n = g.num_vertices() as u32;
        let hubs: Vec<VertexId> = (0..n)
            .filter(|&v| g.degree(v) >= HUB_SPLIT_DEGREE)
            .collect();
        assert!(hubs.len() > 1, "scenario needs hubs");
        let split = EngineConfig::emogi_v100().with_strategy(AccessStrategy::MergedAlignedSplit);
        for cfg in [EngineConfig::emogi_v100(), split] {
            let cuts = cfg.strategy.hub_slice().is_some();
            for devices in [1, 2, 4] {
                let (_, driver) = driver_with(&cfg, &g, devices);
                let mut items = vec![Vec::new(); devices];
                driver.sweep(&mut items);
                for (d, its) in items.iter().enumerate() {
                    let range = driver.partition.range(d);
                    let mut owned: Vec<VertexId> = its.iter().map(|it| it.0).collect();
                    owned.dedup();
                    assert!(owned.iter().copied().eq(range.clone()), "device {d}");
                    let mut at = g.neighbor_start(range.start);
                    for &(_, lo, hi) in its {
                        assert_eq!(lo, at, "device {d}: items tile its edge range");
                        at = hi;
                    }
                }
                for &hub in &hubs {
                    let pieces = pieces_of(&driver, hub, &items);
                    let owner = driver.partition.owner(hub);
                    assert!(pieces.iter().all(|&(d, _)| d == owner), "pieces stay home");
                    let want = if cuts {
                        g.degree(hub).div_ceil(HUB_SPLIT_DEGREE)
                    } else {
                        1
                    };
                    assert_eq!(pieces.len() as u64, want, "{:?}, {devices}", cfg.strategy);
                    assert!(!cuts || pieces.iter().all(|&(_, len)| len <= HUB_SPLIT_DEGREE));
                }
            }
        }
    }

    /// Why the driver has no reorder stage: every device's work items
    /// already arrive in ascending edge-list address order — the union is
    /// sorted, `shard` walks it once, and CSR offsets are
    /// monotone in the vertex id — through hub splitting (across devices
    /// or into warp-sized pieces), batch unions, full sweeps and a
    /// CXL-spilled tail alike. A change to `cut`, `shard`, `sweep` or
    /// `merge_frontiers` that breaks the order fails here.
    #[test]
    fn work_items_arrive_in_edge_address_order() {
        let g = generators::kronecker(9, 16, 21);
        let n = g.num_vertices() as u32;
        assert!(
            (0..n).any(|v| g.degree(v) >= HUB_SPLIT_DEGREE),
            "scenario needs a hub"
        );
        let all: Vec<VertexId> = (0..n).filter(|&v| g.degree(v) > 0).collect();
        let every =
            |k: u32| -> Vec<VertexId> { all.iter().copied().filter(|v| v % k == 0).collect() };
        let queries = [vec![all.clone()], vec![every(2), every(3), all.clone()]];

        let check = |cfg: &EngineConfig, devices: usize| {
            let (_, driver) = driver_with(cfg, &g, devices);
            for frontiers in &queries {
                let (mut union, mut masks) = (Vec::new(), Vec::new());
                merge_frontiers(frontiers, &mut union, &mut masks);
                let mut items = vec![Vec::new(); devices];
                let mut item_masks = vec![Vec::new(); devices];
                driver.shard(&union, &masks, &mut items, &mut item_masks);
                assert_eq!(
                    items.iter().flatten().count() > union.len(),
                    devices > 1 || cfg.strategy.hub_slice().is_some(),
                    "the hub splits when it has peers, or a warp-sized slice"
                );
                for (p, its) in driver.places.iter().zip(&items) {
                    assert!(p.redirect.is_none(), "zero-copy never stages");
                    assert!(
                        its.is_sorted_by_key(|&(_, lo, _)| p.edge_addr(lo)),
                        "{devices} devices, {} queries",
                        frontiers.len()
                    );
                }
            }
            let mut sweep = vec![Vec::new(); devices];
            driver.sweep(&mut sweep);
            for (p, its) in driver.places.iter().zip(&sweep) {
                let sorted = its.is_sorted_by_key(|&(_, lo, _)| p.edge_addr(lo));
                assert!(sorted, "sweep, {devices} devices");
            }
            driver
        };
        let plain = EngineConfig::emogi_v100();
        let split = plain
            .clone()
            .with_strategy(AccessStrategy::MergedAlignedSplit);
        for cfg in [&plain, &split] {
            for devices in [1, 2, 4] {
                check(cfg, devices);
            }
        }
        // Host DRAM holds one spill unit of the 76 KB edge list; the tail
        // lives in the CXL window, above every host address.
        let mut spilled = plain.clone();
        spilled.machine = spilled
            .machine
            .with_cxl(CxlConfig::external_x8())
            .with_host_capacity(crate::layout::SPILL_ALIGN);
        let driver = check(&spilled, 1);
        check(
            &spilled.with_strategy(AccessStrategy::MergedAlignedSplit),
            1,
        );
        let layout = &driver.places[0];
        assert!(layout.cxl_edge_base.is_some() && layout.host_edge_bytes > 0);
    }

    /// One fold per run: a lone query's per-iteration fold equals the
    /// whole-run fold of the device diffs (slowest device, summed
    /// traffic, one launch per iteration). On one device the iterations
    /// tile the run; on N the exchange barrier-aligns every clock at each
    /// iteration's end, so the slowest device per iteration sums to the
    /// slowest device over the run. This is what lets `Engine::run` and
    /// `ShardedEngine::run` both take the per-query fold, and
    /// `Engine::run_batch` serve its no-slot fallback through the same
    /// result shaping as a real batch.
    #[test]
    fn a_lone_querys_iteration_fold_equals_the_device_diff() {
        fn whole_run_fold<O>(driven: &Driven<O>) -> RunStats {
            let mut stats = RunStats::aggregate_concurrent(&driven.per_device);
            stats.kernel_launches = driven.iterations;
            stats
        }
        let g = generators::uniform_random(600, 8, 9);
        let (mut machines, mut one) = driver(&g, 1);
        for src in [4u32, 77] {
            let driven = one.drive(&mut machines[0], vec![BfsProgram::new(&g, src)], false);
            assert_eq!(driven.per_query[0], driven.per_device[0], "source {src}");
            assert_eq!(driven.per_device[0].kernel_launches, driven.iterations);
        }
        for cfg in [EngineConfig::emogi_v100(), EngineConfig::pipelined_v100()] {
            for devices in [2, 4] {
                let mut group = DeviceGroup::new(devices, cfg.machine.clone());
                let mut n = Driver::load(&cfg, &g, &mut group.machines);
                let what = format!("{:?}, {devices} devices", cfg.transport);
                for src in [4u32, 77] {
                    let bfs = n.drive(&mut group, vec![BfsProgram::new(&g, src)], false);
                    assert_eq!(bfs.per_query[0], whole_run_fold(&bfs), "{what}, BFS {src}");
                }
                let cc = n.drive(&mut group, vec![CcProgram::new(&g)], false);
                assert_eq!(cc.per_query[0], whole_run_fold(&cc), "{what}, CC");
            }
        }
    }

    /// The pool's gate: every device launches on its own copy of the
    /// program state and owns its machine, so a sharded run is the same
    /// whether one host thread runs the launches one after another or
    /// four run them at once — outputs, per-query and per-device stats,
    /// iteration counts and exchange traffic, for all four programs on 2
    /// and 4 devices, on zero-copy and on pipelined hybrid placements.
    #[test]
    fn a_sharded_run_does_not_depend_on_the_pools_worker_count() {
        use crate::pagerank::PageRankProgram;
        use crate::sssp::SsspProgram;
        use emogi_graph::datasets::generate_weights;
        use emogi_sim::interconnect::LinkStats;

        type Observed = (Vec<u64>, Vec<RunStats>, Vec<RunStats>, u64, LinkStats);
        fn observe<P: VertexProgram>(
            cfg: &EngineConfig,
            g: &CsrGraph,
            devices: usize,
            workers: usize,
            program: P,
            output: impl Fn(P::Output) -> Vec<u64>,
        ) -> Observed {
            let mut group = DeviceGroup::new(devices, cfg.machine.clone());
            let mut driver = Driver::load(cfg, g, &mut group.machines);
            let mut driven = driver.drive_on(&mut group, vec![program], false, workers);
            let out = output(driven.outputs.pop().unwrap());
            let exchange = group.interconnect.totals();
            (
                out,
                driven.per_query,
                driven.per_device,
                driven.iterations,
                exchange,
            )
        }

        let g = generators::kronecker(10, 16, 5);
        let w = generate_weights(g.num_edges(), 3);
        let hub = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let widen = |xs: Vec<u32>| xs.into_iter().map(u64::from).collect::<Vec<u64>>();
        let split = EngineConfig::emogi_v100().with_strategy(AccessStrategy::MergedAlignedSplit);
        for cfg in [split, EngineConfig::pipelined_v100()] {
            for devices in [2, 4] {
                let what = format!("{:?}, {devices} devices", cfg.transport);
                let runs = |workers| {
                    let bfs = BfsProgram::new(&g, hub);
                    let sssp = SsspProgram::new(&g, &w, hub);
                    let pr = PageRankProgram::new(&g, 0.85, 4);
                    [
                        observe(&cfg, &g, devices, workers, bfs, |o| widen(o.levels)),
                        observe(&cfg, &g, devices, workers, sssp, |o| widen(o.dist)),
                        observe(&cfg, &g, devices, workers, CcProgram::new(&g), |o| {
                            widen(o.comp)
                        }),
                        observe(&cfg, &g, devices, workers, pr, |o| {
                            o.ranks.iter().map(|r| r.to_bits()).collect()
                        }),
                    ]
                };
                let (one, four) = (runs(1), runs(4));
                for (name, (a, b)) in ["BFS", "SSSP", "CC", "PageRank"]
                    .iter()
                    .zip(one.iter().zip(&four))
                {
                    assert!(
                        a.2.iter().filter(|d| d.kernel_launches > 0).count() > 1,
                        "{what}, {name}: more than one device had work"
                    );
                    assert_eq!(a, b, "{what}, {name}");
                }
            }
        }
    }

    /// Ledger algebra on real counters: three readings of one device
    /// around two pipelined hybrid BFS runs on a CXL-attached machine
    /// whose host DRAM holds half the edge list, so PCIe, histogram,
    /// CXL, transfer and prefetch counters all move.
    #[test]
    fn counter_diffs_of_adjacent_spans_fold_into_the_diff_of_the_whole() {
        let g = generators::kronecker(12, 16, 7);
        let mut cfg = EngineConfig::emogi_v100().with_transport(Transport::Hybrid {
            transfer: TransferConfig {
                region_bytes: 4 << 10,
            },
            pipelined: true,
        });
        cfg.machine = cfg
            .machine
            .with_cxl(CxlConfig::external_x8())
            .with_host_capacity(g.edge_list_bytes(cfg.elem_bytes) / 2);
        let (mut machines, mut one) = driver_with(&cfg, &g, 1);
        let hub = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();

        let c0 = one.places[0].counters(&machines[0]);
        one.drive(&mut machines[0], vec![BfsProgram::new(&g, hub)], false);
        let c1 = one.places[0].counters(&machines[0]);
        let second = one.drive(&mut machines[0], vec![BfsProgram::new(&g, 1)], false);
        let c2 = one.places[0].counters(&machines[0]);

        let whole = c2.clone() - c0.clone();
        for (name, moved) in [
            ("pcie reads", whole.pcie_read_requests),
            ("request sizes", whole.request_sizes.total()),
            ("cxl bytes", whole.cxl_bytes),
            ("cxl promotions", whole.transfer.cxl_staged_bytes),
            (
                "host staging",
                whole.transfer.staged_bytes - whole.transfer.cxl_staged_bytes,
            ),
            ("prefetch hits", whole.prefetch.hit_bytes),
            ("prefetch stalls", whole.prefetch.stall_ns),
        ] {
            assert!(moved > 0, "the scenario must move {name}");
        }
        assert_eq!(whole.elapsed_ns, c2.elapsed_ns - c0.elapsed_ns);
        assert_eq!(whole.elapsed_ns, machines[0].now, "c0 was read at time 0");

        let later = c2 - c1.clone();
        assert_eq!(later, second.per_device[0]);
        let mut folded = c1 - c0;
        assert!(folded.elapsed_ns > 0 && folded != whole);
        folded += &later;
        assert_eq!(folded, whole, "(c1 - c0) + (c2 - c1) == c2 - c0");
    }

    /// The machine counts its own launches: one per `run_kernel`, per
    /// device. On one device every iteration launches; on two, a device
    /// dealt nothing that iteration stays idle, counts nothing and books
    /// its wait at the barrier.
    #[test]
    fn per_device_launches_come_from_each_machines_own_counter() {
        let g = generators::uniform_random(600, 8, 9);
        let (mut machines, mut one) = driver(&g, 1);
        let driven = one.drive(&mut machines[0], vec![BfsProgram::new(&g, 4)], false);
        assert_eq!(machines[0].kernel_launches, driven.iterations);

        let mut group = DeviceGroup::new(2, MachineConfig::v100_gen3());
        let cfg = EngineConfig::emogi_v100();
        let mut two = Driver::load(&cfg, &g, &mut group.machines);
        let driven = two.drive(&mut group, vec![BfsProgram::new(&g, 4)], false);
        for (d, m) in group.machines.iter().enumerate() {
            assert_eq!(driven.per_device[d].kernel_launches, m.kernel_launches);
            assert!(m.kernel_launches <= driven.iterations, "device {d}");
        }
        // Every frontier's first span is device 0's, so it launches every
        // iteration; iteration 1's lone source leaves device 1 idle,
        // waiting at the barrier. One device never waits.
        assert!(group.machines[1].kernel_launches < driven.iterations);
        assert_eq!(group.machines[0].kernel_launches, driven.iterations);
        assert!(group.machines[1].barrier_wait_ns > 0);
        assert_eq!(machines[0].barrier_wait_ns, 0);
    }
}
