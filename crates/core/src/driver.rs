//! The one iteration driver: N ≥ 1 machines × Q ≥ 1 same-type programs.
//!
//! EMOGI's claim (§4) is that one access discipline serves every
//! traversal; this module is the one loop that applies it. The
//! single-device [`Engine`](crate::engine::Engine) (N = 1), its batched
//! multi-query path (Q > 1) and the multi-GPU
//! [`ShardedEngine`](crate::sharded::ShardedEngine) (N > 1) are fronts
//! over [`Driver::drive`]; they only shape its result. One iteration is
//! this ordered stage list, for every entry point:
//!
//! 1. **merge** the active queries' frontiers into one sorted union with
//!    a member mask per vertex (Q = 1: the frontier itself, no masks);
//! 2. **shard** the union into per-device `(vertex, lo, hi)` work items —
//!    each vertex on its owner, mega-hub lists split cooperatively
//!    (N = 1 never splits). Full sweeps skip 1–2: a device's work is its
//!    owned vertex range, never materialised. Each device's items come
//!    out in ascending edge-list address order (the union is sorted and
//!    CSR offsets are monotone in the vertex id), so there is no reorder
//!    stage: the stream is already sequential;
//! 3. per device with work: the active-vertex **scan**, once per active
//!    query, and the hybrid transfer **plan** over exactly the edge-list
//!    byte ranges the launch will read;
//! 4. `begin_iteration` on every active program;
//! 5. **capture** every device's member contexts — before any launch, so
//!    iteration-start state cannot depend on device order;
//! 6. **launch** one [`ProgramKernel`] per device with work;
//! 7. `post_iteration` device work, charged on every machine (each holds
//!    its own copy of the arrays);
//! 8. sort/dedup the activations, **exchange** them across devices and
//!    barrier (a no-op on one machine), rebuild the per-query frontiers;
//! 9. fold the iteration's machine diff into every active query's stats.
//!
//! Every stage before 6 is a pure function of iteration-start state,
//! which is what keeps batched and sharded runs bit-identical to solo
//! ones (`tests/sim_golden.rs` pins the numbers).

use crate::batch::merge_frontiers;
use crate::engine::EngineConfig;
use crate::kernel::{ProgramKernel, Work, WorkList, WorkSlice};
use crate::layout::{GraphLayout, Transport};
use crate::program::{AccessPattern, DeviceWork, VertexProgram};
use crate::sharded::{FRONTIER_UPDATE_BYTES, HUB_SPLIT_DEGREE};
use crate::strategy::AccessStrategy;
use emogi_gpu::access::Space;
use emogi_graph::{CsrGraph, VertexId, VertexPartition};
use emogi_runtime::exec::run_kernel;
use emogi_runtime::group::DeviceGroup;
use emogi_runtime::report::RunStats;
use emogi_runtime::{Machine, Prefetcher, TransferManager};
use emogi_sim::pipeline::CopyEngineConfig;

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

/// Hybrid transport state: the per-region zero-copy / DMA transfer
/// manager and, when pipelined, the speculative prefetcher feeding its
/// asynchronous copy lane.
struct Staging {
    manager: TransferManager,
    prefetcher: Option<Prefetcher>,
}

/// Everything placed on one device: the graph's arrays and the state
/// that manages them across runs.
pub(crate) struct Placement {
    /// Where the graph's arrays live on the machine.
    pub layout: GraphLayout,
    /// Present exactly under [`Transport::Hybrid`].
    staging: Option<Staging>,
    /// Device status arrays for batched multi-query execution, one per
    /// query slot, allocated on first use and reused across batches.
    batch_status: Vec<u64>,
}

impl Placement {
    /// Place `graph` on `machine`. The layout's host/CXL split becomes
    /// the transfer manager's tier homes, so a spilled tail is promoted
    /// over the CXL link rather than the PCIe lane; the copy lane takes
    /// the machine's PCIe cost model so hidden-latency estimates match
    /// the synchronous DMA path.
    fn place(machine: &mut Machine, graph: &CsrGraph, cfg: &EngineConfig) -> Self {
        let layout = GraphLayout::place(machine, graph, cfg.elem_bytes, &cfg.transport);
        let staging = match &cfg.transport {
            Transport::Hybrid { transfer, prefetch } => {
                let bytes = graph.edge_list_bytes(cfg.elem_bytes);
                let host = layout.host_edge_bytes;
                let manager = TransferManager::with_tiers(machine, bytes, host, transfer.clone());
                let prefetcher = prefetch.clone().map(|pcfg| {
                    let copy = CopyEngineConfig::from_pcie(&machine.cfg.pcie);
                    Prefetcher::new(manager.num_regions(), pcfg, copy)
                });
                Some(Staging {
                    manager,
                    prefetcher,
                })
            }
            Transport::ZeroCopy | Transport::Uvm => None,
        };
        Self {
            layout,
            staging,
            batch_status: Vec::new(),
        }
    }

    /// Place the auxiliary 4-byte-per-edge data array in the edge list's
    /// space, if not already placed. The edge-space bump allocator is
    /// independent of the device one, so the array lands at the same
    /// address it would have at load time.
    fn ensure_edge_data(&mut self, machine: &mut Machine, graph: &CsrGraph) {
        if self.layout.weight_base.is_some() {
            return;
        }
        let bytes = graph.num_edges() as u64 * 4;
        self.layout.weight_base = Some(if self.layout.edge_space == Space::Managed {
            assert!(
                machine.uvm.is_none(),
                "place edge data before the first managed kernel runs \
                 (the UVM driver's span is fixed at initialization)"
            );
            machine.alloc_managed(bytes)
        } else {
            machine.alloc_host_pinned(bytes)
        });
    }

    /// Ensure up to `want` device status arrays of `num_vertices` entries
    /// for batched execution, reused across batches (the simulated
    /// allocator never frees). In hybrid mode the transfer manager's
    /// staging pool is shrunk by the same amount, so staging can never
    /// outrun the real device capacity. Best-effort: allocation stops
    /// when device memory is exhausted (e.g. staging already filled it)
    /// or when the UVM driver has pinned the device layout; returns the
    /// number of usable slots, possibly less than `want`.
    pub fn ensure_batch_status(
        &mut self,
        machine: &mut Machine,
        num_vertices: usize,
        want: usize,
    ) -> usize {
        let bytes = num_vertices as u64 * 4;
        let need = bytes.div_ceil(128) * 128;
        while self.batch_status.len() < want {
            if machine.uvm.is_some() || machine.spaces.device_free() < need {
                break;
            }
            let base = machine.alloc_device(bytes);
            if let Some(st) = self.staging.as_mut() {
                st.manager.reserve(bytes);
            }
            self.batch_status.push(base);
        }
        self.batch_status.len().min(want)
    }

    /// Hybrid planning before a launch that will read the edge-list byte
    /// `ranges`: let the transfer manager stage regions (advancing the
    /// machine clock by the bulk-copy time), refresh the layout's
    /// staged-region table for the kernel's address computation, and feed
    /// the asynchronous lane with the next iteration's predicted regions
    /// so their copies overlap the kernel launched right after.
    fn plan(&mut self, machine: &mut Machine, ranges: impl IntoIterator<Item = (u64, u64)>) {
        let Some(st) = self.staging.as_mut() else {
            return;
        };
        let changed = match st.prefetcher.as_mut() {
            Some(p) => st.manager.plan_iteration_pipelined(machine, ranges, p),
            None => st.manager.plan_iteration(machine, ranges),
        };
        // Refresh only on change: a run that never stages keeps
        // `staged_edges == None` and the address path free of lookups.
        if changed {
            self.layout.staged_edges = Some(st.manager.region_map());
        }
        if let Some(p) = st.prefetcher.as_mut() {
            st.manager.prefetch_for_next(machine.now, p);
        }
    }

    /// The device's cumulative counters: the machine's own, plus the
    /// transfer manager's and prefetcher's, which live outside it.
    fn counters(&self, machine: &Machine) -> RunStats {
        let mut c = machine.counters();
        if let Some(st) = &self.staging {
            c.transfer = st.manager.stats;
            if let Some(p) = &st.prefetcher {
                c.prefetch = p.stats;
            }
        }
        c
    }
}

/// An open measurement: every device's counters when it was opened.
/// Closing it yields the per-device [`RunStats`] diffs.
struct Meter(Vec<RunStats>);

impl Meter {
    fn read(machines: &[Machine], places: &[Placement]) -> Vec<RunStats> {
        let each = machines.iter().zip(places);
        each.map(|(m, p)| p.counters(m)).collect()
    }

    fn open(machines: &[Machine], places: &[Placement]) -> Self {
        Meter(Self::read(machines, places))
    }

    /// Per-device stats since `open`.
    fn close(self, machines: &[Machine], places: &[Placement]) -> Vec<RunStats> {
        let now = Self::read(machines, places);
        now.into_iter().zip(self.0).map(|(n, b)| n - b).collect()
    }
}

/// What one [`Driver::drive`] produced; the fronts shape it into
/// `Run` / `BatchRun` / `ShardedRun`.
pub(crate) struct Driven<O> {
    /// Program outputs, in submission order.
    pub outputs: Vec<O>,
    /// Per-query totals of the iterations each query was active in
    /// (flagged [`RunStats::shared_fetch`] when Q > 1).
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
    pub places: Vec<Placement>,
}

impl<'g> Driver<'g> {
    /// Place `graph` on every machine; device `d` owns `partition`'s
    /// shard `d`.
    pub fn load(
        cfg: &EngineConfig,
        graph: &'g CsrGraph,
        machines: &mut [Machine],
        partition: VertexPartition,
    ) -> Self {
        assert_eq!(
            partition.num_shards(),
            machines.len(),
            "one shard per device"
        );
        Self {
            graph,
            strategy: cfg.strategy,
            partition,
            places: machines
                .iter_mut()
                .map(|m| Placement::place(m, graph, cfg))
                .collect(),
        }
    }

    /// Stage 2: every union vertex becomes one work item on its owner,
    /// except mega-hubs ([`HUB_SPLIT_DEGREE`]) whose lists are split into
    /// one line-aligned slice per device (the owner keeps the first). A
    /// warp walks its list serially, so an unsplit mega-hub would be a
    /// latency chain no amount of sharding shortens. With a single device
    /// nothing ever splits, so the items are exactly the union.
    fn shard(
        &self,
        union: &[VertexId],
        masks: &[u64],
        items: &mut [Vec<WorkSlice>],
        item_masks: &mut [Vec<u64>],
    ) {
        let ndev = items.len();
        let line = self.places[0].layout.elems_per_line();
        items.iter_mut().for_each(Vec::clear);
        item_masks.iter_mut().for_each(Vec::clear);
        let bounds = self.partition.slice_bounds(union);
        for (owner, (lo, hi)) in bounds.into_iter().enumerate() {
            for (i, &v) in union[lo..hi].iter().enumerate() {
                let (start, end) = (self.graph.neighbor_start(v), self.graph.neighbor_end(v));
                let deg = end - start;
                let chunk = if ndev > 1 && deg >= HUB_SPLIT_DEGREE {
                    deg.div_ceil(ndev as u64).div_ceil(line) * line
                } else {
                    deg.max(1)
                };
                let mut at = start;
                for d in (owner..owner + ndev).map(|d| d % ndev) {
                    let upto = (at + chunk).min(end);
                    items[d].push((v, at, upto));
                    item_masks[d].extend(masks.get(lo + i));
                    at = upto;
                    if at >= end {
                        break;
                    }
                }
            }
        }
    }

    /// Run `programs` (same type, same access pattern) to convergence.
    /// `batched` selects the per-slot status arrays: the
    /// [`Placement::ensure_batch_status`] slots (the caller ensured one
    /// per program), or — for a single program — the layout's own.
    pub fn drive<P: VertexProgram>(
        &mut self,
        devices: &mut dyn Devices,
        mut programs: Vec<P>,
        batched: bool,
    ) -> Driven<P::Output> {
        let (ndev, nq) = (self.places.len(), programs.len());
        let frontier_driven = programs[0].pattern() == AccessPattern::FrontierDriven;
        assert!(
            frontier_driven || nq == 1,
            "full sweeps read everything every launch: there is no frontier to merge"
        );
        assert!(
            batched || nq == 1,
            "concurrent queries need a status slot each"
        );
        if programs[0].uses_edge_data() {
            for (m, p) in devices.machines().iter_mut().zip(&mut self.places) {
                p.ensure_edge_data(m, self.graph);
            }
        }
        let run_meter = Meter::open(devices.machines(), &self.places);
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
        // Activations of device `d`, query `q`: `next[d * nq + q]`.
        let mut next: Vec<Vec<VertexId>> = vec![Vec::new(); ndev * nq];
        let mut active: Vec<usize> = Vec::new();
        let mut payload = vec![0u64; ndev];
        let mut device_work = DeviceWork::default();
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
            let works: Vec<WorkList> = (0..ndev)
                .map(|d| {
                    if frontier_driven {
                        WorkList::Slices(&items[d])
                    } else {
                        let r = self.partition.range(d);
                        WorkList::Range(r.start, r.end)
                    }
                })
                .collect();
            let iter_meter = Meter::open(devices.machines(), &self.places);

            for (d, (m, p)) in devices
                .machines()
                .iter_mut()
                .zip(&mut self.places)
                .enumerate()
            {
                // Devices whose shard is empty this iteration stay idle.
                if works[d].is_empty() {
                    continue;
                }
                // The kernels iterate over all vertices and test their
                // status (§2.1 Algorithm 1) — once per query, exactly as
                // many times as sequential runs would pay it: batching
                // saves edge fetches, not bookkeeping.
                for _ in &active {
                    m.now = m.hbm.read_bulk(m.now, self.graph.num_vertices() as u64 * 4);
                }
                let elem = p.layout.elem_bytes;
                match works[d] {
                    WorkList::Slices(s) => {
                        p.plan(m, s.iter().map(|&(_, lo, hi)| (lo * elem, hi * elem)))
                    }
                    WorkList::Range(lo, hi) => {
                        let g = self.graph;
                        p.plan(
                            m,
                            [(g.neighbor_start(lo) * elem, g.neighbor_end(hi - 1) * elem)],
                        )
                    }
                }
            }

            for &q in &active {
                programs[q].begin_iteration();
            }
            let captured: Vec<Work<P::Ctx>> = (0..ndev)
                .map(|d| Work::capture(works[d], &item_masks[d], &programs, self.graph))
                .collect();

            for (d, work) in captured.into_iter().enumerate() {
                if works[d].is_empty() {
                    continue;
                }
                let p = &self.places[d];
                let status_bases = if batched {
                    &p.batch_status[..nq]
                } else {
                    std::slice::from_ref(&p.layout.status_base)
                };
                let mut kernel = ProgramKernel::new(
                    self.graph,
                    &p.layout,
                    self.strategy,
                    &mut programs,
                    status_bases,
                    work,
                    &mut next[d * nq..(d + 1) * nq],
                );
                run_kernel(&mut devices.machines()[d], &mut kernel);
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
            // value) pairs it activated, or — full sweeps update owned
            // entries (CC) or reduce into owners (PageRank) — its owned
            // status slice. Remote activations join their owners' next
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

            let per_device = iter_meter.close(devices.machines(), &self.places);
            let mut iteration = RunStats::aggregate_concurrent(&per_device);
            iteration.kernel_launches = 1;
            for &q in &active {
                per_query[q] += &iteration;
            }
            if !frontier_driven && programs[0].converged() {
                break;
            }
        }
        Driven {
            outputs: programs.into_iter().map(P::finish).collect(),
            per_query,
            per_device: run_meter.close(devices.machines(), &self.places),
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsProgram;
    use emogi_graph::{generators, PartitionStrategy};
    use emogi_runtime::group::DeviceGroupConfig;
    use emogi_runtime::machine::MachineConfig;
    use emogi_runtime::{PrefetchConfig, TransferConfig};
    use emogi_sim::cxl::CxlConfig;

    fn driver(graph: &CsrGraph, devices: usize) -> (Vec<Machine>, Driver<'_>) {
        let contiguous = PartitionStrategy::Contiguous;
        driver_with(&EngineConfig::emogi_v100(), graph, devices, contiguous)
    }

    fn driver_with<'g>(
        cfg: &EngineConfig,
        graph: &'g CsrGraph,
        devices: usize,
        strategy: PartitionStrategy,
    ) -> (Vec<Machine>, Driver<'g>) {
        let mut machines: Vec<Machine> = (0..devices)
            .map(|_| Machine::new(cfg.machine.clone()))
            .collect();
        let partition = strategy.partition(graph, devices);
        let driver = Driver::load(cfg, graph, &mut machines, partition);
        (machines, driver)
    }

    #[test]
    fn hubs_split_across_devices_and_members_follow_every_slice() {
        let g = generators::kronecker(10, 16, 5);
        let hub = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        assert!(g.degree(hub) >= HUB_SPLIT_DEGREE, "scenario needs a hub");
        let leaf = (0..g.num_vertices() as u32)
            .find(|&v| v != hub && g.degree(v) < HUB_SPLIT_DEGREE)
            .unwrap();
        let mut union = vec![hub, leaf];
        union.sort_unstable();
        let masks: Vec<u64> = union
            .iter()
            .map(|&v| if v == hub { 0b101 } else { 0b010 })
            .collect();
        let (start, end) = (g.neighbor_start(hub), g.neighbor_end(hub));

        // One device never splits: the items are exactly the union.
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
        // per device, the owner keeping the first; the leaf stays whole
        // on its owner; masks move with every slice.
        let (_, four) = driver(&g, 4);
        let (mut items, mut item_masks) = (vec![Vec::new(); 4], vec![Vec::new(); 4]);
        four.shard(&union, &masks, &mut items, &mut item_masks);
        let owner = four.partition.owner(hub);
        let line = four.places[0].layout.elems_per_line();
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
                    assert_eq!(d, four.partition.owner(leaf));
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

    /// Why the driver has no reorder stage: every device's work items
    /// already arrive in ascending edge-list address order — the union is
    /// sorted, `shard` walks it owner by owner, and CSR offsets are
    /// monotone in the vertex id — through hub splitting, batch unions
    /// and a CXL-spilled tail alike. A change to `shard` or
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

        let check = |cfg: &EngineConfig, devices: usize, strategy: PartitionStrategy| {
            let (_, driver) = driver_with(cfg, &g, devices, strategy);
            for frontiers in &queries {
                let (mut union, mut masks) = (Vec::new(), Vec::new());
                merge_frontiers(frontiers, &mut union, &mut masks);
                let mut items = vec![Vec::new(); devices];
                let mut item_masks = vec![Vec::new(); devices];
                driver.shard(&union, &masks, &mut items, &mut item_masks);
                assert_eq!(
                    items.iter().flatten().count() > union.len(),
                    devices > 1,
                    "the hub splits exactly when it has peers"
                );
                for (p, its) in driver.places.iter().zip(&items) {
                    assert!(p.layout.staged_edges.is_none(), "nothing staged");
                    assert!(
                        its.is_sorted_by_key(|&(_, lo, _)| p.layout.edge_addr(lo)),
                        "{devices} devices, {strategy:?}, {} queries",
                        frontiers.len()
                    );
                }
            }
            driver
        };
        let plain = EngineConfig::emogi_v100();
        for devices in [1, 2, 4] {
            for strategy in PartitionStrategy::all() {
                check(&plain, devices, strategy);
            }
        }
        // Host DRAM holds one spill unit of the 76 KB edge list; the tail
        // lives in the CXL window, above every host address.
        let mut spilled = plain.clone();
        spilled.machine = spilled
            .machine
            .with_cxl(CxlConfig::external_x8())
            .with_host_capacity(crate::layout::SPILL_ALIGN);
        let driver = check(&spilled, 1, PartitionStrategy::Contiguous);
        let layout = &driver.places[0].layout;
        assert!(layout.cxl_edge_base.is_some() && layout.host_edge_bytes > 0);
    }

    /// On one device the iterations tile the run, so a lone query's
    /// per-iteration fold equals the device's whole-run diff. This is
    /// what lets `Engine::run_batch` serve its no-slot fallback through
    /// the same result shaping as a real batch.
    #[test]
    fn a_lone_querys_iteration_fold_equals_the_device_diff() {
        let g = generators::uniform_random(600, 8, 9);
        let (mut machines, mut one) = driver(&g, 1);
        for src in [4u32, 77] {
            let driven = one.drive(&mut machines[0], vec![BfsProgram::new(&g, src)], false);
            assert_eq!(driven.per_query[0], driven.per_device[0], "source {src}");
            assert_eq!(driven.per_device[0].kernel_launches, driven.iterations);
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
                ..TransferConfig::default()
            },
            prefetch: Some(PrefetchConfig::default()),
        });
        cfg.machine = cfg
            .machine
            .with_cxl(CxlConfig::external_x8())
            .with_host_capacity(g.edge_list_bytes(cfg.elem_bytes) / 2);
        let (mut machines, mut one) = driver_with(&cfg, &g, 1, PartitionStrategy::Contiguous);
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
    /// whose shard is empty that iteration stays idle and counts nothing.
    #[test]
    fn per_device_launches_come_from_each_machines_own_counter() {
        let g = generators::uniform_random(600, 8, 9);
        let (mut machines, mut one) = driver(&g, 1);
        let driven = one.drive(&mut machines[0], vec![BfsProgram::new(&g, 4)], false);
        assert_eq!(machines[0].kernel_launches, driven.iterations);

        let mut group = DeviceGroup::new(DeviceGroupConfig {
            devices: 2,
            machine: MachineConfig::v100_gen3(),
            peer: None,
        });
        let partition = PartitionStrategy::Contiguous.partition(&g, 2);
        let cfg = EngineConfig::emogi_v100();
        let mut two = Driver::load(&cfg, &g, &mut group.machines, partition);
        let driven = two.drive(&mut group, vec![BfsProgram::new(&g, 4)], false);
        for (d, m) in group.machines.iter().enumerate() {
            assert_eq!(driven.per_device[d].kernel_launches, m.kernel_launches);
            assert!(m.kernel_launches <= driven.iterations, "device {d}");
        }
        // Iteration 1 expands the lone source on its owner only.
        let owner = two.partition.owner(4);
        assert!(group.machines[1 - owner].kernel_launches < driven.iterations);
        assert_eq!(group.machines[owner].kernel_launches, driven.iterations);
    }
}
