//! `sharded-4dev`: the third copy of the iteration driver plus the
//! device group's barrier/exchange, the interconnect, frontier slicing
//! and hub splitting. A result waits for the slowest of four devices, so
//! imbalance shows. Guards the "one driver" refactor on the path it is
//! most likely to disturb.

use super::{dataset_bytes, generate, generate_weights, set, Controls, Rep, Totals, Workload};
use crate::inputs::{self, Preset};
use crate::trace::{Phase, Stopwatch};
use crate::verify::Verifier;
use emogi_repro::prelude::*;

const DEVICES: usize = 4;
/// BFS sources; one more source is drawn for the SSSP. Five queries, so
/// the nearest-rank p80 of their latencies is the slowest BFS, not the
/// one SSSP, whose time swings ±8 % with the drawn weights.
const BFS: usize = 4;
const SOURCE_STREAM: u64 = 5;
const ELEM_BYTES: u64 = 8;

pub struct Sharded4Dev {
    seed: u64,
    preset: Preset,
    verifier: Verifier,
    /// Σ group `elapsed_ns` of the last repetition, for
    /// `core.sharded.speedup_vs_1dev`.
    group_sim_ns: u64,
}

impl Sharded4Dev {
    pub fn new(seed: u64, preset: Preset) -> Self {
        Self {
            seed,
            preset,
            verifier: Verifier::default(),
            group_sim_ns: 0,
        }
    }
}

/// What only a sharded run reports, summed over the repetition's runs.
#[derive(Default)]
struct GroupTotals {
    /// Kernel launches on every device (the logical wave count is
    /// `iterations`).
    device_launches: u64,
    iterations: u64,
    exchange_bytes: u64,
    exchange_busy_ns: u64,
    /// Σ over runs of the busiest link's host bytes, and of the mean
    /// over devices: their ratio is the imbalance. (Per-device
    /// `elapsed_ns` cannot show it: the devices' clocks are
    /// barrier-aligned every iteration, so it is the same on all four.)
    busiest_bytes: u64,
    mean_bytes: f64,
    fewest_devices: Option<usize>,
}

impl GroupTotals {
    fn add<O>(&mut self, run: &ShardedRun<O>) {
        let fetched = || run.per_device.iter().map(|d| d.host_bytes);
        self.device_launches += run
            .per_device
            .iter()
            .map(|d| d.kernel_launches)
            .sum::<u64>();
        self.iterations += run.iterations;
        self.exchange_bytes += run.exchange.bytes;
        self.exchange_busy_ns += run.exchange.busy_ns;
        self.busiest_bytes += fetched().max().unwrap_or(0);
        self.mean_bytes += fetched().sum::<u64>() as f64 / run.per_device.len().max(1) as f64;
        let devices = run.per_device.len();
        self.fewest_devices = Some(self.fewest_devices.map_or(devices, |f| f.min(devices)));
    }
}

/// Book the sharded run that just returned: its span's attributes, the
/// query totals and the group totals.
fn record<O>(
    sw: &mut Stopwatch,
    totals: &mut Totals,
    group: &mut GroupTotals,
    graph: &CsrGraph,
    program: &str,
    src: VertexId,
    run: &ShardedRun<O>,
) {
    sw.attr("program", program);
    sw.attr("source", src);
    sw.attr("sim_ns", run.stats.elapsed_ns);
    let weighted = program == "sssp";
    totals.add_query(&run.stats, dataset_bytes(graph, ELEM_BYTES, weighted));
    group.add(run);
}

fn config(devices: usize) -> ShardedConfig {
    ShardedConfig::emogi_v100(devices).with_partition(PartitionStrategy::DegreeBalanced)
}

impl Workload for Sharded4Dev {
    fn repetition(&mut self, sw: &mut Stopwatch) -> Rep {
        let (seed, preset) = (self.seed, self.preset);
        let gk = generate(sw, "gk", || preset.gk(seed));
        let weights = generate_weights(sw, &gk, seed);
        let sources = inputs::sources(&gk, BFS + 1, seed, SOURCE_STREAM);
        // Partitioning happens inside the load; the harness makes no
        // partition call of its own to put a `graph.partition` span on.
        let mut engine = sw.call(Phase::Setup, "core.engine.load", || {
            ShardedEngine::load(config(DEVICES), &gk)
        });
        sw.attr("devices", DEVICES);

        let mut totals = Totals::default();
        let mut group = GroupTotals::default();
        let mut checked = Vec::new();
        for &src in &sources[..BFS] {
            let run = sw.call(Phase::Timed, "core.sharded.run", || engine.bfs(src));
            record(sw, &mut totals, &mut group, &gk, "bfs", src, &run);
            let verifier = &mut self.verifier;
            let verdict = sw.call(Phase::Untimed, "verify.reference", || {
                verifier.bfs(format!("gk.bfs.{src}"), &gk, src, &run.levels)
            });
            checked.push(verdict.with_sim_ns(run.stats.elapsed_ns));
        }
        let src = sources[BFS];
        let run = sw.call(Phase::Timed, "core.sharded.run", || {
            engine.sssp(&weights, src)
        });
        record(sw, &mut totals, &mut group, &gk, "sssp", src, &run);
        let verifier = &mut self.verifier;
        let verdict = sw.call(Phase::Untimed, "verify.reference", || {
            verifier.sssp(format!("gk.sssp.{src}"), &gk, &weights, src, &run.dist)
        });
        checked.push(verdict.with_sim_ns(run.stats.elapsed_ns));

        for machine in &engine.group.machines {
            totals.add_machine(machine);
        }
        self.group_sim_ns = totals.sim_ns;
        let mut sim = totals.metrics();
        for (name, value) in [
            ("runtime.exec.kernel_launches", group.device_launches as f64),
            ("core.engine.iterations", group.iterations as f64),
            (
                "sim.interconnect.exchange_bytes",
                group.exchange_bytes as f64,
            ),
            (
                "sim.interconnect.exchange_busy_ns",
                group.exchange_busy_ns as f64,
            ),
            (
                "core.sharded.device_imbalance",
                group.busiest_bytes as f64 / group.mean_bytes,
            ),
        ] {
            set(&mut sim, name, value);
        }
        let mechanism = vec![
            (
                "per_device.len() == 4",
                group.fewest_devices == Some(DEVICES),
            ),
            ("exchange.bytes > 0", group.exchange_bytes > 0),
        ];
        Rep::of_verified(sim, checked, mechanism, gk.num_edges() as u64)
    }

    fn controls(&mut self, per_layer: bool) -> Controls {
        let mut controls = Controls::default();
        if per_layer {
            // The same queries on a one-device group, which is
            // tick-identical to the plain engine.
            let (seed, preset) = (self.seed, self.preset);
            let gk = preset.gk(seed);
            let weights = inputs::weights(&gk, seed);
            let sources = inputs::sources(&gk, BFS + 1, seed, SOURCE_STREAM);
            let mut single = ShardedEngine::load(config(1), &gk);
            let mut single_ns = 0u64;
            for &src in &sources[..BFS] {
                single_ns += single.bfs(src).stats.elapsed_ns;
            }
            single_ns += single.sssp(&weights, sources[BFS]).stats.elapsed_ns;
            controls.sim.push((
                "core.sharded.speedup_vs_1dev",
                single_ns as f64 / self.group_sim_ns as f64,
            ));
        }
        controls
    }
}
