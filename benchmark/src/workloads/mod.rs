//! The five workloads and what one repetition of any of them yields.
//!
//! A workload is a struct that can rebuild everything from its seed and
//! run its queries once ([`Workload::repetition`]); the protocol around
//! it — warm-up, repetitions, medians, the bit-identity check — lives in
//! `protocol.rs` and is the same for all five.

mod hybrid_tiered;
mod serve_burst;
mod sharded_4dev;
mod solo;
mod uvm_baseline;
mod zc_aligned;

use crate::inputs::Preset;
use crate::stats;
use crate::trace::{Phase, Stopwatch};
use crate::verify::Checked;
use emogi_repro::prelude::*;

/// What one repetition measured.
pub struct Rep {
    /// Every simulated-clock number of the repetition by metric name:
    /// the simulated end-to-end metrics and the (S) per-layer counters.
    /// Must be bit-identical in every repetition of a process.
    pub sim: Vec<(&'static str, f64)>,
    /// One verdict per query, in execution order.
    pub checked: Vec<Checked>,
    /// An op is one query.
    pub ops_attempted: u64,
    /// Wrong output, refused submission, `DeadlineMissed` or
    /// `DeadlineCancelled`.
    pub ops_failed: u64,
    /// The workload's proof that its mechanism fired.
    pub mechanism: Vec<(&'static str, bool)>,
    /// Edges the generators produced (for `graph.generate_medges_per_s`).
    pub edges_generated: u64,
}

/// Untimed control runs next to the measured repetitions.
#[derive(Default)]
pub struct Controls {
    pub mechanism: Vec<(&'static str, bool)>,
    /// Per-layer (S) metrics that need a control to compare with.
    pub sim: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Rebuild everything from the seed and run the workload's queries
    /// once, timing every call into a layer through `sw`.
    fn repetition(&mut self, sw: &mut Stopwatch) -> Rep;

    /// Controls that a self-check needs run always; those that only feed
    /// per-layer metrics run when `per_layer` is set.
    fn controls(&mut self, _per_layer: bool) -> Controls {
        Controls::default()
    }
}

pub fn build(name: &str, seed: u64, preset: Preset) -> Option<Box<dyn Workload>> {
    Some(match name {
        "zc-aligned" => Box::new(zc_aligned::ZcAligned::new(seed, preset)),
        "uvm-baseline" => Box::new(uvm_baseline::UvmBaseline::new(seed, preset)),
        "hybrid-tiered" => Box::new(hybrid_tiered::HybridTiered::new(seed, preset)),
        "serve-burst" => Box::new(serve_burst::ServeBurst::new(seed, preset)),
        "sharded-4dev" => Box::new(sharded_4dev::Sharded4Dev::new(seed, preset)),
        _ => return None,
    })
}

/// Running sums over a repetition's runs, folded from the public fields
/// of `RunStats` and `Machine` only.
#[derive(Default)]
pub struct Totals {
    pub queries: u64,
    pub sim_ns: u64,
    /// Simulated latency of each query, ns.
    pub latency_ns: Vec<u64>,
    pub dataset_bytes: u64,
    pub host_bytes: u64,
    pub cxl_bytes: u64,
    pub cxl_reads: u64,
    pub pcie_reads: u64,
    pub pcie_reads_128: u64,
    pub host_dram_bytes: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub lane_bytes: u64,
    pub txn_bytes: u64,
    pub launches: u64,
    pub iterations: u64,
    pub transfer: TransferStats,
    pub prefetch: PrefetchStats,
    // Read from the machines after the runs.
    machine_ns: u64,
    outstanding_area: f64,
    outstanding_peak: u32,
    peak_gbps: f64,
    dma_bytes: u64,
    uvm_faults: u64,
    uvm_migrated: u64,
    uvm_evicted: u64,
    uvm_batches: u64,
    /// Distinct managed pages the traversals needed (UVM only).
    pub useful_pages: u64,
}

impl Totals {
    /// Fold one solo run: a query whose simulated latency is its own
    /// elapsed time (closed loop, one query in flight).
    pub fn add_query(&mut self, stats: &RunStats, dataset_bytes: u64) {
        self.queries += 1;
        self.sim_ns += stats.elapsed_ns;
        self.latency_ns.push(stats.elapsed_ns);
        self.dataset_bytes += dataset_bytes;
        self.launches += stats.kernel_launches;
        self.iterations += stats.kernel_launches;
        self.add_traffic(stats);
    }

    /// Fold a run's traffic counters only.
    pub fn add_traffic(&mut self, stats: &RunStats) {
        self.host_bytes += stats.host_bytes;
        self.cxl_bytes += stats.cxl_bytes;
        self.cxl_reads += stats.cxl_read_requests;
        self.pcie_reads += stats.pcie_read_requests;
        self.pcie_reads_128 += stats.request_sizes.buckets[3];
        self.host_dram_bytes += stats.host_dram_bytes;
        self.l2_hits += stats.l2_sector_hits;
        self.l2_misses += stats.l2_sector_misses;
        self.lane_bytes += stats.lane_bytes;
        self.txn_bytes += stats.txn_bytes;
        self.transfer += stats.transfer;
        self.prefetch += stats.prefetch;
    }

    /// Read the counters that only the machine keeps, once its runs are
    /// over. A repetition builds its machines fresh, so the cumulative
    /// values are the repetition's own.
    pub fn add_machine(&mut self, m: &Machine) {
        self.machine_ns += m.now;
        self.outstanding_area += m.monitor.outstanding.average(m.now) * m.now as f64;
        self.outstanding_peak = self.outstanding_peak.max(m.monitor.outstanding.peak());
        self.peak_gbps = self.peak_gbps.max(m.monitor.series.peak_gbps());
        self.dma_bytes += m.dma.bytes_to_device;
        if let Some(uvm) = &m.uvm {
            self.uvm_faults += uvm.stats.faults;
            self.uvm_migrated += uvm.stats.pages_migrated;
            self.uvm_evicted += uvm.stats.pages_evicted;
            self.uvm_batches += uvm.stats.batches;
        }
    }

    /// Read the traffic counters off a machine instead of summing
    /// `RunStats`: for batched serving, where the per-query stats share
    /// their fetches and the batch-level stats stay inside the server.
    /// Loading a graph moves no bytes, so a fresh machine's cumulative
    /// counters are exactly its batches' totals.
    pub fn add_machine_traffic(&mut self, m: &Machine) {
        self.host_bytes += m.monitor.zero_copy_bytes + m.monitor.dma_bytes;
        self.pcie_reads += m.monitor.read_requests;
        self.pcie_reads_128 += m.monitor.sizes.buckets[3];
        self.host_dram_bytes += m.host_dram.bytes_read;
        self.l2_hits += m.cache.stats.sector_hits;
        self.l2_misses += m.cache.stats.sector_misses;
        self.lane_bytes += m.lane_bytes;
        self.txn_bytes += m.txn_bytes;
    }

    /// Every simulated-clock metric these sums define. Workloads whose
    /// clock or latency is not a plain sum (`serve-burst`,
    /// `sharded-4dev`) override entries with [`set`].
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let lat_ms: Vec<f64> = self.latency_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let sectors = self.l2_hits + self.l2_misses;
        let t = &self.transfer;
        let p = &self.prefetch;
        vec![
            // end to end
            ("sim_ms", self.sim_ns as f64 / 1e6),
            (
                "io_amp",
                ratio(self.host_bytes + self.cxl_bytes, self.dataset_bytes),
            ),
            ("sim_qps", ratio(self.queries, self.sim_ns) * 1e9),
            ("sim_lat_p50_ms", stats::percentile(&lat_ms, 50.0)),
            ("sim_lat_p80_ms", stats::percentile(&lat_ms, 80.0)),
            // No query of a plain engine workload carries a deadline;
            // `ServerStats::deadline_hit_rate` uses the same convention.
            ("deadline_hit_rate", 1.0),
            // emogi_gpu
            ("gpu.cache.l2_hit_rate", ratio(self.l2_hits, sectors)),
            ("gpu.cache.sectors_probed", sectors as f64),
            (
                "gpu.coalesce.efficiency",
                ratio(self.lane_bytes, self.txn_bytes),
            ),
            // emogi_sim
            ("sim.pcie.read_requests", self.pcie_reads as f64),
            (
                "sim.pcie.req128_frac",
                ratio(self.pcie_reads_128, self.pcie_reads),
            ),
            ("sim.pcie.gbps", ratio(self.host_bytes, self.sim_ns)),
            (
                "sim.pcie.outstanding_avg",
                if self.machine_ns == 0 {
                    0.0
                } else {
                    self.outstanding_area / self.machine_ns as f64
                },
            ),
            (
                "sim.pcie.outstanding_peak",
                f64::from(self.outstanding_peak),
            ),
            ("sim.monitor.peak_gbps", self.peak_gbps),
            ("sim.dram.host_bytes", self.host_dram_bytes as f64),
            ("sim.dma.bytes", self.dma_bytes as f64),
            ("sim.cxl.bytes", self.cxl_bytes as f64),
            ("sim.cxl.read_requests", self.cxl_reads as f64),
            // emogi_uvm
            ("uvm.driver.page_faults", self.uvm_faults as f64),
            ("uvm.driver.pages_migrated", self.uvm_migrated as f64),
            ("uvm.driver.pages_evicted", self.uvm_evicted as f64),
            ("uvm.driver.fault_batches", self.uvm_batches as f64),
            (
                "uvm.driver.useful_ratio",
                ratio(self.useful_pages, self.uvm_migrated),
            ),
            // emogi_runtime
            ("runtime.exec.kernel_launches", self.launches as f64),
            ("runtime.transfer.staged_regions", t.staged_regions as f64),
            ("runtime.transfer.staged_bytes", t.staged_bytes as f64),
            ("runtime.transfer.pool_fallbacks", t.pool_fallbacks as f64),
            (
                "runtime.transfer.cxl_staged_regions",
                t.cxl_staged_regions as f64,
            ),
            ("runtime.transfer.demoted_regions", t.demoted_regions as f64),
            (
                "runtime.prefetch.issued_regions",
                p.prefetched_regions as f64,
            ),
            ("runtime.prefetch.hit_regions", p.hit_regions as f64),
            (
                "runtime.prefetch.useful_ratio",
                ratio(p.hit_bytes, p.prefetched_bytes),
            ),
            ("runtime.prefetch.wasted_bytes", p.wasted_bytes as f64),
            ("runtime.prefetch.hidden_ns", p.hidden_ns as f64),
            ("runtime.prefetch.stall_ns", p.stall_ns as f64),
            // emogi_core
            ("core.engine.iterations", self.iterations as f64),
        ]
    }
}

/// Generate a graph on the set-up clock.
pub fn generate(
    sw: &mut Stopwatch,
    shape: &'static str,
    make: impl FnOnce() -> CsrGraph,
) -> CsrGraph {
    let graph = sw.call(Phase::Setup, "graph.generate", make);
    sw.attr("graph", shape);
    sw.attr("edges", graph.num_edges());
    graph
}

/// Generate SSSP weights on the set-up clock.
pub fn generate_weights(sw: &mut Stopwatch, graph: &CsrGraph, seed: u64) -> Vec<u32> {
    sw.call(Phase::Setup, "graph.weights", || {
        crate::inputs::weights(graph, seed)
    })
}

impl Rep {
    /// A repetition whose only way to fail a query is a wrong output.
    pub fn of_verified(
        sim: Vec<(&'static str, f64)>,
        checked: Vec<Checked>,
        mechanism: Vec<(&'static str, bool)>,
        edges_generated: u64,
    ) -> Self {
        Self {
            ops_attempted: checked.len() as u64,
            ops_failed: checked.iter().filter(|c| !c.ok).count() as u64,
            sim,
            checked,
            mechanism,
            edges_generated,
        }
    }
}

/// One entry of a metric list; 0 when the list does not carry it.
pub fn get(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |e| e.1)
}

/// Overwrite (or add) one entry of a metric list.
pub fn set(metrics: &mut Vec<(&'static str, f64)>, name: &'static str, value: f64) {
    match metrics.iter_mut().find(|(n, _)| *n == name) {
        Some(entry) => entry.1 = value,
        None => metrics.push((name, value)),
    }
}

/// Bytes one query of `graph` is entitled to read once: the edge list,
/// plus the 4-byte weights for SSSP — the denominator of `io_amp`.
pub fn dataset_bytes(graph: &CsrGraph, elem_bytes: u64, weighted: bool) -> u64 {
    let weights = if weighted {
        graph.num_edges() as u64 * 4
    } else {
        0
    };
    graph.edge_list_bytes(elem_bytes) + weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn totals_emit_only_known_simulated_metrics() {
        let g = generators::uniform_random(500, 8, 3);
        let mut engine = Engine::load(EngineConfig::emogi_v100(), &g);
        let mut totals = Totals::default();
        totals.add_query(&engine.bfs(0).stats, dataset_bytes(&g, 8, false));
        totals.add_machine(&engine.machine);
        for (name, value) in totals.metrics() {
            let clock = metrics::end_to_end(name)
                .map(|m| m.clock)
                .or_else(|| metrics::per_layer(name).map(|m| m.clock()));
            assert_eq!(clock, Some(metrics::Clock::Sim), "{name}");
            assert!(value.is_finite(), "{name} = {value}");
        }
        let mut m = totals.metrics();
        set(&mut m, "sim_ms", 7.0);
        set(&mut m, "serve.batches", 2.0);
        assert!(m.contains(&("sim_ms", 7.0)) && m.contains(&("serve.batches", 2.0)));
    }

    #[test]
    fn every_listed_workload_builds() {
        for name in metrics::WORKLOADS {
            assert!(build(name, 1, Preset::Smoke).is_some(), "{name}");
        }
        assert!(build("nope", 1, Preset::Smoke).is_none());
    }
}
