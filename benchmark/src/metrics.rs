//! Every metric the benchmark reports, by name: unit, clock, direction
//! and where the number comes from. `BENCHMARK.json` at the repo root
//! lists the same names; `tests::tables_agree_with_benchmark_json` keeps
//! the two from drifting. README.md carries the prose definitions.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time and counters: what EMOGI on a V100 would do.
    /// Deterministic, so two runs of one commit agree bit for bit.
    Sim,
    /// What the simulator costs to run on this box. Noisy.
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// (S) A simulated counter read from public stats after the timed
    /// runs. Exact.
    Counter,
    /// (H driver) Host ns per operation from a driver under
    /// `src/layers/`.
    Driver,
    /// (H span) Host time of the calls the harness makes into a layer.
    Span,
    /// Host time combined with a simulated count: ratios and the
    /// outside-made `est_host_s` estimates.
    Derived,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

impl PerLayer {
    /// Simulated counters repeat exactly; everything that contains host
    /// time does not.
    pub fn clock(&self) -> Clock {
        match self.source {
            Source::Counter => Clock::Sim,
            Source::Driver | Source::Span | Source::Derived => Clock::Host,
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

// The simulated-clock bounds are wider than a regression allowance
// between two commits at one seed needs (that comparison is exact, see
// `compare`): the driver takes its spread over runs with *different*
// seeds, so each bound must also hold the seed-to-seed spread of the
// generated inputs. README.md, "Bounds", records the measured spreads.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("sim_ms", "ms", Clock::Sim, Better::Lower, 0.25),
    e2e("io_amp", "ratio", Clock::Sim, Better::Lower, 0.25),
    e2e("wall_s", "s", Clock::Host, Better::Lower, 0.25),
    e2e("setup_s", "s", Clock::Host, Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Clock::Host, Better::Lower, 0.10),
    e2e("sim_qps", "1/s", Clock::Sim, Better::Higher, 0.25),
    e2e("sim_lat_p50_ms", "ms", Clock::Sim, Better::Lower, 0.25),
    e2e("sim_lat_p80_ms", "ms", Clock::Sim, Better::Lower, 0.25),
    e2e(
        "deadline_hit_rate",
        "ratio",
        Clock::Sim,
        Better::Higher,
        0.01,
    ),
];

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Counter, Derived, Driver, Span};

pub const PER_LAYER: &[PerLayer] = &[
    // emogi_graph
    layer("graph.generate_s", "s", Lower, Span),
    layer("graph.generate_medges_per_s", "Medges/s", Higher, Span),
    layer("graph.weights_s", "s", Lower, Span),
    layer("graph.partition_ns", "ns", Lower, Driver),
    layer("graph.cost_model_ns", "ns", Lower, Driver),
    layer("graph.reorder_ns", "ns", Lower, Driver),
    // emogi_gpu
    layer("gpu.coalesce.aligned_ns", "ns", Lower, Driver),
    layer("gpu.coalesce.unaligned_ns", "ns", Lower, Driver),
    layer("gpu.coalesce.strided_ns", "ns", Lower, Driver),
    layer("gpu.coalesce.gather_ns", "ns", Lower, Driver),
    layer("gpu.cache.probe_hit_ns", "ns", Lower, Driver),
    layer("gpu.cache.miss_fill_ns", "ns", Lower, Driver),
    layer("gpu.cache.l2_hit_rate", "ratio", Higher, Counter),
    layer("gpu.cache.sectors_probed", "count", Lower, Counter),
    layer("gpu.coalesce.efficiency", "ratio", Higher, Counter),
    layer("gpu.cache.est_host_s", "s", Lower, Derived),
    // emogi_sim
    layer("sim.events.push_pop_ns.1k", "ns", Lower, Driver),
    layer("sim.events.push_pop_ns.100k", "ns", Lower, Driver),
    layer("sim.pcie.read_complete_ns", "ns", Lower, Driver),
    layer("sim.pcie.read_queued_ns", "ns", Lower, Driver),
    layer("sim.dram.read_ns", "ns", Lower, Driver),
    layer("sim.cxl.read_ns", "ns", Lower, Driver),
    layer("sim.pipeline.submit_drain_ns", "ns", Lower, Driver),
    layer("sim.interconnect.broadcast_ns", "ns", Lower, Driver),
    layer("sim.pcie.read_requests", "count", Lower, Counter),
    layer("sim.pcie.req128_frac", "ratio", Higher, Counter),
    layer("sim.pcie.gbps", "GB/s", Higher, Counter),
    layer("sim.pcie.outstanding_avg", "count", Higher, Counter),
    layer("sim.pcie.outstanding_peak", "count", Higher, Counter),
    layer("sim.monitor.peak_gbps", "GB/s", Higher, Counter),
    layer("sim.dram.host_bytes", "B", Lower, Counter),
    layer("sim.dma.bytes", "B", Lower, Counter),
    layer("sim.cxl.bytes", "B", Lower, Counter),
    layer("sim.cxl.read_requests", "count", Lower, Counter),
    layer("sim.interconnect.exchange_bytes", "B", Lower, Counter),
    layer("sim.interconnect.exchange_busy_ns", "ns", Lower, Counter),
    layer("sim.pcie.est_host_s", "s", Lower, Derived),
    // emogi_uvm
    layer("uvm.driver.fault_batch_ns_per_page", "ns", Lower, Driver),
    layer("uvm.policy.decide_tiered_ns", "ns", Lower, Driver),
    layer("uvm.driver.page_faults", "count", Lower, Counter),
    layer("uvm.driver.pages_migrated", "count", Lower, Counter),
    layer("uvm.driver.pages_evicted", "count", Lower, Counter),
    layer("uvm.driver.fault_batches", "count", Lower, Counter),
    layer("uvm.driver.useful_ratio", "ratio", Higher, Counter),
    layer("uvm.driver.est_host_s", "s", Lower, Derived),
    // emogi_runtime
    layer("runtime.exec.step_ns", "ns", Lower, Driver),
    layer("runtime.exec.slowdown", "ratio", Lower, Derived),
    layer("runtime.exec.host_ns_per_sector", "ns", Lower, Derived),
    layer("runtime.exec.kernel_launches", "count", Lower, Counter),
    layer("runtime.exec.residual_host_s", "s", Lower, Derived),
    layer("runtime.transfer.plan_iteration_ns", "ns", Lower, Driver),
    layer("runtime.transfer.plan_pipelined_ns", "ns", Lower, Driver),
    layer("runtime.transfer.staged_regions", "count", Higher, Counter),
    layer("runtime.transfer.staged_bytes", "B", Higher, Counter),
    layer("runtime.transfer.pool_fallbacks", "count", Lower, Counter),
    layer(
        "runtime.transfer.cxl_staged_regions",
        "count",
        Higher,
        Counter,
    ),
    layer("runtime.transfer.demoted_regions", "count", Lower, Counter),
    layer("runtime.transfer.est_host_s", "s", Lower, Derived),
    layer("runtime.prefetch.issued_regions", "count", Higher, Counter),
    layer("runtime.prefetch.hit_regions", "count", Higher, Counter),
    layer("runtime.prefetch.useful_ratio", "ratio", Higher, Counter),
    layer("runtime.prefetch.wasted_bytes", "B", Lower, Counter),
    layer("runtime.prefetch.hidden_ns", "ns", Higher, Counter),
    layer("runtime.prefetch.stall_ns", "ns", Lower, Counter),
    // emogi_core
    layer("core.engine.load_s", "s", Lower, Span),
    layer("core.engine.run_ms_p50", "ms", Lower, Span),
    layer("core.engine.run_ms_max", "ms", Lower, Span),
    layer("core.engine.iterations", "count", Lower, Counter),
    layer("core.batch.run_ms_per_query", "ms", Lower, Span),
    layer("core.batch.bytes_saved_frac", "ratio", Higher, Counter),
    layer("core.sharded.run_ms_p50", "ms", Lower, Span),
    layer("core.sharded.device_imbalance", "ratio", Lower, Counter),
    layer("core.sharded.speedup_vs_1dev", "ratio", Higher, Counter),
    // emogi_serve
    layer("serve.submit_ns", "ns", Lower, Span),
    layer("serve.plan_batches_ns", "ns", Lower, Driver),
    layer("serve.take_ns", "ns", Lower, Span),
    layer("serve.run_pending_s", "s", Lower, Span),
    layer("serve.batches", "count", Lower, Counter),
    layer("serve.batched_frac", "ratio", Higher, Counter),
    layer("serve.rejected", "count", Lower, Counter),
    layer("serve.deadline_missed", "count", Lower, Counter),
    layer("serve.deadline_cancelled", "count", Lower, Counter),
    layer("serve.busy_ms", "ms", Lower, Counter),
    // the harness itself
    layer("trace_overhead_frac", "ratio", Lower, Span),
];

pub const WORKLOADS: [&str; 5] = [
    "zc-aligned",
    "uvm-baseline",
    "hybrid-tiered",
    "serve-burst",
    "sharded-4dev",
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    /// The driver's rule for a metric name.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// The driver's rule for a unit.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|&w| (w, "count")));
        for (name, unit) in names {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("GB per second"));
    }

    #[test]
    fn bounds_are_within_the_contract() {
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key:?}: {entry:?}"))
    }

    #[test]
    fn tables_agree_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(entry, "better"), m.better.name(), "{}", m.name);
            let bound = entry.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, Some(m.bound), "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(entry, "better"), m.better.name(), "{}", m.name);
        }
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| field(w, "name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
