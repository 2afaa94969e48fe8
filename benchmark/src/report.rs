//! Result files, the printed table, and the outside-made estimates.
//!
//! A result file is one JSON object whose `metrics` map is flat: metric
//! name → `{value, unit, clock, ...}`. `compare` and the summary read the
//! same files back.

use crate::inputs::Preset;
use crate::json::{self, Json};
use crate::metrics::{self, Better, Clock};
use crate::protocol::{Outcome, Sample};
use std::collections::BTreeMap;
use std::path::Path;

/// The repo holds no hardware reference measurements (PAPER.md is a
/// stub), so no simulated number carries an error figure.
pub const MODEL_STATEMENT: &str = "model unvalidated — no error figure";

pub const SCHEMA: f64 = 1.0;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// `(min, max, n)` behind a host-clock median.
    pub spread: Option<(f64, f64, usize)>,
}

pub type Metrics = Vec<(&'static str, Value)>;

/// A metric's listed name, unit, clock and direction.
fn listing(name: &str) -> Option<(&'static str, &'static str, Clock, Better)> {
    metrics::end_to_end(name)
        .map(|m| (m.name, m.unit, m.clock, m.better))
        .or_else(|| metrics::per_layer(name).map(|m| (m.name, m.unit, m.clock(), m.better)))
}

/// Attach unit and clock to measured `(name, value)` pairs. A name the
/// tables do not list is a bug in the harness.
pub fn annotate(pairs: &[(&'static str, f64)]) -> Metrics {
    pairs
        .iter()
        .map(|&(name, value)| {
            let (name, unit, clock, better) =
                listing(name).unwrap_or_else(|| panic!("metric {name} is not listed"));
            let value = Value {
                value,
                unit,
                clock,
                better,
                spread: None,
            };
            (name, value)
        })
        .collect()
}

fn annotate_samples(samples: &[(&'static str, Sample)]) -> Metrics {
    let mut out = annotate(
        &samples
            .iter()
            .map(|&(name, s)| (name, s.value))
            .collect::<Vec<_>>(),
    );
    for ((_, value), (_, s)) in out.iter_mut().zip(samples) {
        value.spread = Some((s.min, s.max, s.n));
    }
    out
}

/// Every number one workload process measured, end-to-end metrics first.
pub fn outcome_metrics(outcome: &Outcome, peak_rss_mb: Option<f64>) -> Metrics {
    let mut all = annotate_samples(&outcome.host);
    if let Some(mb) = peak_rss_mb {
        all.extend(annotate(&[("peak_rss_mb", mb)]));
    }
    all.extend(annotate(&outcome.sim));
    all.extend(annotate(&outcome.spans));
    // End-to-end metrics lead, in table order; the rest keep theirs.
    let rank = |name: &str| {
        metrics::END_TO_END
            .iter()
            .position(|m| m.name == name)
            .unwrap_or(usize::MAX)
    };
    all.sort_by_key(|(name, _)| rank(name));
    all
}

pub fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, v)| {
                let mut fields = vec![
                    ("value", Json::Num(v.value)),
                    ("unit", Json::str(v.unit)),
                    ("clock", Json::str(v.clock.name())),
                ];
                if let Some((min, max, n)) = v.spread {
                    fields.push(("min", Json::Num(min)));
                    fields.push(("max", Json::Num(max)));
                    fields.push(("n", Json::Num(n as f64)));
                }
                (name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The result file of one workload process.
pub fn workload_file(outcome: &Outcome, metrics: &Metrics) -> Json {
    Json::obj(vec![
        ("schema", Json::Num(SCHEMA)),
        ("kind", Json::str("workload")),
        ("workload", Json::str(&outcome.workload)),
        ("seed", Json::Num(outcome.seed as f64)),
        ("preset", Json::str(outcome.preset.name())),
        ("repetitions", Json::Num(outcome.repetitions as f64)),
        ("model", Json::str(MODEL_STATEMENT)),
        ("ops_attempted", Json::Num(outcome.ops_attempted as f64)),
        ("ops_failed", Json::Num(outcome.ops_failed as f64)),
        (
            "self_check",
            Json::Arr(
                outcome
                    .self_check
                    .iter()
                    .map(|(what, ok)| {
                        Json::obj(vec![
                            ("check", Json::str(what)),
                            ("passed", Json::Bool(*ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "queries",
            Json::Arr(
                outcome
                    .queries
                    .iter()
                    .map(|q| {
                        Json::obj(vec![
                            ("label", Json::str(&q.label)),
                            ("digest", Json::str(format!("{:016x}", q.digest))),
                            ("ok", Json::Bool(q.ok)),
                            ("sim_ns", Json::Num(q.sim_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(metrics)),
    ])
}

/// A result file that is only metrics: the layer drivers' (`layers`) or
/// a traced repetition's (`spans`).
pub fn metrics_file(kind: &str, seed: u64, preset: Preset, metrics: &Metrics) -> Json {
    Json::obj(vec![
        ("schema", Json::Num(SCHEMA)),
        ("kind", Json::str(kind)),
        ("seed", Json::Num(seed as f64)),
        ("preset", Json::str(preset.name())),
        ("metrics", metrics_json(metrics)),
    ])
}

pub fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `name → value` of a result file's `metrics` map.
pub fn values(doc: &Json) -> BTreeMap<String, f64> {
    doc.get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// `name → (min, max, n)` of the host-clock medians in a result file.
pub fn spreads(doc: &Json) -> BTreeMap<String, (f64, f64, usize)> {
    doc.get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| {
            let field = |key| m.get(key).and_then(Json::as_f64);
            Some((
                name.clone(),
                (field("min")?, field("max")?, field("n")? as usize),
            ))
        })
        .collect()
}

/// Host-time shares estimated **from outside**: a layer's operation count
/// in the workload (a simulated counter) times the layer driver's cost
/// per operation. The simulator is one thread with no contention, so a
/// faster layer saves at most this share of `wall_s`. Spans inside the
/// program (ROADMAP item 2) will replace these with measured self time.
pub fn estimates(m: &BTreeMap<String, f64>) -> Vec<(&'static str, f64)> {
    let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let sectors = get("gpu.cache.sectors_probed");
    let hits = sectors * get("gpu.cache.l2_hit_rate");
    // The cache drivers probe whole lines: four sectors per operation.
    let cache = (hits * get("gpu.cache.probe_hit_ns")
        + (sectors - hits) * get("gpu.cache.miss_fill_ns"))
        / 4.0
        * 1e-9;
    let pcie = get("sim.pcie.read_requests") * get("sim.pcie.read_complete_ns") * 1e-9;
    let uvm = get("uvm.driver.pages_migrated") * get("uvm.driver.fault_batch_ns_per_page") * 1e-9;
    // One planning round per kernel launch, on engines that plan at all.
    let plans =
        get("runtime.transfer.staged_regions") + get("runtime.transfer.pool_fallbacks") > 0.0;
    let plan_ns = if get("runtime.prefetch.issued_regions") > 0.0 {
        get("runtime.transfer.plan_pipelined_ns")
    } else {
        get("runtime.transfer.plan_iteration_ns")
    };
    let transfer = if plans {
        get("runtime.exec.kernel_launches") * plan_ns * 1e-9
    } else {
        0.0
    };
    vec![
        ("gpu.cache.est_host_s", cache),
        ("sim.pcie.est_host_s", pcie),
        ("uvm.driver.est_host_s", uvm),
        ("runtime.transfer.est_host_s", transfer),
        (
            "runtime.exec.residual_host_s",
            get("wall_s") - cache - pcie - uvm - transfer,
        ),
    ]
}

/// Add (or refresh) the estimates in a workload's `name → value` map.
pub fn add_estimates(all: &mut BTreeMap<String, f64>) {
    for (name, value) in estimates(all) {
        all.insert(name.to_string(), value);
    }
}

/// Print one workload's numbers, one metric per row.
pub fn print_table(title: &str, metrics: &Metrics) {
    println!("\n== {title} ==  ({MODEL_STATEMENT})");
    println!(
        "{:<40} {:>18}  {:<9} {:<5} {:<7} spread",
        "metric", "value", "unit", "clock", "better"
    );
    for (name, v) in metrics {
        let spread = v.spread.map_or(String::new(), |(min, max, n)| {
            format!("min {min:.4}  max {max:.4}  n={n}")
        });
        println!(
            "{:<40} {:>18}  {:<9} {:<5} {:<7} {}",
            name,
            format_value(v.value),
            v.unit,
            v.clock.name(),
            v.better.name(),
            spread
        );
    }
}

pub fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_multiply_counts_by_driver_costs() {
        let m: BTreeMap<String, f64> = [
            ("wall_s", 2.0),
            ("gpu.cache.sectors_probed", 4e6),
            ("gpu.cache.l2_hit_rate", 0.5),
            ("gpu.cache.probe_hit_ns", 10.0),
            ("gpu.cache.miss_fill_ns", 30.0),
            ("sim.pcie.read_requests", 1e6),
            ("sim.pcie.read_complete_ns", 100.0),
            ("runtime.exec.kernel_launches", 10.0),
            ("runtime.transfer.plan_iteration_ns", 1e6),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let e: BTreeMap<_, _> = estimates(&m).into_iter().collect();
        assert!((e["gpu.cache.est_host_s"] - 0.02).abs() < 1e-12);
        assert!((e["sim.pcie.est_host_s"] - 0.1).abs() < 1e-12);
        assert_eq!(e["uvm.driver.est_host_s"], 0.0);
        assert_eq!(
            e["runtime.transfer.est_host_s"], 0.0,
            "an engine that never planned is charged no planning"
        );
        assert!((e["runtime.exec.residual_host_s"] - 1.88).abs() < 1e-12);
        for (name, _) in estimates(&m) {
            assert!(metrics::per_layer(name).is_some(), "{name}");
        }
    }

    #[test]
    fn result_files_round_trip_their_values() {
        let metrics = annotate(&[("sim_ms", 4.256_123_456_789), ("serve.batches", 8.0)]);
        let doc = metrics_file("layers", 7, Preset::Smoke, &metrics);
        let back = values(&json::parse(&doc.pretty()).unwrap());
        assert_eq!(back["sim_ms"].to_bits(), 4.256_123_456_789f64.to_bits());
        assert_eq!(back["serve.batches"], 8.0);
    }

    #[test]
    #[should_panic(expected = "is not listed")]
    fn unlisted_metric_names_are_refused() {
        annotate(&[("made.up", 1.0)]);
    }
}
