//! The measurement protocol, the same for every workload: one untimed
//! warm-up, then repetitions that each rebuild everything from the seed
//! (users pay set-up on every run, so it is measured, not amortised).
//! Host-clock metrics are the median over the repetitions; simulated
//! metrics are taken from the first and must be bit-identical in all.

use crate::inputs::Preset;
use crate::json::Json;
use crate::stats;
use crate::trace::{chrome_trace, Stopwatch};
use crate::verify::Checked;
use crate::workloads::{self, Rep};
use std::time::Instant;

/// Repetitions of the fixed-count protocol (`run`).
pub const REPETITIONS: usize = 5;
/// Fewest repetitions a time-boxed run (`--seconds`) reports a median of.
const MIN_TIMED_REPETITIONS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many untraced repetitions.
    Reps(usize),
    /// Untraced repetitions until about this many seconds have passed.
    Seconds(f64),
}

pub struct Plan<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub preset: Preset,
    pub untraced: Budget,
    /// One extra repetition with spans on, after the untraced ones.
    pub traced: bool,
    /// Also run the controls that only feed per-layer metrics.
    pub per_layer: bool,
    /// Untraced `wall_s` median from an earlier result file, for a
    /// process that runs only the traced repetition.
    pub baseline_wall_s: Option<f64>,
}

/// A host-clock metric: the median and what it is the median of.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Sample {
    pub fn of(samples: &[f64]) -> Self {
        Self {
            value: stats::median(samples),
            min: stats::min(samples),
            max: stats::max(samples),
            n: samples.len(),
        }
    }
}

pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub preset: Preset,
    /// Untraced repetitions measured.
    pub repetitions: usize,
    /// `wall_s` and `setup_s`; empty when no untraced repetition ran.
    pub host: Vec<(&'static str, Sample)>,
    /// Simulated end-to-end metrics and (S) counters, controls included.
    pub sim: Vec<(&'static str, f64)>,
    /// (H span) and host÷sim per-layer metrics.
    pub spans: Vec<(&'static str, f64)>,
    /// The first repetition's queries: label, digest, verdict, sim time.
    pub queries: Vec<Checked>,
    /// Over every repetition measured.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub self_check: Vec<(String, bool)>,
    pub trace: Option<Json>,
}

impl Outcome {
    pub fn self_check_passed(&self) -> bool {
        self.self_check.iter().all(|(_, ok)| *ok)
    }

    pub fn correct(&self) -> bool {
        self.ops_failed == 0
    }
}

/// First simulated metric or digest on which two repetitions differ.
fn first_difference(a: &Rep, b: &Rep) -> Option<String> {
    if a.sim.len() != b.sim.len() || a.checked.len() != b.checked.len() {
        return Some("a different number of metrics or queries".into());
    }
    for (x, y) in a.sim.iter().zip(&b.sim) {
        if x.0 != y.0 || x.1.to_bits() != y.1.to_bits() {
            return Some(format!("{} = {} vs {}", x.0, x.1, y.1));
        }
    }
    for (x, y) in a.checked.iter().zip(&b.checked) {
        if x.label != y.label || x.digest != y.digest || x.sim_ns != y.sim_ns {
            return Some(format!(
                "query {} ({} ns) vs {} ({} ns)",
                x.label, x.sim_ns, y.label, y.sim_ns
            ));
        }
    }
    None
}

fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Per-layer host times of the calls the harness made into each layer.
fn span_metrics(traced: &Stopwatch, rep: &Rep, run_seconds: &[f64]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let of = |name: &str| traced.seconds_of(name);
    let generate = sum(&of("graph.generate"));
    out.push(("graph.generate_s", generate));
    out.push((
        "graph.generate_medges_per_s",
        rep.edges_generated as f64 / 1e6 / generate,
    ));
    out.push(("graph.weights_s", sum(&of("graph.weights"))));
    out.push(("core.engine.load_s", sum(&of("core.engine.load"))));
    if !run_seconds.is_empty() {
        let ms: Vec<f64> = run_seconds.iter().map(|s| s * 1e3).collect();
        out.push(("core.engine.run_ms_p50", stats::median(&ms)));
        out.push(("core.engine.run_ms_max", stats::max(&ms)));
    }
    let sharded = of("core.sharded.run");
    if !sharded.is_empty() {
        let ms: Vec<f64> = sharded.iter().map(|s| s * 1e3).collect();
        out.push(("core.sharded.run_ms_p50", stats::median(&ms)));
    }
    let submits = of("serve.submit");
    if !submits.is_empty() {
        let takes = of("serve.take");
        let drain = sum(&of("serve.run_pending"));
        out.push((
            "serve.submit_ns",
            sum(&submits) / submits.len() as f64 * 1e9,
        ));
        out.push(("serve.take_ns", sum(&takes) / takes.len() as f64 * 1e9));
        out.push(("serve.run_pending_s", drain));
        out.push((
            "core.batch.run_ms_per_query",
            drain * 1e3 / rep.ops_attempted as f64,
        ));
    }
    out
}

pub fn execute(plan: &Plan) -> Result<Outcome, String> {
    let build = |preset| {
        workloads::build(plan.workload, plan.seed, preset)
            .ok_or_else(|| format!("unknown workload {:?}", plan.workload))
    };
    // Warm-up: one smoke-sized repetition of the same workload walks the
    // same code paths in a fraction of a second, untimed.
    build(Preset::Smoke)?.repetition(&mut Stopwatch::new(false));

    let mut workload = build(plan.preset)?;
    let mut reps: Vec<Rep> = Vec::new();
    let mut wall = Vec::new();
    let mut setup = Vec::new();
    let mut run_seconds = Vec::new();
    let started = Instant::now();
    loop {
        let n = reps.len();
        let elapsed = started.elapsed().as_secs_f64();
        let done = match plan.untraced {
            Budget::Reps(r) => n >= r,
            // Stop at the repetition count that lands closest to the
            // budget: half a repetition short counts as there.
            Budget::Seconds(s) => {
                n >= MIN_TIMED_REPETITIONS && elapsed + elapsed / n as f64 / 2.0 >= s
            }
        };
        if done {
            break;
        }
        let mut sw = Stopwatch::new(false);
        reps.push(workload.repetition(&mut sw));
        wall.push(sw.wall_s);
        setup.push(sw.setup_s);
        run_seconds.extend(sw.seconds_of("core.engine.run"));
        eprintln!(
            "  [{}] repetition {}: wall {:.3} s, set-up {:.3} s",
            plan.workload,
            reps.len(),
            sw.wall_s,
            sw.setup_s
        );
    }
    let repetitions = reps.len();

    let mut spans = Vec::new();
    let mut trace = None;
    if plan.traced {
        let mut sw = Stopwatch::new(true);
        sw.enter("repetition");
        let rep = workload.repetition(&mut sw);
        sw.leave();
        if run_seconds.is_empty() {
            run_seconds = sw.seconds_of("core.engine.run");
        }
        spans = span_metrics(&sw, &rep, &run_seconds);
        let baseline = if wall.is_empty() {
            plan.baseline_wall_s
        } else {
            Some(stats::median(&wall))
        };
        if let Some(untraced) = baseline {
            spans.push(("trace_overhead_frac", sw.wall_s / untraced - 1.0));
        }
        eprintln!(
            "  [{}] traced repetition: wall {:.3} s, {} spans",
            plan.workload,
            sw.wall_s,
            sw.spans.len()
        );
        trace = Some(chrome_trace(
            plan.workload,
            repetitions as u32 + 1,
            &sw.spans,
        ));
        reps.push(rep);
    }
    let first = reps.first().ok_or("no repetition was run")?;

    let mut self_check: Vec<(String, bool)> = first
        .mechanism
        .iter()
        .map(|&(what, ok)| (what.to_string(), ok))
        .collect();
    let difference = reps[1..].iter().find_map(|r| first_difference(first, r));
    if let Some(what) = &difference {
        eprintln!("  [{}] repetitions differ: {what}", plan.workload);
    }
    self_check.push((
        "simulated metrics and digests bit-identical across repetitions".into(),
        difference.is_none(),
    ));

    let controls = workload.controls(plan.per_layer);
    self_check.extend(
        controls
            .mechanism
            .iter()
            .map(|&(w, ok)| (w.to_string(), ok)),
    );
    let mut sim = first.sim.clone();
    sim.extend(controls.sim);

    let mut host = Vec::new();
    if !wall.is_empty() {
        let wall_s = Sample::of(&wall);
        host.push(("wall_s", wall_s));
        host.push(("setup_s", Sample::of(&setup)));
        // The host-time-per-simulated-event figures.
        let sim_s = workloads::get(&sim, "sim_ms") / 1e3;
        let sectors = workloads::get(&sim, "gpu.cache.sectors_probed");
        spans.push(("runtime.exec.slowdown", wall_s.value / sim_s));
        spans.push((
            "runtime.exec.host_ns_per_sector",
            wall_s.value * 1e9 / sectors,
        ));
    }

    Ok(Outcome {
        workload: plan.workload.to_string(),
        seed: plan.seed,
        preset: plan.preset,
        repetitions,
        host,
        sim,
        spans,
        queries: first.checked.clone(),
        ops_attempted: reps.iter().map(|r| r.ops_attempted).sum(),
        ops_failed: reps.iter().map(|r| r.ops_failed).sum(),
        self_check,
        trace,
    })
}
