//! The repo's benchmark: five workloads, two clocks, per-layer meters.
//! README.md beside this package defines every metric and workload.
//!
//! ```text
//! benchmark run (--all | <workload>) [--seed N] [--out DIR] [--smoke]
//! benchmark layers                   [--seed N] [--out DIR] [--smoke]
//! benchmark trace <workload>         [--seed N] [--out DIR] [--smoke]
//! benchmark compare <setA> <setB>
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last form is the driver's protocol (`BENCHMARK.json`): one
//! workload, time-boxed, the result as one JSON object on the last line
//! of standard output.

// The benchmark is the one package whose job is to read the host clock;
// like `crates/bench` it opts out of the root clippy.toml ban locally.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use emogi_benchmark::inputs::Preset;
use emogi_benchmark::json::Json;
use emogi_benchmark::protocol::{self, Budget, Outcome, Plan};
use emogi_benchmark::{compare, layers, metrics, report};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The seed `BENCHMARK.json` records as default; 777 is held out.
const DEFAULT_SEED: u64 = 20_260_928;
const DEFAULT_OUT: &str = "benchmark/out";

const USAGE: &str = "usage:
  benchmark run (--all | <workload>) [--seed N] [--out DIR] [--smoke]
  benchmark layers                   [--seed N] [--out DIR] [--smoke]
  benchmark trace <workload>         [--seed N] [--out DIR] [--smoke]
  benchmark compare <setA> <setB>
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
workloads: zc-aligned uvm-baseline hybrid-tiered serve-burst sharded-4dev";

/// Parsed command line: positional words and `--flag [value]` options.
struct Args {
    words: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Self, String> {
        const SWITCHES: [&str; 2] = ["--all", "--smoke"];
        let mut words = Vec::new();
        let mut options = BTreeMap::new();
        while let Some(arg) = raw.next() {
            if SWITCHES.contains(&arg.as_str()) {
                options.insert(arg, String::new());
            } else if arg.starts_with("--") {
                let value = raw.next().ok_or(format!("{arg} needs a value"))?;
                options.insert(arg, value);
            } else {
                words.push(arg);
            }
        }
        Ok(Self { words, options })
    }

    fn has(&self, flag: &str) -> bool {
        self.options.contains_key(flag)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.options.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: {v:?} is not a number")),
        }
    }

    fn preset(&self) -> Preset {
        if self.has("--smoke") {
            Preset::Smoke
        } else {
            Preset::Full
        }
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(
            self.options
                .get("--out")
                .map_or(DEFAULT_OUT, String::as_str),
        )
    }
}

/// Peak resident set of this process, MiB (`VmHWM` of
/// `/proc/self/status`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// Pin glibc malloc's mmap threshold. Left alone, the threshold climbs
/// each time a large block is freed (up to 32 MiB), after which the next
/// repetition's graph arrays come from the heap instead of fresh
/// mappings, fragment it, and `VmHWM` lands on 75 or 110 MiB depending on
/// the seed and the repetition count. With the threshold fixed, large
/// blocks are always mapped and unmapped, and the high-water mark is the
/// workload's own live peak.
fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's documented tuning call: two ints
        // by value, no pointers, it only writes the allocator's own
        // parameters; it runs first thing in `main`, before any other
        // thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 << 10);
        }
    }
}

/// Print the self-checks; a failed one is an error.
fn self_checks(outcome: &Outcome) -> Result<(), String> {
    for (what, ok) in &outcome.self_check {
        eprintln!("  self-check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    if outcome.self_check_passed() {
        Ok(())
    } else {
        Err(format!("{}: a self-check failed", outcome.workload))
    }
}

/// A failed self-check or a wrong output ends the process non-zero, after
/// the numbers are on record.
fn verdict(outcome: &Outcome) -> Result<(), String> {
    self_checks(outcome)?;
    if !outcome.correct() {
        return Err(format!(
            "{}: {} of {} operations failed",
            outcome.workload, outcome.ops_failed, outcome.ops_attempted
        ));
    }
    Ok(())
}

/// `run <workload>`: the fixed-count protocol, one result file.
fn run_one(workload: &str, args: &Args) -> Result<(), String> {
    let preset = args.preset();
    let reps = match preset {
        Preset::Full => protocol::REPETITIONS,
        Preset::Smoke => 1,
    };
    let outcome = protocol::execute(&Plan {
        workload,
        seed: args.number("--seed", DEFAULT_SEED)?,
        preset,
        untraced: Budget::Reps(reps),
        traced: false,
        per_layer: true,
        baseline_wall_s: None,
    })?;
    let metrics = report::outcome_metrics(&outcome, Some(peak_rss_mb()?));
    report::write(
        &args.out().join(format!("{workload}.json")),
        &report::workload_file(&outcome, &metrics),
    )?;
    report::print_table(workload, &metrics);
    println!(
        "ops_attempted {}  ops_failed {}",
        outcome.ops_attempted, outcome.ops_failed
    );
    verdict(&outcome)
}

/// `trace <workload>`: one repetition with spans on, next to the
/// untraced result file it is compared with.
fn trace_one(workload: &str, args: &Args) -> Result<(), String> {
    let out = args.out();
    let untraced = report::read(&out.join(format!("{workload}.json"))).map_err(|e| {
        format!("{e}\n`trace` needs the untraced result: run `run {workload}` first")
    })?;
    let outcome = protocol::execute(&Plan {
        workload,
        seed: args.number("--seed", DEFAULT_SEED)?,
        preset: args.preset(),
        untraced: Budget::Reps(0),
        traced: true,
        per_layer: false,
        baseline_wall_s: report::values(&untraced).get("wall_s").copied(),
    })?;
    let spans = report::annotate(&outcome.spans);
    report::write(
        &out.join(format!("{workload}.spans.json")),
        &report::metrics_file("spans", outcome.seed, outcome.preset, &spans),
    )?;
    let trace = outcome
        .trace
        .as_ref()
        .ok_or("the traced repetition left no trace")?;
    let path = out.join(format!("{workload}.trace.json"));
    report::write(&path, trace)?;
    report::print_table(&format!("{workload} (traced repetition)"), &spans);
    println!("Chrome trace: {}", path.display());
    verdict(&outcome)
}

fn layers(args: &Args) -> Result<(), String> {
    let (seed, preset) = (args.number("--seed", DEFAULT_SEED)?, args.preset());
    let metrics = report::annotate(&layers::run_all(seed, preset));
    report::write(
        &args.out().join("layers.json"),
        &report::metrics_file("layers", seed, preset, &metrics),
    )?;
    report::print_table("layer drivers", &metrics);
    Ok(())
}

/// Re-run this executable with `command`, keeping its standard output
/// out of the way: one process per workload, one after another, so every
/// `peak_rss_mb` is the workload's own.
fn child(command: &[&str], args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(command)
        .arg("--seed")
        .arg(args.number("--seed", DEFAULT_SEED)?.to_string())
        .arg("--out")
        .arg(args.out())
        .stdout(Stdio::null());
    if args.has("--smoke") {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("{command:?}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "`benchmark {}` failed: {status}",
            command.join(" ")
        ))
    }
}

/// Σ `sim_ns` of `doc`'s queries whose labels are in `labels`.
fn common_sim_ns(doc: &Json, labels: &[String]) -> f64 {
    doc.get("queries")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|q| {
            q.get("label")
                .and_then(Json::as_str)
                .is_some_and(|l| labels.iter().any(|x| x == l))
        })
        .filter_map(|q| q.get("sim_ns").and_then(Json::as_f64))
        .sum()
}

/// `run --all`: every workload, the layer drivers and a traced repetition
/// per workload, each in its own process; then the whole set by name.
fn run_all(args: &Args) -> Result<(), String> {
    let started = std::time::Instant::now();
    for workload in metrics::WORKLOADS {
        eprintln!("[run --all] {workload}");
        child(&["run", workload], args)?;
    }
    eprintln!("[run --all] layer drivers");
    child(&["layers"], args)?;
    for workload in metrics::WORKLOADS {
        eprintln!("[run --all] {workload}, traced repetition");
        child(&["trace", workload], args)?;
    }

    let out = args.out();
    let layer_values = report::values(&report::read(&out.join("layers.json"))?);
    let mut summary = Vec::new();
    let mut docs = BTreeMap::new();
    for workload in metrics::WORKLOADS {
        let doc = report::read(&out.join(format!("{workload}.json")))?;
        let spans = report::read(&out.join(format!("{workload}.spans.json")))?;
        let mut all = report::values(&doc);
        all.extend(report::values(&spans));
        all.extend(layer_values.clone());
        report::add_estimates(&mut all);
        // In table order: the nine end-to-end metrics, then every
        // per-layer metric; what a workload never exercises reads 0.
        let names = metrics::END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(metrics::PER_LAYER.iter().map(|m| m.name));
        let pairs: Vec<(&'static str, f64)> = names
            .map(|name| (name, all.get(name).copied().unwrap_or(0.0)))
            .collect();
        let mut table = report::annotate(&pairs);
        let spreads = report::spreads(&doc);
        for (name, value) in &mut table {
            value.spread = spreads.get(*name).copied();
        }
        let failed = doc
            .get("ops_failed")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let attempted = doc
            .get("ops_attempted")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        report::print_table(workload, &table);
        println!("ops_attempted {attempted}  ops_failed {failed}  (self-checks passed)");
        summary.push((workload.to_string(), report::metrics_json(&table)));
        docs.insert(workload, doc);
    }

    // The paper's headline ratio over the runs the two workloads share.
    // Informational: the model is unvalidated, so it is printed beside
    // the paper's claim, never gated.
    let labels: Vec<String> = docs["uvm-baseline"]
        .get("queries")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|q| q.get("label").and_then(Json::as_str).map(String::from))
        .collect();
    let speedup =
        common_sim_ns(&docs["uvm-baseline"], &labels) / common_sim_ns(&docs["zc-aligned"], &labels);
    println!(
        "\nspeedup_vs_uvm {speedup:.3} ratio  (zc-aligned vs uvm-baseline sim_ms over their {} \
         common runs; informational — {}; the paper's Figure 9 averages 3.56x for \
         Merged+Aligned BFS over UVM)",
        labels.len(),
        report::MODEL_STATEMENT
    );
    let doc = Json::obj(vec![
        ("schema", Json::Num(report::SCHEMA)),
        ("kind", Json::str("summary")),
        ("model", Json::str(report::MODEL_STATEMENT)),
        ("speedup_vs_uvm", Json::Num(speedup)),
        ("workloads", Json::Obj(summary)),
    ]);
    report::write(&out.join("summary.json"), &doc)?;
    eprintln!(
        "[run --all] full set in {:.0} s, results in {}",
        started.elapsed().as_secs_f64(),
        out.display()
    );
    Ok(())
}

/// The driver's protocol: measure one workload for about `--seconds`,
/// print the result object as the last line of standard output.
fn driver(args: &Args) -> Result<(), String> {
    let workload = args
        .options
        .get("--workload")
        .ok_or("--workload is required")?;
    let seed = args.number("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("--seconds", 20.0)?;
    let traced = match args.number("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds takes 1 to 60, not {seconds}"));
    }
    let preset = args.preset();
    let outcome = protocol::execute(&Plan {
        workload,
        seed,
        preset,
        // With tracing on, two untraced repetitions anchor
        // `trace_overhead_frac`; the rest of the time box goes to the
        // traced repetition, the controls and the layer drivers.
        untraced: if traced {
            Budget::Reps(2)
        } else {
            Budget::Seconds(seconds)
        },
        traced,
        per_layer: traced,
        baseline_wall_s: None,
    })?;
    // A failed run prints no result.
    self_checks(&outcome)?;
    let peak_rss = if traced { None } else { Some(peak_rss_mb()?) };
    let mut all: BTreeMap<String, f64> = report::outcome_metrics(&outcome, peak_rss)
        .into_iter()
        .map(|(name, v)| (name.to_string(), v.value))
        .collect();
    let listed: Vec<(&str, &str)> = if traced {
        let drivers = layers::run_all(seed, preset);
        all.extend(drivers.into_iter().map(|(name, ns)| (name.to_string(), ns)));
        report::add_estimates(&mut all);
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let mut reported = Vec::new();
    for (name, unit) in listed {
        // A per-layer metric the workload never exercises reads 0; every
        // end-to-end metric must have been measured.
        let value = match all.get(name) {
            Some(&value) => value,
            None if traced => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        let fields = vec![("value", Json::Num(value)), ("unit", Json::str(unit))];
        reported.push((name.to_string(), Json::obj(fields)));
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.ops_attempted as f64)),
        ("failed", Json::Num(outcome.ops_failed as f64)),
        ("metrics", Json::Obj(reported)),
    ]);
    println!("{}", result.compact());
    Ok(())
}

fn dispatch(args: &Args) -> Result<(), String> {
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    match words.as_slice() {
        [] if args.has("--workload") => driver(args),
        ["run"] if args.has("--all") => run_all(args),
        ["run", workload] => run_one(workload, args),
        ["layers"] => layers(args),
        ["trace", workload] => trace_one(workload, args),
        ["compare", a, b] => match compare::run(Path::new(a), Path::new(b))? {
            true => Ok(()),
            false => Err("the sets do not agree".into()),
        },
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn command_lines_parse_into_words_switches_and_valued_options() {
        let a = args("run --all --seed 777 --out /tmp/x --smoke").unwrap();
        assert_eq!(a.words, ["run"]);
        assert!(a.has("--all") && a.has("--smoke"));
        assert_eq!(a.number("--seed", 0u64), Ok(777));
        assert_eq!(a.out(), PathBuf::from("/tmp/x"));
        assert_eq!(a.preset(), Preset::Smoke);

        let d = args("--workload zc-aligned --seed 5 --seconds 18 --trace 1").unwrap();
        assert!(d.words.is_empty());
        assert_eq!(d.options["--workload"], "zc-aligned");
        assert_eq!(d.number("--trace", 0u8), Ok(1));
        assert_eq!(d.preset(), Preset::Full);
        assert_eq!(d.out(), PathBuf::from(DEFAULT_OUT));

        assert!(
            args("run zc-aligned --seed").is_err(),
            "--seed needs a value"
        );
        assert!(args("run --seed x")
            .unwrap()
            .number("--seed", 0u64)
            .is_err());
    }

    #[test]
    fn unknown_commands_print_usage() {
        assert_eq!(
            dispatch(&args("frobnicate").unwrap()),
            Err(USAGE.to_string())
        );
        assert_eq!(dispatch(&args("").unwrap()), Err(USAGE.to_string()));
    }

    #[test]
    fn peak_rss_reads_vmhwm() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
