//! End-to-end proof of the harness at the `--smoke` preset: the full set
//! runs, every result file parses, every name in `BENCHMARK.json` is
//! reported for every workload, the self-checks pass on the default and
//! the held-out seed, and a set compares clean against itself.

use emogi_benchmark::json::{self, Json};
use emogi_benchmark::metrics::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DEFAULT_SEED: &str = "20260928";
const HELD_OUT_SEED: &str = "777";

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // A stale set from an earlier test run must not satisfy this one.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn assert_success(what: &str, output: &Output) {
    assert!(
        output.status.success(),
        "{what} failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn smoke_set_reports_every_benchmark_json_name_and_compares_clean() {
    let out = out_dir("smoke-default");
    let dir = out.to_str().expect("UTF-8 path");
    let run = benchmark(&[
        "run",
        "--all",
        "--smoke",
        "--seed",
        DEFAULT_SEED,
        "--out",
        dir,
    ]);
    assert_success("run --all --smoke", &run);

    let spec = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let mut listed = names(&spec, "end_to_end");
    listed.extend(names(&spec, "per_layer"));
    assert_eq!(names(&spec, "workloads"), WORKLOADS);

    let summary = read(&out.join("summary.json"));
    let stdout = String::from_utf8_lossy(&run.stdout);
    for workload in WORKLOADS {
        let reported = summary
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap_or_else(|| panic!("summary.json lacks {workload}"));
        for name in &listed {
            let metric = reported
                .get(name)
                .unwrap_or_else(|| panic!("{workload} does not report {name}"));
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
            assert!(
                metric.get("unit").and_then(Json::as_str).is_some(),
                "{name}"
            );
            assert!(stdout.contains(name.as_str()), "{name} is not printed");
        }

        let result = read(&out.join(format!("{workload}.json")));
        assert_eq!(result.get("ops_failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("ops_attempted").and_then(Json::as_f64) >= Some(1.0));
        let queries = result
            .get("queries")
            .and_then(Json::as_arr)
            .expect("queries");
        assert!(!queries.is_empty());
        for q in queries {
            let digest = q.get("digest").and_then(Json::as_str).expect("a digest");
            assert_eq!(digest.len(), 16, "{digest}");
        }
        let checks = result
            .get("self_check")
            .and_then(Json::as_arr)
            .expect("self_check");
        assert!(checks.len() >= 3, "{workload} carries its mechanism checks");
        for c in checks {
            assert_eq!(
                c.get("passed"),
                Some(&Json::Bool(true)),
                "{workload}: {c:?}"
            );
        }

        // The traced repetition's Chrome trace loads and holds the span
        // tree under one repetition span.
        let trace = read(&out.join(format!("{workload}.trace.json")));
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("repetition")
        );
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("verify.reference")
                && e.get("args").and_then(|a| a.get("parent")).is_some()
        }));
        let spans = read(&out.join(format!("{workload}.spans.json")));
        assert!(spans
            .get("metrics")
            .and_then(|m| m.get("trace_overhead_frac"))
            .is_some());
    }

    let same = benchmark(&["compare", dir, dir]);
    assert_success("compare of a set with itself", &same);
    assert!(String::from_utf8_lossy(&same.stdout).contains("0 violations"));
}

#[test]
fn self_checks_pass_on_the_held_out_seed() {
    let out = out_dir("smoke-held-out");
    let dir = out.to_str().expect("UTF-8 path");
    for workload in WORKLOADS {
        let run = benchmark(&[
            "run",
            workload,
            "--smoke",
            "--seed",
            HELD_OUT_SEED,
            "--out",
            dir,
        ]);
        assert_success(workload, &run);
    }
}

#[test]
fn compare_rejects_a_changed_simulated_metric() {
    let (a, b) = (out_dir("compare-a"), out_dir("compare-b"));
    let run = |dir: &Path| {
        let dir = dir.to_str().expect("UTF-8 path");
        benchmark(&[
            "run",
            "sharded-4dev",
            "--smoke",
            "--seed",
            "5",
            "--out",
            dir,
        ])
    };
    assert_success("set A", &run(&a));
    assert_success("set B", &run(&b));
    let (a_dir, b_dir) = (a.to_str().unwrap(), b.to_str().unwrap());
    // Two runs of one commit agree bit for bit on the simulated clock.
    assert_success("compare A B", &benchmark(&["compare", a_dir, b_dir]));

    // One simulated nanosecond more is a violation, whatever the noise.
    let file = b.join("sharded-4dev.json");
    let text = std::fs::read_to_string(&file).unwrap();
    let sim_ms = read(&file)
        .get("metrics")
        .and_then(|m| m.get("sim_ms"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .expect("sim_ms");
    let edited = text.replacen(&format!("{sim_ms}"), &format!("{}", sim_ms + 1e-6), 1);
    assert_ne!(edited, text);
    std::fs::write(&file, edited).unwrap();
    let changed = benchmark(&["compare", a_dir, b_dir]);
    assert!(
        !changed.status.success(),
        "a changed sim_ms must fail the gate"
    );
    assert!(String::from_utf8_lossy(&changed.stdout).contains("DIFFERS"));
}

#[test]
fn driver_protocol_prints_one_result_object_last() {
    let spec = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let run = benchmark(&[
            "--workload",
            "serve-burst",
            "--seed",
            "31",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert_success("driver protocol", &run);
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = stdout.lines().last().expect("a result line");
        let result = json::parse(last).expect("the last line is JSON");
        let keys: Vec<&str> = result
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        let reported: Vec<&str> = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            reported,
            names(&spec, list),
            "--trace {trace} reports {list}"
        );
    }
    let unknown = benchmark(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!unknown.status.success());
    assert!(unknown.stdout.is_empty(), "a failed run prints no result");
}
