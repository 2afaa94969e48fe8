//! # benchfold — the benchmark's trajectory, on disk
//!
//! `benchmark/out/<workload>.json` is what one `run --all` measured; it is
//! ignored by git and gone with the checkout. This tool folds those files
//! into one `BENCH_<pr>.json` that *is* committed — per workload the nine
//! end-to-end metrics `BENCHMARK.json` declares (host medians with their
//! min/max/n) and every query's output digest and simulated time — so the
//! trajectory is diffable PR to PR without rebuilding a parent, and checks
//! a fresh run against the newest committed file: every *simulated* field
//! must be identical, host fields are printed and never gated.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --all --seed 20260928
//! cargo run -p benchfold -- fold 16      # benchmark/out -> BENCH_16.json
//! cargo run -p benchfold -- check        # benchmark/out vs the newest BENCH_*.json
//! cargo run -p benchfold -- diff BENCH_34.json BENCH_35.json   # what a PR moved
//! ```
//!
//! The JSON is the benchmark's own: [`json`] is `benchmark/src/json.rs`,
//! compiled in by path, so the files are read and written by the code
//! that writes `benchmark/out`, and numbers are `f64`s compared by bit
//! pattern, as the benchmark's `compare` does.
//! `committed_bench_files_round_trip_byte_for_byte` holds every committed
//! `BENCH_*.json` to its `parse(..).pretty()`. Seeded mutation it catches
//! (and the shared module's own tests do not): `Json::pretty` without its
//! trailing `out.push('\n')`.

#![forbid(unsafe_code)]

// One JSON implementation: the benchmark's own, compiled in as a module.
// It needs only `std`, so none of the rest of the benchmark package is
// built, and a file the benchmark writes is read by the same parser.
#[path = "../../../benchmark/src/json.rs"]
pub mod json;

use json::Json;

fn member<'a>(value: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{what}: no \"{key}\" member"))
}

fn names(declaration: &Json, list: &str) -> Result<Vec<String>, String> {
    member(declaration, list, "BENCHMARK.json")?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: \"{list}\" is not a list"))?
        .iter()
        .map(|entry| {
            member(entry, "name", list)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: a \"{list}\" name is not a string"))
        })
        .collect()
}

/// Fold one `run --all`'s workload result files into the `BENCH_<pr>`
/// document: the workloads and end-to-end metrics `declaration`
/// (`BENCHMARK.json`) names, in its order. `result_of` returns the parsed
/// `<workload>.json`.
pub fn fold(
    pr: u64,
    declaration: &Json,
    mut result_of: impl FnMut(&str) -> Result<Json, String>,
) -> Result<Json, String> {
    let metrics = names(declaration, "end_to_end")?;
    let mut run = None;
    let mut workloads = Vec::new();
    for workload in names(declaration, "workloads")? {
        let result = result_of(&workload)?;
        let what = format!("{workload}.json");
        // One run: every file carries the same seed and preset.
        let this_run = [
            member(&result, "seed", &what)?,
            member(&result, "preset", &what)?,
        ];
        let first = run.get_or_insert_with(|| this_run.map(Json::clone));
        if !first.iter().zip(this_run).all(|(a, b)| same(a, b)) {
            return Err(format!(
                "{what}: seed or preset differs from the other files"
            ));
        }
        let measured = member(&result, "metrics", &what)?;
        let end_to_end = metrics
            .iter()
            .map(|m| Ok((m.clone(), member(measured, m, &what)?.clone())))
            .collect::<Result<_, String>>()?;
        let mut folded = vec![("workload".to_string(), Json::Str(workload))];
        for key in ["repetitions", "ops_attempted", "ops_failed"] {
            folded.push((key.to_string(), member(&result, key, &what)?.clone()));
        }
        folded.push(("end_to_end".to_string(), Json::Obj(end_to_end)));
        folded.push((
            "queries".to_string(),
            member(&result, "queries", &what)?.clone(),
        ));
        workloads.push(Json::Obj(folded));
    }
    let [seed, preset] = run.ok_or("BENCHMARK.json names no workload")?;
    Ok(Json::Obj(vec![
        ("schema".to_string(), Json::Num(1.0)),
        ("pr".to_string(), Json::Num(pr as f64)),
        ("seed".to_string(), seed),
        ("preset".to_string(), preset),
        ("workloads".to_string(), Json::Arr(workloads)),
    ]))
}

/// Two leaves are the same when their numbers have one bit pattern (the
/// rule the benchmark's `compare` gates simulated metrics by) or, for
/// any other value, when they are equal.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Is this member of a folded document measured on the host clock (or a
/// label of the fold itself)? Everything else is simulated and must
/// repeat exactly.
fn informational(key: &str, value: &Json) -> bool {
    matches!(key, "pr" | "repetitions") || value.get("clock").and_then(Json::as_str) == Some("host")
}

/// Where two folded documents disagree on a simulated field, as
/// `path: committed != fresh` lines. Empty means the fresh run reproduces
/// the committed one.
pub fn simulated_disagreements(committed: &Json, fresh: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff("", committed, fresh, &mut out);
    out
}

fn diff(path: &str, committed: &Json, fresh: &Json, out: &mut Vec<String>) {
    match (committed, fresh) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (key, va) in a {
                if informational(key, va) {
                    continue;
                }
                match fresh.get(key) {
                    Some(vb) => diff(&format!("{path}/{key}"), va, vb, out),
                    None => out.push(format!("{path}/{key}: missing from the fresh run")),
                }
            }
            for (key, vb) in b {
                if !informational(key, vb) && committed.get(key).is_none() {
                    out.push(format!("{path}/{key}: not in the committed file"));
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) if a.len() == b.len() => {
            for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                // Name list entries by their label where they have one.
                let name = ["workload", "label"]
                    .iter()
                    .find_map(|k| va.get(k).and_then(Json::as_str))
                    .map_or_else(|| i.to_string(), str::to_string);
                diff(&format!("{path}/{name}"), va, vb, out);
            }
        }
        (a, b) if same(a, b) => {}
        (a, b) => out.push(format!("{path}: {} != {}", a.compact(), b.compact())),
    }
}

/// The host-clock end-to-end medians of two folded documents side by
/// side, one `workload metric committed fresh` line each. Informational.
///
/// A `wall_s` line also gives its relative change and, as a host-noise
/// canary, the workload's fresh/committed `setup_s` ratio: set-up code
/// that a change leaves alone should not move, so a ratio far from 1
/// says the host, not the change, moved the wall clock.
pub fn host_medians(committed: &Json, fresh: &Json) -> Vec<String> {
    fn workloads(doc: &Json) -> Option<&[Json]> {
        doc.get("workloads").and_then(Json::as_arr)
    }
    let median = |metric: &Json| metric.get("value").and_then(Json::as_f64);
    let setup_s = |workload: &Json| {
        workload
            .get("end_to_end")
            .and_then(|e| e.get("setup_s"))
            .and_then(median)
    };
    let mut out = Vec::new();
    let (Some(old), Some(new)) = (workloads(committed), workloads(fresh)) else {
        return out;
    };
    for (a, b) in old.iter().zip(new) {
        let name = a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(Json::Obj(metrics)) = a.get("end_to_end") else {
            continue;
        };
        for (metric, va) in metrics.iter().filter(|(k, v)| informational(k, v)) {
            let vb = b.get("end_to_end").and_then(|e| e.get(metric));
            if let (Some(x), Some(y)) = (median(va), vb.and_then(median)) {
                let mut line = format!("{name:<14} {metric:<12} {x:>10.3} -> {y:>10.3}");
                if metric == "wall_s" {
                    line += &format!(" {:>+7.1} %", 100.0 * (y / x - 1.0));
                    if let (Some(s0), Some(s1)) = (setup_s(a), setup_s(b)) {
                        line += &format!("   setup_s ratio {:.2}", s1 / s0);
                    }
                }
                out.push(line);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECLARATION: &str = r#"{
        "workloads": [{"name": "w1", "why": "."}, {"name": "w2", "why": "."}],
        "end_to_end": [{"name": "sim_ms", "unit": "ms"}, {"name": "wall_s", "unit": "s"}]
    }"#;

    fn result(workload: &str, sim_ms: &str, wall_s: &str, digest: &str) -> Json {
        json::parse(&format!(
            r#"{{
              "schema": 1, "kind": "workload", "workload": "{workload}",
              "seed": 20260928, "preset": "full", "repetitions": 5,
              "ops_attempted": 2, "ops_failed": 0,
              "self_check": [],
              "queries": [{{"label": "gk.bfs.4", "digest": "{digest}", "ok": true, "sim_ns": 7}}],
              "metrics": {{
                "sim_ms": {{"value": {sim_ms}, "unit": "ms", "clock": "sim"}},
                "wall_s": {{"value": {wall_s}, "unit": "s", "clock": "host", "min": 1, "max": 2, "n": 5}},
                "gpu.cache.l2_hit_rate": {{"value": 0.5, "unit": "ratio", "clock": "sim"}}
              }}
            }}"#
        ))
        .unwrap()
    }

    fn folded(pr: u64, sim_ms: &str, wall_s: &str, digest: &str) -> Json {
        let declaration = json::parse(DECLARATION).unwrap();
        fold(pr, &declaration, |w| Ok(result(w, sim_ms, wall_s, digest))).unwrap()
    }

    /// A number's bit pattern, the identity `fold` and the gate compare.
    fn bits(value: Option<&Json>) -> Option<u64> {
        value.and_then(Json::as_f64).map(f64::to_bits)
    }

    #[test]
    fn fold_keeps_the_declared_metrics_in_the_declared_order() {
        let doc = folded(16, "25.401762", "0.59", "ab");
        assert_eq!(bits(doc.get("pr")), Some(16f64.to_bits()));
        assert_eq!(bits(doc.get("seed")), Some(20_260_928f64.to_bits()));
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let order: Vec<_> = workloads
            .iter()
            .map(|w| w.get("workload").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(order, ["w1", "w2"]);
        let Some(Json::Obj(metrics)) = workloads[0].get("end_to_end") else {
            panic!("end_to_end is an object")
        };
        let kept: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(kept, ["sim_ms", "wall_s"], "per-layer metrics stay out");
        // Numbers survive bit for bit, host spread included.
        assert_eq!(
            bits(metrics[0].1.get("value")),
            Some(25.401762f64.to_bits())
        );
        assert_eq!(bits(metrics[1].1.get("n")), Some(5f64.to_bits()));
        // What is written is what is read back.
        assert_eq!(json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn fold_refuses_files_from_different_runs_and_missing_metrics() {
        let declaration = json::parse(DECLARATION).unwrap();
        let mixed = fold(1, &declaration, |w| {
            let text = result(w, "1", "1", "ab").pretty();
            let seed = if w == "w2" { "777" } else { "20260928" };
            json::parse(&text.replace("20260928", seed))
        });
        assert!(mixed.unwrap_err().contains("seed or preset differs"));
        let bare =
            json::parse(r#"{"workloads": [{"name": "w1"}], "end_to_end": [{"name": "nope"}]}"#);
        let missing = fold(1, &bare.unwrap(), |w| Ok(result(w, "1", "1", "ab")));
        assert!(missing.unwrap_err().contains("\"nope\""));
    }

    #[test]
    fn only_simulated_fields_are_gated() {
        let committed = folded(15, "25.401762", "4.40", "ab");
        // Another PR, another host: nothing to report.
        let faster = folded(16, "25.401762", "0.59", "ab");
        assert_eq!(
            simulated_disagreements(&committed, &faster),
            Vec::<String>::new()
        );
        assert_eq!(
            host_medians(&committed, &faster).len(),
            2,
            "wall_s per workload"
        );
        // A simulated metric or a digest moved: named by path.
        let moved = simulated_disagreements(&committed, &folded(16, "25.5", "0.59", "ab"));
        assert_eq!(moved.len(), 2, "{moved:?}");
        assert!(moved[0].starts_with("/workloads/w1/end_to_end/sim_ms/value: 25.401762 != 25.5"));
        let digest = simulated_disagreements(&committed, &folded(16, "25.401762", "0.59", "cd"));
        assert!(
            digest[0].starts_with("/workloads/w1/queries/gk.bfs.4/digest"),
            "{digest:?}"
        );
    }

    /// `diff` between two committed files names only the workload that
    /// moved, and nothing for the host fields that moved everywhere.
    #[test]
    fn a_diff_of_two_bench_files_names_only_the_workload_that_moved() {
        let declaration = json::parse(DECLARATION).unwrap();
        let old = fold(34, &declaration, |w| Ok(result(w, "3.36", "2.4", "ab"))).unwrap();
        let new = fold(35, &declaration, |w| {
            let sim_ms = if w == "w2" { "3.18" } else { "3.36" };
            Ok(result(w, sim_ms, "1.2", "ab"))
        })
        .unwrap();
        let moved = simulated_disagreements(&old, &new);
        assert_eq!(
            moved,
            ["/workloads/w2/end_to_end/sim_ms/value: 3.36 != 3.18"],
            "only w2's simulated time"
        );
    }

    /// Each `wall_s` line carries its change and the same pair's
    /// `setup_s` ratio; other host lines carry neither.
    #[test]
    fn wall_clock_lines_carry_the_setup_ratio_canary() {
        let declaration = json::parse(
            r#"{"workloads": [{"name": "w1"}],
                "end_to_end": [{"name": "wall_s"}, {"name": "setup_s"}]}"#,
        )
        .unwrap();
        let doc = |wall_s: &str, setup_s: &str| {
            let text = result("w1", "1", wall_s, "ab").pretty().replace(
                r#""gpu.cache.l2_hit_rate""#,
                &format!(
                    r#""setup_s": {{"value": {setup_s}, "unit": "s", "clock": "host"}},
                       "gpu.cache.l2_hit_rate""#
                ),
            );
            fold(1, &declaration, |_| json::parse(&text)).unwrap()
        };
        let lines = host_medians(&doc("2.0", "0.040"), &doc("1.5", "0.050"));
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("w1             wall_s"), "{lines:?}");
        assert!(
            lines[0].ends_with("-25.0 %   setup_s ratio 1.25"),
            "{lines:?}"
        );
        assert!(!lines[1].contains('%') && !lines[1].contains("ratio"));
        // Without a setup_s on both sides the change still prints.
        let bare = host_medians(&folded(1, "1", "2.0", "ab"), &folded(2, "1", "1.0", "ab"));
        assert!(bare[0].ends_with("-50.0 %"), "{bare:?}");
    }

    /// Every committed trajectory file is exactly what the shared writer
    /// makes of its parse, so a fold writes the files the benchmark's
    /// own writer would.
    #[test]
    fn committed_bench_files_round_trip_byte_for_byte() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut files = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let written = json::parse(&text).unwrap().pretty();
            assert!(written == text, "{name} does not round-trip");
            files += 1;
        }
        assert!(files > 0, "no BENCH_*.json at the repository root");
    }

    /// The shared parser's own test refuses these inputs; this one also
    /// holds it to naming where.
    #[test]
    fn malformed_documents_are_refused_with_a_position() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "1 2", "{\"a\":tru}"] {
            let err = json::parse(bad).unwrap_err();
            assert!(err.contains("at byte"), "{bad:?}: {err}");
        }
    }
}
