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
//! ```

#![forbid(unsafe_code)]

pub mod json;

use json::Value;

fn member<'a>(value: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{what}: no \"{key}\" member"))
}

fn names(declaration: &Value, list: &str) -> Result<Vec<String>, String> {
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
    declaration: &Value,
    mut result_of: impl FnMut(&str) -> Result<Value, String>,
) -> Result<Value, String> {
    let metrics = names(declaration, "end_to_end")?;
    let mut run = None;
    let mut workloads = Vec::new();
    for workload in names(declaration, "workloads")? {
        let result = result_of(&workload)?;
        let what = format!("{workload}.json");
        // One run: every file carries the same seed and preset.
        let this_run = (
            member(&result, "seed", &what)?.clone(),
            member(&result, "preset", &what)?.clone(),
        );
        if *run.get_or_insert_with(|| this_run.clone()) != this_run {
            return Err(format!(
                "{what}: seed or preset differs from the other files"
            ));
        }
        let measured = member(&result, "metrics", &what)?;
        let end_to_end = metrics
            .iter()
            .map(|m| Ok((m.clone(), member(measured, m, &what)?.clone())))
            .collect::<Result<_, String>>()?;
        let mut folded = vec![("workload".to_string(), Value::Str(workload))];
        for key in ["repetitions", "ops_attempted", "ops_failed"] {
            folded.push((key.to_string(), member(&result, key, &what)?.clone()));
        }
        folded.push(("end_to_end".to_string(), Value::Obj(end_to_end)));
        folded.push((
            "queries".to_string(),
            member(&result, "queries", &what)?.clone(),
        ));
        workloads.push(Value::Obj(folded));
    }
    let (seed, preset) = run.ok_or("BENCHMARK.json names no workload")?;
    Ok(Value::Obj(vec![
        ("schema".to_string(), Value::Num("1".to_string())),
        ("pr".to_string(), Value::Num(pr.to_string())),
        ("seed".to_string(), seed),
        ("preset".to_string(), preset),
        ("workloads".to_string(), Value::Arr(workloads)),
    ]))
}

/// Is this member of a folded document measured on the host clock (or a
/// label of the fold itself)? Everything else is simulated and must
/// repeat exactly.
fn informational(key: &str, value: &Value) -> bool {
    matches!(key, "pr" | "repetitions")
        || value.get("clock").and_then(Value::as_str) == Some("host")
}

/// Where two folded documents disagree on a simulated field, as
/// `path: committed != fresh` lines. Empty means the fresh run reproduces
/// the committed one.
pub fn simulated_disagreements(committed: &Value, fresh: &Value) -> Vec<String> {
    let mut out = Vec::new();
    diff("", committed, fresh, &mut out);
    out
}

fn diff(path: &str, committed: &Value, fresh: &Value, out: &mut Vec<String>) {
    match (committed, fresh) {
        (Value::Obj(a), Value::Obj(b)) => {
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
        (Value::Arr(a), Value::Arr(b)) if a.len() == b.len() => {
            for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                // Name list entries by their label where they have one.
                let name = ["workload", "label"]
                    .iter()
                    .find_map(|k| va.get(k).and_then(Value::as_str))
                    .map_or_else(|| i.to_string(), str::to_string);
                diff(&format!("{path}/{name}"), va, vb, out);
            }
        }
        (a, b) if a == b => {}
        (a, b) => out.push(format!(
            "{path}: {} != {}",
            a.to_pretty().trim_end(),
            b.to_pretty().trim_end()
        )),
    }
}

/// The host-clock end-to-end medians of two folded documents side by
/// side, one `workload metric committed fresh` line each. Informational.
pub fn host_medians(committed: &Value, fresh: &Value) -> Vec<String> {
    fn workloads(doc: &Value) -> Option<&[Value]> {
        doc.get("workloads").and_then(Value::as_arr)
    }
    let median = |metric: &Value| metric.get("value").and_then(Value::as_f64);
    let mut out = Vec::new();
    let (Some(old), Some(new)) = (workloads(committed), workloads(fresh)) else {
        return out;
    };
    for (a, b) in old.iter().zip(new) {
        let name = a.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(Value::Obj(metrics)) = a.get("end_to_end") else {
            continue;
        };
        for (metric, va) in metrics.iter().filter(|(k, v)| informational(k, v)) {
            let vb = b.get("end_to_end").and_then(|e| e.get(metric));
            if let (Some(x), Some(y)) = (median(va), vb.and_then(median)) {
                out.push(format!("{name:<14} {metric:<12} {x:>10.3} -> {y:>10.3}"));
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

    fn result(workload: &str, sim_ms: &str, wall_s: &str, digest: &str) -> Value {
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

    fn folded(pr: u64, sim_ms: &str, wall_s: &str, digest: &str) -> Value {
        let declaration = json::parse(DECLARATION).unwrap();
        fold(pr, &declaration, |w| Ok(result(w, sim_ms, wall_s, digest))).unwrap()
    }

    #[test]
    fn fold_keeps_the_declared_metrics_in_the_declared_order() {
        let doc = folded(16, "25.401762", "0.59", "ab");
        assert_eq!(doc.get("pr"), Some(&Value::Num("16".into())));
        assert_eq!(doc.get("seed"), Some(&Value::Num("20260928".into())));
        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let order: Vec<_> = workloads
            .iter()
            .map(|w| w.get("workload").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(order, ["w1", "w2"]);
        let Some(Value::Obj(metrics)) = workloads[0].get("end_to_end") else {
            panic!("end_to_end is an object")
        };
        let kept: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(kept, ["sim_ms", "wall_s"], "per-layer metrics stay out");
        // Number text survives untouched, host spread included.
        assert_eq!(
            metrics[0].1.get("value"),
            Some(&Value::Num("25.401762".into()))
        );
        assert_eq!(metrics[1].1.get("n"), Some(&Value::Num("5".into())));
        // What is written is what is read back.
        assert_eq!(json::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn fold_refuses_files_from_different_runs_and_missing_metrics() {
        let declaration = json::parse(DECLARATION).unwrap();
        let mixed = fold(1, &declaration, |w| {
            let text = result(w, "1", "1", "ab").to_pretty();
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
}
