//! `compare <setA> <setB>`: the zero-noise gate. A set is a directory of
//! result files; A is the baseline, B the candidate. Per workload and
//! metric: simulated-clock metrics, (S) counters and output digests must
//! be **exactly** equal — the simulator is deterministic, so there is no
//! tolerance band — and host-clock end-to-end medians may not be worse
//! than the baseline's by more than the metric's bound. Other host-clock
//! numbers are printed with their ratio, ungated.

use crate::json::Json;
use crate::metrics::{self, Better, Clock};
use crate::report::{self, format_value};
use std::path::Path;

struct Row {
    workload: String,
    metric: String,
    a: String,
    b: String,
    verdict: String,
    violation: bool,
}

fn metric_rows(workload: &str, a: &Json, b: &Json, rows: &mut Vec<Row>) {
    let empty: &[(String, Json)] = &[];
    let b_metrics = b.get("metrics");
    for (name, am) in a.get("metrics").and_then(Json::as_obj).unwrap_or(empty) {
        let av = am.get("value").and_then(Json::as_f64);
        let bv = b_metrics
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        let show = |v: Option<f64>| v.map_or("missing".to_string(), format_value);
        let mut row = Row {
            workload: workload.to_string(),
            metric: name.clone(),
            a: show(av),
            b: show(bv),
            verdict: String::new(),
            violation: false,
        };
        let (Some(av), Some(bv)) = (av, bv) else {
            row.verdict = "MISSING in one set".into();
            row.violation = true;
            rows.push(row);
            continue;
        };
        let sim = am.get("clock").and_then(Json::as_str) == Some(Clock::Sim.name());
        if sim {
            let equal = av.to_bits() == bv.to_bits();
            row.verdict = if equal {
                "exact"
            } else {
                "DIFFERS (must be exact)"
            }
            .into();
            row.violation = !equal;
        } else {
            let change = if av == 0.0 { 0.0 } else { bv / av - 1.0 };
            match metrics::end_to_end(name) {
                Some(m) => {
                    let worse = match m.better {
                        Better::Lower => change,
                        Better::Higher => -change,
                    };
                    row.violation = worse > m.bound;
                    row.verdict = format!(
                        "{:+.1} % ({} {:.0} %)",
                        change * 100.0,
                        if row.violation {
                            "WORSE than bound"
                        } else {
                            "within"
                        },
                        m.bound * 100.0
                    );
                }
                None => row.verdict = format!("{:+.1} % (ungated)", change * 100.0),
            }
        }
        rows.push(row);
    }
}

/// Digests, failures and self-checks of one workload's two files.
fn outcome_rows(workload: &str, a: &Json, b: &Json, rows: &mut Vec<Row>) {
    let queries = |doc: &Json| -> Vec<(String, String)> {
        doc.get("queries")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|q| {
                let text = |key| q.get(key).and_then(Json::as_str).unwrap_or("").to_string();
                (text("label"), text("digest"))
            })
            .collect()
    };
    let (qa, qb) = (queries(a), queries(b));
    let equal = qa == qb;
    rows.push(Row {
        workload: workload.to_string(),
        metric: "output digests".into(),
        a: format!("{} queries", qa.len()),
        b: format!("{} queries", qb.len()),
        verdict: if equal {
            "exact"
        } else {
            "DIFFER (must be exact)"
        }
        .into(),
        violation: !equal,
    });
    for (set, doc) in [("A", a), ("B", b)] {
        let failed = doc
            .get("ops_failed")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unchecked = doc
            .get("self_check")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter(|c| c.get("passed") != Some(&Json::Bool(true)))
            .count();
        if failed != 0.0 || unchecked > 0 {
            rows.push(Row {
                workload: workload.to_string(),
                metric: format!("set {set} health"),
                a: format!("ops_failed {failed}"),
                b: format!("{unchecked} self-checks failed"),
                verdict: "UNHEALTHY set".into(),
                violation: true,
            });
        }
    }
}

/// Compare two sets; prints one row per workload × metric and returns
/// whether every gate held.
pub fn run(set_a: &Path, set_b: &Path) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut compared = 0;
    for workload in metrics::WORKLOADS.iter().copied().chain(["layers"]) {
        let file = format!("{workload}.json");
        let (pa, pb) = (set_a.join(&file), set_b.join(&file));
        match (pa.exists(), pb.exists()) {
            (false, false) => continue,
            (true, true) => {}
            _ => return Err(format!("{file} is in only one of the two sets")),
        }
        let (a, b) = (report::read(&pa)?, report::read(&pb)?);
        for key in ["seed", "preset"] {
            if a.get(key) != b.get(key) {
                return Err(format!("{file}: the sets were run with different {key}s"));
            }
        }
        compared += 1;
        metric_rows(workload, &a, &b, &mut rows);
        if workload != "layers" {
            outcome_rows(workload, &a, &b, &mut rows);
        }
    }
    if compared == 0 {
        return Err("no result file is in both sets".into());
    }
    println!(
        "{:<14} {:<38} {:>16} {:>16}  verdict",
        "workload", "metric", "A", "B"
    );
    for r in &rows {
        println!(
            "{:<14} {:<38} {:>16} {:>16}  {}",
            r.workload, r.metric, r.a, r.b, r.verdict
        );
    }
    let violations = rows.iter().filter(|r| r.violation).count();
    println!(
        "\n{} rows, {} violation{}",
        rows.len(),
        violations,
        if violations == 1 { "" } else { "s" }
    );
    Ok(violations == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn doc(sim_ms: f64, wall_s: f64, digest: &str) -> Json {
        json::parse(&format!(
            r#"{{"seed": 1, "preset": "smoke", "ops_failed": 0,
                "self_check": [{{"check": "x", "passed": true}}],
                "queries": [{{"label": "gk.bfs.1", "digest": "{digest}"}}],
                "metrics": {{
                  "sim_ms": {{"value": {sim_ms}, "unit": "ms", "clock": "sim"}},
                  "wall_s": {{"value": {wall_s}, "unit": "s", "clock": "host"}},
                  "core.engine.load_s": {{"value": {wall_s}, "unit": "s", "clock": "host"}}
                }}}}"#
        ))
        .unwrap()
    }

    fn violations(a: &Json, b: &Json) -> Vec<String> {
        let mut rows = Vec::new();
        metric_rows("w", a, b, &mut rows);
        outcome_rows("w", a, b, &mut rows);
        rows.into_iter()
            .filter(|r| r.violation)
            .map(|r| r.metric)
            .collect()
    }

    #[test]
    fn identical_sets_pass_and_host_noise_within_the_bound_passes() {
        let a = doc(4.25, 1.0, "00ab");
        assert!(violations(&a, &a).is_empty());
        let bound = metrics::end_to_end("wall_s").unwrap().bound;
        assert!(violations(&a, &doc(4.25, 1.0 + bound * 0.9, "00ab")).is_empty());
        assert!(
            violations(&a, &doc(4.25, 0.5, "00ab")).is_empty(),
            "faster is fine"
        );
    }

    #[test]
    fn simulated_metrics_and_digests_have_no_tolerance() {
        let a = doc(4.25, 1.0, "00ab");
        assert_eq!(
            violations(&a, &doc(4.250_000_000_1, 1.0, "00ab")),
            ["sim_ms"]
        );
        assert_eq!(violations(&a, &doc(4.25, 1.0, "00ac")), ["output digests"]);
    }

    #[test]
    fn host_medians_beyond_the_bound_fail_but_ungated_ones_never_do() {
        let a = doc(4.25, 1.0, "00ab");
        let bound = metrics::end_to_end("wall_s").unwrap().bound;
        // `core.engine.load_s` moves as much as `wall_s` and stays ungated.
        assert_eq!(
            violations(&a, &doc(4.25, 1.0 + bound * 1.5, "00ab")),
            ["wall_s"]
        );
    }

    #[test]
    fn a_metric_missing_from_one_set_is_a_violation() {
        let a = doc(4.25, 1.0, "00ab");
        let b = json::parse(r#"{"metrics": {}, "queries": [{"label": "gk.bfs.1", "digest": "00ab"}], "ops_failed": 0}"#).unwrap();
        assert_eq!(violations(&a, &b).len(), 3);
    }
}
