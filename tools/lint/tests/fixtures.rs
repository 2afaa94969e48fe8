//! Fixture-driven self-tests for emogi-lint.
//!
//! Two layers:
//!
//! * **Fixtures** (`tools/lint/fixtures/*.rs`): a known-bad and a
//!   known-good snippet per rule, linted under a config that routes each
//!   fixture to its rule. The bad fixture must fire the right rule id;
//!   the good fixture must be clean.
//! * **Guards** (real sources): the workspace must lint clean under the
//!   checked-in `emogi-lint.toml`, and removing any single protection
//!   the lint watches — a `#![forbid(unsafe_code)]` attribute, the
//!   pagerank canonical-order waiver, a pre-captured-context read, a
//!   sort after hash iteration — must make the lint fail. This is the
//!   proof that the gate is load-bearing rather than vacuously green.

use emogi_lint::config::{self, Config};
use emogi_lint::diag::rules;
use emogi_lint::{lint_root, lint_source};
use std::path::{Path, PathBuf};

/// Routes each fixture file to the rule it exercises. Parsed through the
/// real TOML parser so the config path is exercised end to end.
const FIXTURE_TOML: &str = r#"
[lint]
crates = []

[rules.unordered-iter]
types = ["HashMap", "HashSet", "FastMap", "FastSet"]

[rules.ambient-nondet]
patterns = ["Instant::now", "SystemTime", "thread_rng", "rand::random"]

[rules.kernel-purity]
modules = [
    "purity_bad.rs",
    "purity_good.rs",
    "prefetch_purity_bad.rs",
    "prefetch_purity_good.rs",
    "tier_purity_bad.rs",
    "tier_purity_good.rs",
]
hooks = [
    "next_task",
    "step",
    "visit_edge",
    "open_vertex",
    "rank_candidates",
    "decide_tiered",
]
disallowed = ["source_ctx", "begin_iteration", "post_iteration", "Machine", "now", "monitor"]

[rules.float-fold]
modules = ["float_fold_bad.rs", "float_fold_good.rs"]

[rules.forbid-unsafe]
crates = ["unsafe_bad.rs", "unsafe_good.rs"]
"#;

fn fixture_cfg() -> Config {
    config::parse(FIXTURE_TOML).expect("fixture config parses")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn workspace_cfg() -> Config {
    let text = std::fs::read_to_string(workspace_root().join("emogi-lint.toml"))
        .expect("read emogi-lint.toml");
    config::parse(&text).expect("checked-in config parses")
}

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn real(rel: &str) -> String {
    let p = workspace_root().join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn fired(diags: &[emogi_lint::diag::Diagnostic], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

fn render(diags: &[emogi_lint::diag::Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------- fixtures

#[test]
fn unordered_iter_bad_fires() {
    let d = lint_source(
        "unordered_iter_bad.rs",
        &fixture("unordered_iter_bad.rs"),
        &fixture_cfg(),
    );
    assert_eq!(
        fired(&d, rules::UNORDERED_ITER),
        2,
        "drain + values should both fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn unordered_iter_good_is_clean() {
    let d = lint_source(
        "unordered_iter_good.rs",
        &fixture("unordered_iter_good.rs"),
        &fixture_cfg(),
    );
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn ambient_bad_fires() {
    let d = lint_source("ambient_bad.rs", &fixture("ambient_bad.rs"), &fixture_cfg());
    assert_eq!(
        fired(&d, rules::AMBIENT_NONDET),
        2,
        "Instant::now + rand::random should both fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn ambient_good_is_clean() {
    let d = lint_source(
        "ambient_good.rs",
        &fixture("ambient_good.rs"),
        &fixture_cfg(),
    );
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn deadline_clock_bad_fires() {
    let d = lint_source(
        "deadline_clock_bad.rs",
        &fixture("deadline_clock_bad.rs"),
        &fixture_cfg(),
    );
    assert_eq!(
        fired(&d, rules::AMBIENT_NONDET),
        2,
        "Instant::now + SystemTime in a deadline check should both fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn deadline_clock_good_is_clean() {
    let d = lint_source(
        "deadline_clock_good.rs",
        &fixture("deadline_clock_good.rs"),
        &fixture_cfg(),
    );
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn purity_bad_fires() {
    let d = lint_source("purity_bad.rs", &fixture("purity_bad.rs"), &fixture_cfg());
    assert_eq!(
        fired(&d, rules::KERNEL_PURITY),
        2,
        "live source_ctx in step + machine clock in visit_edge should fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn purity_good_is_clean() {
    let d = lint_source("purity_good.rs", &fixture("purity_good.rs"), &fixture_cfg());
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn prefetch_purity_bad_fires() {
    let d = lint_source(
        "prefetch_purity_bad.rs",
        &fixture("prefetch_purity_bad.rs"),
        &fixture_cfg(),
    );
    assert_eq!(
        fired(&d, rules::KERNEL_PURITY),
        2,
        "live clock in rank_candidates + monitor write in step should fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn prefetch_purity_good_is_clean() {
    let d = lint_source(
        "prefetch_purity_good.rs",
        &fixture("prefetch_purity_good.rs"),
        &fixture_cfg(),
    );
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn pipeline_unordered_bad_fires() {
    let d = lint_source(
        "pipeline_unordered_bad.rs",
        &fixture("pipeline_unordered_bad.rs"),
        &fixture_cfg(),
    );
    assert_eq!(
        fired(&d, rules::UNORDERED_ITER),
        2,
        "drain + keys over the in-flight map should both fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn pipeline_unordered_good_is_clean() {
    let d = lint_source(
        "pipeline_unordered_good.rs",
        &fixture("pipeline_unordered_good.rs"),
        &fixture_cfg(),
    );
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn tier_ambient_bad_fires() {
    let d = lint_source(
        "tier_ambient_bad.rs",
        &fixture("tier_ambient_bad.rs"),
        &fixture_cfg(),
    );
    assert_eq!(
        fired(&d, rules::AMBIENT_NONDET),
        2,
        "Instant::now + SystemTime in a tier policy should both fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn tier_ambient_good_is_clean() {
    let d = lint_source(
        "tier_ambient_good.rs",
        &fixture("tier_ambient_good.rs"),
        &fixture_cfg(),
    );
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn tier_purity_bad_fires() {
    let d = lint_source(
        "tier_purity_bad.rs",
        &fixture("tier_purity_bad.rs"),
        &fixture_cfg(),
    );
    assert_eq!(
        fired(&d, rules::KERNEL_PURITY),
        2,
        "live clock + monitor read in decide_tiered should both fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn tier_purity_good_is_clean() {
    let d = lint_source(
        "tier_purity_good.rs",
        &fixture("tier_purity_good.rs"),
        &fixture_cfg(),
    );
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn float_fold_bad_fires() {
    let d = lint_source(
        "float_fold_bad.rs",
        &fixture("float_fold_bad.rs"),
        &fixture_cfg(),
    );
    assert_eq!(
        fired(&d, rules::FLOAT_FOLD),
        2,
        "`+=` on f64 + `.sum::<f64>()` should both fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn float_fold_good_is_clean() {
    let d = lint_source(
        "float_fold_good.rs",
        &fixture("float_fold_good.rs"),
        &fixture_cfg(),
    );
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn unsafe_bad_fires() {
    let d = lint_source("unsafe_bad.rs", &fixture("unsafe_bad.rs"), &fixture_cfg());
    assert_eq!(
        fired(&d, rules::FORBID_UNSAFE),
        2,
        "missing attribute + unsafe block should both fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn unsafe_good_is_clean() {
    let d = lint_source("unsafe_good.rs", &fixture("unsafe_good.rs"), &fixture_cfg());
    assert!(d.is_empty(), "{}", render(&d));
}

// ------------------------------------------------------------------ guards

/// The whole workspace lints clean under the checked-in configuration —
/// the exact invocation CI runs.
#[test]
fn workspace_is_clean_under_checked_in_config() {
    let diags = lint_root(&workspace_root(), &workspace_cfg()).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "workspace lint is not clean:\n{}",
        render(&diags)
    );
}

/// Stripping `#![forbid(unsafe_code)]` from a real crate root makes the
/// lint fail — the attribute is a guard the lint keeps from rotting.
#[test]
fn stripping_forbid_attribute_from_core_fires() {
    let cfg = workspace_cfg();
    let path = "crates/core/src/lib.rs";
    let src = real(path);
    assert!(
        lint_source(path, &src, &cfg).is_empty(),
        "intact root clean"
    );
    assert!(src.contains("#![forbid(unsafe_code)]"), "attribute present");
    let stripped = src.replace("#![forbid(unsafe_code)]", "");
    let d = lint_source(path, &stripped, &cfg);
    assert_eq!(fired(&d, rules::FORBID_UNSAFE), 1, "{}", render(&d));
}

/// PageRank's canonical-order fold is sanctioned *only* by its scoped
/// waiver: lint the real source without the waiver and float-fold fires.
#[test]
fn pagerank_canonical_fold_needs_its_waiver() {
    let path = "crates/core/src/pagerank.rs";
    let src = real(path);
    let mut cfg = workspace_cfg();
    assert!(
        lint_source(path, &src, &cfg).is_empty(),
        "pagerank clean with its waiver"
    );
    let before = cfg.waivers.len();
    cfg.waivers.retain(|w| w.path != path);
    assert!(cfg.waivers.len() < before, "the waiver exists to remove");
    let d = lint_source(path, &src, &cfg);
    assert!(
        fired(&d, rules::FLOAT_FOLD) >= 1,
        "waiver must be load-bearing:\n{}",
        render(&d)
    );
}

/// Re-introducing a live program-state read inside a kernel hook — the
/// regression pre-captured contexts exist to prevent — fires
/// kernel-purity on the real kernel module.
#[test]
fn live_ctx_capture_in_kernel_hook_fires() {
    let cfg = workspace_cfg();
    let path = "crates/core/src/kernel.rs";
    let src = real(path);
    assert!(
        lint_source(path, &src, &cfg).is_empty(),
        "intact kernel clean"
    );
    let mutated = format!(
        "{src}\nimpl Regress {{ fn step(&mut self) {{ let c = self.program.source_ctx(0); }} }}\n"
    );
    let d = lint_source(path, &mutated, &cfg);
    assert!(
        fired(&d, rules::KERNEL_PURITY) >= 1,
        "live capture in a hook must fire:\n{}",
        render(&d)
    );
}

/// The pipelined predictor is under the same purity gate as the kernel
/// hooks: re-introducing a live machine/clock read into a
/// `rank_candidates` body fires kernel-purity on the real prefetch
/// module.
#[test]
fn live_machine_read_in_rank_candidates_fires() {
    let cfg = workspace_cfg();
    let path = "crates/runtime/src/prefetch.rs";
    let src = real(path);
    assert!(
        lint_source(path, &src, &cfg).is_empty(),
        "intact prefetch module clean"
    );
    let mutated = format!(
        "{src}\nimpl Regress {{ fn rank_candidates(&self, m: &Machine) -> u64 {{ m.now }} }}\n"
    );
    let d = lint_source(path, &mutated, &cfg);
    assert!(
        fired(&d, rules::KERNEL_PURITY) >= 1,
        "live machine read in the prediction hook must fire:\n{}",
        render(&d)
    );
}

/// The copy-lane module is purity-gated too: a hook body advancing the
/// machine clock from inside the lane fires on the real pipeline module.
#[test]
fn machine_clock_write_in_copy_lane_hook_fires() {
    let cfg = workspace_cfg();
    let path = "crates/sim/src/pipeline.rs";
    let src = real(path);
    assert!(
        lint_source(path, &src, &cfg).is_empty(),
        "intact pipeline module clean"
    );
    let mutated = format!(
        "{src}\nimpl Regress {{ fn step(&mut self, m: &mut Machine) {{ m.now += 1; }} }}\n"
    );
    let d = lint_source(path, &mutated, &cfg);
    assert!(
        fired(&d, rules::KERNEL_PURITY) >= 1,
        "clock write in a copy-lane hook must fire:\n{}",
        render(&d)
    );
}

/// The N-tier placement policy is under the same purity gate: re-
/// introducing a live machine/clock read into a `decide_tiered` body
/// fires kernel-purity on the real UVM transfer-policy module.
#[test]
fn live_machine_read_in_decide_tiered_fires() {
    let cfg = workspace_cfg();
    let path = "crates/uvm/src/transfer.rs";
    let src = real(path);
    assert!(
        lint_source(path, &src, &cfg).is_empty(),
        "intact transfer-policy module clean"
    );
    let mutated = format!(
        "{src}\nimpl Regress {{ fn decide_tiered(&self, m: &Machine) -> u64 {{ m.now }} }}\n"
    );
    let d = lint_source(path, &mutated, &cfg);
    assert!(
        fired(&d, rules::KERNEL_PURITY) >= 1,
        "live machine read in the tier decision must fire:\n{}",
        render(&d)
    );
}

/// The SLA scheduler is under the ambient-nondet gate: re-introducing a
/// wall-clock read into the real scheduler module — the shortcut a
/// deadline-expiry check would be tempted to take — fires on
/// `crates/serve`, proving serving outcomes stay a pure function of the
/// submitted workload.
#[test]
fn wall_clock_read_in_the_sla_scheduler_fires() {
    let cfg = workspace_cfg();
    let path = "crates/serve/src/scheduler.rs";
    let src = real(path);
    assert!(
        lint_source(path, &src, &cfg).is_empty(),
        "intact scheduler clean"
    );
    let mutated = format!(
        "{src}\npub fn expired_now(deadline_ns: u128) -> bool {{ \
         std::time::Instant::now().elapsed().as_nanos() > deadline_ns }}\n"
    );
    let d = lint_source(path, &mutated, &cfg);
    assert!(
        fired(&d, rules::AMBIENT_NONDET) >= 1,
        "a wall-clock deadline check must fire:\n{}",
        render(&d)
    );
}

/// Removing the explicit sort that launders a hash iteration makes the
/// lint fail — "followed by an explicit sort" is checked, not assumed.
#[test]
fn removing_the_sort_guard_fires() {
    let good = fixture("unordered_iter_good.rs");
    let cfg = fixture_cfg();
    assert!(
        lint_source("unordered_iter_good.rs", &good, &cfg).is_empty(),
        "sorted version clean"
    );
    assert!(good.contains("addrs.sort_unstable();"));
    let unsorted = good.replace("addrs.sort_unstable();", "");
    let d = lint_source("unordered_iter_good.rs", &unsorted, &cfg);
    assert!(
        fired(&d, rules::UNORDERED_ITER) >= 1,
        "unsorted iteration must fire:\n{}",
        render(&d)
    );
}
