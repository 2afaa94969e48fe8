//! Fixture-driven self-tests for emogi-lint.
//!
//! Two layers:
//!
//! * **Fixtures** (`tools/lint/fixtures/*.rs`): a known-bad and a
//!   known-good snippet per rule. The bad fixture must fire the right rule
//!   id; the good fixture must be clean.
//! * **Guards** (real sources): the workspace must lint clean, and each
//!   rule's recorded seed (see its doc comment in `src/rules.rs`) planted
//!   into the real file it names must make the lint fail. This is the
//!   proof that the gate is load-bearing rather than vacuously green.

use emogi_lint::diag::{rules, Diagnostic};
use emogi_lint::{lint_root, lint_source, scanned_files};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn fixture(name: &str) -> Vec<Diagnostic> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    lint_source(name, &read(&dir.join(name)))
}

fn fired(diags: &[Diagnostic], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------- fixtures

#[test]
fn unordered_iter_bad_fires() {
    let d = fixture("unordered_iter_bad.rs");
    assert_eq!(
        fired(&d, rules::UNORDERED_ITER),
        3,
        "drain, values and the heap-laundered values should all fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 3, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn unordered_iter_good_is_clean() {
    let d = fixture("unordered_iter_good.rs");
    assert!(d.is_empty(), "{}", render(&d));
}

#[test]
fn purity_bad_fires() {
    let d = fixture("purity_bad.rs");
    assert_eq!(
        fired(&d, rules::KERNEL_PURITY),
        2,
        "live source_ctx in step + machine clock in edge should fire:\n{}",
        render(&d)
    );
    assert_eq!(d.len(), 2, "no other rule should fire:\n{}", render(&d));
}

#[test]
fn purity_good_is_clean() {
    let d = fixture("purity_good.rs");
    assert!(d.is_empty(), "{}", render(&d));
}

// ------------------------------------------------------------------ guards

/// The whole workspace lints clean — the exact invocation CI runs.
#[test]
fn workspace_is_clean() {
    let diags = lint_root(&workspace_root()).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "workspace lint is not clean:\n{}",
        render(&diags)
    );
}

/// The real `path` is scanned and lints clean; with `seed` applied,
/// `rule` fires.
fn assert_seed_fires(path: &str, seed: impl FnOnce(&str) -> String, rule: &str) {
    let root = workspace_root();
    let scanned = scanned_files(&root).expect("walk workspace");
    assert!(scanned.contains(&root.join(path)), "{path} is scanned");
    let src = read(&root.join(path));
    let intact = lint_source(path, &src);
    assert!(intact.is_empty(), "intact {path}:\n{}", render(&intact));
    let seeded = seed(&src);
    assert_ne!(seeded, src, "the seed applies to {path}");
    let d = lint_source(path, &seeded);
    assert!(fired(&d, rule) >= 1, "seed in {path}:\n{}", render(&d));
}

/// `src` with `line` inserted before the first occurrence of `anchor`.
fn insert_before(src: &str, anchor: &str, line: &str) -> String {
    src.replacen(anchor, &format!("{line}\n{anchor}"), 1)
}

/// `unordered-iter`: hash-ordered page numbers collected before the
/// UVM wake loop.
#[test]
fn hash_ordered_collect_in_the_uvm_wake_path_fires() {
    assert_seed_fires(
        "crates/runtime/src/exec.rs",
        |src| {
            insert_before(
                src,
                "        for page in pages {",
                "        let woken: Vec<u64> = self.page_waiters.keys().copied()\
                 .filter(|p| pages.contains(p)).collect();\n        \
                 debug_assert!(woken.len() <= pages.len(), \"woken {woken:?}\");",
            )
        },
        rules::UNORDERED_ITER,
    );
}

/// `kernel-purity`, `VertexProgram::edge`: a live context read in SSSP's
/// edge hook, unused — no suite can see it.
#[test]
fn live_ctx_read_in_a_program_edge_hook_fires() {
    assert_seed_fires(
        "crates/core/src/sssp.rs",
        |src| {
            insert_before(
                src,
                "        let nd = dist_v.saturating_add(",
                "        let _live = self.source_ctx(dst);",
            )
        },
        rules::KERNEL_PURITY,
    );
}

/// A `Kernel` impl whose `step` reads the machine clock.
const CLOCK_READING_KERNEL: &str = "
impl Kernel for Regress {
    type Task = ();
    fn next_task(&mut self) -> Option<()> {
        None
    }
    fn step(&mut self, _: &mut (), m: &Machine) -> StepOutcome {
        let _t = m.now;
        StepOutcome::Done
    }
}
";

/// `kernel-purity`, `Kernel` impls: the toy kernels' module.
#[test]
fn clock_read_in_a_toy_kernel_step_fires() {
    assert_seed_fires(
        "crates/core/src/toy.rs",
        |src| format!("{src}{CLOCK_READING_KERNEL}"),
        rules::KERNEL_PURITY,
    );
}

/// `kernel-purity`, `Kernel` impls: the compressed-BFS kernel's module.
#[test]
fn clock_read_in_a_compressed_kernel_step_fires() {
    assert_seed_fires(
        "crates/core/src/compressed.rs",
        |src| format!("{src}{CLOCK_READING_KERNEL}"),
        rules::KERNEL_PURITY,
    );
}
