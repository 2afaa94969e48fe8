//! # emogi-lint — the determinism-contract static gate
//!
//! Every headline property of this repository — batched serving's
//! bit-identity with sequential execution, the sharded engine's
//! bit-identity with the single-device engine — rests on one invariant:
//! *each iteration is a pure function of iteration-start state*. The
//! equivalence suites witness that invariant at runtime, once a violation
//! moves a number they compare; clippy (`clippy.toml`, `-F unsafe_code`)
//! rejects wall clocks and `unsafe`. This tool enforces the two static
//! preconditions neither reaches:
//!
//! * [`unordered-iter`](diag::rules::UNORDERED_ITER) — no iteration over
//!   hash-ordered containers unless the result is sorted;
//! * [`kernel-purity`](diag::rules::KERNEL_PURITY) — kernel hook bodies
//!   read only pre-captured iteration-start contexts.
//!
//! It scans every crate under `crates/` except `crates/bench`, which
//! measures wall-clock time and is no part of a query's result. The
//! analyzer is a hand-rolled lexer (no external parser crate, consistent
//! with the repo's offline-shims philosophy), and it has no settings and
//! no waivers: a finding is fixed, never suppressed.

pub mod diag;
mod rules;
mod scrub;

use diag::Diagnostic;
use rules::FileCtx;
use std::path::{Path, PathBuf};

/// The crate directory that is not scanned.
const UNSCANNED_CRATE: &str = "bench";

/// Lint a single in-memory source; `path` is only reported.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let scrubbed = scrub::scrub(source);
    let ctx = FileCtx::new(path, &scrubbed);
    let mut diags = Vec::new();
    rules::check_unordered(&ctx, &mut diags);
    rules::check_purity(&ctx, &mut diags);
    diags
}

/// Collect `p` if it is a `.rs` file, or every `.rs` file below it.
fn rs_files(p: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if p.is_dir() {
        for e in std::fs::read_dir(p)? {
            rs_files(&e?.path(), out)?;
        }
    } else if p.extension().is_some_and(|e| e == "rs") {
        out.push(p.to_path_buf());
    }
    Ok(())
}

/// Every `.rs` file under `crates/*` of the workspace rooted at `root`,
/// except `crates/bench`.
pub fn scanned_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for c in std::fs::read_dir(root.join("crates"))? {
        let c = c?.path();
        if !c.ends_with(UNSCANNED_CRATE) {
            rs_files(&c, &mut files)?;
        }
    }
    Ok(files)
}

/// Lint every [`scanned_files`] file of the workspace rooted at `root`.
/// Returns every diagnostic, sorted by path and line.
pub fn lint_root(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    for f in &scanned_files(root)? {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        diags.extend(lint_source(&rel, &std::fs::read_to_string(f)?));
    }
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(diags)
}
