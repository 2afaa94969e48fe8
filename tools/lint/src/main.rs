//! `cargo run -p emogi-lint` — lint the workspace against the
//! determinism contract.
//!
//! Takes no arguments: the workspace root is located from the binary's
//! own manifest (`tools/lint/../..`), so the tool runs correctly from any
//! working directory inside the repo. Exit codes: 0 clean, 1 findings,
//! 2 usage or io error.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("emogi-lint: takes no arguments, got `{arg}`");
        return ExitCode::from(2);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match emogi_lint::lint_root(&root) {
        Ok(diags) if diags.is_empty() => {
            println!("emogi-lint: clean — the scanned crates uphold the determinism contract");
            ExitCode::SUCCESS
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            println!("emogi-lint: {} finding(s)", diags.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("emogi-lint: io error: {e}");
            ExitCode::from(2)
        }
    }
}
