//! `benchfold fold <pr> [out-dir]` and `benchfold check [out-dir]`, run
//! from the repository root; see the library docs.

use benchfold::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchfold fold <pr> [out-dir]   write BENCH_<pr>.json from out-dir's result files
       benchfold check [out-dir]      compare out-dir with the newest BENCH_*.json
       (run from the repository root; out-dir defaults to benchmark/out)";

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fold(pr: u64, out_dir: &Path) -> Result<Value, String> {
    let declaration = read(Path::new("BENCHMARK.json"))?;
    benchfold::fold(pr, &declaration, |workload| {
        read(&out_dir.join(format!("{workload}.json")))
    })
}

/// The committed `BENCH_<pr>.json` with the highest `<pr>`.
fn newest_committed() -> Result<(u64, PathBuf), String> {
    std::fs::read_dir(".")
        .map_err(|e| format!(".: {e}"))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let pr = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some((pr.parse().ok()?, path))
        })
        .max()
        .ok_or_else(|| "no BENCH_<pr>.json in this directory".to_string())
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let out_dir = |arg: Option<&String>| PathBuf::from(arg.map_or("benchmark/out", String::as_str));
    match args {
        [cmd, pr, rest @ ..] if cmd == "fold" && rest.len() <= 1 => {
            let pr: u64 = pr.parse().map_err(|_| format!("not a PR number: {pr}"))?;
            let path = format!("BENCH_{pr}.json");
            let doc = fold(pr, &out_dir(rest.first()))?;
            std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
            Ok(ExitCode::SUCCESS)
        }
        [cmd, rest @ ..] if cmd == "check" && rest.len() <= 1 => {
            let (pr, path) = newest_committed()?;
            let committed = read(&path)?;
            let fresh = fold(pr, &out_dir(rest.first()))?;
            println!(
                "host medians, {} -> fresh run (informational):",
                path.display()
            );
            for line in benchfold::host_medians(&committed, &fresh) {
                println!("  {line}");
            }
            let moved = benchfold::simulated_disagreements(&committed, &fresh);
            if moved.is_empty() {
                println!("every simulated field equals {}", path.display());
                return Ok(ExitCode::SUCCESS);
            }
            eprintln!(
                "{} simulated fields differ from {}:",
                moved.len(),
                path.display()
            );
            for line in &moved {
                eprintln!("  {line}");
            }
            Ok(ExitCode::FAILURE)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
