//! `repro` — regenerate the EMOGI paper's tables and figures.
//!
//! ```text
//! repro all                     # everything, in paper order
//! repro fig9 fig10              # specific experiments
//! repro all --sources 8         # more BFS/SSSP sources per cell
//! repro all --quick             # 1/4-scale graphs, 1 source
//! repro all --markdown out.md   # also write markdown tables
//! repro list                    # show available experiment ids
//! ```

// The one binary that is *supposed* to measure wall-clock: opt out of
// the workspace-wide ambient-clock ban (clippy.toml / ambient-nondet).
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use emogi_bench::{experiments, Context};
use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut sources = 3usize;
    let mut scale = 1usize;
    let mut markdown: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sources" => {
                sources = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sources needs a number");
            }
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a divisor");
            }
            "--quick" => {
                scale = scale.max(4);
                sources = 1;
            }
            "--markdown" => {
                markdown = Some(it.next().expect("--markdown needs a path"));
            }
            "list" => {
                println!("experiments: {}", experiments::ALL_IDS.join(" "));
                println!("plus: all");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("usage: repro <experiment-id|all> [--sources N] [--quick] [--scale D] [--markdown FILE]");
        eprintln!("experiments: {} all", experiments::ALL_IDS.join(" "));
        std::process::exit(2);
    }

    let ctx = Context::new(sources, scale);
    eprintln!(
        "# repro: sources={sources} scale=1/{scale} (standard scale is ~1/1000 of the paper's graphs)"
    );
    let started = Instant::now();
    let mut tables = Vec::new();
    let expanded = ids.iter().flat_map(|id| match id.as_str() {
        "all" => experiments::ALL_IDS.to_vec(),
        one => vec![one],
    });
    for id in expanded {
        let t0 = Instant::now();
        let out = experiments::run(id, &ctx);
        for t in &out {
            println!("{t}");
        }
        eprintln!("# {id} done in {:.1?}", t0.elapsed());
        tables.extend(out);
    }
    eprintln!("# total {:.1?}", started.elapsed());

    if let Some(path) = markdown {
        let mut f = std::fs::File::create(&path).expect("create markdown file");
        writeln!(
            f,
            "<!-- generated by `repro {}` with sources={sources}, scale=1/{scale} -->\n",
            ids.join(" ")
        )
        .unwrap();
        for t in &tables {
            f.write_all(t.to_markdown().as_bytes()).unwrap();
        }
        eprintln!("# wrote {path}");
    }
}
