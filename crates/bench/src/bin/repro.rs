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

use emogi_bench::{experiments, Context};
use std::io::Write;
// The one binary that is *supposed* to measure wall-clock: the
// workspace-wide ambient-clock ban (clippy.toml) is lifted for this
// import and `main` only, so every other ban still holds here.
#[allow(clippy::disallowed_types)]
use std::time::Instant;

const USAGE: &str =
    "usage: repro <experiment-id|all|list> [--sources N] [--quick] [--scale D] [--markdown FILE]";

/// One invocation, checked: every id is known and every number is at
/// least 1 before the first experiment starts.
#[derive(Debug, PartialEq)]
struct Opts {
    /// Experiment ids as given (`all` not yet expanded).
    ids: Vec<String>,
    /// BFS/SSSP sources per cell.
    sources: usize,
    /// Dataset size divisor.
    scale: usize,
    /// Also write the tables as markdown to this path.
    markdown: Option<String>,
    /// `list`: print the experiment ids and stop.
    list: bool,
}

/// Parse the command line (without the program name). Flags apply in
/// order, so `--quick --scale 2` and `--scale 2 --quick` differ as they
/// always have.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        ids: Vec::new(),
        sources: 3,
        scale: 1,
        markdown: None,
        list: false,
    };
    let mut it = args.into_iter();
    // The value of a numeric flag: present, a number, and at least 1
    // (`--scale 0` would divide by zero, `--sources 0` average nothing).
    let count = |flag: &str, value: Option<String>| {
        let n = value.as_deref().and_then(|v| v.parse::<usize>().ok());
        let got = value.as_deref().unwrap_or("nothing");
        n.filter(|&n| n >= 1)
            .ok_or_else(|| format!("{flag} needs a number >= 1, got {got}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sources" => opts.sources = count("--sources", it.next())?,
            "--scale" => opts.scale = count("--scale", it.next())?,
            "--quick" => {
                opts.scale = opts.scale.max(4);
                opts.sources = 1;
            }
            "--markdown" => {
                opts.markdown = Some(it.next().ok_or("--markdown needs a path")?);
            }
            "list" => opts.list = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id if id == "all" || experiments::ALL_IDS.contains(&id) => opts.ids.push(a),
            id => return Err(format!("unknown experiment id {id:?}")),
        }
    }
    if opts.ids.is_empty() && !opts.list {
        return Err("no experiment id given".into());
    }
    Ok(opts)
}

#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
fn main() {
    let opts = parse(std::env::args().skip(1)).unwrap_or_else(|why| {
        eprintln!("repro: {why}");
        eprintln!("{USAGE}");
        eprintln!("experiments: {} all", experiments::ALL_IDS.join(" "));
        std::process::exit(2);
    });
    if opts.list {
        println!("experiments: {}", experiments::ALL_IDS.join(" "));
        println!("plus: all");
        return;
    }
    let Opts {
        ids,
        sources,
        scale,
        markdown,
        ..
    } = opts;

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

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> Result<Opts, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn an_accepted_line_applies_its_flags_in_order() {
        let opts = line("all --quick --markdown f").unwrap();
        let want = Opts {
            ids: vec!["all".into()],
            sources: 1,
            scale: 4,
            markdown: Some("f".into()),
            list: false,
        };
        assert_eq!(opts, want);
        assert_eq!(line("fig9 --scale 32 --quick").unwrap().scale, 32);
        assert!(line("list").unwrap().list);
    }

    #[test]
    fn every_rejection_is_an_error_before_anything_runs() {
        for (bad, why) in [
            ("", "no experiment id"),
            ("--quick", "no experiment id"),
            ("fig9 --scale 0", "--scale needs a number >= 1"),
            ("fig9 --sources 0", "--sources needs a number >= 1"),
            ("fig9 --scale x", "--scale needs a number >= 1"),
            ("fig9 --sources -1", "--sources needs a number >= 1"),
            ("fig9 --scale", "--scale needs a number >= 1, got nothing"),
            (
                "fig9 --sources",
                "--sources needs a number >= 1, got nothing",
            ),
            ("fig9 --markdown", "--markdown needs a path"),
            ("fig9 --bogus", "unknown flag --bogus"),
            ("all nosuch", "unknown experiment id \"nosuch\""),
        ] {
            let err = line(bad).expect_err(bad);
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }
}
