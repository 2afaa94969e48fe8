//! The determinism-contract rules.
//!
//! Each rule is a best-effort token-level analysis over scrubbed source
//! (see [`crate::scrub`]): no type inference, but identifier tracking
//! through declarations (`name: FastMap<..>`, `let x: f64`) catches the
//! shapes the deterministic crates actually use. False negatives are
//! possible by construction; the runtime differential harness remains
//! the backstop. False positives are waivable — with a written reason.

use crate::config::Config;
use crate::diag::{rules, Diagnostic};
use crate::scrub::{fn_bodies, test_regions, tokenize, FnBody, Scrubbed, Tok};
use std::collections::BTreeSet;

/// Everything the rules need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Scrubbed source (comments/literals blanked).
    pub scrubbed: &'a Scrubbed,
    /// Token stream of the scrubbed source.
    pub toks: Vec<Tok<'a>>,
    /// Scrubbed source split into lines (index 0 = line 1).
    pub lines: Vec<&'a str>,
    /// `#[cfg(test)] mod` line ranges (1-based, inclusive).
    pub tests: Vec<(u32, u32)>,
    /// Every function body, for hook scanning and waiver scoping.
    pub fns: Vec<FnBody>,
}

impl<'a> FileCtx<'a> {
    /// Build the per-file analysis context.
    pub fn new(path: &'a str, scrubbed: &'a Scrubbed) -> Self {
        let toks = tokenize(&scrubbed.text);
        let tests = test_regions(&toks);
        let fns = fn_bodies(&toks);
        FileCtx {
            path,
            scrubbed,
            toks,
            lines: scrubbed.text.lines().collect(),
            tests,
            fns,
        }
    }

    fn in_tests(&self, line: u32) -> bool {
        self.tests.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Name of the innermost function containing `line`, if any.
    pub fn enclosing_fn(&self, line: u32) -> Option<&str> {
        self.fns
            .iter()
            .filter(|f| (f.start_line..=f.end_line).contains(&line))
            .min_by_key(|f| f.end_line - f.start_line)
            .map(|f| f.name.as_str())
    }
}

fn diag(ctx: &FileCtx<'_>, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        path: ctx.path.to_string(),
        line,
        rule,
        message,
    }
}

/// Identifiers declared (field, param, let, or struct-literal init) with
/// a type/constructor naming one of `type_names`.
fn typed_idents(toks: &[Tok<'_>], type_names: &[String]) -> BTreeSet<String> {
    let is_type = |s: &str| type_names.iter().any(|t| t == s);
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        // `name : ... TypeName ...` up to a stop token at angle depth 0.
        if toks[i].is_ident() && i + 1 < toks.len() && toks[i + 1].s == ":" {
            let mut angle = 0i32;
            for t in toks.iter().skip(i + 2).take(40) {
                match t.s {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    "," | ";" | "=" | ")" | "{" | "}" if angle <= 0 => break,
                    s if is_type(s) => {
                        out.insert(toks[i].s.to_string());
                        break;
                    }
                    _ => {}
                }
            }
        }
        // `let [mut] name = TypeName::ctor(..)`.
        if toks[i].s == "let" {
            let mut j = i + 1;
            if j < toks.len() && toks[j].s == "mut" {
                j += 1;
            }
            if j + 3 < toks.len()
                && toks[j].is_ident()
                && toks[j + 1].s == "="
                && is_type(toks[j + 2].s)
                && toks[j + 3].s == "::"
            {
                out.insert(toks[j].s.to_string());
            }
        }
    }
    out
}

/// Methods whose call iterates the receiver in storage order.
const ITERATING_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Things that make a flagged iteration deterministic when they appear
/// within the look-ahead window: an explicit sort, or collecting into an
/// ordered container.
const ORDER_RESTORERS: &[&str] = &[".sort", "BTreeMap", "BTreeSet", "BinaryHeap"];

/// How many lines after the iteration site an order-restoring operation
/// still counts as "followed by an explicit sort".
const SORT_WINDOW_LINES: usize = 4;

/// Rule `unordered-iter`: iterating a `HashMap`/`HashSet`/`FastMap`
/// visits entries in hash order — randomized across `std` versions and,
/// for non-`FastMap` maps, across processes. Point lookups are fine;
/// iteration must feed a sort (checked within a few lines) or carry a
/// waiver explaining why the order cannot escape.
pub fn check_unordered(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if cfg.hash_types.is_empty() {
        return;
    }
    let hashes = typed_idents(&ctx.toks, &cfg.hash_types);
    if hashes.is_empty() {
        return;
    }
    let toks = &ctx.toks;
    let mut flag = |line: u32, ident: &str, how: &str| {
        if sorted_soon(ctx, line) {
            return;
        }
        out.push(diag(
            ctx,
            line,
            rules::UNORDERED_ITER,
            format!(
                "{how} over hash container `{ident}` has nondeterministic order; \
                 sort the result or waive with `// emogi-lint: allow(unordered-iter) — <reason>`"
            ),
        ));
    };
    for i in 0..toks.len() {
        // `recv.method(` where recv is a tracked hash container.
        if toks[i].s == "."
            && i > 0
            && i + 2 < toks.len()
            && ITERATING_METHODS.contains(&toks[i + 1].s)
            && toks[i + 2].s == "("
            && hashes.contains(toks[i - 1].s)
        {
            flag(
                toks[i].line,
                toks[i - 1].s,
                &format!("`.{}()`", toks[i + 1].s),
            );
        }
        // `for pat in [&[mut]] recv {` where recv is tracked.
        if toks[i].s == "for" {
            let Some(in_idx) = find_loop_in(toks, i) else {
                continue;
            };
            // Expression tokens between `in` and `{`, minus `&`/`mut`.
            let mut expr: Vec<&Tok<'_>> = Vec::new();
            for t in &toks[in_idx + 1..] {
                if t.s == "{" {
                    break;
                }
                if t.s != "&" && t.s != "mut" {
                    expr.push(t);
                }
            }
            let root = match expr.as_slice() {
                [x] if x.is_ident() => Some(x),
                [s, d, x] if s.s == "self" && d.s == "." && x.is_ident() => Some(x),
                _ => None,
            };
            if let Some(r) = root {
                if hashes.contains(r.s) {
                    flag(r.line, r.s, "`for` loop");
                }
            }
        }
    }
}

/// Find the `in` of a `for` loop header starting at `for_idx`.
fn find_loop_in(toks: &[Tok<'_>], for_idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(for_idx + 1).take(40) {
        match t.s {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 => return Some(j),
            "{" | ";" => return None,
            _ => {}
        }
    }
    None
}

/// Does an order-restoring operation appear within the window after
/// `line`? (Scrubbed text, so comments cannot fake a sort.)
fn sorted_soon(ctx: &FileCtx<'_>, line: u32) -> bool {
    let start = line as usize - 1;
    ctx.lines
        .iter()
        .skip(start)
        .take(1 + SORT_WINDOW_LINES)
        .any(|l| ORDER_RESTORERS.iter().any(|r| l.contains(r)))
}

/// Rule `ambient-nondet`: wall clocks and OS randomness make a run a
/// function of *when/where* it executed, not of its inputs. Only the
/// bench crate (outside the scanned set) may time things.
pub fn check_ambient(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    for pat in &cfg.ambient_patterns {
        let segs: Vec<&str> = pat.split("::").collect();
        let toks = &ctx.toks;
        let mut i = 0;
        while i < toks.len() {
            if toks[i].s == segs[0] {
                let mut ok = true;
                let mut j = i;
                for seg in &segs[1..] {
                    if j + 2 < toks.len() && toks[j + 1].s == "::" && toks[j + 2].s == *seg {
                        j += 2;
                    } else {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    out.push(diag(
                        ctx,
                        toks[i].line,
                        rules::AMBIENT_NONDET,
                        format!(
                            "`{pat}` is ambient nondeterminism; deterministic crates must take \
                             time/randomness as explicit inputs (only `crates/bench` may measure \
                             wall-clock)"
                        ),
                    ));
                    i = j + 1;
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// Rule `kernel-purity`: within the kernel/batch/sharded modules, the
/// per-edge/per-vertex hook bodies (`next_task`, `step`, `visit_edge`,
/// `open_vertex`) must be pure functions of pre-captured iteration-start
/// state. Touching live program state (`source_ctx`, the per-iteration
/// hooks) or any `Machine` field from inside a hook would make launch
/// semantics depend on warp/shard interleaving.
pub fn check_purity(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.purity_modules.iter().any(|m| m == ctx.path) {
        return;
    }
    for f in &ctx.fns {
        if !cfg.purity_hooks.iter().any(|h| h == &f.name) || ctx.in_tests(f.start_line) {
            continue;
        }
        for t in &ctx.toks[f.open..=f.close] {
            if t.is_ident() && cfg.purity_disallowed.iter().any(|d| d == t.s) {
                out.push(diag(
                    ctx,
                    t.line,
                    rules::KERNEL_PURITY,
                    format!(
                        "kernel hook `{}` touches `{}`; hook bodies may only read contexts \
                         captured at iteration start (see kernel::Work::capture)",
                        f.name, t.s
                    ),
                ));
            }
        }
    }
}

/// Rule `float-fold`: floating-point addition is not associative, so an
/// accumulation (`+=`, `.sum()`) in a kernel or exchange path makes the
/// result depend on visit order — warp interleaving, shard count, batch
/// composition. The sanctioned pattern is a fold in canonical edge
/// order, declared with a `canonical-order` waiver (PageRank's
/// `post_iteration` is the exemplar). Test modules are exempt.
pub fn check_float(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if !cfg.float_modules.iter().any(|m| m == ctx.path) {
        return;
    }
    let float_types = ["f32".to_string(), "f64".to_string()];
    let floats = typed_idents(&ctx.toks, &float_types);
    let toks = &ctx.toks;
    for i in 0..toks.len() {
        if ctx.in_tests(toks[i].line) {
            continue;
        }
        // `<stmt containing a float ident> += ...`
        if toks[i].s == "+=" {
            let start = stmt_start(toks, i);
            if toks[start..i]
                .iter()
                .any(|t| t.is_ident() && floats.contains(t.s))
            {
                out.push(diag(
                    ctx,
                    toks[i].line,
                    rules::FLOAT_FOLD,
                    "floating-point accumulation in a kernel/exchange path; fold in canonical \
                     order and declare it with a `canonical-order` waiver"
                        .to_string(),
                ));
            }
        }
        // `.sum::<f64>()` / `let x: f64 = ....sum()`.
        if toks[i].s == "." && i + 1 < toks.len() && toks[i + 1].s == "sum" {
            let turbofish_float = toks.get(i + 2).map(|t| t.s) == Some("::")
                && toks
                    .get(i + 4)
                    .is_some_and(|t| t.s == "f64" || t.s == "f32");
            let start = stmt_start(toks, i);
            let let_float = toks[start..i].iter().any(|t| t.s == "let")
                && toks[start..i].iter().any(|t| t.s == "f64" || t.s == "f32");
            if turbofish_float || let_float {
                out.push(diag(
                    ctx,
                    toks[i].line,
                    rules::FLOAT_FOLD,
                    "floating-point `.sum()` in a kernel/exchange path; fold in canonical order \
                     and declare it with a `canonical-order` waiver"
                        .to_string(),
                ));
            }
        }
    }
}

/// Token index where the statement containing `idx` begins.
fn stmt_start(toks: &[Tok<'_>], idx: usize) -> usize {
    let mut j = idx;
    while j > 0 {
        match toks[j - 1].s {
            ";" | "{" | "}" => return j,
            _ => j -= 1,
        }
    }
    0
}

/// Rule `forbid-unsafe`: flags any `unsafe` token in a scanned file, and
/// (for the configured crate roots) a missing `#![forbid(unsafe_code)]`
/// attribute. The workspace is unsafe-free; the attribute locks that in
/// at the compiler level and this rule keeps the attribute itself from
/// rotting away.
pub fn check_unsafe(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    for t in &ctx.toks {
        if t.s == "unsafe" {
            out.push(diag(
                ctx,
                t.line,
                rules::FORBID_UNSAFE,
                "`unsafe` is forbidden across the workspace (determinism reviews assume \
                 memory-safe code)"
                    .to_string(),
            ));
        }
    }
    if cfg.unsafe_crates.iter().any(|c| c == ctx.path) {
        let toks = &ctx.toks;
        let want = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
        let found = (0..toks.len().saturating_sub(want.len()))
            .any(|i| want.iter().enumerate().all(|(k, w)| toks[i + k].s == *w));
        if !found {
            out.push(diag(
                ctx,
                1,
                rules::FORBID_UNSAFE,
                "library crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
    }
}

/// Run every rule over one file.
pub fn check_all(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    check_unordered(ctx, cfg, out);
    check_ambient(ctx, cfg, out);
    check_purity(ctx, cfg, out);
    check_float(ctx, cfg, out);
    check_unsafe(ctx, cfg, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    fn cfg() -> Config {
        Config {
            hash_types: vec!["HashMap".into(), "FastMap".into(), "HashSet".into()],
            ambient_patterns: vec!["Instant::now".into(), "thread_rng".into()],
            purity_modules: vec!["k.rs".into()],
            purity_hooks: vec!["step".into()],
            purity_disallowed: vec!["source_ctx".into(), "Machine".into()],
            float_modules: vec!["k.rs".into()],
            unsafe_crates: vec!["k.rs".into()],
            ..Config::default()
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let s = scrub(src);
        let ctx = FileCtx::new("k.rs", &s);
        let mut out = Vec::new();
        check_all(&ctx, &cfg(), &mut out);
        // Every fixture here carries the attribute implicitly.
        out.retain(|d| !(d.rule == rules::FORBID_UNSAFE && d.line == 1));
        out
    }

    #[test]
    fn tracked_map_iteration_fires() {
        let d = run("struct S { m: FastMap<u64, u32> }\nfn f(s: &S) { for k in &s.m.keys() {} }");
        assert!(d.iter().any(|d| d.rule == rules::UNORDERED_ITER), "{d:?}");
    }

    #[test]
    fn point_lookup_is_fine() {
        let d = run("fn f(m: &HashMap<u64, u32>) -> Option<&u32> { m.get(&3) }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn iteration_feeding_a_sort_is_fine() {
        let d = run(
            "fn f(m: &HashMap<u64, u32>) -> Vec<u64> {\n  let mut v: Vec<u64> = m.keys().copied().collect();\n  v.sort_unstable();\n  v\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn for_loop_over_map_fires() {
        let d = run("fn f(m: HashMap<u64, u32>) { for (k, v) in m { } }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, rules::UNORDERED_ITER);
    }

    #[test]
    fn ambient_patterns_fire() {
        let d = run("fn f() { let t = Instant::now(); let r = thread_rng(); }");
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == rules::AMBIENT_NONDET));
    }

    #[test]
    fn hook_touching_live_state_fires() {
        let d = run("impl K { fn step(&mut self) { let c = self.program.source_ctx(v); } }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, rules::KERNEL_PURITY);
    }

    #[test]
    fn hook_reading_captured_ctx_is_fine() {
        let d = run("impl K { fn step(&mut self) { let c = self.ctxs[self.pos]; } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn non_hook_may_call_source_ctx() {
        let d = run("impl K { fn new(&mut self) { let c = self.program.source_ctx(v); } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn float_accumulation_fires() {
        let d =
            run("struct S { acc: f64 }\nimpl S { fn go(&mut self, x: f64) { self.acc += x; } }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, rules::FLOAT_FOLD);
    }

    #[test]
    fn float_sum_fires_via_turbofish_or_let_type() {
        let d =
            run("fn f(v: &[f64]) { let a = v.iter().sum::<f64>(); let b: f64 = v.iter().sum(); }");
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn integer_accumulation_is_fine() {
        let d = run("struct S { n: u64 }\nimpl S { fn go(&mut self) { self.n += 1; } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn float_in_tests_is_exempt() {
        let d = run("#[cfg(test)]\nmod tests {\n  fn t() { let s: f64 = v.iter().sum(); }\n}");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_token_fires() {
        let d = run("#![forbid(unsafe_code)]\nfn f() { unsafe { } }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, rules::FORBID_UNSAFE);
    }

    #[test]
    fn missing_forbid_attribute_fires() {
        let s = scrub("pub fn f() {}\n");
        let ctx = FileCtx::new("k.rs", &s);
        let mut out = Vec::new();
        check_unsafe(&ctx, &cfg(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let s = scrub("fn outer() {\n  fn inner() {\n    let x = 1;\n  }\n}\n");
        let ctx = FileCtx::new("k.rs", &s);
        assert_eq!(ctx.enclosing_fn(3), Some("inner"));
        assert_eq!(ctx.enclosing_fn(1), Some("outer"));
        assert_eq!(ctx.enclosing_fn(99), None);
    }
}
