//! The determinism-contract rules no other CI gate enforces.
//!
//! Each rule is a best-effort token-level analysis over scrubbed source
//! (see [`crate::scrub`]): no type inference, but identifier tracking
//! through declarations (`name: FastMap<..>`) catches the shapes the
//! deterministic crates actually use. A rule stays only while a seeded
//! violation of it passes clippy and every test; its doc comment records
//! that seed, and `tests/fixtures.rs` plants the seed in the real source.

use crate::diag::{rules, Diagnostic};
use crate::scrub::{fn_bodies, test_regions, tokenize, FnBody, Tok};
use std::collections::BTreeSet;

/// Containers whose iteration order is hash order. `FastMap`/`FastSet`
/// are the `emogi_runtime::util` integer-hashed aliases.
pub const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FastMap", "FastSet"];

/// The bodies a launch runs per task or per edge: the `Kernel` trait's
/// `next_task`/`step` and `VertexProgram::edge`. Matched by name in
/// every scanned file, so a new kernel or program is covered as it is
/// written.
pub const HOOKS: &[&str] = &["next_task", "step", "edge"];

/// Identifiers hook bodies must not touch: contexts are captured at
/// kernel construction, never mid-launch; the per-iteration hooks belong
/// to the driver loop; and no hook reads live machine state.
pub const DISALLOWED: &[&str] = &[
    "source_ctx",
    "begin_iteration",
    "post_iteration",
    "initial_frontier",
    "Machine",
    "machines",
    "now",
    "uvm",
    "hbm",
    "host_dram",
    "monitor",
];

/// Everything the rules need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    path: &'a str,
    /// Token stream of the scrubbed source.
    toks: Vec<Tok<'a>>,
    /// Scrubbed source split into lines (index 0 = line 1).
    lines: Vec<&'a str>,
    /// `#[cfg(test)] mod` line ranges (1-based, inclusive).
    tests: Vec<(u32, u32)>,
    /// Every function body, for hook scanning.
    fns: Vec<FnBody>,
}

impl<'a> FileCtx<'a> {
    /// Build the per-file analysis context from scrubbed source.
    pub fn new(path: &'a str, scrubbed: &'a str) -> Self {
        let toks = tokenize(scrubbed);
        let tests = test_regions(&toks);
        let fns = fn_bodies(&toks);
        FileCtx {
            path,
            toks,
            lines: scrubbed.lines().collect(),
            tests,
            fns,
        }
    }

    fn in_tests(&self, line: u32) -> bool {
        self.tests.iter().any(|&(a, b)| (a..=b).contains(&line))
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
/// a type/constructor naming one of [`HASH_TYPES`].
fn hash_idents(toks: &[Tok<'_>]) -> BTreeSet<String> {
    let is_type = |s: &str| HASH_TYPES.contains(&s);
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
/// ordered container. Not `BinaryHeap`: its `iter()`, `into_vec()` and
/// `for` walk the heap's internal layout, which depends on insertion
/// order, so hash order leaks straight through it.
const ORDER_RESTORERS: &[&str] = &[".sort", "BTreeMap", "BTreeSet"];

/// How many lines after the iteration site an order-restoring operation
/// still counts as "followed by an explicit sort".
const SORT_WINDOW_LINES: usize = 4;

/// Rule `unordered-iter`: iterating a `HashMap`/`HashSet`/`FastMap`
/// visits entries in hash order — randomized across `std` versions and,
/// for non-`FastMap` maps, across processes. Point lookups are fine;
/// iteration must feed a sort or an ordered collect within a few lines.
///
/// Clippy's `iter_over_hash_type` is no replacement: it flags a `for`
/// over `Executor::page_waiters` but not
/// `page_waiters.keys().copied().filter(..).collect()`. Nor are the
/// suites: `FastMap`'s hasher is fixed, so they see a hash order only
/// once it moves a pinned number. Seed that passes clippy and every test
/// at both proptest seeds: before `on_uvm_batch`'s wake loop,
/// `let woken: Vec<u64> = self.page_waiters.keys().copied()
/// .filter(|p| pages.contains(p)).collect();` read by a
/// `debug_assert!(woken.len() <= pages.len(), "woken {woken:?}")`.
/// Waking the warps in `woken`'s order instead fails `sim_golden`.
pub fn check_unordered(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let hashes = hash_idents(&ctx.toks);
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
                "{how} over hash container `{ident}` has nondeterministic order; sort the \
                 result or collect it into a BTreeMap/BTreeSet"
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

/// Rule `kernel-purity`: a hook body ([`HOOKS`]) must be a pure function
/// of the contexts captured at iteration start (`kernel::Work::capture`).
/// Touching live program state (`source_ctx`, the per-iteration hooks)
/// or the `Machine` from inside a hook would make launch semantics
/// depend on how warps, shards or batch members interleave.
///
/// Seeds no other gate catches: `let _live = self.source_ctx(dst);` as
/// the first statement of `SsspProgram::edge` (it compiles and changes
/// nothing today), and an `impl Kernel for` block appended to `toy.rs`
/// or `compressed.rs` whose `step` reads `m.now`. Hooks whose seed a
/// suite catches are not listed: a live `source_ctx` read feeding
/// `ProgramKernel::visit_edges` (see the `serve_proptests` and
/// `layout_differential` headers), and a live clock feeding
/// `rank_candidates` or `decide_tiered` (see the `sim_golden` header).
pub fn check_purity(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for f in &ctx.fns {
        if !HOOKS.contains(&f.name.as_str()) || ctx.in_tests(f.start_line) {
            continue;
        }
        for t in &ctx.toks[f.open..=f.close] {
            if t.is_ident() && DISALLOWED.contains(&t.s) {
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

#[cfg(test)]
mod tests {
    use crate::diag::rules;
    use crate::lint_source;

    fn run(src: &str) -> Vec<crate::diag::Diagnostic> {
        lint_source("k.rs", src)
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
}
