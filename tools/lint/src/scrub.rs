//! Source scrubbing and tokenization.
//!
//! The analyzer never parses Rust properly; it works on a *scrubbed*
//! copy of each file in which comments and string/char literals are
//! replaced by spaces (newlines preserved, so line numbers survive).

/// Replace comments and string/char literals with spaces, keeping the
/// line structure intact.
pub fn scrub(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            out[i] = b'\n';
            i += 1;
            continue;
        }
        // Line comment: blank to end of line.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            i = src[i..].find('\n').map_or(b.len(), |n| i + n);
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'\n' {
                    out[i] = b'\n';
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 1;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 1;
                }
                i += 1;
            }
            continue;
        }
        // Raw (byte) string literal: r"..." / r#"..."# / br##"..."##.
        if c == b'r' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r') {
            let start = if c == b'b' { i + 1 } else { i };
            let mut j = start + 1;
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                // Find the closing quote followed by `hashes` hashes.
                let closer: String = std::iter::once('"')
                    .chain("#".repeat(hashes).chars())
                    .collect();
                let body_end = src[j + 1..]
                    .find(&closer)
                    .map_or(b.len(), |n| j + 1 + n + closer.len());
                for (k, &bb) in b.iter().enumerate().take(body_end).skip(i) {
                    if bb == b'\n' {
                        out[k] = b'\n';
                    }
                }
                i = body_end;
                continue;
            }
        }
        // Plain (byte) string literal.
        if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            i += if c == b'b' { 2 } else { 1 };
            while i < b.len() {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        out[i] = b'\n';
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' / '\n' are literals, 'a (no
        // closing quote right after) is a lifetime and kept as-is.
        if c == b'\'' {
            let lit_end = if i + 2 < b.len() && b[i + 1] == b'\\' {
                // Escape: find the closing quote within a few bytes.
                b[i + 2..]
                    .iter()
                    .take(8)
                    .position(|&x| x == b'\'')
                    .map(|n| i + 2 + n)
            } else if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                Some(i + 2)
            } else {
                None
            };
            if let Some(e) = lit_end {
                i = e + 1;
                continue;
            }
        }
        out[i] = c;
        i += 1;
    }
    String::from_utf8(out).expect("scrub output is ASCII-compatible")
}

/// One token of scrubbed source: an identifier/number or a (possibly
/// two-character) operator, with its 1-based line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    /// Token text.
    pub s: &'a str,
    /// 1-based source line.
    pub line: u32,
}

impl Tok<'_> {
    /// Is this token an identifier (or keyword)?
    pub fn is_ident(&self) -> bool {
        self.s
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
    }
}

/// Two-character operators kept as single tokens.
const OPS2: &[&str] = &["::", "+=", "-=", "*=", "/=", "->", "=>", "..", "<<", ">>"];

/// Tokenize scrubbed source.
pub fn tokenize(text: &str) -> Vec<Tok<'_>> {
    let b = text.as_bytes();
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphanumeric() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                s: &text[start..i],
                line,
            });
            continue;
        }
        if i + 1 < b.len() {
            let two = &text[i..i + 2];
            if OPS2.contains(&two) {
                toks.push(Tok { s: two, line });
                i += 2;
                continue;
            }
        }
        toks.push(Tok {
            s: &text[i..i + 1],
            line,
        });
        i += 1;
    }
    toks
}

/// Line ranges (1-based, inclusive) of `#[cfg(test)] mod ... { }` blocks,
/// so rules can skip test code.
pub fn test_regions(toks: &[Tok<'_>]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // Match `# [ cfg ( test ) ]`.
        if toks[i].s == "#" && matches(toks, i + 1, &["[", "cfg", "(", "test", ")", "]"]) {
            // Skip further attributes, then expect `mod <name> {`.
            let mut j = i + 7;
            while j < toks.len() && toks[j].s == "#" {
                j = skip_attribute(toks, j);
            }
            if j + 2 < toks.len() && toks[j].s == "mod" && toks[j + 2].s == "{" {
                let open = j + 2;
                let close = matching_brace(toks, open);
                regions.push((toks[i].line, toks[close.min(toks.len() - 1)].line));
                i = close;
                continue;
            }
        }
        i += 1;
    }
    regions
}

fn matches(toks: &[Tok<'_>], at: usize, want: &[&str]) -> bool {
    toks.len() >= at + want.len() && want.iter().enumerate().all(|(k, w)| toks[at + k].s == *w)
}

/// Given `toks[at] == "#"`, return the index just past the attribute.
fn skip_attribute(toks: &[Tok<'_>], at: usize) -> usize {
    let mut j = at + 1;
    if j < toks.len() && toks[j].s == "!" {
        j += 1;
    }
    if j >= toks.len() || toks[j].s != "[" {
        return at + 1;
    }
    let mut depth = 0;
    while j < toks.len() {
        match toks[j].s {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(toks: &[Tok<'_>], open: usize) -> usize {
    let mut depth = 0;
    let mut j = open;
    while j < toks.len() {
        match toks[j].s {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len() - 1
}

/// A named function body: token range of `{ ... }` plus first line.
#[derive(Debug, Clone)]
pub struct FnBody {
    /// The function's name.
    pub name: String,
    /// Token index of the opening brace.
    pub open: usize,
    /// Token index of the closing brace.
    pub close: usize,
    /// 1-based line of the `fn` keyword.
    pub start_line: u32,
}

/// Find every `fn <name>` body in the token stream. The body is the
/// first `{` after the signature at zero paren/bracket depth.
pub fn fn_bodies(toks: &[Tok<'_>]) -> Vec<FnBody> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].s == "fn" && toks[i + 1].is_ident() {
            let name = toks[i + 1].s.to_string();
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut open = None;
            while j < toks.len() {
                match toks[j].s {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    // A `;` at depth 0 means a trait method without body.
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = open {
                let close = matching_brace(toks, open);
                out.push(FnBody {
                    name,
                    open,
                    close,
                    start_line: toks[i].line,
                });
                // Continue scanning *inside* the body too (nested fns).
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let x = \"a // not a comment\"; // real comment\nlet y = 'c';\n";
        let s = scrub(src);
        assert!(!s.contains("not a comment"));
        assert!(!s.contains("real comment"));
        assert!(!s.contains('c'), "char literal scrubbed: {s}");
        assert!(s.contains("let x ="));
        assert_eq!(s.matches('\n').count(), 2);
    }

    #[test]
    fn scrub_handles_nested_block_comments_and_raw_strings() {
        let src = "a /* outer /* inner */ still */ b r#\"raw \" here\"# c";
        let s = scrub(src);
        assert!(s.contains('a') && s.contains('b') && s.contains('c'));
        assert!(!s.contains("inner") && !s.contains("raw"));
    }

    #[test]
    fn scrub_keeps_lifetimes() {
        let s = scrub("fn f<'a>(x: &'a str) {}");
        assert!(s.contains("'a"), "{s}");
    }

    #[test]
    fn tokenizer_merges_two_char_ops() {
        let toks = tokenize("a += b :: c;");
        let texts: Vec<_> = toks.iter().map(|t| t.s).collect();
        assert_eq!(texts, vec!["a", "+=", "b", "::", "c", ";"]);
    }

    #[test]
    fn test_regions_span_the_mod_block() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let r = test_regions(&tokenize(&scrub(src)));
        assert_eq!(r, vec![(2, 5)]);
    }

    #[test]
    fn fn_bodies_are_found_with_lines() {
        let src = "impl X {\n  fn step(&mut self) {\n    let y = 1;\n  }\n}\nfn free() { }\n";
        let s = scrub(src);
        let fns = fn_bodies(&tokenize(&s));
        let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["step", "free"]);
        assert_eq!(fns[0].start_line, 2);
    }

    #[test]
    fn trait_method_without_body_is_skipped() {
        let s = scrub("trait T { fn sig(&self) -> bool; fn with(&self) {} }");
        let fns = fn_bodies(&tokenize(&s));
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "with");
    }
}
