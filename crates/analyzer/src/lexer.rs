//! A lightweight Rust lexer: just enough token structure for the lint
//! rules to reason about code without false-flagging strings, comments,
//! or test modules.
//!
//! The lexer is intentionally not a parser. It produces a flat token
//! stream with line numbers (comments dropped) and runs a brace-matching
//! pass to mark `#[cfg(test)]` / `#[test]` item bodies so rules can skip
//! test code. Strings (plain, raw, byte), char literals vs. lifetimes, nested
//! block comments, and raw identifiers are all handled; anything fancier
//! (macros-by-example internals, proc-macro output) is out of scope — the
//! rules only need lexical adjacency.

/// What a token is, at the granularity the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `as`, `INFINITY`, …).
    Ident,
    /// Operator / punctuation, maximal-munch (`+=`, `->`, `::`, `+`, …).
    Punct,
    /// Numeric or char literal (content kept, never inspected by rules).
    Literal,
    /// String literal of any flavor; content dropped so rules cannot
    /// match inside it.
    Str,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// Lexes `src` into a token stream. Never fails: unterminated constructs
/// consume to end-of-input, which is the right behavior for a linter.
pub fn lex(src: &str) -> Vec<Tok> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    macro_rules! push {
        ($kind:expr, $text:expr, $line:expr) => {
            toks.push(Tok {
                kind: $kind,
                text: $text,
                line: $line,
            })
        };
    }

    while i < n {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                // Nested block comments, line-counted.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if bytes[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if bytes[j] == b'/' && j + 1 < n && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && j + 1 < n && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            b'"' => {
                let (j, lines) = skip_string(bytes, i);
                push!(TokKind::Str, String::new(), line);
                line += lines;
                i = j;
            }
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                let (j, lines) = skip_raw_or_byte_string(bytes, i);
                push!(TokKind::Str, String::new(), line);
                line += lines;
                i = j;
            }
            b'r' if i + 1 < n && bytes[i + 1] == b'#' && is_ident_start(bytes.get(i + 2)) => {
                // Raw identifier r#type.
                let start = i + 2;
                let mut j = start;
                while j < n && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                push!(TokKind::Ident, src[start..j].to_string(), line);
                i = j;
            }
            b'b' if i + 1 < n && bytes[i + 1] == b'\'' => {
                // Byte-char literal `b'x'` / `b'\''`: one literal token,
                // never an ident `b` followed by a stray quote (which
                // would desynchronize on `b'\''` — the escaped quote
                // re-opens as a char literal and swallows real code).
                push!(TokKind::Literal, String::new(), line);
                i = skip_char_literal(bytes, i + 1);
            }
            b'\'' => {
                // Char literal or lifetime. `'a'` / `'\n'` are literals;
                // `'a` followed by non-quote is a lifetime.
                if i + 1 < n && bytes[i + 1] == b'\\' {
                    push!(TokKind::Literal, String::new(), line);
                    i = skip_char_literal(bytes, i);
                } else if i + 2 < n && bytes[i + 2] == b'\'' {
                    push!(TokKind::Literal, String::new(), line);
                    i += 3;
                } else if is_ident_start(bytes.get(i + 1)) {
                    let start = i + 1;
                    let mut j = start;
                    while j < n && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    push!(TokKind::Literal, format!("'{}", &src[start..j]), line);
                    i = j;
                } else {
                    push!(TokKind::Punct, "'".to_string(), line);
                    i += 1;
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut j = i + 1;
                while j < n {
                    let d = bytes[j];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        j += 1;
                    } else if d == b'.'
                        && j + 1 < n
                        && bytes[j + 1].is_ascii_digit()
                        && !src[start..j].contains('.')
                    {
                        // 1.5 is one literal; 1..5 and 1.min(2) are not.
                        j += 1;
                    } else {
                        break;
                    }
                }
                push!(TokKind::Literal, src[start..j].to_string(), line);
                i = j;
            }
            _ if is_ident_start(Some(&c)) => {
                let start = i;
                let mut j = i + 1;
                while j < n && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                push!(TokKind::Ident, src[start..j].to_string(), line);
                i = j;
            }
            _ => {
                // Maximal-munch the multi-char operators the rules care
                // about (so `->` is never mistaken for `-`).
                const TWO: &[&str] = &[
                    "+=", "-=", "*=", "/=", "%=", "->", "=>", "::", "..", "&&", "||", "<<", ">>",
                    "==", "!=", "<=", ">=", "^=", "|=", "&=",
                ];
                let rest = &src[i..];
                let mut matched = None;
                for op in TWO {
                    if rest.starts_with(op) {
                        matched = Some(*op);
                        break;
                    }
                }
                if let Some(op) = matched {
                    push!(TokKind::Punct, op.to_string(), line);
                    i += op.len();
                } else {
                    push!(TokKind::Punct, (c as char).to_string(), line);
                    i += 1;
                }
            }
        }
    }
    toks
}

fn is_ident_start(c: Option<&u8>) -> bool {
    matches!(c, Some(c) if c.is_ascii_alphabetic() || *c == b'_')
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Is `bytes[i..]` the start of a raw string (`r"`, `r#"`) or byte string
/// (`b"`, `br"`, `br#"`)? Plain `b'c'` byte chars are handled by the char
/// arm; `rb"` is not legal Rust.
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let n = bytes.len();
    match bytes[i] {
        b'r' => {
            let mut j = i + 1;
            while j < n && bytes[j] == b'#' {
                j += 1;
            }
            j < n && bytes[j] == b'"'
        }
        b'b' => {
            if i + 1 < n && bytes[i + 1] == b'"' {
                return true;
            }
            if i + 1 < n && bytes[i + 1] == b'r' {
                let mut j = i + 2;
                while j < n && bytes[j] == b'#' {
                    j += 1;
                }
                return j < n && bytes[j] == b'"';
            }
            false
        }
        _ => false,
    }
}

/// Skips a char literal starting at its opening quote; returns the index
/// past the closing quote. Malformed literals stop at the newline without
/// consuming it, so line counting never desynchronizes on truncated input.
fn skip_char_literal(bytes: &[u8], i: usize) -> usize {
    let n = bytes.len();
    let mut j = i + 1; // past the opening quote
    if j < n && bytes[j] == b'\\' {
        j += 1; // the backslash
        if j < n && bytes[j] != b'\n' {
            j += 1; // the escaped char (`'`, `\`, `n`, `u`, …)
        }
    } else if j < n && bytes[j] != b'\n' {
        j += 1; // the plain char
    }
    // `\u{...}` payloads and over-long garbage: scan to the close quote.
    while j < n && bytes[j] != b'\'' && bytes[j] != b'\n' {
        j += 1;
    }
    if j < n && bytes[j] == b'\'' {
        return j + 1;
    }
    j
}

/// Skips a plain (possibly `b`-prefixed) escaped string starting at the
/// quote or prefix; returns (index past the close, newline count).
fn skip_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let n = bytes.len();
    let mut j = i + 1; // past the opening quote
    let mut lines = 0u32;
    while j < n {
        match bytes[j] {
            b'\\' => {
                // An escaped newline (line-continuation `\` at end of
                // line) still ends a source line: count it, or every
                // diagnostic after this string points one line short.
                if j + 1 < n && bytes[j + 1] == b'\n' {
                    lines += 1;
                }
                j += 2;
            }
            b'"' => return (j + 1, lines),
            b'\n' => {
                lines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (n, lines)
}

/// Skips a raw/byte string starting at its `r`/`b` prefix.
fn skip_raw_or_byte_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let n = bytes.len();
    let mut j = i;
    while j < n && (bytes[j] == b'r' || bytes[j] == b'b') {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < n && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || bytes[j] != b'"' {
        return (j, 0);
    }
    if hashes == 0 && bytes[i..j].contains(&b'b') && !bytes[i..j].contains(&b'r') {
        // b"..." — escaped like a plain string.
        return skip_string(bytes, j);
    }
    j += 1; // past the quote
    let mut lines = 0u32;
    while j < n {
        if bytes[j] == b'\n' {
            lines += 1;
            j += 1;
        } else if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && bytes[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, lines);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (n, lines)
}

/// Marks which tokens sit inside `#[cfg(test)]` / `#[test]` item bodies.
///
/// Returns one flag per token: `true` means "test code" — rules skip it.
/// The pass walks attribute groups; on a test attribute it skips any
/// further attributes, then brace-matches the following item body. An
/// out-of-line `#[cfg(test)] mod x;` has no body here and is ignored (the
/// referenced file is classified by path instead).
pub fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut k = 0usize;
    while k < toks.len() {
        if is_attr_start(toks, k) {
            let (end, is_test) = scan_attr(toks, k);
            if is_test {
                // Skip any stacked attributes after the test one.
                let mut m = end;
                while is_attr_start(toks, m) {
                    let (e, _) = scan_attr(toks, m);
                    m = e;
                }
                // Find the item's opening brace (stop at `;` for
                // body-less items), then brace-match.
                let mut depth = 0usize;
                let mut p = m;
                let mut opened = false;
                while p < toks.len() {
                    let t = &toks[p];
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "{" => {
                                depth += 1;
                                opened = true;
                            }
                            "}" => {
                                depth = depth.saturating_sub(1);
                                if opened && depth == 0 {
                                    break;
                                }
                            }
                            ";" if !opened => break,
                            _ => {}
                        }
                    }
                    p += 1;
                }
                let lo = toks[k].line;
                let hi = if p < toks.len() {
                    toks[p].line
                } else {
                    u32::MAX
                };
                for (idx, t) in toks.iter().enumerate() {
                    if t.line >= lo && t.line <= hi {
                        in_test[idx] = true;
                    }
                }
                k = p + 1;
                continue;
            }
            k = end;
            continue;
        }
        k += 1;
    }
    in_test
}

fn is_attr_start(toks: &[Tok], k: usize) -> bool {
    k + 1 < toks.len()
        && toks[k].kind == TokKind::Punct
        && toks[k].text == "#"
        && toks[k + 1].kind == TokKind::Punct
        && toks[k + 1].text == "["
}

/// Scans the attribute group at `k` (which must satisfy
/// [`is_attr_start`]); returns (index past `]`, attribute-is-test).
///
/// "Is test" means the attribute is exactly `#[test]`, `#[cfg(test)]`, or
/// a `#[cfg(...)]` whose predicate mentions the bare `test` flag (e.g.
/// `#[cfg(any(test, feature = "x"))]`).
fn scan_attr(toks: &[Tok], k: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut p = k + 1; // at `[`
    let mut inner: Vec<&str> = Vec::new();
    while p < toks.len() {
        let t = &toks[p];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        if depth >= 1 && !(depth == 1 && t.text == "[") {
            inner.push(&t.text);
        }
        p += 1;
    }
    let is_test = match inner.as_slice() {
        ["test"] => true,
        // `not(test)` predicates are live code — lint them.
        ["cfg", "(", rest @ ..] => rest.contains(&"test") && !rest.contains(&"not"),
        _ => false,
    };
    (p + 1, is_test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            let x = "no unwrap() here";
            // unwrap() in a comment
            /* panic! in /* nested */ block */
            let y = r#"raw unwrap()"#;
            call(x.unwrap());
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "unwrap").count(), 1);
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lits: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Literal).collect();
        // 'a twice (lifetimes) + 'x' (char). Lifetimes keep their quote
        // prefix so they can never collide with identifier rules.
        assert_eq!(lits.len(), 3);
        assert!(lits
            .iter()
            .all(|t| t.text.starts_with('\'') || t.text.is_empty()));
    }

    #[test]
    fn multi_char_ops_are_single_tokens() {
        let toks = lex("a += b -> c :: d .. e");
        let ops: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ops, vec!["+=", "->", "::", ".."]);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"one\ntwo\";\nlet b = 1;";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = r#"
fn real() { x.unwrap(); }

#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}

fn after() { z.unwrap(); }
"#;
        let toks = lex(src);
        let regions = test_regions(&toks);
        let flags: Vec<(String, bool)> = toks
            .iter()
            .zip(&regions)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(t, &r)| (t.text.clone(), r))
            .collect();
        assert_eq!(flags.len(), 3);
        assert!(!flags[0].1, "code before the test mod is live");
        assert!(flags[1].1, "code inside #[cfg(test)] is test code");
        assert!(!flags[2].1, "code after the test mod is live");
    }

    #[test]
    fn test_attr_fn_is_marked() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn real() { b.unwrap(); }";
        let toks = lex(src);
        let regions = test_regions(&toks);
        let hits: Vec<bool> = toks
            .iter()
            .zip(&regions)
            .filter(|(t, _)| t.text == "unwrap")
            .map(|(_, &r)| r)
            .collect();
        assert_eq!(hits, vec![true, false]);
    }

    #[test]
    fn raw_strings_with_hashes_hide_contents_and_keep_lines() {
        // `r#"…"#` bodies may contain quotes, `unwrap()`, and newlines;
        // none of it may leak into the token stream, and the line counter
        // must stay in sync for everything after.
        let src = "let a = r##\"inner \"# quote\" and unwrap()\nline2\"##;\nlet after = 1;";
        let toks = lex(src);
        assert!(!idents(src).contains(&"unwrap".to_string()));
        let after = toks.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 3, "raw-string newlines must be counted");
    }

    #[test]
    fn byte_strings_and_byte_chars_do_not_desync() {
        // `b"…"` escapes like a plain string; `b'\''` is one literal, not
        // an ident `b` plus a quote that re-opens as a bogus char literal.
        let src = "let a = b\"bytes \\\" with panic!\";\nlet b = b'\\'';\nlet c = b'x';\ncall(v.unwrap());";
        let ids = idents(src);
        assert!(!ids.contains(&"panic".to_string()));
        assert_eq!(ids.iter().filter(|s| *s == "unwrap").count(), 1);
        let toks = lex(src);
        let unwrap = toks.iter().find(|t| t.text == "unwrap").unwrap();
        assert_eq!(unwrap.line, 4);
    }

    #[test]
    fn escaped_quote_char_literal_is_one_token() {
        let src = "let q = '\\'';\nlet u = x.unwrap();";
        let toks = lex(src);
        let unwrap = toks.iter().find(|t| t.text == "unwrap").unwrap();
        assert_eq!(unwrap.line, 2);
        // Exactly one literal for the char; no stray quote puncts that
        // would open a phantom string over the rest of the file.
        assert!(toks.iter().all(|t| t.text != "'"));
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_numbers() {
        // A `\` line continuation ends a physical source line; the lexer
        // must count it or every later diagnostic is off by one.
        let src = "let s = \"one \\\ntwo\";\nlet after = y.unwrap();";
        let toks = lex(src);
        let unwrap = toks.iter().find(|t| t.text == "unwrap").unwrap();
        assert_eq!(unwrap.line, 3);
    }

    #[test]
    fn nested_block_comments_keep_line_numbers() {
        let src = "/* outer\n /* inner\n more */\n still outer */\nlet after = z.unwrap();";
        let toks = lex(src);
        assert!(!idents(src).contains(&"outer".to_string()));
        let unwrap = toks.iter().find(|t| t.text == "unwrap").unwrap();
        assert_eq!(unwrap.line, 5);
    }

    #[test]
    fn unterminated_constructs_consume_to_eof_without_panicking() {
        for src in ["let s = \"open", "let c = '\\", "/* open", "r#\"open"] {
            let _ = lex(src);
        }
    }

    #[test]
    fn numeric_literals_do_not_swallow_ranges_or_methods() {
        let toks = lex("for i in 0..5 { x = 1.min(2) + 1.5; }");
        let lits: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec!["0", "5", "1", "2", "1.5"]);
    }
}
