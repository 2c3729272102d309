//! Inline suppression directives.
//!
//! A violation can be waived with a line comment:
//!
//! ```text
//! // analyzer:allow(no-panic) -- graph construction caps node count at u32
//! let id = NodeId(u32::try_from(n).expect("graph too large"));
//! ```
//!
//! An own-line directive covers the next code-bearing line (directives
//! stack); a trailing directive covers its own line. The ` -- reason`
//! trailer is mandatory: an allow without a non-empty reason is itself a
//! violation (`bad-allow`), as is an allow naming an unknown rule —
//! suppressions must explain themselves to survive review.

use crate::lexer::{Tok, TokKind};
use crate::report::Violation;
use crate::rules::{is_known_rule, FileCtx};

/// One parsed, valid `analyzer:allow` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule id being waived.
    pub rule: String,
    /// The line the directive comment itself sits on.
    pub line: u32,
    /// The code line the waiver covers.
    pub target_line: u32,
}

/// Extracts directives from the token stream.
///
/// Returns the valid allows (with resolved target lines) and the
/// `bad-allow` violations for malformed ones.
pub fn collect_allows(ctx: &FileCtx, toks: &[Tok], src: &str) -> (Vec<Allow>, Vec<Violation>) {
    // Lines that carry at least one code token, sorted: the resolution
    // domain for own-line directives.
    let mut code_lines: Vec<u32> = toks
        .iter()
        .filter(|t| t.kind != TokKind::LineComment)
        .map(|t| t.line)
        .collect();
    code_lines.sort_unstable();
    code_lines.dedup();

    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = body.strip_prefix("analyzer:allow") else {
            continue;
        };
        let snippet = src
            .lines()
            .nth(t.line.saturating_sub(1) as usize)
            .unwrap_or("")
            .trim()
            .to_string();
        let mut reject = |message: String| {
            bad.push(Violation::new(
                "bad-allow",
                &ctx.path,
                t.line,
                message,
                snippet.clone(),
            ));
        };
        // Parse "(rule)".
        let Some((rule, after)) = rest
            .strip_prefix('(')
            .and_then(|r| r.split_once(')'))
            .map(|(rule, after)| (rule.trim(), after))
        else {
            reject(
                "malformed `analyzer:allow` — expected `analyzer:allow(<rule>) -- <reason>`"
                    .to_string(),
            );
            continue;
        };
        if !is_known_rule(rule) {
            reject(format!("`analyzer:allow({rule})` names an unknown rule"));
            continue;
        }
        // Parse " -- reason" (mandatory, non-empty).
        let reason = after.trim_start().strip_prefix("--").map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => {}
            _ => {
                reject(format!(
                    "`analyzer:allow({rule})` without a `-- <reason>` trailer — \
                     suppressions must explain themselves"
                ));
                continue;
            }
        }
        // Trailing directive covers its own line; own-line directive
        // covers the next code-bearing line.
        let trailing = code_lines.binary_search(&t.line).is_ok();
        let target_line = if trailing {
            t.line
        } else {
            match code_lines.iter().find(|&&l| l > t.line) {
                Some(&l) => l,
                None => continue, // allow at EOF covers nothing
            }
        };
        allows.push(Allow {
            rule: rule.to_string(),
            line: t.line,
            target_line,
        });
    }
    (allows, bad)
}

/// Applies suppressions: drops violations covered by a matching allow,
/// returning the survivors, the number suppressed, and a per-allow "did
/// it suppress anything" mask (the stale-allow input). The meta-rules
/// `bad-allow`/`stale-allow` are never suppressible.
pub fn apply_allows(
    violations: Vec<Violation>,
    allows: &[Allow],
) -> (Vec<Violation>, usize, Vec<bool>) {
    let before = violations.len();
    let mut used = vec![false; allows.len()];
    let kept: Vec<Violation> = violations
        .into_iter()
        .filter(|v| {
            if v.rule == "bad-allow" || v.rule == "stale-allow" {
                return true;
            }
            let mut hit = false;
            for (i, a) in allows.iter().enumerate() {
                if a.rule == v.rule && a.target_line == v.line {
                    used[i] = true;
                    hit = true;
                }
            }
            !hit
        })
        .collect();
    let suppressed = before - kept.len();
    (kept, suppressed, used)
}

/// Turns allows that suppressed nothing into `stale-allow` violations —
/// a waiver that waives nothing is noise at best and a decoy at worst,
/// so it must be deleted (or re-aimed) to keep the baseline honest.
pub fn stale_allow_violations(
    ctx: &FileCtx,
    src: &str,
    allows: &[Allow],
    used: &[bool],
) -> Vec<Violation> {
    allows
        .iter()
        .zip(used)
        .filter(|&(_, &u)| !u)
        .map(|(a, _)| {
            let snippet = src
                .lines()
                .nth(a.line.saturating_sub(1) as usize)
                .unwrap_or("")
                .trim()
                .to_string();
            Violation::new(
                "stale-allow",
                &ctx.path,
                a.line,
                format!(
                    "`analyzer:allow({})` suppresses nothing — the finding it covered is \
                     gone; delete the directive",
                    a.rule
                ),
                snippet,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> (Vec<Allow>, Vec<Violation>) {
        let ctx = FileCtx::from_path("crates/stroll/src/dp.rs");
        let toks = lex(src);
        collect_allows(&ctx, &toks, src)
    }

    #[test]
    fn own_line_allow_targets_next_code_line() {
        let src = "// analyzer:allow(no-panic) -- invariant: table seeded\n\nlet x = y.unwrap();";
        let (allows, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "no-panic");
        assert_eq!(allows[0].target_line, 3);
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "let x = y.unwrap(); // analyzer:allow(no-panic) -- checked above";
        let (allows, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(allows[0].target_line, 1);
    }

    #[test]
    fn missing_reason_is_a_violation() {
        for src in [
            "// analyzer:allow(no-panic)\nlet x = 1;",
            "// analyzer:allow(no-panic) --\nlet x = 1;",
            "// analyzer:allow(no-panic) -- \nlet x = 1;",
        ] {
            let (allows, bad) = run(src);
            assert!(allows.is_empty(), "{src:?}");
            assert_eq!(bad.len(), 1, "{src:?}");
            assert_eq!(bad[0].rule, "bad-allow");
        }
    }

    #[test]
    fn unknown_rule_is_a_violation() {
        // Retired rules (now clippy denies) are unknown too: a leftover
        // directive fails the run instead of counting toward the baseline.
        for rule in ["no-such-rule", "lossy-cast", "no-print", "discarded-result"] {
            let (allows, bad) = run(&format!("// analyzer:allow({rule}) -- because\nlet x = 1;"));
            assert!(allows.is_empty(), "{rule}");
            assert_eq!(bad.len(), 1, "{rule}");
            assert_eq!(bad[0].rule, "bad-allow", "{rule}");
            assert!(bad[0].message.contains("unknown rule"), "{rule}");
        }
    }

    #[test]
    fn stacked_allows_cover_the_same_line() {
        let src = "// analyzer:allow(no-panic) -- a\n// analyzer:allow(raw-cost-arith) -- b\nlet x = y.unwrap() + INFINITY;";
        let (allows, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 2);
        assert!(allows.iter().all(|a| a.target_line == 3));
    }

    #[test]
    fn apply_drops_only_matching_rule_and_line() {
        let mk = |rule: &str, line: u32| {
            Violation::new(rule, "f.rs", line, String::new(), String::new())
        };
        let allows = vec![Allow {
            rule: "no-panic".into(),
            line: 2,
            target_line: 3,
        }];
        let (kept, n, used) = apply_allows(
            vec![
                mk("no-panic", 3),
                mk("no-panic", 4),
                mk("raw-cost-arith", 3),
            ],
            &allows,
        );
        assert_eq!(n, 1);
        assert_eq!(kept.len(), 2);
        assert_eq!(used, vec![true]);
    }

    #[test]
    fn bad_allow_cannot_be_suppressed() {
        let src =
            "// analyzer:allow(bad-allow) -- nice try\n// analyzer:allow(no-panic)\nlet x = 1;";
        let (_, bad) = run(src);
        assert_eq!(bad.len(), 1);
        let allows = vec![Allow {
            rule: "bad-allow".into(),
            line: 1,
            target_line: 2,
        }];
        let (kept, _, _) = apply_allows(bad, &allows);
        assert_eq!(kept.len(), 1, "bad-allow survives suppression attempts");
    }

    #[test]
    fn unused_allows_become_stale_allow_violations() {
        let src = "// analyzer:allow(no-panic) -- was load-bearing once\nlet x = y.checked_mul(2);";
        let ctx = FileCtx::from_path("crates/stroll/src/dp.rs");
        let toks = lex(src);
        let (allows, bad) = collect_allows(&ctx, &toks, src);
        assert!(bad.is_empty());
        let (kept, n, used) = apply_allows(Vec::new(), &allows);
        assert!(kept.is_empty());
        assert_eq!(n, 0);
        let stale = stale_allow_violations(&ctx, src, &allows, &used);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "stale-allow");
        assert_eq!(stale[0].line, 1);
        assert!(stale[0].message.contains("no-panic"));
        // A stale-allow cannot itself be allowed away.
        let waive = vec![Allow {
            rule: "stale-allow".into(),
            line: 1,
            target_line: 1,
        }];
        let (kept, _, _) = apply_allows(stale, &waive);
        assert_eq!(kept.len(), 1);
    }
}
