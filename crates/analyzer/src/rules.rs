//! The per-file rules, plus their crate scoping.
//!
//! Each rule captures an invariant the paper's guarantees lean on and the
//! compiler cannot see (see DESIGN.md §6b):
//!
//! * `raw-cost-arith` — the `INFINITY` sentinel may never be an operand
//!   of raw `+`/`-`/`*`; saturating helpers (`sat_add`/`sat_mul`) keep it
//!   a fixed point so it cannot overflow (the PR 2 PLAN/MCF class).
//!
//! The determinism/concurrency pack (v2, syntax-aware via
//! [`crate::syntax::match_open`] token trees):
//!
//! * `reduce-order` — `-`/`/` inside the closures of a rayon-chain
//!   `reduce`/`fold`: parallel reduction order is scheduler-dependent, so
//!   non-commutative/non-associative ops give run-dependent results.
//! * `relaxed-atomic` — `Ordering::Relaxed` in solver/sim crates, where
//!   atomics gate cross-thread decisions (the PR 5 incumbent-bound
//!   pattern); `ppdc-obs`'s monotonic enabled-flag is out of scope by
//!   design.
//! * `float-sort` — `partial_cmp` (or raw `<`/`>` with floats in play)
//!   inside sort/min/max comparators: NaN makes the order partial, so
//!   sorts are input-order-dependent; `total_cmp` is the fix.
//!
//! `no-panic` lives in [`crate::callgraph`] as a whole-workspace
//! reachability analysis (it needs cross-file call chains); the meta-rules
//! `bad-allow` / `stale-allow` live in the suppression layer.
//!
//! Checks clippy already makes are clippy lints instead of rules here
//! (DESIGN.md §6): bare casts (`clippy::as_conversions` in the cost
//! crates), printing (`print_stdout`/`print_stderr`/`dbg_macro`) and
//! discarded values (`let_underscore_untyped`/`unused_result_ok`) are
//! crate-level denies; hash containers (`disallowed_types`) and wall
//! clocks / unseeded RNG (`disallowed_methods`) are banned through
//! per-crate `clippy.toml` files.
//!
//! `assert!`/`debug_assert!` are deliberately *not* flagged: they are the
//! sanctioned contract mechanism (the `strict-invariants` feature).

use crate::lexer::{lex, test_regions, Tok, TokKind};
use crate::report::Violation;
use crate::syntax::{is_keyword, match_open};

/// Metadata for one rule, for `--rules` listings and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// Every real rule (the `bad-allow`/`stale-allow` meta-rules are emitted
/// by the suppression layer, not listed here).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-panic",
        summary: "no panic!/unwrap()/expect()/raw-index site reachable from a solver or sim \
                  entrypoint (call-graph analysis; diagnostics carry the call chain)",
    },
    RuleInfo {
        id: "raw-cost-arith",
        summary: "no raw +/-/* on the INFINITY cost sentinel (use sat_add/sat_mul)",
    },
    RuleInfo {
        id: "reduce-order",
        summary: "no -/÷ inside rayon reduce/fold closures (parallel reduction order is \
                  scheduler-dependent; non-commutative ops diverge)",
    },
    RuleInfo {
        id: "relaxed-atomic",
        summary: "no Ordering::Relaxed in solver/sim crates (decision-gating atomics need \
                  Acquire/Release or stronger)",
    },
    RuleInfo {
        id: "float-sort",
        summary: "no partial_cmp or raw </> on floats in sort/min/max comparators (use \
                  total_cmp for a total, deterministic order)",
    },
];

/// True if `id` names a known rule (including the meta-rules).
pub fn is_known_rule(id: &str) -> bool {
    id == "bad-allow" || id == "stale-allow" || RULES.iter().any(|r| r.id == id)
}

/// Crates where the `INFINITY` sentinel circulates: the `Cost`/`NodeId`
/// arithmetic crates plus `sim`, which handles degraded-fabric costs.
const SENTINEL_CRATES: &[&str] = &[
    "topology",
    "model",
    "stroll",
    "placement",
    "migration",
    "mcflow",
    "sim",
];

/// Files blessed to do raw sentinel arithmetic: the module that *defines*
/// the saturating helpers and the canonical Eq. 1 / Eq. 8 cost module.
const SENTINEL_EXEMPT_FILES: &[&str] =
    &["crates/topology/src/graph.rs", "crates/model/src/cost.rs"];

/// Crates where `Ordering::Relaxed` is suspect: atomics in solver/sim
/// code gate pruning and engine decisions across threads. `ppdc-obs`'s
/// monotonic enabled-flag load is deliberately out of scope.
const ATOMIC_CRATES: &[&str] = &["stroll", "placement", "migration", "mcflow", "sim"];

/// Slice/iterator adapters that take an ordering comparator closure.
const COMPARATOR_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "binary_search_by",
];

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, used in reports and exemption matching.
    pub path: String,
    /// The crate's directory name under `crates/` (the root package is
    /// `"ppdc"`).
    pub crate_name: String,
}

impl FileCtx {
    /// Derives the context from a workspace-relative path.
    pub fn from_path(path: &str) -> FileCtx {
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("ppdc")
            .to_string();
        FileCtx {
            path: path.to_string(),
            crate_name,
        }
    }
}

/// Runs every applicable rule over one file, returning raw (unsuppressed)
/// violations. Suppression handling is layered on in [`crate::allow`].
pub fn check_tokens(ctx: &FileCtx, toks: &[Tok], src: &str) -> Vec<Violation> {
    let in_test = test_regions(toks);
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::LineComment)
        .collect();
    let matches = match_open(toks, &code);
    // Reverse map: close position → its open, for backward chain walks.
    let mut open_of = vec![usize::MAX; code.len()];
    for (k, &m) in matches.iter().enumerate() {
        if m != k {
            open_of[m] = k;
        }
    }
    let mut out = Vec::new();

    let snippet = |line: u32| -> String {
        src.lines()
            .nth(line.saturating_sub(1) as usize)
            .unwrap_or("")
            .trim()
            .to_string()
    };
    let mut push = |rule: &str, line: u32, message: String| {
        out.push(Violation::new(
            rule,
            &ctx.path,
            line,
            message,
            snippet(line),
        ));
    };

    let sentinel = SENTINEL_CRATES.contains(&ctx.crate_name.as_str())
        && !SENTINEL_EXEMPT_FILES.contains(&ctx.path.as_str());
    let atomic = ATOMIC_CRATES.contains(&ctx.crate_name.as_str());

    for (k, &i) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let t = &toks[i];
        let prev = k.checked_sub(1).map(|p| &toks[code[p]]);
        let prev2 = k.checked_sub(2).map(|p| &toks[code[p]]);
        let next = code.get(k + 1).map(|&n| &toks[n]);

        if t.kind == TokKind::Ident {
            let id = t.text.as_str();
            let next_is =
                |s: &str| matches!(next, Some(n) if n.kind == TokKind::Punct && n.text == s);
            let prev_is =
                |s: &str| matches!(prev, Some(p) if p.kind == TokKind::Punct && p.text == s);

            if atomic
                && id == "Relaxed"
                && prev_is("::")
                && matches!(prev2, Some(p) if p.kind == TokKind::Ident && p.text == "Ordering")
            {
                push(
                    "relaxed-atomic",
                    t.line,
                    "`Ordering::Relaxed` in solver/sim code — atomics here gate cross-thread \
                     decisions (incumbent bounds, engine state); use Acquire/Release or stronger"
                        .to_string(),
                );
            }

            if (id == "reduce" || id == "fold") && prev_is(".") && next_is("(") {
                let open = k + 1;
                let close = matches[open];
                if close > open && par_chain_before(toks, &code, &open_of, k) {
                    for p in open + 1..close {
                        let op = &toks[code[p]];
                        if op.kind == TokKind::Punct
                            && matches!(op.text.as_str(), "-" | "/" | "-=" | "/=")
                            && is_binary_operand_before(toks, &code, p)
                        {
                            push(
                                "reduce-order",
                                op.line,
                                format!(
                                    "`{}` inside a rayon `{id}` closure — parallel reduction \
                                     order is scheduler-dependent, so non-commutative ops give \
                                     run-dependent results; reduce with +/max/min or collect \
                                     then fold sequentially",
                                    op.text
                                ),
                            );
                            break;
                        }
                    }
                }
            }

            if COMPARATOR_FNS.contains(&id) && prev_is(".") && next_is("(") {
                let open = k + 1;
                let close = matches[open];
                let float_evidence = (open + 1..close).any(|p| {
                    let e = &toks[code[p]];
                    (e.kind == TokKind::Ident && (e.text == "f32" || e.text == "f64"))
                        || (e.kind == TokKind::Literal && e.text.contains('.'))
                });
                let mut hit_lines: Vec<u32> = Vec::new();
                for p in open + 1..close {
                    let e = &toks[code[p]];
                    if e.kind == TokKind::Ident && e.text == "partial_cmp" {
                        if !hit_lines.contains(&e.line) {
                            hit_lines.push(e.line);
                            push(
                                "float-sort",
                                e.line,
                                format!(
                                    "`partial_cmp` in a `{id}` comparator — NaN makes the order \
                                     partial and the sort input-order-dependent; use `total_cmp`"
                                ),
                            );
                        }
                    } else if e.kind == TokKind::Punct
                        && (e.text == "<" || e.text == ">")
                        && float_evidence
                        && is_binary_operand_before(toks, &code, p)
                        && matches!(toks[code[p + 1]].kind, TokKind::Ident | TokKind::Literal)
                        && !hit_lines.contains(&e.line)
                    {
                        hit_lines.push(e.line);
                        push(
                            "float-sort",
                            e.line,
                            format!(
                                "raw `{}` on floats in a `{id}` comparator — partial order; \
                                 compare with `total_cmp` for a deterministic sort",
                                e.text
                            ),
                        );
                    }
                }
            }
        }

        if sentinel && t.kind == TokKind::Punct {
            let op = t.text.as_str();
            if matches!(op, "+" | "-" | "*" | "+=" | "-=" | "*=") {
                let neighbor_inf = [prev, next].iter().any(
                    |o| matches!(o, Some(n) if n.kind == TokKind::Ident && n.text == "INFINITY"),
                );
                if neighbor_inf {
                    push(
                        "raw-cost-arith",
                        t.line,
                        format!(
                            "raw `{op}` on the INFINITY sentinel — route through \
                             `sat_add`/`sat_mul` so the sentinel stays a fixed point"
                        ),
                    );
                }
            }
        }
    }
    out
}

/// Walks the method chain backward from the `.reduce`/`.fold` receiver,
/// looking for a rayon marker (`par_iter`, `into_par_iter`, `par_*`).
/// Matched groups are jumped over; any statement boundary stops the walk.
fn par_chain_before(toks: &[Tok], code: &[usize], open_of: &[usize], k: usize) -> bool {
    let mut cur = k;
    while cur >= 2 {
        cur -= 1;
        let t = &toks[code[cur]];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                ")" | "]" | "}" => {
                    let open = open_of[cur];
                    if open == usize::MAX || open == 0 {
                        return false;
                    }
                    cur = open;
                }
                ";" | "{" | "=" | "," | "(" => return false,
                _ => {}
            },
            TokKind::Ident if t.text.starts_with("par_") || t.text == "into_par_iter" => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// True when the token before position `p` can end a binary operand —
/// distinguishes binary `-`/`<` from unary minus / generics.
fn is_binary_operand_before(toks: &[Tok], code: &[usize], p: usize) -> bool {
    let Some(q) = p.checked_sub(1) else {
        return false;
    };
    let t = &toks[code[q]];
    match t.kind {
        TokKind::Ident => !is_keyword(&t.text),
        TokKind::Literal => true,
        TokKind::Punct => t.text == ")" || t.text == "]",
        _ => false,
    }
}

/// Convenience for tests and the engine: lex + check in one call.
pub fn check_source(ctx: &FileCtx, src: &str) -> Vec<Violation> {
    let toks = lex(src);
    check_tokens(ctx, &toks, src)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str) -> FileCtx {
        FileCtx::from_path(path)
    }

    fn rules_hit(path: &str, src: &str) -> Vec<String> {
        check_source(&ctx(path), src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn crate_name_derivation() {
        assert_eq!(ctx("crates/stroll/src/dp.rs").crate_name, "stroll");
        assert_eq!(ctx("src/lib.rs").crate_name, "ppdc");
    }

    #[test]
    fn lexical_pass_no_longer_owns_no_panic() {
        // Panic sites are the call-graph analysis's job now ­— the
        // per-file pass stays silent even in solver crates.
        let src = "fn f() { x.unwrap(); }";
        assert!(rules_hit("crates/stroll/src/dp.rs", src).is_empty());
    }

    #[test]
    fn sentinel_arith_flags_adjacent_ops_only() {
        let hot = "fn f(a: u64) -> u64 { a + INFINITY }";
        let cold = "fn f(n: usize) -> Vec<u64> { vec![INFINITY; n * n] }";
        assert_eq!(
            rules_hit("crates/topology/src/shortest.rs", hot),
            vec!["raw-cost-arith"]
        );
        assert!(rules_hit("crates/topology/src/shortest.rs", cold).is_empty());
        // The blessed files may do raw sentinel arithmetic.
        assert!(rules_hit("crates/model/src/cost.rs", hot).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_everywhere() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(a: u64) -> u64 { let t = a + INFINITY; \
                   t.load(Ordering::Relaxed) }\n}";
        assert!(rules_hit("crates/stroll/src/dp.rs", src).is_empty());
    }

    #[test]
    fn reduce_order_fires_on_subtraction_in_par_reduce() {
        let bad = "fn f(v: &[f64]) -> f64 { v.par_iter().copied().reduce(|| 0.0, |a, b| a - b) }";
        assert_eq!(
            rules_hit("crates/sim/src/stats.rs", bad),
            vec!["reduce-order"]
        );
        let fold = "fn f(v: &[f64]) -> f64 { v.par_chunks(64).fold(|| 0.0, |a, c| a / c.len() as f64).sum() }";
        assert_eq!(
            rules_hit("crates/sim/src/stats.rs", fold),
            vec!["reduce-order"]
        );
        // Commutative parallel reduce and serial fold are fine.
        let sum = "fn f(v: &[f64]) -> f64 { v.par_iter().copied().reduce(|| 0.0, f64::max) }";
        assert!(rules_hit("crates/sim/src/stats.rs", sum).is_empty());
        let serial = "fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a - b) }";
        assert!(rules_hit("crates/sim/src/stats.rs", serial).is_empty());
        // Unary minus in the identity closure is not a binary op.
        let unary = "fn f(v: &[f64]) -> f64 { v.par_iter().copied().reduce(|| -1.0, f64::max) }";
        assert!(rules_hit("crates/sim/src/stats.rs", unary).is_empty());
    }

    #[test]
    fn relaxed_atomic_scopes_to_solver_and_sim() {
        let src = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }";
        assert_eq!(
            rules_hit("crates/placement/src/dp.rs", src),
            vec!["relaxed-atomic"]
        );
        assert_eq!(
            rules_hit("crates/sim/src/fault.rs", src),
            vec!["relaxed-atomic"]
        );
        // The obs enabled-flag pattern stays legal; SeqCst is always fine.
        assert!(rules_hit("crates/obs/src/registry.rs", src).is_empty());
        let seqcst = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::SeqCst) }";
        assert!(rules_hit("crates/placement/src/dp.rs", seqcst).is_empty());
    }

    #[test]
    fn float_sort_fires_on_partial_cmp_comparators() {
        let bad = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(
            rules_hit("crates/sim/src/stats.rs", bad),
            vec!["float-sort"]
        );
        let raw = "fn f(v: &mut Vec<f64>) { v.sort_by(|a: &f64, b: &f64| if a < b { Less } else { Greater }); }";
        assert_eq!(
            rules_hit("crates/sim/src/stats.rs", raw),
            vec!["float-sort"]
        );
        let good = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(rules_hit("crates/sim/src/stats.rs", good).is_empty());
        // Integer comparators with `<` never fire (no float evidence).
        let ints =
            "fn f(v: &mut Vec<u64>) { v.sort_by(|a, b| if a < b { Less } else { Greater }); }";
        assert!(rules_hit("crates/sim/src/stats.rs", ints).is_empty());
    }

    #[test]
    fn new_rules_are_known_for_allows() {
        for id in [
            "reduce-order",
            "relaxed-atomic",
            "float-sort",
            "stale-allow",
            "bad-allow",
            "no-panic",
        ] {
            assert!(is_known_rule(id), "{id}");
        }
        assert!(!is_known_rule("no-such-rule"));
        // Retired onto clippy (`disallowed_types` / `disallowed_methods`).
        assert!(!is_known_rule("hash-iter"));
        assert!(!is_known_rule("nondeterminism"));
    }
}
