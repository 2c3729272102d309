//! Fixture suite: one good + one bad fixture per rule, the suppression
//! contract, the JSON schema round-trip, and the workspace-is-clean gate.
//! Casts, printing and discarded values are clippy denies declared in each
//! library crate's `lib.rs`, so they have no fixtures here.
//!
//! Fixtures live in `tests/fixtures/` (a subdirectory, so cargo never
//! compiles them) and are scanned under a synthetic in-crate path so the
//! rule scoping matches real workspace layout.

use ppdc_analyzer::report::Report;
use ppdc_analyzer::rules::FileCtx;
use ppdc_analyzer::{
    analyze_corpus, analyze_corpus_with, analyze_source, analyze_workspace, json, AnalyzeOptions,
};
use ppdc_obs::json::Value;

/// Scans a fixture as if it lived at `path` inside the workspace.
fn scan(path: &str, src: &str) -> (Vec<String>, usize) {
    let ctx = FileCtx::from_path(path);
    let (violations, suppressed) = analyze_source(&ctx, src);
    (violations.into_iter().map(|v| v.rule).collect(), suppressed)
}

#[test]
fn no_panic_bad_fixture_fails() {
    let (rules, _) = scan(
        "crates/stroll/src/fixture.rs",
        include_str!("fixtures/no_panic_bad.rs"),
    );
    assert_eq!(
        rules,
        vec!["no-panic"; 4],
        "unwrap, expect, panic!, unreachable!"
    );
}

#[test]
fn no_panic_good_fixture_passes() {
    let (rules, _) = scan(
        "crates/stroll/src/fixture.rs",
        include_str!("fixtures/no_panic_good.rs"),
    );
    assert!(
        rules.is_empty(),
        "typed errors + test-module panics are clean: {rules:?}"
    );
}

#[test]
fn raw_cost_arith_bad_fixture_fails() {
    let (rules, _) = scan(
        "crates/topology/src/fixture.rs",
        include_str!("fixtures/raw_cost_arith_bad.rs"),
    );
    assert_eq!(rules, vec!["raw-cost-arith"; 3]);
}

#[test]
fn raw_cost_arith_good_fixture_passes() {
    let (rules, _) = scan(
        "crates/topology/src/fixture.rs",
        include_str!("fixtures/raw_cost_arith_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn nondeterminism_bad_fixture_fails() {
    let (rules, _) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/nondeterminism_bad.rs"),
    );
    assert_eq!(
        rules,
        vec!["nondeterminism"; 3],
        "Instant::now, SystemTime, thread_rng"
    );
}

#[test]
fn nondeterminism_good_fixture_passes() {
    let (rules, _) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/nondeterminism_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn binaries_are_exempt_from_print_and_determinism_rules() {
    // Printing is clippy's (`print_stdout` & co., denied in each lib.rs,
    // so binaries are out of scope); the determinism half is ours.
    let (rules, _) = scan(
        "crates/experiments/src/main.rs",
        include_str!("fixtures/nondeterminism_bad.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn hash_iter_fixtures() {
    let (rules, _) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/hash_iter_bad.rs"),
    );
    assert_eq!(rules, vec!["hash-iter"; 2], "loop + .iter() drain");
    let (rules, _) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/hash_iter_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn reduce_order_fixtures() {
    let (rules, _) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/reduce_order_bad.rs"),
    );
    assert_eq!(rules, vec!["reduce-order"; 2], "par reduce + par fold");
    let (rules, _) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/reduce_order_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn relaxed_atomic_fixtures() {
    let (rules, _) = scan(
        "crates/placement/src/fixture.rs",
        include_str!("fixtures/relaxed_atomic_bad.rs"),
    );
    assert_eq!(rules, vec!["relaxed-atomic"; 2], "fetch_add + load");
    let (rules, _) = scan(
        "crates/placement/src/fixture.rs",
        include_str!("fixtures/relaxed_atomic_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn float_sort_fixtures() {
    let (rules, _) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/float_sort_bad.rs"),
    );
    assert_eq!(rules, vec!["float-sort"; 2], "sort_by + max_by");
    let (rules, _) = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/float_sort_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn panic_chain_spans_fixture_files() {
    // The reachability tentpole: the leaf's `.unwrap()` is reported in
    // the leaf file with the full cross-file call chain attached.
    let corpus = vec![
        (
            FileCtx::from_path("crates/sim/src/chain_entry.rs"),
            include_str!("fixtures/chain_entry.rs").to_string(),
        ),
        (
            FileCtx::from_path("crates/sim/src/chain_leaf.rs"),
            include_str!("fixtures/chain_leaf.rs").to_string(),
        ),
    ];
    let report = analyze_corpus(&corpus);
    assert_eq!(report.violations.len(), 1, "{}", report.render_human());
    let v = &report.violations[0];
    assert_eq!(v.rule, "no-panic");
    assert_eq!(v.file, "crates/sim/src/chain_leaf.rs");
    assert_eq!(v.chain.len(), 3, "run_day -> schedule_hour -> commit_slot");
    assert!(v.chain[0].contains("run_day"));
    assert!(v.chain[2].contains("commit_slot"));
    assert!(v.message.contains("run_day"), "{}", v.message);
}

#[test]
fn index_sites_report_only_in_strict_mode() {
    // Dense id-indexed tables are the workspace idiom: reachable raw
    // index sites surface under --index-panics, not in the default gate.
    let corpus = vec![(
        FileCtx::from_path("crates/stroll/src/fixture.rs"),
        "pub fn optimal_hop(dist: &[u64], v: usize) -> u64 { dist[v] }\n".to_string(),
    )];
    assert!(analyze_corpus(&corpus).is_clean());
    let strict = analyze_corpus_with(&corpus, AnalyzeOptions { index_panics: true });
    assert_eq!(strict.violations.len(), 1, "{}", strict.render_human());
    assert_eq!(strict.violations[0].rule, "no-panic");
    assert!(strict.violations[0]
        .message
        .contains("raw index expression"));
}

#[test]
fn reasoned_allows_suppress_all_forms() {
    let (rules, suppressed) = scan(
        "crates/stroll/src/fixture.rs",
        include_str!("fixtures/allow_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
    assert_eq!(suppressed, 4, "own-line, trailing, and two stacked waivers");
}

#[test]
fn reasonless_or_unknown_allows_are_violations_and_do_not_suppress() {
    let (rules, suppressed) = scan(
        "crates/stroll/src/fixture.rs",
        include_str!("fixtures/allow_bad.rs"),
    );
    assert_eq!(suppressed, 0);
    assert_eq!(
        rules.iter().filter(|r| *r == "bad-allow").count(),
        2,
        "missing reason + unknown rule: {rules:?}"
    );
    assert_eq!(
        rules.iter().filter(|r| *r == "no-panic").count(),
        2,
        "broken allows must not suppress their targets: {rules:?}"
    );
}

#[test]
fn json_report_round_trips_through_the_schema() {
    // Build a report from a real scan so the round-trip covers live data,
    // not a hand-picked happy path.
    let ctx = FileCtx::from_path("crates/stroll/src/fixture.rs");
    let (violations, suppressed) = analyze_source(&ctx, include_str!("fixtures/no_panic_bad.rs"));
    let mut report = Report {
        violations,
        files_scanned: 1,
        suppressed,
        allows: 0,
    };
    report.sort();
    assert!(!report.violations.is_empty());
    let doc = ppdc_obs::json::parse(&json::to_json(&report)).expect("to_json writes valid JSON");
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64);
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    assert_eq!(num(&doc, "files_scanned"), Some(1));
    assert_eq!(num(&doc, "suppressed"), u64::try_from(suppressed).ok());
    assert_eq!(num(&doc, "allows"), Some(0));
    let violations = doc
        .get("violations")
        .and_then(Value::as_arr)
        .expect("violations");
    assert_eq!(violations.len(), report.violations.len());
    for (got, want) in violations.iter().zip(&report.violations) {
        assert_eq!(got.as_obj().map(|m| m.len()), Some(6), "closed key set");
        assert_eq!(text(got, "rule").as_ref(), Some(&want.rule));
        assert_eq!(text(got, "file").as_ref(), Some(&want.file));
        assert_eq!(num(got, "line"), Some(u64::from(want.line)));
        assert_eq!(text(got, "message").as_ref(), Some(&want.message));
        assert_eq!(text(got, "snippet").as_ref(), Some(&want.snippet));
        let chain = got.get("chain").and_then(Value::as_arr).expect("chain");
        assert!(!chain.is_empty(), "no-panic findings carry call chains");
        let frames: Vec<&str> = chain.iter().filter_map(Value::as_str).collect();
        assert_eq!(frames, want.chain);
    }
}

#[test]
fn retired_rules_are_clippy_denies_in_every_library_crate() {
    // The print, discarded-value and cast checks are clippy denies: they
    // hold only while each library crate's lib.rs declares them.
    let start = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = ppdc_analyzer::find_workspace_root(&start).expect("workspace root");
    let mut libs = vec![("ppdc".to_string(), root.join("src/lib.rs"))];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let dir = entry.expect("crate entry").path();
        let name = dir
            .file_name()
            .expect("crate name")
            .to_string_lossy()
            .into_owned();
        libs.push((name, dir.join("src/lib.rs")));
    }
    let cost_crates = [
        "topology",
        "model",
        "stroll",
        "placement",
        "migration",
        "mcflow",
    ];
    for (name, lib) in libs {
        let src = std::fs::read_to_string(&lib).expect("lib.rs");
        for deny in [
            "#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]",
            "#![deny(clippy::let_underscore_untyped, clippy::unused_result_ok)]",
        ] {
            assert!(src.contains(deny), "{name}: missing {deny}");
        }
        assert_eq!(
            src.contains("#![deny(clippy::as_conversions)]"),
            cost_crates.contains(&name.as_str()),
            "{name}: as_conversions is denied in exactly the cost crates"
        );
    }
}

#[test]
fn workspace_is_clean() {
    // The acceptance gate: zero violations across the live workspace —
    // every pre-existing finding either fixed or carrying a reasoned
    // `analyzer:allow`. Runs from the crate dir; the engine walks up to
    // the workspace root.
    let start = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let report = analyze_workspace(&start).expect("workspace scan");
    assert!(report.files_scanned > 40, "scan must cover the workspace");
    assert!(
        report.is_clean(),
        "workspace has analyzer violations:\n{}",
        report.render_human()
    );
}
