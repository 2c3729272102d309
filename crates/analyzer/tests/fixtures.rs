//! Fixture suite: one good + one bad fixture per rule, and the
//! workspace-is-clean gate. Panics, casts, printing and discarded values
//! are clippy denies declared in each library crate's `lib.rs`, and hash
//! containers, wall clocks and unseeded RNG are banned by per-crate
//! `clippy.toml` files, so their fixtures check only that the clippy
//! configuration covers what they use.
//!
//! Fixtures live in `tests/fixtures/` (a subdirectory, so cargo never
//! compiles them) and are scanned under a synthetic in-crate path so the
//! rule scoping matches real workspace layout.

use ppdc_analyzer::lexer::{lex, test_regions, TokKind};
use ppdc_analyzer::rules::{check_source, FileCtx};
use ppdc_analyzer::{analyze_workspace, workspace_files};

fn workspace_root() -> std::path::PathBuf {
    let start = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    ppdc_analyzer::find_workspace_root(&start).expect("workspace root")
}

/// Scans a fixture as if it lived at `path` inside the workspace.
fn scan(path: &str, src: &str) -> Vec<String> {
    check_source(&FileCtx::from_path(path), src)
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

// `no-panic` is clippy's: the panic family is denied in each library crate
// the solvers and the day loop run through. `experiments` (the figure
// harness), `analyzer` and `bench` are tools, not engine code.
const PANIC_FREE_CRATES: [&str; 10] = [
    "ppdc",
    "topology",
    "model",
    "stroll",
    "mcflow",
    "placement",
    "migration",
    "traffic",
    "sim",
    "obs",
];
const PANIC_DENIES: [&str; 2] = [
    "#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented)]",
    "#![deny(clippy::todo, clippy::unwrap_used, clippy::expect_used)]",
];
/// The panicking construct behind each panic-family lint.
const PANIC_FAMILY: [(&str, &str); 6] = [
    ("panic", "panic"),
    ("unreachable", "unreachable"),
    ("todo", "todo"),
    ("unimplemented", "unimplemented"),
    ("unwrap", "unwrap_used"),
    ("expect", "expect_used"),
];
/// Reasoned `#[expect(clippy::<panic-family lint>, reason = ..)]` waivers
/// allowed across the panic-free crates. Raise it only with a reason that
/// review accepts; a stale one already fails the build
/// (`unfulfilled_lint_expectations`).
const PANIC_EXPECT_CAP: usize = 12;

fn lib_rs(krate: &str) -> String {
    let root = workspace_root();
    let path = if krate == "ppdc" {
        root.join("src/lib.rs")
    } else {
        root.join("crates").join(krate).join("src/lib.rs")
    };
    std::fs::read_to_string(path).expect("lib.rs")
}

/// The panic-family constructs a fixture uses outside its test modules.
fn live_panic_lints(src: &str) -> Vec<&'static str> {
    let toks = lex(src);
    let in_test = test_regions(&toks);
    let mut lints: Vec<&'static str> = toks
        .iter()
        .zip(in_test)
        .filter(|(t, test)| !test && t.kind == TokKind::Ident)
        .filter_map(|(t, _)| PANIC_FAMILY.iter().find(|(name, _)| t.text == *name))
        .map(|&(_, lint)| lint)
        .collect();
    lints.sort_unstable();
    lints.dedup();
    lints
}

#[test]
fn no_panic_bad_fixture_fails() {
    let bad = include_str!("fixtures/no_panic_bad.rs");
    let lints = live_panic_lints(bad);
    assert_eq!(
        lints,
        ["expect_used", "panic", "unreachable", "unwrap_used"],
        "unwrap, expect, panic!, unreachable!"
    );
    for krate in PANIC_FREE_CRATES {
        let src = lib_rs(krate);
        for lint in &lints {
            let lint = format!("clippy::{lint}");
            assert!(
                PANIC_DENIES
                    .iter()
                    .any(|deny| deny.contains(lint.as_str()) && src.contains(deny)),
                "{krate}: {lint} is not denied"
            );
        }
    }
}

#[test]
fn no_panic_good_fixture_passes() {
    let good = include_str!("fixtures/no_panic_good.rs");
    assert!(live_panic_lints(good).is_empty(), "typed errors only");
    assert!(good.contains("unwrap()"), "its test module still panics");
    // Test modules opt back in, so the good fixture's test module is clean.
    for krate in PANIC_FREE_CRATES {
        let src = lib_rs(krate);
        for allow in [
            "#![cfg_attr(test, allow(clippy::panic, clippy::unreachable, clippy::unimplemented))]",
            "#![cfg_attr(test, allow(clippy::todo, clippy::unwrap_used, clippy::expect_used))]",
        ] {
            assert!(src.contains(allow), "{krate}: test code lacks {allow}");
        }
    }
}

#[test]
fn raw_cost_arith_bad_fixture_fails() {
    let rules = scan(
        "crates/topology/src/fixture.rs",
        include_str!("fixtures/raw_cost_arith_bad.rs"),
    );
    assert_eq!(rules, vec!["raw-cost-arith"; 3]);
}

#[test]
fn raw_cost_arith_good_fixture_passes() {
    let rules = scan(
        "crates/topology/src/fixture.rs",
        include_str!("fixtures/raw_cost_arith_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn binaries_are_exempt_from_print_and_determinism_rules() {
    // Printing is denied in each lib.rs, so binaries are out of scope; the
    // wall-clock ban is a per-crate `clippy.toml` that the experiments
    // binary (which times whole runs) opts out of at its crate root.
    let root = workspace_root();
    let main =
        std::fs::read_to_string(root.join("crates/experiments/src/main.rs")).expect("main.rs");
    assert!(
        main.contains("#![allow(") && main.contains("clippy::disallowed_methods"),
        "bin-root allow missing"
    );
    assert!(!main.contains("clippy::print_stdout"), "binaries may print");
}

// `hash-iter` and `nondeterminism` are clippy's: hash containers are
// `disallowed_types` in the solver and deterministic crates, wall clocks
// and unseeded RNG `disallowed_methods` in the deterministic ones. Each
// holds only while the crate's `clippy.toml` lists what its bad fixture
// uses and nothing its good fixture needs.
const HASHED_CRATES: [&str; 7] = [
    "stroll",
    "placement",
    "migration",
    "mcflow",
    "sim",
    "traffic",
    "experiments",
];
const CLOCKED_CRATES: [&str; 3] = ["sim", "traffic", "experiments"];

/// The `path = "..."` entries of one list (`disallowed-types` or
/// `disallowed-methods`) in a crate's `clippy.toml`.
fn disallowed(krate: &str, list: &str) -> Vec<String> {
    let path = workspace_root()
        .join("crates")
        .join(krate)
        .join("clippy.toml");
    let cfg = std::fs::read_to_string(&path).unwrap_or_default();
    let mut current = "";
    let mut out = Vec::new();
    for line in cfg.lines().map(str::trim) {
        if let Some((key, _)) = line.split_once('=').filter(|_| line.ends_with('[')) {
            current = key.trim();
        } else if current == list {
            if let Some(rest) = line.split_once("path = \"").map(|(_, r)| r) {
                out.extend(rest.split('"').next().map(str::to_string));
            }
        }
    }
    out
}

#[test]
fn hash_iter_fixtures() {
    let bad = include_str!("fixtures/hash_iter_bad.rs");
    let good = include_str!("fixtures/hash_iter_good.rs");
    for krate in HASHED_CRATES {
        let types = disallowed(krate, "disallowed-types");
        assert_eq!(
            types,
            ["std::collections::HashMap", "std::collections::HashSet"],
            "{krate}: hash containers not disallowed"
        );
        for ty in &types {
            assert!(
                bad.contains(ty.as_str()),
                "{krate}: bad fixture never uses {ty}"
            );
            let name = ty.rsplit("::").next().unwrap_or(ty);
            assert!(!good.contains(name), "{krate}: good fixture uses {name}");
        }
    }
}

#[test]
fn nondeterminism_bad_fixture_fails() {
    let bad = include_str!("fixtures/nondeterminism_bad.rs");
    for krate in HASHED_CRATES {
        let methods = disallowed(krate, "disallowed-methods");
        if !CLOCKED_CRATES.contains(&krate) {
            assert!(
                methods.is_empty(),
                "{krate}: clocks are allowed here: {methods:?}"
            );
            continue;
        }
        assert_eq!(
            methods,
            [
                "std::time::Instant::now",
                "std::time::SystemTime::now",
                "rand::thread_rng"
            ],
            "{krate}: Instant::now, SystemTime, thread_rng"
        );
        for method in &methods {
            assert!(
                bad.contains(&format!("{method}()")),
                "{krate}: bad fixture never calls {method}"
            );
        }
    }
}

#[test]
fn nondeterminism_good_fixture_passes() {
    let good = include_str!("fixtures/nondeterminism_good.rs");
    for krate in CLOCKED_CRATES {
        let methods = disallowed(krate, "disallowed-methods");
        assert!(!methods.is_empty(), "{krate}: no disallowed methods");
        for method in &methods {
            let name = method.rsplit("::").next().unwrap_or(method);
            assert!(
                !good.contains(&format!("{name}(")),
                "{krate}: good fixture calls {method}"
            );
        }
    }
}

#[test]
fn relaxed_atomic_fixtures() {
    let rules = scan(
        "crates/placement/src/fixture.rs",
        include_str!("fixtures/relaxed_atomic_bad.rs"),
    );
    assert_eq!(rules, vec!["relaxed-atomic"; 2], "fetch_add + load");
    let rules = scan(
        "crates/placement/src/fixture.rs",
        include_str!("fixtures/relaxed_atomic_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn float_sort_fixtures() {
    let rules = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/float_sort_bad.rs"),
    );
    assert_eq!(rules, vec!["float-sort"; 2], "sort_by + max_by");
    let rules = scan(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/float_sort_good.rs"),
    );
    assert!(rules.is_empty(), "{rules:?}");
}

#[test]
fn retired_rules_are_clippy_denies_in_every_library_crate() {
    // The print, discarded-value and cast checks are clippy denies: they
    // hold only while each library crate's lib.rs declares them.
    let root = workspace_root();
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
        assert_eq!(
            PANIC_DENIES.iter().all(|deny| src.contains(deny)),
            PANIC_FREE_CRATES.contains(&name.as_str()),
            "{name}: the panic family is denied in exactly the panic-free crates"
        );
    }

    // Every waiver of the panic family is a reasoned `#[expect]` (an
    // `#[allow]` would not fail the build once it went stale), and there
    // are at most PANIC_EXPECT_CAP of them.
    let mut waivers = Vec::new();
    for path in workspace_files(&root).expect("scan set") {
        let src = std::fs::read_to_string(&path).expect("source file");
        for opener in ["#[expect(", "#[allow(", "#![expect(", "#![allow("] {
            for (at, _) in src.match_indices(opener) {
                let attr = &src[at..];
                let attr = &attr[..attr.find(")]").unwrap_or(attr.len())];
                let waives_panic = attr
                    .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                    .any(|word| {
                        PANIC_FAMILY
                            .iter()
                            .any(|(_, lint)| word.strip_prefix("clippy::") == Some(lint))
                    });
                if waives_panic {
                    let site = format!("{}: {attr}", path.display());
                    assert!(opener == "#[expect(", "not an outer #[expect]: {site}");
                    assert!(attr.contains("reason = "), "no reason: {site}");
                    waivers.push(site);
                }
            }
        }
    }
    assert!(
        waivers.len() <= PANIC_EXPECT_CAP,
        "{} panic-family #[expect]s, cap {PANIC_EXPECT_CAP}: {waivers:#?}",
        waivers.len()
    );
}

#[test]
fn workspace_is_clean() {
    // The acceptance gate: zero violations across the live workspace.
    // Runs from the crate dir; the engine walks up to the workspace root.
    let start = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let report = analyze_workspace(&start).expect("workspace scan");
    assert!(report.files_scanned > 40, "scan must cover the workspace");
    assert!(
        report.is_clean(),
        "workspace has analyzer violations:\n{}",
        report.render_human()
    );
}
