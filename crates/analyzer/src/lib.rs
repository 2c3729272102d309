//! `ppdc-analyzer` — the workspace's project-specific lint engine.
//!
//! Fully offline; it shares the zero-dependency `ppdc-obs` JSON codec.
//! Two analysis layers share one [`lexer`]:
//!
//! * **per-file token rules** ([`rules`]) — raw sentinel math,
//!   seeded-RNG determinism, plus the v2 determinism/concurrency pack
//!   (hash iteration, rayon reduce order, relaxed atomics, float sort
//!   keys);
//! * **whole-corpus analyses** — [`syntax`] recovers an item outline and
//!   per-fn facts from each file, [`callgraph`] stitches them into a
//!   workspace call graph and runs panic reachability from the solver/sim
//!   entrypoints, attaching the full call chain to every diagnostic.
//!
//! Inline [`allow`] directives waive individual findings *with a
//! mandatory reason*; allows that stop suppressing anything become
//! `stale-allow` violations. [`report`] renders rustc-style human output
//! and [`json`] writes the machine-readable schema (including call chains
//! and the allow count that `analyzer-baseline.json` caps).
//!
//! Checks clippy already makes — bare casts, printing, discarded values —
//! are crate-level clippy denies, not analyzer rules (DESIGN.md §6).
//!
//! Run it as a binary (`cargo run --release -p ppdc-analyzer -- --workspace`,
//! a `ci.sh` gate) or use [`analyze_source`] / [`analyze_corpus`] /
//! [`analyze_workspace`] as a library (the fixture suite does).

// Library code reports through return values and telemetry, never
// stdout/stderr, and never drops a value without naming it. Binaries,
// tests, benches and examples print by design and are out of scope.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::let_underscore_untyped, clippy::unused_result_ok)]
#![cfg_attr(
    test,
    allow(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![cfg_attr(test, allow(clippy::let_underscore_untyped, clippy::unused_result_ok))]

pub mod allow;
pub mod baseline;
pub mod callgraph;
pub mod json;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;

use report::Report;
use rules::FileCtx;
use std::path::{Path, PathBuf};

/// Tuning knobs for the corpus pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOptions {
    /// Also report reachable **raw index expressions** (`v[i]`, `v[a..b]`),
    /// not just the abort family (`panic!`-like macros, `.unwrap()`,
    /// `.expect(..)`). Off by default — dense id-indexed flat arenas are
    /// this workspace's deliberate core idiom (node-id tables, stroll
    /// arenas, checkpoint cursors), all in-bounds by construction, and
    /// flagging every `dist[v]` would bury the abort-class signal the
    /// crash-safety guarantees actually rest on. `--index-panics` turns
    /// this on for audits; the detector and chains are fixture-tested
    /// either way.
    pub index_panics: bool,
}

/// Runs the full pipeline — per-file rules, the workspace call graph
/// with panic reachability, suppression, stale-allow detection — over an
/// in-memory corpus of `(context, source)` files.
pub fn analyze_corpus(files: &[(FileCtx, String)]) -> Report {
    analyze_corpus_with(files, AnalyzeOptions::default())
}

/// [`analyze_corpus`] with explicit [`AnalyzeOptions`].
pub fn analyze_corpus_with(files: &[(FileCtx, String)], opts: AnalyzeOptions) -> Report {
    let mut report = Report::default();
    let mut per_file: Vec<Vec<report::Violation>> = Vec::with_capacity(files.len());
    let mut lexed = Vec::with_capacity(files.len());
    let mut outlines = Vec::with_capacity(files.len());
    for (ctx, src) in files {
        let toks = lexer::lex(src);
        per_file.push(rules::check_tokens(ctx, &toks, src));
        outlines.push((ctx.path.clone(), syntax::outline_of(&toks)));
        lexed.push(toks);
    }

    let graph = callgraph::CallGraph::build(&outlines);
    for finding in callgraph::panic_reachability(&graph) {
        if finding.kind == syntax::PanicKind::Index && !opts.index_panics {
            continue;
        }
        let Some(fi) = files.iter().position(|(c, _)| c.path == finding.file) else {
            continue;
        };
        let snippet = files[fi]
            .1
            .lines()
            .nth(finding.line.saturating_sub(1) as usize)
            .unwrap_or("")
            .trim()
            .to_string();
        per_file[fi].push(report::Violation {
            chain: finding.chain.clone(),
            ..report::Violation::new(
                "no-panic",
                &finding.file,
                finding.line,
                format!(
                    "{} reachable from entrypoint `{}` ({} call frame(s)) — return a typed \
                     error or justify the invariant with an allow",
                    finding.kind_label,
                    finding.entry,
                    finding.chain.len()
                ),
                snippet,
            )
        });
    }

    for (fi, (ctx, src)) in files.iter().enumerate() {
        let (allows, mut bad) = allow::collect_allows(ctx, &lexed[fi], src);
        let mut violations = std::mem::take(&mut per_file[fi]);
        violations.append(&mut bad);
        let (mut kept, suppressed, used) = allow::apply_allows(violations, &allows);
        kept.extend(allow::stale_allow_violations(ctx, src, &allows, &used));
        report.violations.append(&mut kept);
        report.suppressed += suppressed;
        report.allows += allows.len();
        report.files_scanned += 1;
    }
    report.sort();
    report
}

/// Analyzes one file's source under the given context: the corpus
/// pipeline over a corpus of one. Returns the surviving violations and
/// the count suppressed. Note that panic reachability only fires when the
/// file itself contains an entrypoint — cross-file chains need
/// [`analyze_corpus`].
pub fn analyze_source(ctx: &FileCtx, src: &str) -> (Vec<report::Violation>, usize) {
    let report = analyze_corpus(&[(ctx.clone(), src.to_string())]);
    (report.violations, report.suppressed)
}

/// Errors from the filesystem-walking entry points.
#[derive(Debug)]
pub enum AnalyzerError {
    /// No workspace root (a `Cargo.toml` containing `[workspace]`) was
    /// found above the start directory.
    NoWorkspaceRoot(PathBuf),
    /// A file or directory could not be read.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzerError::NoWorkspaceRoot(p) => {
                write!(f, "no workspace Cargo.toml found above {}", p.display())
            }
            AnalyzerError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for AnalyzerError {}

/// Finds the workspace root by walking up from `start` until a
/// `Cargo.toml` declaring `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, AnalyzerError> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| AnalyzerError::Io(manifest.clone(), e))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(AnalyzerError::NoWorkspaceRoot(start.to_path_buf()));
        }
    }
}

/// The scan set for `--workspace`: every `.rs` file under the root
/// package's `src/` and under `crates/*/src/`. Vendored stand-in crates,
/// integration tests, benches, and examples are out of scope — the rules
/// govern library and binary *product* code.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, AnalyzerError> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries =
            std::fs::read_dir(&crates_dir).map_err(|e| AnalyzerError::Io(crates_dir.clone(), e))?;
        let mut crate_dirs: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| AnalyzerError::Io(crates_dir.clone(), e))?;
            if entry.path().is_dir() {
                crate_dirs.push(entry.path());
            }
        }
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs(&dir.join("src"), &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), AnalyzerError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| AnalyzerError::Io(dir.to_path_buf(), e))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| AnalyzerError::Io(dir.to_path_buf(), e))?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Scans an explicit file list (workspace-relative contexts derived from
/// the paths) as one corpus — the call graph spans all of them — and
/// returns the sorted report.
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> Result<Report, AnalyzerError> {
    analyze_files_with(root, files, AnalyzeOptions::default())
}

/// [`analyze_files`] with explicit [`AnalyzeOptions`].
pub fn analyze_files_with(
    root: &Path,
    files: &[PathBuf],
    opts: AnalyzeOptions,
) -> Result<Report, AnalyzerError> {
    let mut corpus = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path).map_err(|e| AnalyzerError::Io(path.clone(), e))?;
        corpus.push((FileCtx::from_path(&rel), src));
    }
    Ok(analyze_corpus_with(&corpus, opts))
}

/// The `--workspace` entry point: discover the root, scan the product
/// code, report.
pub fn analyze_workspace(start: &Path) -> Result<Report, AnalyzerError> {
    let root = find_workspace_root(start)?;
    let files = workspace_files(&root)?;
    analyze_files(&root, &files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_source_suppresses_with_reason() {
        let ctx = FileCtx::from_path("crates/stroll/src/dp.rs");
        let src = "\
// analyzer:allow(no-panic) -- seeded at construction, cannot be empty
pub fn optimal_pick(v: &[u32]) -> u32 { *v.last().expect(\"seeded\") }
pub fn optimal_next(v: &[u32]) -> u32 { *v.last().unwrap() }
";
        let (violations, suppressed) = analyze_source(&ctx, src);
        assert_eq!(suppressed, 1);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].line, 3);
        assert!(
            !violations[0].chain.is_empty(),
            "reachability carries chains"
        );
    }

    #[test]
    fn reasonless_allow_surfaces_as_bad_allow() {
        let ctx = FileCtx::from_path("crates/stroll/src/dp.rs");
        let src =
            "// analyzer:allow(no-panic)\npub fn optimal_f(v: &[u32]) -> u32 { *v.last().unwrap() }\n";
        let (violations, suppressed) = analyze_source(&ctx, src);
        assert_eq!(suppressed, 0);
        let rules: Vec<&str> = violations.iter().map(|v| v.rule.as_str()).collect();
        assert!(rules.contains(&"bad-allow"));
        assert!(
            rules.contains(&"no-panic"),
            "reasonless allow must not suppress"
        );
    }

    #[test]
    fn corpus_reports_cross_file_chains_and_counts_allows() {
        let corpus = vec![
            (
                FileCtx::from_path("crates/sim/src/fault.rs"),
                "pub fn run_day() { step_hour(); }".to_string(),
            ),
            (
                FileCtx::from_path("crates/sim/src/engine.rs"),
                "pub fn step_hour() { persist(); }\n\
                 // analyzer:allow(raw-cost-arith) -- stats only, bounded by n_hours\n\
                 pub fn width(n: u64) -> u64 { n + 1 }\n"
                    .to_string(),
            ),
            (
                FileCtx::from_path("crates/sim/src/checkpoint.rs"),
                "pub fn persist() { SLOT.lock().unwrap(); }".to_string(),
            ),
        ];
        let report = analyze_corpus(&corpus);
        // `width` does no sentinel arithmetic, so that allow is stale.
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule.as_str()).collect();
        assert!(rules.contains(&"no-panic"));
        assert!(rules.contains(&"stale-allow"));
        let np = report
            .violations
            .iter()
            .find(|v| v.rule == "no-panic")
            .unwrap();
        assert_eq!(np.file, "crates/sim/src/checkpoint.rs");
        assert_eq!(np.chain.len(), 3, "run_day -> step_hour -> persist");
        assert!(np.chain[0].contains("run_day"));
        assert_eq!(report.allows, 1);
        assert_eq!(report.files_scanned, 3);
    }

    #[test]
    fn stale_allow_fires_when_the_finding_disappears() {
        let ctx = FileCtx::from_path("crates/stroll/src/dp.rs");
        let src = "// analyzer:allow(no-panic) -- table seeded at build\n\
                   pub fn optimal_f(v: &[u64]) -> u64 { v[0] + INFINITY }\n";
        let (violations, _) = analyze_source(&ctx, src);
        let rules: Vec<&str> = violations.iter().map(|v| v.rule.as_str()).collect();
        assert!(rules.contains(&"stale-allow"), "{rules:?}");
        assert!(
            rules.contains(&"raw-cost-arith"),
            "stroll circulates the sentinel"
        );
    }
}
