//! `ppdc-analyzer` — the workspace's project-specific lint engine.
//!
//! Fully offline and dependency-free. It keeps only the lexical rules
//! clippy has no lint for: one [`lexer`] feeds the per-file token rules in
//! [`rules`] (raw sentinel math, relaxed atomics, float sort keys), and [`report`] renders rustc-style human output.
//! A finding is fixed, not waived: there is no suppression syntax.
//!
//! Checks clippy already makes — panics, bare casts, printing, discarded
//! values — are crate-level clippy denies, not analyzer rules (DESIGN.md
//! §6b).
//!
//! Run it as a binary (`cargo run --release -p ppdc-analyzer -- --workspace`,
//! a `ci.sh` gate) or use [`analyze_corpus`] / [`analyze_workspace`] as a
//! library (the fixture suite does).

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

pub mod lexer;
pub mod report;
pub mod rules;

use report::Report;
use rules::FileCtx;
use std::path::{Path, PathBuf};

/// Runs every per-file rule over an in-memory corpus of
/// `(context, source)` files and returns the sorted report.
pub fn analyze_corpus(files: &[(FileCtx, String)]) -> Report {
    let mut report = Report::default();
    for (ctx, src) in files {
        report.violations.extend(rules::check_source(ctx, src));
        report.files_scanned += 1;
    }
    report.sort();
    report
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

/// Scans an explicit file list, scoping each file by its path relative
/// to `root`, and returns the sorted report.
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> Result<Report, AnalyzerError> {
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
    Ok(analyze_corpus(&corpus))
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
    fn corpus_report_is_sorted_and_counts_every_file() {
        let corpus = vec![
            (
                FileCtx::from_path("crates/stroll/src/dp.rs"),
                "fn f(a: u64) -> u64 { a + INFINITY }".to_string(),
            ),
            (
                FileCtx::from_path("crates/sim/src/clean.rs"),
                "fn g() {}".to_string(),
            ),
            (
                FileCtx::from_path("crates/placement/src/dp.rs"),
                "fn h(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }".to_string(),
            ),
        ];
        let report = analyze_corpus(&corpus);
        assert_eq!(report.files_scanned, 3);
        let found: Vec<(&str, &str)> = report
            .violations
            .iter()
            .map(|v| (v.file.as_str(), v.rule.as_str()))
            .collect();
        assert_eq!(
            found,
            [
                ("crates/placement/src/dp.rs", "relaxed-atomic"),
                ("crates/stroll/src/dp.rs", "raw-cost-arith"),
            ]
        );
    }
}
