//! Violation and report types, with human (diff-style) rendering.
//!
//! The machine-readable JSON writer lives in [`crate::json`]; the structs
//! here carry the workspace `Serialize`/`Deserialize` derives so the
//! schema is declared where the data is (the vendored serde stand-in is
//! marker-only, so the bytes are written by hand — see `json.rs` for the
//! round-trip tests through `ppdc_obs::json`).

use serde::{Deserialize, Serialize};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Rule id (`no-panic`, `raw-cost-arith`, the determinism/concurrency
    /// pack (`reduce-order`, `relaxed-atomic`, `float-sort`), or the
    /// meta-rules `bad-allow`/`stale-allow`).
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// What went wrong, phrased for the human report.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// For reachability rules: the entrypoint→site call chain, one
    /// `name (file:line)` frame per hop. Empty for per-site rules.
    pub chain: Vec<String>,
}

impl Violation {
    /// A chain-less violation (the common case for per-site rules).
    pub fn new(rule: &str, file: &str, line: u32, message: String, snippet: String) -> Violation {
        Violation {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message,
            snippet,
            chain: Vec::new(),
        }
    }
}

/// A full analysis run: every violation plus scan statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Report {
    /// All violations, ordered by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of `analyzer:allow` suppressions that matched a violation.
    pub suppressed: usize,
    /// Number of valid (reasoned, known-rule) `analyzer:allow` directives
    /// in the scanned files — the quantity the committed baseline caps.
    pub allows: usize,
}

impl Report {
    /// True when the scan found nothing.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Sorts violations into the canonical (file, line, rule) order.
    pub fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }

    /// Renders the rustc-style human report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!("error[{}]: {}\n", v.rule, v.message));
            out.push_str(&format!("  --> {}:{}\n", v.file, v.line));
            out.push_str("   |\n");
            out.push_str(&format!("{:>3}| {}\n", v.line, v.snippet));
            out.push_str("   |\n");
            if !v.chain.is_empty() {
                out.push_str("   = call chain:\n");
                for (depth, frame) in v.chain.iter().enumerate() {
                    out.push_str(&format!("   {}  {}\n", "  ".repeat(depth), frame));
                }
            }
        }
        out.push_str(&format!(
            "ppdc-analyzer: {} violation(s), {} suppression(s) honored, {} allow(s), \
             {} file(s) scanned\n",
            self.violations.len(),
            self.suppressed,
            self.allows,
            self.files_scanned
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            violations: vec![
                Violation {
                    chain: vec![
                        "run_day (crates/sim/src/fault.rs:662)".into(),
                        "f (crates/x/src/lib.rs:6)".into(),
                    ],
                    ..Violation::new(
                        "no-panic",
                        "crates/x/src/lib.rs",
                        7,
                        "`.unwrap()` reachable from entrypoint `run_day`".into(),
                        "let v = x.unwrap();".into(),
                    )
                },
                Violation::new(
                    "raw-cost-arith",
                    "crates/a/src/lib.rs",
                    3,
                    "raw `+` on the INFINITY sentinel".into(),
                    "let y = z + INFINITY;".into(),
                ),
            ],
            files_scanned: 2,
            suppressed: 1,
            allows: 4,
        }
    }

    #[test]
    fn sort_orders_by_file_line_rule() {
        let mut r = sample();
        r.sort();
        assert_eq!(r.violations[0].file, "crates/a/src/lib.rs");
        assert_eq!(r.violations[1].file, "crates/x/src/lib.rs");
    }

    #[test]
    fn human_render_names_rule_file_and_line() {
        let r = sample();
        let s = r.render_human();
        assert!(s.contains("error[no-panic]"));
        assert!(s.contains("crates/x/src/lib.rs:7"));
        assert!(s.contains("2 violation(s)"));
        assert!(s.contains("1 suppression(s)"));
        assert!(s.contains("4 allow(s)"));
        assert!(s.contains("call chain:"));
        assert!(s.contains("run_day (crates/sim/src/fault.rs:662)"));
    }

    #[test]
    fn clean_report_says_zero() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.render_human().contains("0 violation(s)"));
    }
}
