//! Violation and report types, with rustc-style human rendering.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`raw-cost-arith`, `relaxed-atomic` or `float-sort`).
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// What went wrong, phrased for the human report.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A full analysis run: every violation plus the scanned-file count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// All violations, ordered by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
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
        }
        out.push_str(&format!(
            "ppdc-analyzer: {} violation(s), {} file(s) scanned\n",
            self.violations.len(),
            self.files_scanned
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(rule: &str, file: &str, line: u32, message: &str, snippet: &str) -> Violation {
        Violation {
            rule: rule.into(),
            file: file.into(),
            line,
            message: message.into(),
            snippet: snippet.into(),
        }
    }

    fn sample() -> Report {
        Report {
            violations: vec![
                violation(
                    "relaxed-atomic",
                    "crates/x/src/lib.rs",
                    7,
                    "`Ordering::Relaxed` in solver/sim code",
                    "a.load(Ordering::Relaxed)",
                ),
                violation(
                    "raw-cost-arith",
                    "crates/a/src/lib.rs",
                    3,
                    "raw `+` on the INFINITY sentinel",
                    "let y = z + INFINITY;",
                ),
            ],
            files_scanned: 2,
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
        assert!(s.contains("error[relaxed-atomic]"));
        assert!(s.contains("crates/x/src/lib.rs:7"));
        assert!(s.contains("  7| a.load(Ordering::Relaxed)"));
        assert!(s.contains("2 violation(s), 2 file(s) scanned"));
    }

    #[test]
    fn clean_report_says_zero() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.render_human().contains("0 violation(s)"));
    }
}
