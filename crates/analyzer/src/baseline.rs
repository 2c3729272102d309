//! The committed suppression baseline (`analyzer-baseline.json`).
//!
//! The baseline caps the number of reasoned `analyzer:allow` directives
//! in the workspace. CI runs the analyzer with `--baseline
//! analyzer-baseline.json`: if the current scan carries **more** allows
//! than the committed cap, the gate fails — new suppressions require a
//! deliberate `--write-baseline` commit, reviewed like any other diff.
//! Shrinkage is always accepted (and worth re-baselining to lock in).
//! Stale allows don't need baseline bookkeeping: they are `stale-allow`
//! violations and fail the run outright.

use crate::report::Report;
use ppdc_obs::json::parse;

/// The committed baseline document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Baseline {
    /// Maximum number of valid `analyzer:allow` directives tolerated.
    pub allows: usize,
}

impl Baseline {
    /// Captures the current report's allow count as the new cap.
    pub fn from_report(r: &Report) -> Baseline {
        Baseline { allows: r.allows }
    }

    /// Serializes to the committed single-line JSON form.
    pub fn to_json(&self) -> String {
        format!("{{\"allows\":{}}}\n", self.allows)
    }

    /// Parses the committed form: a JSON object whose only key is
    /// `allows`, a non-negative integer.
    pub fn from_json(src: &str) -> Result<Baseline, String> {
        let doc = parse(src).map_err(|e| e.to_string())?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| "expected `{\"allows\": <n>}`".to_string())?;
        if let Some(key) = obj.keys().find(|k| *k != "allows") {
            return Err(format!("unknown key `{key}`"));
        }
        let allows = obj
            .get("allows")
            .ok_or_else(|| "missing `allows`".to_string())?;
        allows
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .map(|allows| Baseline { allows })
            .ok_or_else(|| format!("bad allow count `{allows:?}`"))
    }

    /// Checks a report against the cap: `Err` explains the regression.
    pub fn check(&self, r: &Report) -> Result<(), String> {
        if r.allows > self.allows {
            Err(format!(
                "allow count grew: {} allow(s) in the tree, baseline caps it at {} — remove \
                 suppressions or consciously re-baseline with --write-baseline",
                r.allows, self.allows
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let b = Baseline { allows: 23 };
        assert_eq!(Baseline::from_json(&b.to_json()).unwrap(), b);
        assert_eq!(
            Baseline::from_json(" {\n  \"allows\": 7\n}\n").unwrap(),
            Baseline { allows: 7 }
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{}",
            "{\"allows\":}",
            "{\"allows\":-1}",
            "[3]",
            "{\"allows\":+5}",
            "{\"allows\":5,\"extra\":1}",
        ] {
            assert!(Baseline::from_json(doc).is_err(), "{doc:?}");
        }
    }

    #[test]
    fn check_fails_only_on_growth() {
        let cap = Baseline { allows: 5 };
        let mut r = Report {
            allows: 5,
            ..Report::default()
        };
        assert!(cap.check(&r).is_ok());
        r.allows = 4;
        assert!(cap.check(&r).is_ok());
        r.allows = 6;
        let err = cap.check(&r).unwrap_err();
        assert!(err.contains("6 allow(s)"));
        assert!(err.contains("caps it at 5"));
    }
}
