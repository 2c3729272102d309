//! JSON writer for [`Report`].
//!
//! The workspace's vendored serde is a marker-trait stand-in (no registry
//! access in the build environment), so the wire format is written here by
//! hand against the exact `Report` schema, escaping strings with
//! [`ppdc_obs::json::escape`]. Consumers (CI annotators, editors, the
//! fixture suite's schema round-trip) read it back with
//! [`ppdc_obs::json::parse`], the codec checkpoints and metrics share.

use crate::report::Report;
use ppdc_obs::json::escape;

/// Serializes a report to a deterministic, pretty-stable JSON document.
pub fn to_json(r: &Report) -> String {
    let mut s = String::from("{\"violations\":[");
    for (i, v) in r.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let chain = v
            .chain
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"snippet\":\"{}\",\
             \"chain\":[{}]}}",
            escape(&v.rule),
            escape(&v.file),
            v.line,
            escape(&v.message),
            escape(&v.snippet),
            chain
        ));
    }
    s.push_str(&format!(
        "],\"files_scanned\":{},\"suppressed\":{},\"allows\":{}}}",
        r.files_scanned, r.suppressed, r.allows
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Violation;
    use ppdc_obs::json::{parse, Value};
    use std::collections::BTreeMap;

    fn sample() -> Report {
        Report {
            violations: vec![Violation {
                chain: vec![
                    "run_day (crates/sim/src/fault.rs:662)".into(),
                    "emit (crates/sim/src/lib.rs:40)".into(),
                ],
                ..Violation::new(
                    "no-panic",
                    "crates/sim/src/lib.rs",
                    42,
                    "`.unwrap()` reachable from `run_day` — \"typed errors only\"".into(),
                    "let v = x.unwrap(); // \"x\\n\"".into(),
                )
            }],
            files_scanned: 17,
            suppressed: 3,
            allows: 5,
        }
    }

    /// Reads a report back through the shared codec, holding the
    /// document to the schema's closed key sets.
    fn decode(doc: &str) -> Option<Report> {
        fn closed<'a>(v: &'a Value, keys: &[&str]) -> Option<&'a BTreeMap<String, Value>> {
            let m = v.as_obj()?;
            (m.len() == keys.len() && keys.iter().all(|k| m.contains_key(*k))).then_some(m)
        }
        let str_of = |m: &BTreeMap<String, Value>, k: &str| Some(m.get(k)?.as_str()?.to_string());
        let num_of = |m: &BTreeMap<String, Value>, k: &str| m.get(k)?.as_u64();
        let top = parse(doc).ok()?;
        let top = closed(
            &top,
            &["violations", "files_scanned", "suppressed", "allows"],
        )?;
        let mut violations = Vec::new();
        for v in top.get("violations")?.as_arr()? {
            let v = closed(v, &["rule", "file", "line", "message", "snippet", "chain"])?;
            let chain = v.get("chain")?.as_arr()?;
            violations.push(Violation {
                rule: str_of(v, "rule")?,
                file: str_of(v, "file")?,
                line: u32::try_from(num_of(v, "line")?).ok()?,
                message: str_of(v, "message")?,
                snippet: str_of(v, "snippet")?,
                chain: chain
                    .iter()
                    .map(|f| Some(f.as_str()?.to_string()))
                    .collect::<Option<_>>()?,
            });
        }
        Some(Report {
            violations,
            files_scanned: usize::try_from(num_of(top, "files_scanned")?).ok()?,
            suppressed: usize::try_from(num_of(top, "suppressed")?).ok()?,
            allows: usize::try_from(num_of(top, "allows")?).ok()?,
        })
    }

    #[test]
    fn round_trip_is_identity() {
        let r = sample();
        assert_eq!(decode(&to_json(&r)), Some(r));
    }

    #[test]
    fn empty_report_round_trips() {
        let r = Report::default();
        assert_eq!(decode(&to_json(&r)), Some(r));
    }

    #[test]
    fn escapes_survive() {
        let mut r = sample();
        r.violations[0].snippet =
            "tab\there \"quoted\" back\\slash\nnewline \u{1}ctl € ≤\tΣ→\"🦀\"".into();
        assert_eq!(decode(&to_json(&r)), Some(r));
    }

    #[test]
    fn writes_the_pinned_wire_format() {
        // Byte-for-byte the document the analyzer has always written.
        let r = Report {
            violations: vec![
                Violation {
                    chain: vec![
                        "run_day (crates/sim/src/fault.rs:662)".into(),
                        "tab\there → \"q\"".into(),
                    ],
                    ..Violation::new(
                        "no-panic",
                        "crates/sim/src/lib.rs",
                        42,
                        "`.unwrap()` — \"x\" ≤ Σ\\".into(),
                        "let y = 1;\r\n\u{1}🦀".into(),
                    )
                },
                Violation::new("stale-allow", "src/lib.rs", 7, String::new(), String::new()),
            ],
            files_scanned: 17,
            suppressed: 3,
            allows: 5,
        };
        assert_eq!(
            to_json(&r),
            r#"{"violations":[{"rule":"no-panic","file":"crates/sim/src/lib.rs","line":42,"message":"`.unwrap()` — \"x\" ≤ Σ\\","snippet":"let y = 1;\r\n\u0001🦀","chain":["run_day (crates/sim/src/fault.rs:662)","tab\there → \"q\""]},{"rule":"stale-allow","file":"src/lib.rs","line":7,"message":"","snippet":"","chain":[]}],"files_scanned":17,"suppressed":3,"allows":5}"#
        );
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let doc =
            "{\"violations\":[],\"files_scanned\":1,\"suppressed\":0,\"allows\":0,\"extra\":1}";
        assert!(parse(doc).is_ok());
        assert_eq!(decode(doc), None, "the schema's key set is closed");
    }

    #[test]
    fn empty_chain_round_trips() {
        let mut r = sample();
        r.violations[0].chain.clear();
        assert_eq!(decode(&to_json(&r)), Some(r));
    }

    #[test]
    fn truncated_documents_are_rejected() {
        let full = to_json(&sample());
        for cut in [1, full.len() / 2, full.len() - 1] {
            let cut = (cut..).find(|&c| full.is_char_boundary(c)).unwrap_or(cut);
            assert!(parse(&full[..cut]).is_err(), "cut at {cut}");
        }
    }
}
