//! Bench-trajectory bookkeeping: folds one bench run (the JSON-lines file
//! the vendored criterion stand-in writes under `PPDC_BENCH_JSON`) into the
//! repo's `BENCH_placement.json` trajectory document.
//!
//! The document is an append-only history: each entry records a labelled
//! optimization round with its environment, per-benchmark samples, and —
//! when the previous entry measured the same benchmark ids — the median
//! speedups against that entry, so a regression shows up as a highlight
//! below 1.0 in review instead of a silent number drift.
//!
//! Each entry also records how long one run of a fixed [`calibrate`]
//! kernel took on the host, so a speedup can be read against how fast the
//! host itself ran ([`group_speedups`]): when every group of an entry
//! moves with the calibration ratio, the host moved, not the code.

use ppdc_obs::json::{self, escape, Value};
use ppdc_obs::Stopwatch;

/// One benchmark sample parsed from a `PPDC_BENCH_JSON` line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSample {
    /// Benchmark id, e.g. `dp_placement/k16_l100`.
    pub id: String,
    /// Fastest per-iteration time.
    pub min_ns: f64,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Timed samples taken.
    pub samples: u64,
    /// Total routine iterations across all samples.
    pub total_iters: u64,
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("sample line lacks numeric field {key:?}"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("sample line lacks integer field {key:?}"))
}

/// Parses the JSON-lines output of one bench run.
///
/// # Errors
///
/// Describes the first malformed line.
pub fn parse_bench_samples(jsonl: &str) -> Result<Vec<BenchSample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        out.push(BenchSample {
            id: v
                .get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: missing \"id\"", lineno + 1))?
                .to_string(),
            min_ns: field_f64(&v, "min_ns")?,
            median_ns: field_f64(&v, "median_ns")?,
            mean_ns: field_f64(&v, "mean_ns")?,
            samples: field_u64(&v, "samples")?,
            total_iters: field_u64(&v, "total_iters")?,
        });
    }
    if out.is_empty() {
        return Err("no benchmark samples in the JSON-lines input".to_string());
    }
    Ok(out)
}

/// Intra-run warm/cold pairing: an id with a `warm_*` path segment (e.g.
/// `stream_resolve/warm_hot_racks_8/1000000`) is compared against the
/// same run's id with that segment replaced by `cold`
/// (`stream_resolve/cold/1000000`), yielding a `<id>_vs_cold_speedup`
/// highlight — cold median ÷ warm median, above 1.0 means the warm start
/// pays.
fn cold_counterpart(id: &str) -> Option<String> {
    let mut replaced = false;
    let mapped: Vec<&str> = id
        .split('/')
        .map(|seg| {
            if seg.starts_with("warm_") {
                replaced = true;
                "cold"
            } else {
                seg
            }
        })
        .collect();
    replaced.then(|| mapped.join("/"))
}

/// The youngest trajectory entry.
fn last_entry(doc: &Value) -> Option<&Value> {
    doc.get("trajectory")
        .and_then(Value::as_arr)
        .and_then(<[Value]>::last)
}

/// The calibration seconds an entry recorded, if it recorded any.
fn entry_calibration(entry: &Value) -> Option<f64> {
    entry
        .get("environment")?
        .get("calibration_s")?
        .as_f64()
        .filter(|&s| s > 0.0)
}

/// Median times of the youngest trajectory entry, as `(id, median_ns)`.
fn last_entry_medians(doc: &Value) -> Vec<(String, f64)> {
    let Some(prev) = last_entry(doc) else {
        return Vec::new();
    };
    prev.get("results")
        .and_then(Value::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|r| {
            let id = r.get("id").and_then(Value::as_str)?;
            let median = r.get("median_ns").and_then(Value::as_f64)?;
            Some((id.to_string(), median))
        })
        .collect()
}

fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.1}")
    } else {
        "null".to_string()
    }
}

/// Runs a fixed CPU-and-memory kernel that calls nothing in this
/// repository and returns its seconds: how fast the host runs right now.
///
/// The kernel is the end-to-end benchmark's (`perfbench`): three rounds of
/// a sequential hashing pass, a dependent random walk and a sort of an
/// eighth of a 32 MiB buffer (larger than a last-level cache, like the
/// 1M-flow rate vectors). The buffers are filled before the clock starts
/// and freed on return.
pub fn calibrate() -> f64 {
    let mut buf: Vec<u64> = (0..1u64 << 22).collect();
    let n = buf.len();
    let mut part = buf[..n / 8].to_vec();
    let clock = Stopwatch::start();
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..3 {
        for x in buf.iter_mut() {
            h = (h ^ *x).wrapping_mul(0x100_0000_01B3);
            *x = h;
        }
        let mut i = 0usize;
        for _ in 0..n / 2 {
            i = (buf[i] as usize ^ i) % n;
            h = h.wrapping_add(buf[i]);
        }
        part.copy_from_slice(&buf[..n / 8]);
        part.sort_unstable();
        h ^= part[n / 16];
    }
    std::hint::black_box(h);
    clock.elapsed_ns() as f64 * 1e-9
}

/// The machine context a bench entry was recorded under.
///
/// `cpu_cores` must come from `std::thread::available_parallelism()` (not a
/// hand-typed constant — the seed entries carried a stale `1` on multi-core
/// runners), and `rayon_threads` from `rayon::current_num_threads()` so the
/// entry records whether the parallel sweeps actually fanned out. The
/// emitted `rayon_parallelized` flag is `rayon_threads > 1`.
#[derive(Debug, Clone)]
pub struct BenchEnvironment {
    /// Logical CPUs visible to the process.
    pub cpu_cores: u64,
    /// Threads in the rayon pool the bench run used.
    pub rayon_threads: u64,
    /// Seconds one [`calibrate`] run took on the host when the entry was
    /// recorded.
    pub calibration_s: f64,
    /// Free-form provenance note.
    pub note: String,
}

/// Appends one labelled entry to a `BENCH_placement.json`-style document
/// and returns the updated document text.
///
/// `highlights` holds the median speedup of each benchmark the previous
/// entry also measured (`<id>_median_speedup_vs_prev`, previous median ÷
/// new median — above 1.0 is faster). The environment records the
/// host's [`calibrate`] time, which [`group_speedups`] reads back.
///
/// # Errors
///
/// When the document or a sample line does not parse, or the document has
/// no `trajectory` array.
pub fn append_bench_trajectory(
    doc_src: &str,
    samples_jsonl: &str,
    label: &str,
    date: &str,
    env: &BenchEnvironment,
) -> Result<String, String> {
    let doc = json::parse(doc_src).map_err(|e| format!("invalid trajectory document: {e}"))?;
    let samples = parse_bench_samples(samples_jsonl)?;
    let prev = last_entry_medians(&doc);
    let existing = doc
        .get("trajectory")
        .and_then(Value::as_arr)
        .ok_or_else(|| "trajectory document lacks a \"trajectory\" array".to_string())?;

    // Entries are emitted verbatim from their parsed form, so older
    // history survives byte-for-byte up to key normalization.
    let mut entries: Vec<String> = existing.iter().map(write_value).collect();
    let mut highlights = Vec::new();
    for s in &samples {
        if let Some((_, prev_median)) = prev.iter().find(|(id, _)| *id == s.id) {
            if s.median_ns > 0.0 {
                highlights.push(format!(
                    "\"{}_median_speedup_vs_prev\": {:.2}",
                    escape(&s.id),
                    prev_median / s.median_ns
                ));
            }
        }
        if s.median_ns > 0.0 {
            if let Some(cold) =
                cold_counterpart(&s.id).and_then(|cid| samples.iter().find(|c| c.id == cid))
            {
                highlights.push(format!(
                    "\"{}_vs_cold_speedup\": {:.2}",
                    escape(&s.id),
                    cold.median_ns / s.median_ns
                ));
            }
        }
    }
    let results: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"samples\": {}, \"total_iters\": {}}}",
                escape(&s.id),
                fmt_f64(s.min_ns),
                fmt_f64(s.median_ns),
                fmt_f64(s.mean_ns),
                s.samples,
                s.total_iters,
            )
        })
        .collect();
    entries.push(format!(
        "{{\"label\": \"{}\", \"date\": \"{}\", \"environment\": {{\"cpu_cores\": {}, \"rayon_threads\": {}, \"rayon_parallelized\": {}, \"calibration_s\": {:.4}, \"note\": \"{}\"}}, \"highlights\": {{{}}}, \"results\": [{}]}}",
        escape(label),
        escape(date),
        env.cpu_cores,
        env.rayon_threads,
        env.rayon_threads > 1,
        env.calibration_s,
        escape(&env.note),
        highlights.join(", "),
        results.join(", "),
    ));
    Ok(format!("{{\"trajectory\": [{}]}}\n", entries.join(", ")))
}

/// One bench group's speedup in the youngest entry of a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpeedup {
    /// The group: the id up to its first `/`.
    pub group: String,
    /// Geometric mean of the group's `<id>_median_speedup_vs_prev`
    /// highlights.
    pub speedup: f64,
    /// How many ids the mean covers.
    pub ids: usize,
}

/// The youngest entry's speedups against the entry before it, one per
/// bench group in first-seen order, and the calibration ratio — the
/// previous entry's [`calibrate`] time ÷ the youngest one's, above 1.0
/// when the host itself ran faster — when both entries recorded one. A
/// group whose speedup sits at the calibration ratio moved with the host,
/// not with the code.
///
/// # Errors
///
/// When the document does not parse or has no `trajectory` array.
pub fn group_speedups(doc_src: &str) -> Result<(Vec<GroupSpeedup>, Option<f64>), String> {
    let doc = json::parse(doc_src).map_err(|e| format!("invalid trajectory document: {e}"))?;
    let entries = doc
        .get("trajectory")
        .and_then(Value::as_arr)
        .ok_or_else(|| "trajectory document lacks a \"trajectory\" array".to_string())?;
    let calibration = match entries {
        [.., before, now] => entry_calibration(before)
            .zip(entry_calibration(now))
            .map(|(b, n)| b / n),
        _ => None,
    };
    let Some(highlights) = entries
        .last()
        .and_then(|e| e.get("highlights"))
        .and_then(Value::as_obj)
    else {
        return Ok((Vec::new(), calibration));
    };
    // (group, Σ ln speedup, ids) in first-seen order.
    let mut groups: Vec<(String, f64, usize)> = Vec::new();
    for (key, v) in highlights {
        let (Some(id), Some(x)) = (key.strip_suffix("_median_speedup_vs_prev"), v.as_f64()) else {
            continue;
        };
        if x <= 0.0 {
            continue;
        }
        let group = id.split('/').next().unwrap_or(id);
        match groups.iter_mut().find(|(g, _, _)| g == group) {
            Some((_, logs, ids)) => {
                *logs += x.ln();
                *ids += 1;
            }
            None => groups.push((group.to_string(), x.ln(), 1)),
        }
    }
    let groups = groups
        .into_iter()
        .map(|(group, logs, ids)| GroupSpeedup {
            group,
            speedup: (logs / ids as f64).exp(),
            ids,
        })
        .collect();
    Ok((groups, calibration))
}

/// Serializes a parsed [`Value`] back to compact JSON (object keys come
/// out in the parser's normalized order).
fn write_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        // Shortest round-trip form: history keeps every recorded digit.
        Value::Float(f) if f.is_finite() => format!("{f:?}"),
        Value::Float(_) => "null".to_string(),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Arr(items) => {
            let inner: Vec<String> = items.iter().map(write_value).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Obj(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, val)| format!("\"{}\": {}", escape(k), write_value(val)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> BenchEnvironment {
        BenchEnvironment {
            cpu_cores: 8,
            rayon_threads: 8,
            calibration_s: 0.2,
            note: "n".to_string(),
        }
    }

    const DOC: &str = r#"{"trajectory": [{"label": "seed", "date": "2026-08-01",
        "environment": {"cpu_cores": 1, "note": "n"},
        "highlights": {},
        "results": [{"id": "dp_placement/k16_l100", "min_ns": 900.0,
            "median_ns": 1000.0, "mean_ns": 1100.0, "samples": 10, "total_iters": 10}]}]}"#;

    const LINES: &str = concat!(
        "{\"id\":\"dp_placement/k16_l100\",\"min_ns\":90.0,\"median_ns\":100.0,",
        "\"mean_ns\":110.0,\"samples\":10,\"total_iters\":40}\n",
        "{\"id\":\"dp_placement/k4_l20\",\"min_ns\":1.0,\"median_ns\":2.0,",
        "\"mean_ns\":3.0,\"samples\":10,\"total_iters\":40}\n",
    );

    #[test]
    fn appends_an_entry_with_speedup_highlights() {
        let out = append_bench_trajectory(DOC, LINES, "round 2", "2026-08-06", &env()).unwrap();
        let v = json::parse(&out).unwrap();
        let traj = v.get("trajectory").and_then(Value::as_arr).unwrap();
        assert_eq!(traj.len(), 2);
        let new = &traj[1];
        assert_eq!(new.get("label").and_then(Value::as_str), Some("round 2"));
        assert_eq!(
            new.get("results")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(2)
        );
        // 1000 ns → 100 ns median = 10× against the previous entry; the
        // k4 id is new, so it gets no highlight.
        let hl = new.get("highlights").and_then(Value::as_obj).unwrap();
        assert_eq!(hl.len(), 1);
        let speedup = hl
            .get("dp_placement/k16_l100_median_speedup_vs_prev")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((speedup - 10.0).abs() < 1e-9, "got {speedup}");
    }

    #[test]
    fn history_round_trips_through_append() {
        let once = append_bench_trajectory(DOC, LINES, "a", "2026-08-06", &env()).unwrap();
        let twice = append_bench_trajectory(&once, LINES, "b", "2026-08-07", &env()).unwrap();
        let v = json::parse(&twice).unwrap();
        let traj = v.get("trajectory").and_then(Value::as_arr).unwrap();
        assert_eq!(traj.len(), 3);
        // The seed entry survives the two rewrites intact.
        assert_eq!(traj[0].get("label").and_then(Value::as_str), Some("seed"));
        assert_eq!(
            json::parse(&write_value(&traj[0])).unwrap(),
            json::parse(DOC)
                .unwrap()
                .get("trajectory")
                .unwrap()
                .as_arr()
                .unwrap()[0]
        );
        // Round 3's highlight compares against round 2, which measured
        // the k4 id too — both ids now carry speedups.
        let hl = traj[2].get("highlights").and_then(Value::as_obj).unwrap();
        assert_eq!(hl.len(), 2);
    }

    #[test]
    fn history_keeps_every_recorded_digit() {
        let doc = r#"{"trajectory": [{"label": "old", "highlights": {"x_median_speedup_vs_prev": 0.81},
            "results": [{"id": "x", "median_ns": 31784.45}]}]}"#;
        let out = append_bench_trajectory(doc, LINES, "new", "2026-08-08", &env()).unwrap();
        let v = json::parse(&out).unwrap();
        let old = &v.get("trajectory").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(
            old,
            &json::parse(doc)
                .unwrap()
                .get("trajectory")
                .unwrap()
                .as_arr()
                .unwrap()[0]
        );
    }

    #[test]
    fn environment_records_cores_and_rayon_fanout() {
        let out = append_bench_trajectory(DOC, LINES, "r", "2026-08-07", &env()).unwrap();
        let v = json::parse(&out).unwrap();
        let entry = &v.get("trajectory").and_then(Value::as_arr).unwrap()[1];
        let e = entry.get("environment").unwrap();
        assert_eq!(e.get("cpu_cores").and_then(Value::as_u64), Some(8));
        assert_eq!(e.get("rayon_threads").and_then(Value::as_u64), Some(8));
        assert_eq!(
            e.get("rayon_parallelized").and_then(|v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(true)
        );
        // A single-thread pool is recorded as not parallelized.
        let serial = BenchEnvironment {
            rayon_threads: 1,
            ..env()
        };
        let out = append_bench_trajectory(DOC, LINES, "r", "2026-08-07", &serial).unwrap();
        assert!(out.contains("\"rayon_parallelized\": false"));
    }

    #[test]
    fn warm_ids_gain_intra_run_cold_speedups() {
        let lines = concat!(
            "{\"id\":\"stream_resolve/cold/1000000\",\"min_ns\":1.6e9,",
            "\"median_ns\":1.7e9,\"mean_ns\":1.8e9,\"samples\":3,\"total_iters\":3}\n",
            "{\"id\":\"stream_resolve/warm_hot_racks_8/1000000\",\"min_ns\":1.5e7,",
            "\"median_ns\":1.7e7,\"mean_ns\":1.9e7,\"samples\":10,\"total_iters\":10}\n",
            "{\"id\":\"stream_resolve/warm_full_fabric/1000000\",\"min_ns\":2.0e7,",
            "\"median_ns\":3.4e7,\"mean_ns\":3.5e7,\"samples\":10,\"total_iters\":10}\n",
        );
        let out = append_bench_trajectory(DOC, lines, "warm", "2026-08-07", &env()).unwrap();
        let v = json::parse(&out).unwrap();
        let entry = v.get("trajectory").and_then(Value::as_arr).unwrap()[1].clone();
        let hl = entry.get("highlights").and_then(Value::as_obj).unwrap();
        // The cold id itself gets no highlight; each warm id is paired
        // against it within the same run.
        assert_eq!(hl.len(), 2);
        let hot = hl
            .get("stream_resolve/warm_hot_racks_8/1000000_vs_cold_speedup")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((hot - 100.0).abs() < 1e-9, "got {hot}");
        let full = hl
            .get("stream_resolve/warm_full_fabric/1000000_vs_cold_speedup")
            .and_then(Value::as_f64)
            .unwrap();
        assert!((full - 50.0).abs() < 1e-9, "got {full}");
        // No warm segment ⇒ no counterpart lookup at all.
        assert_eq!(cold_counterpart("dp_placement/k4_l20"), None);
        assert_eq!(
            cold_counterpart("stream_resolve/warm_hot_pods_2/1000000").as_deref(),
            Some("stream_resolve/cold/1000000")
        );
    }

    /// An entry records its calibration time; the next one reads its
    /// speedups against the ratio of the two, per group.
    #[test]
    fn calibration_is_recorded_and_read_beside_group_speedups() {
        let once = append_bench_trajectory(DOC, LINES, "a", "2026-08-06", &env()).unwrap();
        let v = json::parse(&once).unwrap();
        let entry = &v.get("trajectory").and_then(Value::as_arr).unwrap()[1];
        assert_eq!(entry_calibration(entry), Some(0.2));
        // The seed entry recorded no calibration: no ratio yet.
        let (groups, ratio) = group_speedups(&once).unwrap();
        assert_eq!(ratio, None);
        assert_eq!(groups.len(), 1);
        assert_eq!(
            (groups[0].group.as_str(), groups[0].ids),
            ("dp_placement", 1)
        );
        assert!((groups[0].speedup - 10.0).abs() < 1e-9, "{:?}", groups[0]);
        // A host twice as slow: both ids took 4× and 1× as long, and the
        // kernel took 2×.
        let slower = concat!(
            "{\"id\":\"dp_placement/k16_l100\",\"min_ns\":1.0,\"median_ns\":400.0,",
            "\"mean_ns\":1.0,\"samples\":1,\"total_iters\":1}\n",
            "{\"id\":\"dp_placement/k4_l20\",\"min_ns\":1.0,\"median_ns\":2.0,",
            "\"mean_ns\":1.0,\"samples\":1,\"total_iters\":1}\n",
        );
        let host = BenchEnvironment {
            calibration_s: 0.4,
            ..env()
        };
        let twice = append_bench_trajectory(&once, slower, "b", "2026-08-07", &host).unwrap();
        let (groups, ratio) = group_speedups(&twice).unwrap();
        assert_eq!(ratio, Some(0.5));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].ids, 2);
        assert!((groups[0].speedup - 0.5).abs() < 1e-9, "{:?}", groups[0]);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(append_bench_trajectory("{}", LINES, "x", "d", &env()).is_err());
        assert!(append_bench_trajectory(DOC, "", "x", "d", &env()).is_err());
        assert!(append_bench_trajectory(DOC, "{\"id\":\"a\"}", "x", "d", &env()).is_err());
    }
}
