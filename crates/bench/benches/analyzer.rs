//! Analyzer engine throughput over the live workspace.
//!
//! Measures the full `--workspace` pipeline — lex and the per-file token
//! rules over every scanned file — as one unit (`workspace_scan`). ci.sh
//! additionally enforces a 10 s wall-clock budget on the release binary;
//! this group tracks the trajectory between those coarse checks.

use criterion::{criterion_group, criterion_main, Criterion};
use ppdc_analyzer::{analyze_corpus, rules::FileCtx};
use std::time::Duration;

/// Loads the workspace scan set into memory once, outside the timed loop.
fn corpus() -> Vec<(FileCtx, String)> {
    let start = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = ppdc_analyzer::find_workspace_root(&start).expect("bench runs inside the workspace");
    let files = ppdc_analyzer::workspace_files(&root).expect("workspace scan set");
    files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(path).expect("scan set files are readable");
            (FileCtx::from_path(&rel), src)
        })
        .collect()
}

fn bench_analyzer(c: &mut Criterion) {
    let corpus = corpus();
    let total_bytes: usize = corpus.iter().map(|(_, s)| s.len()).sum();
    eprintln!(
        "analyzer bench corpus: {} files, {} KiB",
        corpus.len(),
        total_bytes / 1024
    );

    let mut group = c.benchmark_group("analyzer");
    group.sample_size(20);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));

    group.bench_function("workspace_scan", |b| {
        b.iter(|| {
            let report = analyze_corpus(&corpus);
            assert!(report.files_scanned > 40);
            report.violations.len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_analyzer);
criterion_main!(benches);
