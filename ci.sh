#!/usr/bin/env bash
# Local CI gate. Mirrors what reviewers run before merging:
#
#   1. formatting       — cargo fmt --check over the whole workspace
#   2. lints            — clippy with warnings denied, all targets; the
#                         crate-level denies in each lib.rs (no printing,
#                         no discarded values, no bare casts in the cost
#                         crates) are enforced here
#   3. gated lints      — clippy again over the strict-invariants code
#   4. project lints    — ppdc-analyzer over the whole workspace
#                         (baseline-capped allows, 10 s budget)
#   5. tier-1 verify    — release build + full test suite
#   6. contracts        — solver tests with strict-invariants enabled
#   7. proptests        — at PROPTEST_CASES=256, then again with 8 rayon
#                         workers so the parallel fold sweep and the
#                         branch-and-bound run with more workers than cores
#   8. smokes           — failure sweep with metrics export, fault-free
#                         day, the quickstart, pareto_frontier and
#                         zoom_conferencing examples, metrics schema
#                         check, k=32 oracle, chaos (the sweep, the day,
#                         the examples and chaos diffed against their
#                         pinned output in tests/golden/),
#                         1M-flow stream day (then killed at mid-day and
#                         resumed from disk), churned stream day
#   9. benchmark build  — perfbench/ (its own workspace, which names
#                         engine functions) built offline, then a
#                         1-second end-to-end run of each workload
#                         (rack-churn, diurnal-fabric) that must report
#                         "correct": true
#  10. bench smoke      — one pass of the bench groups (including the
#                         hourly engine's simulated day and every exact
#                         search: stroll, placement, scaled placement,
#                         migration), appended to the BENCH_placement.json
#                         trajectory
#
# The bench crate (ppdc-bench) is outside the workspace default-members,
# so step 5's plain `cargo build`/`cargo test` skip it; clippy still
# covers it via --workspace so bench code cannot rot. Everything here is
# fully offline — all third-party dependencies are vendored stand-ins.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Clippy only sees compiled code: lint the feature-gated contracts too.
echo "==> cargo clippy (strict-invariants feature) -- -D warnings"
cargo clippy -p ppdc-topology -p ppdc-placement -p ppdc-migration --all-targets \
    --features strict-invariants -- -D warnings

echo "==> ppdc-analyzer --workspace (project-specific lints, baseline-capped, 10s budget)"
mkdir -p target
cargo build --release -q -p ppdc-analyzer
analyzer_start=$(date +%s%N)
./target/release/ppdc-analyzer --workspace \
    --json-out target/analyzer.json \
    --baseline analyzer-baseline.json
analyzer_elapsed_ms=$(( ($(date +%s%N) - analyzer_start) / 1000000 ))
echo "    analyzer wall clock: ${analyzer_elapsed_ms} ms (budget 10000 ms)"
if [ "$analyzer_elapsed_ms" -ge 10000 ]; then
    echo "ppdc-analyzer exceeded its 10s wall-clock budget" >&2
    exit 1
fi

echo "==> cargo build --release (tier-1, default members)"
cargo build --release

echo "==> cargo test -q (tier-1, default members)"
cargo test -q

echo "==> solver contracts (strict-invariants feature)"
cargo test -q --features strict-invariants -p ppdc-topology -p ppdc-placement -p ppdc-migration

echo "==> proptests at PROPTEST_CASES=256"
PROPTEST_CASES=256 cargo test -q --test proptests

echo "==> proptests at PROPTEST_CASES=256 with 8 rayon workers"
RAYON_NUM_THREADS=8 PROPTEST_CASES=256 cargo test -q --test proptests

# Output pinned under tests/golden/ is compared byte for byte once its
# wall-clock readings are masked.
strip_timing() { sed -E 's/ in [0-9]+\.[0-9]+s/ in <elapsed>/'; }

echo "==> failure-sweep smoke (quick scale) with metrics export, diffed against tests/golden/failsweep.txt"
mkdir -p target
cargo run -q --release -p ppdc-experiments -- --quick failsweep --metrics target/ci-metrics.json 2>&1 \
    | strip_timing | diff -u tests/golden/failsweep.txt -

echo "==> fault-free day smoke (quick fig11 + ext_replication through run_day), diffed against tests/golden/fig11_ext_replication.txt"
cargo run -q --release -p ppdc-experiments -- --quick fig11 ext_replication 2>&1 \
    | strip_timing | diff -u tests/golden/fig11_ext_replication.txt -

# The deterministic examples print no wall time, so their stdout is pinned
# as is. placement_comparison is left out: it prints solver wall times.
for example in quickstart pareto_frontier zoom_conferencing; do
    echo "==> example $example, diffed against tests/golden/$example.txt"
    cargo run -q --release --example "$example" 2>&1 | diff -u "tests/golden/$example.txt" -
done

echo "==> metrics schema check (ppdc-obs/v1 phase keys)"
cargo run --release -p ppdc-experiments -- --check-metrics target/ci-metrics.json

echo "==> k=32 oracle smoke (1,280 switches, no dense matrix, 15s budget)"
cargo run --release -p ppdc-experiments -- smoke-k32 --budget-ms 15000

echo "==> chaos smoke (64 seeded trials: crashes, torn checkpoints, starvation), diffed against tests/golden/chaos.txt"
cargo run -q --release -p ppdc-experiments -- chaos --trials 64 --seed 1 2>&1 \
    | strip_timing | diff -u tests/golden/chaos.txt -

echo "==> streaming-engine smoke (1M flows over the k=32 fabric, counter invariants, mid-day kill/resume)"
cargo run --release -p ppdc-experiments -- stream --flows 1000000 --budget-ms 120000

echo "==> churned-day stream smoke (hot-rack/two-pod/full-fabric spikes, warm-solver counters + budget)"
cargo run --release -p ppdc-experiments -- stream --churned --flows 1000000 --budget-ms 120000 --warm-ms 1000

echo "==> perfbench build (offline; breaks when an engine name it uses changes)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# rack-churn only ever takes list-only trace steps; diurnal-fabric moves
# a cohort scale every epoch, so it runs the dense trace feed.
for workload in rack-churn diurnal-fabric; do
    echo "==> perfbench smoke ($workload, 1 s, end to end; must print \"correct\": true)"
    perfbench_out=$(CARGO_TARGET_DIR="$PWD/perfbench/target" \
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0)
    echo "$perfbench_out"
    if ! echo "$perfbench_out" | tail -n 1 | grep -q '"correct": true'; then
        echo "perfbench smoke ($workload) did not report \"correct\": true" >&2
        exit 1
    fi
done

echo "==> bench smoke (oracle + placement + exact searches + hourly day + checkpoint + stream groups once, trajectory appended)"
rm -f target/ci-bench-samples.jsonl
PPDC_BENCH_ONLY=dp_placement,dp_placement_k32,optimal_placement_k4,extensions_k4 \
    PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench placement
PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench stroll
PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench migration
PPDC_BENCH_ONLY=distance_oracle \
    PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench topology
PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench simulation
PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench checkpoint
PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench analyzer
PPDC_BENCH_ONLY=stream_ingest,stream_resolve \
    PPDC_BENCH_JSON="$PWD/target/ci-bench-samples.jsonl" \
    cargo bench -p ppdc-bench --bench stream
# The trajectory entry's label and note come from the environment; the
# label defaults to the HEAD commit subject, the note to empty.
bench_label="${PPDC_BENCH_LABEL:-$(git log -1 --format=%s 2>/dev/null || echo unlabelled)}"
bench_note="${PPDC_BENCH_NOTE:-}"
cargo run --release -p ppdc-experiments -- \
    --append-bench BENCH_placement.json \
    --bench-samples target/ci-bench-samples.jsonl \
    --label "$bench_label" \
    --date "$(date +%F)" \
    --note "$bench_note"

echo "CI OK"
