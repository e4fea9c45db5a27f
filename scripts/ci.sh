#!/usr/bin/env bash
# CI gate: format, hermetic offline build, tests, docs, a hard check that
# the dependency graph contains zero registry crates (DESIGN.md §5), the
# smart-lint static-analysis sweep (DESIGN.md §9), and a telemetry smoke
# run that must export a parseable run report (DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo build --release --offline (all targets)"
cargo build --release --offline --workspace --all-targets

step "cargo test -q --offline"
cargo test -q --offline --workspace

step "benchmark package: unit tests + smoke run of every workload"
# perfbench/ is a Cargo workspace of its own, so the workspace test run
# above does not reach it. Its smoke tests run each workload end to end and
# check the output, so a change that breaks a workload fails here.
# --locked: a workspace dependency change that would rewrite
# perfbench/Cargo.lock fails here instead of silently editing the benchmark.
cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

step "cargo doc --no-deps --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

step "hermeticity: dependency graph must contain only in-repo path crates"
# check_hermetic parses the real metadata JSON (via smart-json) and fails on
# any package whose "source" is non-null, i.e. anything registry- or
# git-sourced.
cargo metadata --format-version 1 --offline \
  | cargo run -q --release --offline -p smart-integration --bin check_hermetic

step "smart-sync model checker: scenarios, mutation fixtures, coverage floors"
# The model suite runs the ported queue/watchdog/serve primitives through
# the deterministic scheduler (DESIGN.md §13): every pinned scenario must
# hold on every explored schedule, and the broken-queue mutation fixtures
# must be caught. check_model_coverage then re-runs the scenario sweep
# twice and fails if exploration fell below the committed schedule floors
# or diverged between runs at the same seed.
cargo test -q --offline -p smart-sync --features model
cargo run -q --release --offline -p smart-sync --features model \
  --bin check_model_coverage

step "smart-lint: workspace must pass every determinism/hermeticity rule"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
# --deny-warnings makes any surviving violation fatal; the report gate then
# re-parses the JSON export and re-asserts cleanliness and rule coverage.
cargo run -q --release --offline -p smart-lint -- --deny-warnings --out "$tmpdir"
cargo run -q --release --offline -p smart-integration --bin check_lint_report \
  "$tmpdir/lint_workspace.json"

step "telemetry smoke: quickstart traces and exports a valid run report"
WEFR_LOG=debug WEFR_TELEMETRY_OUT="$tmpdir" \
  cargo run -q --release --offline -p smart-integration --example quickstart \
  > "$tmpdir/stdout.txt" 2> "$tmpdir/stderr.txt"
grep -q 'span rankers' "$tmpdir/stderr.txt" || {
  echo "ERROR: no ranker span lines on stderr at WEFR_LOG=debug" >&2
  exit 1
}
cargo run -q --release --offline -p smart-integration --bin check_telemetry_report \
  "$tmpdir/telemetry_quickstart.json" \
  rankers ensemble threshold_scan change_point wearout_split evaluate
# The count-weighted flamegraph is a pure function of the span structure, so
# the committed artifact must match this run byte for byte.
cmp "$tmpdir/flame_quickstart.svg" results/flame_quickstart.svg || {
  echo "ERROR: results/flame_quickstart.svg is stale; regenerate with" >&2
  echo "  WEFR_TELEMETRY_OUT=results cargo run --release --example quickstart" >&2
  exit 1
}

step "obs-alloc: telemetry tests under the counting allocator"
cargo test -q --offline -p smart-telemetry --features obs-alloc

step "observability overhead: full plane <=5% wall-clock, stdout untouched"
# bench_obs_overhead reruns the quickstart binary with every observability
# knob on (report, /metrics endpoint, watchdog, allocation counters) and
# off, alternating; the gate fails on >5% overhead or any stdout diff.
cargo run -q --release --offline -p wefr-bench --bin bench_obs_overhead -- \
  target/release/examples/quickstart --out "$tmpdir"
cargo run -q --release --offline -p smart-integration --bin check_obs_overhead \
  "$tmpdir/BENCH_pr7.json"

step "split-strategy timing: histogram training must not be slower than exact"
# A quick MC1-only Exp#4 runtime run, which times the same forest under the
# exact and the histogram split engine; the gate parses its JSON rows and
# fails if the binned engine lost to the exact engine.
cargo run -q --release --offline -p wefr-bench --bin exp4_runtime -- \
  --quick --days 240 --model mc1 --out "$tmpdir"
cargo run -q --release --offline -p smart-integration --bin check_split_bench \
  "$tmpdir/exp4_runtime.json"

step "ingest bench: sharded reader must not be slower than single-threaded"
# A quick MC1-only run of the paired ingestion benchmark; the gate parses
# its JSON report and fails if the sharded reader at 1 worker lost to the
# single-threaded reference (multi-worker speedup is reported, not gated —
# it depends on the machine's core count).
cargo run -q --release --offline -p wefr-bench --bin bench_ingest -- \
  --quick --days 240 --model mc1 --out "$tmpdir"
cargo run -q --release --offline -p smart-integration --bin check_ingest_bench \
  "$tmpdir/BENCH_pr5.json"

step "scenario ablation: recoverable chaos must not move the WEFR selected set"
# A quick MC1-only run of the chaos scenario ablation; the gate parses its
# JSON report and fails if any row's skip accounting was inexact, or if a
# recoverable row (CSV chaos under tolerant ingest) drifted from the clean
# baseline's selection (DESIGN.md §11). Fleet-level perturbation rows are
# reported, not gated.
cargo run -q --release --offline -p wefr-bench --bin ablation_scenarios -- \
  --quick --days 240 --model mc1 --out "$tmpdir"
cargo run -q --release --offline -p smart-integration --bin check_scenario_stability \
  "$tmpdir/BENCH_pr6.json"

step "streaming generation: bit-identity, bounded window, pinned Fig. 1 census"
# A quick run of the streaming-generation benchmark; the gate parses its
# JSON report and fails if any bit-identity cell diverged from
# Fleet::generate or the bounded pipeline window stopped beating the
# materialized fleet (DESIGN.md §12). The committed paper-scale report is
# re-gated with the stricter --paper rules (500K drives, allocation
# receipts), and the pinned Fig. 1 survival census must regenerate byte
# for byte, like the flamegraph.
cargo run -q --release --offline -p wefr-bench --bin bench_gen_stream -- \
  --quick --census 2000 --out "$tmpdir"
cargo run -q --release --offline -p smart-integration --bin check_gen_bench \
  "$tmpdir/BENCH_pr8.json"
cargo run -q --release --offline -p smart-integration --bin check_gen_bench -- \
  --paper results/BENCH_pr8.json
cmp "$tmpdir/census_fig1.json" results/census_fig1.json || {
  echo "ERROR: results/census_fig1.json is stale; regenerate with" >&2
  echo "  cargo run --release -p wefr-bench --bin bench_gen_stream -- --quick --out results" >&2
  exit 1
}

step "serve smoke: daemon transcript deterministic across worker counts"
# The continuous-selection daemon replays a fixed-seed fleet, serves a
# scripted query session over its TCP listener, and prints the whole
# exchange (DESIGN.md §14). The transcript must be byte-identical across
# ingest worker counts and must match the committed golden file.
WEFR_WORKERS=1 cargo run -q --release --offline -p smart-serve -- --smoke \
  > "$tmpdir/serve_smoke_w1.txt"
WEFR_WORKERS=4 cargo run -q --release --offline -p smart-serve -- --smoke \
  > "$tmpdir/serve_smoke_w4.txt"
cmp "$tmpdir/serve_smoke_w1.txt" "$tmpdir/serve_smoke_w4.txt" || {
  echo "ERROR: serve smoke transcript depends on the ingest worker count" >&2
  exit 1
}
cmp "$tmpdir/serve_smoke_w1.txt" results/serve_smoke.txt || {
  echo "ERROR: results/serve_smoke.txt is stale; regenerate with" >&2
  echo "  cargo run --release -p smart-serve -- --smoke > results/serve_smoke.txt" >&2
  exit 1
}

step "all checks passed"
