#!/usr/bin/env bash
# CI gate: format, hermetic offline build, clippy, tests, docs, a hard
# check that the dependency graph contains zero registry crates (DESIGN.md
# §5), the model checker, the smart-lint static-analysis sweep (DESIGN.md
# §9), the three release-mode timing gates, and a check that results/ is
# untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo build --release --offline (all targets)"
cargo build --release --offline --workspace --all-targets

step "cargo clippy: every target, warnings are errors"
cargo clippy --offline --workspace --all-targets -- -D warnings

step "cargo clippy: the model checker's own code (smart-sync, model feature)"
cargo clippy --offline -p smart-sync --features model --all-targets -- -D warnings

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
# --deny-warnings makes any surviving violation fatal. --out keeps the run
# from rewriting the committed results/lint_workspace.json; the report's
# invariants and rule coverage are asserted by crates/lint/tests/self_check.rs.
cargo run -q --release --offline -p smart-lint -- --deny-warnings --out "$tmpdir"

step "obs-alloc: telemetry tests under the counting allocator"
cargo test -q --offline -p smart-telemetry --features obs-alloc

step "timing gates: histogram fit, 1-worker sharded ingest, observability overhead"
# Three #[ignore]d tests, timed in release one at a time: each times both
# sides in alternating pairs and bounds the median per-pair ratio
# (histogram/exact forest fit <= 1.00, sharded-at-1-worker/single ingest
# <= 1.10, full observability plane on/off <= 1.05). Every other rule about
# the paper's results, goldens included, runs in the cargo test step above.
cargo test -q --release --offline -p smart-integration --test timing_gates \
  -- --ignored --test-threads=1 --nocapture

step "results/ is left as committed"
# Nothing above may write, rewrite or leave behind a file under results/.
dirty=$(git status --porcelain -- results/)
if [ -n "$dirty" ]; then
  printf 'results/ changed during the run:\n%s\n' "$dirty" >&2
  exit 1
fi

step "all checks passed"
