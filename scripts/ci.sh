#!/usr/bin/env bash
# The checks a CI pipeline runs on every change. Builds are offline by
# design: all third-party deps are vendored shims (see DESIGN.md §4).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

cargo build --release
cargo test -q
# Every workspace member's tests too: the core crate's cache and
# coalescer suites (unit and `crates/core/tests`), the train crate's and
# the lint's. `cargo test` at the root runs only the suite package.
cargo test -q --workspace
# The observability golden file must stay byte-stable (regenerate with
# UPDATE_GOLDEN=1 after intentional trace/exporter changes).
cargo test -q --test trace_observability
# Tier timing must stay differential: link speeds reach the step clock
# (tier_timing) and the cost model's predictions track the simulator
# (proptest_invariants). Run explicitly so a test-harness filter can
# never silently drop them.
cargo test -q --test tier_timing
cargo test -q --test proptest_invariants
# The offload-class differential suite: losses must stay bit-identical
# across the in-memory, inline-offloaded and overlapped optimizer
# paths, healthy or faulted. Run explicitly for the same reason.
cargo test -q --test optimizer_offload
# The fault × recovery matrix must hold through the coalesced/prefetched
# I/O path with bit-identical losses. Run explicitly for the same reason.
cargo test -q --test fault_injection
# The lint's own contract: golden diagnostics over the seeded fixture
# trees (regenerate with UPDATE_GOLDEN=1 after intentional rule
# changes) plus the --explain CLI surface. Run explicitly so a harness
# filter can never silently drop the analyzer's regression net.
cargo test -q -p ssdtrain-lint --test golden_diagnostics
cargo test -q -p ssdtrain-lint --test explain_cli
# The bench gates read results/BENCH_{tiering,capacity,io}.json, which
# are build outputs (results/ is gitignored): regenerate them first so
# a clean checkout gates the current code. Each run takes well under a
# second of wall time.
cargo run -q -p ssdtrain-bench --release --bin bench_tiering
cargo run -q -p ssdtrain-bench --release --bin bench_capacity
cargo run -q -p ssdtrain-bench --release --bin bench_io
# The bench reports must keep the backends' step times distinct and
# ordered, and the I/O and capacity gates green (see the script header).
scripts/bench_check.sh
# The repo benchmark (perfbench/, its own package) on every workload:
# the per-tensor stores of the paper's Figure 10 point (paper-fig10, the
# first to fail if a store is forwarded after its job started), the
# coalesced store path (smallblock-mixed) and real numerics through the
# gradient and optimizer-state paths (functional-gpt, whose losses must
# equal Keep bit for bit): each result line must report
# `"correct": true` — per-class byte conservation, identical
# steady-state steps and, for functional-gpt, bit-identical losses —
# with no failed step.
for workload in paper-fig10 smallblock-mixed functional-gpt; do
  result=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  case "$result" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "perfbench $workload is not correct: $result" >&2; exit 1 ;;
  esac
done
cargo clippy --workspace -- -D warnings
# Project-invariant lint: sim-clock, panic-freedom, error discipline and
# the flow rules (see DESIGN.md §7). Exits non-zero on any violation.
# The full pass keeps the workspace clean; the --changed-only pass is
# what a PR pipeline gates on (diagnostics scoped to the files the
# branch touched, against the merge base with origin/main).
cargo run -p ssdtrain-lint --release -- --format json
cargo run -p ssdtrain-lint --release -- --changed-only --format json
# SARIF is what code-scanning dashboards ingest: the run must stay clean
# in that mode too, and the report must be byte-stable — two runs over
# an unchanged tree may not differ, or diff-based upload dedup breaks.
cargo run -p ssdtrain-lint --release -- --format sarif > target/lint-run1.sarif
cargo run -p ssdtrain-lint --release -- --format sarif > target/lint-run2.sarif
cmp target/lint-run1.sarif target/lint-run2.sarif
# Doc-drift gate: every rule the binary knows must have a row in the
# DESIGN.md §7 catalogue, so the docs can never silently fall behind
# the analyzer (new rules land with their rationale or CI fails).
cargo run -q -p ssdtrain-lint --release -- --list-rules \
  | awk '{print $1}' \
  | while read -r rule; do
      grep -q "^| \`$rule\`" DESIGN.md \
        || { echo "DESIGN.md §7 is missing a catalogue row for rule \`$rule\`" >&2; exit 1; }
    done
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps
