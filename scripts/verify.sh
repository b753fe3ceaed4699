#!/usr/bin/env bash
# Tier-1 verification gate for the workspace.
#
# The build is hermetic (zero external dependencies, including
# dev-dependencies), so everything below runs with --offline and must
# pass with an empty registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

# The benchmark harness (perfbench/, its own package) links the workspace
# crates by path: an API change that breaks it must fail here too.
echo "==> cargo check perfbench (benchmark harness)"
CARGO_TARGET_DIR=.bench_build cargo check -q --release --offline --manifest-path perfbench/Cargo.toml

# Bounded conformance fuzz smoke: fixed seed, coverage gain over the
# baseline and oracle sweep over the fuzzed corpus. The release binary is
# already built by the step above, so this finishes in well under 2 s.
# OBS=1 exercises the structured logger path (silent by default).
echo "==> fuzz smoke (conform)"
OBS=1 cargo run -q -p conform --release --offline --bin fuzz_smoke

# Job-server smoke: start on an ephemeral port, check /healthz carries
# uptime + version, submit one small chain-A campaign, then prove the
# cache contract (200 + "cached" on an identical re-POST, byte-identical
# body, simulation counters flat). It also scrapes /metrics (failing on
# malformed exposition) and fetches the job's Chrome trace, leaving both
# under results/ as untracked snapshots; CI uploads them as artifacts.
# The release binary is already built by the first step.
echo "==> serve smoke (job server)"
cargo run -q -p serve --release --offline --bin serve_smoke
test -s results/serve_metrics.prom || { echo "serve_smoke left no metrics snapshot" >&2; exit 1; }
test -s results/serve_trace.json || { echo "serve_smoke left no job trace" >&2; exit 1; }

# Documentation gate: rustdoc must build without warnings (missing docs
# are denied via #![warn(missing_docs)] + -D warnings) and every doctest
# must pass. Both offline, like everything else.
echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet

echo "==> cargo test --doc --offline"
cargo test -q --doc --offline

# Prose docs must not drift from the workspace: every `cargo run --bin`
# / `--example` command quoted in README/GUIDE/EXPERIMENTS/... must name
# a target that actually builds.
echo "==> scripts/check_docs.sh"
./scripts/check_docs.sh

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "verify: OK"
