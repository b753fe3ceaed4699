#!/usr/bin/env bash
# Regenerates every *tracked* file under results/ from source.
#
# Contract (see EXPERIMENTS.md): tracked results are deterministic — same
# sources, same seeds, same bytes on any machine — so CI regenerates them
# and fails on `git diff` or on any untracked file left under results/.
# One binary runs the whole paper campaign once and writes them all; it
# exits non-zero if a checked claim fails or a file cannot be written.
# Timing measurements (results/bitpar_speedup.csv, the fuzz corpus) are
# machine-dependent, stay gitignored and are not regenerated here;
# wall-clock performance is measured by perfbench/run.py.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo run -p bench --release --offline --bin reproduce"
cargo run -q -p bench --release --offline --bin reproduce

echo "regen_results: OK"
