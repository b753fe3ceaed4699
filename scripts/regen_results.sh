#!/usr/bin/env bash
# Regenerates every *tracked* file under results/ from source.
#
# Contract (see EXPERIMENTS.md): tracked results are deterministic — same
# sources, same seeds, same bytes on any machine — so CI regenerates them
# and fails on `git diff`. Timing measurements (results/bitpar_speedup.csv,
# the fuzz corpus) are machine-dependent, stay untracked/ignored and are
# not regenerated here; wall-clock performance is measured by
# perfbench/run.py.
set -euo pipefail
cd "$(dirname "$0")/.."

bins=(
    fig2_lock_acquisition
    table1_fault_coverage
    bist_lock_time
    eye_ablation
    bathtub
    mismatch_monte_carlo
    fuzz_coverage
    netlist_campaign
    test_program_listing
    reproduction_report
    obs_campaign
    link_farm
)

for bin in "${bins[@]}"; do
    echo "==> cargo run -p bench --release --offline --bin $bin"
    cargo run -q -p bench --release --offline --bin "$bin" > /dev/null
done

echo "regen_results: OK"
