//! Scalar vs bit-parallel (PPSFP) fault-simulation throughput on the
//! paper's digital chains.
//!
//! ```text
//! cargo run -p bench --release --offline --bin bitpar_speedup
//! ```
//!
//! Both sides run the complete stuck-at campaign single-threaded — the
//! scalar reference `scan_coverage_scalar` (one pattern per gate-level
//! walk, early exit per fault) against the packed `dsim::bitpar` kernel
//! `ppsfp_detect` (64 patterns per `u64` word, fault dropping across
//! blocks) — so the reported speedup is purely algorithmic.
//!
//! Writes `results/bitpar_speedup.csv`
//! (`chain,faults,patterns,scalar_ns_per_pattern,packed_ns_per_pattern,speedup`),
//! one row per chain. Timing CSVs are **untracked** (see
//! EXPERIMENTS.md): every tracked file under `results/` is
//! deterministic, and this one is not.

use std::hint::black_box;
use std::time::Instant;

use bench::report::markdown_table;
use bench::{write_result, Csv};
use dft::chain_b::ChainB;
use dsim::atpg::random_vectors;
use dsim::bitpar::ppsfp_detect;
use dsim::blocks::divider::Divider;
use dsim::blocks::fsm::ControlFsm;
use dsim::blocks::lock_counter::LockCounter;
use dsim::circuit::Circuit;
use dsim::stuck_at::{enumerate_faults, scan_coverage_scalar};

/// Median wall time of one `f()` call over 21 timed calls, after one
/// warm-up call, in nanoseconds. The speedup column is the acceptance
/// number, so the median (not the mean) keeps it steady under load.
fn median_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut ns: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

fn main() {
    let chains: Vec<(&str, Circuit, u64)> = vec![
        (
            "scan chain B (4-phase)",
            ChainB::new(4).circuit().clone(),
            29,
        ),
        ("divider", Divider::new(3).circuit().clone(), 43),
        ("lock counter", LockCounter::new(3).circuit().clone(), 47),
        ("control FSM", ControlFsm::new().circuit().clone(), 53),
    ];
    // Up to eight 64-pattern blocks per chain; fault dropping stops the
    // packed run at the first block that leaves no fault undetected.
    let patterns = 512;

    let mut rows = Vec::new();
    let mut csv = Csv::new(&[
        "chain",
        "faults",
        "patterns",
        "scalar_ns_per_pattern",
        "packed_ns_per_pattern",
        "speedup",
    ]);
    for (name, circuit, seed) in &chains {
        let vectors = random_vectors(circuit, patterns, *seed);
        let faults = enumerate_faults(circuit);

        let scalar = median_ns(|| scan_coverage_scalar(circuit, &vectors).detected());
        let packed = median_ns(|| {
            ppsfp_detect(circuit, &vectors, &faults)
                .iter()
                .filter(|&&d| d)
                .count()
        });
        let scalar_pp = scalar / patterns as f64;
        let packed_pp = packed / patterns as f64;
        let speedup = scalar_pp / packed_pp;
        let cells = [
            name.to_string(),
            faults.len().to_string(),
            patterns.to_string(),
            format!("{scalar_pp:.0}"),
            format!("{packed_pp:.0}"),
        ];
        rows.push([&cells[..], &[format!("{speedup:.1}x")]].concat());
        csv.row(&[&cells[..], &[format!("{speedup:.2}")]].concat());
    }

    println!("=== Scalar vs bit-parallel (PPSFP) stuck-at campaign ===\n");
    print!(
        "{}",
        markdown_table(
            &[
                "Chain",
                "Faults",
                "Patterns",
                "Scalar ns/pat",
                "Packed ns/pat",
                "Speedup"
            ],
            &rows
        )
    );

    if let Err(e) = write_result("bitpar_speedup.csv", csv.as_str()) {
        eprintln!("could not write results/bitpar_speedup.csv: {e}");
        std::process::exit(1);
    }
}
