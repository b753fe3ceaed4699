//! Bounded fuzz smoke run — the tier-1 conformance gate.
//!
//! Fixed seed, fully offline, a couple of seconds: fuzzes the stitched
//! clock-control chain (chain B) from a deliberately small ATPG
//! baseline, asserts the run is byte-identical at 1 and 4 worker
//! threads, that coverage strictly grows over the baseline, that the
//! corpus survives a save/load roundtrip under `results/corpus/`, and
//! that the cheap differential oracles agree on the fuzzed corpus
//! (including the instrumented-vs-plain PPSFP oracle, so the tier-1 gate
//! also pins "observability does not perturb results", and the
//! checkpoint-resume oracle, so it also pins "a killed campaign resumes
//! byte-identically at 1/2/4/7 threads", the effect-collapse oracle, so
//! it also pins "the class-collapsed campaign equals the per-fault route
//! at 1/2/4/7 threads", and the time-expansion oracle, so it also pins
//! "transition ATPG on the two-timeframe model agrees with
//! launch-on-capture replay").
//!
//! Silent on success by default; run with `OBS=1` for the structured
//! summary line (`rt::obs::log`).

use std::path::Path;

use conform::corpus;
use conform::fuzz::{fuzz, FuzzConfig};
use conform::oracle::{
    check_all, CheckpointResumeOracle, DiffOracle, EffectCollapseOracle, InstrumentedPpsfpOracle,
    LogicVsTransitionOracle, PackedVsScalarOracle, ScanVsFunctionalOracle, TimeExpansionOracle,
};
use dft::chain_b::ChainB;
use dsim::atpg::random_vectors;
use dsim::transition::two_pattern_tests;
use msim::params::DesignParams;

fn main() {
    rt::obs::pin_epoch();
    let chain = ChainB::new(4);
    let circuit = chain.circuit();
    // A deliberately thin baseline: enough to anchor the corpus, small
    // enough to leave activation points for the fuzzer to find.
    let baseline = random_vectors(circuit, 4, 41);

    let cfg = FuzzConfig::smoke(0xC0FFEE);
    let single = fuzz(circuit, &baseline, &cfg);
    let pooled = fuzz(
        circuit,
        &baseline,
        &FuzzConfig {
            threads: 4,
            ..cfg.clone()
        },
    );
    assert_eq!(
        single.corpus, pooled.corpus,
        "fuzz corpus depends on the thread count"
    );
    assert_eq!(single.coverage, pooled.coverage);
    assert!(
        single.gain() > 0,
        "fuzzer found no new activation points over the ATPG baseline"
    );

    let path = Path::new("results/corpus/chain_b_smoke.corpus");
    corpus::save(path, &single.corpus).expect("corpus save");
    let reloaded = corpus::load(path).expect("corpus load");
    assert_eq!(reloaded, single.corpus, "corpus roundtrip");

    // The fuzzed corpus doubles as differential-oracle stimulus. Its
    // length is whatever the fuzzer accepted — almost never a multiple of
    // 64 — so the packed-vs-scalar oracle exercises a partial final word.
    let scan_oracle = ScanVsFunctionalOracle::new(circuit.clone(), single.corpus.clone());
    let transition_oracle =
        LogicVsTransitionOracle::new(circuit.clone(), two_pattern_tests(&single.corpus));
    let packed_oracle = PackedVsScalarOracle::new(circuit.clone(), single.corpus.clone());
    let obs_oracle = InstrumentedPpsfpOracle::new(circuit.clone(), single.corpus.clone());
    // Kill-and-resume at the acceptance sweep of 1/2/4/7 worker threads:
    // the campaign is behavioral (no per-pattern simulation), so the full
    // sweep stays well inside the smoke-gate time budget.
    let resume_oracle = CheckpointResumeOracle::new(&DesignParams::paper());
    // Class-collapsed campaign vs the per-fault reference, 1/2/4/7 threads.
    let collapse_oracle = EffectCollapseOracle::new(&DesignParams::paper());
    // Transition ATPG vs sequential replay on a small divider — narrowed
    // to two thread counts to stay inside the smoke-gate time budget (the
    // conformance suite runs the full 1/2/4/7 sweep on all chains).
    let expansion_oracle =
        TimeExpansionOracle::new(dsim::blocks::divider::Divider::new(2).circuit().clone())
            .with_threads(vec![1, 4]);
    let oracles: [&dyn DiffOracle; 7] = [
        &scan_oracle,
        &transition_oracle,
        &packed_oracle,
        &obs_oracle,
        &resume_oracle,
        &collapse_oracle,
        &expansion_oracle,
    ];
    if let Err(divergence) = check_all(oracles) {
        panic!("{divergence}");
    }

    rt::obs::log::info(
        "fuzz_smoke",
        format!(
            "baseline={} accepted={} coverage={}/{} gain={} executions={}",
            baseline.len(),
            single.accepted,
            single.coverage.points(),
            single.coverage.total(),
            single.gain(),
            single.executions,
        ),
    );
}
