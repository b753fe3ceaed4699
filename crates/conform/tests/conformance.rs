//! Conformance suite: the differential oracles agree on the healthy
//! workspace, the seeded mutant is caught (mutation-testing the oracle
//! itself), and the coverage-guided fuzzer is deterministic and strictly
//! beats its ATPG baseline.

use conform::coverage::{batch_footprints, set_coverage, vector_coverage};
use conform::fuzz::{fuzz, FuzzConfig};
use conform::oracle::{
    check_all, BehavioralVsGateOracle, CampaignSnapshotOracle, DiffOracle, EffectCollapseOracle,
    InstrumentedPpsfpOracle, LogicVsTransitionOracle, PackedVsScalarOracle, ScanVsFunctionalOracle,
    SeededMutant, TimeExpansionOracle,
};
use dft::chain_b::ChainB;
use dsim::atpg::random_vectors;
use dsim::blocks::divider::Divider;
use dsim::blocks::fsm::ControlFsm;
use dsim::blocks::lock_counter::LockCounter;
use dsim::circuit::{Circuit, GateKind};
use dsim::logic::Logic;
use dsim::scan::ScanVector;
use dsim::transition::two_pattern_tests;
use msim::params::DesignParams;

#[test]
fn scan_protocol_agrees_with_functional_simulation() {
    let blocks = [
        ("chain-b", ChainB::new(4).circuit().clone()),
        ("divider", Divider::new(3).circuit().clone()),
        ("lock-counter", LockCounter::new(3).circuit().clone()),
        ("control-fsm", ControlFsm::new().circuit().clone()),
    ];
    for (name, circuit) in blocks {
        let vectors = random_vectors(&circuit, 64, 19);
        let oracle = ScanVsFunctionalOracle::new(circuit, vectors);
        assert!(oracle.check().is_ok(), "{name}: {:?}", oracle.check());
    }
}

#[test]
fn transition_simulation_agrees_with_chained_logic_simulation() {
    let blocks = [
        ("chain-b", ChainB::new(4).circuit().clone()),
        ("divider", Divider::new(3).circuit().clone()),
        ("lock-counter", LockCounter::new(3).circuit().clone()),
        ("control-fsm", ControlFsm::new().circuit().clone()),
    ];
    for (name, circuit) in blocks {
        let tests = two_pattern_tests(&random_vectors(&circuit, 64, 23));
        let oracle = LogicVsTransitionOracle::new(circuit, tests);
        assert!(oracle.check().is_ok(), "{name}: {:?}", oracle.check());
    }
}

#[test]
fn behavioral_and_gate_level_agree_on_the_healthy_design() {
    let oracle = BehavioralVsGateOracle::new(&DesignParams::paper());
    assert!(oracle.check().is_ok(), "{:?}", oracle.check());
}

#[test]
fn seeded_mutant_is_caught_by_the_oracle() {
    // Mutation-testing the oracle itself: a flipped comparator polarity
    // at the gate-level capture flip-flops must produce a divergence. An
    // oracle that misses it has gone vacuous.
    let oracle = BehavioralVsGateOracle::new(&DesignParams::paper())
        .with_mutant(SeededMutant::FlippedComparatorPolarity);
    let divergence = oracle.check().expect_err("mutant must be caught");
    assert_eq!(divergence.oracle, "behavioral-vs-gate");
}

#[test]
fn campaign_matches_the_paper_snapshot() {
    let oracle = CampaignSnapshotOracle::new(&DesignParams::paper());
    assert!(oracle.check().is_ok(), "{:?}", oracle.check());
}

#[test]
fn collapsed_campaign_matches_the_per_fault_route() {
    let oracle = EffectCollapseOracle::new(&DesignParams::paper());
    assert!(oracle.check().is_ok(), "{:?}", oracle.check());
}

#[test]
fn check_all_stops_at_the_first_divergence() {
    let p = DesignParams::paper();
    let healthy = BehavioralVsGateOracle::new(&p);
    let mutated = healthy
        .clone()
        .with_mutant(SeededMutant::FlippedComparatorPolarity);
    let oracles: [&dyn DiffOracle; 2] = [&mutated, &healthy];
    let err = check_all(oracles).expect_err("mutant first");
    assert_eq!(err.oracle, "behavioral-vs-gate");
}

/// Sprinkles `X` lanes over a vector set and appends an all-`X` vector,
/// deterministically — stimulus for the packed three-valued corner cases.
fn with_x_injection(mut vectors: Vec<ScanVector>) -> Vec<ScanVector> {
    for (i, v) in vectors.iter_mut().enumerate() {
        for (j, b) in v.pi.iter_mut().chain(v.load.iter_mut()).enumerate() {
            if (i + j) % 5 == 0 {
                *b = Logic::X;
            }
        }
    }
    if let Some(first) = vectors.first() {
        vectors.push(ScanVector {
            pi: vec![Logic::X; first.pi.len()],
            load: vec![Logic::X; first.load.len()],
        });
    }
    vectors
}

#[test]
fn packed_simulation_agrees_with_scalar_simulation() {
    let blocks = [
        ("chain-b", ChainB::new(4).circuit().clone()),
        ("divider", Divider::new(3).circuit().clone()),
        ("lock-counter", LockCounter::new(3).circuit().clone()),
        ("control-fsm", ControlFsm::new().circuit().clone()),
    ];
    for (name, circuit) in blocks {
        // 70 vectors minus/plus X injection: a full 64-lane word plus a
        // partial final word, with X lanes and one all-X plane.
        let vectors = with_x_injection(random_vectors(&circuit, 70, 31));
        let oracle = PackedVsScalarOracle::new(circuit, vectors);
        assert!(oracle.check().is_ok(), "{name}: {:?}", oracle.check());
    }
}

/// A deliberately cyclic netlist: a cross-coupled NAND latch plus an
/// inverter ring, mixed into a flip-flop and the primary outputs. The
/// event-driven evaluator cannot levelize this and must fall back to the
/// bounded sweep — in every lane, at every width, in the scalar path.
fn feedback_circuit() -> Circuit {
    let mut c = Circuit::new("feedback-latch");
    let s = c.input("s");
    let r = c.input("r");
    let q = c.net("q");
    let qb = c.net("qb");
    c.gate(GateKind::Nand, &[s, qb], q);
    c.gate(GateKind::Nand, &[r, q], qb);
    // An inverter pair feeding back on itself: X-closes from reset and
    // stays X through every event-driven skip.
    let ra = c.net("ring_a");
    let rb = c.net("ring_b");
    c.gate(GateKind::Not, &[rb], ra);
    c.gate(GateKind::Not, &[ra], rb);
    let mix = c.net("mix");
    c.gate(GateKind::Xor, &[q, ra], mix);
    let ff_q = c.net("ff_q");
    c.dff(mix, ff_q);
    let out = c.net("out");
    c.gate(GateKind::Or, &[ff_q, qb], out);
    c.output(q);
    c.output(out);
    c
}

#[test]
fn packed_and_event_driven_agree_on_feedback_circuits() {
    // The full five-route oracle on a circuit with combinational loops:
    // lane responses at 64/256/512 lanes, coverage records, footprints,
    // forced-width PPSFP across 1/2/4/7 threads, and event-driven vs
    // bounded-sweep agreement — all through the fallback path, with X
    // injection in the stimulus.
    let circuit = feedback_circuit();
    let vectors = with_x_injection(random_vectors(&circuit, 70, 37));
    let oracle = PackedVsScalarOracle::new(circuit, vectors);
    assert!(oracle.check().is_ok(), "{:?}", oracle.check());
}

#[test]
fn time_expansion_agrees_with_sequential_replay() {
    // The acceptance contract for the transition ATPG: on all four
    // hand-built chains AND the vendored ITC-style netlist, PODEM
    // patterns from the time-expanded model — simulated scalar and
    // packed at every width and 1/2/4/7 worker threads — detect exactly
    // the transition-fault set that `launch_capture_response` detects on
    // the original sequential circuit.
    let b01 = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/b01_net.v"
    ))
    .expect("vendored benchmark netlist");
    let blocks = [
        ("chain-b", ChainB::new(4).circuit().clone()),
        ("divider", Divider::new(3).circuit().clone()),
        ("lock-counter", LockCounter::new(3).circuit().clone()),
        ("control-fsm", ControlFsm::new().circuit().clone()),
        ("b01", dsim::verilog::compile(&b01).expect("b01 lowers")),
    ];
    for (name, circuit) in blocks {
        let oracle = TimeExpansionOracle::new(circuit);
        assert!(oracle.check().is_ok(), "{name}: {:?}", oracle.check());
    }
}

#[test]
fn instrumentation_does_not_perturb_ppsfp_detection() {
    // Observability contract: running the PPSFP kernel under an explicit
    // rt::obs capture changes nothing about its detection flags, and the
    // captured deterministic metrics are thread-count invariant.
    let blocks = [
        ("chain-b", ChainB::new(4).circuit().clone()),
        ("divider", Divider::new(3).circuit().clone()),
    ];
    for (name, circuit) in blocks {
        let vectors = with_x_injection(random_vectors(&circuit, 70, 31));
        let oracle = InstrumentedPpsfpOracle::new(circuit, vectors);
        assert!(oracle.check().is_ok(), "{name}: {:?}", oracle.check());
    }
}

#[test]
fn packed_footprints_match_scalar_footprints() {
    let chain = ChainB::new(4);
    let vectors = with_x_injection(random_vectors(chain.circuit(), 67, 13));
    let packed = batch_footprints(chain.circuit(), &vectors);
    assert_eq!(packed.len(), vectors.len());
    for (i, (v, fp)) in vectors.iter().zip(&packed).enumerate() {
        assert_eq!(*fp, vector_coverage(chain.circuit(), v), "vector {i}");
    }
}

#[test]
fn fuzz_corpus_is_thread_count_invariant() {
    let chain = ChainB::new(4);
    let baseline = random_vectors(chain.circuit(), 4, 41);
    let cfg = FuzzConfig::smoke(0xC0FFEE);
    let single = fuzz(chain.circuit(), &baseline, &cfg);
    for threads in [2, 4, 7] {
        let pooled = fuzz(
            chain.circuit(),
            &baseline,
            &FuzzConfig {
                threads,
                ..cfg.clone()
            },
        );
        assert_eq!(
            single.corpus, pooled.corpus,
            "diverged at {threads} threads"
        );
        assert_eq!(single.coverage, pooled.coverage);
    }
}

#[test]
fn fuzzer_strictly_increases_coverage_over_the_atpg_baseline() {
    let chain = ChainB::new(4);
    let baseline = random_vectors(chain.circuit(), 4, 41);
    let base_cov = set_coverage(chain.circuit(), &baseline);
    let report = fuzz(chain.circuit(), &baseline, &FuzzConfig::smoke(0xC0FFEE));
    assert_eq!(report.baseline_points, base_cov.points());
    assert!(
        report.coverage.points() > base_cov.points(),
        "no gain: {} vs baseline {}",
        report.coverage.points(),
        base_cov.points()
    );
    assert_eq!(report.gain(), report.coverage.points() - base_cov.points());
}
