//! Extended property-based tests (in-tree `rt::check` harness): the
//! test-generation machinery (PODEM, exhaustive fault simulation)
//! cross-validated against each other on randomly generated circuits,
//! the batched transition fault simulator against the per-fault
//! launch-on-capture rule, plus invariants of the PRBS and BER
//! extensions.

use dft::chain_a::ChainA;
use dft::chain_b::ChainB;
use dsim::atpg::{exhaustive_vectors, random_vectors};
use dsim::circuit::{Circuit, GateKind, NetId};
use dsim::expand::TimeExpansion;
use dsim::podem::generate_test;
use dsim::stuck_at::{enumerate_faults, scan_coverage};
use dsim::transition::{
    enumerate_transition_faults, launch_capture_response, responses_differ, transition_detected,
    two_pattern_tests, TwoPatternResponse, TwoPatternTest,
};
use link::ber::BerModel;
use link::prbs::Prbs;
use rt::check::{check_cases, Draws};
use rt::rng::Rng;

/// Draws a random combinational circuit: 2–4 primary inputs, 2–7 gates,
/// each gate wired to previously created nets (the in-tree equivalent of
/// the old proptest strategy).
fn random_circuit(rng: &mut Draws) -> Circuit {
    let n_pi = rng.range_usize(2, 5);
    let n_gates = rng.range_usize(2, 8);
    let mut c = Circuit::new("random");
    let mut nets: Vec<NetId> = (0..n_pi).map(|i| c.input(format!("i{i}"))).collect();
    for gi in 0..n_gates {
        let a = nets[rng.below(nets.len())];
        let b = nets[rng.below(nets.len())];
        let y = c.net(format!("g{gi}"));
        match rng.below(7) {
            0 => c.gate(GateKind::And, &[a, b], y),
            1 => c.gate(GateKind::Or, &[a, b], y),
            2 => c.gate(GateKind::Nand, &[a, b], y),
            3 => c.gate(GateKind::Nor, &[a, b], y),
            4 => c.gate(GateKind::Xor, &[a, b], y),
            5 => c.gate(GateKind::Not, &[a], y),
            _ => c.gate(GateKind::Buf, &[a], y),
        }
        nets.push(y);
    }
    // The final net is the primary output.
    c.output(*nets.last().expect("at least one net"));
    c
}

/// PODEM soundness: every generated vector really detects its target
/// fault under the independent fault simulator.
#[test]
fn podem_vectors_are_sound() {
    check_cases("podem_vectors_are_sound", 64, |rng| {
        let c = random_circuit(rng);
        for fault in enumerate_faults(&c) {
            if let Some(v) = generate_test(&c, fault) {
                let cov = scan_coverage(&c, &[v]);
                assert!(
                    !cov.undetected().contains(&fault),
                    "{fault} not detected by its own PODEM vector"
                );
            }
        }
    });
}

/// PODEM completeness: a fault PODEM calls untestable is missed by the
/// *exhaustive* vector set too (no false untestability claims).
#[test]
fn podem_untestable_faults_really_are() {
    check_cases("podem_untestable_faults_really_are", 64, |rng| {
        let c = random_circuit(rng);
        let all = exhaustive_vectors(&c).expect("small circuit");
        let cov = scan_coverage(&c, &all);
        for fault in enumerate_faults(&c) {
            if generate_test(&c, fault).is_none() {
                assert!(
                    cov.undetected().contains(&fault),
                    "PODEM claimed {fault} untestable but exhaustive patterns catch it"
                );
            }
        }
    });
}

/// Holds [`transition_detected`] to the per-fault rule on `circuit`: one
/// [`launch_capture_response`] replay per fault and test, compared with
/// the golden response by [`responses_differ`]. The batched flags must
/// match over the whole universe, over a permutation of it, and fault by
/// fault. Returns how many faults the tests detect.
fn assert_batched_transition_flags(
    circuit: &Circuit,
    tests: &[TwoPatternTest],
    rng: &mut Draws,
) -> usize {
    let goldens: Vec<TwoPatternResponse> = tests
        .iter()
        .map(|t| launch_capture_response(circuit, t, None))
        .collect();
    let faults = enumerate_transition_faults(circuit);
    let want: Vec<bool> = faults
        .iter()
        .map(|&f| {
            tests
                .iter()
                .zip(&goldens)
                .any(|(t, g)| responses_differ(g, &launch_capture_response(circuit, t, Some(f))))
        })
        .collect();
    let name = circuit.name();
    assert_eq!(
        transition_detected(circuit, tests, &goldens, &faults),
        want,
        "{name}"
    );

    let mut order: Vec<usize> = (0..faults.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let permuted: Vec<_> = order.iter().map(|&i| faults[i]).collect();
    let want_permuted: Vec<bool> = order.iter().map(|&i| want[i]).collect();
    assert_eq!(
        transition_detected(circuit, tests, &goldens, &permuted),
        want_permuted,
        "{name}: permuted fault order"
    );

    for (&fault, &w) in faults.iter().zip(&want) {
        assert_eq!(
            transition_detected(circuit, tests, &goldens, &[fault]),
            [w],
            "{name}: {fault} alone"
        );
    }
    want.iter().filter(|&&d| d).count()
}

/// The batched transition detector agrees with the per-fault rule on the
/// paper's gate-level chains and the vendored `b01` benchmark, under both
/// the PODEM launch-on-capture set and paired random vectors.
#[test]
fn batched_transition_flags_match_the_per_fault_rule_on_real_netlists() {
    let b01 = dsim::verilog::compile(
        &std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/b01_net.v"
        ))
        .expect("vendored benchmark netlist"),
    )
    .expect("b01 compiles");
    let circuits = [
        ChainA::new().circuit().clone(),
        ChainB::new(4).circuit().clone(),
        b01,
    ];
    let mut rng = Draws::fresh(Rng::seed_from_u64(32));
    for circuit in &circuits {
        let (podem, _) = TimeExpansion::new(circuit).generate_all();
        let random = two_pattern_tests(&random_vectors(circuit, 48, 7));
        for tests in [podem, random] {
            let detected = assert_batched_transition_flags(circuit, &tests, &mut rng);
            assert!(detected > 0, "{}: nothing detected", circuit.name());
        }
    }
}

/// The same agreement on random circuits and random pattern pairs.
#[test]
fn batched_transition_flags_match_the_per_fault_rule_on_random_circuits() {
    check_cases(
        "batched_transition_flags_match_the_per_fault_rule",
        64,
        |rng| {
            let c = random_circuit(rng);
            let count = rng.range_usize(2, 12);
            let seed = rng.next_u64();
            let tests = two_pattern_tests(&random_vectors(&c, count, seed));
            assert_batched_transition_flags(&c, &tests, rng);
        },
    );
}

/// PRBS generators repeat with the full maximal-length period for the
/// lengths where the `x^n + x^(n-1) + 1` trinomial is primitive, from any
/// nonzero seed.
#[test]
fn prbs_maximal_length_properties() {
    check_cases("prbs_maximal_length_properties", 64, |rng| {
        let length = [3u32, 4, 6, 7][rng.below(4)];
        let seed = rng.range_usize(1, 1000) as u32;
        let tap = length - 1;
        let mask = (1u32 << length) - 1;
        let seed = (seed & mask).max(1);
        let mut gen = Prbs::new(length, tap, seed);
        let period = mask as usize; // 2^n - 1
        let first: Vec<bool> = gen.by_ref().take(period).collect();
        let second: Vec<bool> = gen.take(period).collect();
        assert_eq!(first, second);
        // Maximal-length balance: exactly 2^(n-1) ones per period.
        let ones = first.iter().filter(|b| **b).count();
        assert_eq!(ones, 1 << (length - 1));
    });
}

/// The bathtub is symmetric about the eye center and monotone from the
/// center outward.
#[test]
fn bathtub_symmetry_and_monotonicity() {
    check_cases("bathtub_symmetry_and_monotonicity", 256, |rng| {
        let center = rng.range_f64(0.1, 0.9);
        let half = rng.range_f64(0.05, 0.4);
        let sigma = rng.range_f64(0.01, 0.2);
        let m = BerModel::new(center, half, sigma);
        let mut last = m.ber_at(center);
        for k in 1..=20 {
            let d = k as f64 * 0.025;
            let l = m.ber_at(center - d);
            let r = m.ber_at(center + d);
            assert!((l - r).abs() <= 1e-9 * l.max(1e-300));
            assert!(r >= last - 1e-15, "not monotone at offset {d}");
            last = r;
        }
    });
}
