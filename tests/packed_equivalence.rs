//! Property-based equivalence of the bit-parallel (packed) simulator
//! against the scalar reference (in-tree `rt::check` harness): random
//! sequential circuits and X-injected vector sets, with the packed corner
//! cases the conformance suite cannot sweep — partial final words (pattern
//! counts that are not a multiple of the 64-lane plane), single-lane
//! blocks, all-`X` planes, and the rejection of combinational feedback by
//! both evaluators.

use dsim::bitpar::{self, lane_mask, LANES};
use dsim::circuit::{Circuit, GateKind, NetId, SimState, StructureError};
use dsim::logic::Logic;
use dsim::scan::{apply_vector, ScanVector};
use dsim::stuck_at::{scan_coverage, scan_coverage_scalar};
use rt::check::{check_cases, Draws};

/// Draws a random sequential circuit: 1–3 primary inputs, 1–3 flip-flops
/// (whose `q` nets join the wiring pool up-front, so feedback through state
/// is common), 3–9 gates over the full gate alphabet, and two primary
/// outputs.
fn random_sequential_circuit(rng: &mut Draws) -> Circuit {
    let n_pi = rng.range_usize(1, 4);
    let n_ff = rng.range_usize(1, 4);
    let n_gates = rng.range_usize(3, 10);
    let mut c = Circuit::new("random-seq");
    let mut pool: Vec<NetId> = (0..n_pi).map(|i| c.input(format!("i{i}"))).collect();
    let qs: Vec<NetId> = (0..n_ff)
        .map(|i| {
            let q = c.net(format!("q{i}"));
            pool.push(q);
            q
        })
        .collect();
    for gi in 0..n_gates {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let s = pool[rng.below(pool.len())];
        let y = c.net(format!("g{gi}"));
        match rng.below(9) {
            0 => c.gate(GateKind::And, &[a, b], y),
            1 => c.gate(GateKind::Or, &[a, b], y),
            2 => c.gate(GateKind::Nand, &[a, b], y),
            3 => c.gate(GateKind::Nor, &[a, b], y),
            4 => c.gate(GateKind::Xor, &[a, b], y),
            5 => c.gate(GateKind::Xnor, &[a, b], y),
            6 => c.gate(GateKind::Not, &[a], y),
            7 => c.gate(GateKind::Buf, &[a], y),
            _ => c.gate(GateKind::Mux, &[s, a, b], y),
        }
        pool.push(y);
    }
    for &q in &qs {
        let d = pool[rng.below(pool.len())];
        c.dff(d, q);
    }
    c.output(*pool.last().expect("at least one net"));
    c.output(pool[rng.below(pool.len())]);
    c
}

/// One three-valued draw with a 20 % chance of `X`.
fn random_logic(rng: &mut Draws) -> Logic {
    match rng.below(10) {
        0 | 1 => Logic::X,
        n if n % 2 == 0 => Logic::Zero,
        _ => Logic::One,
    }
}

/// `count` random vectors with X injected into both the PI pattern and the
/// scan load image.
fn random_x_vectors(rng: &mut Draws, circuit: &Circuit, count: usize) -> Vec<ScanVector> {
    (0..count)
        .map(|_| ScanVector {
            pi: (0..circuit.inputs().len())
                .map(|_| random_logic(rng))
                .collect(),
            load: (0..circuit.dff_count())
                .map(|_| random_logic(rng))
                .collect(),
        })
        .collect()
}

/// Pattern counts that pin the word-boundary corner cases: a single lane,
/// one-short-of-full, exactly full, full-plus-one, and multi-word sets with
/// and without a partial final word.
const WORD_EDGE_COUNTS: [usize; 6] = [1, 63, 64, 65, 128, 130];

/// Lane-for-lane response equivalence: every packed block, sliced back into
/// scalar lanes, reproduces the scalar `apply_vector` responses exactly —
/// including `X` positions — at every word-boundary pattern count.
#[test]
fn packed_responses_match_scalar_lane_for_lane() {
    check_cases("packed_responses_match_scalar_lane_for_lane", 48, |rng| {
        let c = random_sequential_circuit(rng);
        let count = WORD_EDGE_COUNTS[rng.below(WORD_EDGE_COUNTS.len())];
        let vectors = random_x_vectors(rng, &c, count);
        for (bi, block) in vectors.chunks(LANES).enumerate() {
            let mut packed = bitpar::PackedState::for_circuit(&c);
            let resp = bitpar::apply_vectors(&c, &mut packed, block);
            assert_eq!(resp.lanes, block.len(), "block {bi} lane count");
            for (lane, v) in block.iter().enumerate() {
                let mut scalar = SimState::for_circuit(&c);
                let want = apply_vector(&c, &mut scalar, v);
                assert_eq!(
                    bitpar::response_lane(&resp, lane),
                    want,
                    "block {bi} lane {lane} of {count} vectors diverged",
                );
            }
        }
    });
}

/// Draws a random circuit with genuine combinational feedback: a
/// cross-coupled NAND latch wired into the random gate pool. Returns the
/// circuit and the latch's `q` net, the output of its first gate.
fn random_feedback_circuit(rng: &mut Draws) -> (Circuit, NetId) {
    let n_pi = rng.range_usize(1, 4);
    let mut c = Circuit::new("random-feedback");
    let mut pool: Vec<NetId> = (0..n_pi).map(|i| c.input(format!("i{i}"))).collect();
    let q = c.net("q");
    let qb = c.net("qb");
    let s = pool[rng.below(pool.len())];
    let r = pool[rng.below(pool.len())];
    c.gate(GateKind::Nand, &[s, qb], q);
    c.gate(GateKind::Nand, &[r, q], qb);
    pool.push(q);
    pool.push(qb);
    for gi in 0..rng.range_usize(2, 7) {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let y = c.net(format!("g{gi}"));
        match rng.below(4) {
            0 => c.gate(GateKind::And, &[a, b], y),
            1 => c.gate(GateKind::Or, &[a, b], y),
            2 => c.gate(GateKind::Xor, &[a, b], y),
            _ => c.gate(GateKind::Not, &[a], y),
        }
        pool.push(y);
    }
    let ffq = c.net("ffq");
    c.dff(pool[rng.below(pool.len())], ffq);
    c.output(*pool.last().expect("at least one net"));
    c.output(q);
    (c, q)
}

/// The message of the panic `f` must raise.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("a rejected circuit must not evaluate");
    *payload
        .downcast::<String>()
        .expect("a formatted panic message")
}

/// Feedback rejection: a cyclic circuit fails `Circuit::check` at the
/// latch's first gate, and neither the scalar evaluator nor the packed one
/// runs on it — each panics with that error.
#[test]
fn feedback_circuits_are_rejected_at_every_width() {
    check_cases("feedback_circuits_are_rejected_at_every_width", 12, |rng| {
        let (c, q) = random_feedback_circuit(rng);
        assert_eq!(
            c.check(),
            Err(StructureError::CombinationalCycle { net: q })
        );
        let want = format!(
            "circuit 'random-feedback' is not an acyclic single-driver netlist: \
             combinational cycle through net {q}"
        );
        assert_eq!(
            panic_message(|| c.eval(&mut SimState::for_circuit(&c))),
            want
        );
        assert_eq!(
            panic_message(|| bitpar::eval(&c, &mut bitpar::PackedState::for_circuit(&c))),
            want
        );
    });
}

/// The full PPSFP path (`scan_coverage`, with fault dropping) reports the
/// same coverage as the scalar reference on random sequential circuits —
/// detected count and the `undetected` list in identical order.
#[test]
fn ppsfp_coverage_matches_scalar_coverage() {
    check_cases("ppsfp_coverage_matches_scalar_coverage", 48, |rng| {
        let c = random_sequential_circuit(rng);
        let count = rng.range_usize(1, 131);
        let vectors = random_x_vectors(rng, &c, count);
        assert_eq!(
            scan_coverage(&c, &vectors),
            scan_coverage_scalar(&c, &vectors),
            "packed and scalar coverage diverged on {count} vectors"
        );
    });
}

/// An all-`X` stimulus plane (every PI and load bit unknown, 65 copies so
/// the final word is partial) produces an all-`X` golden response in both
/// simulators and can never detect a fault: an unknown golden value is not
/// comparable on a tester.
#[test]
fn all_x_planes_match_scalar_and_detect_nothing() {
    check_cases("all_x_planes_match_scalar_and_detect_nothing", 24, |rng| {
        let c = random_sequential_circuit(rng);
        let v = ScanVector {
            pi: vec![Logic::X; c.inputs().len()],
            load: vec![Logic::X; c.dff_count()],
        };
        let vectors = vec![v; LANES + 1];
        for block in vectors.chunks(LANES) {
            let mut packed = bitpar::PackedState::for_circuit(&c);
            let resp = bitpar::apply_vectors(&c, &mut packed, block);
            let mut scalar = SimState::for_circuit(&c);
            let want = apply_vector(&c, &mut scalar, &vectors[0]);
            for lane in 0..resp.lanes {
                assert_eq!(bitpar::response_lane(&resp, lane), want);
            }
        }
        let cov = scan_coverage(&c, &vectors);
        assert_eq!(cov.detected(), 0, "an all-X plane detected a fault");
        assert_eq!(cov, scan_coverage_scalar(&c, &vectors));
    });
}

/// The packed word for a partial block keeps its dead lanes at `X` from
/// stimulus to response: packing `n < 64` vectors never lets an unused
/// lane turn into a known value that could leak into coverage or
/// detection — through the event-driven skips as much as through actual
/// gate evaluation.
#[test]
fn dead_lanes_stay_unknown_through_simulation() {
    check_cases("dead_lanes_stay_unknown_through_simulation", 24, |rng| {
        let c = random_sequential_circuit(rng);
        let count = rng.range_usize(1, LANES); // always a partial word
        let vectors = random_x_vectors(rng, &c, count);
        let mut packed = bitpar::PackedState::for_circuit(&c);
        let resp = bitpar::apply_vectors(&c, &mut packed, &vectors);
        for w in resp.po.iter().chain(&resp.capture) {
            assert_eq!(
                w.known_mask() & !lane_mask(count),
                0,
                "a dead lane became known: {w:?} with {count} live lanes",
            );
        }
    });
}
