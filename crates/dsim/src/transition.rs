//! The transition (gate-delay) fault model.
//!
//! The paper claims more than stuck-at coverage for the coarse loop: *"The
//! digital coarse correction is operated at a divided clock frequency
//! which is in the range of scan test frequencies. Hence the delay faults
//! in this path are also tested with 100% coverage."* This module provides
//! the standard transition fault model behind that claim: every net can be
//! **slow-to-rise** or **slow-to-fall**, and a fault is detected by a
//! two-pattern launch-on-capture test — the first pattern initializes the
//! net, the second launches the transition and captures one cycle later.
//! A slow net misses the capture edge, so its captured value equals the
//! *initial* value instead of the final one.
//!
//! [`launch_capture_response`] is the rule for one fault and one test.
//! The fault simulator, [`transition_detected`], applies it to a whole
//! fault slice at once: the fault-free initialization and launch do not
//! depend on the fault, so each test simulates them once, and only the
//! faults whose net the launch moves in their slow direction replay the
//! capture cycle.
//!
//! # Examples
//!
//! ```
//! use dsim::atpg::random_vectors;
//! use dsim::blocks::lock_counter::LockCounter;
//! use dsim::transition::{transition_coverage, two_pattern_tests};
//!
//! let lc = LockCounter::new(3);
//! let vectors = random_vectors(lc.circuit(), 96, 5);
//! let tests = two_pattern_tests(&vectors);
//! let cov = transition_coverage(lc.circuit(), &tests);
//! assert!(cov.coverage() > 0.9);
//! ```

use std::fmt;

use crate::circuit::{Circuit, NetId, SimState};
use crate::logic::Logic;
use crate::scan::ScanVector;

/// One transition fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// Faulted net.
    pub net: NetId,
    /// `true` for slow-to-rise (the rising transition misses the capture
    /// edge), `false` for slow-to-fall.
    pub slow_to_rise: bool,
}

impl fmt::Display for TransitionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}",
            self.net,
            if self.slow_to_rise { "STR" } else { "STF" }
        )
    }
}

/// Enumerates the transition fault universe: slow-to-rise and slow-to-fall
/// on every net.
pub fn enumerate_transition_faults(circuit: &Circuit) -> Vec<TransitionFault> {
    (0..circuit.net_count())
        .flat_map(|i| {
            [true, false].map(|slow_to_rise| TransitionFault {
                net: NetId(i),
                slow_to_rise,
            })
        })
        .collect()
}

/// A launch-on-capture two-pattern test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TwoPatternTest {
    /// Initialization vector.
    pub init: ScanVector,
    /// Launch vector (applied to the primary inputs for the capture
    /// cycle; the launch state comes from the capture of `init`).
    pub launch: ScanVector,
}

/// Pairs consecutive scan vectors into two-pattern tests (the standard way
/// to reuse a stuck-at pattern set for transition testing).
pub fn two_pattern_tests(vectors: &[ScanVector]) -> Vec<TwoPatternTest> {
    vectors
        .windows(2)
        .map(|w| TwoPatternTest {
            init: w[0].clone(),
            launch: w[1].clone(),
        })
        .collect()
}

/// Response of one two-pattern test: outputs and captured state after the
/// launch-to-capture cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoPatternResponse {
    /// Primary outputs strobed at the capture edge.
    pub po: Vec<Logic>,
    /// Flip-flop state captured after the launch-to-capture cycle.
    pub capture: Vec<Logic>,
}

/// Simulates one two-pattern test, optionally with a transition fault.
///
/// Timing semantics: cycle 1 applies `init` (load + capture) establishing
/// the initial value `v0` on every net; cycle 2 applies the launch inputs
/// and evaluates to the final value `v1`. A slow-to-rise fault on net `n`
/// forces `n` back to `v0` during the capture evaluation whenever
/// `v0 = 0 ∧ v1 = 1` (the late transition has not arrived at the capture
/// edge); symmetrically for slow-to-fall. With `fault: None` this is the
/// fault-free launch-on-capture semantics differential oracles compare
/// against plain logic simulation.
pub fn launch_capture_response(
    circuit: &Circuit,
    test: &TwoPatternTest,
    fault: Option<TransitionFault>,
) -> TwoPatternResponse {
    let (init, mut state) = launch(circuit, test);
    // A slow net whose launch edge is the faulted direction still shows
    // v0 at the capture edge.
    if let Some(f) = fault {
        let v0 = init.net(f.net);
        if launches_slow_edge(f, v0, state.net(f.net)) {
            state.inject(f.net, v0);
            circuit.eval(&mut state);
        }
    }
    strobe_and_capture(circuit, state)
}

/// The fault-free half of a launch-on-capture test: the state after the
/// initialization pattern settles every net to its pre-launch value
/// `v0`, and the state after the launch edge (the flip-flops capture
/// V1's data, then the launch primary inputs apply and nets move
/// `v0 -> v1`).
fn launch(circuit: &Circuit, test: &TwoPatternTest) -> (SimState, SimState) {
    let mut state = SimState::for_circuit(circuit);
    state.load_ffs(&test.init.load);
    for (&net, &val) in circuit.inputs().iter().zip(&test.init.pi) {
        state.set_input(circuit, net, val);
    }
    circuit.eval(&mut state);
    let init = state.clone();
    circuit.tick(&mut state);
    for (&net, &val) in circuit.inputs().iter().zip(&test.launch.pi) {
        state.set_input(circuit, net, val);
    }
    circuit.eval(&mut state);
    (init, state)
}

/// Whether the launch moves `f`'s net `v0 -> v1` in its slow direction.
/// Otherwise the fault is not excited and the response is the golden one.
fn launches_slow_edge(f: TransitionFault, v0: Logic, v1: Logic) -> bool {
    match (v0, v1) {
        (Logic::Zero, Logic::One) => f.slow_to_rise,
        (Logic::One, Logic::Zero) => !f.slow_to_rise,
        _ => false,
    }
}

/// Strobes the primary outputs at the capture edge, then captures.
fn strobe_and_capture(circuit: &Circuit, mut state: SimState) -> TwoPatternResponse {
    let po = state.read_outputs(circuit);
    circuit.tick(&mut state);
    TwoPatternResponse {
        po,
        capture: state.ff_values().to_vec(),
    }
}

/// Coverage of a two-pattern test set over the transition fault universe.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionCoverage {
    detected: usize,
    undetected: Vec<TransitionFault>,
}

impl TransitionCoverage {
    /// Universe size.
    pub fn total(&self) -> usize {
        self.detected + self.undetected.len()
    }

    /// Detected faults.
    pub fn detected(&self) -> usize {
        self.detected
    }

    /// Undetected faults.
    pub fn undetected(&self) -> &[TransitionFault] {
        &self.undetected
    }

    /// Fraction detected (1.0 for an empty universe).
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.detected as f64 / self.total() as f64
        }
    }
}

/// The launch-on-capture detection rule: the faulty response disagrees
/// with the golden one at a position where the golden value is known.
/// Public so differential oracles apply the exact same rule the fault
/// simulator uses.
pub fn responses_differ(golden: &TwoPatternResponse, faulty: &TwoPatternResponse) -> bool {
    let cmp = |g: &[Logic], f: &[Logic]| g.iter().zip(f).any(|(gv, fv)| gv.is_known() && gv != fv);
    cmp(&golden.po, &faulty.po) || cmp(&golden.capture, &faulty.capture)
}

/// Which of `faults` some test detects: whether a test's faulty
/// launch-on-capture replay [differs](responses_differ) from its golden
/// response, flag by flag in `faults` order. `goldens[i]` is the
/// fault-free response to `tests[i]`.
///
/// Each test's fault-free initialization and launch are simulated once
/// and shared by every fault not yet detected. A fault whose net the
/// launch does not move in its slow direction answers with the golden
/// response, so only the excited faults replay the capture cycle, each
/// from a copy of the launch state. The flags equal
/// [`launch_capture_response`] per fault and test under
/// [`responses_differ`].
pub fn transition_detected(
    circuit: &Circuit,
    tests: &[TwoPatternTest],
    goldens: &[TwoPatternResponse],
    faults: &[TransitionFault],
) -> Vec<bool> {
    let mut detected = vec![false; faults.len()];
    let mut left = faults.len();
    for (test, golden) in tests.iter().zip(goldens) {
        if left == 0 {
            break;
        }
        let (init, launched) = launch(circuit, test);
        for (flag, &f) in detected.iter_mut().zip(faults) {
            let v0 = init.net(f.net);
            if *flag || !launches_slow_edge(f, v0, launched.net(f.net)) {
                continue;
            }
            let mut state = launched.clone();
            state.inject(f.net, v0);
            circuit.eval(&mut state);
            if responses_differ(golden, &strobe_and_capture(circuit, state)) {
                *flag = true;
                left -= 1;
            }
        }
    }
    detected
}

/// Fault-simulates the transition universe against the test set.
pub fn transition_coverage(circuit: &Circuit, tests: &[TwoPatternTest]) -> TransitionCoverage {
    let goldens: Vec<TwoPatternResponse> = tests
        .iter()
        .map(|t| launch_capture_response(circuit, t, None))
        .collect();
    let faults = enumerate_transition_faults(circuit);
    let flags = transition_detected(circuit, tests, &goldens, &faults);
    let detected = flags.iter().filter(|&&d| d).count();
    let undetected = faults
        .into_iter()
        .zip(flags)
        .filter_map(|(fault, d)| (!d).then_some(fault))
        .collect();
    TransitionCoverage {
        detected,
        undetected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::random_vectors;
    use crate::blocks::divider::Divider;
    use crate::blocks::fsm::ControlFsm;
    use crate::blocks::lock_counter::LockCounter;
    use crate::circuit::GateKind;

    fn buf_chain() -> Circuit {
        let mut c = Circuit::new("buf");
        let a = c.input("a");
        let q_in = c.net("q_in");
        c.dff(a, q_in);
        let y = c.net("y");
        c.gate(GateKind::Buf, &[q_in], y);
        let q = c.net("q");
        c.dff(y, q);
        c.output(q);
        c
    }

    #[test]
    fn slow_to_rise_detected_by_rising_two_pattern() {
        let c = buf_chain();
        // V1 presents a 1 at the first flip-flop's input with the chain at
        // 0; the launch edge captures it, so the buffer output rises
        // 0 -> 1 between launch and capture.
        let t = TwoPatternTest {
            init: ScanVector {
                pi: vec![Logic::One],
                load: vec![Logic::Zero, Logic::Zero],
            },
            launch: ScanVector {
                pi: vec![Logic::One],
                load: vec![Logic::Zero, Logic::Zero],
            },
        };
        let y = NetId(2);
        let golden = launch_capture_response(&c, &t, None);
        let str_resp = launch_capture_response(
            &c,
            &t,
            Some(TransitionFault {
                net: y,
                slow_to_rise: true,
            }),
        );
        assert!(responses_differ(&golden, &str_resp), "STR must be caught");
        // The falling fault is NOT excited by a rising test.
        let stf_resp = launch_capture_response(
            &c,
            &t,
            Some(TransitionFault {
                net: y,
                slow_to_rise: false,
            }),
        );
        assert!(
            !responses_differ(&golden, &stf_resp),
            "STF needs a falling edge"
        );
    }

    #[test]
    fn two_pattern_pairing() {
        let c = buf_chain();
        let vectors = random_vectors(&c, 10, 3);
        let tests = two_pattern_tests(&vectors);
        assert_eq!(tests.len(), 9);
        assert_eq!(tests[0].init, vectors[0]);
        assert_eq!(tests[0].launch, vectors[1]);
    }

    #[test]
    fn universe_is_two_per_net() {
        let c = buf_chain();
        assert_eq!(enumerate_transition_faults(&c).len(), 2 * c.net_count());
    }

    #[test]
    fn coarse_loop_blocks_reach_full_transition_coverage() {
        // The paper's claim: the divided-clock coarse path's delay faults
        // are fully covered. Demonstrate on its gate-level blocks.
        let blocks: Vec<(&str, Circuit, usize, u64)> = vec![
            ("divider", Divider::new(3).circuit().clone(), 256, 11),
            (
                "lock counter",
                LockCounter::new(3).circuit().clone(),
                256,
                13,
            ),
            ("control FSM", ControlFsm::new().circuit().clone(), 256, 17),
        ];
        for (name, circuit, n, seed) in blocks {
            let vectors = random_vectors(&circuit, n, seed);
            let cov = transition_coverage(&circuit, &two_pattern_tests(&vectors));
            assert!(
                (cov.coverage() - 1.0).abs() < 1e-12,
                "{name}: {:?} transition faults undetected",
                cov.undetected()
            );
        }
    }

    #[test]
    fn no_tests_no_detection() {
        let c = buf_chain();
        let cov = transition_coverage(&c, &[]);
        assert_eq!(cov.detected(), 0);
        assert_eq!(cov.coverage(), 0.0);
        assert_eq!(cov.undetected().len(), cov.total());
    }

    #[test]
    fn empty_circuit_coverage_is_one() {
        let c = Circuit::new("empty");
        assert_eq!(transition_coverage(&c, &[]).coverage(), 1.0);
    }
}
