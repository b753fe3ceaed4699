//! Broad-side time expansion: transition ATPG via two-timeframe
//! unrolling.
//!
//! A launch-on-capture transition test exercises two consecutive
//! functional cycles of a sequential circuit. This module unrolls those
//! two cycles into one *combinational* model so the existing stuck-at
//! PODEM engine ([`crate::podem`]) generates transition patterns for
//! arbitrary netlists — including anything the Verilog frontend
//! ([`crate::verilog`]) parses:
//!
//! * **frame 0** is a copy of the combinational logic fed by the scan
//!   state (pseudo-PIs: the flip-flop `q` nets) and the first PI
//!   pattern,
//! * the **launch edge** is a row of buffers carrying each flip-flop's
//!   frame-0 `d` into its frame-1 `q` — exactly what the capture of the
//!   initialization cycle does,
//! * **frame 1** is a second copy fed by the launch PI pattern; its
//!   outputs and `d` nets are the observation points (pseudo-POs).
//!
//! A transition fault on net `n` becomes a stuck-at fault through a
//! small gadget: `slow = n⁰ AND n¹` (slow-to-rise; `OR` for
//! slow-to-fall) is precisely the value the slow net shows at the
//! capture edge, and `gad = MUX(sel, n¹, slow)` with a fresh `sel`
//! input swaps it in for every frame-1 reader when `sel = 1`. The
//! transition fault is then literally `sel` stuck-at-1, and any PODEM
//! vector for it splits into an init/launch pair for the original
//! circuit.
//!
//! For **fully specified** vectors (PODEM fills don't-cares), gadget
//! detection coincides exactly with
//! [`crate::transition::launch_capture_response`] replayed on the
//! sequential circuit — the contract `conform`'s `TimeExpansionOracle`
//! checks with both the scalar and the packed simulator.
//!
//! # Examples
//!
//! ```
//! use dsim::blocks::divider::Divider;
//! use dsim::expand::TimeExpansion;
//! use dsim::transition::{launch_capture_response, transition_coverage};
//!
//! let div = Divider::new(3);
//! let te = TimeExpansion::new(div.circuit());
//! let (tests, untestable) = te.generate_all();
//! assert!(untestable.is_empty());
//! let cov = transition_coverage(div.circuit(), &tests);
//! assert!((cov.coverage() - 1.0).abs() < 1e-12);
//! ```

use std::collections::HashSet;

use crate::circuit::{Circuit, GateKind, NetId, SimState};
use crate::logic::Logic;
use crate::scan::{apply_vector, ScanVector};
use crate::stuck_at::StuckAtFault;
use crate::transition::{enumerate_transition_faults, TransitionFault, TwoPatternTest};

/// The broad-side two-timeframe model of a sequential circuit.
///
/// Net numbering in the expanded model: net `i` of the original becomes
/// frame-0 net `i` and frame-1 net `N + i` (`N` = original net count).
/// Per-fault gadget models append `sel` (`2N`), `slow` (`2N + 1`) and
/// `gad` (`2N + 2`).
#[derive(Debug, Clone)]
pub struct TimeExpansion {
    seq: Circuit,
    /// `name@frame` for every net of both frames, in expanded-model net
    /// order — formatted once and reused by every gadget model.
    frame_names: Vec<String>,
}

impl TimeExpansion {
    /// Builds the expansion.
    ///
    /// # Panics
    ///
    /// Panics unless [`Circuit::check`] passes: the model is undefined
    /// for combinational feedback and multiply-driven nets.
    pub fn new(seq: &Circuit) -> TimeExpansion {
        // Builds the cached schedule, panicking on a rejected circuit.
        seq.eval_plan();
        let frame_names: Vec<String> = (0..2)
            .flat_map(|frame| {
                (0..seq.net_count()).map(move |i| format!("{}@{frame}", seq.net_name(NetId(i))))
            })
            .collect();
        TimeExpansion {
            seq: seq.clone(),
            frame_names,
        }
    }

    /// The per-fault gadget model: the expanded circuit with the
    /// slow-path gadget spliced into frame 1, and the stuck-at fault
    /// (`sel` stuck-at-1) equivalent to `fault`.
    pub fn faulted_model(&self, fault: TransitionFault) -> (Circuit, StuckAtFault) {
        let (c, sa) = build(&self.seq, &self.frame_names, Some(fault));
        (c, sa.expect("gadget model carries its fault"))
    }

    /// Maps a two-pattern test onto the expanded model's vector layout:
    /// `pi` is the init pattern followed by the launch pattern, `load`
    /// is the init state. For gadget models
    /// ([`TimeExpansion::faulted_model`]) use
    /// [`TimeExpansion::gadget_vector`], which also drives `sel` to 0.
    pub fn expanded_vector(&self, test: &TwoPatternTest) -> ScanVector {
        let mut pi = test.init.pi.clone();
        pi.extend(test.launch.pi.iter().copied());
        ScanVector {
            pi,
            load: test.init.load.clone(),
        }
    }

    /// [`TimeExpansion::expanded_vector`] with the gadget's `sel` input
    /// held at its fault-free 0.
    pub fn gadget_vector(&self, test: &TwoPatternTest) -> ScanVector {
        let mut v = self.expanded_vector(test);
        v.pi.push(Logic::Zero);
        v
    }

    /// Generates a launch-on-capture test for one transition fault, or
    /// `None` when PODEM exhausts its budget (untestable or abandoned).
    ///
    /// The init half comes from the PODEM vector for the gadget model's
    /// `sel` stuck-at-1 fault; the launch state is the fault-free
    /// capture of the init cycle, as launch-on-capture prescribes.
    pub fn generate_test(&self, fault: TransitionFault) -> Option<TwoPatternTest> {
        let (model, sa) = self.faulted_model(fault);
        let v = crate::podem::generate_test(&model, sa)?;
        Some(self.split_vector(&v))
    }

    /// Splits a gadget/expanded-model scan vector back into an
    /// init/launch pair for the sequential circuit (any trailing `sel`
    /// lane is discarded).
    fn split_vector(&self, v: &ScanVector) -> TwoPatternTest {
        let n_pi = self.seq.inputs().len();
        let init = ScanVector {
            pi: v.pi[..n_pi].to_vec(),
            load: v.load.clone(),
        };
        let launch_pi = v.pi[n_pi..2 * n_pi].to_vec();
        // Launch-on-capture: the launch state is what the init cycle
        // captures, fault-free.
        let capture = apply_vector(&self.seq, &mut SimState::for_circuit(&self.seq), &init).capture;
        TwoPatternTest {
            init,
            launch: ScanVector {
                pi: launch_pi,
                load: capture,
            },
        }
    }

    /// Runs transition ATPG over the whole fault universe: the deduped
    /// test set (in first-appearance order) plus the faults PODEM gave
    /// up on.
    pub fn generate_all(&self) -> (Vec<TwoPatternTest>, Vec<TransitionFault>) {
        let mut seen = HashSet::new();
        let mut tests: Vec<TwoPatternTest> = Vec::new();
        let mut untestable = Vec::new();
        for fault in enumerate_transition_faults(&self.seq) {
            match self.generate_test(fault) {
                Some(t) => {
                    if seen.insert(t.clone()) {
                        tests.push(t);
                    }
                }
                None => untestable.push(fault),
            }
        }
        (tests, untestable)
    }
}

/// Builds the two-timeframe model over the precomputed `frame_names`;
/// with a fault, splices the slow-path gadget into frame 1 and returns
/// the equivalent stuck-at fault.
fn build(
    seq: &Circuit,
    frame_names: &[String],
    fault: Option<TransitionFault>,
) -> (Circuit, Option<StuckAtFault>) {
    let n = seq.net_count();
    let mut is_input = vec![false; n];
    for &pi in seq.inputs() {
        is_input[pi.0] = true;
    }
    let suffix = match fault {
        None => String::new(),
        Some(f) => format!(" [{f}]"),
    };
    let mut c = Circuit::new(format!("{}@x2{suffix}", seq.name()));

    // Frame-0 then frame-1 nets: original PIs stay PIs in both frames
    // (the init and launch patterns respectively).
    for (i, name) in frame_names.iter().enumerate() {
        if is_input[i % n] {
            c.input(name.clone());
        } else {
            c.net(name.clone());
        }
    }
    let f0 = |net: NetId| net;
    let f1 = |net: NetId| NetId(n + net.0);

    // Gadget nets, when faulted.
    let (sel, gad) = match fault {
        None => (None, None),
        Some(f) => {
            let sel = c.input("sel");
            let slow = c.net("slow");
            let gad = c.net("gad");
            // `slow` is the value the slow net presents at the capture
            // edge: AND keeps 1 only across a stable high (slow-to-rise
            // masks the 0→1 launch); OR symmetrically for slow-to-fall.
            let kind = if f.slow_to_rise {
                GateKind::And
            } else {
                GateKind::Or
            };
            c.gate(kind, &[f0(f.net), f1(f.net)], slow);
            c.gate(GateKind::Mux, &[sel, f1(f.net), slow], gad);
            (Some(sel), Some((f.net, gad)))
        }
    };
    // Frame-1 readers of the faulted net observe the gadget instead.
    let redirect = |net: NetId| match gad {
        Some((fnet, g)) if net == fnet => g,
        _ => f1(net),
    };

    // Frame 0: plain copy.
    for g in seq.gates() {
        let ins: Vec<NetId> = g.inputs().iter().map(|&i| f0(i)).collect();
        c.gate(g.kind(), &ins, f0(g.output()));
    }
    // Launch edge: frame-1 state = frame-0 capture.
    for ff in seq.dffs() {
        c.gate(GateKind::Buf, &[f0(ff.d)], f1(ff.q));
    }
    // Frame 1: copy with the gadget spliced in.
    for g in seq.gates() {
        let ins: Vec<NetId> = g.inputs().iter().map(|&i| redirect(i)).collect();
        c.gate(g.kind(), &ins, f1(g.output()));
    }
    // Pseudo-POs: frame-1 outputs, and frame-1 `d` via the model's own
    // flip-flops (so the full-scan view observes the capture values).
    for &po in seq.outputs() {
        c.output(redirect(po));
    }
    for ff in seq.dffs() {
        c.dff(redirect(ff.d), f0(ff.q));
    }
    let sa = sel.map(|net| StuckAtFault {
        net,
        stuck_high: true,
    });
    (c, sa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::divider::Divider;
    use crate::blocks::fsm::ControlFsm;
    use crate::blocks::lock_counter::LockCounter;
    use crate::blocks::ring_counter::RingCounter;
    use crate::circuit::StructureError;
    use crate::transition::{launch_capture_response, responses_differ, transition_coverage};

    /// The fault-free two-timeframe combinational model.
    fn fault_free(te: &TimeExpansion) -> Circuit {
        build(&te.seq, &te.frame_names, None).0
    }

    #[test]
    fn expanded_shape() {
        let div = Divider::new(2);
        let seq = div.circuit();
        let te = TimeExpansion::new(seq);
        let e = &fault_free(&te);
        assert_eq!(e.net_count(), 2 * seq.net_count());
        assert_eq!(e.inputs().len(), 2 * seq.inputs().len());
        assert_eq!(e.gate_count(), 2 * seq.gate_count() + seq.dff_count());
        assert_eq!(e.dff_count(), seq.dff_count());
        assert_eq!(e.outputs().len(), seq.outputs().len());
    }

    #[test]
    fn gadget_model_adds_three_nets() {
        let div = Divider::new(2);
        let te = TimeExpansion::new(div.circuit());
        let f = TransitionFault {
            net: NetId(0),
            slow_to_rise: true,
        };
        let (m, sa) = te.faulted_model(f);
        assert_eq!(m.net_count(), 2 * div.circuit().net_count() + 3);
        assert!(sa.stuck_high);
        assert_eq!(m.net_name(sa.net), "sel");
    }

    #[test]
    fn fault_free_expansion_matches_two_cycle_simulation() {
        // The expanded model applied as one scan vector must reproduce
        // the sequential circuit's fault-free launch-on-capture response.
        let blocks: Vec<Circuit> = vec![
            RingCounter::new(4).circuit().clone(),
            Divider::new(3).circuit().clone(),
            LockCounter::new(3).circuit().clone(),
            ControlFsm::new().circuit().clone(),
        ];
        for seq in blocks {
            let te = TimeExpansion::new(&seq);
            let e = fault_free(&te);
            let vectors = crate::atpg::random_vectors(&seq, 16, 99);
            for w in vectors.windows(2) {
                let t = TwoPatternTest {
                    init: w[0].clone(),
                    launch: w[1].clone(),
                };
                let golden = launch_capture_response(&seq, &t, None);
                let ev = te.expanded_vector(&t);
                let resp = apply_vector(&e, &mut SimState::for_circuit(&e), &ev);
                assert_eq!(resp.po, golden.po, "{}: po mismatch", seq.name());
                assert_eq!(resp.capture, golden.capture, "{}: capture", seq.name());
            }
        }
    }

    #[test]
    fn generated_tests_detect_their_faults_on_replay() {
        let div = Divider::new(3);
        let seq = div.circuit();
        let te = TimeExpansion::new(seq);
        for fault in enumerate_transition_faults(seq) {
            let Some(t) = te.generate_test(fault) else {
                continue;
            };
            let golden = launch_capture_response(seq, &t, None);
            let faulty = launch_capture_response(seq, &t, Some(fault));
            assert!(
                responses_differ(&golden, &faulty),
                "{fault}: generated test does not detect on replay"
            );
        }
    }

    #[test]
    fn full_transition_coverage_on_paper_blocks() {
        let blocks: Vec<(&str, Circuit)> = vec![
            ("ring-counter", RingCounter::new(4).circuit().clone()),
            ("divider", Divider::new(3).circuit().clone()),
            ("lock-counter", LockCounter::new(3).circuit().clone()),
            ("control-fsm", ControlFsm::new().circuit().clone()),
        ];
        for (name, seq) in blocks {
            let te = TimeExpansion::new(&seq);
            let (tests, untestable) = te.generate_all();
            assert!(untestable.is_empty(), "{name}: untestable {untestable:?}");
            let cov = transition_coverage(&seq, &tests);
            assert!(
                (cov.coverage() - 1.0).abs() < 1e-12,
                "{name}: ATPG missed {:?}",
                cov.undetected()
            );
        }
    }

    #[test]
    fn feedback_netlist_rejected() {
        // A combinational loop (SR latch shape) is not expandable.
        let mut c = Circuit::new("latch");
        let s = c.input("s");
        let r = c.input("r");
        let q = c.net("q");
        let qb = c.net("qb");
        c.gate(GateKind::Nor, &[s, qb], q);
        c.gate(GateKind::Nor, &[r, q], qb);
        c.output(q);
        assert_eq!(
            c.check(),
            Err(StructureError::CombinationalCycle { net: q })
        );
        let panic = std::panic::catch_unwind(|| TimeExpansion::new(&c)).unwrap_err();
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(
            msg,
            "circuit 'latch' is not an acyclic single-driver netlist: \
             combinational cycle through net n2"
        );
    }
}
