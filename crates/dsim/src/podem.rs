//! Deterministic test generation (PODEM).
//!
//! Random patterns reach 100 % on the paper's small blocks, but a real
//! DFT flow wants *deterministic* vectors: one targeted pattern per fault,
//! proof of untestability for the rest. This module implements the classic
//! PODEM algorithm (Goel, 1981) over the full-scan combinational view of a
//! [`Circuit`] — flip-flop outputs are pseudo-primary inputs (scan load),
//! flip-flop inputs are pseudo-primary outputs (scan capture):
//!
//! 1. five-valued simulation (`0, 1, X, D, D̄`) with the fault injected,
//! 2. an **objective** (excite the fault, then extend the D-frontier),
//! 3. **backtrace** of the objective to an unassigned (pseudo-)input,
//! 4. implication by one levelized pass over the circuit's cached
//!    topological gate order, with chronological backtracking.
//!
//! The circuit must pass [`Circuit::check`] (acyclic, one driver per
//! net): its five-valued fixpoint is then unique, so one pass in
//! topological order is the whole implication step.
//!
//! # Examples
//!
//! ```
//! use dsim::circuit::{Circuit, GateKind};
//! use dsim::podem::generate_test;
//! use dsim::stuck_at::StuckAtFault;
//!
//! let mut c = Circuit::new("and2");
//! let a = c.input("a");
//! let b = c.input("b");
//! let y = c.net("y");
//! c.gate(GateKind::And, &[a, b], y);
//! c.output(y);
//!
//! // Testing y stuck-at-0 requires the unique vector (1, 1).
//! let v = generate_test(&c, StuckAtFault { net: y, stuck_high: false })
//!     .expect("testable fault");
//! assert_eq!(v.pi.len(), 2);
//! ```

use std::collections::HashSet;

use crate::circuit::{Circuit, EvalPlan, Gate, GateKind, NetId};
use crate::logic::Logic;
use crate::scan::ScanVector;
use crate::stuck_at::StuckAtFault;

/// Five-valued PODEM algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum V5 {
    Zero,
    One,
    X,
    /// Good 1 / faulty 0.
    D,
    /// Good 0 / faulty 1.
    Dbar,
}

impl V5 {
    fn from_bool(b: bool) -> V5 {
        if b {
            V5::One
        } else {
            V5::Zero
        }
    }

    fn good(self) -> Logic {
        match self {
            V5::Zero | V5::Dbar => Logic::Zero,
            V5::One | V5::D => Logic::One,
            V5::X => Logic::X,
        }
    }

    fn faulty(self) -> Logic {
        match self {
            V5::Zero | V5::D => Logic::Zero,
            V5::One | V5::Dbar => Logic::One,
            V5::X => Logic::X,
        }
    }

    fn from_pair(good: Logic, faulty: Logic) -> V5 {
        match (good, faulty) {
            (Logic::Zero, Logic::Zero) => V5::Zero,
            (Logic::One, Logic::One) => V5::One,
            (Logic::One, Logic::Zero) => V5::D,
            (Logic::Zero, Logic::One) => V5::Dbar,
            _ => V5::X,
        }
    }

    fn is_d(self) -> bool {
        matches!(self, V5::D | V5::Dbar)
    }
}

/// The combinational full-scan view of a circuit.
struct View<'a> {
    circuit: &'a Circuit,
    /// The circuit's cached levelized schedule (topological gate order
    /// and per-net driving gates).
    plan: &'a EvalPlan,
    /// Pseudo-primary inputs: PIs then FF outputs, in order.
    ppis: Vec<NetId>,
    /// Observable nets: POs then FF inputs.
    ppos: Vec<NetId>,
    /// For each net, its position in `ppis` (if it is a PPI).
    ppi_index: Vec<Option<usize>>,
}

impl<'a> View<'a> {
    fn new(circuit: &'a Circuit) -> View<'a> {
        let plan = circuit.eval_plan();
        let mut ppis: Vec<NetId> = circuit.inputs().to_vec();
        ppis.extend(circuit.dffs().iter().map(|ff| ff.q));
        let mut ppos: Vec<NetId> = circuit.outputs().to_vec();
        ppos.extend(circuit.dffs().iter().map(|ff| ff.d));
        // PPIs are distinct nets on a circuit that has a plan.
        let mut ppi_index = vec![None; circuit.net_count()];
        for (i, net) in ppis.iter().enumerate() {
            ppi_index[net.0] = Some(i);
        }
        View {
            circuit,
            plan,
            ppis,
            ppos,
            ppi_index,
        }
    }

    /// Five-valued implication of the PPI assignment with the fault
    /// overlaid: one pass over the levelized gate order, writing every
    /// net of `vals`. An acyclic single-driver netlist has a unique
    /// fixpoint, so one topological pass reaches it.
    fn simulate(&self, assignment: &[Logic], fault: StuckAtFault, vals: &mut [V5]) {
        vals.fill(V5::X);
        for (net, &v) in self.ppis.iter().zip(assignment) {
            vals[net.0] = V5::from_pair(v, v);
        }
        let stuck = Logic::from_bool(fault.stuck_high);
        vals[fault.net.0] = V5::from_pair(vals[fault.net.0].good(), stuck);
        let gates = self.circuit.gates();
        for &gi in &self.plan.order {
            let g = &gates[gi as usize];
            let good = eval_gate(g, |n| vals[n.0].good());
            let faulty = if g.output() == fault.net {
                stuck
            } else {
                eval_gate(g, |n| vals[n.0].faulty())
            };
            vals[g.output().0] = V5::from_pair(good, faulty);
        }
    }

    /// Whether a D value reaches any observable net.
    fn detected(&self, vals: &[V5]) -> bool {
        self.ppos.iter().any(|n| vals[n.0].is_d())
    }

    /// The lowest-index D-frontier gate: a D on an input but X on the
    /// output.
    fn first_frontier_gate(&self, vals: &[V5]) -> Option<&'a Gate> {
        self.circuit
            .gates()
            .iter()
            .find(|g| vals[g.output().0] == V5::X && g.inputs().iter().any(|i| vals[i.0].is_d()))
    }

    /// Backtraces an objective `(net, value)` to an unassigned PPI and the
    /// value to try there. Returns `None` when the objective is not
    /// reachable from any unassigned input.
    fn backtrace(
        &self,
        mut net: NetId,
        mut value: bool,
        vals: &[V5],
        assigned: &[bool],
    ) -> Option<(usize, bool)> {
        loop {
            if let Some(ppi_idx) = self.ppi_index[net.0] {
                return if assigned[ppi_idx] {
                    None
                } else {
                    Some((ppi_idx, value))
                };
            }
            let gi = self.plan.driver[net.0]?;
            let g = &self.circuit.gates()[gi as usize];
            let (next, next_value) = match g.kind() {
                GateKind::Buf => (g.inputs()[0], value),
                GateKind::Not => (g.inputs()[0], !value),
                GateKind::And | GateKind::Nand => {
                    let v = if g.kind() == GateKind::Nand {
                        !value
                    } else {
                        value
                    };
                    // To set an AND output to 1, all inputs must be 1
                    // (pick any X input); to 0, one X input suffices.
                    let pick = g.inputs().iter().find(|i| vals[i.0] == V5::X).copied()?;
                    (pick, v)
                }
                GateKind::Or | GateKind::Nor => {
                    let v = if g.kind() == GateKind::Nor {
                        !value
                    } else {
                        value
                    };
                    let pick = g.inputs().iter().find(|i| vals[i.0] == V5::X).copied()?;
                    (pick, v)
                }
                GateKind::Xor | GateKind::Xnor | GateKind::Mux => {
                    // Pick any X input; value heuristic: propagate the
                    // requested value directly.
                    let pick = g.inputs().iter().find(|i| vals[i.0] == V5::X).copied()?;
                    (pick, value)
                }
            };
            net = next;
            value = next_value;
        }
    }
}

/// Evaluates one gate over a projection of its input values — no
/// per-gate scratch allocation.
fn eval_gate(g: &Gate, v: impl Fn(NetId) -> Logic) -> Logic {
    let ins = g.inputs();
    let all = || ins.iter().map(|&n| v(n));
    match g.kind() {
        GateKind::Buf => v(ins[0]),
        GateKind::Not => v(ins[0]).not(),
        GateKind::And => all().fold(Logic::One, Logic::and),
        GateKind::Nand => all().fold(Logic::One, Logic::and).not(),
        GateKind::Or => all().fold(Logic::Zero, Logic::or),
        GateKind::Nor => all().fold(Logic::Zero, Logic::or).not(),
        GateKind::Xor => v(ins[0]).xor(v(ins[1])),
        GateKind::Xnor => v(ins[0]).xor(v(ins[1])).not(),
        GateKind::Mux => Logic::mux(v(ins[0]), v(ins[1]), v(ins[2])),
    }
}

/// Decision-stack budget: enough for every block in this workspace while
/// bounding pathological searches.
const MAX_BACKTRACKS: u64 = 4096;

/// Work done by one PODEM search, emitted as deterministic counters.
#[derive(Debug, Default)]
struct Work {
    /// Implication passes (one per step of the decision loop).
    implications: u64,
    /// Decisions flipped to their other value.
    backtracks: u64,
}

/// Generates a deterministic scan vector detecting `fault`, or `None`
/// when the search space is exhausted (the fault is untestable under full
/// scan, e.g. on a redundant net).
///
/// Each call adds 1 to the `dsim.podem.calls` counter and its implication
/// passes and backtracks to `dsim.podem.implications` and
/// `dsim.podem.backtracks` in the ambient [`rt::obs`] collector.
///
/// # Panics
///
/// Panics unless [`Circuit::check`] passes.
pub fn generate_test(circuit: &Circuit, fault: StuckAtFault) -> Option<ScanVector> {
    run(&View::new(circuit), fault)
}

/// One counted PODEM search: the work counters are accumulated locally
/// and emitted once, so the decision loop stays free of them.
fn run(view: &View, fault: StuckAtFault) -> Option<ScanVector> {
    let mut work = Work::default();
    let vector = search(view, fault, &mut work);
    rt::obs::count("dsim.podem.calls", 1);
    rt::obs::count("dsim.podem.implications", work.implications);
    rt::obs::count("dsim.podem.backtracks", work.backtracks);
    vector
}

/// The PODEM decision loop over one view.
fn search(view: &View, fault: StuckAtFault, work: &mut Work) -> Option<ScanVector> {
    let n_ppi = view.ppis.len();
    let mut assignment = vec![Logic::X; n_ppi];
    let mut assigned = vec![false; n_ppi];
    let mut vals = vec![V5::X; view.circuit.net_count()];
    // Decision stack: (ppi index, value, tried_both).
    let mut stack: Vec<(usize, bool, bool)> = Vec::new();

    loop {
        view.simulate(&assignment, fault, &mut vals);
        work.implications += 1;
        if view.detected(&vals) {
            return Some(vector_from(&assignment, view.circuit));
        }

        // Choose the next objective.
        let objective = if !vals[fault.net.0].is_d() {
            // Excite the fault: drive the net opposite the stuck value —
            // unless it is already set to the stuck value (conflict).
            let want = !fault.stuck_high;
            if vals[fault.net.0] == V5::from_bool(fault.stuck_high) {
                None
            } else {
                Some((fault.net, want))
            }
        } else {
            // Extend the D-frontier: set an X input of a frontier gate to
            // the gate's non-controlling value.
            view.first_frontier_gate(&vals).and_then(|g| {
                let x_in = g.inputs().iter().find(|i| vals[i.0] == V5::X).copied()?;
                let non_controlling = match g.kind() {
                    GateKind::And | GateKind::Nand => true,
                    GateKind::Or | GateKind::Nor => false,
                    // XOR/XNOR propagate with any side value; MUX: drive
                    // the select toward the D input — heuristic 0.
                    _ => false,
                };
                Some((x_in, non_controlling))
            })
        };

        let decision =
            objective.and_then(|(net, value)| view.backtrace(net, value, &vals, &assigned));

        match decision {
            Some((ppi, value)) => {
                assignment[ppi] = Logic::from_bool(value);
                assigned[ppi] = true;
                stack.push((ppi, value, false));
            }
            None => {
                // Backtrack.
                loop {
                    match stack.pop() {
                        Some((ppi, value, tried_both)) => {
                            if tried_both {
                                assignment[ppi] = Logic::X;
                                assigned[ppi] = false;
                                continue;
                            }
                            work.backtracks += 1;
                            if work.backtracks > MAX_BACKTRACKS {
                                return None;
                            }
                            assignment[ppi] = Logic::from_bool(!value);
                            stack.push((ppi, !value, true));
                            break;
                        }
                        None => return None, // search space exhausted
                    }
                }
            }
        }
    }
}

fn vector_from(assignment: &[Logic], circuit: &Circuit) -> ScanVector {
    let n_pi = circuit.inputs().len();
    // Unassigned positions default to 0 (any value works).
    let fill = |v: &Logic| match v {
        Logic::X => Logic::Zero,
        other => *other,
    };
    ScanVector {
        pi: assignment[..n_pi].iter().map(fill).collect(),
        load: assignment[n_pi..].iter().map(fill).collect(),
    }
}

/// Runs PODEM for every stuck-at fault of the circuit and reports the
/// deterministic vector set (deduplicated, in first-appearance order)
/// plus the faults proven untestable.
///
/// # Panics
///
/// Panics under the same precondition as [`generate_test`].
pub fn generate_all(circuit: &Circuit) -> (Vec<ScanVector>, Vec<StuckAtFault>) {
    let view = View::new(circuit);
    let mut seen = HashSet::new();
    let mut vectors = Vec::new();
    let mut untestable = Vec::new();
    for fault in crate::stuck_at::enumerate_faults(circuit) {
        match run(&view, fault) {
            Some(v) => {
                if seen.insert(v.clone()) {
                    vectors.push(v);
                }
            }
            None => untestable.push(fault),
        }
    }
    (vectors, untestable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::divider::Divider;
    use crate::blocks::fsm::ControlFsm;
    use crate::blocks::lock_counter::LockCounter;
    use crate::blocks::ring_counter::RingCounter;
    use crate::blocks::switch_matrix::SwitchMatrix;
    use crate::expand::TimeExpansion;
    use crate::stuck_at::scan_coverage;
    use crate::transition::enumerate_transition_faults;
    use rt::rng::Rng;

    fn and2() -> Circuit {
        let mut c = Circuit::new("and2");
        let a = c.input("a");
        let b = c.input("b");
        let y = c.net("y");
        c.gate(GateKind::And, &[a, b], y);
        c.output(y);
        c
    }

    #[test]
    fn and_gate_targeted_vectors() {
        let c = and2();
        // y/0 needs (1,1).
        let v = generate_test(
            &c,
            StuckAtFault {
                net: NetId(2),
                stuck_high: false,
            },
        )
        .unwrap();
        assert_eq!(v.pi, vec![Logic::One, Logic::One]);
        // a/1 needs a=0 with b=1 to propagate.
        let v = generate_test(
            &c,
            StuckAtFault {
                net: NetId(0),
                stuck_high: true,
            },
        )
        .unwrap();
        assert_eq!(v.pi, vec![Logic::Zero, Logic::One]);
    }

    #[test]
    fn generated_vector_really_detects() {
        // Cross-check every PODEM vector against the fault simulator.
        let c = and2();
        for fault in crate::stuck_at::enumerate_faults(&c) {
            let v = generate_test(&c, fault).expect("all and2 faults testable");
            let cov = scan_coverage(&c, &[v]);
            assert!(
                !cov.undetected().contains(&fault),
                "{fault} not detected by its own vector"
            );
        }
    }

    #[test]
    fn redundant_fault_proven_untestable() {
        // y = (a AND b) OR (a AND NOT b) OR ... build a simple redundancy:
        // z = a OR (a AND b): the AND is redundant, its output stuck-at-0
        // is untestable.
        let mut c = Circuit::new("redundant");
        let a = c.input("a");
        let b = c.input("b");
        let t = c.net("t");
        c.gate(GateKind::And, &[a, b], t);
        let z = c.net("z");
        c.gate(GateKind::Or, &[a, t], z);
        c.output(z);
        let result = generate_test(
            &c,
            StuckAtFault {
                net: t,
                stuck_high: false,
            },
        );
        assert!(result.is_none(), "redundant fault must be untestable");
        // But t stuck-at-1 IS testable (a=0, b=anything: z reads 1 vs 0).
        assert!(generate_test(
            &c,
            StuckAtFault {
                net: t,
                stuck_high: true,
            },
        )
        .is_some());
    }

    #[test]
    fn full_deterministic_coverage_on_paper_blocks() {
        let blocks: Vec<(&str, Circuit)> = vec![
            ("control FSM", ControlFsm::new().circuit().clone()),
            ("lock counter", LockCounter::new(3).circuit().clone()),
            ("ring counter", RingCounter::new(4).circuit().clone()),
            ("switch matrix", SwitchMatrix::new(4).circuit().clone()),
        ];
        for (name, circuit) in blocks {
            let (vectors, untestable) = generate_all(&circuit);
            assert!(
                untestable.is_empty(),
                "{name}: untestable faults {untestable:?}"
            );
            let cov = scan_coverage(&circuit, &vectors);
            assert!(
                (cov.coverage() - 1.0).abs() < 1e-12,
                "{name}: PODEM set missed {:?}",
                cov.undetected()
            );
        }
    }

    #[test]
    fn deterministic_sets_are_compact() {
        // PODEM needs far fewer vectors than the random sets used
        // elsewhere (64-512 patterns).
        let rc = RingCounter::new(4);
        let (vectors, _) = generate_all(rc.circuit());
        assert!(
            vectors.len() < 40,
            "{} vectors for a 4-bit ring counter",
            vectors.len()
        );
    }

    /// The fixpoint sweep the levelized pass replaced, kept as the
    /// oracle: passes in gate insertion order until nothing changes.
    fn sweep_simulate(view: &View, assignment: &[Logic], fault: StuckAtFault) -> Vec<V5> {
        let n = view.circuit.net_count();
        let mut vals = vec![V5::X; n];
        for (net, v) in view.ppis.iter().zip(assignment) {
            vals[net.0] = match v {
                Logic::Zero => V5::Zero,
                Logic::One => V5::One,
                Logic::X => V5::X,
            };
        }
        let overlay = |vals: &mut Vec<V5>| {
            let v = vals[fault.net.0];
            let faulty = Logic::from_bool(fault.stuck_high);
            vals[fault.net.0] = V5::from_pair(v.good(), faulty);
        };
        overlay(&mut vals);
        for _ in 0..=view.circuit.gates().len() {
            let mut changed = false;
            for g in view.circuit.gates() {
                let good_ins: Vec<Logic> = g.inputs().iter().map(|i| vals[i.0].good()).collect();
                let faulty_ins: Vec<Logic> =
                    g.inputs().iter().map(|i| vals[i.0].faulty()).collect();
                let good = sweep_eval_gate(g.kind(), &good_ins);
                let faulty = sweep_eval_gate(g.kind(), &faulty_ins);
                let mut v = V5::from_pair(good, faulty);
                if g.output() == fault.net {
                    v = V5::from_pair(good, Logic::from_bool(fault.stuck_high));
                }
                if vals[g.output().0] != v {
                    vals[g.output().0] = v;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        vals
    }

    fn sweep_eval_gate(kind: GateKind, ins: &[Logic]) -> Logic {
        match kind {
            GateKind::Buf => ins[0],
            GateKind::Not => ins[0].not(),
            GateKind::And => ins.iter().copied().fold(Logic::One, Logic::and),
            GateKind::Nand => ins.iter().copied().fold(Logic::One, Logic::and).not(),
            GateKind::Or => ins.iter().copied().fold(Logic::Zero, Logic::or),
            GateKind::Nor => ins.iter().copied().fold(Logic::Zero, Logic::or).not(),
            GateKind::Xor => ins[0].xor(ins[1]),
            GateKind::Xnor => ins[0].xor(ins[1]).not(),
            GateKind::Mux => Logic::mux(ins[0], ins[1], ins[2]),
        }
    }

    /// Asserts the levelized pass and the sweep agree on `fault` under
    /// `trials` seeded random PPI assignments drawn from {0, 1, X}.
    fn assert_routes_agree(circuit: &Circuit, fault: StuckAtFault, rng: &mut Rng, trials: usize) {
        let view = View::new(circuit);
        let mut vals = vec![V5::X; circuit.net_count()];
        for _ in 0..trials {
            let assignment: Vec<Logic> = (0..view.ppis.len())
                .map(|_| [Logic::Zero, Logic::One, Logic::X][rng.below(3)])
                .collect();
            view.simulate(&assignment, fault, &mut vals);
            assert_eq!(
                vals,
                sweep_simulate(&view, &assignment, fault),
                "{}: {fault} under {assignment:?}",
                circuit.name()
            );
        }
    }

    /// Reference netlists: chain A and chain B (4 phases), exported
    /// through the Verilog frontend, and the vendored b01 benchmark.
    fn netlist(file: &str) -> Circuit {
        let src = match file {
            "chain_a" => include_str!("../../../tests/data/chain_a_net.v"),
            "chain_b4" => include_str!("../../../tests/data/chain_b4_net.v"),
            _ => include_str!("../../../tests/data/b01_net.v"),
        };
        crate::verilog::compile(src).expect("reference netlist compiles")
    }

    #[test]
    fn levelized_pass_matches_the_sweep_on_gadget_models() {
        let mut rng = Rng::seed_from_u64(0x0DE5);
        for name in ["chain_a", "chain_b4", "b01"] {
            let seq = netlist(name);
            let te = TimeExpansion::new(&seq);
            for fault in enumerate_transition_faults(&seq) {
                let (model, sa) = te.faulted_model(fault);
                assert_routes_agree(&model, sa, &mut rng, 3);
            }
        }
    }

    #[test]
    fn levelized_pass_matches_the_sweep_on_paper_blocks() {
        let mut rng = Rng::seed_from_u64(0x5A7);
        let blocks = [
            ControlFsm::new().circuit().clone(),
            LockCounter::new(3).circuit().clone(),
            RingCounter::new(4).circuit().clone(),
            SwitchMatrix::new(4).circuit().clone(),
            Divider::new(3).circuit().clone(),
        ];
        for circuit in &blocks {
            for fault in crate::stuck_at::enumerate_faults(circuit) {
                assert_routes_agree(circuit, fault, &mut rng, 4);
            }
        }
    }

    /// CRC-32 of an ATPG result's `Debug` rendering: the test set, a
    /// `|`, then the untestable faults.
    fn digest((tests, untestable): (impl std::fmt::Debug, impl std::fmt::Debug)) -> u32 {
        rt::exec::crc32(format!("{tests:?}|{untestable:?}").as_bytes())
    }

    #[test]
    fn atpg_outputs_are_pinned() {
        // Values recorded with the fixpoint-sweep implication: the
        // levelized pass must reproduce the vectors byte for byte.
        for (name, transition, stuck_at) in [
            ("chain_b4", 0x57ba_edc1, 0x85db_3a7e),
            ("b01", 0x6ea3_774e, 0xee1a_2d35),
        ] {
            let seq = netlist(name);
            let te = TimeExpansion::new(&seq);
            assert_eq!(digest(te.generate_all()), transition, "{name} transition");
            assert_eq!(digest(generate_all(&seq)), stuck_at, "{name} stuck-at");
        }
    }

    #[test]
    fn work_counters_are_deterministic() {
        let seq = netlist("chain_b4");
        let te = TimeExpansion::new(&seq);
        let (_, metrics, _) = rt::obs::observe(|| te.generate_all());
        let counters = ["calls", "implications", "backtracks"]
            .map(|k| metrics.counter(&format!("dsim.podem.{k}")));
        assert_eq!(counters, [Some(76), Some(2008), Some(821)]);
    }

    #[test]
    #[should_panic(expected = "acyclic single-driver")]
    fn combinational_loop_is_rejected() {
        // SR latch: two cross-coupled NORs.
        let mut c = Circuit::new("latch");
        let s = c.input("s");
        let r = c.input("r");
        let q = c.net("q");
        let qb = c.net("qb");
        c.gate(GateKind::Nor, &[s, qb], q);
        c.gate(GateKind::Nor, &[r, q], qb);
        c.output(q);
        let _ = generate_test(
            &c,
            StuckAtFault {
                net: q,
                stuck_high: false,
            },
        );
    }
}
