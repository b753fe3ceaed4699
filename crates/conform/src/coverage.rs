//! Node-activation (toggle) coverage over `dsim` circuits.
//!
//! Every net has two coverage points — *seen at 0* and *seen at 1* — the
//! structural analogue of toggle coverage in RTL simulation. A vector's
//! footprint is observed twice per scan cycle: after the launch
//! evaluation (the combinational response to the loaded state) and again
//! after the capture edge has propagated (the next-state response). The
//! fuzzer uses the accumulated point set as its fitness signal: a mutant
//! is interesting exactly when it activates a point no earlier vector
//! reached.
//!
//! # Examples
//!
//! ```
//! use conform::coverage::{vector_coverage, NodeCoverage};
//! use dsim::circuit::{Circuit, GateKind};
//! use dsim::logic::Logic;
//! use dsim::scan::ScanVector;
//!
//! let mut c = Circuit::new("inv");
//! let a = c.input("a");
//! let y = c.net("y");
//! c.gate(GateKind::Not, &[a], y);
//! c.output(y);
//!
//! let zero = vector_coverage(&c, &ScanVector { pi: vec![Logic::Zero], load: vec![] });
//! let one = vector_coverage(&c, &ScanVector { pi: vec![Logic::One], load: vec![] });
//! // Each polarity activates half the points; together they cover all.
//! let mut both = NodeCoverage::for_circuit(&c);
//! both.merge(&zero);
//! both.merge(&one);
//! assert_eq!(both.points(), both.total());
//! ```

use dsim::bitpar::{self, PackedState, LANES};
use dsim::circuit::{Circuit, NetId, SimState};
use dsim::logic::Logic;
use dsim::scan::ScanVector;

/// Accumulated node-activation coverage: per net, whether a known `0` and
/// a known `1` have ever been observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCoverage {
    seen0: Vec<bool>,
    seen1: Vec<bool>,
}

impl NodeCoverage {
    /// An empty coverage map sized for `circuit`.
    pub fn for_circuit(circuit: &Circuit) -> NodeCoverage {
        NodeCoverage {
            seen0: vec![false; circuit.net_count()],
            seen1: vec![false; circuit.net_count()],
        }
    }

    /// Observes the current simulation state: every net at a known value
    /// activates its corresponding point. `X` activates nothing.
    pub fn observe(&mut self, circuit: &Circuit, state: &SimState) {
        for i in 0..circuit.net_count() {
            match state.net(NetId(i)) {
                Logic::Zero => self.seen0[i] = true,
                Logic::One => self.seen1[i] = true,
                Logic::X => {}
            }
        }
    }

    /// Folds another map into this one.
    ///
    /// # Panics
    ///
    /// Panics if the maps were sized for different circuits.
    pub fn merge(&mut self, other: &NodeCoverage) {
        assert_eq!(self.seen0.len(), other.seen0.len(), "circuit mismatch");
        for (a, b) in self.seen0.iter_mut().zip(&other.seen0) {
            *a |= b;
        }
        for (a, b) in self.seen1.iter_mut().zip(&other.seen1) {
            *a |= b;
        }
    }

    /// Number of activated coverage points.
    pub fn points(&self) -> usize {
        self.seen0.iter().filter(|&&b| b).count() + self.seen1.iter().filter(|&&b| b).count()
    }

    /// Total coverage points: two per net.
    pub fn total(&self) -> usize {
        2 * self.seen0.len()
    }

    /// `true` when this map activates at least one point `other` does not
    /// — the fuzzer's acceptance test.
    ///
    /// # Panics
    ///
    /// Panics if the maps were sized for different circuits.
    pub fn adds_over(&self, other: &NodeCoverage) -> bool {
        assert_eq!(self.seen0.len(), other.seen0.len(), "circuit mismatch");
        self.seen0.iter().zip(&other.seen0).any(|(&a, &b)| a && !b)
            || self.seen1.iter().zip(&other.seen1).any(|(&a, &b)| a && !b)
    }
}

/// The coverage footprint of one scan vector: load, launch-evaluate,
/// observe, capture, propagate, observe again — the instrumented twin of
/// `dsim::scan::apply_vector`.
pub fn vector_coverage(circuit: &Circuit, v: &ScanVector) -> NodeCoverage {
    let mut state = SimState::for_circuit(circuit);
    let mut cov = NodeCoverage::for_circuit(circuit);
    state.load_ffs(&v.load);
    for (&net, &val) in circuit.inputs().iter().zip(&v.pi) {
        state.set_input(circuit, net, val);
    }
    circuit.eval(&mut state);
    cov.observe(circuit, &state);
    circuit.tick(&mut state);
    circuit.eval(&mut state);
    cov.observe(circuit, &state);
    cov
}

/// One packed run of up to 64 vectors, observed at the same two strobe
/// points as [`vector_coverage`]; returns per-net `(seen0, seen1)` lane
/// masks.
fn block_observation(circuit: &Circuit, block: &[ScanVector]) -> (Vec<u64>, Vec<u64>) {
    let n = circuit.net_count();
    let mut seen0 = vec![0u64; n];
    let mut seen1 = vec![0u64; n];
    let mut observe = |state: &PackedState| {
        for (i, (s0, s1)) in seen0.iter_mut().zip(seen1.iter_mut()).enumerate() {
            let w = state.net(NetId(i));
            *s0 |= w.zero_mask();
            *s1 |= w.one_mask();
        }
    };
    let (pi, load) = bitpar::pack_vectors(circuit, block);
    let mut state = PackedState::for_circuit(circuit);
    state.load_ffs(&load);
    for (&net, &w) in circuit.inputs().iter().zip(&pi) {
        state.set_input(circuit, net, w);
    }
    bitpar::eval(circuit, &mut state);
    observe(&state);
    bitpar::tick(circuit, &mut state);
    bitpar::eval(circuit, &mut state);
    observe(&state);
    (seen0, seen1)
}

/// The footprints of a whole vector set, one [`NodeCoverage`] per vector
/// in input order — evaluated on the packed simulator, 64 vectors per
/// gate-level walk. Lane-for-lane identical to mapping
/// [`vector_coverage`] over the set (unused lanes are `X` and activate
/// nothing).
pub fn batch_footprints(circuit: &Circuit, vectors: &[ScanVector]) -> Vec<NodeCoverage> {
    vectors
        .chunks(LANES)
        .map(|block| (block.len(), block_observation(circuit, block)))
        .flat_map(|(lanes, (seen0, seen1))| {
            (0..lanes)
                .map(|k| NodeCoverage {
                    seen0: seen0.iter().map(|m| (m >> k) & 1 == 1).collect(),
                    seen1: seen1.iter().map(|m| (m >> k) & 1 == 1).collect(),
                })
                .collect::<Vec<NodeCoverage>>()
        })
        .collect()
}

/// The merged footprint of a whole vector set, evaluated packed.
pub fn set_coverage(circuit: &Circuit, vectors: &[ScanVector]) -> NodeCoverage {
    let mut cov = NodeCoverage::for_circuit(circuit);
    for block in vectors.chunks(LANES) {
        let (seen0, seen1) = block_observation(circuit, block);
        for (s, m) in cov.seen0.iter_mut().zip(&seen0) {
            *s |= *m != 0;
        }
        for (s, m) in cov.seen1.iter_mut().zip(&seen1) {
            *s |= *m != 0;
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::atpg::exhaustive_vectors;
    use dsim::circuit::GateKind;

    fn and_with_ff() -> Circuit {
        let mut c = Circuit::new("and-ff");
        let a = c.input("a");
        let b = c.input("b");
        let y = c.net("y");
        c.gate(GateKind::And, &[a, b], y);
        let q = c.net("q");
        c.dff(y, q);
        c.output(q);
        c
    }

    #[test]
    fn empty_map_has_no_points() {
        let c = and_with_ff();
        let cov = NodeCoverage::for_circuit(&c);
        assert_eq!(cov.points(), 0);
        assert_eq!(cov.total(), 2 * c.net_count());
    }

    #[test]
    fn exhaustive_set_reaches_full_coverage() {
        let c = and_with_ff();
        let cov = set_coverage(&c, &exhaustive_vectors(&c).unwrap());
        assert_eq!(
            cov.points(),
            cov.total(),
            "exhaustive patterns toggle every net"
        );
    }

    #[test]
    fn single_vector_is_partial() {
        let c = and_with_ff();
        let all = exhaustive_vectors(&c).unwrap();
        let one = vector_coverage(&c, &all[0]);
        assert!(one.points() > 0);
        assert!(one.points() < one.total());
    }

    #[test]
    fn adds_over_detects_new_points_only() {
        let c = and_with_ff();
        let all = exhaustive_vectors(&c).unwrap();
        let first = vector_coverage(&c, &all[0]);
        let mut acc = NodeCoverage::for_circuit(&c);
        assert!(first.adds_over(&acc), "anything adds over empty");
        acc.merge(&first);
        assert!(!first.adds_over(&acc), "nothing new against itself");
    }

    #[test]
    fn merge_is_idempotent_and_monotone() {
        let c = and_with_ff();
        let all = exhaustive_vectors(&c).unwrap();
        let mut acc = NodeCoverage::for_circuit(&c);
        let mut last = 0;
        for v in &all {
            acc.merge(&vector_coverage(&c, v));
            assert!(acc.points() >= last);
            last = acc.points();
        }
        let snapshot = acc.clone();
        acc.merge(&snapshot);
        assert_eq!(acc, snapshot);
    }

    #[test]
    fn netless_circuit_is_vacuously_covered() {
        let c = Circuit::new("empty");
        let cov = NodeCoverage::for_circuit(&c);
        assert_eq!((cov.points(), cov.total()), (0, 0));
    }
}
