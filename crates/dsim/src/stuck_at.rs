//! The single stuck-at fault model.
//!
//! The paper's digital sections (control FSM, ring counter, divider, switch
//! matrix, lock detector, retimers) are tested with standard scan patterns
//! against the single stuck-at model and reach 100 % coverage because the
//! circuits are logically simple. This module enumerates the stuck-at
//! universe (stuck-at-0 and stuck-at-1 on every net) and measures coverage
//! of a pattern set by fault simulation.
//!
//! # Examples
//!
//! ```
//! use dsim::circuit::{Circuit, GateKind};
//! use dsim::stuck_at::{enumerate_faults, scan_coverage};
//! use dsim::atpg::exhaustive_vectors;
//!
//! let mut c = Circuit::new("and2");
//! let a = c.input("a");
//! let b = c.input("b");
//! let y = c.net("y");
//! c.gate(GateKind::And, &[a, b], y);
//! c.output(y);
//!
//! let vectors = exhaustive_vectors(&c).unwrap();
//! let cov = scan_coverage(&c, &vectors);
//! assert_eq!(cov.total(), enumerate_faults(&c).len());
//! assert!((cov.coverage() - 1.0).abs() < 1e-12); // 100 %
//! ```

use std::fmt;

use crate::circuit::{Circuit, NetId, SimState};
use crate::logic::Logic;
use crate::scan::{apply_vector, ScanResponse, ScanVector};

/// One single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckAtFault {
    /// Faulted net.
    pub net: NetId,
    /// `true` for stuck-at-1.
    pub stuck_high: bool,
}

impl StuckAtFault {
    /// The logic value the net is pinned to.
    pub fn value(&self) -> Logic {
        Logic::from_bool(self.stuck_high)
    }
}

impl fmt::Display for StuckAtFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} sa{}", self.net, u8::from(self.stuck_high))
    }
}

/// Enumerates the stuck-at universe: stuck-at-0 and stuck-at-1 on every net.
pub fn enumerate_faults(circuit: &Circuit) -> Vec<StuckAtFault> {
    (0..circuit.net_count())
        .flat_map(|i| {
            [false, true].map(|stuck_high| StuckAtFault {
                net: NetId(i),
                stuck_high,
            })
        })
        .collect()
}

/// Coverage of a pattern set over the stuck-at universe.
#[derive(Debug, Clone, PartialEq)]
pub struct StuckAtCoverage {
    detected: usize,
    undetected: Vec<StuckAtFault>,
}

impl StuckAtCoverage {
    /// Number of faults in the universe.
    pub fn total(&self) -> usize {
        self.detected + self.undetected.len()
    }

    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.detected
    }

    /// The faults no pattern detected.
    pub fn undetected(&self) -> &[StuckAtFault] {
        &self.undetected
    }

    /// Fraction detected in `[0, 1]` (1.0 for an empty universe).
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.detected as f64 / self.total() as f64
        }
    }
}

fn respond(circuit: &Circuit, v: &ScanVector, fault: Option<StuckAtFault>) -> ScanResponse {
    let mut state = SimState::for_circuit(circuit);
    if let Some(f) = fault {
        state.inject(f.net, f.value());
    }
    apply_vector(circuit, &mut state, v)
}

/// A response difference counts as detection only when the golden value is
/// known; an `X` in the golden response cannot be compared on a tester.
fn differs(golden: &ScanResponse, faulty: &ScanResponse) -> bool {
    let cmp = |g: &[Logic], f: &[Logic]| g.iter().zip(f).any(|(gv, fv)| gv.is_known() && gv != fv);
    cmp(&golden.po, &faulty.po) || cmp(&golden.capture, &faulty.capture)
}

/// Fault-simulates every stuck-at fault against the pattern set and
/// reports coverage. Detection = any pattern whose faulty response differs
/// from the golden response at a known-value position.
///
/// Runs on the bit-parallel PPSFP kernel
/// ([`crate::bitpar::ppsfp_detect`]) on the calling thread: 64 patterns
/// per `u64` word, with fault dropping across pattern blocks. The result
/// is bit-identical to [`scan_coverage_scalar`] — including the
/// `undetected` fault order — at any block partitioning; the `conform`
/// crate's packed-vs-scalar oracle enforces this.
pub fn scan_coverage(circuit: &Circuit, vectors: &[ScanVector]) -> StuckAtCoverage {
    let faults = enumerate_faults(circuit);
    let flags = crate::bitpar::ppsfp_detect(circuit, vectors, &faults);
    let mut detected = 0;
    let mut undetected = Vec::new();
    for (fault, hit) in faults.into_iter().zip(flags) {
        if hit {
            detected += 1;
        } else {
            undetected.push(fault);
        }
    }
    StuckAtCoverage {
        detected,
        undetected,
    }
}

/// The original one-pattern-at-a-time fault simulator, kept as the
/// reference implementation the packed kernel is differentially tested
/// against (and as the ground truth for the `bitpar_speedup` benchmark).
pub fn scan_coverage_scalar(circuit: &Circuit, vectors: &[ScanVector]) -> StuckAtCoverage {
    let golden: Vec<ScanResponse> = vectors.iter().map(|v| respond(circuit, v, None)).collect();
    let mut detected = 0;
    let mut undetected = Vec::new();
    for fault in enumerate_faults(circuit) {
        let hit = vectors
            .iter()
            .zip(&golden)
            .any(|(v, g)| differs(g, &respond(circuit, v, Some(fault))));
        if hit {
            detected += 1;
        } else {
            undetected.push(fault);
        }
    }
    StuckAtCoverage {
        detected,
        undetected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateKind;

    fn and2() -> Circuit {
        let mut c = Circuit::new("and2");
        let a = c.input("a");
        let b = c.input("b");
        let y = c.net("y");
        c.gate(GateKind::And, &[a, b], y);
        c.output(y);
        c
    }

    fn vec_of(bits: &[u8]) -> ScanVector {
        ScanVector {
            pi: bits.iter().map(|&b| Logic::from_bool(b != 0)).collect(),
            load: vec![],
        }
    }

    #[test]
    fn universe_size_is_two_per_net() {
        let c = and2();
        assert_eq!(enumerate_faults(&c).len(), 2 * c.net_count());
    }

    #[test]
    fn full_pattern_set_reaches_full_coverage() {
        let c = and2();
        let vectors = vec![vec_of(&[0, 1]), vec_of(&[1, 0]), vec_of(&[1, 1])];
        let cov = scan_coverage(&c, &vectors);
        assert_eq!(cov.detected(), cov.total());
        assert!(cov.undetected().is_empty());
        assert!((cov.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn insufficient_patterns_leave_faults() {
        let c = and2();
        // Only the 1,1 pattern: stuck-at-1 faults on inputs are missed.
        let cov = scan_coverage(&c, &[vec_of(&[1, 1])]);
        assert!(cov.coverage() < 1.0);
        assert!(!cov.undetected().is_empty());
        // y stuck-at-0 IS caught (expected 1, observed 0).
        let y_sa0 = StuckAtFault {
            net: NetId(2),
            stuck_high: false,
        };
        assert!(!cov.undetected().contains(&y_sa0));
    }

    #[test]
    fn no_patterns_no_detection() {
        let c = and2();
        let cov = scan_coverage(&c, &[]);
        assert_eq!(cov.detected(), 0);
        assert_eq!(cov.undetected().len(), cov.total());
        assert_eq!(cov.coverage(), 0.0);
    }

    #[test]
    fn empty_circuit_coverage_is_one() {
        let c = Circuit::new("empty");
        let cov = scan_coverage(&c, &[]);
        assert_eq!(cov.total(), 0);
        assert!((cov.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_fault_detected_through_capture() {
        // DFF whose d input net is faulted: only the capture reveals it.
        let mut c = Circuit::new("ff");
        let d = c.input("d");
        let q = c.net("q");
        c.dff(d, q);
        // No primary output on purpose: detection must come from capture.
        let v = ScanVector {
            pi: vec![Logic::One],
            load: vec![Logic::Zero],
        };
        let cov = scan_coverage(&c, &[v]);
        let d_sa0 = StuckAtFault {
            net: d,
            stuck_high: false,
        };
        assert!(!cov.undetected().contains(&d_sa0));
    }

    #[test]
    fn display_format() {
        let f = StuckAtFault {
            net: NetId(7),
            stuck_high: true,
        };
        assert_eq!(format!("{f}"), "n7 sa1");
        assert_eq!(f.value(), Logic::One);
    }
}
