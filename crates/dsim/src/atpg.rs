//! Test pattern generation.
//!
//! The paper's digital blocks are small enough that exhaustive or
//! random-plus-directed scan patterns reach 100 % stuck-at coverage without
//! a path-sensitizing ATPG. Two generators are provided:
//!
//! * [`exhaustive_vectors`] — every combination of primary inputs and scan
//!   load values (bounded; errors above [`MAX_EXHAUSTIVE_BITS`]),
//! * [`random_vectors`] — seeded pseudo-random vectors for wider blocks
//!   ([`weighted_vectors`] biases the bit probability).
//!
//! # Examples
//!
//! ```
//! use dsim::atpg::{exhaustive_vectors, random_vectors};
//! use dsim::circuit::{Circuit, GateKind};
//!
//! let mut c = Circuit::new("or2");
//! let a = c.input("a");
//! let b = c.input("b");
//! let y = c.net("y");
//! c.gate(GateKind::Or, &[a, b], y);
//! c.output(y);
//!
//! assert_eq!(exhaustive_vectors(&c).unwrap().len(), 4);
//! assert_eq!(random_vectors(&c, 16, 1).len(), 16);
//! ```

use std::error::Error;
use std::fmt;

use rt::rng::Rng;

use crate::circuit::Circuit;
use crate::logic::Logic;
use crate::scan::ScanVector;

/// Upper bound on `inputs + flip-flops` for exhaustive generation (2^18
/// vectors).
pub const MAX_EXHAUSTIVE_BITS: usize = 18;

/// The circuit is too wide for exhaustive pattern generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustiveTooWideError {
    /// Total controllable bits of the circuit.
    pub bits: usize,
}

impl fmt::Display for ExhaustiveTooWideError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exhaustive generation needs {} bits, limit is {MAX_EXHAUSTIVE_BITS}",
            self.bits
        )
    }
}

impl Error for ExhaustiveTooWideError {}

/// Generates every combination of primary-input and scan-load bits.
///
/// # Errors
///
/// Returns [`ExhaustiveTooWideError`] when the circuit has more than
/// [`MAX_EXHAUSTIVE_BITS`] controllable bits.
pub fn exhaustive_vectors(circuit: &Circuit) -> Result<Vec<ScanVector>, ExhaustiveTooWideError> {
    let pi = circuit.inputs().len();
    let ff = circuit.dff_count();
    let bits = pi + ff;
    if bits > MAX_EXHAUSTIVE_BITS {
        return Err(ExhaustiveTooWideError { bits });
    }
    let mut out = Vec::with_capacity(1 << bits);
    for word in 0u64..(1 << bits) {
        let bit = |i: usize| Logic::from_bool((word >> i) & 1 == 1);
        out.push(ScanVector {
            pi: (0..pi).map(bit).collect(),
            load: (0..ff).map(|i| bit(pi + i)).collect(),
        });
    }
    Ok(out)
}

/// Generates `count` seeded pseudo-random scan vectors.
pub fn random_vectors(circuit: &Circuit, count: usize, seed: u64) -> Vec<ScanVector> {
    weighted_vectors(circuit, count, seed, 0.5)
}

/// Generates `count` seeded random vectors with each bit `1` at
/// probability `weight` — the classic weighted-random ATPG lever for
/// control-dominated logic (one-hot structures respond far better to
/// low-weight patterns than to balanced ones).
///
/// # Panics
///
/// Panics if `weight` is not within `(0, 1)`.
pub fn weighted_vectors(
    circuit: &Circuit,
    count: usize,
    seed: u64,
    weight: f64,
) -> Vec<ScanVector> {
    assert!(
        weight > 0.0 && weight < 1.0,
        "weight must be strictly inside (0, 1)"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let pi = circuit.inputs().len();
    let ff = circuit.dff_count();
    (0..count)
        .map(|_| ScanVector {
            pi: (0..pi)
                .map(|_| Logic::from_bool(rng.chance(weight)))
                .collect(),
            load: (0..ff)
                .map(|_| Logic::from_bool(rng.chance(weight)))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateKind;

    fn toy() -> Circuit {
        let mut c = Circuit::new("toy");
        let a = c.input("a");
        let q = c.net("q");
        let d = c.net("d");
        c.gate(GateKind::Xor, &[a, q], d);
        c.dff(d, q);
        c.output(q);
        c
    }

    #[test]
    fn exhaustive_covers_pi_and_ff_space() {
        let c = toy();
        let vs = exhaustive_vectors(&c).unwrap();
        // 1 PI + 1 FF = 4 vectors.
        assert_eq!(vs.len(), 4);
        // All distinct.
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                assert_ne!(vs[i], vs[j]);
            }
        }
    }

    #[test]
    fn exhaustive_rejects_wide_circuits() {
        let mut c = Circuit::new("wide");
        for i in 0..(MAX_EXHAUSTIVE_BITS + 1) {
            c.input(format!("i{i}"));
        }
        let err = exhaustive_vectors(&c).unwrap_err();
        assert_eq!(err.bits, MAX_EXHAUSTIVE_BITS + 1);
        assert!(format!("{err}").contains("limit"));
    }

    #[test]
    fn weighted_vectors_skew_the_bit_distribution() {
        let mut c = Circuit::new("wide");
        for i in 0..16 {
            c.input(format!("i{i}"));
        }
        let count_ones = |vs: &[crate::scan::ScanVector]| {
            vs.iter()
                .flat_map(|v| v.pi.iter())
                .filter(|l| **l == crate::logic::Logic::One)
                .count()
        };
        let low = count_ones(&weighted_vectors(&c, 64, 5, 0.1));
        let high = count_ones(&weighted_vectors(&c, 64, 5, 0.9));
        let total = 64 * 16;
        assert!(low < total / 5, "low-weight not skewed: {low}/{total}");
        assert!(
            high > total * 4 / 5,
            "high-weight not skewed: {high}/{total}"
        );
    }

    #[test]
    fn low_weight_patterns_suit_one_hot_logic() {
        // A 10-way switch matrix's AND terms need exactly-one-select
        // patterns: low-weight vectors hit them much more often.
        use crate::blocks::switch_matrix::SwitchMatrix;
        use crate::stuck_at::scan_coverage;
        let sm = SwitchMatrix::new(10);
        let balanced = scan_coverage(sm.circuit(), &random_vectors(sm.circuit(), 48, 9));
        let weighted = scan_coverage(sm.circuit(), &weighted_vectors(sm.circuit(), 48, 9, 0.12));
        assert!(
            weighted.coverage() > balanced.coverage(),
            "weighted {} <= balanced {}",
            weighted.coverage(),
            balanced.coverage()
        );
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn degenerate_weight_rejected() {
        let c = Circuit::new("x");
        let _ = weighted_vectors(&c, 1, 0, 1.0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let c = toy();
        let a = random_vectors(&c, 32, 42);
        let b = random_vectors(&c, 32, 42);
        let d = random_vectors(&c, 32, 43);
        assert_eq!(a, b);
        assert_ne!(a, d);
        assert_eq!(a.len(), 32);
        assert_eq!(a[0].pi.len(), 1);
        assert_eq!(a[0].load.len(), 1);
    }
}
