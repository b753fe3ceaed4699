//! Dimension-bearing newtypes used throughout the simulator.
//!
//! Analog behavioral models pass voltages, times, currents, capacitances and
//! resistances across block boundaries. Wrapping the underlying `f64` in a
//! newtype ([`Volt`], [`Sec`], [`Amp`], [`Farad`], [`Ohm`], [`Hertz`]) makes
//! an interface mix-up (e.g. feeding a delay where a control voltage is
//! expected) a compile error instead of a silently wrong waveform.
//!
//! Only the physically meaningful arithmetic is provided:
//!
//! * `Volt / Ohm -> Amp` (Ohm's law)
//! * `Amp * Sec / Farad -> Volt` (charge-pump integration)
//! * `Sec * Hertz -> f64` (cycle counting)
//! * same-unit addition/subtraction and `f64` scaling for every unit
//!
//! [`BitKey`] gives a value an exact identity — every float by its
//! IEEE-754 bits — for memo keys that must tell `-0.0` from `+0.0`.
//!
//! # Examples
//!
//! ```
//! use msim::units::{Amp, Farad, Sec, Volt};
//!
//! // One microamp into 1 pF for 1 ns moves the node by 1 mV.
//! let dv: Volt = Amp::from_ua(1.0) * Sec::from_ns(1.0) / Farad::from_pf(1.0);
//! assert!((dv.mv() - 1.0).abs() < 1e-9);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $sym:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero of this unit.
            pub const ZERO: $name = $name(0.0);

            /// Returns the raw value in base SI units.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: $name, hi: $name) -> $name {
                assert!(lo.0 <= hi.0, "clamp bounds inverted");
                $name(self.0.clamp(lo.0, hi.0))
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $sym)
            }
        }

        impl BitKey for $name {
            fn push_bits(&self, key: &mut Vec<u64>) {
                self.0.push_bits(key);
            }
        }
    };
}

/// A value's exact identity as words: every float as its IEEE-754 bit
/// pattern, every other field as an integer. Two values push equal words
/// exactly when they are bit for bit the same, so `-0.0` and `+0.0` key
/// apart where `==` calls them equal. (A NaN keys by its bits, so a
/// caller that must never match a NaN also compares with `==`.)
pub trait BitKey {
    /// Appends the value's identity words to `key`.
    fn push_bits(&self, key: &mut Vec<u64>);
}

impl BitKey for f64 {
    fn push_bits(&self, key: &mut Vec<u64>) {
        key.push(self.to_bits());
    }
}

impl BitKey for bool {
    fn push_bits(&self, key: &mut Vec<u64>) {
        key.push(u64::from(*self));
    }
}

impl BitKey for u32 {
    fn push_bits(&self, key: &mut Vec<u64>) {
        key.push(u64::from(*self));
    }
}

impl BitKey for u64 {
    fn push_bits(&self, key: &mut Vec<u64>) {
        key.push(*self);
    }
}

impl BitKey for usize {
    fn push_bits(&self, key: &mut Vec<u64>) {
        key.push(*self as u64);
    }
}

impl<T: BitKey> BitKey for Option<T> {
    fn push_bits(&self, key: &mut Vec<u64>) {
        match self {
            None => key.push(0),
            Some(v) => {
                key.push(1);
                v.push_bits(key);
            }
        }
    }
}

unit!(
    /// Electric potential in volts.
    Volt,
    "V"
);
unit!(
    /// Time in seconds.
    Sec,
    "s"
);
unit!(
    /// Current in amperes.
    Amp,
    "A"
);
unit!(
    /// Capacitance in farads.
    Farad,
    "F"
);
unit!(
    /// Resistance in ohms.
    Ohm,
    "Ω"
);
unit!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);

impl Volt {
    /// Constructs a voltage from millivolts.
    #[inline]
    pub fn from_mv(mv: f64) -> Volt {
        Volt(mv * 1e-3)
    }

    /// Returns the value in millivolts.
    #[inline]
    pub fn mv(self) -> f64 {
        self.0 * 1e3
    }
}

impl Sec {
    /// Constructs a time from picoseconds.
    #[inline]
    pub fn from_ps(ps: f64) -> Sec {
        Sec(ps * 1e-12)
    }

    /// Constructs a time from nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> Sec {
        Sec(ns * 1e-9)
    }

    /// Returns the value in picoseconds.
    #[inline]
    pub fn ps(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns the value in microseconds.
    #[inline]
    pub fn us(self) -> f64 {
        self.0 * 1e6
    }
}

impl Amp {
    /// Constructs a current from microamps.
    #[inline]
    pub fn from_ua(ua: f64) -> Amp {
        Amp(ua * 1e-6)
    }
}

impl Farad {
    /// Constructs a capacitance from femtofarads.
    #[inline]
    pub fn from_ff(ff: f64) -> Farad {
        Farad(ff * 1e-15)
    }

    /// Constructs a capacitance from picofarads.
    #[inline]
    pub fn from_pf(pf: f64) -> Farad {
        Farad(pf * 1e-12)
    }
}

impl Ohm {
    /// Constructs a resistance from kilohms.
    #[inline]
    pub fn from_kohm(k: f64) -> Ohm {
        Ohm(k * 1e3)
    }
}

impl Hertz {
    /// Constructs a frequency from megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Hertz {
        Hertz(mhz * 1e6)
    }

    /// Constructs a frequency from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Hertz {
        Hertz(ghz * 1e9)
    }

    /// Returns the period `1/f`.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[inline]
    pub fn period(self) -> Sec {
        assert!(self.0 != 0.0, "period of zero frequency");
        Sec(1.0 / self.0)
    }
}

// --- Cross-unit arithmetic (only the physically meaningful relations). ---

impl Div<Ohm> for Volt {
    type Output = Amp;
    /// Ohm's law: `I = V / R`.
    #[inline]
    fn div(self, rhs: Ohm) -> Amp {
        Amp(self.0 / rhs.0)
    }
}

impl Mul<Ohm> for Amp {
    type Output = Volt;
    /// Ohm's law: `V = I * R`.
    #[inline]
    fn mul(self, rhs: Ohm) -> Volt {
        Volt(self.0 * rhs.0)
    }
}

impl Mul<Sec> for Amp {
    type Output = Coulomb;
    /// Charge delivered: `Q = I * t`.
    #[inline]
    fn mul(self, rhs: Sec) -> Coulomb {
        Coulomb(self.0 * rhs.0)
    }
}

/// Electric charge in coulombs (intermediate of charge-pump integration).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Coulomb(pub f64);

impl Div<Farad> for Coulomb {
    type Output = Volt;
    /// Node voltage change: `ΔV = Q / C`.
    #[inline]
    fn div(self, rhs: Farad) -> Volt {
        Volt(self.0 / rhs.0)
    }
}

impl Mul<Farad> for Ohm {
    type Output = Sec;
    /// RC time constant: `τ = R * C`.
    #[inline]
    fn mul(self, rhs: Farad) -> Sec {
        Sec(self.0 * rhs.0)
    }
}

impl Mul<Hertz> for Sec {
    type Output = f64;
    /// Number of cycles elapsing in `self` at frequency `rhs`.
    #[inline]
    fn mul(self, rhs: Hertz) -> f64 {
        self.0 * rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millivolt_roundtrip() {
        let v = Volt::from_mv(60.0);
        assert!((v.value() - 0.060).abs() < 1e-12);
        assert!((v.mv() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn ohms_law() {
        let i = Volt(1.2) / Ohm::from_kohm(1.2);
        assert!((i.value() - 1e-3).abs() < 1e-12);
        let v = i * Ohm::from_kohm(1.2);
        assert!((v.value() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn charge_pump_integration() {
        // 10 uA into 1 pF for 100 ps -> 1 mV step.
        let dv = Amp::from_ua(10.0) * Sec::from_ps(100.0) / Farad::from_pf(1.0);
        assert!((dv.mv() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rc_time_constant() {
        let tau = Ohm::from_kohm(1.0) * Farad::from_pf(1.0);
        assert!((tau.ps() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_counting() {
        let cycles = Sec::from_ns(2000.0) * Hertz::from_ghz(2.5);
        assert!((cycles - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn period_of_frequency() {
        let p = Hertz::from_mhz(100.0).period();
        assert!((p.ps() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "period of zero frequency")]
    fn period_of_zero_frequency_panics() {
        let _ = Hertz(0.0).period();
    }

    #[test]
    fn clamp_and_minmax() {
        let v = Volt(0.9).clamp(Volt(0.0), Volt(0.5));
        assert_eq!(v, Volt(0.5));
        assert_eq!(Volt(0.1).max(Volt(0.2)), Volt(0.2));
        assert_eq!(Volt(-0.3).abs(), Volt(0.3));
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_inverted_bounds_panics() {
        let _ = Volt(0.1).clamp(Volt(1.0), Volt(0.0));
    }

    #[test]
    fn sum_of_voltages() {
        let total: Volt = [Volt(0.1), Volt(0.2), Volt(0.3)].into_iter().sum();
        assert!((total.value() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit_symbol() {
        assert_eq!(format!("{}", Volt(1.2)), "1.2 V");
        assert_eq!(format!("{}", Hertz(2.5e9)), "2500000000 Hz");
    }

    #[test]
    fn negation_and_assign_ops() {
        let mut v = Volt(0.5);
        v += Volt(0.25);
        v -= Volt(0.5);
        assert!((v.value() - 0.25).abs() < 1e-12);
        assert_eq!(-v, Volt(-0.25));
    }

    #[test]
    fn scalar_scaling_both_sides() {
        assert_eq!(Volt(0.2) * 3.0, Volt(0.6000000000000001));
        assert_eq!(3.0 * Volt(0.2), Volt(0.6000000000000001));
        assert_eq!(Volt(0.6) / 3.0, Volt(0.19999999999999998));
        assert!((Volt(0.6) / Volt(0.2) - 3.0).abs() < 1e-12);
    }
}
