//! Sampled analog waveforms.
//!
//! A [`Waveform`] is a uniformly sampled voltage trace: a start time, a fixed
//! sample interval `dt`, and a vector of samples. It is the lingua franca
//! between behavioral blocks, the trace recorder and the eye-diagram
//! accumulator in the `link` crate.
//!
//! # Examples
//!
//! ```
//! use msim::signal::Waveform;
//! use msim::units::{Sec, Volt};
//!
//! let mut w = Waveform::new(Sec::from_ps(25.0));
//! for i in 0..8 {
//!     w.push(Volt(if i < 4 { 0.0 } else { 1.2 }));
//! }
//! assert_eq!(w.len(), 8);
//! assert_eq!(w.max(), Some(Volt(1.2)));
//! ```

use crate::units::{Sec, Volt};

/// A uniformly sampled voltage waveform.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    t0: Sec,
    dt: Sec,
    samples: Vec<Volt>,
}

impl Waveform {
    /// Creates an empty waveform starting at `t = 0` with sample interval `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn new(dt: Sec) -> Waveform {
        Waveform::starting_at(Sec::ZERO, dt)
    }

    /// Creates an empty waveform starting at `t0` with sample interval `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn starting_at(t0: Sec, dt: Sec) -> Waveform {
        assert!(
            dt.value() > 0.0,
            "waveform sample interval must be positive"
        );
        Waveform {
            t0,
            dt,
            samples: Vec::new(),
        }
    }

    /// Appends a sample at the next time point.
    #[inline]
    pub fn push(&mut self, v: Volt) {
        self.samples.push(v);
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the waveform holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Time of sample `i`.
    #[inline]
    pub fn time_at(&self, i: usize) -> Sec {
        self.t0 + self.dt * i as f64
    }

    /// Borrow the raw samples.
    #[inline]
    pub fn samples(&self) -> &[Volt] {
        &self.samples
    }

    /// Sample `i`, if present.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Volt> {
        self.samples.get(i).copied()
    }

    /// Maximum sample value.
    ///
    /// Returns `None` for an empty waveform.
    pub fn max(&self) -> Option<Volt> {
        self.samples
            .iter()
            .copied()
            .reduce(|a, b| if b.value() > a.value() { b } else { a })
    }

    /// Steady-state check: `true` once the last `window` samples deviate from
    /// their mean by less than `tolerance`.
    ///
    /// Returns `false` when fewer than `window` samples exist or `window` is
    /// zero.
    pub fn settled(&self, window: usize, tolerance: Volt) -> bool {
        if window == 0 || self.samples.len() < window {
            return false;
        }
        let tail = &self.samples[self.samples.len() - window..];
        let mean = tail.iter().map(|v| v.value()).sum::<f64>() / window as f64;
        tail.iter()
            .all(|v| (v.value() - mean).abs() <= tolerance.value())
    }

    /// Iterate over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Sec, Volt)> + '_ {
        self.samples
            .iter()
            .enumerate()
            .map(move |(i, v)| (self.time_at(i), *v))
    }

    /// Renders the waveform as CSV rows `time_s,value_v` (no header).
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.samples.len() * 24);
        for (t, v) in self.iter() {
            s.push_str(&format!("{:.6e},{:.6e}\n", t.value(), v.value()));
        }
        s
    }
}

impl Extend<Volt> for Waveform {
    fn extend<T: IntoIterator<Item = Volt>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Waveform {
        let mut w = Waveform::new(Sec::from_ps(100.0));
        for i in 0..n {
            w.push(Volt(i as f64 * 0.1));
        }
        w
    }

    #[test]
    fn push_and_time_axis() {
        let w = ramp(5);
        assert_eq!(w.len(), 5);
        assert!((w.time_at(4).ps() - 400.0).abs() < 1e-9);
        assert!((w.max().unwrap().value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_waveform_queries() {
        let w = Waveform::new(Sec::from_ps(1.0));
        assert!(w.is_empty());
        assert_eq!(w.max(), None);
        assert!(!w.settled(1, Volt::from_mv(1.0)));
    }

    #[test]
    #[should_panic(expected = "sample interval must be positive")]
    fn zero_dt_panics() {
        let _ = Waveform::new(Sec::ZERO);
    }

    #[test]
    fn settled_detection() {
        let mut w = Waveform::new(Sec::from_ps(1.0));
        for _ in 0..10 {
            w.push(Volt(0.5));
        }
        assert!(w.settled(5, Volt::from_mv(1.0)));
        w.push(Volt(0.9));
        assert!(!w.settled(5, Volt::from_mv(1.0)));
        assert!(!w.settled(0, Volt::from_mv(1.0)));
        assert!(!w.settled(100, Volt::from_mv(1.0)));
    }

    #[test]
    fn csv_rendering() {
        let w = ramp(2);
        let csv = w.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("0.000000e0,"));
    }

    #[test]
    fn extend_appends() {
        let mut w = Waveform::new(Sec::from_ps(1.0));
        w.extend([Volt(0.1), Volt(0.2)]);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn starting_at_offsets_time() {
        let mut w = Waveform::starting_at(Sec::from_ns(1.0), Sec::from_ps(100.0));
        w.extend([Volt(0.0), Volt(1.0)]);
        assert!((w.time_at(0).ps() - 1000.0).abs() < 1e-9);
        assert!((w.time_at(1).ps() - 1100.0).abs() < 1e-9);
    }
}
