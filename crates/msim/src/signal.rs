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
//! // The rising crossing of 0.6 V happens between samples 3 and 4.
//! let cross = w.crossings(Volt(0.6));
//! assert_eq!(cross.len(), 1);
//! ```

use crate::units::{Sec, Volt};

/// A uniformly sampled voltage waveform.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    t0: Sec,
    dt: Sec,
    samples: Vec<Volt>,
}

/// A single threshold crossing found by [`Waveform::crossings`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Linearly interpolated crossing time.
    pub time: Sec,
    /// `true` for a rising crossing (below → above threshold).
    pub rising: bool,
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

    /// Builds a waveform from existing samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn from_samples(t0: Sec, dt: Sec, samples: Vec<Volt>) -> Waveform {
        assert!(
            dt.value() > 0.0,
            "waveform sample interval must be positive"
        );
        Waveform { t0, dt, samples }
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

    /// Sample interval.
    #[inline]
    pub fn dt(&self) -> Sec {
        self.dt
    }

    /// Time of sample `i`.
    #[inline]
    pub fn time_at(&self, i: usize) -> Sec {
        self.t0 + self.dt * i as f64
    }

    /// Duration spanned by the samples (zero for fewer than two samples).
    pub fn duration(&self) -> Sec {
        if self.samples.len() < 2 {
            Sec::ZERO
        } else {
            self.dt * (self.samples.len() - 1) as f64
        }
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

    /// Last sample, if any.
    #[inline]
    pub fn last(&self) -> Option<Volt> {
        self.samples.last().copied()
    }

    /// Linearly interpolated value at time `t`.
    ///
    /// Returns `None` when `t` falls outside the sampled span.
    pub fn sample_at(&self, t: Sec) -> Option<Volt> {
        if self.samples.is_empty() {
            return None;
        }
        let rel = (t - self.t0) / self.dt;
        if rel < 0.0 {
            return None;
        }
        let i = rel.floor() as usize;
        if i + 1 >= self.samples.len() {
            // Allow exactly the last sample point.
            if i < self.samples.len() && (rel - i as f64).abs() < 1e-9 {
                return Some(self.samples[i]);
            }
            return None;
        }
        let frac = rel - i as f64;
        Some(self.samples[i] * (1.0 - frac) + self.samples[i + 1] * frac)
    }

    /// Minimum sample value.
    ///
    /// Returns `None` for an empty waveform.
    pub fn min(&self) -> Option<Volt> {
        self.samples
            .iter()
            .copied()
            .reduce(|a, b| if b.value() < a.value() { b } else { a })
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

    /// Peak-to-peak span (`max - min`), zero when empty.
    pub fn peak_to_peak(&self) -> Volt {
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) => hi - lo,
            _ => Volt::ZERO,
        }
    }

    /// Mean of all samples, `None` when empty.
    pub fn mean(&self) -> Option<Volt> {
        if self.samples.is_empty() {
            None
        } else {
            let sum: f64 = self.samples.iter().map(|v| v.value()).sum();
            Some(Volt(sum / self.samples.len() as f64))
        }
    }

    /// All threshold crossings with linearly interpolated times.
    pub fn crossings(&self, threshold: Volt) -> Vec<Crossing> {
        let mut out = Vec::new();
        for i in 1..self.samples.len() {
            let a = self.samples[i - 1];
            let b = self.samples[i];
            let below_a = a.value() < threshold.value();
            let below_b = b.value() < threshold.value();
            if below_a != below_b {
                let frac = (threshold - a) / (b - a);
                out.push(Crossing {
                    time: self.time_at(i - 1) + self.dt * frac,
                    rising: below_a,
                });
            }
        }
        out
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
        assert!((w.duration().ps() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn empty_waveform_queries() {
        let w = Waveform::new(Sec::from_ps(1.0));
        assert!(w.is_empty());
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
        assert_eq!(w.mean(), None);
        assert_eq!(w.last(), None);
        assert_eq!(w.peak_to_peak(), Volt::ZERO);
        assert_eq!(w.sample_at(Sec::ZERO), None);
        assert_eq!(w.duration(), Sec::ZERO);
    }

    #[test]
    #[should_panic(expected = "sample interval must be positive")]
    fn zero_dt_panics() {
        let _ = Waveform::new(Sec::ZERO);
    }

    #[test]
    fn interpolation_midpoint() {
        let w = ramp(3); // 0.0, 0.1, 0.2 at 0, 100, 200 ps
        let v = w.sample_at(Sec::from_ps(150.0)).unwrap();
        assert!((v.value() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn interpolation_out_of_range() {
        let w = ramp(3);
        assert_eq!(w.sample_at(Sec::from_ps(-1.0)), None);
        assert_eq!(w.sample_at(Sec::from_ps(201.0)), None);
        // Exactly the final sample is allowed.
        let v = w.sample_at(Sec::from_ps(200.0)).unwrap();
        assert!((v.value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn minmax_and_mean() {
        let w = ramp(5);
        assert_eq!(w.min().unwrap(), Volt(0.0));
        assert!((w.max().unwrap().value() - 0.4).abs() < 1e-12);
        assert!((w.mean().unwrap().value() - 0.2).abs() < 1e-12);
        assert!((w.peak_to_peak().value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rising_and_falling_crossings() {
        let mut w = Waveform::new(Sec::from_ps(100.0));
        for v in [0.0, 1.0, 0.0] {
            w.push(Volt(v));
        }
        let c = w.crossings(Volt(0.5));
        assert_eq!(c.len(), 2);
        assert!(c[0].rising);
        assert!(!c[1].rising);
        assert!((c[0].time.ps() - 50.0).abs() < 1e-9);
        assert!((c[1].time.ps() - 150.0).abs() < 1e-9);
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
        let w = Waveform::from_samples(
            Sec::from_ns(1.0),
            Sec::from_ps(100.0),
            vec![Volt(0.0), Volt(1.0)],
        );
        assert!((w.time_at(0).ns() - 1.0).abs() < 1e-12);
        assert!((w.time_at(1).ns() - 1.1).abs() < 1e-12);
    }
}
