//! Eye-diagram accumulation and eye-opening metrics.
//!
//! The synchronizer's whole purpose is to sample "at the center of the
//! data eye"; this module measures that eye. An [`EyeDiagram`] folds a
//! received waveform modulo the UI, tracking per-phase worst-case levels
//! for transmitted ones and zeros; the *opening* at a phase is the gap
//! between the lowest received one and the highest received zero (negative
//! when the eye is closed).
//!
//! [`EyeDiagram::from_waveform`] aligns the bit sequence to the waveform
//! automatically by scanning integer-UI latencies and keeping the best —
//! the RC channel's group delay is not known a priori.
//!
//! # Examples
//!
//! ```
//! use link::eye::EyeDiagram;
//! use msim::units::Volt;
//!
//! let mut eye = EyeDiagram::new(4);
//! eye.add(1, true, Volt::from_mv(25.0));
//! eye.add(1, false, Volt::from_mv(-25.0));
//! assert!((eye.opening_at(1).mv() - 50.0).abs() < 1e-9);
//! ```

use msim::signal::Waveform;
use msim::units::Volt;

/// A folded eye diagram over one UI.
#[derive(Debug, Clone, PartialEq)]
pub struct EyeDiagram {
    oversample: usize,
    ones_min: Vec<f64>,
    zeros_max: Vec<f64>,
}

impl EyeDiagram {
    /// Creates an empty eye with `oversample` phase bins per UI.
    ///
    /// # Panics
    ///
    /// Panics if `oversample < 2`.
    pub fn new(oversample: usize) -> EyeDiagram {
        assert!(oversample >= 2, "eye needs at least two phase bins");
        EyeDiagram {
            oversample,
            ones_min: vec![f64::INFINITY; oversample],
            zeros_max: vec![f64::NEG_INFINITY; oversample],
        }
    }

    /// Phase bins per UI.
    pub fn oversample(&self) -> usize {
        self.oversample
    }

    /// Accumulates one sample of the received waveform at phase bin
    /// `phase` during a UI whose transmitted bit was `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn add(&mut self, phase: usize, bit: bool, v: Volt) {
        assert!(phase < self.oversample, "phase bin out of range");
        if bit {
            self.ones_min[phase] = self.ones_min[phase].min(v.value());
        } else {
            self.zeros_max[phase] = self.zeros_max[phase].max(v.value());
        }
    }

    /// Worst-case vertical opening at a phase bin; negative when closed,
    /// zero when one of the rails has no samples yet.
    pub fn opening_at(&self, phase: usize) -> Volt {
        let lo = self.ones_min[phase];
        let hi = self.zeros_max[phase];
        if lo.is_finite() && hi.is_finite() {
            Volt(lo - hi)
        } else {
            Volt::ZERO
        }
    }

    /// The best phase bin and its opening.
    pub fn best(&self) -> (usize, Volt) {
        (0..self.oversample)
            .map(|p| (p, self.opening_at(p)))
            .max_by(|a, b| a.1.value().total_cmp(&b.1.value()))
            .expect("at least two phase bins")
    }

    /// Renders the eye mask as ASCII art: `#` marks the vertical band
    /// guaranteed occupied by signal trajectories at each phase, `.` the
    /// open eye between the worst one and the worst zero.
    ///
    /// # Panics
    ///
    /// Panics if `height < 3`.
    pub fn render_ascii(&self, height: usize) -> String {
        assert!(height >= 3, "rendering needs at least three rows");
        let (lo, hi) = self.ones_min.iter().chain(self.zeros_max.iter()).fold(
            (f64::INFINITY, f64::NEG_INFINITY),
            |(lo, hi), v| {
                if v.is_finite() {
                    (lo.min(*v), hi.max(*v))
                } else {
                    (lo, hi)
                }
            },
        );
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return String::from("(eye empty)\n");
        }
        let row_of = |v: f64| {
            let frac = (v - lo) / (hi - lo);
            ((1.0 - frac) * (height - 1) as f64).round() as usize
        };
        let mut grid = vec![vec![' '; self.oversample]; height];
        for p in 0..self.oversample {
            let one = self.ones_min[p];
            let zero = self.zeros_max[p];
            if !one.is_finite() || !zero.is_finite() {
                continue;
            }
            let (r_one, r_zero) = (row_of(one), row_of(zero));
            for (r, row) in grid.iter_mut().enumerate() {
                row[p] = if one > zero && r > r_one && r < r_zero {
                    '.'
                } else {
                    '#'
                };
            }
        }
        let mut out = String::new();
        for row in grid {
            out.push_str(&row.iter().collect::<String>());
            out.push('\n');
        }
        out
    }

    /// Folds a received waveform against its transmitted bit sequence,
    /// scanning integer-UI latencies `0..=max_delay_ui` and returning the
    /// eye for the best alignment; ties keep the smallest delay.
    ///
    /// The waveform must hold `bits.len() * oversample` samples (one UI of
    /// `oversample` points per bit), as produced by
    /// [`crate::LowSwingLink::transmit`].
    ///
    /// Each alignment folds UI by UI: the bit is looked up once per UI and
    /// its rail is updated phase by phase, with the same `min`/`max` on
    /// the same samples in the same order as [`EyeDiagram::add`] per
    /// sample, so the result is bit-identical to that per-sample fold.
    /// A delay past the last UI leaves both rails empty (every opening
    /// reads 0 V).
    ///
    /// # Panics
    ///
    /// Panics if the waveform length does not match the bit count.
    pub fn from_waveform(
        wave: &Waveform,
        bits: &[bool],
        oversample: usize,
        max_delay_ui: usize,
    ) -> EyeDiagram {
        assert_eq!(
            wave.len(),
            bits.len() * oversample,
            "waveform/bit length mismatch"
        );
        let mut best: Option<(Volt, EyeDiagram)> = None;
        for delay in 0..=max_delay_ui {
            let mut eye = EyeDiagram::new(oversample);
            // UI `ui` carries the bit transmitted `delay` UIs earlier.
            let uis = wave.samples().chunks_exact(oversample).enumerate();
            for (ui, ui_samples) in uis.skip(delay) {
                if bits[ui - delay] {
                    for (lo, v) in eye.ones_min.iter_mut().zip(ui_samples) {
                        *lo = lo.min(v.value());
                    }
                } else {
                    for (hi, v) in eye.zeros_max.iter_mut().zip(ui_samples) {
                        *hi = hi.max(v.value());
                    }
                }
            }
            let opening = eye.best().1;
            if best.as_ref().is_none_or(|(b, _)| opening > *b) {
                best = Some((opening, eye));
            }
        }
        best.expect("at least one alignment").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim::units::Sec;
    use rt::rng::Rng;

    /// The per-sample fold `from_waveform` used before it folded UI by UI:
    /// a divide and a modulo per sample and one [`EyeDiagram::add`] each.
    /// Kept as the bit-equality oracle for the fast fold.
    fn from_waveform_per_sample(
        wave: &Waveform,
        bits: &[bool],
        oversample: usize,
        max_delay_ui: usize,
    ) -> EyeDiagram {
        assert_eq!(wave.len(), bits.len() * oversample);
        let mut best: Option<(Volt, EyeDiagram)> = None;
        for delay in 0..=max_delay_ui {
            let mut eye = EyeDiagram::new(oversample);
            for (k, v) in wave.samples().iter().enumerate() {
                let ui = k / oversample;
                if ui < delay {
                    continue;
                }
                let bit_idx = ui - delay;
                if bit_idx >= bits.len() {
                    break;
                }
                eye.add(k % oversample, bits[bit_idx], *v);
            }
            let opening = eye.best().1;
            if best.as_ref().is_none_or(|(b, _)| opening > *b) {
                best = Some((opening, eye));
            }
        }
        best.expect("at least one alignment").1
    }

    fn assert_bit_identical(fast: &EyeDiagram, slow: &EyeDiagram, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(fast.oversample, slow.oversample, "{what}: oversample");
        assert_eq!(bits(&fast.ones_min), bits(&slow.ones_min), "{what}: ones");
        assert_eq!(
            bits(&fast.zeros_max),
            bits(&slow.zeros_max),
            "{what}: zeros"
        );
        let (fp, fo) = fast.best();
        let (sp, so) = slow.best();
        assert_eq!(fp, sp, "{what}: best phase");
        assert_eq!(fo.value().to_bits(), so.value().to_bits(), "{what}: best");
    }

    #[test]
    fn ui_fold_matches_the_per_sample_fold_bit_for_bit() {
        // Signed zeros and NaN make the fold order observable: `min`/`max`
        // of +0.0 and -0.0, or of NaN and a number, depend on which side
        // each operand is on.
        let specials = [0.0, -0.0, f64::NAN];
        let mut rng = Rng::seed_from_u64(0xE7E);
        for oversample in [2, 3, 8, 16] {
            for n_bits in [1, 2, 7, 24] {
                for trial in 0..4 {
                    let bits: Vec<bool> = (0..n_bits).map(|_| rng.next_bool()).collect();
                    let mut wave = Waveform::new(Sec::from_ps(50.0));
                    for _ in 0..n_bits * oversample {
                        let v = if rng.chance(0.2) {
                            specials[rng.below(specials.len())]
                        } else {
                            rng.range_f64(-40e-3, 40e-3)
                        };
                        wave.push(Volt(v));
                    }
                    for max_delay in 0..=n_bits + 1 {
                        let what = format!(
                            "os {oversample}, {n_bits} bits, trial {trial}, delay {max_delay}"
                        );
                        let fast = EyeDiagram::from_waveform(&wave, &bits, oversample, max_delay);
                        let slow = from_waveform_per_sample(&wave, &bits, oversample, max_delay);
                        assert_bit_identical(&fast, &slow, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn link_eye_matches_the_per_sample_fold_on_the_paper_config() {
        let link = crate::LowSwingLink::new(crate::config::LinkConfig::paper()).unwrap();
        let bits: Vec<bool> = crate::prbs::Prbs::new(7, 6, 0x7f).take(200).collect();
        let fast = link.clone().eye(&bits);
        let wave = link.clone().transmit(&bits);
        let slow = from_waveform_per_sample(&wave, &bits, link.config().oversample, 4);
        assert_bit_identical(&fast, &slow, "paper link");
        assert!(fast.best().1.value() > 0.0, "the paper eye is open");
    }

    #[test]
    fn opening_is_worst_case_gap() {
        let mut eye = EyeDiagram::new(4);
        eye.add(2, true, Volt::from_mv(30.0));
        eye.add(2, true, Volt::from_mv(20.0)); // worst one
        eye.add(2, false, Volt::from_mv(-25.0));
        eye.add(2, false, Volt::from_mv(-5.0)); // worst zero
        assert!((eye.opening_at(2).mv() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn unpopulated_phase_reads_zero() {
        let eye = EyeDiagram::new(4);
        assert_eq!(eye.opening_at(0), Volt::ZERO);
        let mut eye = EyeDiagram::new(4);
        eye.add(0, true, Volt::from_mv(30.0));
        // Only ones seen: still zero.
        assert_eq!(eye.opening_at(0), Volt::ZERO);
    }

    #[test]
    fn closed_eye_is_negative() {
        let mut eye = EyeDiagram::new(2);
        eye.add(0, true, Volt::from_mv(-10.0));
        eye.add(0, false, Volt::from_mv(10.0));
        assert!(eye.opening_at(0).mv() < 0.0);
    }

    #[test]
    fn best_picks_widest_phase() {
        let mut eye = EyeDiagram::new(4);
        for p in 0..4 {
            let margin = [5.0, 25.0, 15.0, 1.0][p];
            eye.add(p, true, Volt::from_mv(margin));
            eye.add(p, false, Volt::from_mv(-margin));
        }
        let (phase, opening) = eye.best();
        assert_eq!(phase, 1);
        assert!((opening.mv() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn from_waveform_aligns_latency() {
        // Ideal NRZ waveform delayed by exactly 2 UI.
        let oversample = 8;
        let bits = [true, false, true, true, false, false, true, false];
        let delay = 2;
        let mut wave = Waveform::new(Sec::from_ps(50.0));
        for ui in 0..bits.len() {
            let src = if ui >= delay { bits[ui - delay] } else { true };
            for _ in 0..oversample {
                wave.push(Volt::from_mv(if src { 30.0 } else { -30.0 }));
            }
        }
        let eye = EyeDiagram::from_waveform(&wave, &bits, oversample, 4);
        let (_, opening) = eye.best();
        assert!(
            (opening.mv() - 60.0).abs() < 1e-9,
            "perfect alignment must recover the full 60 mV eye, got {opening}"
        );
    }

    #[test]
    fn from_waveform_ties_keep_the_earliest_delay() {
        // An undelayed alternating pattern: delays 0, 2 and 4 all see the
        // full 60 mV eye (1 and 3 see it inverted). Only the delay-0 fold
        // keeps the first UI, whose phase-3 sample sags to 20 mV.
        let oversample = 8;
        let bits: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
        let mut wave = Waveform::new(Sec::from_ps(50.0));
        for (ui, &bit) in bits.iter().enumerate() {
            for phase in 0..oversample {
                let mv = match (ui, phase, bit) {
                    (0, 3, _) => 20.0,
                    (_, _, true) => 30.0,
                    _ => -30.0,
                };
                wave.push(Volt::from_mv(mv));
            }
        }
        let eye = EyeDiagram::from_waveform(&wave, &bits, oversample, 4);
        assert!((eye.best().1.mv() - 60.0).abs() < 1e-9);
        assert!((eye.opening_at(3).mv() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn ascii_rendering_shows_an_opening() {
        let mut eye = EyeDiagram::new(8);
        for p in 0..8 {
            // A lens-shaped eye: widest in the middle.
            let margin = [2.0, 8.0, 14.0, 18.0, 18.0, 14.0, 8.0, 2.0][p];
            eye.add(p, true, Volt::from_mv(margin));
            eye.add(p, false, Volt::from_mv(-margin));
        }
        let art = eye.render_ascii(9);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 9);
        // The middle row is open across the central phases.
        assert!(lines[4].contains('.'), "no opening drawn:\n{art}");
        // The top row is signal everywhere.
        assert!(lines[0].chars().all(|c| c == '#'), "{art}");
    }

    #[test]
    fn ascii_rendering_of_empty_eye() {
        let eye = EyeDiagram::new(4);
        assert_eq!(eye.render_ascii(5), "(eye empty)\n");
    }

    #[test]
    #[should_panic(expected = "at least three rows")]
    fn ascii_too_short_panics() {
        let mut eye = EyeDiagram::new(4);
        eye.add(0, true, Volt::from_mv(5.0));
        let _ = eye.render_ascii(2);
    }

    #[test]
    #[should_panic(expected = "waveform/bit length mismatch")]
    fn mismatched_lengths_panic() {
        let wave = Waveform::new(Sec::from_ps(50.0));
        let _ = EyeDiagram::from_waveform(&wave, &[true], 8, 0);
    }

    #[test]
    #[should_panic(expected = "phase bin out of range")]
    fn bad_phase_panics() {
        let mut eye = EyeDiagram::new(2);
        eye.add(2, true, Volt::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least two phase bins")]
    fn tiny_oversample_panics() {
        let _ = EyeDiagram::new(1);
    }
}
