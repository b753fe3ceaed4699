//! # link — the repeaterless low-swing on-chip interconnect
//!
//! The full PHY of the reproduction of *"Testable Design of Repeaterless
//! Low Swing On-Chip Interconnect"* (Kadayinti & Sharma, DATE 2016):
//!
//! * [`tx`] — the capacitively coupled feed-forward equalizing transmitter
//!   with its weak driver (Fig. 3),
//! * [`channel`] — the distributed-RC interconnect (backward-Euler
//!   L-ladder),
//! * [`rx`] — the receiver termination with the DC-test comparators and
//!   the bias-comparison window comparator (Figs. 4–6),
//! * [`pd`] — the phase-domain Alexander decision function,
//! * [`synchronizer`] — the coarse/fine clock recovery loop (Fig. 1),
//!   whose lock-acquisition trace is the paper's Fig. 2, with
//!   environmental-drift tracking,
//! * [`eye`] — eye-diagram accumulation and ASCII rendering,
//! * [`ber`] — analytic BER bathtubs and timing margins,
//! * [`prbs`] — LFSR PRBS stimulus (ITU-T O.150),
//! * [`power`] — energy-per-bit accounting vs a repeated full-swing wire,
//! * [`dll_bist`] — the stand-alone DLL phase-spacing BIST the paper
//!   defers to its refs \[11\], \[12\],
//! * [`netlists`] — the design's structural netlists (fault universe),
//! * [`config`] — the link design point,
//! * [`farm`] — fabric-scale sweep grids with crosstalk-coupled lanes,
//!   run as sharded [`rt::exec`] jobs.
//!
//! [`LowSwingLink`] wires the transmitter to the differential channel for
//! waveform-level studies (eye diagrams, equalization ablation); the
//! synchronizer runs in the phase domain on top of the measured eye.
//!
//! # Examples
//!
//! ```
//! use link::{config::LinkConfig, LowSwingLink};
//! use rt::rng::Rng;
//!
//! let mut link = LowSwingLink::new(LinkConfig::paper())?;
//! let mut rng = Rng::seed_from_u64(1);
//! let bits: Vec<bool> = (0..256).map(|_| rng.next_bool()).collect();
//! let eye = link.eye(&bits);
//! let (_, opening) = eye.best();
//! assert!(opening.mv() > 10.0, "equalized eye must be open, got {opening}");
//! # Ok::<(), msim::params::ParamsError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ber;
pub mod channel;
pub mod config;
pub mod dll_bist;
pub mod eye;
pub mod farm;
pub mod netlists;
pub mod pd;
pub mod power;
pub mod prbs;
pub mod rx;
pub mod synchronizer;
pub mod tx;

use msim::params::ParamsError;
use msim::signal::Waveform;

use channel::RcLine;
use config::LinkConfig;
use eye::EyeDiagram;
use tx::Transmitter;

/// The assembled transmitter + differential channel.
#[derive(Debug, Clone, PartialEq)]
pub struct LowSwingLink {
    cfg: LinkConfig,
    tx: Transmitter,
    line_p: RcLine,
    line_m: RcLine,
}

impl LowSwingLink {
    /// Builds the link from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] when the configuration violates a design
    /// rule (see [`LinkConfig::validate`]).
    pub fn new(cfg: LinkConfig) -> Result<LowSwingLink, ParamsError> {
        cfg.validate()?;
        let tx = Transmitter::new(cfg.vcm(), cfg.params.swing, cfg.ffe_boost);
        let mk_line = || {
            let mut line = RcLine::new(
                cfg.channel.r_total,
                cfg.channel.c_total,
                cfg.channel.segments,
                cfg.channel.r_term,
            );
            line.set_termination_bias(cfg.vcm());
            line
        };
        let line_p = mk_line();
        let line_m = mk_line();
        Ok(LowSwingLink {
            cfg,
            tx,
            line_p,
            line_m,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Transmits a bit sequence and returns the received *differential*
    /// waveform, `oversample` points per UI.
    pub fn transmit(&mut self, bits: &[bool]) -> Waveform {
        let os = self.cfg.oversample;
        let dt = self.cfg.params.ui() / os as f64;
        let mut wave = Waveform::new(dt);
        for &bit in bits {
            let (vp, vm) = self.tx.drive_differential(bit);
            for _ in 0..os {
                let op = self.line_p.step(vp, dt);
                let om = self.line_m.step(vm, dt);
                wave.push(op - om);
            }
        }
        wave
    }

    /// Transmits `bits` and folds the received waveform into an eye
    /// diagram (latency-aligned automatically).
    pub fn eye(&mut self, bits: &[bool]) -> EyeDiagram {
        let wave = self.transmit(bits);
        EyeDiagram::from_waveform(&wave, bits, self.cfg.oversample, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt::rng::Rng;

    fn prbs(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.next_bool()).collect()
    }

    #[test]
    fn equalized_eye_is_open() {
        let mut link = LowSwingLink::new(LinkConfig::paper()).unwrap();
        let eye = link.eye(&prbs(512, 3));
        let (_, opening) = eye.best();
        assert!(opening.mv() > 10.0, "equalized eye closed: {opening}");
    }

    #[test]
    fn unequalized_eye_is_much_worse() {
        // The ablation motivating the FFE: same channel, boost off.
        let mut cfg = LinkConfig::paper();
        cfg.ffe_boost = 0.0;
        let mut plain = LowSwingLink::new(cfg).unwrap();
        let plain_eye = plain.eye(&prbs(512, 3));

        let mut eq = LowSwingLink::new(LinkConfig::paper()).unwrap();
        let eq_eye = eq.eye(&prbs(512, 3));

        let (_, plain_open) = plain_eye.best();
        let (_, eq_open) = eq_eye.best();
        assert!(
            eq_open.value() > plain_open.value() + 0.005,
            "FFE must widen the eye: eq {eq_open} vs plain {plain_open}"
        );
    }

    #[test]
    fn dc_differential_matches_divider() {
        // A long run of one bit settles the line: the full differential
        // swing of 60 mV through the 0.5 line/termination divider, 30 mV.
        let mut link = LowSwingLink::new(LinkConfig::paper()).unwrap();
        let settled = |wave: Waveform| wave.samples().last().copied().unwrap();
        let one = settled(link.transmit(&[true; 200]));
        assert!((one.mv() - 30.0).abs() < 1.0, "got {one}");
        let zero = settled(link.transmit(&[false; 200]));
        assert!((zero.mv() + 30.0).abs() < 1.0, "got {zero}");
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = LinkConfig::paper();
        cfg.oversample = 0;
        assert!(LowSwingLink::new(cfg).is_err());
    }

    #[test]
    fn transmit_length_matches_bits_times_oversample() {
        let mut link = LowSwingLink::new(LinkConfig::paper()).unwrap();
        let wave = link.transmit(&prbs(32, 5));
        assert_eq!(wave.len(), 32 * 16);
    }
}
