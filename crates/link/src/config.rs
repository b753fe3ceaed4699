//! Link-level configuration.
//!
//! Bundles the paper's design point ([`DesignParams`]) with the channel,
//! equalizer and timing quantities the waveform- and phase-domain
//! simulations need. Defaults follow the paper where it is explicit
//! (2.5 Gbps, 60 mV swing, 10-phase DLL, 100 MHz scan clock) and use
//! RC-dominated 130 nm-class line values where it is not.
//!
//! # Examples
//!
//! ```
//! use link::config::LinkConfig;
//!
//! let cfg = LinkConfig::paper();
//! cfg.validate().unwrap();
//! assert_eq!(cfg.params.dll_phases, 10);
//! assert_eq!(cfg.oversample, 16);
//! ```

use msim::params::{DesignParams, ParamsError};
use msim::units::{Farad, Ohm, Volt};

/// Channel (interconnect) electrical parameters, per arm.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Total series resistance of the wire.
    pub r_total: Ohm,
    /// Total shunt capacitance of the wire.
    pub c_total: Farad,
    /// Number of lumped L-segments (`r_seg` then `c_seg`) in the model.
    pub segments: usize,
    /// Receiver termination resistance.
    pub r_term: Ohm,
}

impl ChannelConfig {
    /// An RC-dominated long on-chip wire in a 130 nm-class process
    /// (≈ 10 mm of minimum-pitch metal): 2 kΩ, 1 pF, matched termination.
    pub fn long_wire() -> ChannelConfig {
        ChannelConfig {
            r_total: Ohm::from_kohm(2.0),
            c_total: Farad::from_pf(1.0),
            segments: 10,
            r_term: Ohm::from_kohm(2.0),
        }
    }
}

/// Full link configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// The mixed-signal design point.
    pub params: DesignParams,
    /// The interconnect.
    pub channel: ChannelConfig,
    /// Feed-forward equalizer boost: the transition tap weight relative to
    /// the main tap (`αCs`-to-`Cs` coupling strength). 0 disables the FFE.
    pub ffe_boost: f64,
    /// Simulation samples per UI.
    pub oversample: usize,
    /// Position of the data-eye center at the receiver, in UI, as the
    /// clock synchronizer must find it (channel group delay modulo 1 UI).
    pub eye_center_ui: f64,
    /// Half-width of the healthy data eye at the sampler, in UI.
    pub eye_half_width_ui: f64,
    /// RMS sampling jitter of the healthy clock path, in UI.
    pub jitter_rms_ui: f64,
}

impl LinkConfig {
    /// The paper's design point with the default long-wire channel.
    pub fn paper() -> LinkConfig {
        LinkConfig {
            params: DesignParams::paper(),
            channel: ChannelConfig::long_wire(),
            ffe_boost: 2.0,
            oversample: 16,
            eye_center_ui: 0.37,
            eye_half_width_ui: 0.30,
            jitter_rms_ui: 0.045,
        }
    }

    /// The receiver common-mode (termination bias) voltage.
    pub fn vcm(&self) -> Volt {
        self.params.vmid
    }

    /// Checks link-level design rules on top of
    /// [`DesignParams::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] for design-point violations; channel and
    /// timing fields are asserted-on directly by the constructors that
    /// consume them.
    pub fn validate(&self) -> Result<(), ParamsError> {
        self.params.validate()?;
        if self.oversample < 2
            || !(0.0..1.0).contains(&self.eye_center_ui)
            || self.eye_half_width_ui <= 0.0
            || self.jitter_rms_ui < 0.0
            || self.ffe_boost < 0.0
        {
            return Err(ParamsError::NonPositive("link timing/equalizer"));
        }
        Ok(())
    }
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        LinkConfig::paper().validate().unwrap();
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(LinkConfig::default(), LinkConfig::paper());
    }

    #[test]
    fn bad_timing_rejected() {
        let mut c = LinkConfig::paper();
        c.eye_center_ui = 1.5;
        assert!(c.validate().is_err());
        let mut c = LinkConfig::paper();
        c.oversample = 1;
        assert!(c.validate().is_err());
        let mut c = LinkConfig::paper();
        c.ffe_boost = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn vcm_is_vmid() {
        let c = LinkConfig::paper();
        assert_eq!(c.vcm(), c.params.vmid);
    }
}
