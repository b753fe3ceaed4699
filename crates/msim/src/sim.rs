//! Multi-channel trace recorder.
//!
//! The link-level simulations (lock acquisition, eye accumulation, BIST)
//! advance in fixed time steps. [`Trace`] records named waveforms sharing
//! one time axis and renders them as CSV for the figure-regeneration
//! binaries (e.g. Fig. 2 of the paper: `Vc`, `VL`, `VH` and the selected
//! DLL phase versus time).
//!
//! # Examples
//!
//! ```
//! use msim::sim::Trace;
//! use msim::units::{Sec, Volt};
//!
//! let mut trace = Trace::new(Sec::from_ps(400.0));
//! for _ in 0..4 {
//!     trace.record("vc", Volt(0.6));
//! }
//! assert_eq!(trace.channel("vc").unwrap().len(), 4);
//! ```

use std::collections::BTreeMap;

use crate::signal::Waveform;
use crate::units::{Sec, Volt};

/// A set of named waveforms sharing one time axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    dt: Sec,
    channels: BTreeMap<String, Waveform>,
}

impl Trace {
    /// Creates an empty trace with the given sample interval.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn new(dt: Sec) -> Trace {
        assert!(dt.value() > 0.0, "trace sample interval must be positive");
        Trace {
            dt,
            channels: BTreeMap::new(),
        }
    }

    /// Appends a sample to channel `name`, creating the channel on first
    /// use.
    pub fn record(&mut self, name: &str, v: Volt) {
        self.channels
            .entry(name.to_owned())
            .or_insert_with(|| Waveform::new(self.dt))
            .push(v);
    }

    /// The waveform of channel `name`, if recorded.
    pub fn channel(&self, name: &str) -> Option<&Waveform> {
        self.channels.get(name)
    }

    /// Channel names in sorted order.
    pub fn channel_names(&self) -> Vec<&str> {
        self.channels.keys().map(String::as_str).collect()
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether no channels have been recorded.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Renders all channels as CSV with a header row
    /// (`time_s,<name>,<name>,…`). Channels shorter than the longest one
    /// are padded with empty cells.
    pub fn to_csv(&self) -> String {
        let names = self.channel_names();
        let rows = self.channels.values().map(Waveform::len).max().unwrap_or(0);
        let mut out = String::new();
        out.push_str("time_s");
        for n in &names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        for i in 0..rows {
            out.push_str(&format!("{:.6e}", self.dt.value() * i as f64));
            for n in &names {
                out.push(',');
                if let Some(v) = self.channels[*n].get(i) {
                    out.push_str(&format!("{:.6e}", v.value()));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_channels() {
        let mut t = Trace::new(Sec::from_ps(400.0));
        assert!(t.is_empty());
        t.record("vc", Volt(0.5));
        t.record("vc", Volt(0.6));
        t.record("vp", Volt(0.6));
        assert_eq!(t.len(), 2);
        assert_eq!(t.channel("vc").unwrap().len(), 2);
        assert_eq!(t.channel("vp").unwrap().len(), 1);
        assert!(t.channel("missing").is_none());
        assert_eq!(t.channel_names(), vec!["vc", "vp"]);
    }

    #[test]
    fn csv_has_header_and_padding() {
        let mut t = Trace::new(Sec::from_ps(400.0));
        t.record("a", Volt(0.1));
        t.record("a", Volt(0.2));
        t.record("b", Volt(0.9));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,a,b");
        assert_eq!(lines.len(), 3);
        // Second data row: channel b exhausted, padded with empty cell.
        assert!(lines[2].ends_with(','));
    }

    #[test]
    fn empty_trace_csv_is_header_only() {
        let t = Trace::new(Sec::from_ps(1.0));
        assert_eq!(t.to_csv(), "time_s\n");
    }
}
