//! The multi-phase DLL reference of the coarse loop.
//!
//! The paper uses a 10-phase DLL; the coarse loop's ring counter selects one
//! phase through the switch matrix. Per the paper the DLL itself is treated
//! as a separately tested stand-alone unit (its dedicated BIST is cited to
//! prior work), so this model provides locked, evenly spaced phases and a
//! phase-selection interface — the piece the interconnect test interacts
//! with.
//!
//! # Examples
//!
//! ```
//! use msim::blocks::dll::Dll;
//!
//! let dll = Dll::new(10);
//! assert_eq!(dll.phase_count(), 10);
//! // Phase 3 of 10 sits at 0.3 UI.
//! assert!((dll.phase_ui(3) - 0.3).abs() < 1e-12);
//! ```

/// A locked multi-phase DLL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dll {
    phases: usize,
}

impl Dll {
    /// Creates a DLL with `phases` evenly spaced output phases across one
    /// clock period.
    ///
    /// # Panics
    ///
    /// Panics if `phases < 2`.
    pub fn new(phases: usize) -> Dll {
        assert!(phases >= 2, "a DLL needs at least two phases");
        Dll { phases }
    }

    /// Number of output phases.
    pub fn phase_count(&self) -> usize {
        self.phases
    }

    /// Phase position of output `index` in UI.
    ///
    /// # Panics
    ///
    /// Panics if `index >= phase_count()`.
    pub fn phase_ui(&self, index: usize) -> f64 {
        assert!(index < self.phases, "phase index out of range");
        index as f64 / self.phases as f64
    }

    /// The next phase index in the given direction, wrapping around.
    pub fn next_phase(&self, index: usize, up: bool) -> usize {
        if up {
            (index + 1) % self.phases
        } else {
            (index + self.phases - 1) % self.phases
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_spacing() {
        let dll = Dll::new(10);
        for i in 0..10 {
            assert!((dll.phase_ui(i) - i as f64 * 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn wrap_around_selection() {
        let dll = Dll::new(10);
        assert_eq!(dll.next_phase(9, true), 0);
        assert_eq!(dll.next_phase(0, false), 9);
        assert_eq!(dll.next_phase(4, true), 5);
        assert_eq!(dll.next_phase(4, false), 3);
    }

    #[test]
    #[should_panic(expected = "at least two phases")]
    fn single_phase_panics() {
        let _ = Dll::new(1);
    }

    #[test]
    #[should_panic(expected = "phase index out of range")]
    fn out_of_range_phase_panics() {
        let _ = Dll::new(4).phase_ui(4);
    }
}
