//! Scan chain B as one stitched gate-level circuit.
//!
//! The paper's clock-control-path chain runs from the window-comparator
//! capture flip-flops through the charge-pump control and FSM to the UP/DN
//! ring counter and the lock detector. [`ChainB`] builds that whole path
//! as a single `dsim` circuit — capture FFs, correction FSM, one-hot ring
//! counter and saturating lock detector wired together — so the paper's
//! scan procedures run at gate level:
//!
//! * **preload & count** — scan a one-hot image into the ring counter,
//!   pulse a correction, read the rotated image back (§II.B),
//! * **all-zero image** — no phase selected, state must persist (§II.B),
//! * **chain continuity** (shared with the switch-matrix test),
//! * full **stuck-at** and **transition** coverage of the composite.
//!
//! # Examples
//!
//! ```
//! use dft::chain_b::ChainB;
//!
//! let chain = ChainB::new(10);
//! // Capture FFs (2) + FSM state (1) + ring (10) + lock detector (3).
//! assert_eq!(chain.circuit().dff_count(), 16);
//! assert!(chain.run_preload_and_count_test());
//! ```

use dsim::circuit::{Circuit, GateKind, NetId, SimState};
use dsim::logic::Logic;
use dsim::scan::chain_continuity;

/// The stitched clock-control scan chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainB {
    circuit: Circuit,
    above_in: NetId,
    below_in: NetId,
    lock_reset: NetId,
    upst: NetId,
    dnst: NetId,
    ring_q: Vec<NetId>,
    lock_q: Vec<NetId>,
    phases: usize,
}

impl ChainB {
    /// Builds the chain for an `n`-phase ring counter.
    ///
    /// Flip-flop (scan) order matches the paper: capture-H, capture-L,
    /// FSM state, ring counter bits, lock-detector bits.
    ///
    /// # Panics
    ///
    /// Panics if `phases < 2`.
    pub fn new(phases: usize) -> ChainB {
        assert!(phases >= 2, "ring counter needs at least two stages");
        let mut c = Circuit::new("scan-chain-b");
        // Analog-side inputs: the window comparator's raw outputs.
        let above_in = c.input("win_above");
        let below_in = c.input("win_below");
        let lock_reset = c.input("lock_reset");

        // Capture flip-flops (the two FFs Table II adds).
        let above = c.net("above_q");
        let below = c.net("below_q");
        c.dff(above_in, above);
        c.dff(below_in, below);

        // Control FSM (same logic as dsim::blocks::fsm, stitched inline).
        let armed = c.net("armed");
        let req = c.net("req");
        c.gate(GateKind::Or, &[above, below], req);
        let not_armed = c.net("not_armed");
        c.gate(GateKind::Not, &[armed], not_armed);
        let fire = c.net("fire");
        c.gate(GateKind::And, &[req, not_armed], fire);
        let upst = c.net("upst");
        c.gate(GateKind::And, &[fire, below], upst);
        let dnst = c.net("dnst");
        c.gate(GateKind::And, &[fire, above], dnst);
        c.dff(req, armed);
        c.output(upst);
        c.output(dnst);

        // Ring counter: enabled by `fire`, direction = `above`.
        let ring_q: Vec<NetId> = (0..phases).map(|i| c.net(format!("ring_q{i}"))).collect();
        for (i, &qi) in ring_q.iter().enumerate() {
            let prev = ring_q[(i + phases - 1) % phases];
            let next = ring_q[(i + 1) % phases];
            let rotated = c.net(format!("ring_rot{i}"));
            c.gate(GateKind::Mux, &[above, next, prev], rotated);
            let d = c.net(format!("ring_d{i}"));
            c.gate(GateKind::Mux, &[fire, qi, rotated], d);
            c.dff(d, qi);
            c.output(qi);
        }

        // Lock detector: 3-bit saturating counter counting `fire` pulses.
        let lock_q: Vec<NetId> = (0..3).map(|i| c.net(format!("lock_q{i}"))).collect();
        let saturated = c.net("lock_sat");
        c.gate(GateKind::And, &lock_q, saturated);
        let not_sat = c.net("lock_not_sat");
        c.gate(GateKind::Not, &[saturated], not_sat);
        let inc = c.net("lock_inc");
        c.gate(GateKind::And, &[fire, not_sat], inc);
        let not_reset = c.net("lock_not_reset");
        c.gate(GateKind::Not, &[lock_reset], not_reset);
        let mut carry = inc;
        for (i, &qi) in lock_q.iter().enumerate() {
            let sum = c.net(format!("lock_sum{i}"));
            c.gate(GateKind::Xor, &[qi, carry], sum);
            let d = c.net(format!("lock_d{i}"));
            c.gate(GateKind::And, &[sum, not_reset], d);
            if i + 1 < 3 {
                let cout = c.net(format!("lock_c{i}"));
                c.gate(GateKind::And, &[qi, carry], cout);
                carry = cout;
            }
            c.dff(d, qi);
            c.output(qi);
        }
        c.output(saturated);

        ChainB {
            circuit: c,
            above_in,
            below_in,
            lock_reset,
            upst,
            dnst,
            ring_q,
            lock_q,
            phases,
        }
    }

    /// The stitched circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Phase count of the ring counter.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// Builds the scan-load image: capture FFs, FSM state, ring one-hot
    /// (or all-zero), lock counter value.
    fn image(&self, hot: Option<usize>, lock_value: u8) -> Vec<Logic> {
        let mut img = vec![Logic::Zero; 3]; // captures + armed
        for i in 0..self.phases {
            img.push(Logic::from_bool(hot == Some(i)));
        }
        for bit in 0..3 {
            img.push(Logic::from_bool(lock_value >> bit & 1 == 1));
        }
        img
    }

    fn drive(&self, s: &mut SimState, above: bool, below: bool) {
        s.set_input(&self.circuit, self.above_in, Logic::from_bool(above));
        s.set_input(&self.circuit, self.below_in, Logic::from_bool(below));
        s.set_input(&self.circuit, self.lock_reset, Logic::Zero);
    }

    fn ring_hot(&self, s: &SimState) -> Option<usize> {
        let ones: Vec<usize> = self
            .ring_q
            .iter()
            .enumerate()
            .filter(|(_, &q)| s.net(q) == Logic::One)
            .map(|(i, _)| i)
            .collect();
        if ones.len() == 1 {
            Some(ones[0])
        } else {
            None
        }
    }

    fn lock_count(&self, s: &SimState) -> u8 {
        self.lock_q
            .iter()
            .enumerate()
            .map(|(i, &q)| u8::from(s.net(q) == Logic::One) << i)
            .sum()
    }

    /// The paper's §II.B ring-counter procedure: preload one-hot via scan,
    /// de-assert scan enable, clock with the window comparator reporting
    /// out-of-window (in both directions), re-enable scan and verify the
    /// rotated image and the lock-detector count. Returns `true` on pass.
    pub fn run_preload_and_count_test(&self) -> bool {
        let mut s = SimState::for_circuit(&self.circuit);
        // Preload hot at 3, lock counter cleared (scan load).
        s.load_ffs(&self.image(Some(3), 0));
        // Above-window: capture cycle brings `above` into the FSM, the
        // next cycle fires the correction.
        self.drive(&mut s, true, false);
        self.circuit.tick(&mut s); // captures above=1
        self.circuit.tick(&mut s); // fire: ring rotates up, lock counts
        if self.ring_hot(&s) != Some(4) || self.lock_count(&s) != 1 {
            return false;
        }
        // Re-arm inside the window.
        self.drive(&mut s, false, false);
        self.circuit.tick(&mut s);
        self.circuit.tick(&mut s);
        // Below-window: rotate back down.
        self.drive(&mut s, false, true);
        self.circuit.tick(&mut s);
        self.circuit.tick(&mut s);
        self.ring_hot(&s) == Some(3) && self.lock_count(&s) == 2
    }

    /// The paper's all-zero image check: with no phase selected the state
    /// must persist (nothing self-activates). Returns `true` on pass.
    pub fn run_all_zero_test(&self) -> bool {
        let mut s = SimState::for_circuit(&self.circuit);
        s.load_ffs(&self.image(None, 0));
        self.drive(&mut s, true, false);
        for _ in 0..8 {
            self.circuit.tick(&mut s);
        }
        // The ring stays all-zero; only the lock detector counted the
        // (single, FSM-limited) correction request.
        self.ring_q.iter().all(|&q| s.net(q) == Logic::Zero) && self.lock_count(&s) <= 1
    }

    /// Chain continuity (flush pattern through all 16 flip-flops).
    pub fn run_continuity_test(&self) -> bool {
        let mut s = SimState::for_circuit(&self.circuit);
        s.load_ffs(&vec![Logic::Zero; self.circuit.dff_count()]);
        chain_continuity(&self.circuit, &mut s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::atpg::random_vectors;
    use dsim::stuck_at::scan_coverage;
    use dsim::transition::{transition_coverage, two_pattern_tests};

    #[test]
    fn composite_structure() {
        let chain = ChainB::new(10);
        assert_eq!(chain.circuit().dff_count(), 2 + 1 + 10 + 3);
        assert_eq!(chain.phases(), 10);
    }

    #[test]
    fn paper_procedures_pass_on_healthy_logic() {
        let chain = ChainB::new(10);
        assert!(chain.run_preload_and_count_test());
        assert!(chain.run_all_zero_test());
        assert!(chain.run_continuity_test());
    }

    #[test]
    fn pulses_follow_the_window_decision() {
        let chain = ChainB::new(10);
        let mut s = SimState::for_circuit(chain.circuit());
        s.load_ffs(&chain.image(Some(0), 0));
        chain.drive(&mut s, true, false);
        chain.circuit().tick(&mut s); // capture
        chain.circuit().eval(&mut s);
        let upst = s.net(chain.upst) == Logic::One;
        let dnst = s.net(chain.dnst) == Logic::One;
        assert!(dnst && !upst, "above VH must pulse DNst");
    }

    #[test]
    fn lock_detector_saturates_in_composite() {
        let chain = ChainB::new(10);
        let mut s = SimState::for_circuit(chain.circuit());
        s.load_ffs(&chain.image(Some(0), 0));
        // Alternate outside/inside so the FSM re-arms: 12 corrections.
        for _ in 0..12 {
            chain.drive(&mut s, true, false);
            chain.circuit().tick(&mut s);
            chain.circuit().tick(&mut s);
            chain.drive(&mut s, false, false);
            chain.circuit().tick(&mut s);
            chain.circuit().tick(&mut s);
        }
        assert_eq!(chain.lock_count(&s), 7, "3-bit counter must saturate");
        // One-hotness survived 12 rotations.
        assert!(chain.ring_hot(&s).is_some());
    }

    #[test]
    fn composite_reaches_full_stuck_at_coverage() {
        // The whole clock-control chain, tested as the paper tests it:
        // standard scan patterns, 100 % stuck-at.
        let chain = ChainB::new(4); // smaller ring keeps the sim quick
        let vectors = random_vectors(chain.circuit(), 256, 29);
        let cov = scan_coverage(chain.circuit(), &vectors);
        assert!(
            (cov.coverage() - 1.0).abs() < 1e-12,
            "undetected: {:?}",
            cov.undetected()
        );
    }

    #[test]
    fn composite_reaches_full_testable_transition_coverage() {
        // The paper: the coarse path runs at the divided clock, so its
        // delay faults are covered too. One fault in the composite is
        // launch-on-capture *untestable*: slow-to-fall on the lock
        // detector's `not_sat` net would need the FSM to fire on two
        // consecutive cycles, which its pulse limiter forbids by
        // construction — a functionally-redundant delay fault. Everything
        // testable is covered.
        let chain = ChainB::new(4);
        // Mixed-weight pattern set: the saturating counter's corner
        // transitions need nearly-all-ones loads that balanced random
        // vectors rarely produce.
        let mut vectors = random_vectors(chain.circuit(), 512, 31);
        vectors.extend(dsim::atpg::weighted_vectors(chain.circuit(), 256, 33, 0.85));
        vectors.extend(dsim::atpg::weighted_vectors(chain.circuit(), 256, 35, 0.15));
        let cov = transition_coverage(chain.circuit(), &two_pattern_tests(&vectors));
        let undetected = cov.undetected();
        assert!(
            undetected.len() <= 1,
            "more than the known-redundant fault escaped: {undetected:?}"
        );
        if let Some(f) = undetected.first() {
            assert_eq!(chain.circuit().net_name(f.net), "lock_not_sat");
            assert!(!f.slow_to_rise, "only the falling edge is untestable");
        }
    }
}
