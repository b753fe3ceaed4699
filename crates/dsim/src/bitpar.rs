//! Bit-parallel (word-packed) three-valued simulation — the PPSFP kernel.
//!
//! Classic parallel-pattern single-fault propagation (PPSFP): a block of
//! up to [`LANES`] = 64 test patterns is packed into one `u64` word per
//! net, so a single gate-level walk evaluates the whole block at once.
//! Three-valued logic uses a **two-plane encoding**: every packed value is
//! a pair of planes, `val` and `known`, where lane *i* (bit *i*) holds
//! pattern *i*:
//!
//! | lane state | `known` bit | `val` bit |
//! |------------|-------------|-----------|
//! | `0`        | 1           | 0         |
//! | `1`        | 1           | 1         |
//! | `X`        | 0           | 0         |
//!
//! The canonical invariant `val & !known == 0` (an `X` lane carries
//! `val = 0`) makes equality of packed words coincide with lane-wise
//! [`Logic`] equality, so the scalar simulator in [`crate::circuit`] and
//! this module agree *bit-exactly* — a property the `conform` crate's
//! packed-vs-scalar differential oracle and the `tests/packed_equivalence`
//! suite enforce.
//!
//! Like the scalar evaluator, [`eval`] is one levelized **event-driven**
//! pass over the circuit's cached topological order, re-evaluating only
//! gates whose fan-in changed; it accepts exactly the circuits
//! [`Circuit::check`] passes.
//!
//! On top of the packed evaluator sit the packed scan protocol
//! ([`apply_vectors`]) and [`ppsfp_detect`], the single-threaded PPSFP
//! stuck-at fault-simulation kernel with fault dropping: once a fault is
//! detected by any 64-pattern block it is never simulated again.
//! Parallelism across faults belongs to the caller —
//! `dft::campaign::NetlistCampaign` runs fault sub-ranges as `rt::exec`
//! shards.
//!
//! # Examples
//!
//! ```
//! use dsim::atpg::random_vectors;
//! use dsim::bitpar;
//! use dsim::blocks::ring_counter::RingCounter;
//! use dsim::stuck_at::enumerate_faults;
//!
//! let rc = RingCounter::new(4);
//! let vectors = random_vectors(rc.circuit(), 64, 7);
//! let faults = enumerate_faults(rc.circuit());
//! let detected = bitpar::ppsfp_detect(rc.circuit(), &vectors, &faults);
//! assert!(detected.iter().all(|&d| d), "ring counter reaches 100 %");
//! ```

use crate::circuit::{Circuit, Gate, GateKind, NetId};
use crate::logic::Logic;
use crate::scan::{ScanResponse, ScanVector};
use crate::stuck_at::StuckAtFault;

/// Patterns per packed `u64` word.
pub const LANES: usize = 64;

/// A mask selecting the first `lanes` lanes (all lanes for `lanes >= 64`).
pub fn lane_mask(lanes: usize) -> u64 {
    if lanes >= LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// [`LANES`] three-valued logic lanes in the two-plane encoding.
///
/// Invariant (maintained by every constructor and operator): an unknown
/// lane carries `val = 0`, i.e. `val & !known == 0`. Derived equality is
/// therefore lane-wise [`Logic`] equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packed {
    val: u64,
    known: u64,
}

impl Default for Packed {
    fn default() -> Packed {
        Packed::X
    }
}

impl Packed {
    /// All lanes `X`.
    pub const X: Packed = Packed { val: 0, known: 0 };

    /// Broadcasts one scalar value to all lanes.
    pub fn splat(v: Logic) -> Packed {
        match v {
            Logic::Zero => Packed {
                val: 0,
                known: u64::MAX,
            },
            Logic::One => Packed {
                val: u64::MAX,
                known: u64::MAX,
            },
            Logic::X => Packed::X,
        }
    }

    /// Packs up to [`LANES`] scalar values into lanes `0..n`; remaining
    /// lanes are `X`.
    fn pack_lanes(lanes: impl Iterator<Item = Logic>) -> Packed {
        let mut val = 0;
        let mut known = 0;
        for (i, l) in lanes.enumerate() {
            match l {
                Logic::Zero => known |= 1 << i,
                Logic::One => {
                    known |= 1 << i;
                    val |= 1 << i;
                }
                Logic::X => {}
            }
        }
        Packed { val, known }
    }

    /// The scalar value in lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    pub fn lane(self, i: usize) -> Logic {
        assert!(i < LANES, "lane {i} out of range");
        if (self.known >> i) & 1 == 1 {
            Logic::from_bool((self.val >> i) & 1 == 1)
        } else {
            Logic::X
        }
    }

    /// The `val` plane (canonical: `0` in unknown lanes).
    pub fn val_mask(self) -> u64 {
        self.val
    }

    /// The `known` plane (`1` = lane holds a known `0`/`1`).
    pub fn known_mask(self) -> u64 {
        self.known
    }

    /// Lanes observed at a known `0`.
    pub fn zero_mask(self) -> u64 {
        self.known & !self.val
    }

    /// Lanes observed at a known `1` (alias of [`Self::val_mask`] under the
    /// canonical invariant).
    pub fn one_mask(self) -> u64 {
        self.val
    }

    /// Lane-wise [`Logic::not`].
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Packed {
        Packed {
            val: !self.val & self.known,
            known: self.known,
        }
    }

    /// Lane-wise [`Logic::and`]: a controlling `0` forces `0` even against
    /// `X`.
    pub fn and(self, rhs: Packed) -> Packed {
        Packed {
            val: self.val & rhs.val,
            known: (self.known & rhs.known) | self.zero_mask() | rhs.zero_mask(),
        }
    }

    /// Lane-wise [`Logic::or`]: a controlling `1` forces `1` even against
    /// `X`.
    pub fn or(self, rhs: Packed) -> Packed {
        Packed {
            val: self.val | rhs.val,
            known: (self.known & rhs.known) | self.val | rhs.val,
        }
    }

    /// Lane-wise [`Logic::xor`]: any `X` input makes the lane `X`.
    pub fn xor(self, rhs: Packed) -> Packed {
        let known = self.known & rhs.known;
        Packed {
            val: (self.val ^ rhs.val) & known,
            known,
        }
    }

    /// Lane-wise [`Logic::mux`]: known select picks an input; an `X` select
    /// still resolves when both inputs agree at a known value.
    pub fn mux(sel: Packed, lo: Packed, hi: Packed) -> Packed {
        let pick_hi = sel.known & sel.val;
        let pick_lo = sel.known & !sel.val;
        let agree = !sel.known & lo.known & hi.known & !(lo.val ^ hi.val);
        let known = (pick_hi & hi.known) | (pick_lo & lo.known) | agree;
        Packed {
            val: ((pick_hi & hi.val) | (pick_lo & lo.val) | (agree & lo.val)) & known,
            known,
        }
    }
}

impl std::ops::Not for Packed {
    type Output = Packed;

    fn not(self) -> Packed {
        Packed::not(self)
    }
}

/// Packed simulation state: the word-parallel twin of
/// [`crate::circuit::SimState`], with the same stuck-at overlay semantics
/// (the fault value is broadcast to every lane — *single* fault, parallel
/// *patterns*).
///
/// Equality compares only the observable state (net words, flip-flop words
/// and the fault overlay) — the event-scheduling scratch is excluded.
#[derive(Debug, Clone)]
pub struct PackedState {
    nets: Vec<Packed>,
    ff: Vec<Packed>,
    fault: Option<(NetId, Logic)>,
    /// Nets written from outside [`eval`] since the last eval; their
    /// fanout cones (and drivers) are re-evaluated unconditionally.
    touched: Vec<NetId>,
    /// Per-net "value moved this eval" scratch.
    changed: Vec<bool>,
    /// Per-gate "must re-evaluate" scratch.
    pending: Vec<bool>,
}

impl PartialEq for PackedState {
    fn eq(&self, other: &PackedState) -> bool {
        // Scheduling scratch is derived state and never participates.
        self.nets == other.nets && self.ff == other.ff && self.fault == other.fault
    }
}

impl Eq for PackedState {}

impl PackedState {
    /// Creates an all-`X` state sized for `circuit`.
    pub fn for_circuit(circuit: &Circuit) -> PackedState {
        PackedState {
            nets: vec![Packed::X; circuit.net_count()],
            ff: vec![Packed::X; circuit.dff_count()],
            fault: None,
            touched: Vec::new(),
            changed: vec![false; circuit.net_count()],
            pending: vec![false; circuit.gate_count()],
        }
    }

    /// Returns the state to what [`PackedState::for_circuit`] builds —
    /// all-`X`, no fault, nothing touched — keeping its allocations. The
    /// `changed`/`pending` scratch needs no reset: [`eval`] clears it on
    /// entry.
    fn reset(&mut self) {
        self.nets.fill(Packed::X);
        self.ff.fill(Packed::X);
        self.fault = None;
        self.touched.clear();
    }

    /// Injects a stuck-at fault on `net`, pinning every lane; it overrides
    /// every subsequent write of that net.
    pub fn inject(&mut self, net: NetId, value: Logic) {
        if let Some((old, _)) = self.fault {
            // A superseded pin site must be re-derived from its driver.
            self.touched.push(old);
        }
        self.fault = Some((net, value));
        self.nets[net.0] = Packed::splat(value);
        self.touched.push(net);
    }

    /// Removes any injected fault.
    ///
    /// The previously pinned net keeps its pinned word until the next eval
    /// re-derives it from its driver (or, for a primary input, until the
    /// next [`PackedState::set_input`]) — the same semantics as
    /// [`crate::circuit::SimState::clear_fault`].
    pub fn clear_fault(&mut self) {
        if let Some((n, _)) = self.fault {
            self.touched.push(n);
        }
        self.fault = None;
    }

    fn write(&mut self, net: NetId, v: Packed) {
        self.nets[net.0] = match self.fault {
            Some((f, fv)) if f == net => Packed::splat(fv),
            _ => v,
        };
    }

    /// A write from outside [`eval`]: applies the fault overlay and marks
    /// the net for unconditional re-scheduling at the next eval.
    fn write_external(&mut self, net: NetId, v: Packed) {
        self.write(net, v);
        self.touched.push(net);
    }

    /// Sets a primary input word.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input of `circuit`.
    pub fn set_input(&mut self, circuit: &Circuit, net: NetId, v: Packed) {
        assert!(
            circuit.inputs().contains(&net),
            "{net} is not a primary input"
        );
        self.write_external(net, v);
    }

    /// Current packed value of a net.
    pub fn net(&self, net: NetId) -> Packed {
        self.nets[net.0]
    }

    /// Current flip-flop contents in scan-chain order.
    pub fn ff_values(&self) -> &[Packed] {
        &self.ff
    }

    /// Overwrites the flip-flop contents (packed scan load).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the flip-flop count.
    pub fn load_ffs(&mut self, values: &[Packed]) {
        assert_eq!(values.len(), self.ff.len(), "scan load length mismatch");
        self.ff.copy_from_slice(values);
    }

    /// Packed output values in declaration order.
    pub fn read_outputs(&self, circuit: &Circuit) -> Vec<Packed> {
        circuit.outputs().iter().map(|&n| self.net(n)).collect()
    }
}

/// Evaluates one gate on the current state without allocating — the packed
/// counterpart of the scalar per-gate evaluation.
fn eval_gate(g: &Gate, nets: &[Packed]) -> Packed {
    let at = |n: NetId| nets[n.0];
    let ins = g.inputs();
    match g.kind() {
        GateKind::Buf => at(ins[0]),
        GateKind::Not => at(ins[0]).not(),
        GateKind::And => ins
            .iter()
            .fold(Packed::splat(Logic::One), |acc, &n| acc.and(at(n))),
        GateKind::Nand => ins
            .iter()
            .fold(Packed::splat(Logic::One), |acc, &n| acc.and(at(n)))
            .not(),
        GateKind::Or => ins
            .iter()
            .fold(Packed::splat(Logic::Zero), |acc, &n| acc.or(at(n))),
        GateKind::Nor => ins
            .iter()
            .fold(Packed::splat(Logic::Zero), |acc, &n| acc.or(at(n)))
            .not(),
        GateKind::Xor => at(ins[0]).xor(at(ins[1])),
        GateKind::Xnor => at(ins[0]).xor(at(ins[1])).not(),
        GateKind::Mux => Packed::mux(at(ins[0]), at(ins[1]), at(ins[2])),
    }
}

/// Packed twin of [`Circuit::eval`]: drives flip-flop outputs, re-asserts
/// primary inputs through the fault overlay, then propagates to the
/// three-valued fixpoint.
///
/// One levelized event-driven pass over the cached topological order,
/// skipping gates whose fan-in did not change. The fixpoint is unique, so
/// every lane holds exactly the scalar [`Circuit::eval`] value of its
/// pattern.
///
/// # Panics
///
/// Panics unless [`Circuit::check`] passes.
pub fn eval(circuit: &Circuit, state: &mut PackedState) {
    let plan = circuit.eval_plan();
    state.changed.fill(false);
    state.pending.fill(false);
    // Seed: drive FF outputs and re-assert primary inputs through the
    // fault overlay, waking fanouts only where the word actually moved.
    for (i, ff) in circuit.dffs().iter().enumerate() {
        let old = state.nets[ff.q.0];
        let v = state.ff[i];
        state.write(ff.q, v);
        if state.nets[ff.q.0] != old {
            state.changed[ff.q.0] = true;
        }
    }
    for &pi in circuit.inputs() {
        let old = state.nets[pi.0];
        state.write(pi, old);
        if state.nets[pi.0] != old {
            state.changed[pi.0] = true;
        }
    }
    // Nets externally written since the previous eval (inputs, fault
    // injection or removal) wake their cones even when the stored word is
    // already final — removing a fault must re-derive the net from its
    // driver, and injection must override it.
    for &n in &state.touched {
        state.changed[n.0] = true;
        if let Some(d) = plan.driver[n.0] {
            state.pending[d as usize] = true;
        }
    }
    state.touched.clear();
    for (n, &moved) in state.changed.iter().enumerate() {
        if moved {
            for &g in &plan.fanouts[n] {
                state.pending[g as usize] = true;
            }
        }
    }
    let mut skipped = 0u64;
    for &gi in &plan.order {
        if !state.pending[gi as usize] {
            skipped += 1;
            continue;
        }
        let g = &circuit.gates()[gi as usize];
        let v = eval_gate(g, &state.nets);
        let out = g.output().0;
        let old = state.nets[out];
        state.write(g.output(), v);
        if state.nets[out] != old {
            for &c in &plan.fanouts[out] {
                state.pending[c as usize] = true;
            }
        }
    }
    rt::obs::hot_add(rt::obs::Hot::PackedEvalCalls, 1);
    if skipped > 0 {
        rt::obs::hot_add(rt::obs::Hot::PackedEventsSkipped, skipped);
    }
}

/// Packed twin of [`Circuit::tick`]: evaluate, capture every flip-flop's
/// `d` word, propagate the new outputs.
pub fn tick(circuit: &Circuit, state: &mut PackedState) {
    eval(circuit, state);
    let PackedState { nets, ff, .. } = state;
    for (slot, dff) in ff.iter_mut().zip(circuit.dffs()) {
        *slot = nets[dff.d.0];
    }
    eval(circuit, state);
}

/// Transposes up to [`LANES`] scan vectors into packed per-input and
/// per-flip-flop words (lane *i* = vector *i*; unused lanes are `X`).
///
/// # Panics
///
/// Panics if more than [`LANES`] vectors are given or a vector's
/// `pi`/`load` lengths do not match the circuit.
pub fn pack_vectors(circuit: &Circuit, vectors: &[ScanVector]) -> (Vec<Packed>, Vec<Packed>) {
    let block = PackedBlock::pack(circuit, vectors);
    (block.pi, block.load)
}

/// A pre-transposed block of up to [`LANES`] scan vectors: pack once,
/// replay against any number of faults. The PPSFP kernel packs each block
/// a single time and shares it across every live fault's simulation — the
/// transpose is O(vectors × bits) and would otherwise be paid per fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBlock {
    pi: Vec<Packed>,
    load: Vec<Packed>,
    lanes: usize,
}

impl PackedBlock {
    /// Transposes `vectors` (lane *i* = vector *i*; unused lanes `X`).
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] vectors are given or a vector's
    /// `pi`/`load` lengths do not match the circuit.
    pub fn pack(circuit: &Circuit, vectors: &[ScanVector]) -> PackedBlock {
        assert!(
            vectors.len() <= LANES,
            "more than {LANES} vectors per block"
        );
        for v in vectors {
            assert_eq!(v.pi.len(), circuit.inputs().len(), "PI pattern length");
            assert_eq!(v.load.len(), circuit.dff_count(), "scan load length");
        }
        let pack = |field: &dyn Fn(&ScanVector, usize) -> Logic, count: usize| -> Vec<Packed> {
            (0..count)
                .map(|j| Packed::pack_lanes(vectors.iter().map(|v| field(v, j))))
                .collect()
        };
        PackedBlock {
            pi: pack(&|v, j| v.pi[j], circuit.inputs().len()),
            load: pack(&|v, j| v.load[j], circuit.dff_count()),
            lanes: vectors.len(),
        }
    }
}

/// Applies a pre-packed block: loads the chain, applies the primary
/// inputs, strobes the outputs, pulses one functional clock and captures —
/// the replay half of [`apply_vectors`].
pub fn apply_block(
    circuit: &Circuit,
    state: &mut PackedState,
    block: &PackedBlock,
) -> PackedResponse {
    state.load_ffs(&block.load);
    for (&net, &w) in circuit.inputs().iter().zip(&block.pi) {
        state.write_external(net, w);
    }
    eval(circuit, state);
    let po = state.read_outputs(circuit);
    tick(circuit, state);
    PackedResponse {
        po,
        capture: state.ff_values().to_vec(),
        lanes: block.lanes,
    }
}

/// The packed response to a block of scan vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedResponse {
    /// Packed primary-output values after launch.
    pub po: Vec<Packed>,
    /// Packed flip-flop contents captured by the functional clock.
    pub capture: Vec<Packed>,
    /// Number of live lanes (= vectors in the block).
    pub lanes: usize,
}

/// Packed twin of [`crate::scan::apply_vector`]: loads the chain, applies
/// the primary inputs, strobes the outputs, pulses one functional clock and
/// captures — for up to [`LANES`] vectors in one gate-level walk.
///
/// # Panics
///
/// Panics if more than [`LANES`] vectors are given or a vector's lengths
/// do not match the circuit.
pub fn apply_vectors(
    circuit: &Circuit,
    state: &mut PackedState,
    vectors: &[ScanVector],
) -> PackedResponse {
    apply_block(circuit, state, &PackedBlock::pack(circuit, vectors))
}

/// Extracts one lane of a packed response as a scalar [`ScanResponse`].
///
/// # Panics
///
/// Panics if `lane` is not below the response's live lane count.
pub fn response_lane(resp: &PackedResponse, lane: usize) -> ScanResponse {
    assert!(
        lane < resp.lanes,
        "lane {lane} beyond {} vectors",
        resp.lanes
    );
    ScanResponse {
        po: resp.po.iter().map(|w| w.lane(lane)).collect(),
        capture: resp.capture.iter().map(|w| w.lane(lane)).collect(),
    }
}

/// The tester rule for one golden/faulty word pair: lanes where the golden
/// value is known and the faulty value is different or unknown. This is
/// the word-parallel form of `stuck_at::differs` — an `X` in the *golden*
/// response cannot be compared, while a faulty `X` against a known golden
/// value can.
fn detect_word(g: Packed, f: Packed) -> u64 {
    g.known_mask() & (!f.known_mask() | (g.val_mask() ^ f.val_mask()))
}

/// Simulates one block of up to [`LANES`] vectors against every fault and
/// returns each fault's detection lane mask (bit *i* set = vector *i*
/// detects the fault), folded straight off the simulation state — no
/// per-fault response allocation. The golden response is computed once
/// per call. `state` is scratch: it is reset before the golden run and
/// before every fault, so each simulation starts from exactly the state
/// [`PackedState::for_circuit`] builds.
fn detect_masks(
    circuit: &Circuit,
    block: &[ScanVector],
    faults: &[StuckAtFault],
    state: &mut PackedState,
) -> Vec<u64> {
    let packed = PackedBlock::pack(circuit, block);
    state.reset();
    let golden = apply_block(circuit, state, &packed);
    faults
        .iter()
        .map(|f| {
            rt::obs::hot_add(rt::obs::Hot::PpsfpFaultSims, 1);
            state.reset();
            state.inject(f.net, f.value());
            // Inline replay of `apply_block` that folds the detection masks
            // straight off the state.
            state.load_ffs(&packed.load);
            for (&net, &w) in circuit.inputs().iter().zip(&packed.pi) {
                state.write_external(net, w);
            }
            eval(circuit, state);
            let mut m = 0;
            for (g, &net) in golden.po.iter().zip(circuit.outputs()) {
                m |= detect_word(*g, state.net(net));
            }
            // What the flip-flops would capture is the settled `d` values;
            // the launch eval above already settled them, so no further eval
            // is needed (a full `tick` would only propagate net state this
            // kernel is about to drop).
            for (g, ff) in golden.capture.iter().zip(circuit.dffs()) {
                m |= detect_word(*g, state.net(ff.d));
            }
            m & lane_mask(golden.lanes)
        })
        .collect()
}

/// PPSFP fault simulation: packs `vectors` into 64-pattern blocks and
/// fault-simulates each block against the still-undetected faults only
/// (**fault dropping** — a fault detected in an earlier block is never
/// simulated again). Returns one detection flag per fault, in `faults`
/// order. Runs on the calling thread, on one [`PackedState`] reused for
/// every simulation of the call.
///
/// Each fault's flag depends only on the circuit and the vectors, never
/// on which other faults share the call (dropping is a per-block
/// performance device, not a result dependency). Concatenating the flags
/// of calls over consecutive sub-slices of a fault universe is therefore
/// byte-identical to one call over the whole universe, which is what lets
/// `rt::exec` shards split a campaign by fault range.
///
/// The kernel records deterministic `dsim.ppsfp.*` metrics into the
/// ambient [`rt::obs`] collector — calls, faults, blocks walked, patterns
/// applied, faults dropped per block (histogram) and total detections —
/// all functions of the inputs only.
pub fn ppsfp_detect(
    circuit: &Circuit,
    vectors: &[ScanVector],
    faults: &[StuckAtFault],
) -> Vec<bool> {
    let _span = rt::obs::span("dsim.ppsfp");
    rt::obs::count("dsim.ppsfp.calls", 1);
    rt::obs::count("dsim.ppsfp.faults", faults.len() as u64);
    let mut detected = vec![false; faults.len()];
    let mut live: Vec<usize> = (0..faults.len()).collect();
    let mut state = PackedState::for_circuit(circuit);
    for block in vectors.chunks(LANES) {
        if live.is_empty() {
            break;
        }
        rt::obs::count("dsim.ppsfp.blocks", 1);
        rt::obs::count("dsim.ppsfp.patterns", block.len() as u64);
        let live_faults: Vec<StuckAtFault> = live.iter().map(|&i| faults[i]).collect();
        let masks = detect_masks(circuit, block, &live_faults, &mut state);
        let mut next_live = Vec::with_capacity(live.len());
        for (&fi, &mask) in live.iter().zip(&masks) {
            if mask != 0 {
                detected[fi] = true;
            } else {
                next_live.push(fi);
            }
        }
        rt::obs::record(
            "dsim.ppsfp.dropped_per_block",
            (live.len() - next_live.len()) as u64,
        );
        live = next_live;
    }
    rt::obs::count(
        "dsim.ppsfp.detected",
        detected.iter().filter(|&&d| d).count() as u64,
    );
    detected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::random_vectors;
    use crate::circuit::SimState;
    use crate::logic::Logic::{One, Zero, X};
    use crate::scan::apply_vector;
    use crate::stuck_at::enumerate_faults;

    const ALL: [Logic; 3] = [Zero, One, X];

    #[test]
    fn packed_ops_match_scalar_truth_tables() {
        for a in ALL {
            let pa = Packed::splat(a);
            assert_eq!(pa.not().lane(0), a.not(), "not {a:?}");
            for b in ALL {
                let pb = Packed::splat(b);
                assert_eq!(pa.and(pb).lane(13), a.and(b), "and {a:?} {b:?}");
                assert_eq!(pa.or(pb).lane(13), a.or(b), "or {a:?} {b:?}");
                assert_eq!(pa.xor(pb).lane(13), a.xor(b), "xor {a:?} {b:?}");
                for s in ALL {
                    let ps = Packed::splat(s);
                    assert_eq!(
                        Packed::mux(ps, pa, pb).lane(63),
                        Logic::mux(s, a, b),
                        "mux {s:?} {a:?} {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_invariant_holds_through_ops() {
        let mixed = Packed::pack_lanes([Zero, One, X, One, X, Zero].into_iter());
        let ops = [
            mixed.not(),
            mixed.and(Packed::X),
            mixed.or(Packed::X),
            mixed.xor(Packed::splat(One)),
            Packed::mux(Packed::X, mixed, mixed.not()),
        ];
        for w in ops {
            assert_eq!(w.val_mask() & !w.known_mask(), 0, "{w:?}");
        }
    }

    #[test]
    fn lanes_roundtrip() {
        let lanes = [One, Zero, X, One, X, Zero, One];
        let w = Packed::pack_lanes(lanes.into_iter());
        for (i, &l) in lanes.iter().enumerate() {
            assert_eq!(w.lane(i), l);
        }
        // Unused lanes default to X.
        assert_eq!(w.lane(lanes.len()), X);
        assert_eq!(w.lane(63), X);
    }

    #[test]
    fn splat_and_masks() {
        assert_eq!(Packed::splat(One).one_mask(), u64::MAX);
        assert_eq!(Packed::splat(Zero).zero_mask(), u64::MAX);
        assert_eq!(Packed::X.known_mask(), 0);
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(3), 0b111);
        assert_eq!(lane_mask(64), u64::MAX);
        assert_eq!(lane_mask(999), u64::MAX);
    }

    #[test]
    fn packed_responses_match_scalar_per_lane() {
        let rc = crate::blocks::ring_counter::RingCounter::new(4);
        let c = rc.circuit();
        let vectors = random_vectors(c, 50, 3); // partial final... single partial block
        let resp = apply_vectors(c, &mut PackedState::for_circuit(c), &vectors);
        for (i, v) in vectors.iter().enumerate() {
            let scalar = apply_vector(c, &mut SimState::for_circuit(c), v);
            assert_eq!(response_lane(&resp, i), scalar, "lane {i}");
        }
    }

    #[test]
    fn fault_overlay_pins_every_lane() {
        let mut c = Circuit::new("and2");
        let a = c.input("a");
        let b = c.input("b");
        let y = c.net("y");
        c.gate(GateKind::And, &[a, b], y);
        c.output(y);
        let mut s = PackedState::for_circuit(&c);
        s.inject(y, One);
        s.set_input(&c, a, Packed::splat(Zero));
        s.set_input(&c, b, Packed::pack_lanes([Zero, One, X].into_iter()));
        eval(&c, &mut s);
        assert_eq!(s.net(y), Packed::splat(One), "sa1 wins in all lanes");
        s.clear_fault();
        eval(&c, &mut s);
        assert_eq!(s.net(y), Packed::splat(Zero));
    }

    #[test]
    fn event_eval_matches_sweep_after_fault_churn() {
        // Inject, evaluate, clear, re-inject elsewhere: every live lane of
        // the packed event-driven path must track the scalar bounded-sweep
        // reference through every overlay transition.
        const BLOCK: usize = 3;
        let rc = crate::blocks::ring_counter::RingCounter::new(4);
        let c = rc.circuit();
        let vectors = random_vectors(c, 8 * BLOCK, 21);
        let faults = enumerate_faults(c);
        for f in faults.iter().take(6) {
            let mut ev = PackedState::for_circuit(c);
            let mut sw: Vec<SimState> = (0..BLOCK).map(|_| SimState::for_circuit(c)).collect();
            for block_vectors in vectors.chunks(BLOCK) {
                let block = PackedBlock::pack(c, block_vectors);
                ev.inject(f.net, f.value());
                let got = apply_block(c, &mut ev, &block);
                for (k, (v, s)) in block_vectors.iter().zip(&mut sw).enumerate() {
                    // Sweep-composed reference: the same protocol, one
                    // scalar state per lane.
                    s.inject(f.net, f.value());
                    s.load_ffs(&v.load);
                    for (&net, &val) in c.inputs().iter().zip(&v.pi) {
                        s.set_input(c, net, val);
                    }
                    c.eval_sweep(s);
                    let po = s.read_outputs(c);
                    c.eval_sweep(s);
                    let capture: Vec<Logic> = c.dffs().iter().map(|ff| s.net(ff.d)).collect();
                    s.load_ffs(&capture);
                    c.eval_sweep(s);
                    let lane = response_lane(&got, k);
                    assert_eq!(lane.po, po, "{f:?} lane {k} po");
                    assert_eq!(lane.capture, capture, "{f:?} lane {k} capture");
                }
                ev.clear_fault();
                eval(c, &mut ev);
                for (k, s) in sw.iter_mut().enumerate() {
                    s.clear_fault();
                    c.eval_sweep(s);
                    let got: Vec<Logic> = (0..c.net_count())
                        .map(|n| ev.net(NetId(n)).lane(k))
                        .collect();
                    let want: Vec<Logic> = (0..c.net_count()).map(|n| s.net(NetId(n))).collect();
                    assert_eq!(got, want, "{f:?} lane {k} post-clear nets");
                    let ff: Vec<Logic> = ev.ff_values().iter().map(|w| w.lane(k)).collect();
                    assert_eq!(ff, s.ff_values(), "{f:?} lane {k} post-clear flip-flops");
                }
            }
        }
    }

    #[test]
    fn ppsfp_matches_scalar_coverage_on_blocks() {
        for (name, circuit, seed) in [
            (
                "ring",
                crate::blocks::ring_counter::RingCounter::new(4)
                    .circuit()
                    .clone(),
                7,
            ),
            (
                "divider",
                crate::blocks::divider::Divider::new(3).circuit().clone(),
                11,
            ),
        ] {
            // 70 vectors: one full word plus a partial final word.
            let vectors = random_vectors(&circuit, 70, seed);
            let faults = enumerate_faults(&circuit);
            let packed = ppsfp_detect(&circuit, &vectors, &faults);
            let scalar = crate::stuck_at::scan_coverage_scalar(&circuit, &vectors);
            let scalar_detected: Vec<bool> = faults
                .iter()
                .map(|f| !scalar.undetected().contains(f))
                .collect();
            assert_eq!(packed, scalar_detected, "{name}");
        }
    }

    #[test]
    fn block_boundaries_match_scalar_detection_flags() {
        // Pattern counts on both sides of every 64-pattern block boundary
        // up to nine blocks: fault dropping between blocks and the partial
        // final block must not change a single flag. Random vectors detect
        // every fault in the first block, so each count also runs a
        // late-detect set (one vector repeated, a fresh one last) that
        // keeps faults live into the final block.
        let rc = crate::blocks::ring_counter::RingCounter::new(4);
        let c = rc.circuit();
        let faults = enumerate_faults(c);
        for count in [1, 63, 64, 65, 127, 128, 129, 256, 257, 513] {
            let random = random_vectors(c, count, 9);
            let mut late = vec![random[0].clone(); count - 1];
            late.push(random_vectors(c, 1, 10).remove(0));
            for (shape, vectors) in [("random", random), ("late-detect", late)] {
                let scalar = crate::stuck_at::scan_coverage_scalar(c, &vectors);
                let want: Vec<bool> = faults
                    .iter()
                    .map(|f| !scalar.undetected().contains(f))
                    .collect();
                assert_eq!(
                    ppsfp_detect(c, &vectors, &faults),
                    want,
                    "{count} {shape} vectors"
                );
            }
        }
    }

    #[test]
    fn stitched_shards_match_one_full_call() {
        let rc = crate::blocks::ring_counter::RingCounter::new(4);
        let c = rc.circuit();
        let vectors = random_vectors(c, 96, 5);
        let faults = enumerate_faults(c);
        let full = ppsfp_detect(c, &vectors, &faults);
        // Uneven cuts, including a single-fault shard and the tail.
        for size in [1, 3, 7, faults.len()] {
            let mut stitched = Vec::new();
            let mut at = 0;
            while at < faults.len() {
                let end = (at + size).min(faults.len());
                stitched.extend(ppsfp_detect(c, &vectors, &faults[at..end]));
                at = end;
            }
            assert_eq!(stitched, full, "shard size {size} changed detection");
        }
    }

    #[test]
    fn permuted_fault_order_permutes_the_flags() {
        // Each flag is a function of its own fault: a permutation of the
        // fault list must return the same permutation of the flags, so
        // no simulation state may leak from one fault into the next.
        // Eight random vectors leave some faults undetected, so a leak
        // has flags to flip (with 64 or more, every fault is detected).
        // The late-detect input (one vector 960 times, then eight random
        // ones) keeps faults live through 16 blocks of fault dropping.
        let compile = |src| crate::verilog::compile(src).expect("reference netlist compiles");
        let chain_b = compile(include_str!("../../../tests/data/chain_b4_net.v"));
        let b01 = compile(include_str!("../../../tests/data/b01_net.v"));
        let mut late = vec![random_vectors(&b01, 1, 3).remove(0); 960];
        late.extend(random_vectors(&b01, 8, 4));
        let mut rng = rt::rng::Rng::seed_from_u64(0x5EED);
        for (name, c, vectors) in [
            ("chain B", &chain_b, random_vectors(&chain_b, 8, 1)),
            ("b01", &b01, random_vectors(&b01, 8, 2)),
            ("b01 late-detect", &b01, late),
        ] {
            let faults = enumerate_faults(c);
            let flags = ppsfp_detect(c, &vectors, &faults);
            assert!(
                flags.contains(&true) && flags.contains(&false),
                "{name}: the flags must be mixed"
            );
            for _ in 0..3 {
                let mut order: Vec<usize> = (0..faults.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                let permuted: Vec<StuckAtFault> = order.iter().map(|&i| faults[i]).collect();
                let want: Vec<bool> = order.iter().map(|&i| flags[i]).collect();
                assert_eq!(ppsfp_detect(c, &vectors, &permuted), want, "{name}");
            }
        }
    }

    #[test]
    fn empty_vectors_detect_nothing() {
        let rc = crate::blocks::ring_counter::RingCounter::new(3);
        let faults = enumerate_faults(rc.circuit());
        let detected = ppsfp_detect(rc.circuit(), &[], &faults);
        assert!(detected.iter().all(|&d| !d));
        assert_eq!(detected.len(), faults.len());
    }

    #[test]
    fn all_x_vectors_detect_nothing() {
        // An all-X golden response has no known strobe positions, so no
        // fault can be marked detected — the tester rule, word-parallel.
        let rc = crate::blocks::ring_counter::RingCounter::new(3);
        let c = rc.circuit();
        let v = ScanVector {
            pi: vec![X; c.inputs().len()],
            load: vec![X; c.dff_count()],
        };
        let faults = enumerate_faults(c);
        let detected = ppsfp_detect(c, &vec![v; 65], &faults);
        assert!(detected.iter().all(|&d| !d));
    }

    #[test]
    fn detect_mask_limited_to_live_lanes() {
        let mut c = Circuit::new("buf");
        let a = c.input("a");
        let y = c.net("y");
        c.gate(GateKind::Buf, &[a], y);
        c.output(y);
        let v = ScanVector {
            pi: vec![Zero],
            load: vec![],
        };
        // Three live lanes; the sa1 fault is visible in each of them but
        // the mask must not leak into the 61 dead lanes.
        let faults = [StuckAtFault {
            net: a,
            stuck_high: true,
        }];
        let mut state = PackedState::for_circuit(&c);
        let masks = detect_masks(&c, &[v.clone(), v.clone(), v], &faults, &mut state);
        assert_eq!(masks, vec![0b111]);
    }

    #[test]
    #[should_panic(expected = "vectors per block")]
    fn oversized_block_panics() {
        let mut c = Circuit::new("buf");
        let a = c.input("a");
        let y = c.net("y");
        c.gate(GateKind::Buf, &[a], y);
        let v = ScanVector {
            pi: vec![Zero],
            load: vec![],
        };
        let _ = pack_vectors(&c, &vec![v; 65]);
    }
}
