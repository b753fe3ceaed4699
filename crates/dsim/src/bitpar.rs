//! Bit-parallel (word-packed) three-valued simulation — the PPSFP kernel.
//!
//! Classic parallel-pattern single-fault propagation (PPSFP): a block of
//! test patterns is packed into one machine word per net, so a single
//! gate-level walk evaluates the whole block at once. The plane type is
//! generic over the [`Word`] abstraction — `u64` (64 patterns per pass),
//! `[u64; 4]` (256) and `[u64; 8]` (512); the array widths use plain
//! per-limb operations that LLVM auto-vectorizes, so no intrinsics are
//! needed and the crate stays hermetic. Three-valued logic uses a
//! **two-plane encoding**: every packed value is a pair of planes, `val`
//! and `known`, where lane *i* (bit *i*) holds pattern *i*:
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
//! suite enforce at every width.
//!
//! Like the scalar evaluator, [`eval`] is one levelized **event-driven**
//! pass over the circuit's cached topological order, re-evaluating only
//! gates whose fan-in changed; it accepts exactly the circuits
//! [`Circuit::check`] passes.
//!
//! On top of the packed evaluator sit the packed scan protocol
//! ([`apply_vectors`]) and the single-threaded PPSFP stuck-at
//! fault-simulation kernel with fault dropping: once a fault is detected
//! by any pattern block it is never simulated again. It has two entry
//! points: [`ppsfp_detect`] picks the plane width from the pattern count,
//! [`ppsfp_detect_wide`] pins it. Parallelism across faults belongs to
//! the caller — `dft::campaign::NetlistCampaign` runs fault sub-ranges as
//! `rt::exec` shards.
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

/// Patterns per `u64` packed word — the narrowest plane width.
pub const LANES: usize = 64;

/// A mask selecting the first `lanes` lanes (all lanes for `lanes >= 64`).
pub fn lane_mask(lanes: usize) -> u64 {
    if lanes >= LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// A bit-plane: the raw storage of one `val` or `known` plane.
///
/// Implemented for `u64` (64 lanes) and for `[u64; N]` (64·N lanes —
/// instantiated at `[u64; 4]` and `[u64; 8]` throughout the tree). The
/// array implementations are plain per-limb loops: with a fixed `N` known
/// at monomorphization time LLVM unrolls and auto-vectorizes them, which
/// is the whole point of widening the plane — no intrinsics, no feature
/// detection, identical results everywhere.
pub trait Word: Copy + Eq + std::fmt::Debug + 'static {
    /// Lanes per plane.
    const BITS: usize;
    /// All lanes clear.
    const ZERO: Self;
    /// All lanes set.
    const ONES: Self;
    /// Bitwise NOT.
    fn not(self) -> Self;
    /// Bitwise AND.
    fn and(self, rhs: Self) -> Self;
    /// Bitwise OR.
    fn or(self, rhs: Self) -> Self;
    /// Bitwise XOR.
    fn xor(self, rhs: Self) -> Self;
    /// A mask selecting the first `lanes` lanes (all for `lanes >= BITS`).
    fn mask(lanes: usize) -> Self;
    /// Whether lane `i` is set.
    fn bit(self, i: usize) -> bool;
    /// Sets lane `i`.
    fn set_bit(&mut self, i: usize);
    /// Whether any lane is set.
    fn any(self) -> bool;
}

impl Word for u64 {
    const BITS: usize = 64;
    const ZERO: u64 = 0;
    const ONES: u64 = u64::MAX;

    fn not(self) -> u64 {
        !self
    }

    fn and(self, rhs: u64) -> u64 {
        self & rhs
    }

    fn or(self, rhs: u64) -> u64 {
        self | rhs
    }

    fn xor(self, rhs: u64) -> u64 {
        self ^ rhs
    }

    fn mask(lanes: usize) -> u64 {
        lane_mask(lanes)
    }

    fn bit(self, i: usize) -> bool {
        (self >> i) & 1 == 1
    }

    fn set_bit(&mut self, i: usize) {
        *self |= 1 << i;
    }

    fn any(self) -> bool {
        self != 0
    }
}

impl<const N: usize> Word for [u64; N] {
    const BITS: usize = 64 * N;
    const ZERO: [u64; N] = [0; N];
    const ONES: [u64; N] = [u64::MAX; N];

    fn not(self) -> Self {
        let mut out = self;
        for limb in &mut out {
            *limb = !*limb;
        }
        out
    }

    fn and(self, rhs: Self) -> Self {
        let mut out = self;
        for (l, r) in out.iter_mut().zip(rhs) {
            *l &= r;
        }
        out
    }

    fn or(self, rhs: Self) -> Self {
        let mut out = self;
        for (l, r) in out.iter_mut().zip(rhs) {
            *l |= r;
        }
        out
    }

    fn xor(self, rhs: Self) -> Self {
        let mut out = self;
        for (l, r) in out.iter_mut().zip(rhs) {
            *l ^= r;
        }
        out
    }

    fn mask(lanes: usize) -> Self {
        let mut out = [0u64; N];
        for (li, limb) in out.iter_mut().enumerate() {
            *limb = lane_mask(lanes.saturating_sub(li * 64));
        }
        out
    }

    fn bit(self, i: usize) -> bool {
        (self[i / 64] >> (i % 64)) & 1 == 1
    }

    fn set_bit(&mut self, i: usize) {
        self[i / 64] |= 1 << (i % 64);
    }

    fn any(self) -> bool {
        self.iter().any(|&l| l != 0)
    }
}

/// `W::BITS` three-valued logic lanes in the two-plane encoding.
///
/// Invariant (maintained by every constructor and operator): an unknown
/// lane carries `val = 0`, i.e. `val & !known == 0`. Derived equality is
/// therefore lane-wise [`Logic`] equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packed<W: Word> {
    val: W,
    known: W,
}

impl<W: Word> Default for Packed<W> {
    fn default() -> Packed<W> {
        Packed::X
    }
}

impl<W: Word> Packed<W> {
    /// All lanes `X`.
    pub const X: Packed<W> = Packed {
        val: W::ZERO,
        known: W::ZERO,
    };

    /// Builds a packed word from raw planes, canonicalizing `val` so that
    /// unknown lanes carry `0`.
    pub fn from_planes(val: W, known: W) -> Packed<W> {
        Packed {
            val: val.and(known),
            known,
        }
    }

    /// Broadcasts one scalar value to all lanes.
    pub fn splat(v: Logic) -> Packed<W> {
        match v {
            Logic::Zero => Packed {
                val: W::ZERO,
                known: W::ONES,
            },
            Logic::One => Packed {
                val: W::ONES,
                known: W::ONES,
            },
            Logic::X => Packed::X,
        }
    }

    /// Packs up to `W::BITS` scalar values into lanes `0..lanes.len()`;
    /// remaining lanes are `X`.
    ///
    /// # Panics
    ///
    /// Panics if more than `W::BITS` values are given.
    pub fn from_lanes(lanes: &[Logic]) -> Packed<W> {
        assert!(lanes.len() <= W::BITS, "more than {} lanes", W::BITS);
        let mut val = W::ZERO;
        let mut known = W::ZERO;
        for (i, &l) in lanes.iter().enumerate() {
            match l {
                Logic::Zero => known.set_bit(i),
                Logic::One => {
                    known.set_bit(i);
                    val.set_bit(i);
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
    /// Panics if `i >= W::BITS`.
    pub fn lane(self, i: usize) -> Logic {
        assert!(i < W::BITS, "lane {i} out of range");
        if self.known.bit(i) {
            Logic::from_bool(self.val.bit(i))
        } else {
            Logic::X
        }
    }

    /// The `val` plane (canonical: `0` in unknown lanes).
    pub fn val_mask(self) -> W {
        self.val
    }

    /// The `known` plane (`1` = lane holds a known `0`/`1`).
    pub fn known_mask(self) -> W {
        self.known
    }

    /// Lanes observed at a known `0`.
    pub fn zero_mask(self) -> W {
        self.known.and(self.val.not())
    }

    /// Lanes observed at a known `1` (alias of [`Self::val_mask`] under the
    /// canonical invariant).
    pub fn one_mask(self) -> W {
        self.val
    }

    /// Lane-wise [`Logic::not`].
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Packed<W> {
        Packed {
            val: self.val.not().and(self.known),
            known: self.known,
        }
    }

    /// Lane-wise [`Logic::and`]: a controlling `0` forces `0` even against
    /// `X`.
    pub fn and(self, rhs: Packed<W>) -> Packed<W> {
        Packed {
            val: self.val.and(rhs.val),
            known: (self.known.and(rhs.known))
                .or(self.zero_mask())
                .or(rhs.zero_mask()),
        }
    }

    /// Lane-wise [`Logic::or`]: a controlling `1` forces `1` even against
    /// `X`.
    pub fn or(self, rhs: Packed<W>) -> Packed<W> {
        Packed {
            val: self.val.or(rhs.val),
            known: (self.known.and(rhs.known)).or(self.val).or(rhs.val),
        }
    }

    /// Lane-wise [`Logic::xor`]: any `X` input makes the lane `X`.
    pub fn xor(self, rhs: Packed<W>) -> Packed<W> {
        let known = self.known.and(rhs.known);
        Packed {
            val: (self.val.xor(rhs.val)).and(known),
            known,
        }
    }

    /// Lane-wise [`Logic::mux`]: known select picks an input; an `X` select
    /// still resolves when both inputs agree at a known value.
    pub fn mux(sel: Packed<W>, lo: Packed<W>, hi: Packed<W>) -> Packed<W> {
        let pick_hi = sel.known.and(sel.val);
        let pick_lo = sel.known.and(sel.val.not());
        let agree = sel
            .known
            .not()
            .and(lo.known)
            .and(hi.known)
            .and(lo.val.xor(hi.val).not());
        let known = (pick_hi.and(hi.known)).or(pick_lo.and(lo.known)).or(agree);
        Packed {
            val: ((pick_hi.and(hi.val))
                .or(pick_lo.and(lo.val))
                .or(agree.and(lo.val)))
            .and(known),
            known,
        }
    }
}

impl<W: Word> std::ops::Not for Packed<W> {
    type Output = Packed<W>;

    fn not(self) -> Packed<W> {
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
pub struct WideState<W: Word> {
    nets: Vec<Packed<W>>,
    ff: Vec<Packed<W>>,
    fault: Option<(NetId, Logic)>,
    /// Nets written from outside [`eval`] since the last eval; their
    /// fanout cones (and drivers) are re-evaluated unconditionally.
    touched: Vec<NetId>,
    /// Per-net "value moved this eval" scratch.
    changed: Vec<bool>,
    /// Per-gate "must re-evaluate" scratch.
    pending: Vec<bool>,
}

impl<W: Word> PartialEq for WideState<W> {
    fn eq(&self, other: &WideState<W>) -> bool {
        // Scheduling scratch is derived state and never participates.
        self.nets == other.nets && self.ff == other.ff && self.fault == other.fault
    }
}

impl<W: Word> Eq for WideState<W> {}

impl<W: Word> WideState<W> {
    /// Creates an all-`X` state sized for `circuit`.
    pub fn for_circuit(circuit: &Circuit) -> WideState<W> {
        WideState {
            nets: vec![Packed::X; circuit.net_count()],
            ff: vec![Packed::X; circuit.dff_count()],
            fault: None,
            touched: Vec::new(),
            changed: vec![false; circuit.net_count()],
            pending: vec![false; circuit.gate_count()],
        }
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
    /// next [`WideState::set_input`]) — the same semantics as
    /// [`crate::circuit::SimState::clear_fault`].
    pub fn clear_fault(&mut self) {
        if let Some((n, _)) = self.fault {
            self.touched.push(n);
        }
        self.fault = None;
    }

    fn write(&mut self, net: NetId, v: Packed<W>) {
        self.nets[net.0] = match self.fault {
            Some((f, fv)) if f == net => Packed::splat(fv),
            _ => v,
        };
    }

    /// A write from outside [`eval`]: applies the fault overlay and marks
    /// the net for unconditional re-scheduling at the next eval.
    fn write_external(&mut self, net: NetId, v: Packed<W>) {
        self.write(net, v);
        self.touched.push(net);
    }

    /// Sets a primary input word.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input of `circuit`.
    pub fn set_input(&mut self, circuit: &Circuit, net: NetId, v: Packed<W>) {
        assert!(
            circuit.inputs().contains(&net),
            "{net} is not a primary input"
        );
        self.write_external(net, v);
    }

    /// Current packed value of a net.
    pub fn net(&self, net: NetId) -> Packed<W> {
        self.nets[net.0]
    }

    /// Current flip-flop contents in scan-chain order.
    pub fn ff_values(&self) -> &[Packed<W>] {
        &self.ff
    }

    /// Overwrites the flip-flop contents (packed scan load).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the flip-flop count.
    pub fn load_ffs(&mut self, values: &[Packed<W>]) {
        assert_eq!(values.len(), self.ff.len(), "scan load length mismatch");
        self.ff.copy_from_slice(values);
    }

    /// Packed output values in declaration order.
    pub fn read_outputs(&self, circuit: &Circuit) -> Vec<Packed<W>> {
        circuit.outputs().iter().map(|&n| self.net(n)).collect()
    }
}

/// Evaluates one gate on the current state without allocating — the packed
/// counterpart of the scalar per-gate evaluation.
fn eval_gate<W: Word>(g: &Gate, nets: &[Packed<W>]) -> Packed<W> {
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
pub fn eval<W: Word>(circuit: &Circuit, state: &mut WideState<W>) {
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
    rt::obs::hot_add(rt::obs::Hot::PackedEvalPasses, 1);
    if skipped > 0 {
        rt::obs::hot_add(rt::obs::Hot::PackedEventsSkipped, skipped);
    }
}

/// Packed twin of [`Circuit::tick`]: evaluate, capture every flip-flop's
/// `d` word, propagate the new outputs.
pub fn tick<W: Word>(circuit: &Circuit, state: &mut WideState<W>) {
    eval(circuit, state);
    let WideState { nets, ff, .. } = state;
    for (slot, dff) in ff.iter_mut().zip(circuit.dffs()) {
        *slot = nets[dff.d.0];
    }
    eval(circuit, state);
}

/// Transposes up to `W::BITS` scan vectors into packed per-input and
/// per-flip-flop words (lane *i* = vector *i*; unused lanes are `X`).
///
/// # Panics
///
/// Panics if more than `W::BITS` vectors are given or a vector's
/// `pi`/`load` lengths do not match the circuit.
pub fn pack_vectors<W: Word>(
    circuit: &Circuit,
    vectors: &[ScanVector],
) -> (Vec<Packed<W>>, Vec<Packed<W>>) {
    let block = WideBlock::pack(circuit, vectors);
    (block.pi, block.load)
}

/// A pre-transposed block of up to `W::BITS` scan vectors: pack once,
/// replay against any number of faults. The PPSFP kernel packs each block
/// a single time and shares it across every live fault's simulation — the
/// transpose is O(vectors × bits) and would otherwise be paid per fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideBlock<W: Word> {
    pi: Vec<Packed<W>>,
    load: Vec<Packed<W>>,
    lanes: usize,
}

impl<W: Word> WideBlock<W> {
    /// Transposes `vectors` (lane *i* = vector *i*; unused lanes `X`).
    ///
    /// # Panics
    ///
    /// Panics if more than `W::BITS` vectors are given or a vector's
    /// `pi`/`load` lengths do not match the circuit.
    pub fn pack(circuit: &Circuit, vectors: &[ScanVector]) -> WideBlock<W> {
        assert!(
            vectors.len() <= W::BITS,
            "more than {} vectors per block",
            W::BITS
        );
        for v in vectors {
            assert_eq!(v.pi.len(), circuit.inputs().len(), "PI pattern length");
            assert_eq!(v.load.len(), circuit.dff_count(), "scan load length");
        }
        let pack = |field: &dyn Fn(&ScanVector, usize) -> Logic, count: usize| -> Vec<Packed<W>> {
            (0..count)
                .map(|j| {
                    let mut val = W::ZERO;
                    let mut known = W::ZERO;
                    for (i, v) in vectors.iter().enumerate() {
                        match field(v, j) {
                            Logic::Zero => known.set_bit(i),
                            Logic::One => {
                                known.set_bit(i);
                                val.set_bit(i);
                            }
                            Logic::X => {}
                        }
                    }
                    Packed { val, known }
                })
                .collect()
        };
        WideBlock {
            pi: pack(&|v, j| v.pi[j], circuit.inputs().len()),
            load: pack(&|v, j| v.load[j], circuit.dff_count()),
            lanes: vectors.len(),
        }
    }

    /// Live lanes (vectors in the block).
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// Applies a pre-packed block: loads the chain, applies the primary
/// inputs, strobes the outputs, pulses one functional clock and captures —
/// the replay half of [`apply_vectors`].
pub fn apply_block<W: Word>(
    circuit: &Circuit,
    state: &mut WideState<W>,
    block: &WideBlock<W>,
) -> WideResponse<W> {
    state.load_ffs(&block.load);
    for (&net, &w) in circuit.inputs().iter().zip(&block.pi) {
        state.write_external(net, w);
    }
    eval(circuit, state);
    let po = state.read_outputs(circuit);
    tick(circuit, state);
    WideResponse {
        po,
        capture: state.ff_values().to_vec(),
        lanes: block.lanes,
    }
}

/// The packed response to a block of scan vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideResponse<W: Word> {
    /// Packed primary-output values after launch.
    pub po: Vec<Packed<W>>,
    /// Packed flip-flop contents captured by the functional clock.
    pub capture: Vec<Packed<W>>,
    /// Number of live lanes (= vectors in the block).
    pub lanes: usize,
}

/// Packed twin of [`crate::scan::apply_vector`]: loads the chain, applies
/// the primary inputs, strobes the outputs, pulses one functional clock and
/// captures — for up to `W::BITS` vectors in one gate-level walk.
///
/// # Panics
///
/// Panics if more than `W::BITS` vectors are given or a vector's lengths
/// do not match the circuit.
pub fn apply_vectors<W: Word>(
    circuit: &Circuit,
    state: &mut WideState<W>,
    vectors: &[ScanVector],
) -> WideResponse<W> {
    apply_block(circuit, state, &WideBlock::pack(circuit, vectors))
}

/// Extracts one lane of a packed response as a scalar [`ScanResponse`].
///
/// # Panics
///
/// Panics if `lane` is not below the response's live lane count.
pub fn response_lane<W: Word>(resp: &WideResponse<W>, lane: usize) -> ScanResponse {
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
fn detect_word<W: Word>(g: Packed<W>, f: Packed<W>) -> W {
    g.known_mask()
        .and(f.known_mask().not().or(g.val_mask().xor(f.val_mask())))
}

/// Simulates one block of up to `W::BITS` vectors against every fault and
/// returns each fault's detection lane mask (bit *i* set = vector *i*
/// detects the fault), folded straight off the simulation state — no
/// per-fault response allocation. The golden response is computed once
/// per call.
fn detect_masks<W: Word>(
    circuit: &Circuit,
    block: &[ScanVector],
    faults: &[StuckAtFault],
) -> Vec<W> {
    let packed = WideBlock::<W>::pack(circuit, block);
    let golden = apply_block(circuit, &mut WideState::for_circuit(circuit), &packed);
    faults
        .iter()
        .map(|f| {
            rt::obs::hot_add(rt::obs::Hot::PpsfpFaultSims, 1);
            let mut state = WideState::<W>::for_circuit(circuit);
            state.inject(f.net, f.value());
            // Inline replay of `apply_block` that folds the detection masks
            // straight off the state.
            state.load_ffs(&packed.load);
            for (&net, &w) in circuit.inputs().iter().zip(&packed.pi) {
                state.write_external(net, w);
            }
            eval(circuit, &mut state);
            let mut m = W::ZERO;
            for (g, &net) in golden.po.iter().zip(circuit.outputs()) {
                m = m.or(detect_word(*g, state.net(net)));
            }
            // What the flip-flops would capture is the settled `d` values;
            // the launch eval above already settled them, so no further eval
            // is needed (a full `tick` would only propagate net state this
            // kernel is about to drop).
            for (g, ff) in golden.capture.iter().zip(circuit.dffs()) {
                m = m.or(detect_word(*g, state.net(ff.d)));
            }
            m.and(W::mask(golden.lanes))
        })
        .collect()
}

/// PPSFP fault simulation: packs `vectors` into word-wide blocks and
/// fault-simulates each block against the still-undetected faults only
/// (**fault dropping** — a fault detected in an earlier block is never
/// simulated again). Returns one detection flag per fault, in `faults`
/// order. Runs on the calling thread.
///
/// The plane width is picked from the pattern count: 512 lanes
/// (`[u64; 8]`) above 128 patterns, 256 lanes (`[u64; 4]`) above 64,
/// `u64` otherwise. Detection flags are width-independent — each
/// pattern's detecting power depends only on the circuit and the pattern,
/// never on which block it shares — so the dispatch is purely a
/// performance choice; [`ppsfp_detect_wide`] pins the width explicitly.
///
/// Each fault's flag also depends only on the circuit and the vectors,
/// never on which other faults share the call (dropping is a per-block
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
    if vectors.len() > 2 * LANES {
        ppsfp_detect_wide::<[u64; 8]>(circuit, vectors, faults)
    } else if vectors.len() > LANES {
        ppsfp_detect_wide::<[u64; 4]>(circuit, vectors, faults)
    } else {
        ppsfp_detect_wide::<u64>(circuit, vectors, faults)
    }
}

/// [`ppsfp_detect`] at an explicit plane width `W` instead of the
/// pattern-count dispatch — the conformance oracle and the width-sweep
/// bench drive every width through this entry point.
pub fn ppsfp_detect_wide<W: Word>(
    circuit: &Circuit,
    vectors: &[ScanVector],
    faults: &[StuckAtFault],
) -> Vec<bool> {
    let _span = rt::obs::span("dsim.ppsfp");
    rt::obs::count("dsim.ppsfp.calls", 1);
    rt::obs::count("dsim.ppsfp.faults", faults.len() as u64);
    let mut detected = vec![false; faults.len()];
    let mut live: Vec<usize> = (0..faults.len()).collect();
    for block in vectors.chunks(W::BITS) {
        if live.is_empty() {
            break;
        }
        rt::obs::count("dsim.ppsfp.blocks", 1);
        rt::obs::count("dsim.ppsfp.patterns", block.len() as u64);
        let live_faults: Vec<StuckAtFault> = live.iter().map(|&i| faults[i]).collect();
        let masks = detect_masks::<W>(circuit, block, &live_faults);
        let mut next_live = Vec::with_capacity(live.len());
        for (&fi, &mask) in live.iter().zip(&masks) {
            if mask.any() {
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
            let pa = Packed::<u64>::splat(a);
            assert_eq!(pa.not().lane(0), a.not(), "not {a:?}");
            for b in ALL {
                let pb = Packed::<u64>::splat(b);
                assert_eq!(pa.and(pb).lane(13), a.and(b), "and {a:?} {b:?}");
                assert_eq!(pa.or(pb).lane(13), a.or(b), "or {a:?} {b:?}");
                assert_eq!(pa.xor(pb).lane(13), a.xor(b), "xor {a:?} {b:?}");
                for s in ALL {
                    let ps = Packed::<u64>::splat(s);
                    assert_eq!(
                        Packed::<u64>::mux(ps, pa, pb).lane(63),
                        Logic::mux(s, a, b),
                        "mux {s:?} {a:?} {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_ops_match_scalar_truth_tables() {
        // The same exhaustive sweep at 256 and 512 lanes, probing lanes in
        // every limb.
        fn sweep<W: Word>() {
            let probes = [0, 63, 64, W::BITS / 2, W::BITS - 1];
            for a in ALL {
                let pa = Packed::<W>::splat(a);
                for b in ALL {
                    let pb = Packed::<W>::splat(b);
                    for &i in &probes {
                        assert_eq!(pa.and(pb).lane(i), a.and(b), "and {a:?} {b:?} lane {i}");
                        assert_eq!(pa.or(pb).lane(i), a.or(b), "or {a:?} {b:?} lane {i}");
                        assert_eq!(pa.xor(pb).lane(i), a.xor(b), "xor {a:?} {b:?} lane {i}");
                        for s in ALL {
                            let ps = Packed::<W>::splat(s);
                            assert_eq!(
                                Packed::mux(ps, pa, pb).lane(i),
                                Logic::mux(s, a, b),
                                "mux {s:?} {a:?} {b:?} lane {i}"
                            );
                        }
                    }
                }
            }
        }
        sweep::<[u64; 4]>();
        sweep::<[u64; 8]>();
    }

    #[test]
    fn word_masks_and_bits() {
        assert_eq!(<[u64; 4]>::BITS, 256);
        assert_eq!(<[u64; 8]>::BITS, 512);
        assert_eq!(<[u64; 4]>::mask(0), [0; 4]);
        assert_eq!(<[u64; 4]>::mask(256), [u64::MAX; 4]);
        assert_eq!(<[u64; 4]>::mask(999), [u64::MAX; 4]);
        assert_eq!(<[u64; 4]>::mask(65), [u64::MAX, 1, 0, 0]);
        assert_eq!(<[u64; 4]>::mask(64), [u64::MAX, 0, 0, 0]);
        let mut w = [0u64; 4];
        w.set_bit(64);
        assert!(w.bit(64));
        assert!(!w.bit(63));
        assert!(w.any());
        assert!(!<[u64; 4]>::ZERO.any());
    }

    #[test]
    fn canonical_invariant_holds_through_ops() {
        let mixed = Packed::<u64>::from_lanes(&[Zero, One, X, One, X, Zero]);
        let ops = [
            mixed.not(),
            mixed.and(Packed::<u64>::X),
            mixed.or(Packed::<u64>::X),
            mixed.xor(Packed::<u64>::splat(One)),
            Packed::<u64>::mux(Packed::<u64>::X, mixed, mixed.not()),
            Packed::<u64>::from_planes(u64::MAX, 0b1010),
        ];
        for w in ops {
            assert_eq!(w.val_mask() & !w.known_mask(), 0, "{w:?}");
        }
    }

    #[test]
    fn lanes_roundtrip() {
        let lanes = [One, Zero, X, One, X, Zero, One];
        let w = Packed::<u64>::from_lanes(&lanes);
        for (i, &l) in lanes.iter().enumerate() {
            assert_eq!(w.lane(i), l);
        }
        // Unused lanes default to X.
        assert_eq!(w.lane(lanes.len()), X);
        assert_eq!(w.lane(63), X);
        // And the same across limb boundaries at width 256.
        let mut wide_lanes = vec![X; 130];
        wide_lanes[0] = One;
        wide_lanes[64] = Zero;
        wide_lanes[129] = One;
        let w = Packed::<[u64; 4]>::from_lanes(&wide_lanes);
        assert_eq!(w.lane(0), One);
        assert_eq!(w.lane(64), Zero);
        assert_eq!(w.lane(129), One);
        assert_eq!(w.lane(130), X);
        assert_eq!(w.lane(255), X);
    }

    #[test]
    fn splat_and_masks() {
        assert_eq!(Packed::<u64>::splat(One).one_mask(), u64::MAX);
        assert_eq!(Packed::<u64>::splat(Zero).zero_mask(), u64::MAX);
        assert_eq!(Packed::<u64>::X.known_mask(), 0);
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
        let resp = apply_vectors(c, &mut WideState::<u64>::for_circuit(c), &vectors);
        for (i, v) in vectors.iter().enumerate() {
            let scalar = apply_vector(c, &mut SimState::for_circuit(c), v);
            assert_eq!(response_lane(&resp, i), scalar, "lane {i}");
        }
    }

    #[test]
    fn wide_responses_match_scalar_per_lane() {
        // 130 vectors fill one partial [u64; 4] block (and a very partial
        // [u64; 8] block): every live lane must reproduce the scalar
        // response, and the dead lanes stay X.
        let rc = crate::blocks::ring_counter::RingCounter::new(4);
        let c = rc.circuit();
        let vectors = random_vectors(c, 130, 3);
        fn check<W: Word>(c: &Circuit, vectors: &[ScanVector]) {
            let resp = apply_vectors::<W>(c, &mut WideState::for_circuit(c), vectors);
            for (i, v) in vectors.iter().enumerate() {
                let scalar = apply_vector(c, &mut SimState::for_circuit(c), v);
                assert_eq!(response_lane(&resp, i), scalar, "lane {i}");
            }
            let dead = W::mask(vectors.len()).not();
            for w in resp.po.iter().chain(&resp.capture) {
                assert!(!w.known_mask().and(dead).any(), "dead lane known: {w:?}");
            }
        }
        check::<[u64; 4]>(c, &vectors);
        check::<[u64; 8]>(c, &vectors);
    }

    #[test]
    fn fault_overlay_pins_every_lane() {
        let mut c = Circuit::new("and2");
        let a = c.input("a");
        let b = c.input("b");
        let y = c.net("y");
        c.gate(GateKind::And, &[a, b], y);
        c.output(y);
        let mut s = WideState::<u64>::for_circuit(&c);
        s.inject(y, One);
        s.set_input(&c, a, Packed::<u64>::splat(Zero));
        s.set_input(&c, b, Packed::<u64>::from_lanes(&[Zero, One, X]));
        eval(&c, &mut s);
        assert_eq!(s.net(y), Packed::<u64>::splat(One), "sa1 wins in all lanes");
        s.clear_fault();
        eval(&c, &mut s);
        assert_eq!(s.net(y), Packed::<u64>::splat(Zero));
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
            let mut ev = WideState::<u64>::for_circuit(c);
            let mut sw: Vec<SimState> = (0..BLOCK).map(|_| SimState::for_circuit(c)).collect();
            for block_vectors in vectors.chunks(BLOCK) {
                let block = WideBlock::pack(c, block_vectors);
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
    fn every_width_reports_identical_detection_flags() {
        let rc = crate::blocks::ring_counter::RingCounter::new(4);
        let c = rc.circuit();
        let faults = enumerate_faults(c);
        // Pattern counts straddling every width's block boundary.
        for count in [1, 63, 64, 65, 130, 255, 256, 257, 511, 512, 513] {
            let vectors = random_vectors(c, count, 9);
            let narrow = ppsfp_detect_wide::<u64>(c, &vectors, &faults);
            let mid = ppsfp_detect_wide::<[u64; 4]>(c, &vectors, &faults);
            let wide = ppsfp_detect_wide::<[u64; 8]>(c, &vectors, &faults);
            assert_eq!(narrow, mid, "{count} vectors, 64 vs 256");
            assert_eq!(narrow, wide, "{count} vectors, 64 vs 512");
            assert_eq!(
                ppsfp_detect(c, &vectors, &faults),
                narrow,
                "{count} vectors, dispatched"
            );
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
        let masks = detect_masks::<u64>(&c, &[v.clone(), v.clone(), v], &faults);
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
        let _ = pack_vectors::<u64>(&c, &vec![v; 65]);
    }

    #[test]
    #[should_panic(expected = "vectors per block")]
    fn oversized_wide_block_panics() {
        let mut c = Circuit::new("buf");
        let a = c.input("a");
        let y = c.net("y");
        c.gate(GateKind::Buf, &[a], y);
        let v = ScanVector {
            pi: vec![Zero],
            load: vec![],
        };
        let _ = pack_vectors::<[u64; 4]>(&c, &vec![v; 257]);
    }
}
