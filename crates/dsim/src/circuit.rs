//! Gate-level circuits with sequential elements.
//!
//! A [`Circuit`] is a flat netlist of primitive gates and scannable D
//! flip-flops, built through a small builder API. Every evaluator in this
//! crate needs the same structure: an **acyclic single-driver** netlist.
//! [`Circuit::check`] decides that once, on the first use after the last
//! structural mutation, and caches the levelized schedule it builds on
//! the way — a topological gate order plus per-net fanout lists (the
//! crate-internal `EvalPlan`). [`Circuit::eval`] walks that order
//! event-driven, re-evaluating only gates whose fan-in actually changed
//! since the previous call; on such a netlist the three-valued fixpoint
//! is unique.
//!
//! A single stuck-at fault can be overlaid on any net without rebuilding
//! the circuit — the mechanism the stuck-at campaign in
//! [`crate::stuck_at`] uses.
//!
//! # Examples
//!
//! Build and evaluate a half adder:
//!
//! ```
//! use dsim::circuit::{Circuit, GateKind, SimState};
//! use dsim::logic::Logic;
//!
//! let mut c = Circuit::new("half-adder");
//! let a = c.input("a");
//! let b = c.input("b");
//! let sum = c.net("sum");
//! let carry = c.net("carry");
//! c.gate(GateKind::Xor, &[a, b], sum);
//! c.gate(GateKind::And, &[a, b], carry);
//! c.output(sum);
//! c.output(carry);
//!
//! let mut s = SimState::for_circuit(&c);
//! s.set_input(&c, a, Logic::One);
//! s.set_input(&c, b, Logic::One);
//! c.eval(&mut s);
//! assert_eq!(s.net(sum), Logic::Zero);
//! assert_eq!(s.net(carry), Logic::One);
//! ```

use std::fmt;

use crate::logic::Logic;

/// Index of a net within a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Primitive gate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// AND (≥ 2 inputs).
    And,
    /// NAND (≥ 2 inputs).
    Nand,
    /// OR (≥ 2 inputs).
    Or,
    /// NOR (≥ 2 inputs).
    Nor,
    /// XOR (exactly 2 inputs).
    Xor,
    /// XNOR (exactly 2 inputs).
    Xnor,
    /// 2:1 multiplexer; inputs are `[sel, lo, hi]`.
    Mux,
}

impl GateKind {
    fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Buf | GateKind::Not => n == 1,
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => n >= 2,
            GateKind::Xor | GateKind::Xnor => n == 2,
            GateKind::Mux => n == 3,
        }
    }
}

/// A primitive gate instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
}

impl Gate {
    /// Gate kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output net.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A D flip-flop. All flip-flops are scannable and are stitched into the
/// scan chain in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dff {
    /// Data input net.
    pub d: NetId,
    /// Output net.
    pub q: NetId,
}

/// Index of a flip-flop within its circuit (scan-chain position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DffId(pub usize);

/// The precomputed evaluation schedule of a circuit: a topological gate
/// order, per-net fanout lists and per-net driving gates. Built lazily by
/// [`Circuit::check`] and cached until the next structural mutation; only
/// an acyclic single-driver circuit has one.
#[derive(Debug, Clone, Default)]
pub(crate) struct EvalPlan {
    /// Gate indices in topological (levelized) order.
    pub(crate) order: Vec<u32>,
    /// Per net, the gates reading it (each consumer listed once).
    pub(crate) fanouts: Vec<Vec<u32>>,
    /// Per net, the gate driving it, if any.
    pub(crate) driver: Vec<Option<u32>>,
}

/// Why a circuit is not an acyclic single-driver netlist — the one
/// structure every evaluator, PODEM and the time expansion accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureError {
    /// A net has two writers: two gates, a gate on a primary input or a
    /// flip-flop `q`, a flip-flop `q` on a primary input, or two
    /// flip-flops sharing a `q`.
    MultipleDrivers {
        /// The first net claimed twice (primary inputs, then flip-flop
        /// `q`s, then gate outputs, each in insertion order).
        net: NetId,
    },
    /// The gates form a combinational loop (one not broken by a
    /// flip-flop).
    CombinationalCycle {
        /// The output net of the first gate, in insertion order, that the
        /// topological sort could not schedule.
        net: NetId,
    },
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::MultipleDrivers { net } => {
                write!(f, "net {net} has more than one driver")
            }
            StructureError::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net {net}")
            }
        }
    }
}

impl std::error::Error for StructureError {}

/// A gate-level circuit.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    name: String,
    net_names: Vec<String>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    /// Lazily built structure check and evaluation schedule; reset by
    /// every structural mutation, excluded from equality (it is derived
    /// state).
    plan: std::sync::OnceLock<Result<EvalPlan, StructureError>>,
}

impl PartialEq for Circuit {
    fn eq(&self, other: &Circuit) -> bool {
        // The cached plan is derived state and never participates.
        self.name == other.name
            && self.net_names == other.net_names
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.gates == other.gates
            && self.dffs == other.dffs
    }
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Circuit {
        Circuit {
            name: name.into(),
            ..Circuit::default()
        }
    }

    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a named internal net.
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        self.plan = std::sync::OnceLock::new();
        self.net_names.push(name.into());
        NetId(self.net_names.len() - 1)
    }

    /// Creates a primary input net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.net(name);
        self.inputs.push(id);
        id
    }

    /// Marks an existing net as a primary output.
    pub fn output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Adds a gate.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the gate kind's arity or a
    /// net id is out of range.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId], output: NetId) {
        assert!(
            kind.arity_ok(inputs.len()),
            "{kind:?} cannot take {} inputs",
            inputs.len()
        );
        for &n in inputs.iter().chain(std::iter::once(&output)) {
            assert!(n.0 < self.net_names.len(), "net {n} out of range");
        }
        self.plan = std::sync::OnceLock::new();
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
    }

    /// Adds a D flip-flop and returns its scan-chain position.
    ///
    /// # Panics
    ///
    /// Panics if a net id is out of range.
    pub fn dff(&mut self, d: NetId, q: NetId) -> DffId {
        assert!(
            d.0 < self.net_names.len() && q.0 < self.net_names.len(),
            "net out of range"
        );
        self.plan = std::sync::OnceLock::new();
        self.dffs.push(Dff { d, q });
        DffId(self.dffs.len() - 1)
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops (= scan-chain length).
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Primary inputs.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The flip-flops in scan-chain order.
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// The gates in insertion order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.0]
    }

    /// Checks that the circuit is an acyclic single-driver netlist: every
    /// net has at most one writer (a primary input, a flip-flop `q` or one
    /// gate) and the gates form no combinational loop. The verdict and
    /// the levelized schedule are built once and cached until the next
    /// structural mutation.
    pub fn check(&self) -> Result<(), StructureError> {
        self.plan().as_ref().map(|_| ()).map_err(|e| *e)
    }

    fn plan(&self) -> &Result<EvalPlan, StructureError> {
        self.plan.get_or_init(|| self.build_plan())
    }

    /// The cached evaluation schedule, building it on first use.
    ///
    /// # Panics
    ///
    /// Panics with the [`StructureError`] unless [`Circuit::check`]
    /// passes.
    pub(crate) fn eval_plan(&self) -> &EvalPlan {
        match self.plan() {
            Ok(plan) => plan,
            Err(e) => panic!(
                "circuit '{}' is not an acyclic single-driver netlist: {e}",
                self.name
            ),
        }
    }

    /// Builds the levelized schedule: claims every net's single writer,
    /// then runs Kahn's algorithm over gate→gate edges through driven
    /// nets.
    fn build_plan(&self) -> Result<EvalPlan, StructureError> {
        let nets = self.net_names.len();
        let mut fanouts: Vec<Vec<u32>> = vec![Vec::new(); nets];
        let mut driver: Vec<Option<u32>> = vec![None; nets];
        // Primary inputs and flip-flop outputs are written between evals;
        // each net takes exactly one such writer or one driving gate.
        let mut written = vec![false; nets];
        let mut claim = |net: NetId| {
            if std::mem::replace(&mut written[net.0], true) {
                Err(StructureError::MultipleDrivers { net })
            } else {
                Ok(())
            }
        };
        for &pi in &self.inputs {
            claim(pi)?;
        }
        for ff in &self.dffs {
            claim(ff.q)?;
        }
        for (gi, g) in self.gates.iter().enumerate() {
            let gi = gi as u32;
            for &n in &g.inputs {
                let fo = &mut fanouts[n.0];
                // Within one gate, every push to a fanout list carries the
                // same index, so a tail check dedups repeated inputs.
                if fo.last() != Some(&gi) {
                    fo.push(gi);
                }
            }
            claim(g.output)?;
            driver[g.output.0] = Some(gi);
        }
        let mut indeg = vec![0u32; self.gates.len()];
        for (n, d) in driver.iter().enumerate() {
            if d.is_some() {
                for &c in &fanouts[n] {
                    indeg[c as usize] += 1;
                }
            }
        }
        let mut queue: std::collections::VecDeque<u32> = (0..self.gates.len() as u32)
            .filter(|&g| indeg[g as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.gates.len());
        while let Some(gi) = queue.pop_front() {
            order.push(gi);
            let out = self.gates[gi as usize].output;
            for &c in &fanouts[out.0] {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    queue.push_back(c);
                }
            }
        }
        // A gate Kahn never scheduled keeps a nonzero in-degree.
        if let Some(gi) = indeg.iter().position(|&d| d > 0) {
            return Err(StructureError::CombinationalCycle {
                net: self.gates[gi].output,
            });
        }
        Ok(EvalPlan {
            order,
            fanouts,
            driver,
        })
    }

    /// Propagates combinational logic to a fixpoint.
    ///
    /// Flip-flop outputs are driven from the state's flip-flop values;
    /// primary inputs are taken from the state's net values (set them via
    /// [`SimState::set_input`] first). Any injected stuck-at fault in the
    /// state overrides its net throughout.
    ///
    /// One levelized event-driven pass over the cached topological order
    /// that only re-evaluates gates whose fan-in changed. The fixpoint is
    /// unique, so the result is bit-identical to [`Circuit::eval_sweep`].
    ///
    /// # Panics
    ///
    /// Panics unless [`Circuit::check`] passes.
    pub fn eval(&self, state: &mut SimState) {
        let plan = self.eval_plan();
        state.changed.fill(false);
        state.pending.fill(false);
        // Seed: drive FF outputs and re-assert primary inputs through the
        // fault overlay (a fault on an input net must override the applied
        // pattern), waking fanouts only where the value actually moved.
        for (i, ff) in self.dffs.iter().enumerate() {
            let old = state.nets[ff.q.0];
            state.write(ff.q, state.ff[i]);
            if state.nets[ff.q.0] != old {
                state.changed[ff.q.0] = true;
            }
        }
        for &pi in &self.inputs {
            let old = state.nets[pi.0];
            state.write(pi, state.nets[pi.0]);
            if state.nets[pi.0] != old {
                state.changed[pi.0] = true;
            }
        }
        // Nets externally written since the previous eval (inputs, fault
        // injection or removal) wake their cones even when the stored value
        // is already final — removing a fault must re-derive the net from
        // its driver, and injection must override it.
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
        let mut x_writes = 0u64;
        for &gi in &plan.order {
            if !state.pending[gi as usize] {
                skipped += 1;
                continue;
            }
            let g = &self.gates[gi as usize];
            let v = eval_gate(g, &state.nets);
            let out = g.output.0;
            let old = state.nets[out];
            state.write(g.output, v);
            if state.nets[out] != old {
                if state.nets[out] == Logic::X {
                    x_writes += 1;
                }
                for &c in &plan.fanouts[out] {
                    state.pending[c as usize] = true;
                }
            }
        }
        rt::obs::hot_add(rt::obs::Hot::ScalarEvalCalls, 1);
        rt::obs::hot_add(rt::obs::Hot::ScalarEvalPasses, 1);
        if skipped > 0 {
            rt::obs::hot_add(rt::obs::Hot::ScalarEventsSkipped, skipped);
        }
        if x_writes > 0 {
            rt::obs::hot_add(rt::obs::Hot::ScalarEvalXWrites, x_writes);
        }
    }

    /// Propagates combinational logic with the bounded Gauss–Seidel sweep:
    /// up to `gates + 1` full passes in gate insertion order with immediate
    /// writes. Reference only: it needs no schedule, so the conformance
    /// oracle and tests hold [`Circuit::eval`] to it bit-for-bit to catch
    /// a missed event wake-up.
    pub fn eval_sweep(&self, state: &mut SimState) {
        // Drive FF outputs.
        for (i, ff) in self.dffs.iter().enumerate() {
            state.write(ff.q, state.ff[i]);
        }
        // Re-assert primary inputs through the fault overlay (a fault on an
        // input net must override the applied pattern).
        for &pi in &self.inputs {
            state.write(pi, state.nets[pi.0]);
        }
        // Bounded relaxation: |gates| + 1 passes reaches a fixpoint for any
        // feed-forward circuit and settles X-stable values in loops.
        let mut passes = 0u64;
        let mut x_writes = 0u64;
        for _ in 0..=self.gates.len() {
            passes += 1;
            let mut changed = false;
            for g in &self.gates {
                let v = eval_gate(g, &state.nets);
                if state.net(g.output) != v {
                    state.write(g.output, v);
                    changed = true;
                    if v == Logic::X {
                        x_writes += 1;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        rt::obs::hot_add(rt::obs::Hot::ScalarEvalCalls, 1);
        rt::obs::hot_add(rt::obs::Hot::ScalarEvalPasses, passes);
        if x_writes > 0 {
            rt::obs::hot_add(rt::obs::Hot::ScalarEvalXWrites, x_writes);
        }
    }

    /// One functional clock edge: evaluates combinational logic, then
    /// captures every flip-flop's `d` into its state.
    pub fn tick(&self, state: &mut SimState) {
        self.eval(state);
        let SimState { nets, ff, .. } = state;
        for (slot, dff) in ff.iter_mut().zip(&self.dffs) {
            *slot = nets[dff.d.0];
        }
        // Propagate the new FF outputs.
        self.eval(state);
    }
}

/// Evaluates one gate straight off the net array — no per-gate scratch
/// allocation (the former `Vec<Logic>` per gate per pass dominated the
/// scalar reference's run time).
fn eval_gate(g: &Gate, nets: &[Logic]) -> Logic {
    let v = |n: &NetId| nets[n.0];
    match g.kind {
        GateKind::Buf => v(&g.inputs[0]),
        GateKind::Not => v(&g.inputs[0]).not(),
        GateKind::And => g.inputs.iter().map(v).fold(Logic::One, Logic::and),
        GateKind::Nand => g.inputs.iter().map(v).fold(Logic::One, Logic::and).not(),
        GateKind::Or => g.inputs.iter().map(v).fold(Logic::Zero, Logic::or),
        GateKind::Nor => g.inputs.iter().map(v).fold(Logic::Zero, Logic::or).not(),
        GateKind::Xor => v(&g.inputs[0]).xor(v(&g.inputs[1])),
        GateKind::Xnor => v(&g.inputs[0]).xor(v(&g.inputs[1])).not(),
        GateKind::Mux => Logic::mux(v(&g.inputs[0]), v(&g.inputs[1]), v(&g.inputs[2])),
    }
}

/// Mutable simulation state of a circuit: net values, flip-flop contents
/// and an optional stuck-at overlay.
///
/// Equality compares only the observable state (net values, flip-flop
/// contents and the fault overlay) — the event-scheduling scratch the
/// evaluator keeps here is excluded.
#[derive(Debug, Clone)]
pub struct SimState {
    nets: Vec<Logic>,
    ff: Vec<Logic>,
    fault: Option<(NetId, Logic)>,
    /// Nets written from outside [`Circuit::eval`] since the last eval;
    /// their fanout cones (and drivers) are re-evaluated unconditionally.
    touched: Vec<NetId>,
    /// Per-net "value moved this eval" scratch.
    changed: Vec<bool>,
    /// Per-gate "must re-evaluate" scratch.
    pending: Vec<bool>,
}

impl PartialEq for SimState {
    fn eq(&self, other: &SimState) -> bool {
        // Scheduling scratch is derived state and never participates.
        self.nets == other.nets && self.ff == other.ff && self.fault == other.fault
    }
}

impl SimState {
    /// Creates an all-`X` state sized for `circuit`.
    pub fn for_circuit(circuit: &Circuit) -> SimState {
        SimState {
            nets: vec![Logic::X; circuit.net_count()],
            ff: vec![Logic::X; circuit.dff_count()],
            fault: None,
            touched: Vec::new(),
            changed: vec![false; circuit.net_count()],
            pending: vec![false; circuit.gate_count()],
        }
    }

    /// Injects a stuck-at fault on `net`; it overrides every subsequent
    /// write of that net.
    pub fn inject(&mut self, net: NetId, value: Logic) {
        if let Some((old, _)) = self.fault {
            // A superseded pin site must be re-derived from its driver.
            self.touched.push(old);
        }
        self.fault = Some((net, value));
        self.nets[net.0] = value;
        self.touched.push(net);
    }

    /// Removes any injected fault.
    ///
    /// The previously pinned net keeps its pinned value until the next
    /// eval re-derives it from its driver (or, for a primary input, until
    /// the next [`SimState::set_input`]) — the same semantics the bounded
    /// sweep has always had.
    pub fn clear_fault(&mut self) {
        if let Some((n, _)) = self.fault {
            self.touched.push(n);
        }
        self.fault = None;
    }

    fn write(&mut self, net: NetId, v: Logic) {
        self.nets[net.0] = match self.fault {
            Some((f, fv)) if f == net => fv,
            _ => v,
        };
    }

    /// Sets a primary input value.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input of `circuit`.
    pub fn set_input(&mut self, circuit: &Circuit, net: NetId, v: Logic) {
        assert!(
            circuit.inputs().contains(&net),
            "{net} is not a primary input"
        );
        self.write(net, v);
        self.touched.push(net);
    }

    /// Current value of a net.
    pub fn net(&self, net: NetId) -> Logic {
        self.nets[net.0]
    }

    /// Current flip-flop contents in scan-chain order.
    pub fn ff_values(&self) -> &[Logic] {
        &self.ff
    }

    /// Overwrites the flip-flop contents (scan load).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the flip-flop count.
    pub fn load_ffs(&mut self, values: &[Logic]) {
        assert_eq!(values.len(), self.ff.len(), "scan load length mismatch");
        self.ff.copy_from_slice(values);
    }

    /// Output values in declaration order.
    pub fn read_outputs(&self, circuit: &Circuit) -> Vec<Logic> {
        circuit.outputs().iter().map(|&n| self.net(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_input(kind: GateKind) -> (Circuit, NetId, NetId, NetId) {
        let mut c = Circuit::new("g");
        let a = c.input("a");
        let b = c.input("b");
        let y = c.net("y");
        c.gate(kind, &[a, b], y);
        c.output(y);
        (c, a, b, y)
    }

    fn eval2(kind: GateKind, va: Logic, vb: Logic) -> Logic {
        let (c, a, b, y) = two_input(kind);
        let mut s = SimState::for_circuit(&c);
        s.set_input(&c, a, va);
        s.set_input(&c, b, vb);
        c.eval(&mut s);
        s.net(y)
    }

    #[test]
    fn primitive_gates() {
        use Logic::{One, Zero};
        assert_eq!(eval2(GateKind::And, One, One), One);
        assert_eq!(eval2(GateKind::And, One, Zero), Zero);
        assert_eq!(eval2(GateKind::Nand, One, One), Zero);
        assert_eq!(eval2(GateKind::Or, Zero, Zero), Zero);
        assert_eq!(eval2(GateKind::Nor, Zero, Zero), One);
        assert_eq!(eval2(GateKind::Xor, One, Zero), One);
        assert_eq!(eval2(GateKind::Xnor, One, Zero), Zero);
    }

    #[test]
    fn not_and_buf() {
        let mut c = Circuit::new("inv");
        let a = c.input("a");
        let y = c.net("y");
        let z = c.net("z");
        c.gate(GateKind::Not, &[a], y);
        c.gate(GateKind::Buf, &[y], z);
        let mut s = SimState::for_circuit(&c);
        s.set_input(&c, a, Logic::One);
        c.eval(&mut s);
        assert_eq!(s.net(y), Logic::Zero);
        assert_eq!(s.net(z), Logic::Zero);
    }

    #[test]
    fn mux_gate() {
        let mut c = Circuit::new("mux");
        let sel = c.input("sel");
        let lo = c.input("lo");
        let hi = c.input("hi");
        let y = c.net("y");
        c.gate(GateKind::Mux, &[sel, lo, hi], y);
        let mut s = SimState::for_circuit(&c);
        s.set_input(&c, sel, Logic::One);
        s.set_input(&c, lo, Logic::Zero);
        s.set_input(&c, hi, Logic::One);
        c.eval(&mut s);
        assert_eq!(s.net(y), Logic::One);
    }

    #[test]
    fn wide_and() {
        let mut c = Circuit::new("and4");
        let ins: Vec<NetId> = (0..4).map(|i| c.input(format!("i{i}"))).collect();
        let y = c.net("y");
        c.gate(GateKind::And, &ins, y);
        let mut s = SimState::for_circuit(&c);
        for &i in &ins {
            s.set_input(&c, i, Logic::One);
        }
        c.eval(&mut s);
        assert_eq!(s.net(y), Logic::One);
        s.set_input(&c, ins[2], Logic::Zero);
        c.eval(&mut s);
        assert_eq!(s.net(y), Logic::Zero);
    }

    #[test]
    #[should_panic(expected = "cannot take 1 inputs")]
    fn wrong_arity_panics() {
        let mut c = Circuit::new("bad");
        let a = c.input("a");
        let y = c.net("y");
        c.gate(GateKind::And, &[a], y);
    }

    #[test]
    fn dff_tick_captures() {
        let mut c = Circuit::new("reg");
        let d = c.input("d");
        let q = c.net("q");
        c.dff(d, q);
        c.output(q);
        let mut s = SimState::for_circuit(&c);
        s.load_ffs(&[Logic::Zero]);
        s.set_input(&c, d, Logic::One);
        c.eval(&mut s);
        // Before the clock edge, q holds the old value.
        assert_eq!(s.net(q), Logic::Zero);
        c.tick(&mut s);
        assert_eq!(s.net(q), Logic::One);
    }

    #[test]
    fn shift_register_through_ticks() {
        // Two DFFs in series.
        let mut c = Circuit::new("sr2");
        let d = c.input("d");
        let q0 = c.net("q0");
        let q1 = c.net("q1");
        c.dff(d, q0);
        c.dff(q0, q1);
        c.output(q1);
        let mut s = SimState::for_circuit(&c);
        s.load_ffs(&[Logic::Zero, Logic::Zero]);
        s.set_input(&c, d, Logic::One);
        c.tick(&mut s);
        assert_eq!(s.ff_values(), &[Logic::One, Logic::Zero]);
        s.set_input(&c, d, Logic::Zero);
        c.tick(&mut s);
        assert_eq!(s.ff_values(), &[Logic::Zero, Logic::One]);
    }

    #[test]
    fn stuck_at_overrides_writes() {
        let (c, a, b, y) = two_input(GateKind::And);
        let mut s = SimState::for_circuit(&c);
        s.inject(y, Logic::One);
        s.set_input(&c, a, Logic::Zero);
        s.set_input(&c, b, Logic::Zero);
        c.eval(&mut s);
        assert_eq!(s.net(y), Logic::One, "stuck-at-1 wins over gate drive");
        s.clear_fault();
        c.eval(&mut s);
        assert_eq!(s.net(y), Logic::Zero);
    }

    #[test]
    fn stuck_at_on_input_overrides_pattern() {
        let (c, a, b, y) = two_input(GateKind::Or);
        let mut s = SimState::for_circuit(&c);
        s.inject(a, Logic::Zero);
        s.set_input(&c, a, Logic::One); // pattern says 1, fault forces 0
        s.set_input(&c, b, Logic::Zero);
        c.eval(&mut s);
        assert_eq!(s.net(y), Logic::Zero);
    }

    #[test]
    fn read_outputs_in_order() {
        let mut c = Circuit::new("two-out");
        let a = c.input("a");
        let y = c.net("y");
        let z = c.net("z");
        c.gate(GateKind::Not, &[a], y);
        c.gate(GateKind::Buf, &[a], z);
        c.output(y);
        c.output(z);
        let mut s = SimState::for_circuit(&c);
        s.set_input(&c, a, Logic::One);
        c.eval(&mut s);
        assert_eq!(s.read_outputs(&c), vec![Logic::Zero, Logic::One]);
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn setting_internal_net_panics() {
        let (c, _a, _b, y) = two_input(GateKind::And);
        let mut s = SimState::for_circuit(&c);
        s.set_input(&c, y, Logic::One);
    }

    #[test]
    #[should_panic(expected = "scan load length mismatch")]
    fn bad_scan_load_panics() {
        let c = Circuit::new("empty");
        let mut s = SimState::for_circuit(&c);
        s.load_ffs(&[Logic::One]);
    }

    #[test]
    fn structure_check_names_each_cause() {
        // A two-NAND latch: the first unschedulable gate drives `q`.
        let mut c = Circuit::new("latch");
        let a = c.input("a");
        let q = c.net("q");
        let qb = c.net("qb");
        c.gate(GateKind::Nand, &[a, qb], q);
        c.gate(GateKind::Nand, &[a, q], qb);
        assert_eq!(
            c.check(),
            Err(StructureError::CombinationalCycle { net: q })
        );
        // Two gates on one net.
        let (mut c, a, b, y) = two_input(GateKind::And);
        c.gate(GateKind::Or, &[a, b], y);
        assert_eq!(c.check(), Err(StructureError::MultipleDrivers { net: y }));
        // A gate on a primary input.
        let (mut c, a, b, _) = two_input(GateKind::And);
        c.gate(GateKind::Not, &[b], a);
        assert_eq!(c.check(), Err(StructureError::MultipleDrivers { net: a }));
        // A gate on a flip-flop `q`.
        let mut c = Circuit::new("gate-on-q");
        let d = c.input("d");
        let q = c.net("q");
        c.dff(d, q);
        c.gate(GateKind::Not, &[d], q);
        assert_eq!(c.check(), Err(StructureError::MultipleDrivers { net: q }));
        // Two flip-flops sharing a `q`.
        let mut c = Circuit::new("shared-q");
        let d = c.input("d");
        let q = c.net("q");
        c.dff(d, q);
        c.dff(d, q);
        assert_eq!(c.check(), Err(StructureError::MultipleDrivers { net: q }));
        // The verdict tracks structural mutation.
        let (mut c, a, _, y) = two_input(GateKind::And);
        assert_eq!(c.check(), Ok(()));
        c.gate(GateKind::Not, &[a], y);
        assert!(c.check().is_err());
    }

    #[test]
    fn evaluating_a_rejected_circuit_panics_with_the_cause() {
        let (mut c, a, b, y) = two_input(GateKind::And);
        c.gate(GateKind::Xor, &[a, b], y);
        let panic = std::panic::catch_unwind(|| c.eval(&mut SimState::for_circuit(&c)))
            .expect_err("a multiply-driven net must not evaluate");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("circuit 'g' is not an acyclic single-driver netlist: net n2 has more than one driver")
        );
    }

    #[test]
    fn net_names_preserved() {
        let mut c = Circuit::new("n");
        let a = c.input("clk_en");
        assert_eq!(c.net_name(a), "clk_en");
        assert_eq!(c.name(), "n");
    }
}
