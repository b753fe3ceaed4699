//! The distributed-RC on-chip interconnect.
//!
//! Repeaterless links are RC-dominated: a long minimum-width wire behaves
//! as a distributed RC line whose low-pass response closes the data eye —
//! the problem the paper's capacitive feed-forward equalizer exists to
//! solve. The model is an L-ladder of `n` lumped segments (each node,
//! the far end included, carries a whole `c_seg` behind a whole `r_seg`)
//! terminated into the receiver resistance, integrated with **backward Euler**, so the step
//! size is not stability-limited by the smallest segment time constant.
//! The tridiagonal system is factored once per `(dt, coupling)` with the
//! Thomas algorithm's forward elimination. A step is then one forward
//! sweep, which builds each node's right-hand side and eliminates it
//! against the previous node's in the same pass, and one back sweep.
//!
//! One Thomas kernel, [`RcLadders`], advances `L` independent ladders of
//! equal segment count in lockstep. Its state is stored node-major, one
//! `[f64; L]` per node, and each lane keeps its own line parameters,
//! step size, coupling and factorization. Both sweeps are chains of
//! dependent operations — the back sweep a chain of divides — so one
//! ladder alone waits on their latency; `L` ladders issue `L`
//! independent operations per node and fill the pipelines. The forward
//! sweep carries the previous node's value in a local, so its chain
//! never waits on a store and reload of the buffer. Every lane runs the
//! same floating-point operations in the same order as a lone per-step
//! Thomas solve, so lockstep changes no result bit.
//!
//! [`RcLine`] is the one-lane case: one arm of the link. The
//! differential interconnect in [`crate::LowSwingLink`] instantiates two;
//! the link farm bundles the arms of several eyes ([`crate::farm`]).
//!
//! # Examples
//!
//! ```
//! use link::channel::RcLine;
//! use msim::units::{Farad, Ohm, Sec, Volt};
//!
//! // A 2 kΩ / 1 pF line: the output settles toward a step input.
//! let mut line = RcLine::new(Ohm::from_kohm(2.0), Farad::from_pf(1.0), 10,
//!                            Ohm::from_kohm(2.0));
//! let dt = Sec::from_ps(25.0);
//! let mut out = Volt::ZERO;
//! for _ in 0..2000 {
//!     out = line.step(Volt(1.0), dt);
//! }
//! assert!(out.value() > 0.45, "step response must settle toward the divider level");
//! ```

use msim::units::{Farad, Ohm, Sec, Volt};
use std::array;

/// `L` independent arms of the distributed-RC interconnect with equal
/// segment counts, stepped together by one Thomas sweep.
///
/// Equality is physical: two bundles compare equal when their parameters
/// and node voltages do, whatever their cached factorizations or work
/// counters.
#[derive(Debug, Clone)]
pub struct RcLadders<const L: usize> {
    /// Series resistance per segment (ohms), per lane.
    r_seg: [f64; L],
    /// Shunt capacitance per segment (farads), per lane.
    c_seg: [f64; L],
    /// Termination resistance to the termination bias (ohms), per lane;
    /// `f64::INFINITY` for an open (unterminated) line.
    r_term: [f64; L],
    /// Termination bias voltage each lane is returned to.
    v_term: [f64; L],
    /// Node voltages along the ladders, node-major.
    nodes: Vec<[f64; L]>,
    /// Each lane's backward-Euler matrix of its last `(dt, coupling)`,
    /// eliminated.
    factored: Factored<L>,
    /// Steps each lane has taken over its lifetime.
    steps: [u64; L],
}

/// One arm of the distributed-RC interconnect: the one-lane
/// [`RcLadders`].
pub type RcLine = RcLadders<1>;

impl<const L: usize> PartialEq for RcLadders<L> {
    fn eq(&self, other: &RcLadders<L>) -> bool {
        self.r_seg == other.r_seg
            && self.c_seg == other.c_seg
            && self.r_term == other.r_term
            && self.v_term == other.v_term
            && self.nodes == other.nodes
    }
}

/// Each lane's Thomas forward elimination of `(C/dt + C_c/dt + G)`,
/// which depends on the step only through `dt` and the coupling
/// capacitance, with the per-segment coefficients it was built from.
/// Node-major, like the node voltages.
#[derive(Debug, Clone)]
struct Factored<const L: usize> {
    /// Bits of `(dt, c_couple)` each lane's elimination was built for.
    key: [Option<(u64, u64)>; L],
    /// Segment conductance `1/r_seg`.
    g: [f64; L],
    /// Termination conductance `1/r_term` (0 for an open line).
    g_term: [f64; L],
    /// Per-segment coupling capacitance over the step, `C_c/n/dt`.
    ccdt: [f64; L],
    /// The capacitive part of the diagonal, `C/dt + C_c/dt`.
    load: [f64; L],
    /// Elimination multipliers `w[i] = sub[i] / diag[i-1]` (`w[0]` unused).
    w: Vec<[f64; L]>,
    /// The eliminated diagonal.
    diag: Vec<[f64; L]>,
    /// Right-hand-side buffer, overwritten every step.
    rhs: Vec<[f64; L]>,
    /// Times each lane's elimination was (re)built.
    builds: [u64; L],
}

impl<const L: usize> Factored<L> {
    fn new(n: usize) -> Factored<L> {
        Factored {
            key: [None; L],
            g: [0.0; L],
            g_term: [0.0; L],
            ccdt: [0.0; L],
            load: [0.0; L],
            w: vec![[0.0; L]; n],
            diag: vec![[0.0; L]; n],
            rhs: vec![[0.0; L]; n],
            builds: [0; L],
        }
    }

    /// Rebuilds lane `l`'s elimination unless it is already the one for
    /// `(dt, c_couple)`; `(r_seg, c_seg, r_term)` are the lane's line.
    fn ensure(&mut self, l: usize, dt: Sec, c_couple: Farad, line: (f64, f64, f64)) {
        let key = (dt.value().to_bits(), c_couple.value().to_bits());
        if self.key[l] == Some(key) {
            return;
        }
        self.key[l] = Some(key);
        self.builds[l] += 1;
        let n = self.diag.len();
        let (r_seg, c_seg, r_term) = line;
        let g = 1.0 / r_seg;
        let g_term = if r_term.is_finite() {
            1.0 / r_term
        } else {
            0.0
        };
        let cdt = c_seg / dt.value();
        let ccdt = c_couple.value() / n as f64 / dt.value();
        self.g[l] = g;
        self.g_term[l] = g_term;
        self.ccdt[l] = ccdt;
        self.load[l] = cdt + ccdt;
        // Tridiagonal coefficients: sub = sup = -g, diag as below.
        let (sub, sup) = (-g, -g);
        for i in 0..n {
            let g_right = if i + 1 < n { g } else { g_term };
            // The coupling cap also loads the node.
            self.diag[i][l] = cdt + ccdt + g + g_right;
        }
        for i in 1..n {
            let w = sub / self.diag[i - 1][l];
            self.w[i][l] = w;
            self.diag[i][l] -= w * sup;
        }
    }
}

/// One step's inputs for every lane of an [`RcLadders`]: the near-end
/// drive `vin`, the step `dt`, and an *aggressor* wire capacitively
/// coupled to every node — `c_couple` is the total coupling capacitance
/// along the lane and `(va_now, va_prev)` the aggressor's voltage at the
/// end and start of the step.
#[derive(Debug, Clone, Copy)]
pub struct Drive<const L: usize> {
    /// Near-end drive voltage.
    pub vin: [Volt; L],
    /// Step size.
    pub dt: [Sec; L],
    /// Aggressor voltage at the end of the step.
    pub va_now: [Volt; L],
    /// Aggressor voltage at the start of the step.
    pub va_prev: [Volt; L],
    /// Total coupling capacitance to the aggressor.
    pub c_couple: [Farad; L],
}

impl<const L: usize> RcLadders<L> {
    /// Bundles `L` lines into one lockstep kernel. Each lane takes its
    /// line's parameters and node voltages; its step and factorization
    /// counts start from zero.
    ///
    /// # Panics
    ///
    /// Panics if `L` is zero or the lines' segment counts differ.
    pub fn bundle(lines: [RcLine; L]) -> RcLadders<L> {
        let n = lines[0].segments();
        assert!(
            lines.iter().all(|line| line.segments() == n),
            "bundled ladders need equal segment counts"
        );
        RcLadders {
            r_seg: array::from_fn(|l| lines[l].r_seg[0]),
            c_seg: array::from_fn(|l| lines[l].c_seg[0]),
            r_term: array::from_fn(|l| lines[l].r_term[0]),
            v_term: array::from_fn(|l| lines[l].v_term[0]),
            nodes: (0..n)
                .map(|i| array::from_fn(|l| lines[l].nodes[i][0]))
                .collect(),
            factored: Factored::new(n),
            steps: [0; L],
        }
    }

    /// Number of segments (every lane has the same).
    pub fn segments(&self) -> usize {
        self.nodes.len()
    }

    /// Steps each lane has taken over its lifetime (both step kinds).
    pub fn steps(&self) -> [u64; L] {
        self.steps
    }

    /// Times each lane factored its backward-Euler matrix: once per
    /// change of `(dt, coupling)` between consecutive steps.
    pub fn factorizations(&self) -> [u64; L] {
        self.factored.builds
    }

    /// Advances every lane by its own `dt` with its near end driven to
    /// its `vin` and its aggressor coupled in. Returns the far-end
    /// voltages.
    ///
    /// Backward Euler: each lane solves `(C/dt + C_c/dt + G) v⁺ =
    /// (C/dt + C_c/dt) v + b`, where `G` is the tridiagonal conductance
    /// matrix of the ladder and crosstalk injects `C_c/dt · (va_now −
    /// va_prev)` of displacement current per node. A lane re-factors its
    /// matrix, and recomputes the per-segment coefficients the matrix is
    /// built from, only when its `dt` or `c_couple` differs from its
    /// previous step's. Otherwise a step is one forward and one back
    /// sweep, done for all lanes node by node. The forward sweep forms
    /// each node's right-hand side `load·v + inject`, adds the near-end
    /// drive at node 0 and the termination at node `n − 1`, then
    /// eliminates it against the previous node's, in that order; the
    /// back sweep solves from the far node to node 0.
    pub fn step_lanes(&mut self, drive: &Drive<L>) -> [Volt; L] {
        let n = self.nodes.len();
        for l in 0..L {
            let line = (self.r_seg[l], self.c_seg[l], self.r_term[l]);
            self.factored
                .ensure(l, drive.dt[l], drive.c_couple[l], line);
            self.steps[l] += 1;
        }
        let Factored {
            g,
            g_term,
            ccdt,
            load,
            w,
            diag,
            rhs,
            ..
        } = &mut self.factored;
        let inject: [f64; L] =
            array::from_fn(|l| ccdt[l] * (drive.va_now[l].value() - drive.va_prev[l].value()));
        let sup: [f64; L] = array::from_fn(|l| -g[l]);
        // The boundary terms come before the elimination at every node,
        // as in the per-step solve, so each lane's bits match it; at one
        // segment node 0 takes both.
        let mut x_prev = [0.0; L];
        for (i, ((r, v), wi)) in rhs.iter_mut().zip(&self.nodes).zip(w.iter()).enumerate() {
            let mut x: [f64; L] = array::from_fn(|l| load[l] * v[l] + inject[l]);
            if i == 0 {
                for l in 0..L {
                    x[l] += g[l] * drive.vin[l].value();
                }
            }
            if i == n - 1 {
                for l in 0..L {
                    x[l] += g_term[l] * self.v_term[l];
                }
            }
            if i > 0 {
                for l in 0..L {
                    x[l] -= wi[l] * x_prev[l];
                }
            }
            *r = x;
            x_prev = x;
        }
        // Back sweep from the far node, whose value is `x_prev / diag`.
        let (far, near) = self.nodes.split_last_mut().expect("at least one segment");
        let mut next: [f64; L] = array::from_fn(|l| x_prev[l] / diag[n - 1][l]);
        *far = next;
        for ((node, r), d) in near.iter_mut().zip(&rhs[..n - 1]).zip(&diag[..n - 1]).rev() {
            for l in 0..L {
                next[l] = (r[l] - sup[l] * next[l]) / d[l];
            }
            *node = next;
        }
        array::from_fn(|l| Volt(far[l]))
    }
}

impl RcLine {
    /// Creates a line with total series resistance `r_total` and total
    /// shunt capacitance `c_total` split across `segments` L-segments,
    /// terminated into `r_term` (referenced to 0 V until
    /// [`RcLine::set_termination_bias`] is called).
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0` or any electrical value is not strictly
    /// positive (`r_term` may be `f64::INFINITY` via
    /// [`RcLine::unterminated`]).
    pub fn new(r_total: Ohm, c_total: Farad, segments: usize, r_term: Ohm) -> RcLine {
        assert!(segments > 0, "line needs at least one segment");
        assert!(
            r_total.value() > 0.0 && c_total.value() > 0.0 && r_term.value() > 0.0,
            "line parameters must be positive"
        );
        RcLine {
            r_seg: [r_total.value() / segments as f64],
            c_seg: [c_total.value() / segments as f64],
            r_term: [r_term.value()],
            v_term: [0.0],
            nodes: vec![[0.0]; segments],
            factored: Factored::new(segments),
            steps: [0],
        }
    }

    /// Creates an unterminated (capacitively loaded) line.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`RcLine::new`].
    pub fn unterminated(r_total: Ohm, c_total: Farad, segments: usize) -> RcLine {
        let mut line = RcLine::new(r_total, c_total, segments, Ohm(1.0));
        line.r_term = [f64::INFINITY];
        line
    }

    /// Sets the termination bias (the receiver's Vcm) and presets the line
    /// to it.
    pub fn set_termination_bias(&mut self, v: Volt) {
        self.v_term = [v.value()];
        self.preset(v);
    }

    /// Presets every node to `v` (steady state of a DC input `v = v_term`).
    pub fn preset(&mut self, v: Volt) {
        self.nodes.fill([v.value()]);
    }

    /// Advances the line by `dt` with the near end driven to `vin`.
    /// Returns the far-end voltage.
    ///
    /// Backward Euler: solves `(C/dt + G) v⁺ = C/dt v + b` where `G` is the
    /// tridiagonal conductance matrix of the ladder. This is
    /// [`RcLine::step_with_aggressor`] with no coupling capacitance.
    pub fn step(&mut self, vin: Volt, dt: Sec) -> Volt {
        self.step_with_aggressor(vin, dt, Volt::ZERO, Volt::ZERO, Farad(0.0))
    }

    /// DC transfer gain from the driver to the far end: the resistive
    /// divider formed by the line and the termination (1.0 when
    /// unterminated).
    pub fn dc_gain(&self) -> f64 {
        let [r_term] = self.r_term;
        if r_term.is_finite() {
            let r_line = self.r_seg[0] * self.nodes.len() as f64;
            r_term / (r_term + r_line)
        } else {
            1.0
        }
    }

    /// Advances the line by `dt` with an *aggressor* wire capacitively
    /// coupled to every node: `c_couple` is the total coupling capacitance
    /// along the line and `(va_now, va_prev)` the aggressor's voltage at
    /// the end and start of the step. Crosstalk injects
    /// `C_c/dt · (va_now − va_prev)` of displacement current per node.
    /// This is [`RcLadders::step_lanes`] with one lane.
    ///
    /// A victim of the paper's *differential* link sees the aggressor on
    /// both arms (common mode) and rejects it; a single-ended wire takes
    /// the full hit — see the crosstalk tests.
    ///
    /// # Examples
    ///
    /// ```
    /// use link::channel::RcLine;
    /// use msim::units::{Farad, Ohm, Sec, Volt};
    ///
    /// let mut line = RcLine::new(Ohm::from_kohm(2.0), Farad::from_pf(1.0), 10,
    ///                            Ohm::from_kohm(2.0));
    /// line.set_termination_bias(Volt(0.6));
    /// let (dt, cc) = (Sec::from_ps(25.0), Farad::from_ff(100.0));
    /// // A quiet aggressor injects nothing; an edge disturbs the victim.
    /// let quiet = line.step_with_aggressor(Volt(0.6), dt, Volt(1.2), Volt(1.2), cc);
    /// assert!((quiet.value() - 0.6).abs() < 1e-9);
    /// let hit = line.step_with_aggressor(Volt(0.6), dt, Volt(1.2), Volt::ZERO, cc);
    /// assert!((hit.value() - 0.6).abs() * 1e3 > 1.0, "edge couples in: {hit}");
    /// ```
    pub fn step_with_aggressor(
        &mut self,
        vin: Volt,
        dt: Sec,
        va_now: Volt,
        va_prev: Volt,
        c_couple: Farad,
    ) -> Volt {
        let [out] = self.step_lanes(&Drive {
            vin: [vin],
            dt: [dt],
            va_now: [va_now],
            va_prev: [va_prev],
            c_couple: [c_couple],
        });
        out
    }

    /// 0-to-50 % step delay measured by simulation, in seconds.
    pub fn step_delay_50(&mut self, dt: Sec, max_steps: usize) -> Option<Sec> {
        self.preset(Volt::ZERO);
        let v_term = self.v_term;
        self.v_term = [0.0];
        let target = 0.5 * self.dc_gain();
        let mut result = None;
        for k in 0..max_steps {
            let out = self.step(Volt(1.0), dt);
            if out.value() >= target {
                result = Some(dt * k as f64);
                break;
            }
        }
        self.v_term = v_term;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_line() -> RcLine {
        paper_line_with(10)
    }

    fn paper_line_with(segments: usize) -> RcLine {
        RcLine::new(
            Ohm::from_kohm(2.0),
            Farad::from_pf(1.0),
            segments,
            Ohm::from_kohm(2.0),
        )
    }

    /// The rebuild-every-step Thomas solve the cached factorization must
    /// reproduce bit for bit; `c_couple = None` is the plain step.
    fn reference_step(
        line: &mut RcLine,
        vin: Volt,
        dt: Sec,
        aggressor: Option<(Volt, Volt, Farad)>,
    ) -> Volt {
        let n = line.nodes.len();
        let [r_seg] = line.r_seg;
        let [c_seg] = line.c_seg;
        let [r_term] = line.r_term;
        let [v_term] = line.v_term;
        let v: Vec<f64> = line.nodes.iter().map(|[v]| *v).collect();
        let g = 1.0 / r_seg;
        let g_term = if r_term.is_finite() {
            1.0 / r_term
        } else {
            0.0
        };
        let cdt = c_seg / dt.value();
        let (ccdt, inject) = match aggressor {
            Some((va_now, va_prev, c_couple)) => {
                let ccdt = c_couple.value() / n as f64 / dt.value();
                (ccdt, ccdt * (va_now.value() - va_prev.value()))
            }
            None => (0.0, 0.0),
        };
        let mut sub = vec![0.0; n];
        let mut diag = vec![0.0; n];
        let mut sup = vec![0.0; n];
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            let g_right = if i + 1 < n { g } else { g_term };
            if aggressor.is_some() {
                diag[i] = cdt + ccdt + g + g_right;
                rhs[i] = (cdt + ccdt) * v[i] + inject;
            } else {
                diag[i] = cdt + g + g_right;
                rhs[i] = cdt * v[i];
            }
            if i == 0 {
                rhs[i] += g * vin.value();
            } else {
                sub[i] = -g;
            }
            if i + 1 < n {
                sup[i] = -g;
            } else {
                rhs[i] += g_term * v_term;
            }
        }
        for i in 1..n {
            let w = sub[i] / diag[i - 1];
            diag[i] -= w * sup[i - 1];
            rhs[i] -= w * rhs[i - 1];
        }
        line.nodes[n - 1] = [rhs[n - 1] / diag[n - 1]];
        for i in (0..n - 1).rev() {
            line.nodes[i] = [(rhs[i] - sup[i] * line.nodes[i + 1][0]) / diag[i]];
        }
        Volt(line.nodes[n - 1][0])
    }

    fn assert_bits_equal(cached: &RcLine, reference: &RcLine, what: &str) {
        for (i, ([a], [b])) in cached.nodes.iter().zip(&reference.nodes).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: node {i}: {a} vs {b}");
        }
    }

    #[test]
    fn cached_factorization_is_bit_identical_to_the_per_step_solve() {
        let mut rng = rt::rng::Rng::seed_from_u64(16);
        for segments in [1, 2, 10, 50] {
            for terminated in [true, false] {
                let mut cached = if terminated {
                    paper_line_with(segments)
                } else {
                    RcLine::unterminated(Ohm::from_kohm(2.0), Farad::from_pf(1.0), segments)
                };
                cached.set_termination_bias(Volt(0.6));
                let mut reference = cached.clone();
                let mut va_prev = Volt(0.6);
                for k in 0..3000 {
                    // dt and coupling switch mid-stream, in runs and step
                    // by step, so a stale elimination cannot hide.
                    let dt = Sec::from_ps([25.0, 50.0, 400.0][(k / 97 + k % 3 / 2) % 3]);
                    let cc = Farad::from_ff([0.0, 40.0, 100.0][(k / 61) % 3]);
                    let vin = Volt(0.6 + 0.03 * rng.gaussian());
                    let va = Volt(if rng.next_bool() { 1.2 } else { 0.0 });
                    let what = format!("segments {segments} terminated {terminated} step {k}");
                    let (a, b) = if k % 5 == 0 {
                        (
                            cached.step(vin, dt),
                            reference_step(&mut reference, vin, dt, None),
                        )
                    } else {
                        (
                            cached.step_with_aggressor(vin, dt, va, va_prev, cc),
                            reference_step(&mut reference, vin, dt, Some((va, va_prev, cc))),
                        )
                    };
                    assert_eq!(a.value().to_bits(), b.value().to_bits(), "{what}");
                    assert_bits_equal(&cached, &reference, &what);
                    va_prev = va;
                }
                assert_eq!(cached.steps(), [3000]);
            }
        }
    }

    /// Eight lines that differ lane by lane: length, termination (every
    /// third open) and bias.
    fn mixed_lines(segments: usize) -> [RcLine; 8] {
        array::from_fn(|l| {
            let r = Ohm::from_kohm(0.5 + 0.4 * l as f64);
            let c = Farad::from_pf(0.2 + 0.15 * l as f64);
            let mut line = if l % 3 == 2 {
                RcLine::unterminated(r, c, segments)
            } else {
                RcLine::new(r, c, segments, r)
            };
            line.set_termination_bias(Volt(0.55 + 0.01 * l as f64));
            line
        })
    }

    /// One step's drive for eight lanes: step `k` of a run in which each
    /// lane alternates `ui/os` and `ui` like [`crate::LowSwingLink`] at
    /// its own rate, switches its coupling in runs of its own length,
    /// and sees random aggressor edges.
    fn mixed_drive(rng: &mut rt::rng::Rng, k: usize, va_prev: [Volt; 8]) -> Drive<8> {
        Drive {
            vin: array::from_fn(|_| Volt(0.6 + 0.03 * rng.gaussian())),
            dt: array::from_fn(|l| {
                let ui = 200.0 + 50.0 * l as f64;
                Sec::from_ps(if k.is_multiple_of(l + 3) {
                    ui
                } else {
                    ui / 8.0
                })
            }),
            va_now: array::from_fn(|_| Volt(if rng.next_bool() { 1.2 } else { 0.0 })),
            va_prev,
            c_couple: array::from_fn(|l| {
                Farad::from_ff([0.0, 40.0, 100.0][(k / (50 + 7 * l) + l) % 3])
            }),
        }
    }

    #[test]
    fn every_lane_of_a_bundle_is_bit_identical_to_a_lone_reference_line() {
        let mut rng = rt::rng::Rng::seed_from_u64(29);
        for segments in [1, 2, 6, 10] {
            let lines = mixed_lines(segments);
            let mut lone = lines.clone();
            let mut bundle = RcLadders::bundle(lines);
            let mut va_prev = [Volt(0.6); 8];
            for k in 0..1500 {
                let drive = mixed_drive(&mut rng, k, va_prev);
                let out = bundle.step_lanes(&drive);
                for (l, line) in lone.iter_mut().enumerate() {
                    let aggressor = (drive.va_now[l], drive.va_prev[l], drive.c_couple[l]);
                    let want = reference_step(line, drive.vin[l], drive.dt[l], Some(aggressor));
                    let what = format!("segments {segments} lane {l} step {k}");
                    assert_eq!(out[l].value().to_bits(), want.value().to_bits(), "{what}");
                    for (i, (node, [v])) in bundle.nodes.iter().zip(&line.nodes).enumerate() {
                        assert_eq!(node[l].to_bits(), v.to_bits(), "{what}: node {i}");
                    }
                }
                va_prev = drive.va_now;
            }
            assert_eq!(bundle.steps(), [1500; 8]);
            // Each lane re-factors only when its own (dt, coupling) moves.
            assert!(bundle.factorizations().iter().all(|&b| b > 2 && b < 1500));
        }
    }

    #[test]
    fn every_boundary_shape_matches_the_per_step_solve() {
        // One segment makes node 0 the far node, so both boundary terms
        // land on it; two make the first eliminated node the far node.
        // Bundles mix terminated and open lanes; lone lines cover the
        // one-lane kernel at each count, terminated and open.
        let mut rng = rt::rng::Rng::seed_from_u64(32);
        for segments in 1..=12 {
            let lines = mixed_lines(segments);
            let mut lone = lines.clone();
            let mut bundle = RcLadders::bundle(lines);
            let mut singles = [lone[0].clone(), lone[2].clone()];
            let mut single_refs = singles.clone();
            let mut va_prev = [Volt(0.6); 8];
            for k in 0..400 {
                let drive = mixed_drive(&mut rng, k, va_prev);
                let out = bundle.step_lanes(&drive);
                for (l, line) in lone.iter_mut().enumerate() {
                    let aggressor = (drive.va_now[l], drive.va_prev[l], drive.c_couple[l]);
                    let want = reference_step(line, drive.vin[l], drive.dt[l], Some(aggressor));
                    let what = format!("segments {segments} lane {l} step {k}");
                    assert_eq!(out[l].value().to_bits(), want.value().to_bits(), "{what}");
                    for (i, (node, [v])) in bundle.nodes.iter().zip(&line.nodes).enumerate() {
                        assert_eq!(node[l].to_bits(), v.to_bits(), "{what}: node {i}");
                    }
                }
                for (l, (single, reference)) in singles.iter_mut().zip(&mut single_refs).enumerate()
                {
                    let (vin, dt, cc) = (drive.vin[l], drive.dt[l], drive.c_couple[l]);
                    let (va, va_prev) = (drive.va_now[l], drive.va_prev[l]);
                    let a = single.step_with_aggressor(vin, dt, va, va_prev, cc);
                    let b = reference_step(reference, vin, dt, Some((va, va_prev, cc)));
                    let what = format!("segments {segments} lone line {l} step {k}");
                    assert_eq!(a.value().to_bits(), b.value().to_bits(), "{what}");
                    assert_bits_equal(single, reference, &what);
                }
                va_prev = drive.va_now;
            }
        }
    }

    #[test]
    fn padding_lanes_leave_the_real_lanes_untouched() {
        // Lanes 0..3 are real; lanes 3..8 are padding, once copies of a
        // real lane and once other lines driven with garbage.
        let mut rng = rt::rng::Rng::seed_from_u64(30);
        let real = mixed_lines(6);
        let mut copies = RcLadders::bundle(array::from_fn(|l| real[l.min(2)].clone()));
        let mut garbage = RcLadders::bundle(array::from_fn(|l| {
            if l < 3 {
                real[l].clone()
            } else {
                RcLine::unterminated(Ohm(1e-3), Farad(1e-20), 6)
            }
        }));
        let mut va_prev = [Volt(0.6); 8];
        for k in 0..600 {
            let drive = mixed_drive(&mut rng, k, va_prev);
            let mut wild = drive;
            for l in 3..8 {
                wild.vin[l] = Volt(f64::NAN);
                wild.dt[l] = Sec(1e-30 * (k + 1) as f64);
                wild.c_couple[l] = Farad(f64::MAX);
            }
            let a = copies.step_lanes(&drive);
            let b = garbage.step_lanes(&wild);
            for l in 0..3 {
                assert_eq!(
                    a[l].value().to_bits(),
                    b[l].value().to_bits(),
                    "lane {l} step {k}"
                );
            }
            va_prev = drive.va_now;
        }
        for (i, (a, b)) in copies.nodes.iter().zip(&garbage.nodes).enumerate() {
            for l in 0..3 {
                assert_eq!(a[l].to_bits(), b[l].to_bits(), "node {i} lane {l}");
            }
        }
        assert_eq!(copies.steps()[..3], garbage.steps()[..3]);
        assert_eq!(copies.factorizations()[..3], garbage.factorizations()[..3]);
    }

    #[test]
    fn a_bundled_line_continues_where_it_stopped() {
        // Bundling carries a stepped line's nodes over: a line stepped
        // alone, then bundled, matches one stepped alone all along.
        let dt = Sec::from_ps(25.0);
        let mut alone = paper_line_with(6);
        alone.set_termination_bias(Volt(0.6));
        for _ in 0..40 {
            alone.step(Volt(0.63), dt);
        }
        let mut bundle = RcLadders::bundle([alone.clone(), paper_line_with(6)]);
        for _ in 0..40 {
            let out = alone.step(Volt(0.57), dt);
            let both = bundle.step_lanes(&Drive {
                vin: [Volt(0.57); 2],
                dt: [dt; 2],
                va_now: [Volt::ZERO; 2],
                va_prev: [Volt::ZERO; 2],
                c_couple: [Farad(0.0); 2],
            });
            assert_eq!(both[0].value().to_bits(), out.value().to_bits());
        }
        assert_eq!(bundle.steps(), [40, 40]);
        assert_eq!(bundle.factorizations(), [1, 1]);
    }

    #[test]
    #[should_panic(expected = "equal segment counts")]
    fn a_bundle_of_mixed_segment_counts_is_rejected() {
        let _ = RcLadders::bundle([paper_line_with(6), paper_line_with(6), paper_line_with(10)]);
    }

    #[test]
    fn delay_probe_matches_the_per_step_solve() {
        // The probe swaps v_term to 0 V and back; that changes the rhs,
        // never the factorization.
        let dt = Sec::from_ps(25.0);
        let mut cached = paper_line();
        cached.set_termination_bias(Volt(0.6));
        for _ in 0..50 {
            cached.step(Volt(0.63), Sec::from_ps(50.0));
        }
        let mut reference = cached.clone();

        let delay = cached.step_delay_50(dt, 100_000).expect("line settles");
        reference.preset(Volt::ZERO);
        reference.v_term = [0.0];
        let target = 0.5 * reference.dc_gain();
        let k = (0..100_000)
            .find(|_| reference_step(&mut reference, Volt(1.0), dt, None).value() >= target)
            .expect("reference settles");
        reference.v_term = [0.6];
        assert_eq!(delay.value().to_bits(), (dt * k as f64).value().to_bits());
        assert_bits_equal(&cached, &reference, "after step_delay_50");

        // Back at the bias, stepping resumes identically.
        for _ in 0..200 {
            cached.step(Volt(0.57), dt);
            reference_step(&mut reference, Volt(0.57), dt, None);
        }
        assert_bits_equal(&cached, &reference, "after the probe");
    }

    #[test]
    fn equality_ignores_the_cached_factorization() {
        let fresh = {
            let mut l = paper_line();
            l.set_termination_bias(Volt(0.6));
            l
        };
        let mut stepped = fresh.clone();
        for _ in 0..100 {
            stepped.step_with_aggressor(
                Volt(0.63),
                Sec::from_ps(40.0),
                Volt(1.2),
                Volt::ZERO,
                Farad::from_ff(50.0),
            );
        }
        assert_ne!(stepped, fresh);
        stepped.preset(Volt(0.6));
        assert!(stepped.factorizations()[0] > fresh.factorizations()[0]);
        assert_eq!(stepped, fresh);
    }

    #[test]
    fn factorizes_once_per_dt_and_coupling() {
        let mut line = paper_line();
        let (dt, cc) = (Sec::from_ps(25.0), Farad::from_ff(80.0));
        for _ in 0..100 {
            line.step_with_aggressor(Volt(0.6), dt, Volt(1.2), Volt::ZERO, cc);
        }
        assert_eq!((line.steps(), line.factorizations()), ([100], [1]));
        // A plain step is the zero-coupling system; a new dt refactors.
        line.step(Volt(0.6), dt);
        line.step(Volt(0.6), dt);
        line.step(Volt(0.6), Sec::from_ps(400.0));
        assert_eq!((line.steps(), line.factorizations()), ([103], [3]));
    }

    #[test]
    fn settles_to_dc_divider() {
        let mut line = paper_line();
        let dt = Sec::from_ps(25.0);
        let mut out = Volt::ZERO;
        for _ in 0..10_000 {
            out = line.step(Volt(1.0), dt);
        }
        // R_line = R_term: divider of 0.5 toward v_term = 0.
        assert!((out.value() - 0.5).abs() < 1e-3, "settled to {out}");
        assert!((line.dc_gain() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unterminated_line_settles_to_input() {
        let mut line = RcLine::unterminated(Ohm::from_kohm(2.0), Farad::from_pf(1.0), 10);
        let dt = Sec::from_ps(25.0);
        let mut out = Volt::ZERO;
        for _ in 0..20_000 {
            out = line.step(Volt(0.8), dt);
        }
        assert!((out.value() - 0.8).abs() < 1e-3);
        assert_eq!(line.dc_gain(), 1.0);
    }

    #[test]
    fn output_is_low_passed() {
        // A single 400 ps pulse through the RC line must arrive attenuated.
        let mut line = paper_line();
        let dt = Sec::from_ps(25.0);
        let mut peak: f64 = 0.0;
        for k in 0..200 {
            let vin = if k < 16 { Volt(1.0) } else { Volt(0.0) };
            let out = line.step(vin, dt);
            peak = peak.max(out.value());
        }
        assert!(peak < 0.45, "pulse must be attenuated, peaked at {peak}");
        assert!(peak > 0.01, "but some energy must arrive");
    }

    #[test]
    fn stability_with_large_steps() {
        // Backward Euler must not oscillate even with dt far above the
        // per-segment time constant.
        let mut line = RcLine::new(
            Ohm::from_kohm(2.0),
            Farad::from_pf(1.0),
            50,
            Ohm::from_kohm(2.0),
        );
        let dt = Sec::from_ns(1.0); // segment tau = 40Ω*20fF = 0.8 ps << dt
        let mut prev = 0.0;
        for _ in 0..100 {
            let out = line.step(Volt(1.0), dt).value();
            assert!(out >= prev - 1e-12, "monotonic settling violated");
            assert!(out <= 0.5 + 1e-9);
            prev = out;
        }
    }

    #[test]
    fn termination_bias_presets_line() {
        let mut line = paper_line();
        line.set_termination_bias(Volt(0.6));
        assert!(line.nodes.iter().all(|&[v]| v == 0.6));
        // Driving at the bias keeps it there.
        let out = line.step(Volt(0.6), Sec::from_ps(25.0));
        assert!((out.value() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn step_delay_is_measurable_and_slow() {
        let mut line = paper_line();
        let delay = line
            .step_delay_50(Sec::from_ps(25.0), 100_000)
            .expect("line settles");
        // An RC-dominated 2 kΩ/1 pF line has a multi-hundred-ps 50 % delay:
        // comparable to or beyond the 400 ps UI, which is why the link
        // needs equalization.
        assert!(delay.ps() > 100.0, "delay {delay} too fast");
        assert!(delay.ps() < 2000.0, "delay {delay} too slow");
    }

    #[test]
    fn aggressor_disturbs_a_single_ended_victim() {
        let mut line = paper_line();
        line.set_termination_bias(Volt(0.6));
        let dt = Sec::from_ps(25.0);
        let cc = Farad::from_ff(100.0);
        // Quiet victim, full-swing aggressor edge.
        let mut peak: f64 = 0.0;
        let mut va_prev = Volt::ZERO;
        for k in 0..200 {
            let va = if k >= 20 { Volt(1.2) } else { Volt::ZERO };
            let out = line.step_with_aggressor(Volt(0.6), dt, va, va_prev, cc);
            peak = peak.max((out.value() - 0.6).abs());
            va_prev = va;
        }
        // A 1.2 V aggressor through 100 fF onto a 60 mV-swing line is a
        // signal-sized disturbance.
        assert!(
            peak * 1e3 > 10.0,
            "crosstalk peak only {:.1} mV",
            peak * 1e3
        );
    }

    #[test]
    fn differential_victim_rejects_common_mode_crosstalk() {
        // Both arms see the same aggressor: the differential output is
        // untouched — the reason the paper's interconnect is differential.
        let mk = || {
            let mut l = paper_line();
            l.set_termination_bias(Volt(0.6));
            l
        };
        let mut plus = mk();
        let mut minus = mk();
        let dt = Sec::from_ps(25.0);
        let cc = Farad::from_ff(100.0);
        let mut worst_diff: f64 = 0.0;
        let mut va_prev = Volt::ZERO;
        for k in 0..200 {
            let va = if k >= 20 { Volt(1.2) } else { Volt::ZERO };
            let op = plus.step_with_aggressor(Volt(0.63), dt, va, va_prev, cc);
            let om = minus.step_with_aggressor(Volt(0.57), dt, va, va_prev, cc);
            // After settling, the differential must stay at the driven
            // 30 mV (through the 0.5 divider) despite the aggressor.
            if k > 150 {
                worst_diff = worst_diff.max(((op - om).mv() - 30.0).abs());
            }
            va_prev = va;
        }
        assert!(
            worst_diff < 1.0,
            "differential disturbed by {worst_diff:.2} mV"
        );
    }

    #[test]
    fn aggressor_step_matches_plain_step_when_decoupled_aggressor_is_quiet() {
        let dt = Sec::from_ps(25.0);
        let mut a = paper_line();
        let mut b = paper_line();
        for k in 0..100 {
            let vin = Volt(if k % 16 < 8 { 0.63 } else { 0.57 });
            let va = a.step(vin, dt);
            // Quiet aggressor with nonzero coupling still loads the line,
            // so compare with zero coupling instead.
            let vb = b.step_with_aggressor(vin, dt, Volt(0.6), Volt(0.6), Farad(1e-21));
            assert!((va - vb).abs().mv() < 0.1, "step {k}: {va} vs {vb}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_panics() {
        let _ = RcLine::new(Ohm(1.0), Farad(1e-12), 0, Ohm(1.0));
    }

    #[test]
    #[should_panic(expected = "parameters must be positive")]
    fn nonpositive_r_panics() {
        let _ = RcLine::new(Ohm(0.0), Farad(1e-12), 4, Ohm(1.0));
    }
}
