//! Fabric-scale link-farm parameter sweeps.
//!
//! The paper characterizes one repeaterless low-swing link; a real
//! interconnect fabric is a *grid* of them — many wire lengths, swing
//! voltages, segmentations, mismatch populations, data rates, lane
//! counts and neighbor-coupling regimes. This module turns that grid
//! into a declarative, deterministic workload:
//!
//! * [`FarmAxes`] / [`FarmGrid`] — the sweep axes and their validated,
//!   fingerprinted cartesian product. Cell enumeration is row-major in a
//!   fixed axis order, so the grid is a pure function of the axes and a
//!   seed — never of thread count or submission order.
//! * [`FarmCell`] — one configuration point. [`FarmCell::evaluate`]
//!   simulates the cell's victim lane twice — neighbors quiet
//!   (`coupling = 0`) and neighbors switching through the coupling
//!   capacitance ([`Drive::c_couple`]) — and scores the eye
//!   opening, a first-order BER, and a mismatch Monte-Carlo detection
//!   census ([`CellRecord`]).
//! * [`LinkFarm`] — the whole sweep as one sharded [`rt::exec`] job:
//!   checkpointable, panic-isolated, byte-identical at any thread count,
//!   instrumented with an [`rt::obs`] span per shard and one per bundle
//!   of eyes (`farm.bundle.<first cell>-<last cell>`).
//!
//! The crosstalk mechanism is the victim's *asymmetric* exposure: the
//! aggressor's near wire couples the full `coupling · C_total` into the
//! victim arm facing it but only [`FAR_ARM_COUPLING`] of that into the
//! far arm, so — unlike the perfectly common-mode textbook case — a
//! differential residue survives and closes the eye. A cell with one
//! lane has no neighbors and is immune regardless of the coupling axis.
//!
//! Hot path: most of a cell's time is the two arms' RC ladder solve, and
//! one ladder's sweeps are chains of dependent operations. So a shard
//! steps its eyes together: it collects them (one per quiet cell, two per
//! cell whose neighbours switch), groups them by segment count in cell
//! order, and advances four eyes — eight lines — per [`RcLadders`]
//! bundle, whose independent lanes keep the pipelines busy
//! ([`LinkFarm::run_shard`]), one fused forward and one back sweep per
//! step. On the tracked 1296-cell grid swept on one thread (release
//! build, 2-vCPU VM), the bundle steps with their waveform pushes take
//! about 71 % of the sweep. Each
//! lane repeats a lone line's arithmetic, so no record changes by a bit,
//! and work counters stay per eye and per cell. The rest is kept out of
//! the per-sample and per-cell loops the same way: the eye folds UI by UI
//! ([`EyeDiagram::from_waveform`]), and the timing margin's `Q⁻¹(1e-9)`
//! bisection runs once per process rather than once per cell
//! ([`FarmCell::evaluate`]).
//!
//! # Examples
//!
//! ```
//! use link::farm::{FarmAxes, FarmGrid, LinkFarm};
//! use rt::exec::RetryPolicy;
//!
//! let mut axes = FarmAxes::paper_point();
//! axes.couplings = vec![0.0, 0.3];
//! axes.lanes = vec![4];
//! let farm = LinkFarm::new(FarmGrid::new(axes, 7).unwrap());
//! let report = farm.run(2, &RetryPolicy::none(), None);
//! assert!(report.is_complete());
//! let quiet = &report.records[0];
//! let noisy = &report.records[1];
//! assert!(noisy.eye_coupled_mv < quiet.eye_coupled_mv, "coupling must close the eye");
//! ```

use crate::ber::{q_inverse, BerModel};
use crate::channel::{Drive, RcLadders, RcLine};
use crate::config::{ChannelConfig, LinkConfig};
use crate::eye::EyeDiagram;
use crate::tx::Transmitter;
use msim::params::DesignParams;
use msim::signal::Waveform;
use msim::units::{Farad, Hertz, Ohm, Volt};
use rt::exec::{self, Checkpoint, ExecReport, RetryPolicy, Shard, ShardJob};
use rt::rng::Rng;
use std::array;
use std::sync::OnceLock;

/// Version stamp mixed into every grid fingerprint; bump whenever the
/// cell evaluation or record encoding changes meaning.
pub const FARM_VERSION: u64 = 1;

/// Grid cells per [`rt::exec`] shard.
pub const FARM_SHARD_SIZE: usize = 64;

/// Series resistance per millimeter of minimum-pitch wire (Ω/mm); 10 mm
/// reproduces [`ChannelConfig::long_wire`]'s 2 kΩ.
pub const R_PER_MM: f64 = 200.0;

/// Shunt capacitance per millimeter of wire (F/mm); 10 mm reproduces
/// [`ChannelConfig::long_wire`]'s 1 pF.
pub const C_PER_MM: f64 = 0.1e-12;

/// Fraction of the near-arm coupling capacitance that also reaches the
/// victim's far arm. 1.0 would be the perfectly common-mode case the
/// differential link rejects; routed pairs see less than that, and the
/// difference is the differential crosstalk residue.
pub const FAR_ARM_COUPLING: f64 = 0.35;

/// PRBS bits simulated per cell (victim and aggressor streams).
pub const BITS_PER_CELL: usize = 96;

/// Mismatch Monte-Carlo instances scored per cell.
pub const MISMATCH_INSTANCES: usize = 8;

/// Waveform samples per UI used by cell evaluation.
const CELL_OVERSAMPLE: usize = 8;

/// BER target for the per-cell timing-margin record.
const MARGIN_TARGET_BER: f64 = 1e-9;

/// Candidate integer-UI latencies `0..=EYE_MAX_DELAY_UI` each eye scans.
const EYE_MAX_DELAY_UI: usize = 4;

/// Bytes of one encoded [`CellRecord`] in a checkpoint payload.
pub const RECORD_BYTES: usize = 4 + 4 * 8 + 4 * 4;

/// A grid-validation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmError {
    /// An axis holds no values; the cartesian product would be empty.
    EmptyAxis(&'static str),
    /// An axis value is NaN or infinite.
    NonFinite(&'static str),
    /// An axis value lies outside its physical range.
    OutOfRange(&'static str),
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::EmptyAxis(axis) => write!(f, "axis {axis:?} is empty"),
            FarmError::NonFinite(axis) => write!(f, "axis {axis:?} holds a non-finite value"),
            FarmError::OutOfRange(axis) => write!(f, "axis {axis:?} value out of range"),
        }
    }
}

impl std::error::Error for FarmError {}

/// The declarative sweep axes. The cartesian product in this field
/// order — lengths outermost, couplings innermost — is the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmAxes {
    /// Wire lengths in millimeters (scale the channel R and C).
    pub lengths_mm: Vec<f64>,
    /// Differential swing voltages in millivolts.
    pub swings_mv: Vec<f64>,
    /// L-segment counts of the channel model.
    pub segments: Vec<usize>,
    /// Comparator-offset mismatch σ in millivolts.
    pub sigmas_mv: Vec<f64>,
    /// Data rates in Gbps.
    pub rates_gbps: Vec<f64>,
    /// Lane counts of the deployment (1 lane ⇒ no aggressors).
    pub lanes: Vec<usize>,
    /// Neighbor coupling factors: coupling capacitance per aggressor as
    /// a fraction of the victim arm's total shunt capacitance.
    pub couplings: Vec<f64>,
}

impl FarmAxes {
    /// The degenerate one-point grid at the paper's design point.
    pub fn paper_point() -> FarmAxes {
        FarmAxes {
            lengths_mm: vec![10.0],
            swings_mv: vec![60.0],
            segments: vec![10],
            sigmas_mv: vec![0.0],
            rates_gbps: vec![2.5],
            lanes: vec![2],
            couplings: vec![0.0],
        }
    }

    /// Checks every axis: non-empty, finite, physically plausible.
    ///
    /// # Errors
    ///
    /// Returns the first [`FarmError`] found, axis by axis in field
    /// order.
    pub fn validate(&self) -> Result<(), FarmError> {
        let check_f = |name, vals: &[f64], lo: f64, hi: f64| {
            if vals.is_empty() {
                return Err(FarmError::EmptyAxis(name));
            }
            for &v in vals {
                if !v.is_finite() {
                    return Err(FarmError::NonFinite(name));
                }
                if !(lo..=hi).contains(&v) {
                    return Err(FarmError::OutOfRange(name));
                }
            }
            Ok(())
        };
        let check_u = |name, vals: &[usize], lo: usize, hi: usize| {
            if vals.is_empty() {
                return Err(FarmError::EmptyAxis(name));
            }
            if vals.iter().any(|v| !(lo..=hi).contains(v)) {
                return Err(FarmError::OutOfRange(name));
            }
            Ok(())
        };
        check_f("lengths_mm", &self.lengths_mm, 0.1, 50.0)?;
        check_f("swings_mv", &self.swings_mv, 5.0, 400.0)?;
        check_u("segments", &self.segments, 1, 64)?;
        check_f("sigmas_mv", &self.sigmas_mv, 0.0, 50.0)?;
        check_f("rates_gbps", &self.rates_gbps, 0.1, 20.0)?;
        check_u("lanes", &self.lanes, 1, 1024)?;
        check_f("couplings", &self.couplings, 0.0, 2.0)?;
        Ok(())
    }

    /// Number of grid cells (the product of the axis lengths).
    pub fn total(&self) -> usize {
        self.lengths_mm.len()
            * self.swings_mv.len()
            * self.segments.len()
            * self.sigmas_mv.len()
            * self.rates_gbps.len()
            * self.lanes.len()
            * self.couplings.len()
    }
}

/// A validated grid: axes plus the base seed of the per-cell RNG
/// substreams.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmGrid {
    axes: FarmAxes,
    seed: u64,
}

impl FarmGrid {
    /// Validates `axes` and freezes the grid.
    ///
    /// # Errors
    ///
    /// Returns [`FarmError`] when any axis is empty, non-finite or out
    /// of range (see [`FarmAxes::validate`]).
    pub fn new(axes: FarmAxes, seed: u64) -> Result<FarmGrid, FarmError> {
        axes.validate()?;
        Ok(FarmGrid { axes, seed })
    }

    /// The axes.
    pub fn axes(&self) -> &FarmAxes {
        &self.axes
    }

    /// The Monte-Carlo base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of cells.
    pub fn total(&self) -> usize {
        self.axes.total()
    }

    /// The cell at row-major index `index` (couplings vary fastest,
    /// lengths slowest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= total()`.
    pub fn cell(&self, index: usize) -> FarmCell {
        assert!(index < self.total(), "cell index out of range");
        let a = &self.axes;
        let mut rem = index;
        let take = |rem: &mut usize, n: usize| {
            let i = *rem % n;
            *rem /= n;
            i
        };
        // Unwind innermost-first.
        let i_coupling = take(&mut rem, a.couplings.len());
        let i_lane = take(&mut rem, a.lanes.len());
        let i_rate = take(&mut rem, a.rates_gbps.len());
        let i_sigma = take(&mut rem, a.sigmas_mv.len());
        let i_seg = take(&mut rem, a.segments.len());
        let i_swing = take(&mut rem, a.swings_mv.len());
        let i_len = take(&mut rem, a.lengths_mm.len());
        FarmCell {
            index,
            length_mm: a.lengths_mm[i_len],
            swing_mv: a.swings_mv[i_swing],
            segments: a.segments[i_seg],
            sigma_mv: a.sigmas_mv[i_sigma],
            rate_gbps: a.rates_gbps[i_rate],
            lanes: a.lanes[i_lane],
            coupling: a.couplings[i_coupling],
        }
    }

    /// The grid's content address: [`rt::exec::fingerprint`] over the
    /// farm version, the seed, and every axis (length-prefixed, values
    /// as IEEE-754 bit patterns). Two grids with the same axes in the
    /// same order share it; reordering values within an axis does not,
    /// because order is the grid order.
    pub fn fingerprint(&self) -> u64 {
        let a = &self.axes;
        let mut parts = vec![FARM_VERSION, self.seed];
        let push_f = |vals: &[f64], parts: &mut Vec<u64>| {
            parts.push(vals.len() as u64);
            parts.extend(vals.iter().map(|v| v.to_bits()));
        };
        push_f(&a.lengths_mm, &mut parts);
        push_f(&a.swings_mv, &mut parts);
        parts.push(a.segments.len() as u64);
        parts.extend(a.segments.iter().map(|&v| v as u64));
        push_f(&a.sigmas_mv, &mut parts);
        push_f(&a.rates_gbps, &mut parts);
        parts.push(a.lanes.len() as u64);
        parts.extend(a.lanes.iter().map(|&v| v as u64));
        push_f(&a.couplings, &mut parts);
        exec::fingerprint(&parts)
    }
}

/// One grid configuration point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarmCell {
    /// Row-major index in the grid.
    pub index: usize,
    /// Wire length in millimeters.
    pub length_mm: f64,
    /// Differential swing in millivolts.
    pub swing_mv: f64,
    /// Channel L-segment count.
    pub segments: usize,
    /// Comparator mismatch σ in millivolts.
    pub sigma_mv: f64,
    /// Data rate in Gbps.
    pub rate_gbps: f64,
    /// Lane count.
    pub lanes: usize,
    /// Neighbor coupling factor.
    pub coupling: f64,
}

impl FarmCell {
    /// Number of switching aggressors a victim lane sees: its immediate
    /// neighbors (two for an interior lane of a ≥3-lane bus).
    pub fn aggressors(&self) -> usize {
        (self.lanes - 1).min(2)
    }

    /// The full [`LinkConfig`] this cell describes: the paper's design
    /// point with the cell's swing and data rate, over a matched-
    /// terminated wire scaled by [`R_PER_MM`]/[`C_PER_MM`].
    pub fn link_config(&self) -> LinkConfig {
        let mut params = DesignParams::paper();
        params.swing = Volt::from_mv(self.swing_mv);
        params.data_rate = Hertz::from_ghz(self.rate_gbps);
        let r_total = Ohm(R_PER_MM * self.length_mm);
        let c_total = Farad(C_PER_MM * self.length_mm);
        let paper = LinkConfig::paper();
        LinkConfig {
            params,
            channel: ChannelConfig {
                r_total,
                c_total,
                segments: self.segments,
                r_term: r_total,
            },
            ffe_boost: paper.ffe_boost,
            oversample: CELL_OVERSAMPLE,
            eye_center_ui: paper.eye_center_ui,
            eye_half_width_ui: paper.eye_half_width_ui,
            jitter_rms_ui: paper.jitter_rms_ui,
        }
    }

    /// Whether the cell scores a second, quiet eye: its neighbours
    /// switch through a nonzero coupling, so the coupled and uncoupled
    /// eyes differ.
    fn has_quiet_eye(&self) -> bool {
        self.coupling != 0.0 && self.aggressors() > 0
    }

    /// Evaluates the cell: simulates the coupled and uncoupled eyes,
    /// derives the first-order BER/timing-margin records, and runs the
    /// mismatch Monte-Carlo detection census. Pure in `(self, seed)` —
    /// the executor may run it on any thread, in any order.
    ///
    /// This is the one-cell case of a shard's batch
    /// ([`LinkFarm::run_shard`]): the cell's eyes are stepped in one
    /// [`RcLadders`] bundle, its idle lanes padding, so the record equals
    /// the one the cell gets among any batch neighbours.
    ///
    /// The timing margin is [`BerModel::timing_margin`] at the 1e-9
    /// target, bit for bit, but the target's `Q⁻¹` bisection runs once
    /// per process (a function-local `OnceLock`, filled by the first
    /// cell) instead of once per cell; each cell applies
    /// [`BerModel::margin_at_q`] to it.
    ///
    /// Detection model per mismatch instance with offset magnitude `o`:
    ///
    /// * **at-speed pass** — half the (coupled) eye opening clears `o`;
    /// * **DC pass** — the settled differential (swing through the
    ///   termination divider) clears the programmed comparator offset
    ///   plus `o`, aggressors quiet (a static test never activates
    ///   crosstalk).
    ///
    /// An instance failing at speed but passing DC is a fault only the
    /// at-speed victim/aggressor scenario activates — the paper's flow
    /// would ship it.
    pub fn evaluate(&self, seed: u64) -> CellRecord {
        let [record] = evaluate_batch(&[(*self, seed)])
            .try_into()
            .expect("one cell, one record");
        record
    }

    /// Scores the cell from its two eye openings: the BER/timing-margin
    /// records and the mismatch Monte-Carlo census.
    fn census(
        &self,
        cfg: &LinkConfig,
        seed: u64,
        eye_coupled: Volt,
        eye_uncoupled: Volt,
    ) -> CellRecord {
        // First-order amplitude-to-timing mapping: the phase-domain eye
        // half-width shrinks with the vertical closure ratio.
        let ratio = if eye_uncoupled.value() > 0.0 {
            (eye_coupled.value() / eye_uncoupled.value()).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let half_width = (cfg.eye_half_width_ui * ratio).max(1e-4);
        let model = BerModel::new(cfg.eye_center_ui, half_width, cfg.jitter_rms_ui);
        let ber = model.ber_at(cfg.eye_center_ui);
        static MARGIN_Q: OnceLock<f64> = OnceLock::new();
        let margin_ui = model.margin_at_q(*MARGIN_Q.get_or_init(|| q_inverse(MARGIN_TARGET_BER)));

        // DC levels: full swing through the line/termination divider,
        // matched here, so half the driven differential swing.
        let dc_mv = self.swing_mv * 0.5;
        let cmp_offset_mv = cfg.params.cmp_offset.mv();

        let mut mc = Rng::seed_from_stream(seed, 2);
        let mut failing = 0u32;
        let mut failing_uncoupled = 0u32;
        let mut dc_detected = 0u32;
        for _ in 0..MISMATCH_INSTANCES {
            let offset_mv = (self.sigma_mv * mc.gaussian()).abs();
            let at_speed_fail = eye_coupled.mv() * 0.5 <= offset_mv;
            let at_speed_fail_unc = eye_uncoupled.mv() * 0.5 <= offset_mv;
            let dc_fail = dc_mv <= cmp_offset_mv + offset_mv;
            if at_speed_fail {
                failing += 1;
                if dc_fail {
                    dc_detected += 1;
                }
            }
            if at_speed_fail_unc {
                failing_uncoupled += 1;
            }
        }
        rt::obs::count("farm.cells", 1);
        rt::obs::count("farm.instances", MISMATCH_INSTANCES as u64);
        CellRecord {
            index: self.index as u32,
            eye_uncoupled_mv: eye_uncoupled.mv(),
            eye_coupled_mv: eye_coupled.mv(),
            ber,
            margin_ui,
            instances: MISMATCH_INSTANCES as u32,
            failing,
            failing_uncoupled,
            dc_detected,
        }
    }
}

/// Eyes stepped together by one [`RcLadders`] bundle.
const BUNDLE_EYES: usize = 4;

/// Lanes of one bundle: the p and m arm of each eye.
const BUNDLE_LINES: usize = 2 * BUNDLE_EYES;

/// One eye to simulate: a cell's victim lane with its aggressors
/// switching through `coupling` of the line capacitance.
struct Eye<'a> {
    cell: &'a FarmCell,
    cfg: &'a LinkConfig,
    coupling: f64,
    seed: u64,
}

/// Evaluates `cells`, each with its seed, as one batch. Every cell's
/// eyes (the coupled one, then the quiet one where neighbours switch)
/// are grouped by segment count in cell order and stepped
/// [`BUNDLE_EYES`] at a time; then each cell runs its census. Records
/// come back in input order, each equal to [`FarmCell::evaluate`] of its
/// cell alone.
fn evaluate_batch(cells: &[(FarmCell, u64)]) -> Vec<CellRecord> {
    let cfgs: Vec<LinkConfig> = cells.iter().map(|(cell, _)| cell.link_config()).collect();
    let mut eyes = Vec::new();
    for ((cell, seed), cfg) in cells.iter().zip(&cfgs) {
        let eye = |coupling| Eye {
            cell,
            cfg,
            coupling,
            seed: *seed,
        };
        eyes.push(eye(cell.coupling));
        if cell.has_quiet_eye() {
            eyes.push(eye(0.0));
        }
    }
    let mut order: Vec<usize> = (0..eyes.len()).collect();
    order.sort_by_key(|&e| eyes[e].cell.segments);
    let mut openings = vec![Volt::ZERO; eyes.len()];
    for group in order.chunk_by(|&a, &b| eyes[a].cell.segments == eyes[b].cell.segments) {
        for bundle in group.chunks(BUNDLE_EYES) {
            let bundled: Vec<&Eye> = bundle.iter().map(|&e| &eyes[e]).collect();
            for (&e, opening) in bundle.iter().zip(eye_openings(&bundled)) {
                openings[e] = opening;
            }
        }
    }
    let mut openings = openings.into_iter();
    cells
        .iter()
        .zip(&cfgs)
        .map(|((cell, seed), cfg)| {
            let coupled = openings.next().expect("every cell has a coupled eye");
            let uncoupled = if cell.has_quiet_eye() {
                openings.next().expect("a switching cell has a quiet eye")
            } else {
                coupled
            };
            cell.census(cfg, *seed, coupled, uncoupled)
        })
        .collect()
}

/// Simulates each eye's victim lane and returns its best eye opening.
/// `coupling = 0.0` (or a single lane) is the uncoupled baseline. The
/// aggressor's near wire couples the full capacitance into the facing
/// victim arm and [`FAR_ARM_COUPLING`] of it into the far arm; the
/// asymmetry is the differential disturbance.
///
/// Eye `e`'s arms are lanes `2e` and `2e + 1` of one [`RcLadders`]
/// bundle; lanes past the last eye repeat its arms and are never read.
/// Counts the eyes' channel work as `farm.channel.steps` and
/// `farm.channel.factorizations`, and the alignment folds as
/// `farm.eye.folds`, per eye.
///
/// # Panics
///
/// Panics unless there are 1 to [`BUNDLE_EYES`] eyes, all of one
/// segment count.
fn eye_openings(eyes: &[&Eye]) -> Vec<Volt> {
    let k = eyes.len();
    assert!(
        (1..=BUNDLE_EYES).contains(&k),
        "{k} eyes do not fill one bundle"
    );
    let _span = rt::obs::span(format!(
        "farm.bundle.{}-{}",
        eyes[0].cell.index,
        eyes[k - 1].cell.index
    ));
    let os = CELL_OVERSAMPLE;
    // Lanes 2e and 2e + 1 carry eye e; padding lanes repeat the last eye.
    let eye_index = |lane: usize| (lane / 2).min(k - 1);
    let eye_of = |lane: usize| eyes[eye_index(lane)];
    let stream = |seed, index| {
        let mut rng = Rng::seed_from_stream(seed, index);
        (0..BITS_PER_CELL)
            .map(|_| rng.next_bool())
            .collect::<Vec<bool>>()
    };
    let tx = |e: &Eye| Transmitter::new(e.cfg.vcm(), e.cfg.params.swing, e.cfg.ffe_boost);
    let dt = |e: &Eye| e.cfg.params.ui() / os as f64;
    let bits: Vec<Vec<bool>> = eyes.iter().map(|e| stream(e.seed, 0)).collect();
    let abits: Vec<Vec<bool>> = eyes.iter().map(|e| stream(e.seed, 1)).collect();
    let mut tx_v: Vec<Transmitter> = eyes.iter().map(|e| tx(e)).collect();
    let mut tx_a: Vec<Transmitter> = eyes.iter().map(|e| tx(e)).collect();
    let mut waves: Vec<Waveform> = eyes.iter().map(|e| Waveform::new(dt(e))).collect();

    let mut ladders = RcLadders::bundle(array::from_fn(|lane| {
        let cfg = eye_of(lane).cfg;
        let mut line = RcLine::new(
            cfg.channel.r_total,
            cfg.channel.c_total,
            cfg.channel.segments,
            cfg.channel.r_term,
        );
        line.set_termination_bias(cfg.vcm());
        line
    }));
    let mut drive = Drive {
        vin: [Volt::ZERO; BUNDLE_LINES],
        dt: array::from_fn(|lane| dt(eye_of(lane))),
        va_now: [Volt::ZERO; BUNDLE_LINES],
        va_prev: array::from_fn(|lane| eye_of(lane).cfg.vcm()),
        c_couple: array::from_fn(|lane| {
            let e = eye_of(lane);
            let cc = e.coupling * e.cfg.channel.c_total.value() * e.cell.aggressors() as f64;
            Farad(if lane % 2 == 0 {
                cc
            } else {
                cc * FAR_ARM_COUPLING
            })
        }),
    };
    for b in 0..BITS_PER_CELL {
        let mut arms = [(Volt::ZERO, Volt::ZERO); BUNDLE_EYES];
        let mut va = [Volt::ZERO; BUNDLE_EYES];
        for e in 0..k {
            arms[e] = tx_v[e].drive_differential(bits[e][b]);
            va[e] = tx_a[e].drive_differential(abits[e][b]).0;
        }
        for lane in 0..BUNDLE_LINES {
            let (vp, vm) = arms[eye_index(lane)];
            drive.vin[lane] = if lane % 2 == 0 { vp } else { vm };
            drive.va_now[lane] = va[eye_index(lane)];
        }
        for _ in 0..os {
            let out = ladders.step_lanes(&drive);
            for (e, wave) in waves.iter_mut().enumerate() {
                wave.push(out[2 * e] - out[2 * e + 1]);
            }
            drive.va_prev = drive.va_now;
        }
    }
    let lanes = 2 * k;
    rt::obs::count("farm.channel.steps", ladders.steps()[..lanes].iter().sum());
    rt::obs::count(
        "farm.channel.factorizations",
        ladders.factorizations()[..lanes].iter().sum(),
    );
    rt::obs::count("farm.eye.folds", (EYE_MAX_DELAY_UI as u64 + 1) * k as u64);
    waves
        .iter()
        .zip(&bits)
        .map(|(wave, bits)| {
            EyeDiagram::from_waveform(wave, bits, os, EYE_MAX_DELAY_UI)
                .best()
                .1
        })
        .collect()
}

/// The per-cell result record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellRecord {
    /// Row-major cell index.
    pub index: u32,
    /// Best eye opening with aggressors quiet, in mV.
    pub eye_uncoupled_mv: f64,
    /// Best eye opening with aggressors switching, in mV.
    pub eye_coupled_mv: f64,
    /// First-order BER at the nominal sampling phase, coupled.
    pub ber: f64,
    /// Timing margin (UI) at the 1e-9 BER target, coupled.
    pub margin_ui: f64,
    /// Mismatch Monte-Carlo instances scored.
    pub instances: u32,
    /// Instances failing the at-speed test with aggressors switching.
    pub failing: u32,
    /// Instances failing the at-speed test with aggressors quiet.
    pub failing_uncoupled: u32,
    /// Failing instances the static DC test already catches.
    pub dc_detected: u32,
}

impl CellRecord {
    /// Failing instances only the at-speed victim/aggressor scenario
    /// detects (the DC tier misses them).
    pub fn at_speed_only(&self) -> u32 {
        self.failing - self.dc_detected
    }

    /// Instances whose failure exists *only* because the neighbors
    /// switch — the crosstalk-activated faults.
    pub fn xtalk_activated(&self) -> u32 {
        self.failing - self.failing_uncoupled
    }

    /// Encodes the record as [`RECORD_BYTES`] fixed-width bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.eye_uncoupled_mv.to_le_bytes());
        out.extend_from_slice(&self.eye_coupled_mv.to_le_bytes());
        out.extend_from_slice(&self.ber.to_le_bytes());
        out.extend_from_slice(&self.margin_ui.to_le_bytes());
        out.extend_from_slice(&self.instances.to_le_bytes());
        out.extend_from_slice(&self.failing.to_le_bytes());
        out.extend_from_slice(&self.failing_uncoupled.to_le_bytes());
        out.extend_from_slice(&self.dc_detected.to_le_bytes());
    }

    /// Decodes one record from exactly [`RECORD_BYTES`] bytes, or
    /// `None` when the slice has the wrong length.
    pub fn decode(bytes: &[u8]) -> Option<CellRecord> {
        if bytes.len() != RECORD_BYTES {
            return None;
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().ok().unwrap());
        let f64_at = |at: usize| f64::from_le_bytes(bytes[at..at + 8].try_into().ok().unwrap());
        Some(CellRecord {
            index: u32_at(0),
            eye_uncoupled_mv: f64_at(4),
            eye_coupled_mv: f64_at(12),
            ber: f64_at(20),
            margin_ui: f64_at(28),
            instances: u32_at(36),
            failing: u32_at(40),
            failing_uncoupled: u32_at(44),
            dc_detected: u32_at(48),
        })
    }
}

/// The whole sweep as one sharded, checkpointable [`rt::exec`] job.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFarm {
    grid: FarmGrid,
}

impl LinkFarm {
    /// Wraps a validated grid.
    pub fn new(grid: FarmGrid) -> LinkFarm {
        LinkFarm { grid }
    }

    /// The grid.
    pub fn grid(&self) -> &FarmGrid {
        &self.grid
    }

    /// The deterministic shard plan: cells cut into
    /// [`FARM_SHARD_SIZE`]-cell shards. A function of the grid size
    /// only — never of the thread count.
    pub fn plan(&self) -> Vec<Shard> {
        exec::plan(self.grid.total(), FARM_SHARD_SIZE)
    }

    /// The sweep's content address (the grid fingerprint) — keys the
    /// checkpoint file and the serve result cache.
    pub fn fingerprint(&self) -> u64 {
        self.grid.fingerprint()
    }

    /// Runs one shard: evaluates its cells as one batch, each under its
    /// own decorrelated RNG substream (keyed by the grid seed and the cell
    /// index, so a resumed or re-sharded run scores identical instances).
    /// The shard's eyes are stepped four at a time (eight lines per
    /// [`RcLadders`] bundle), grouped by segment count; each record
    /// equals [`FarmCell::evaluate`] of its cell alone.
    pub fn run_shard(&self, shard: &Shard) -> Vec<CellRecord> {
        let _span = rt::obs::span(format!("shard.link_farm.{}", shard.index));
        let cells: Vec<(FarmCell, u64)> = shard
            .range()
            .map(|i| {
                let seed = Rng::seed_from_stream(self.grid.seed(), i as u64).next_u64();
                (self.grid.cell(i), seed)
            })
            .collect();
        evaluate_batch(&cells)
    }

    /// Runs the whole sweep through [`rt::exec::run_shards`]: panic
    /// isolation, bounded retry, optional checkpoint resume. Records
    /// come back in cell order, byte-identical at any thread count.
    pub fn run(
        &self,
        threads: usize,
        retry: &RetryPolicy,
        checkpoint: Option<&mut Checkpoint>,
    ) -> ExecReport<CellRecord> {
        let plan = self.plan();
        exec::run_shards(threads, retry, checkpoint, &plan, self)
    }
}

impl ShardJob for LinkFarm {
    type Record = CellRecord;

    fn run(&self, shard: &Shard) -> Vec<CellRecord> {
        self.run_shard(shard)
    }

    fn encode(&self, _shard: &Shard, records: &[CellRecord], out: &mut Vec<u8>) {
        for r in records {
            r.encode(out);
        }
    }

    fn decode(&self, shard: &Shard, payload: &[u8]) -> Option<Vec<CellRecord>> {
        if payload.len() != shard.len * RECORD_BYTES {
            return None;
        }
        let records: Vec<CellRecord> = payload
            .chunks_exact(RECORD_BYTES)
            .filter_map(CellRecord::decode)
            .collect();
        // Indices must match the shard's cell range, or the payload
        // belongs to some other plan.
        if records.len() != shard.len
            || !records
                .iter()
                .zip(shard.range())
                .all(|(r, i)| r.index as usize == i)
        {
            return None;
        }
        Some(records)
    }
}

fn fmt_f(v: f64) -> String {
    format!("{v:.3}")
}

/// Aggregates the eye/margin surface over wire length × coupling: the
/// worst (minimum) coupled eye and timing margin across every other
/// axis. One row per `(length, coupling)` pair, in grid order.
pub fn eye_surface_csv(grid: &FarmGrid, records: &[CellRecord]) -> String {
    let a = grid.axes();
    let mut out = String::from(
        "length_mm,coupling,min_eye_coupled_mv,min_eye_uncoupled_mv,min_margin_ui,max_ber\n",
    );
    for &length in &a.lengths_mm {
        for &coupling in &a.couplings {
            let mut min_c = f64::INFINITY;
            let mut min_u = f64::INFINITY;
            let mut min_m = f64::INFINITY;
            let mut max_b = 0.0f64;
            for r in records {
                let c = grid.cell(r.index as usize);
                if c.length_mm == length && c.coupling == coupling {
                    min_c = min_c.min(r.eye_coupled_mv);
                    min_u = min_u.min(r.eye_uncoupled_mv);
                    min_m = min_m.min(r.margin_ui);
                    max_b = max_b.max(r.ber);
                }
            }
            out.push_str(&format!(
                "{},{},{},{},{:.4},{:.3e}\n",
                fmt_f(length),
                fmt_f(coupling),
                fmt_f(min_c),
                fmt_f(min_u),
                min_m,
                max_b,
            ));
        }
    }
    out
}

/// Aggregates the detection surface over mismatch σ × coupling: summed
/// Monte-Carlo instances, at-speed failures, DC catches and
/// crosstalk-activated faults. One row per `(sigma, coupling)` pair.
pub fn detect_surface_csv(grid: &FarmGrid, records: &[CellRecord]) -> String {
    let a = grid.axes();
    let mut out = String::from(
        "sigma_mv,coupling,instances,failing,dc_detected,at_speed_only,xtalk_activated\n",
    );
    for &sigma in &a.sigmas_mv {
        for &coupling in &a.couplings {
            let mut instances = 0u64;
            let mut failing = 0u64;
            let mut dc = 0u64;
            let mut at_speed = 0u64;
            let mut activated = 0u64;
            for r in records {
                let c = grid.cell(r.index as usize);
                if c.sigma_mv == sigma && c.coupling == coupling {
                    instances += u64::from(r.instances);
                    failing += u64::from(r.failing);
                    dc += u64::from(r.dc_detected);
                    at_speed += u64::from(r.at_speed_only());
                    activated += u64::from(r.xtalk_activated());
                }
            }
            out.push_str(&format!(
                "{},{},{instances},{failing},{dc},{at_speed},{activated}\n",
                fmt_f(sigma),
                fmt_f(coupling),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-cell eye path the batched shard replaced: one cell's eye
    /// stepped alone on two [`RcLine`]s. The oracle every batched eye
    /// must match bit for bit.
    fn eye_opening(cell: &FarmCell, cfg: &LinkConfig, coupling: f64, rng_seed: u64) -> Volt {
        let vcm = cfg.vcm();
        let mut bit_rng = Rng::seed_from_stream(rng_seed, 0);
        let bits: Vec<bool> = (0..BITS_PER_CELL).map(|_| bit_rng.next_bool()).collect();
        let mut agg_rng = Rng::seed_from_stream(rng_seed, 1);
        let abits: Vec<bool> = (0..BITS_PER_CELL).map(|_| agg_rng.next_bool()).collect();

        let mut tx_v = Transmitter::new(vcm, cfg.params.swing, cfg.ffe_boost);
        let mut tx_a = Transmitter::new(vcm, cfg.params.swing, cfg.ffe_boost);
        let mk_line = || {
            let mut line = RcLine::new(
                cfg.channel.r_total,
                cfg.channel.c_total,
                cfg.channel.segments,
                cfg.channel.r_term,
            );
            line.set_termination_bias(vcm);
            line
        };
        let mut line_p = mk_line();
        let mut line_m = mk_line();

        let cc = coupling * cfg.channel.c_total.value() * cell.aggressors() as f64;
        let cc_near = Farad(cc);
        let cc_far = Farad(cc * FAR_ARM_COUPLING);

        let os = cfg.oversample;
        let dt = cfg.params.ui() / os as f64;
        let mut wave = Waveform::new(dt);
        let mut va_prev = vcm;
        for (&bit, &abit) in bits.iter().zip(&abits) {
            let (vp, vm) = tx_v.drive_differential(bit);
            let (va, _) = tx_a.drive_differential(abit);
            for _ in 0..os {
                let op = line_p.step_with_aggressor(vp, dt, va, va_prev, cc_near);
                let om = line_m.step_with_aggressor(vm, dt, va, va_prev, cc_far);
                wave.push(op - om);
                va_prev = va;
            }
        }
        EyeDiagram::from_waveform(&wave, &bits, os, EYE_MAX_DELAY_UI)
            .best()
            .1
    }

    /// [`FarmCell::evaluate`] as it was before shards were batched: both
    /// eyes through [`eye_opening`], then the census.
    fn per_cell_record(cell: &FarmCell, seed: u64) -> CellRecord {
        let cfg = cell.link_config();
        let coupled = eye_opening(cell, &cfg, cell.coupling, seed);
        let uncoupled = if cell.coupling == 0.0 || cell.aggressors() == 0 {
            coupled
        } else {
            eye_opening(cell, &cfg, 0.0, seed)
        };
        cell.census(&cfg, seed, coupled, uncoupled)
    }

    fn tiny_axes() -> FarmAxes {
        FarmAxes {
            lengths_mm: vec![5.0, 10.0],
            swings_mv: vec![60.0],
            segments: vec![4],
            sigmas_mv: vec![0.0, 8.0],
            rates_gbps: vec![2.5],
            lanes: vec![1, 4],
            couplings: vec![0.0, 0.3],
        }
    }

    /// A grid whose segment counts {1, 3, 6} change every eight cells,
    /// so any run of cells longer than that mixes them.
    fn mixed_segment_farm() -> LinkFarm {
        let axes = FarmAxes {
            lengths_mm: vec![3.0, 9.0, 16.0],
            swings_mv: vec![60.0],
            segments: vec![1, 3, 6],
            sigmas_mv: vec![6.0],
            rates_gbps: vec![1.0, 2.5],
            lanes: vec![1, 4],
            couplings: vec![0.0, 0.04],
        };
        LinkFarm::new(FarmGrid::new(axes, 13).unwrap())
    }

    fn bytes(records: &[CellRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            r.encode(&mut out);
        }
        out
    }

    #[test]
    fn batched_shards_match_the_per_cell_path_and_lone_cells() {
        let farm = mixed_segment_farm();
        let grid = farm.grid();
        assert_eq!(grid.total(), 72);
        // Shards of 1, 5 and 64 cells: the 5-cell one straddles a segment
        // change, the 64-cell one interleaves all three segment counts,
        // and each has a segment group whose eyes do not fill whole
        // bundles, so padding lanes run.
        for (index, start, len) in [(0, 3, 1), (1, 6, 5), (2, 5, 64)] {
            let shard = Shard { index, start, len };
            let cells: Vec<FarmCell> = shard.range().map(|i| grid.cell(i)).collect();
            let mut groups = std::collections::BTreeMap::new();
            for c in &cells {
                *groups.entry(c.segments).or_insert(0) += 1 + u64::from(c.has_quiet_eye());
            }
            let eyes: u64 = groups.values().sum();
            assert!(
                groups.values().any(|e| e % BUNDLE_EYES as u64 != 0),
                "shard {start}+{len}: {groups:?}"
            );

            let (batched, metrics, _) = rt::obs::observe(|| farm.run_shard(&shard));
            let seeds = shard
                .range()
                .map(|i| Rng::seed_from_stream(grid.seed(), i as u64).next_u64());
            let per_cell: Vec<CellRecord> = cells
                .iter()
                .zip(seeds.clone())
                .map(|(c, seed)| per_cell_record(c, seed))
                .collect();
            let alone: Vec<CellRecord> = cells
                .iter()
                .zip(seeds)
                .map(|(c, seed)| c.evaluate(seed))
                .collect();
            assert_eq!(bytes(&batched), bytes(&per_cell), "shard {start}+{len}");
            assert_eq!(bytes(&alone), bytes(&per_cell), "cells {start}+{len} alone");

            // Work counts are per eye and per cell; padding lanes count
            // nothing.
            let per_eye_steps = 2 * (BITS_PER_CELL * CELL_OVERSAMPLE) as u64;
            let count = |name| metrics.counter(name);
            assert_eq!(count("farm.channel.steps"), Some(eyes * per_eye_steps));
            assert_eq!(count("farm.channel.factorizations"), Some(eyes * 2));
            assert_eq!(count("farm.eye.folds"), Some(eyes * 5));
            assert_eq!(count("farm.cells"), Some(len as u64));
            assert_eq!(
                count("farm.instances"),
                Some((len * MISMATCH_INSTANCES) as u64)
            );
        }
    }

    #[test]
    fn one_eye_per_bundle_is_the_same_eye() {
        // The same eye alone, or among neighbours of its segment count,
        // opens to the same bits.
        let farm = mixed_segment_farm();
        let grid = farm.grid();
        let cells: Vec<(FarmCell, LinkConfig)> = [41, 43, 45, 47]
            .iter()
            .map(|&i| (grid.cell(i), grid.cell(i).link_config()))
            .collect();
        let eyes: Vec<Eye> = cells
            .iter()
            .map(|(cell, cfg)| Eye {
                cell,
                cfg,
                coupling: cell.coupling,
                seed: 0xE1E + cell.index as u64,
            })
            .collect();
        let all: Vec<&Eye> = eyes.iter().collect();
        let together = eye_openings(&all);
        for (eye, got) in eyes.iter().zip(together) {
            let [alone] = eye_openings(&[eye]).try_into().unwrap();
            assert_eq!(got.value().to_bits(), alone.value().to_bits());
            let want = eye_opening(eye.cell, eye.cfg, eye.coupling, eye.seed);
            assert_eq!(got.value().to_bits(), want.value().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "equal segment counts")]
    fn eyes_of_different_segment_counts_never_share_a_bundle() {
        let farm = mixed_segment_farm();
        let grid = farm.grid();
        let (a, b) = (grid.cell(0), grid.cell(8));
        assert_ne!(a.segments, b.segments);
        let (ca, cb) = (a.link_config(), b.link_config());
        let eye = |cell, cfg| Eye {
            cell,
            cfg,
            coupling: 0.0,
            seed: 1,
        };
        eye_openings(&[&eye(&a, &ca), &eye(&b, &cb)]);
    }

    #[test]
    fn margin_records_match_the_per_cell_bisection_bit_for_bit() {
        // The farm computes Q⁻¹(1e-9) once per process; every record must
        // still equal the full `timing_margin` bisection on its own model.
        let mut axes = tiny_axes();
        axes.couplings = vec![0.0, 0.05, 0.3];
        let farm = LinkFarm::new(FarmGrid::new(axes, 5).unwrap());
        let report = farm.run(2, &RetryPolicy::none(), None);
        assert!(report.is_complete());
        let grid = farm.grid();
        let mut open = 0;
        for rec in &report.records {
            let i = rec.index as usize;
            let cell = grid.cell(i);
            let cfg = cell.link_config();
            // The record's two eyes, at full precision.
            let seed = Rng::seed_from_stream(grid.seed(), i as u64).next_u64();
            let coupled = eye_opening(&cell, &cfg, cell.coupling, seed);
            let uncoupled = eye_opening(&cell, &cfg, 0.0, seed);
            assert_eq!(coupled.mv(), rec.eye_coupled_mv, "cell {i} coupled eye");
            assert_eq!(uncoupled.mv(), rec.eye_uncoupled_mv, "cell {i} quiet eye");
            // `evaluate`'s amplitude-to-timing mapping.
            let ratio = if uncoupled.value() > 0.0 {
                (coupled.value() / uncoupled.value()).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let half_width = (cfg.eye_half_width_ui * ratio).max(1e-4);
            let want =
                BerModel::new(cfg.eye_center_ui, half_width, cfg.jitter_rms_ui).timing_margin(1e-9);
            assert_eq!(
                rec.margin_ui.to_bits(),
                want.to_bits(),
                "cell {i}: {} vs {want}",
                rec.margin_ui
            );
            open += usize::from(rec.margin_ui > 0.0);
        }
        assert!(open > 0, "some cell must keep a positive margin");
        assert!(
            open < report.records.len(),
            "some cell must lose its margin"
        );
    }

    #[test]
    fn one_point_grid_is_degenerate_but_valid() {
        let grid = FarmGrid::new(FarmAxes::paper_point(), 1).unwrap();
        assert_eq!(grid.total(), 1);
        let cell = grid.cell(0);
        assert_eq!(cell.index, 0);
        assert_eq!(cell.lanes, 2);
        cell.link_config().validate().unwrap();
        let farm = LinkFarm::new(grid);
        assert_eq!(farm.plan().len(), 1);
        let report = farm.run(1, &RetryPolicy::none(), None);
        assert!(report.is_complete());
        assert_eq!(report.records.len(), 1);
    }

    #[test]
    fn empty_axis_is_rejected() {
        for (name, mutate) in [
            ("lengths_mm", 0usize),
            ("swings_mv", 1),
            ("segments", 2),
            ("sigmas_mv", 3),
            ("rates_gbps", 4),
            ("lanes", 5),
            ("couplings", 6),
        ] {
            let mut axes = FarmAxes::paper_point();
            match mutate {
                0 => axes.lengths_mm.clear(),
                1 => axes.swings_mv.clear(),
                2 => axes.segments.clear(),
                3 => axes.sigmas_mv.clear(),
                4 => axes.rates_gbps.clear(),
                5 => axes.lanes.clear(),
                _ => axes.couplings.clear(),
            }
            assert_eq!(
                FarmGrid::new(axes, 0).unwrap_err(),
                FarmError::EmptyAxis(name)
            );
        }
    }

    #[test]
    fn out_of_range_and_non_finite_rejected() {
        let mut axes = FarmAxes::paper_point();
        axes.couplings = vec![f64::NAN];
        assert_eq!(
            axes.validate().unwrap_err(),
            FarmError::NonFinite("couplings")
        );
        let mut axes = FarmAxes::paper_point();
        axes.lanes = vec![0];
        assert_eq!(axes.validate().unwrap_err(), FarmError::OutOfRange("lanes"));
        let mut axes = FarmAxes::paper_point();
        axes.lengths_mm = vec![-3.0];
        assert_eq!(
            axes.validate().unwrap_err(),
            FarmError::OutOfRange("lengths_mm")
        );
    }

    #[test]
    fn cell_enumeration_is_row_major_and_deterministic() {
        let grid = FarmGrid::new(tiny_axes(), 3).unwrap();
        assert_eq!(grid.total(), 2 * 2 * 2 * 2);
        // Innermost axis (couplings) varies fastest.
        assert_eq!(grid.cell(0).coupling, 0.0);
        assert_eq!(grid.cell(1).coupling, 0.3);
        assert_eq!(grid.cell(0).lanes, 1);
        assert_eq!(grid.cell(2).lanes, 4);
        // Outermost axis (lengths) varies slowest.
        assert_eq!(grid.cell(0).length_mm, 5.0);
        assert_eq!(grid.cell(grid.total() - 1).length_mm, 10.0);
        // Exhaustive match against the nested-loop reference order.
        let a = tiny_axes();
        let mut expect = Vec::new();
        for &l in &a.lengths_mm {
            for &sig in &a.sigmas_mv {
                for &lanes in &a.lanes {
                    for &k in &a.couplings {
                        expect.push((l, sig, lanes, k));
                    }
                }
            }
        }
        for (i, e) in expect.iter().enumerate() {
            let c = grid.cell(i);
            assert_eq!((c.length_mm, c.sigma_mv, c.lanes, c.coupling), *e, "{i}");
        }
    }

    #[test]
    fn fingerprint_tracks_grid_identity() {
        let a = FarmGrid::new(tiny_axes(), 3).unwrap();
        let b = FarmGrid::new(tiny_axes(), 3).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same grid, same address");
        let c = FarmGrid::new(tiny_axes(), 4).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed is identity");
        let mut axes = tiny_axes();
        axes.couplings = vec![0.3, 0.0]; // reordered: different grid order
        let d = FarmGrid::new(axes, 3).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint(), "axis order is identity");
        // Moving a value across adjacent axes must not collide: the flat
        // value sequence is 5, 10, 60 in both, only the length prefixes
        // tell them apart.
        let mut axes = tiny_axes();
        axes.lengths_mm = vec![5.0, 10.0];
        axes.swings_mv = vec![60.0];
        let e = FarmGrid::new(axes, 3).unwrap();
        let mut axes = tiny_axes();
        axes.lengths_mm = vec![5.0];
        axes.swings_mv = vec![10.0, 60.0];
        let f = FarmGrid::new(axes, 3).unwrap();
        assert_ne!(e.fingerprint(), f.fingerprint());
    }

    #[test]
    fn record_codec_roundtrips() {
        let r = CellRecord {
            index: 41,
            eye_uncoupled_mv: 21.5,
            eye_coupled_mv: 13.25,
            ber: 3.5e-9,
            margin_ui: 0.123,
            instances: 8,
            failing: 3,
            failing_uncoupled: 1,
            dc_detected: 1,
        };
        let mut bytes = Vec::new();
        r.encode(&mut bytes);
        assert_eq!(bytes.len(), RECORD_BYTES);
        assert_eq!(CellRecord::decode(&bytes), Some(r));
        assert_eq!(CellRecord::decode(&bytes[1..]), None);
        assert_eq!(r.at_speed_only(), 2);
        assert_eq!(r.xtalk_activated(), 2);
    }

    #[test]
    fn shard_decode_rejects_foreign_payloads() {
        let farm = LinkFarm::new(FarmGrid::new(tiny_axes(), 3).unwrap());
        let plan = farm.plan();
        assert_eq!(plan.len(), 1, "16 cells fit one shard");
        let records = farm.run_shard(&plan[0]);
        let mut payload = Vec::new();
        ShardJob::encode(&farm, &plan[0], &records, &mut payload);
        assert!(ShardJob::decode(&farm, &plan[0], &payload).is_some());
        // Wrong length or shifted indices are recomputed, not trusted.
        assert!(ShardJob::decode(&farm, &plan[0], &payload[RECORD_BYTES..]).is_none());
        let mut shifted = payload.clone();
        shifted[0] ^= 1; // first record's index
        assert!(ShardJob::decode(&farm, &plan[0], &shifted).is_none());
    }

    #[test]
    fn single_lane_is_immune_to_the_coupling_axis() {
        let mut axes = FarmAxes::paper_point();
        axes.lanes = vec![1];
        axes.couplings = vec![0.0, 0.5];
        let grid = FarmGrid::new(axes, 9).unwrap();
        // Same seed, different coupling: a lone lane has no aggressors,
        // so the eye is bit-identical across the coupling axis.
        let a = grid.cell(0).evaluate(0x5EED);
        let b = grid.cell(1).evaluate(0x5EED);
        assert_eq!(a.eye_coupled_mv, b.eye_coupled_mv, "no neighbors, no hit");
        assert_eq!(a.eye_coupled_mv, a.eye_uncoupled_mv);
        assert_eq!(b.eye_coupled_mv, b.eye_uncoupled_mv);
    }
}
