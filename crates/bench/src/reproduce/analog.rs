//! Link-level experiments: the synchronizer ablations, the BER bathtub,
//! crosstalk, the DLL BIST, energy per bit, the FFE eye ablation and the
//! fabric-scale link farm.

use link::ber::BerModel;
use link::channel::RcLine;
use link::config::LinkConfig;
use link::dll_bist::{DllBist, DllUnderTest};
use link::farm::{detect_surface_csv, eye_surface_csv, FarmAxes, FarmGrid, LinkFarm};
use link::pd::BangBangPd;
use link::power::{full_swing_repeated, low_swing_link};
use link::synchronizer::{RunConfig, Synchronizer};
use link::LowSwingLink;
use msim::params::DesignParams;
use msim::units::{Farad, Ohm, Sec, Volt};
use rt::exec::RetryPolicy;
use rt::rng::Rng;

use super::section;
use crate::report::markdown_table;
use crate::Csv;

/// §I: a coarse-only receiver's DLL quantization error against the
/// paper's coarse+fine loop, and what each costs in BER.
pub(super) fn fine_loop(p: &DesignParams) -> String {
    let rows: Vec<Vec<String>> = [0.32, 0.37, 0.41, 0.45, 0.55]
        .iter()
        .map(|&eye_center| {
            // Coarse-only receiver: best DLL phase, no VCDL trim.
            let coarse_err = (0..p.dll_phases)
                .map(|i| BangBangPd::wrap_error(i as f64 / p.dll_phases as f64, eye_center).abs())
                .fold(f64::INFINITY, f64::min);
            let mut sync = Synchronizer::new(p);
            let rc = RunConfig {
                eye_center_ui: eye_center,
                ..RunConfig::paper_bist()
            };
            let out = sync.run(&rc, None);
            let fine_err = BangBangPd::wrap_error(sync.sampling_tau_ui(), eye_center).abs();
            let ber = |err: f64| BerModel::new(eye_center, 0.30, 0.045).ber_at(eye_center + err);
            vec![
                format!("{eye_center:.2} UI"),
                format!("{:.1} m-UI", coarse_err * 1000.0),
                format!("{:.1} m-UI", fine_err * 1000.0),
                format!("{:.1e}", ber(coarse_err)),
                format!("{:.1e}", ber(fine_err)),
                out.locked.to_string(),
            ]
        })
        .collect();
    let body = format!(
        "Residual sampling error of a coarse-only receiver (bounded by half\n\
         a DLL step) against the paper's coarse+fine loop, which drives it\n\
         to the bang-bang dither floor.\n\n{}",
        markdown_table(
            &[
                "eye center",
                "coarse-only error",
                "coarse+fine error",
                "BER (coarse)",
                "BER (paper)",
                "locked"
            ],
            &rows
        )
    );
    section("Fine-loop ablation", &body)
}

/// Sampling errors of a foreground-calibrated receiver: phase frozen at
/// the startup optimum while the eye drifts.
fn foreground_errors(p: &DesignParams, rc: &RunConfig) -> u64 {
    let tau = (0..p.dll_phases)
        .map(|i| i as f64 / p.dll_phases as f64)
        .min_by(|a, b| {
            BangBangPd::wrap_error(*a, rc.eye_center_ui)
                .abs()
                .total_cmp(&BangBangPd::wrap_error(*b, rc.eye_center_ui).abs())
        })
        .expect("at least one phase");
    let mut rng = Rng::seed_from_u64(rc.seed);
    let mut errors = 0;
    for cycle in 0..rc.cycles {
        let center = rc.eye_center_ui + rc.eye_drift_ui_per_cycle * cycle as f64;
        let jitter = rng.gaussian() * rc.jitter_rms_ui;
        if (BangBangPd::wrap_error(tau, center) + jitter).abs() > rc.eye_half_width_ui {
            errors += 1;
        }
    }
    errors
}

/// §I: background phase tracking against a foreground-calibrated
/// receiver (ref \[4\]) under a slow eye-center drift.
pub(super) fn background_tracking(p: &DesignParams) -> String {
    let rows: Vec<Vec<String>> = [0.0, 2e-3, 5e-3, 10e-3, 20e-3]
        .iter()
        .map(|&drift_per_kcycle| {
            let rc = RunConfig {
                cycles: 40_000,
                eye_drift_ui_per_cycle: drift_per_kcycle / 1000.0,
                ..RunConfig::paper_bist()
            };
            let out = Synchronizer::new(p).run(&rc, None);
            vec![
                format!("{:.0} m-UI", drift_per_kcycle * 1000.0),
                format!("{:.1} UI", rc.eye_drift_ui_per_cycle * rc.cycles as f64),
                foreground_errors(p, &rc).to_string(),
                out.errors_after_lock.to_string(),
                out.corrections.to_string(),
            ]
        })
        .collect();
    let body = format!(
        "Sampling errors over 40 000 cycles (16 µs) of eye-center drift. The\n\
         foreground receiver picks its DLL phase once at startup; the\n\
         paper's background loop walks the phase along with the drift\n\
         without interrupting traffic.\n\n{}",
        markdown_table(
            &[
                "drift per kcycle",
                "total drift",
                "foreground errors",
                "background errors (post-lock)",
                "coarse steps"
            ],
            &rows
        )
    );
    section("Background tracking under drift", &body)
}

/// The locked link's BER bathtub: `bathtub.csv` and the timing margin at
/// standard BER targets.
pub(super) fn bathtub() -> (String, String) {
    let cfg = LinkConfig::paper();
    let m = BerModel::new(cfg.eye_center_ui, cfg.eye_half_width_ui, cfg.jitter_rms_ui);
    let mut csv = Csv::new(&["phase_ui", "ber"]);
    for (phi, ber) in &m.bathtub(61) {
        csv.row(&[format!("{phi:.4}"), format!("{ber:.3e}")]);
    }
    let rows: Vec<Vec<String>> = [1e-3, 1e-6, 1e-9, 1e-12]
        .iter()
        .map(|&target| {
            vec![
                format!("{target:.0e}"),
                format!("{:.3} UI", m.timing_margin(target)),
            ]
        })
        .collect();
    let body = format!(
        "Open sampling span of the locked link's bathtub (`bathtub.csv`)\n\
         per BER target: at the paper's jitter the fine loop has no margin\n\
         to waste.\n\n{}",
        markdown_table(&["BER target", "open span"], &rows)
    );
    (
        section("BER timing margin", &body),
        csv.as_str().to_string(),
    )
}

fn victim() -> RcLine {
    let mut line = RcLine::new(
        Ohm::from_kohm(2.0),
        Farad::from_pf(1.0),
        10,
        Ohm::from_kohm(2.0),
    );
    line.set_termination_bias(Volt(0.6));
    line
}

/// Peak disturbance of a quiet single-ended victim, in mV.
fn single_ended_hit(cc: Farad) -> f64 {
    let mut line = victim();
    let dt = Sec::from_ps(25.0);
    let mut peak: f64 = 0.0;
    let mut va_prev = Volt::ZERO;
    for k in 0..300 {
        let va = if k >= 20 { Volt(1.2) } else { Volt::ZERO };
        let out = line.step_with_aggressor(Volt(0.6), dt, va, va_prev, cc);
        peak = peak.max((out.value() - 0.6).abs() * 1e3);
        va_prev = va;
    }
    peak
}

/// Peak *differential* disturbance of a driven differential victim, in mV.
fn differential_hit(cc: Farad) -> f64 {
    let mut plus = victim();
    let mut minus = victim();
    let dt = Sec::from_ps(25.0);
    let mut peak: f64 = 0.0;
    let mut va_prev = Volt::ZERO;
    // Let the DC levels settle first, then fire the aggressor.
    for k in 0..300 {
        let va = if k >= 150 { Volt(1.2) } else { Volt::ZERO };
        let op = plus.step_with_aggressor(Volt(0.63), dt, va, va_prev, cc);
        let om = minus.step_with_aggressor(Volt(0.57), dt, va, va_prev, cc);
        if k > 100 {
            peak = peak.max(((op - om).mv() - 30.0).abs());
        }
        va_prev = va;
    }
    peak
}

/// Why the paper's interconnect is differential: a 1.2 V aggressor edge
/// onto the 60 mV line, single-ended against differential.
pub(super) fn crosstalk() -> String {
    let rows: Vec<Vec<String>> = [25.0, 50.0, 100.0, 200.0]
        .iter()
        .map(|&cc_ff| {
            let cc = Farad::from_ff(cc_ff);
            let (se, diff) = (single_ended_hit(cc), differential_hit(cc));
            vec![
                format!("{cc_ff} fF"),
                format!("{se:.1} mV"),
                format!("{diff:.3} mV"),
                format!("{:.0}x", se / diff.max(1e-6)),
            ]
        })
        .collect();
    let body = format!(
        "Peak disturbance from a 1.2 V aggressor edge onto the 60 mV line.\n\
         Single-ended, it is signal-sized against the 30 mV receiver input;\n\
         the differential victim rejects it as common mode.\n\n{}",
        markdown_table(
            &[
                "coupling",
                "single-ended hit",
                "differential hit",
                "rejection"
            ],
            &rows
        )
    );
    section("Crosstalk", &body)
}

/// The stand-alone DLL BIST (§III, refs \[11\], \[12\]).
pub(super) fn dll_bist() -> String {
    let bist = DllBist::new(10, 0.02, 0.005);
    let healthy = || DllUnderTest::healthy(10);
    let cases = [
        ("healthy", healthy()),
        ("phase 4 stuck", healthy().with_phase_stuck(4)),
        ("phase 7 skew +50 m-UI", healthy().with_phase_skew(7, 0.05)),
        ("phase 7 skew +2 m-UI", healthy().with_phase_skew(7, 0.002)),
        (
            "two drifted elements",
            healthy().with_phase_skew(2, 0.03).with_phase_skew(8, -0.03),
        ),
    ];
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|(name, dut)| {
            let r = bist.run(dut);
            vec![
                name.to_string(),
                if r.pass { "PASS" } else { "FAIL" }.to_string(),
                format!("{:?}", r.failing),
            ]
        })
        .collect();
    let body = format!(
        "Phase-spacing check of a 10-phase DLL: tolerance ±0.02 UI around\n\
         the ideal 0.1 UI step, TDC LSB 0.005 UI. Skews below the TDC\n\
         resolution are the measurement floor.\n\n{}",
        markdown_table(&["DLL condition", "BIST", "failing spacings"], &rows)
    );
    section("Stand-alone DLL BIST", &body)
}

/// The paper's premise: low-swing repeaterless signaling against
/// full-swing repeated wires on a 10 mm route.
pub(super) fn power(p: &DesignParams) -> String {
    let (full, low) = (full_swing_repeated(p), low_swing_link(p));
    let rows: Vec<Vec<String>> = [0.5, 0.25, 0.1, 0.01]
        .iter()
        .map(|&alpha| {
            let (e_full, e_low) = (full.energy_per_bit_pj(alpha), low.energy_per_bit_pj(alpha));
            vec![
                format!("{alpha}"),
                format!("{e_full:.3} pJ/b"),
                format!("{e_low:.3} pJ/b"),
                format!("{:.1}x", e_full / e_low),
            ]
        })
        .collect();
    let body = format!(
        "Energy per bit on a 10 mm route at 2.5 Gbps and 1.2 V, per data\n\
         activity. At very low activity the weak driver's static bias\n\
         dominates and the advantage inverts: the weak driver is there for\n\
         signal integrity, not idle power.\n\n{}",
        markdown_table(
            &[
                "activity",
                "full-swing repeated",
                "low-swing link",
                "advantage"
            ],
            &rows
        )
    );
    section("Energy per bit", &body)
}

/// The worst-case eye opening (mV) and best sampling phase (UI) of `cfg`.
fn eye_opening(cfg: LinkConfig, bits: &[bool]) -> (f64, f64) {
    let eye = LowSwingLink::new(cfg).expect("valid config").eye(bits);
    let (phase, opening) = eye.best();
    (opening.mv(), phase as f64 / eye.oversample() as f64)
}

/// §II: the capacitive FFE's eye opening against its boost and against
/// line RC, as `eye_ablation.csv`.
pub(super) fn eye_ablation() -> String {
    let mut rng = Rng::seed_from_u64(42);
    let bits: Vec<bool> = (0..768).map(|_| rng.next_bool()).collect();
    let mut csv = Csv::new(&["sweep", "value", "opening_mv", "best_phase_ui"]);
    for boost in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
        let mut cfg = LinkConfig::paper();
        cfg.ffe_boost = boost;
        let (mv, phase) = eye_opening(cfg, &bits);
        csv.row(&[
            "boost".to_string(),
            boost.to_string(),
            format!("{mv:.3}"),
            format!("{phase:.3}"),
        ]);
    }
    for (r_kohm, c_pf) in [(0.5, 0.25), (1.0, 0.5), (2.0, 1.0), (3.0, 1.5), (4.0, 2.0)] {
        let mut cfg = LinkConfig::paper();
        cfg.channel.r_total = Ohm::from_kohm(r_kohm);
        cfg.channel.c_total = Farad::from_pf(c_pf);
        let (eq_mv, _) = eye_opening(cfg.clone(), &bits);
        cfg.ffe_boost = 0.0;
        let (plain_mv, _) = eye_opening(cfg, &bits);
        // The channel rows have no best-phase measurement.
        for (sweep, mv) in [("channel_eq", eq_mv), ("channel_plain", plain_mv)] {
            csv.row(&[
                sweep.to_string(),
                r_kohm.to_string(),
                format!("{mv:.3}"),
                String::new(),
            ]);
        }
    }
    csv.as_str().to_string()
}

/// The link-farm grid: 6 × 3 × 2 × 3 × 2 × 2 × 3 = 1296 configurations.
fn farm_axes() -> FarmAxes {
    FarmAxes {
        lengths_mm: vec![2.0, 5.0, 8.0, 10.0, 14.0, 18.0],
        swings_mv: vec![40.0, 60.0, 80.0],
        segments: vec![6, 10],
        sigmas_mv: vec![0.0, 6.0, 12.0],
        rates_gbps: vec![1.0, 2.5],
        lanes: vec![1, 4],
        couplings: vec![0.0, 0.04, 0.08],
    }
}

/// The fabric-scale link-farm sweep: its report section and the eye and
/// detection surface maps (`link_farm_eye.csv`, `link_farm_detect.csv`).
pub(super) fn link_farm() -> (String, String, String) {
    let farm = LinkFarm::new(FarmGrid::new(farm_axes(), 7).expect("axes validate"));
    let report = farm.run(rt::par::threads(), &RetryPolicy::retries(2), None);
    assert!(report.is_complete(), "link farm left incomplete shards");
    let records = &report.records;
    let sum = |f: fn(&link::farm::CellRecord) -> u64| records.iter().map(f).sum::<u64>();
    let activated = sum(|r| u64::from(r.xtalk_activated()));
    let min_eye = records
        .iter()
        .map(|r| r.eye_coupled_mv)
        .fold(f64::INFINITY, f64::min);
    let rows = vec![
        vec!["grid cells".to_string(), farm.grid().total().to_string()],
        vec![
            "mismatch instances".to_string(),
            (records.len() * link::farm::MISMATCH_INSTANCES).to_string(),
        ],
        vec![
            "at-speed failures".to_string(),
            sum(|r| u64::from(r.failing)).to_string(),
        ],
        vec![
            "caught by DC tier".to_string(),
            sum(|r| u64::from(r.dc_detected)).to_string(),
        ],
        vec!["crosstalk-activated".to_string(), activated.to_string()],
        vec!["worst coupled eye".to_string(), format!("{min_eye:.2} mV")],
    ];
    let body = format!(
        "A {}-cell `LinkConfig` grid (wire length × swing × segmentation ×\n\
         mismatch σ × data rate × lane count × neighbor coupling) run as one\n\
         sharded job; the surface maps are `link_farm_eye.csv` and\n\
         `link_farm_detect.csv`. Crosstalk-activated instances fail only\n\
         when the neighbors switch, invisible to the static DC tier.\n\n{}",
        farm.grid().total(),
        markdown_table(&["sweep", "value"], &rows)
    );
    (
        section("Link farm", &body),
        eye_surface_csv(farm.grid(), records),
        detect_surface_csv(farm.grid(), records),
    )
}
