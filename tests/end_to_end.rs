//! Cross-crate integration tests: the full pipeline from waveform-level
//! link simulation through fault injection to the campaign aggregates.

use dft::architecture::TestableLink;
use dft::campaign::FaultCampaign;
use link::config::LinkConfig;
use link::eye::EyeDiagram;
use link::netlists::functional_netlists;
use link::synchronizer::{RunConfig, Synchronizer};
use link::LowSwingLink;
use msim::effects::{resolve_effect, AnalogEffect};
use msim::fault::FaultUniverse;
use msim::params::DesignParams;
use msim::sim::Trace;
use rt::rng::Rng;

fn prbs(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_bool()).collect()
}

/// The waveform-level eye the synchronizer assumes exists: the equalized
/// channel really produces an open eye near the configured center, and the
/// phase-domain loop locks onto a consistent phase.
#[test]
fn waveform_eye_and_phase_domain_lock_are_consistent() {
    let cfg = LinkConfig::paper();
    let mut link = LowSwingLink::new(cfg.clone()).unwrap();
    let bits = prbs(512, 11);
    let eye = link.eye(&bits);
    let (_, opening) = eye.best();
    assert!(opening.mv() > 10.0, "equalized eye closed: {opening}");

    let mut sync = Synchronizer::new(&cfg.params);
    let out = sync.run(&RunConfig::paper_bist(), None);
    assert!(out.locked);
    // The locked sampling instant sits at the configured eye center.
    let err = link::pd::BangBangPd::wrap_error(sync.sampling_tau_ui(), cfg.eye_center_ui);
    assert!(err.abs() < 0.03, "lock point off eye center by {err} UI");
}

/// Fig. 2 data product: the trace carries all four channels over the full
/// run and Vc stays within the rails.
#[test]
fn fig2_trace_is_well_formed() {
    let p = DesignParams::paper();
    let mut sync = Synchronizer::new(&p);
    let mut trace = Trace::new(p.ui());
    let rc = RunConfig {
        cycles: 4000,
        ..RunConfig::paper_bist()
    };
    sync.run(&rc, Some(&mut trace));
    let vc = trace.channel("vc").unwrap();
    assert_eq!(vc.len(), 4000);
    assert!(vc.samples().iter().all(|v| v.value() >= 0.0));
    assert!(vc.max().unwrap().value() <= p.supply.value());
    // The phase channel is a step function over valid indices.
    let phase = trace.channel("phase").unwrap();
    for (_, v) in phase.iter() {
        let idx = v.value();
        assert!(idx >= 0.0 && idx < p.dll_phases as f64);
        assert_eq!(idx.fract(), 0.0);
    }
    // CSV export includes the header with all channels.
    let csv = trace.to_csv();
    assert!(csv.starts_with("time_s,phase,vc,vh,vl"));
}

/// The campaign is deterministic: two runs agree record by record.
#[test]
fn campaign_is_deterministic() {
    let p = DesignParams::paper();
    let a = FaultCampaign::new(&p).run();
    let b = FaultCampaign::new(&p).run();
    assert_eq!(a, b);
}

/// Every fault in the universe resolves to an effect, and every resolved
/// gross effect is detected by at least one tier.
#[test]
fn universe_resolution_is_total_and_gross_effects_detected() {
    let p = DesignParams::paper();
    let result = FaultCampaign::new(&p).run();
    for rec in result.records() {
        // Gross classes must never escape.
        let gross = matches!(
            rec.effect,
            AnalogEffect::LineArmStuck { .. }
                | AnalogEffect::DataPathStuck
                | AnalogEffect::WindowStuck { .. }
                | AnalogEffect::CpDead { .. }
                | AnalogEffect::CpAlwaysOn { .. }
                | AnalogEffect::LoopCapShort
                | AnalogEffect::ClockPathDead
                | AnalogEffect::CouplingDcShift { .. }
        );
        if gross {
            assert!(
                rec.detected(),
                "gross effect escaped: {} {:?}",
                rec.fault,
                rec.effect
            );
        }
    }
}

/// The architecture's universe and the campaign's universe agree, and the
/// universe is stable across construction paths.
#[test]
fn universe_consistency_across_apis() {
    let via_arch = TestableLink::paper().fault_universe();
    let blocks = functional_netlists();
    let via_netlists = FaultUniverse::enumerate(blocks.iter().map(|(b, n)| (*b, n)));
    assert_eq!(via_arch.len(), via_netlists.len());
    let via_campaign = FaultCampaign::new(&DesignParams::paper()).universe();
    assert_eq!(via_arch.faults(), via_campaign.faults());
}

/// Injecting a fault-free "effect" through the whole toolchain changes
/// nothing: the faulty-link builder with `AnalogEffect::None` reproduces
/// the healthy lock outcome.
#[test]
fn none_effect_is_identity() {
    let p = DesignParams::paper();
    // Bist::execute runs two passes (phase 0, then phase dll_phases/2) and
    // returns the second verdict when both pass; reproduce that run.
    let mut healthy = Synchronizer::new(&p).with_initial_phase(p.dll_phases / 2);
    let h = healthy.run(&RunConfig::paper_bist(), None);
    let v = dft::bist::Bist::new(&p).execute(&AnalogEffect::None);
    assert!(v.pass());
    assert_eq!(h.locked, v.outcome.locked);
    assert_eq!(h.corrections, v.outcome.corrections);
    assert_eq!(h.final_phase, v.outcome.final_phase);
}

/// Bang-bang loop physics: the post-lock sampling-phase dither grows with
/// the weak charge-pump current (larger per-decision steps), while both
/// settings stay well inside the eye. Measured from the recorded `vc` and
/// `phase` channels through the VCDL transfer.
#[test]
fn post_lock_dither_scales_with_pump_current() {
    use msim::blocks::vcdl::Vcdl;
    use msim::units::Amp;

    let dither_of = |weak_ua: f64| -> f64 {
        let mut p = DesignParams::paper();
        p.weak_cp_current = Amp::from_ua(weak_ua);
        let vcdl = Vcdl::from_params(&p);
        let mut sync = Synchronizer::new(&p);
        let mut trace = Trace::new(p.ui());
        let out = sync.run(&RunConfig::paper_bist(), Some(&mut trace));
        assert!(out.locked, "must lock at {weak_ua} uA");
        let vc = trace.channel("vc").unwrap();
        let phase = trace.channel("phase").unwrap();
        // Sampling phase over the last quarter of the run.
        let n = vc.len();
        let taus: Vec<f64> = (3 * n / 4..n)
            .map(|i| {
                (phase.get(i).unwrap().value() / p.dll_phases as f64
                    + vcdl.delay_ui(vc.get(i).unwrap()))
                .fract()
            })
            .collect();
        let mean = taus.iter().sum::<f64>() / taus.len() as f64;
        (taus.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / taus.len() as f64).sqrt()
    };

    let small = dither_of(5.0);
    let large = dither_of(40.0);
    assert!(
        large > small,
        "8x pump current must raise the dither: {large} vs {small}"
    );
    // Both stay far inside the 0.3 UI eye half-width.
    assert!(small < 0.02 && large < 0.05, "{small} / {large}");
}

/// Eye alignment is robust to the channel's real latency: transmitting
/// through channels of different lengths still yields an open eye.
#[test]
fn eye_alignment_handles_varied_latency() {
    for segments in [4usize, 10, 20] {
        let mut cfg = LinkConfig::paper();
        cfg.channel.segments = segments;
        let mut link = LowSwingLink::new(cfg).unwrap();
        let bits = prbs(256, segments as u64);
        let eye = link.eye(&bits);
        assert!(
            eye.best().1.mv() > 5.0,
            "{segments}-segment channel produced a closed eye"
        );
    }
}

/// The full fault campaign finishes in reasonable time and its per-kind
/// partition sums to the whole.
#[test]
fn campaign_partition_sums() {
    let result = FaultCampaign::new(&DesignParams::paper()).run();
    let by_kind_total: usize = msim::fault::FaultKind::ALL
        .iter()
        .map(|&k| result.by_kind(k).0)
        .sum();
    assert_eq!(by_kind_total, result.total());
    let detected: usize = msim::fault::FaultKind::ALL
        .iter()
        .map(|&k| result.by_kind(k).1)
        .sum();
    assert_eq!(detected, result.total() - result.undetected().len());
}

/// Effects resolve identically whether queried directly or through a
/// campaign record (no hidden state).
#[test]
fn effect_resolution_is_pure() {
    let p = DesignParams::paper();
    let result = FaultCampaign::new(&p).run();
    for rec in result.records().iter().step_by(17) {
        assert_eq!(rec.effect, resolve_effect(&rec.fault, &p));
    }
}

/// The eye diagram from a waveform equals manual accumulation at the same
/// alignment — `EyeDiagram::from_waveform` adds no artifacts.
#[test]
fn eye_from_waveform_matches_manual_fold() {
    let cfg = LinkConfig::paper();
    let os = cfg.oversample;
    let mut link = LowSwingLink::new(cfg).unwrap();
    let bits = prbs(128, 21);
    let wave = link.transmit(&bits);
    let auto = EyeDiagram::from_waveform(&wave, &bits, os, 4);
    // Manual fold at every delay; the best manual result must equal auto.
    let mut best_manual = f64::NEG_INFINITY;
    for delay in 0..=4usize {
        let mut eye = EyeDiagram::new(os);
        for (k, v) in wave.samples().iter().enumerate() {
            let ui = k / os;
            if ui < delay || ui - delay >= bits.len() {
                continue;
            }
            eye.add(k % os, bits[ui - delay], *v);
        }
        best_manual = best_manual.max(eye.best().1.value());
    }
    assert!((auto.best().1.value() - best_manual).abs() < 1e-12);
}
