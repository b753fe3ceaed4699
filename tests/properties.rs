//! Property-based tests (in-tree `rt::check` harness) on the core data
//! structures and physical invariants of the simulation substrates.

use dsim::blocks::lock_counter::LockCounter;
use dsim::blocks::ring_counter::RingCounter;
use dsim::circuit::SimState;
use dsim::logic::Logic;
use dsim::scan::shift;
use link::channel::RcLine;
use link::eye::EyeDiagram;
use link::pd::BangBangPd;
use msim::blocks::charge_pump::ChargePump;
use msim::blocks::comparator::{WindowComparator, WindowDecision};
use msim::blocks::vcdl::Vcdl;
use msim::units::{Amp, Farad, Ohm, Sec, Volt};
use rt::check::{check, check_cases, vec_of};

/// Wrapped phase errors always land in (-0.5, 0.5].
#[test]
fn wrap_error_range() {
    check("wrap_error_range", |rng| {
        let tau = rng.range_f64(-10.0, 10.0);
        let target = rng.range_f64(-10.0, 10.0);
        let e = BangBangPd::wrap_error(tau, target);
        assert!(e > -0.5 - 1e-12 && e <= 0.5 + 1e-12, "wrapped error {e}");
    });
}

/// Wrapping is shift-invariant modulo 1 UI.
#[test]
fn wrap_error_mod_invariant() {
    check("wrap_error_mod_invariant", |rng| {
        let tau = rng.range_f64(-2.0, 2.0);
        let target = rng.range_f64(-2.0, 2.0);
        let k = rng.range_usize(0, 6) as f64 - 3.0;
        let a = BangBangPd::wrap_error(tau, target);
        let b = BangBangPd::wrap_error(tau + k, target);
        assert!((a - b).abs() < 1e-9, "{a} vs {b} at shift {k}");
    });
}

/// The RC line's backward-Euler step is unconditionally stable: the
/// output stays within the hull of {initial state, input, termination}.
#[test]
fn rc_line_output_bounded() {
    check("rc_line_output_bounded", |rng| {
        let vin = rng.range_f64(0.0, 1.2);
        let dt_ps = rng.range_f64(1.0, 2000.0);
        let segments = rng.range_usize(1, 40);
        let steps = rng.range_usize(1, 200);
        let mut line = RcLine::new(
            Ohm::from_kohm(2.0),
            Farad::from_pf(1.0),
            segments,
            Ohm::from_kohm(2.0),
        );
        line.set_termination_bias(Volt(0.6));
        let lo = 0.0f64.min(vin).min(0.6);
        let hi = 1.2f64.max(vin).max(0.6);
        for _ in 0..steps {
            let out = line.step(Volt(vin), Sec::from_ps(dt_ps)).value();
            assert!(out >= lo - 1e-9 && out <= hi + 1e-9, "out {out}");
        }
    });
}

/// A DC-driven line settles monotonically toward its divider value.
#[test]
fn rc_line_settles_to_divider() {
    check_cases("rc_line_settles_to_divider", 48, |rng| {
        let vin = rng.range_f64(0.1, 1.1);
        let segments = rng.range_usize(2, 20);
        let mut line = RcLine::new(
            Ohm::from_kohm(1.0),
            Farad::from_pf(0.5),
            segments,
            Ohm::from_kohm(3.0),
        );
        let mut out = Volt::ZERO;
        for _ in 0..20_000 {
            out = line.step(Volt(vin), Sec::from_ps(50.0));
        }
        let expected = vin * line.dc_gain();
        assert!(
            (out.value() - expected).abs() < 1e-3,
            "settled {out} expected {expected}"
        );
    });
}

/// Charge-pump output is always clamped to the rails, fault or not.
#[test]
fn charge_pump_clamps() {
    check("charge_pump_clamps", |rng| {
        use msim::blocks::charge_pump::CpFaults;
        let vc0 = rng.range_f64(0.0, 1.2);
        let up = rng.next_bool();
        let dn = rng.next_bool();
        let dt_ns = rng.range_f64(0.1, 1000.0);
        let scale = rng.range_f64(0.1, 30.0);
        let pump = ChargePump::new(Amp::from_ua(60.0), Farad::from_pf(2.0), Volt(1.2)).with_faults(
            CpFaults {
                up_scale: scale,
                ..CpFaults::none()
            },
        );
        let v = pump.step(Volt(vc0), up, dn, Sec::from_ns(dt_ns));
        assert!(v >= Volt::ZERO && v <= Volt(1.2));
    });
}

/// VCDL delay is monotone in the control voltage and bounded by the
/// effective range.
#[test]
fn vcdl_monotone_and_bounded() {
    check("vcdl_monotone_and_bounded", |rng| {
        let a = rng.range_f64(0.0, 1.2);
        let b = rng.range_f64(0.0, 1.2);
        let v = Vcdl::new(0.13, Volt(0.4), Volt(0.8));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let d_lo = v.delay_ui(Volt(lo));
        let d_hi = v.delay_ui(Volt(hi));
        assert!(d_lo <= d_hi + 1e-12);
        assert!((0.0..=0.13 + 1e-12).contains(&d_lo));
        assert!((0.0..=0.13 + 1e-12).contains(&d_hi));
    });
}

/// The window comparator's three decisions partition the voltage axis
/// consistently with its thresholds.
#[test]
fn window_partition() {
    check("window_partition", |rng| {
        let v = rng.range_f64(-0.5, 1.7);
        let w = WindowComparator::new(Volt(0.4), Volt(0.8));
        match w.evaluate(Volt(v)) {
            WindowDecision::BelowLow => assert!(v < 0.4),
            WindowDecision::Inside => assert!((0.4..=0.8).contains(&v)),
            WindowDecision::AboveHigh => assert!(v > 0.8),
        }
    });
}

/// Scan shift is a rotation: shifting a chain's own content back in
/// returns the original state.
#[test]
fn scan_shift_roundtrip() {
    check("scan_shift_roundtrip", |rng| {
        let bits = vec_of(rng, 2, 24, |r| r.next_bool());
        let n = bits.len();
        // A chain of n unconnected flip-flops.
        let mut c = dsim::circuit::Circuit::new("chain");
        let d0 = c.input("si");
        let mut prev = d0;
        for i in 0..n {
            let q = c.net(format!("q{i}"));
            c.dff(prev, q);
            prev = q;
        }
        let mut s = SimState::for_circuit(&c);
        let image: Vec<Logic> = bits.iter().map(|&b| Logic::from_bool(b)).collect();
        s.load_ffs(&image);
        // Shift out the full chain and shift the same bits back in.
        let out = shift(&mut s, &c, &vec![Logic::Zero; n]);
        let back: Vec<Logic> = out.into_iter().rev().collect();
        shift(&mut s, &c, &back.iter().rev().copied().collect::<Vec<_>>());
        assert_eq!(s.ff_values(), &image[..]);
    });
}

/// The ring counter preserves one-hotness for any start position and any
/// direction sequence.
#[test]
fn ring_counter_one_hot_invariant() {
    check("ring_counter_one_hot_invariant", |rng| {
        let start = rng.below(10);
        let dirs = vec_of(rng, 1, 40, |r| r.next_bool());
        let rc = RingCounter::new(10);
        let mut s = SimState::for_circuit(rc.circuit());
        rc.preload(&mut s, Some(start));
        let mut expected = start;
        for up in dirs {
            rc.set_controls(&mut s, true, up);
            rc.circuit().tick(&mut s);
            expected = if up {
                (expected + 1) % 10
            } else {
                (expected + 9) % 10
            };
            assert_eq!(rc.hot(&s), Some(expected));
        }
    });
}

/// The lock counter never exceeds saturation and never wraps.
#[test]
fn lock_counter_saturates() {
    check("lock_counter_saturates", |rng| {
        let events = vec_of(rng, 0, 40, |r| r.next_bool());
        let lc = LockCounter::new(3);
        let mut s = SimState::for_circuit(lc.circuit());
        lc.reset_state(&mut s);
        let mut model = 0u64;
        for en in events {
            lc.step(&mut s, en);
            if en {
                model = (model + 1).min(7);
            }
            assert_eq!(lc.count(&s), Some(model));
        }
    });
}

/// Eye openings never exceed the waveform's peak-to-peak span.
#[test]
fn eye_opening_bounded_by_p2p() {
    check("eye_opening_bounded_by_p2p", |rng| {
        let levels = vec_of(rng, 8, 100, |r| (r.range_f64(-0.1, 0.1), r.next_bool()));
        let mut eye = EyeDiagram::new(4);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, (v, bit)) in levels.iter().enumerate() {
            eye.add(i % 4, *bit, Volt(*v));
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        let (_, opening) = eye.best();
        assert!(opening.value() <= (hi - lo) + 1e-12);
    });
}

/// Unit algebra: Ohm's law and charge integration round-trip.
#[test]
fn unit_algebra_roundtrip() {
    check("unit_algebra_roundtrip", |rng| {
        let v = rng.range_f64(0.001, 10.0);
        let r = rng.range_f64(1.0, 1e6);
        let i = Volt(v) / Ohm(r);
        let v2 = i * Ohm(r);
        assert!((v2.value() - v).abs() < 1e-9 * v.max(1.0));
    });
}
