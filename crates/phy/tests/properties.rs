//! Property-based tests for physical-layer invariants.

use pcmac_engine::{Milliwatts, Point, SimTime};
use pcmac_phy::{PowerLevels, Propagation, Radio, RadioConfig, RadioEvent, TwoRayGround};
use proptest::prelude::*;

proptest! {
    /// Path loss: received power never exceeds transmitted power and never
    /// increases with distance.
    #[test]
    fn gain_bounded_and_monotone(d1 in 0.1f64..2000.0, d2 in 0.1f64..2000.0) {
        let m = TwoRayGround::ns2_default();
        let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        let g_near = m.gain_at(near);
        let g_far = m.gain_at(far);
        prop_assert!(g_near <= 1.0 && g_far <= 1.0);
        prop_assert!(g_near >= g_far);
    }

    /// range_for / power_for_range are mutual inverses over the usable
    /// range of the model.
    #[test]
    fn range_power_inverse(d in 5.0f64..1500.0) {
        let m = TwoRayGround::ns2_default();
        let thresh = Milliwatts(3.652e-7);
        let p = m.power_for_range(d, thresh);
        let back = m.range_for(p, thresh);
        prop_assert!((back - d).abs() < 1e-6, "d={d} back={back}");
    }

    /// The gain between two points depends only on their distance
    /// (isotropy) and is symmetric.
    #[test]
    fn gain_isotropic_symmetric(ax in 0.0f64..1000.0, ay in 0.0f64..1000.0,
                                bx in 0.0f64..1000.0, by in 0.0f64..1000.0) {
        let m = TwoRayGround::ns2_default();
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        prop_assert_eq!(m.gain(a, b), m.gain(b, a));
        let d = a.distance(b);
        prop_assert_eq!(m.gain(a, b), m.gain_at(d));
    }

    /// Quantisation returns a level ≥ the request, and requesting that
    /// level again is a fixed point.
    #[test]
    fn quantize_upper_bound_idempotent(needed in 0.0f64..300.0) {
        let levels = PowerLevels::paper_defaults();
        if let Some(q) = levels.quantize_up(Milliwatts(needed)) {
            prop_assert!(q.value() >= needed);
            prop_assert_eq!(levels.quantize_up(q), Some(q));
            // and it is the *smallest* adequate level
            for &l in levels.all() {
                if l.value() >= needed {
                    prop_assert!(q.value() <= l.value());
                }
            }
        } else {
            prop_assert!(needed > levels.max().value());
        }
    }

    /// step_up never decreases power and saturates at the maximum class.
    #[test]
    fn step_up_monotone(p in 0.5f64..300.0) {
        let levels = PowerLevels::paper_defaults();
        let up = levels.step_up(Milliwatts(p));
        prop_assert!(up.value() >= p.min(levels.max().value()));
        prop_assert!(up.value() <= levels.max().value());
    }

    /// Radio interference bookkeeping: after arbitrary interleavings of
    /// arrival starts/ends, total in-air power equals the sum of the open
    /// arrivals, and the radio is quiet once all of them end.
    #[test]
    fn radio_power_bookkeeping(powers in proptest::collection::vec(1e-9f64..1e-3, 1..20)) {
        let mut r: Radio<u32> = Radio::new(RadioConfig::ns2_default());
        let mut out = Vec::new();
        for (i, p) in powers.iter().enumerate() {
            r.on_arrival_start(i as u64, Milliwatts(*p), SimTime::MAX, &0, &mut out);
        }
        let sum: f64 = powers.iter().sum();
        prop_assert!((r.in_air_power().value() - sum).abs() < sum * 1e-9);
        // End in reverse order to exercise swap_remove paths.
        for i in (0..powers.len()).rev() {
            r.on_arrival_end(i as u64, &mut out);
        }
        prop_assert_eq!(r.in_air_power(), Milliwatts::ZERO);
        prop_assert!(!r.carrier_busy());
    }

    /// Carrier busy/idle events alternate strictly — the MAC can treat
    /// them as edges without debouncing.
    #[test]
    fn carrier_edges_alternate(powers in proptest::collection::vec(1e-9f64..1e-3, 1..20)) {
        let mut r: Radio<u32> = Radio::new(RadioConfig::ns2_default());
        let mut out = Vec::new();
        for (i, p) in powers.iter().enumerate() {
            r.on_arrival_start(i as u64, Milliwatts(*p), SimTime::MAX, &0, &mut out);
        }
        for i in 0..powers.len() {
            r.on_arrival_end(i as u64, &mut out);
        }
        let mut busy = false;
        for ev in &out {
            match ev {
                RadioEvent::CarrierBusy => {
                    prop_assert!(!busy, "double busy edge");
                    busy = true;
                }
                RadioEvent::CarrierIdle => {
                    prop_assert!(busy, "idle edge while idle");
                    busy = false;
                }
                _ => {}
            }
        }
        prop_assert!(!busy, "must end idle");
    }

    /// Every RxStart is eventually matched by exactly one RxEnd with the
    /// same key (when no transmission aborts it).
    #[test]
    fn rx_start_end_paired(powers in proptest::collection::vec(1e-8f64..1e-3, 1..20)) {
        let mut r: Radio<u32> = Radio::new(RadioConfig::ns2_default());
        let mut out = Vec::new();
        for (i, p) in powers.iter().enumerate() {
            r.on_arrival_start(i as u64, Milliwatts(*p), SimTime::MAX, &(i as u32), &mut out);
        }
        for i in 0..powers.len() {
            r.on_arrival_end(i as u64, &mut out);
        }
        let starts: Vec<u64> = out.iter().filter_map(|e| match e {
            RadioEvent::RxStart { key, .. } => Some(*key),
            _ => None,
        }).collect();
        let ends: Vec<u64> = out.iter().filter_map(|e| match e {
            RadioEvent::RxEnd { key, .. } => Some(*key),
            _ => None,
        }).collect();
        prop_assert_eq!(starts, ends);
    }
}
