//! Struct-of-arrays mirror audits.
//!
//! The dispatch hot path reads node liveness, carrier state, and queue
//! depth from parallel arrays that *mirror* the authoritative cold
//! state. The failure mode is a mirror drifting out of sync with the
//! `Node` it shadows.
//!
//! The mirror audit leans on the `debug_assert_eq!` cross-checks wired
//! into the metrics probe handler: every probe re-derives each sampled
//! node's alive/busy/queue observables from the cold structs and panics
//! (in debug builds, which is how the test profile compiles) on any
//! disagreement — so simply running probe-dense fuzzed scenarios *is*
//! the reconstruction check.

use pcmac::{
    ChurnConfig, CrashWindow, FaultConfig, FlowShape, FlowSpec, MetricsConfig, NodeSetup,
    ScenarioConfig, Simulator, Variant,
};
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, Point, RngStream, SimTime};
use proptest::prelude::*;

/// A fuzzable faulted scenario with a dense probe schedule: crashes,
/// churn, an impairment burst (noise-floor flips exercise the global
/// resync path), and probes every 50 ms auditing the mirrors all run.
fn audited_scenario(seed: u64, n: usize, mobile: bool) -> ScenarioConfig {
    let duration = Duration::from_secs(2);
    let side = 1500.0;
    let mut cfg = ScenarioConfig::two_nodes(Variant::ALL[seed as usize % 4], 100.0, 1000.0, seed);
    cfg.name = format!("soa-audit-{seed}-{n}");
    cfg.field = (side, side);
    cfg.duration = duration;
    cfg.interference_floor = Milliwatts(1.559e-10);
    cfg.delay_floor_us = Some(10.0);
    if mobile {
        cfg.nodes = NodeSetup::UniformWaypoint {
            count: n,
            speed: 20.0,
            pause: Duration::from_millis(200),
        };
    } else {
        let mut rng = RngStream::derive(seed, "soa.placement");
        cfg.nodes = NodeSetup::Static(
            (0..n)
                .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
                .collect(),
        );
    }
    let mut rng = RngStream::derive(seed, "soa.flows");
    cfg.flows = (0..4)
        .map(|i| {
            let src = rng.below(n as u64) as u32;
            let dst = loop {
                let d = rng.below(n as u64) as u32;
                if d != src {
                    break d;
                }
            };
            FlowSpec {
                flow: FlowId(i),
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: 512,
                rate_bps: 40_000.0,
                start: SimTime::ZERO + Duration::from_millis(100 + 37 * i as u64),
                stop: SimTime::ZERO + duration,
                shape: FlowShape::Cbr,
            }
        })
        .collect();
    cfg.faults = Some(FaultConfig {
        crashes: Some(vec![
            CrashWindow {
                node: (n as u32).saturating_sub(2),
                at_s: 0.6,
                recover_s: Some(1.4),
            },
            CrashWindow {
                node: (n as u32).saturating_sub(1),
                at_s: 1.0,
                recover_s: None,
            },
        ]),
        churn: Some(ChurnConfig {
            mean_uptime_s: 0.7,
            mean_downtime_s: 0.2,
            start_s: Some(0.2),
            stop_s: Some(1.6),
        }),
        expire_routes: Some(true),
        impairments: Some(vec![pcmac::ImpairmentBurst {
            start_s: 0.9,
            stop_s: 1.3,
            extra_loss_db: 12.0,
            noise_mult: Some(2.0),
        }]),
        energy_budget_mj: Some(0.25),
    });
    cfg.metrics = Some(MetricsConfig {
        probe_interval_s: 0.05,
    });
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fuzzed faulted event sequences, static and mobile, with the
    /// probe auditing every 50 ms: the struct-of-arrays mirrors and the
    /// cold structs must never disagree.
    #[test]
    fn soa_mirrors_never_disagree_with_cold_state(
        seed in 0u64..1000,
        n in 10usize..18,
        mobile in any::<bool>(),
    ) {
        let report = Simulator::new(audited_scenario(seed, n, mobile)).run();
        prop_assert!(report.events > 0);
        prop_assert!(
            !report.metrics.as_ref().expect("metrics on").samples.is_empty(),
            "no probes fired — the audit never ran"
        );
    }
}
