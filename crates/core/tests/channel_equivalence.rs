//! Production channel ≡ reference channel.
//!
//! The production channel queries a uniform-grid spatial index,
//! refreshes positions lazily when nodes move, and replays gains from a
//! dense table on small static fields. Each of these is a pure
//! optimization: for any scenario, the set (and order) of arrivals must
//! be *identical* to the reference channel of
//! `Simulator::into_reference` — an O(N) scan over all nodes, eager
//! refresh of every position, live gains — in every observable: event
//! counts, deliveries, MAC/routing counters, energy, per-flow
//! breakdowns. So each comparison below checks grid ≡ brute force, and
//! lazy ≡ eager refresh on mobile fields or dense table ≡ live gains on
//! static ones.
//!
//! These tests compare entire serialized [`RunReport`]s (minus wall-clock
//! time) across random seeds, field sizes, node counts, interference
//! floors, and protocol variants, under static placement, mobility, and
//! shadowing, and across checkpoint/restore.

use pcmac::{
    ChurnConfig, CrashWindow, FaultConfig, FlowShape, FlowSpec, ImpairmentBurst, MetricsConfig,
    NodeSetup, RunReport, ScenarioConfig, ShadowingConfig, Simulator, Variant,
};
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, Point, RngStream, SimTime};
use proptest::prelude::*;

/// Strip the only legitimately nondeterministic field and serialize.
fn fingerprint(r: &RunReport) -> serde_json::Value {
    let text = serde_json::to_string(r).expect("reports serialize");
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    match v {
        serde_json::Value::Map(entries) => {
            serde_json::Value::Map(entries.into_iter().filter(|(k, _)| k != "wall_s").collect())
        }
        other => other,
    }
}

/// [`fingerprint`] minus the `metrics` section: the protocol-behavior
/// observables only, for comparing metrics-on against metrics-off runs.
fn behaviour_fingerprint(r: &RunReport) -> serde_json::Value {
    match fingerprint(r) {
        serde_json::Value::Map(entries) => serde_json::Value::Map(
            entries
                .into_iter()
                .filter(|(k, _)| k != "metrics")
                .collect(),
        ),
        other => other,
    }
}

/// [`fingerprint`] with `metrics.hot_path` removed: the hot-path
/// profile legitimately differs between the production and the
/// reference channel (it counts what each one's machinery *did*), while
/// every other metrics field must be identical.
fn mode_invariant_fingerprint(r: &RunReport) -> serde_json::Value {
    let strip = |v: serde_json::Value| match v {
        serde_json::Value::Map(entries) => serde_json::Value::Map(
            entries
                .into_iter()
                .filter(|(k, _)| k != "hot_path")
                .collect(),
        ),
        other => other,
    };
    match fingerprint(r) {
        serde_json::Value::Map(entries) => serde_json::Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| {
                    if k == "metrics" {
                        (k, strip(v))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        ),
        other => other,
    }
}

/// A randomized scenario: `n` nodes scattered over a `side`×`side`
/// field with a handful of cross-field flows.
fn random_scenario(
    variant: Variant,
    seed: u64,
    n: usize,
    side: f64,
    floor: Milliwatts,
    mobile: bool,
    shadowing: Option<ShadowingConfig>,
) -> ScenarioConfig {
    let duration = Duration::from_secs(2);
    let mut cfg = ScenarioConfig::two_nodes(variant, 100.0, 1000.0, seed);
    cfg.name = format!("equiv-{seed}-{n}-{side}");
    cfg.field = (side, side);
    cfg.duration = duration;
    cfg.interference_floor = floor;
    cfg.shadowing = shadowing;
    if mobile {
        cfg.nodes = NodeSetup::UniformWaypoint {
            count: n,
            speed: 20.0, // fast: force many grid cell crossings
            pause: Duration::from_millis(200),
        };
    } else {
        let mut rng = RngStream::derive(seed, "equiv.placement");
        cfg.nodes = NodeSetup::Static(
            (0..n)
                .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
                .collect(),
        );
    }
    let mut rng = RngStream::derive(seed, "equiv.flows");
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
    cfg
}

/// Run `cfg` on the reference channel.
fn reference_run(cfg: ScenarioConfig) -> RunReport {
    Simulator::new(cfg).into_reference().run()
}

fn assert_equivalent(cfg: ScenarioConfig) {
    let production = Simulator::new(cfg.clone()).run();
    let reference = reference_run(cfg);
    assert!(
        production.events > 0,
        "degenerate run: no events means the comparison is vacuous"
    );
    assert_eq!(
        fingerprint(&production),
        fingerprint(&reference),
        "production and reference channels diverged (seed {})",
        production.seed
    );
}

/// The acceptance-criterion sweep: ≥16 distinct random seeds, static
/// fields of varying size and density, exact report equality.
#[test]
fn grid_matches_brute_force_across_16_seeds() {
    for seed in 0..16u64 {
        let n = 10 + (seed as usize % 4) * 8;
        let side = 800.0 + 400.0 * (seed % 5) as f64;
        let variant = Variant::ALL[seed as usize % 4];
        let cfg = random_scenario(variant, seed, n, side, Milliwatts(1.559e-10), false, None);
        assert_equivalent(cfg);
    }
}

#[test]
fn grid_matches_brute_force_under_mobility() {
    for seed in [3u64, 17, 40] {
        let cfg = random_scenario(
            Variant::Pcmac,
            seed,
            16,
            1500.0,
            Milliwatts(1.559e-10),
            true,
            None,
        );
        assert_equivalent(cfg);
    }
}

#[test]
fn grid_matches_brute_force_under_shadowing() {
    // Shadowing can lift links far beyond their median range; the index
    // must inflate its culling radius to cover the boost — in both the
    // reciprocal and the assumption-violating asymmetric mode.
    for symmetric in [true, false] {
        let cfg = random_scenario(
            Variant::Pcmac,
            9,
            14,
            1200.0,
            Milliwatts(1.559e-10),
            false,
            Some(ShadowingConfig {
                sigma_db: 6.0,
                symmetric,
            }),
        );
        assert_equivalent(cfg);
    }
}

#[test]
fn grid_matches_brute_force_under_mobility_with_shadowing() {
    // The hardest combination: the shadow-inflated culling radius must
    // stay a superset while incremental grid updates track cell
    // crossings — a regression in either alone could hide behind the
    // separate mobility and shadowing tests.
    for (seed, symmetric) in [(11u64, true), (23, false)] {
        let cfg = random_scenario(
            Variant::Pcmac,
            seed,
            14,
            1500.0,
            Milliwatts(1.559e-10),
            true,
            Some(ShadowingConfig {
                sigma_db: 5.0,
                symmetric,
            }),
        );
        assert_equivalent(cfg);
    }
}

#[test]
fn grid_matches_brute_force_with_disabled_floor() {
    // floor = 0 ⇒ every node hears every transmission; the index must
    // degrade to full coverage, not drop anyone.
    let cfg = random_scenario(Variant::Basic, 5, 12, 2000.0, Milliwatts(0.0), false, None);
    assert_equivalent(cfg);
}

/// Lazy refresh against eager refresh on mobile scenarios across seeds
/// and variants.
#[test]
fn lazy_refresh_matches_eager_under_mobility() {
    for seed in [2u64, 19, 31, 47] {
        let cfg = random_scenario(
            Variant::ALL[seed as usize % 4],
            seed,
            18,
            1600.0,
            Milliwatts(1.559e-10),
            true,
            None,
        );
        assert_equivalent(cfg);
    }
}

/// Same bar under shadowing, where gains are direction-dependent.
#[test]
fn lazy_refresh_matches_eager_under_mobility_with_shadowing() {
    for (seed, symmetric) in [(13u64, true), (29, false)] {
        let cfg = random_scenario(
            Variant::Pcmac,
            seed,
            14,
            1500.0,
            Milliwatts(1.559e-10),
            true,
            Some(ShadowingConfig {
                sigma_db: 5.0,
                symmetric,
            }),
        );
        assert_equivalent(cfg);
    }
}

/// Static scenarios: the dense precomputed table must replay live gain
/// evaluation bit for bit.
#[test]
fn dense_table_matches_live_gains_when_static() {
    for seed in [4u64, 21] {
        let cfg = random_scenario(
            Variant::Pcmac,
            seed,
            20,
            1200.0,
            Milliwatts(1.559e-10),
            false,
            None,
        );
        assert_equivalent(cfg);
    }
}

/// A fault plan dense enough to exercise every injection mechanism
/// inside the 2 s equivalence runs: a scheduled crash with recovery, a
/// permanent crash, sub-second churn over most of the run, an
/// impairment burst, and an energy budget low enough to kill at least
/// the busiest transmitter.
fn fault_plan(n: usize) -> FaultConfig {
    FaultConfig {
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
        impairments: Some(vec![ImpairmentBurst {
            start_s: 0.9,
            stop_s: 1.3,
            extra_loss_db: 12.0,
            noise_mult: Some(2.0),
        }]),
        energy_budget_mj: Some(0.25),
    }
}

/// The fault schedule is derived from the master seed and the plan
/// alone, so injected runs must stay bit-identical between the
/// production and the reference channel.
#[test]
fn fault_injection_matches_the_reference_channel() {
    for seed in [3u64, 23, 41] {
        let n = 16;
        let mut cfg = random_scenario(
            Variant::ALL[seed as usize % 4],
            seed,
            n,
            1500.0,
            Milliwatts(1.559e-10),
            true,
            None,
        );
        cfg.faults = Some(fault_plan(n));

        let reference = reference_run(cfg.clone());
        assert!(reference.events > 0, "degenerate faulted run");
        let res = reference
            .resilience
            .as_ref()
            .expect("fault plan => resilience section");
        assert!(res.crashes >= 2, "the plan must actually crash nodes");
        assert!(
            res.sent_before + res.sent_during + res.sent_after == reference.sent_packets,
            "phase accounting must cover every packet"
        );

        let run = Simulator::new(cfg).run();
        assert_eq!(
            fingerprint(&run),
            fingerprint(&reference),
            "faulted run diverged (seed {seed})"
        );
    }
}

/// Same-seed reruns of a faulted mobile scenario are bit-identical —
/// churn draws come from derived streams, not shared global state.
#[test]
fn faulted_reruns_are_bit_identical() {
    let build = || {
        let mut cfg = random_scenario(
            Variant::Pcmac,
            57,
            14,
            1400.0,
            Milliwatts(1.559e-10),
            true,
            Some(ShadowingConfig {
                sigma_db: 4.0,
                symmetric: false,
            }),
        );
        cfg.faults = Some(fault_plan(14));
        cfg
    };
    let a = Simulator::new(build()).run();
    let b = Simulator::new(build()).run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// The observability layer's zero-behavioral-cost contract: turning
/// metrics on changes *nothing* observable — not even the reported
/// event count — on a faulted mobile scenario.
#[test]
fn metrics_layer_is_behaviour_identical() {
    for seed in [7u64, 57] {
        let build = |metrics: bool| {
            let mut cfg = random_scenario(
                Variant::Pcmac,
                seed,
                14,
                1400.0,
                Milliwatts(1.559e-10),
                true,
                None,
            );
            cfg.faults = Some(fault_plan(14));
            if metrics {
                cfg.metrics = Some(MetricsConfig::default());
            }
            cfg
        };
        let off = Simulator::new(build(false)).run();
        let on = Simulator::new(build(true)).run();
        assert!(off.metrics.is_none() && on.metrics.is_some());
        assert_eq!(
            on.events, off.events,
            "probe events must be excluded from the reported count (seed {seed})"
        );
        assert_eq!(
            behaviour_fingerprint(&on),
            behaviour_fingerprint(&off),
            "metrics-on diverged from metrics-off (seed {seed})"
        );
    }
}

/// The metrics section's own determinism contract: bit-identical across
/// reruns (including the hot-path profile), and — hot-path profile
/// aside, which by design counts channel-specific work — bit-identical
/// between the production and the reference channel.
#[test]
fn metrics_are_deterministic_across_reruns_and_modes() {
    let base = || {
        let mut cfg = random_scenario(
            Variant::Pcmac,
            57,
            14,
            1400.0,
            Milliwatts(1.559e-10),
            true,
            None,
        );
        cfg.faults = Some(fault_plan(14));
        cfg.metrics = Some(MetricsConfig {
            probe_interval_s: 0.25,
        });
        cfg
    };

    let a = Simulator::new(base()).run();
    let b = Simulator::new(base()).run();
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "reruns must match bit for bit, hot-path profile included"
    );
    let m = a.metrics.as_ref().expect("metrics layer on");
    assert!(!m.samples.is_empty(), "0.25 s probes inside a 2 s run");
    assert!(m.drops.conserved(), "taxonomy leak");

    let reference = reference_run(base());
    assert_eq!(
        mode_invariant_fingerprint(&a),
        mode_invariant_fingerprint(&reference),
        "metrics diverged between the production and the reference channel"
    );
}

/// Pin the propagation-delay floor. The floor is part of the channel
/// model (it quantizes short-range propagation delays), so only runs
/// sharing it are comparable. 10 µs stays well below the 20 µs slot
/// time; a floor at the slot or beyond would eat the CTS/ACK timeouts'
/// round-trip grace and silently zero out all traffic (which
/// `validate()` rejects).
fn with_floor(mut cfg: ScenarioConfig) -> ScenarioConfig {
    cfg.delay_floor_us = Some(10.0);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzzed equivalence: random seed, node count, field size, floor
    /// scaling, variant, and mobility flag.
    #[test]
    fn grid_matches_brute_force_fuzzed(
        seed in 0u64..10_000,
        n in 8usize..24,
        side in 600.0f64..3500.0,
        floor_exp in 0u32..4,
        variant_idx in 0usize..4,
        mobile in any::<bool>(),
    ) {
        // Floors from CSThresh/100 up to CSThresh·10: small floors make
        // everyone audible (stress superset-coverage), large floors make
        // reception local (stress cell culling).
        let floor = Milliwatts(1.559e-10 * 10f64.powi(floor_exp as i32));
        let cfg = random_scenario(
            Variant::ALL[variant_idx],
            seed,
            n,
            side,
            floor,
            mobile,
            None,
        );
        let production = Simulator::new(cfg.clone()).run();
        let reference = reference_run(cfg);
        prop_assert_eq!(
            fingerprint(&production),
            fingerprint(&reference),
            "diverged: seed {} n {} side {} floor {:?} mobile {}",
            seed, n, side, floor, mobile
        );
    }
}

// ----------------------------------------------------------------------
// Checkpoint / restore
// ----------------------------------------------------------------------

use pcmac::{RunHooks, RunOutcome, SimSnapshot};
use std::sync::Mutex;

/// Run `sim` to completion while checkpointing every `every`, returning
/// the completed report and every checkpoint in capture order.
fn run_with_checkpoints(sim: Simulator, every: Duration) -> (RunReport, Vec<SimSnapshot>) {
    let sink = Mutex::new(Vec::new());
    let push = |s: SimSnapshot| sink.lock().unwrap().push(s);
    let outcome = sim.run_with_hooks(RunHooks {
        cancel: None,
        checkpoint_every: Some(every),
        checkpoint_sink: Some(&push),
    });
    let report = match outcome {
        RunOutcome::Completed(r) => r,
        RunOutcome::Cancelled(_) => panic!("no cancel token was supplied"),
    };
    (report, sink.into_inner().unwrap())
}

/// A faulted, metrics-on scenario — the densest state a snapshot has
/// to carry (crashes, churn, impairments, energy budgets, probe chains,
/// and on mobile fields waypoint RNGs all live at the cut).
fn snapshot_scenario(seed: u64, n: usize, mobile: bool) -> ScenarioConfig {
    let mut cfg = random_scenario(
        Variant::ALL[seed as usize % 4],
        seed,
        n,
        1500.0,
        Milliwatts(1.559e-10),
        mobile,
        None,
    );
    cfg.faults = Some(fault_plan(n));
    cfg.metrics = Some(MetricsConfig {
        probe_interval_s: 0.25,
    });
    cfg
}

/// `sim` on the production or the reference channel.
fn on_channel(sim: Simulator, reference: bool) -> Simulator {
    if reference {
        sim.into_reference()
    } else {
        sim
    }
}

/// Snapshot at a fuzzed mid-run grid time (faulted, metrics-on, mobile
/// and static), restore in-process on the production and on the
/// reference channel, run to the end — the result must be bit-identical
/// (hot-path profile aside) to the uninterrupted production run. The
/// capture run itself must also be unperturbed by checkpointing, and
/// every checkpoint must survive a serialization round trip unchanged.
#[test]
fn checkpoint_restore_is_bit_identical_across_matrix() {
    for (seed, mobile) in [(5u64, true), (29, true), (5, false), (29, false)] {
        let cfg = with_floor(snapshot_scenario(seed, 16, mobile));
        let uninterrupted = Simulator::new(cfg.clone()).run();
        assert!(
            uninterrupted.events > 0,
            "degenerate run is a vacuous comparison"
        );
        let ref_fp = mode_invariant_fingerprint(&uninterrupted);
        // Fuzz the checkpoint grid per seed so cuts land at arbitrary
        // mid-run instants, not a hand-picked friendly time.
        let every = Duration::from_millis(110 + (seed * 37) % 140);
        for reference in [false, true] {
            let (hooked, snaps) =
                run_with_checkpoints(on_channel(Simulator::new(cfg.clone()), reference), every);
            assert_eq!(
                mode_invariant_fingerprint(&hooked),
                ref_fp,
                "checkpointing perturbed the run (seed {seed} mobile {mobile} \
                 reference {reference})"
            );
            assert!(
                snaps.len() >= 4,
                "a 2 s run on a {every:?} grid must checkpoint repeatedly"
            );
            for s in &snaps {
                assert_eq!(
                    s.time().as_nanos() % every.as_nanos(),
                    0,
                    "checkpoints land on the absolute grid"
                );
            }
            let snap = &snaps[snaps.len() / 2];
            let bytes = snap.to_bytes();
            let back = SimSnapshot::from_bytes(&bytes).expect("round trip");
            assert_eq!(
                back.state_fingerprint(),
                snap.state_fingerprint(),
                "serialization round trip changed behavioral state"
            );
            let restored =
                Simulator::restore(cfg.clone(), &back).expect("snapshot matches its own scenario");
            let resumed = on_channel(restored, reference).run();
            assert_eq!(
                mode_invariant_fingerprint(&resumed),
                ref_fp,
                "restore-then-run diverged (seed {seed} mobile {mobile} reference {reference} \
                 cut {:?})",
                snap.time()
            );
        }
    }
}

/// Cooperative cancellation stops cleanly at a cut with a resumable
/// snapshot, and resuming from it completes the run bit-identically.
#[test]
fn cancelled_runs_leave_resumable_snapshots() {
    let cfg = with_floor(snapshot_scenario(5, 16, true));
    let reference = Simulator::new(cfg.clone()).run();
    let ref_fp = mode_invariant_fingerprint(&reference);
    // Cancel from inside the run, mid-flight: the second checkpoint
    // pulls the trigger, so the cancellation cut lands at an
    // arbitrary later instant.
    let token = pcmac::CancelToken::new();
    let seen = Mutex::new(0u32);
    let trip = |_s: SimSnapshot| {
        let mut n = seen.lock().unwrap();
        *n += 1;
        if *n == 2 {
            token.cancel();
        }
    };
    let outcome = Simulator::new(cfg.clone()).run_with_hooks(RunHooks {
        cancel: Some(&token),
        checkpoint_every: Some(Duration::from_millis(300)),
        checkpoint_sink: Some(&trip),
    });
    let snap = match outcome {
        RunOutcome::Cancelled(Some(s)) => s,
        RunOutcome::Cancelled(None) => panic!("queue was not empty at the cut"),
        RunOutcome::Completed(_) => panic!("token was cancelled mid-run"),
    };
    assert!(
        snap.time() > SimTime::ZERO && snap.time() < SimTime::ZERO + cfg.duration,
        "cancellation cut should land mid-run, got {:?}",
        snap.time()
    );
    let resumed = Simulator::restore(cfg.clone(), &snap)
        .expect("cancellation snapshot restores")
        .run();
    assert_eq!(
        mode_invariant_fingerprint(&resumed),
        ref_fp,
        "resume after cancellation diverged"
    );
}

/// Corrupt or foreign checkpoint artifacts surface structured errors —
/// truncation at any byte offset, bit rot, wrong magic, future versions,
/// a mismatched scenario — and never panic.
#[test]
fn corrupt_checkpoints_fail_structurally() {
    let cfg = snapshot_scenario(5, 12, true);
    let (_, snaps) =
        run_with_checkpoints(Simulator::new(with_floor(cfg)), Duration::from_millis(400));
    let bytes = snaps[snaps.len() / 2].to_bytes();

    // Truncation at several offsets: inside the magic, the header, the
    // length field, and at assorted payload depths.
    for cut in [
        0usize,
        1,
        3,
        5,
        9,
        15,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        assert!(
            SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} must be rejected",
            bytes.len()
        );
    }
    // Bit rot in the payload trips the checksum.
    let mut rotten = bytes.clone();
    let mid = rotten.len() / 2;
    rotten[mid] ^= 0x40;
    assert!(
        SimSnapshot::from_bytes(&rotten).is_err(),
        "bit rot must be rejected"
    );
    // Not a snapshot at all.
    let mut alien = bytes.clone();
    alien[0] ^= 0xFF;
    assert!(
        SimSnapshot::from_bytes(&alien).is_err(),
        "bad magic must be rejected"
    );
    // A future format version.
    let mut future = bytes.clone();
    future[4] = future[4].wrapping_add(1);
    assert!(
        SimSnapshot::from_bytes(&future).is_err(),
        "future versions must be rejected"
    );

    // A valid snapshot of a *different* scenario must refuse to restore.
    let snap = SimSnapshot::from_bytes(&bytes).expect("pristine bytes parse");
    let other = with_floor(snapshot_scenario(29, 12, true));
    assert!(
        !snap.matches(&other),
        "distinct scenarios must have distinct digests"
    );
    assert!(
        Simulator::restore(other, &snap).is_err(),
        "cfg-mismatched restore must fail, not corrupt state"
    );
}
