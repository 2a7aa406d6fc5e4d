//! The mobile hot path: the production channel vs the reference channel.
//!
//! * **production** (`Simulator::new`) queries the spatial index,
//!   refreshes positions lazily — per-node refresh deadlines in a
//!   min-heap, re-sampling only due nodes plus each transmission's
//!   actual candidates, O(local) — and evaluates gains live (static
//!   fields of at most 2048 nodes replay them from the dense table).
//! * **reference** (`Simulator::into_reference`) is the test oracle:
//!   every node is a candidate receiver, every waypoint model is
//!   re-sampled on each new timestamp (O(N) per event), and every gain
//!   is evaluated live.
//!
//! Each sample times `run()` on a freshly built simulator; the build is
//! excluded, so the reference column does not pay for the dense table
//! it discards.
//!
//! Scenarios hold node density constant (one node per 250 m × 250 m,
//! 16 nodes/km², recorded as `density_per_km2`) with a **fixed** traffic
//! workload (16 single-hop nearest-neighbour CBR flows) at every N, so
//! the per-event *protocol* work is constant across rows and the timing
//! differences isolate the channel-maintenance cost — which is the point:
//! the reference scales with N while production scales with the
//! neighbourhood, so the production margin must *grow* with N.
//! Placements are identical between the static and waypoint rows
//! (waypoint rows move at 10 m/s with 500 ms pauses).
//!
//! Results go to `BENCH_mobility.json` at the repository root. The run
//! **fails** unless, on waypoint scenarios, production beats the
//! reference at every N, by ≥ 2× at N = 4000, with the margin growing
//! from the smallest to the largest N.
//!
//! With `PCMAC_BENCH_QUICK=1` (the CI perf-smoke step) the bench runs
//! reduced sizes, asserts production stays within a 10% tolerance band
//! of the reference (≥ 0.9×), and does **not** rewrite
//! `BENCH_mobility.json`.

use criterion::{criterion_group, BatchSize, Criterion};
use std::hint::black_box;

use pcmac::{NodeSetup, ScenarioConfig, Simulator, Variant};
use pcmac_bench::support::{
    density_per_km2, field_side, host_cores, nearest_neighbour_flows, quick_mode, scatter,
};
use pcmac_engine::{Duration, Milliwatts};

/// Node counts under comparison (full mode).
const SIZES: [usize; 3] = [200, 1000, 4000];

/// Node counts in `PCMAC_BENCH_QUICK` mode.
const QUICK_SIZES: [usize; 2] = [100, 300];

/// The two channels, with their row keys: `true` is the reference.
const CHANNELS: [(&str, bool); 2] = [("reference", true), ("production", false)];

fn sizes() -> &'static [usize] {
    if quick_mode() {
        &QUICK_SIZES
    } else {
        &SIZES
    }
}

/// N nodes at constant density, fixed 16-flow single-hop workload,
/// static or random-waypoint.
fn scenario(n: usize, mobile: bool) -> ScenarioConfig {
    let side = field_side(n);
    let duration = Duration::from_millis(500);
    let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 1000.0, 1);
    cfg.name = format!("mobility-bench-{n}");
    cfg.field = (side, side);
    cfg.duration = duration;
    // CSThresh floor: 550 m reach — local reception, the indexed regime.
    cfg.interference_floor = Milliwatts(1.559e-8);
    let pts = scatter(11, "bench.mobility.placement", n, side);
    cfg.flows = nearest_neighbour_flows(
        11,
        "bench.mobility.flows",
        &pts,
        16,
        40_000.0,
        (20, 11),
        duration,
    );
    cfg.nodes = if mobile {
        NodeSetup::WaypointFrom {
            starts: pts,
            speed: 10.0,
            pause: Duration::from_millis(500),
        }
    } else {
        NodeSetup::Static(pts)
    };
    cfg
}

fn bench_mobility(c: &mut Criterion) {
    let mut g = c.benchmark_group("mobility");
    for &n in sizes() {
        // Whole runs get slow at the top size; fewer samples there.
        g.sample_size(match n {
            0..=300 => 10,
            301..=1500 => 5,
            _ => 3,
        });
        for mobile in [false, true] {
            let kind = if mobile { "waypoint" } else { "static" };
            for (key, reference) in CHANNELS {
                g.bench_function(format!("{kind}/{key}/{n}"), |b| {
                    b.iter_batched(
                        || {
                            let sim = Simulator::new(scenario(n, mobile));
                            if reference {
                                sim.into_reference()
                            } else {
                                sim
                            }
                        },
                        |sim| black_box(sim.run().events),
                        BatchSize::LargeInput,
                    );
                });
            }
        }
    }
    g.finish();
}

criterion_group!(
    name = mobility;
    config = Criterion::default();
    targets = bench_mobility
);

fn main() {
    mobility();

    let quick = quick_mode();
    let measurements = criterion::take_measurements();
    let mean = |id: &str| {
        measurements
            .iter()
            .find(|m| m.id == id)
            .map(|m| m.mean_ns)
            .expect("benchmark ran")
    };

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut waypoint_speedups: Vec<(usize, f64)> = Vec::new();
    println!(
        "\n{:>6} {:>9} {:>13} {:>13} {:>9}",
        "N", "mobility", "reference", "production", "speedup"
    );
    for &n in sizes() {
        for mobile in [false, true] {
            let kind = if mobile { "waypoint" } else { "static" };
            let ns: Vec<f64> = CHANNELS
                .iter()
                .map(|(key, _)| mean(&format!("mobility/{kind}/{key}/{n}")))
                .collect();
            let speedup = ns[0] / ns[1];
            println!(
                "{n:>6} {kind:>9} {:>11.2}ms {:>11.2}ms {speedup:>8.2}x",
                ns[0] / 1e6,
                ns[1] / 1e6
            );
            if mobile {
                waypoint_speedups.push((n, speedup));
            }
            let mut row = vec![
                ("n".into(), serde_json::Value::U64(n as u64)),
                ("mobility".into(), serde_json::Value::Str(kind.into())),
                (
                    "field_m".into(),
                    serde_json::Value::F64(field_side(n).round()),
                ),
                (
                    "density_per_km2".into(),
                    serde_json::Value::F64(density_per_km2(n)),
                ),
            ];
            for ((key, _), v) in CHANNELS.iter().zip(&ns) {
                row.push((format!("{key}_ns"), serde_json::Value::F64(*v)));
            }
            row.push((
                "speedup_production_vs_reference".into(),
                serde_json::Value::F64(speedup),
            ));
            rows.push(serde_json::Value::Map(row));
        }
    }

    if quick {
        // Perf smoke: production must stay within a 10% tolerance band
        // of the reference at the largest reduced size (smaller sizes
        // run too fast for a stable ratio under CI noise).
        if let Some(&(n, speedup)) = waypoint_speedups.last() {
            if speedup < 0.9 {
                failures.push(format!(
                    "perf smoke: production fell below 0.9x of the reference on waypoint \
                     N={n} (got {speedup:.2}x)"
                ));
            }
        }
        // Instrumentation tax: turning the observability layer on must
        // keep the run within the same 10% band of a metrics-off run at
        // the largest reduced size — the hot-path counters are plain
        // integer bumps behind an `Option` check, nothing more.
        let &n = sizes().last().expect("sizes non-empty");
        let time = |metrics: bool| {
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let mut cfg = scenario(n, true);
                if metrics {
                    cfg.metrics = Some(pcmac::MetricsConfig::default());
                }
                let start = std::time::Instant::now();
                let r = Simulator::new(cfg).run();
                let elapsed = start.elapsed().as_secs_f64();
                black_box(r.events);
                best = best.min(elapsed);
            }
            best
        };
        let off = time(false);
        let on = time(true);
        println!(
            "metrics overhead at N={n}: off {:.2} ms, on {:.2} ms ({:.2}x)",
            off * 1e3,
            on * 1e3,
            on / off
        );
        if on > off * 1.10 {
            failures.push(format!(
                "perf smoke: metrics-on run exceeded 1.10x of metrics-off on waypoint \
                 N={n} (got {:.2}x)",
                on / off
            ));
        }
        println!("\nquick mode: BENCH_mobility.json left untouched");
    } else {
        for &(n, speedup) in &waypoint_speedups {
            if speedup <= 1.0 {
                failures.push(format!(
                    "production must beat the reference on waypoint scenarios at N={n} \
                     (got {speedup:.2}x)"
                ));
            }
            if n == 4000 && speedup < 2.0 {
                failures.push(format!(
                    "production must beat the reference by >= 2x at N=4000 (got {speedup:.2}x)"
                ));
            }
        }
        let (first, last) = (
            waypoint_speedups.first().expect("sizes non-empty"),
            waypoint_speedups.last().expect("sizes non-empty"),
        );
        if last.1 <= first.1 {
            failures.push(format!(
                "the production margin must grow with N (N={} gave {:.2}x, N={} gave {:.2}x)",
                first.0, first.1, last.0, last.1
            ));
        }

        let doc = serde_json::Value::Map(vec![
            ("bench".into(), serde_json::Value::Str("mobility".into())),
            (
                "description".into(),
                serde_json::Value::Str(
                    "run() wall time, build excluded, at constant density (16 nodes/km2, \
                     floor = CSThresh, fixed 16-flow single-hop workload, waypoint 10 m/s / \
                     500 ms pause): production channel (grid index, lazy refresh, dense gain \
                     table on static fields up to 2048 nodes, else live gains) vs the reference \
                     channel (brute-force scan, eager refresh, live gains); \
                     speedup = reference / production"
                        .into(),
                ),
            ),
            (
                "host_cores".into(),
                serde_json::Value::U64(host_cores() as u64),
            ),
            ("results".into(), serde_json::Value::Seq(rows)),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mobility.json");
        std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
            .expect("write BENCH_mobility.json");
        println!("\nwrote {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
