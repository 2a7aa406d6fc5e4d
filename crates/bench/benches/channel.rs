//! Channel fan-out: spatial index vs brute-force scan.
//!
//! Runs the same static sparse-field scenario on the production channel
//! (grid index) and on the reference channel of
//! `Simulator::into_reference` (brute-force scan, live gains), timing
//! whole simulation runs (the channel fan-out dominates them: every
//! transmission fans out to its audible neighbourhood). Two things keep
//! the rows comparable so the speedup column actually measures index
//! scaling:
//!
//! * **Constant node density.** The field grows with N at one node per
//!   250 m × 250 m (16 nodes/km², recorded per row as
//!   `density_per_km2`), and the interference floor is ns-2's
//!   carrier-sense threshold, giving a 550 m reach at maximum power —
//!   a transmission's cell block covers a fixed *fraction* of the field
//!   at every N, which is exactly the regime the paper's large-network
//!   claims live in.
//! * **Uniform per-row workload.** Every flow runs from a random source
//!   to its *nearest neighbour* — single-hop traffic, N/10 flows — so
//!   per-node offered load and route lengths are the same at every N.
//!   (Random cross-field pairs, as this bench originally used, made
//!   AODV route length a second variable: multi-hop discovery dominated
//!   some rows and not others, which is why brute force at N=100 once
//!   measured *slower* than at N=200.)
//!
//! The reference rows build through `Simulator::new`, so their time
//! includes the dense gain table the production build makes for these
//! static fields and the reference then drops (N² gains: 160k at
//! N = 400).
//!
//! Besides the usual criterion output, the comparison is written to
//! `BENCH_channel.json` at the repository root, and the run **fails**
//! if the indexed channel does not beat the brute-force scan at
//! N ≥ 200 (the regression bar from PR 1's acceptance criteria).
//!
//! With `PCMAC_BENCH_QUICK=1` (the CI perf-smoke step) the bench runs
//! reduced sizes, asserts the indexed channel stays within a 10%
//! tolerance band of brute force (≥ 0.9×) at the largest reduced size,
//! and does **not** rewrite `BENCH_channel.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use pcmac::{NodeSetup, ScenarioConfig, Simulator, Variant};
use pcmac_bench::support::{
    density_per_km2, field_side, nearest_neighbour_flows, quick_mode, scatter,
};
use pcmac_engine::{Duration, Milliwatts};

/// Node counts under comparison (full mode).
const SIZES: [usize; 4] = [50, 100, 200, 400];

/// Node counts in `PCMAC_BENCH_QUICK` mode.
const QUICK_SIZES: [usize; 2] = [50, 100];

fn sizes() -> &'static [usize] {
    if quick_mode() {
        &QUICK_SIZES
    } else {
        &SIZES
    }
}

/// The benchmark scenario: N static nodes scattered uniformly, N/10
/// single-hop CBR flows (random source → nearest neighbour), 1 simulated
/// second, basic 802.11 (every frame at maximum power — the heaviest
/// fan-out).
fn scenario(n: usize) -> ScenarioConfig {
    let side = field_side(n);
    let duration = Duration::from_secs(1);
    let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 1000.0, 1);
    cfg.name = format!("channel-bench-{n}");
    cfg.field = (side, side);
    cfg.duration = duration;
    // ns-2's CSThresh: reach 550 m at max power, so reception is local
    // relative to the field — the regime a spatial index exists for.
    cfg.interference_floor = Milliwatts(1.559e-8);
    let pts = scatter(7, "bench.channel.placement", n, side);
    cfg.flows = nearest_neighbour_flows(
        7,
        "bench.channel.flows",
        &pts,
        (n / 10).max(2) as u32,
        80_000.0,
        (50, 13),
        duration,
    );
    cfg.nodes = NodeSetup::Static(pts);
    cfg
}

fn bench_channel(c: &mut Criterion) {
    let mut g = c.benchmark_group("channel");
    g.sample_size(10);
    for &n in sizes() {
        g.bench_function(format!("brute/{n}"), |b| {
            b.iter(|| {
                let r = Simulator::new(scenario(n)).into_reference().run();
                black_box(r.events)
            });
        });
        g.bench_function(format!("grid/{n}"), |b| {
            b.iter(|| {
                let r = Simulator::new(scenario(n)).run();
                black_box(r.events)
            });
        });
    }
    g.finish();
}

criterion_group!(
    name = channel;
    config = Criterion::default().sample_size(10);
    targets = bench_channel
);

fn main() {
    channel();

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
    println!(
        "\n{:>6} {:>12} {:>12} {:>9}",
        "N", "brute", "grid", "speedup"
    );
    for &n in sizes() {
        let brute_ns = mean(&format!("channel/brute/{n}"));
        let grid_ns = mean(&format!("channel/grid/{n}"));
        let speedup = brute_ns / grid_ns;
        println!(
            "{n:>6} {:>10.2}ms {:>10.2}ms {speedup:>8.2}x",
            brute_ns / 1e6,
            grid_ns / 1e6
        );
        if quick {
            // Perf smoke: a 10% tolerance band at reduced N absorbs CI
            // noise while still catching an index that stopped working.
            if n == *sizes().last().unwrap() && speedup < 0.9 {
                failures.push(format!(
                    "perf smoke: indexed channel fell below 0.9x of brute force at N={n} \
                     (got {speedup:.2}x)"
                ));
            }
        } else if n >= 200 && speedup <= 1.0 {
            failures.push(format!(
                "indexed channel must beat brute force at N={n} (got {speedup:.2}x)"
            ));
        }
        rows.push(serde_json::Value::Map(vec![
            ("n".into(), serde_json::Value::U64(n as u64)),
            (
                "field_m".into(),
                serde_json::Value::F64(field_side(n).round()),
            ),
            (
                "density_per_km2".into(),
                serde_json::Value::F64(density_per_km2(n)),
            ),
            ("brute_ns".into(), serde_json::Value::F64(brute_ns)),
            ("grid_ns".into(), serde_json::Value::F64(grid_ns)),
            ("speedup".into(), serde_json::Value::F64(speedup)),
        ]));
    }

    if quick {
        println!("\nquick mode: BENCH_channel.json left untouched");
    } else {
        let doc = serde_json::Value::Map(vec![
            ("bench".into(), serde_json::Value::Str("channel".into())),
            (
                "description".into(),
                serde_json::Value::Str(
                    "whole-run wall time, static field at constant density (16 nodes/km2, \
                     floor = CSThresh, single-hop nearest-neighbour flows), brute-force O(N) \
                     channel vs uniform-grid index"
                        .into(),
                ),
            ),
            ("results".into(), serde_json::Value::Seq(rows)),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_channel.json");
        std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
            .expect("write BENCH_channel.json");
        println!("\nwrote {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
