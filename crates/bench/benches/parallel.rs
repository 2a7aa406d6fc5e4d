//! Whole-run cost of large static scenarios, N = 4000 … 131072.
//!
//! Each row times `Simulator::new` + `run()` of one constant-density
//! scenario and reports *events per wall-second* plus the row's *peak
//! RSS*, measured by re-executing the row in a fresh child process
//! (`VmHWM` is a per-process high-water mark, so rows cannot inherit
//! each other's footprint).
//!
//! Scenarios hold node density constant (one node per 250 m × 250 m, as
//! in the channel/mobility benches) with a workload that *scales with
//! N* — one nearest-neighbour CBR flow per 250 nodes, sources scattered
//! across the whole field. Every row runs with a 10 µs propagation-delay
//! floor.
//!
//! Results go to `BENCH_parallel.json` at the repository root.
//!
//! The full run also guards the checkpoint subsystem: an extra
//! `checkpoint_overhead` row re-times the N = 64000 row with periodic
//! snapshots every 100 ms of *simulated* time, each fully serialized
//! through the envelope (`to_bytes`) — the cost the campaign runner
//! pays before writing to disk. The dense interval exists to measure
//! per-snapshot cost precisely inside a 400 ms row; the enforced bar is
//! the cost *at a 10 s simulated checkpoint interval* (the recommended
//! production cadence): per-snapshot wall cost divided by the wall time
//! between 10 s-cadence snapshots must stay under 5% of events/sec.
//!
//! With `PCMAC_BENCH_QUICK=1` (the CI perf-smoke step) the bench runs
//! reduced sizes, skips the checkpoint row and does **not** rewrite
//! `BENCH_parallel.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use pcmac::{NodeSetup, RunHooks, RunOutcome, ScenarioConfig, SimSnapshot, Simulator, Variant};
use pcmac_bench::support::{
    density_per_km2, field_side, nearest_neighbour_flows, quick_mode, scatter,
};
use pcmac_engine::{Duration, Milliwatts};

/// Node counts (full mode). The 131072 row is the scale-ceiling probe,
/// at a reduced duration (see [`row_duration`]).
const SIZES: [usize; 4] = [4000, 16000, 64000, 131_072];

/// Node counts in `PCMAC_BENCH_QUICK` mode — the classic smoke sizes
/// plus the scale-ceiling row at a further-reduced duration.
const QUICK_SIZES: [usize; 3] = [1000, 4000, 131_072];

/// Every propagation delay is floored at 10 µs (a 3 km speed-of-light
/// radius — far beyond any audible link at these densities, so the
/// floor only quantizes, never reorders, local arrivals — while staying
/// under the 20 µs slot time, past which the MAC's two-slot timeout
/// grace dies and traffic silently zeroes out).
const DELAY_FLOOR_US: f64 = 10.0;

fn sizes() -> &'static [usize] {
    if quick_mode() {
        &QUICK_SIZES
    } else {
        &SIZES
    }
}

/// Cores the OS exposes to this process, recorded in the artifact.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Simulated duration per row: 400 ms at the classic sizes; the
/// N ≥ 100k scale rows run shorter — they probe construction cost,
/// steady-state throughput, and the memory ceiling, which saturate
/// quickly — and quick mode trims them further.
fn row_duration(n: usize) -> Duration {
    if n >= 100_000 {
        if quick_mode() {
            // Long enough for the first staggered flows (starting at
            // 20 ms) to finish AODV discovery plus the MAC handshake —
            // 25 ms measured zero deliveries.
            Duration::from_millis(60)
        } else {
            Duration::from_millis(120)
        }
    } else {
        Duration::from_millis(400)
    }
}

/// N static nodes at constant density, one single-hop CBR flow per 250
/// nodes spread over the whole field.
fn scenario(n: usize) -> ScenarioConfig {
    let side = field_side(n);
    let duration = row_duration(n);
    let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 1000.0, 1);
    cfg.name = format!("parallel-bench-{n}");
    cfg.field = (side, side);
    cfg.duration = duration;
    // CSThresh floor: 550 m reach — local reception, the indexed regime.
    cfg.interference_floor = Milliwatts(1.559e-8);
    cfg.delay_floor_us = Some(DELAY_FLOOR_US);
    let pts = scatter(11, "bench.parallel.placement", n, side);
    let flows = (n / 250).max(8) as u32;
    cfg.flows = nearest_neighbour_flows(
        11,
        "bench.parallel.flows",
        &pts,
        flows,
        40_000.0,
        (20, 3),
        duration,
    );
    cfg.nodes = NodeSetup::Static(pts);
    cfg
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel");
    for &n in sizes() {
        g.sample_size(match n {
            0..=4000 => 5,
            4001..=16000 => 3,
            _ => 2,
        });
        g.bench_function(format!("{n}"), |b| {
            b.iter(|| {
                let r = Simulator::new(scenario(n)).run();
                black_box(r.events)
            });
        });
    }
    g.finish();
}

criterion_group!(
    name = parallel;
    config = Criterion::default();
    targets = bench_parallel
);

/// Child-process entry for the per-row RSS probe: run one row, print
/// the process's `VmHWM`, exit. Selected by `PCMAC_BENCH_RSS_CHILD`
/// (the row's node count) before any benchmarking starts.
fn rss_child(spec: &str) {
    let n: usize = spec.parse().expect("node count");
    let r = Simulator::new(scenario(n)).run();
    black_box(r.events);
    match pcmac_bench::support::peak_rss_kb() {
        Some(kb) => println!("VMHWM_KB={kb}"),
        None => println!("VMHWM_KB=unsupported"),
    }
}

/// Peak RSS (bytes) of one row, measured in a fresh child process so
/// the high-water mark belongs to that row alone. `None` when the
/// platform offers no `VmHWM` or the child fails.
fn measure_peak_rss(n: usize) -> Option<u64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .env("PCMAC_BENCH_RSS_CHILD", n.to_string())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let kb: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VMHWM_KB="))?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

fn main() {
    if let Some(spec) = std::env::var_os("PCMAC_BENCH_RSS_CHILD") {
        rss_child(spec.to_str().expect("utf-8 rss spec"));
        return;
    }
    parallel();

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
        "\n{:>6} {:>13} {:>14} {:>11}",
        "N", "wall", "events/sec", "peak RSS"
    );
    let mut top = None;
    for &n in sizes() {
        let report = Simulator::new(scenario(n)).run();
        let events = report.events;
        let ns = mean(&format!("parallel/{n}"));
        let eps = events as f64 / (ns / 1e9);
        let rss = measure_peak_rss(n);
        let rss_str = rss.map_or("n/a".to_string(), |b| {
            format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
        });
        println!("{n:>6} {:>11.2}ms {eps:>14.0} {rss_str:>11}", ns / 1e6);
        let mut row = vec![
            ("n".into(), serde_json::Value::U64(n as u64)),
            (
                "field_m".into(),
                serde_json::Value::F64(field_side(n).round()),
            ),
            (
                "density_per_km2".into(),
                serde_json::Value::F64(density_per_km2(n)),
            ),
            ("events".into(), serde_json::Value::U64(events)),
            ("wall_ns".into(), serde_json::Value::F64(ns)),
            ("events_per_sec".into(), serde_json::Value::F64(eps)),
        ];
        if let Some(b) = rss {
            row.push(("peak_rss_bytes".into(), serde_json::Value::U64(b)));
        }
        rows.push(serde_json::Value::Map(row));
        top = Some((n, report.delivered_packets));
    }

    // Guard against measuring a degenerate workload: if the delay floor
    // (or anything else) silently killed the MAC handshake, every row
    // would still "run" while timing nothing but failed RTS retries.
    if let Some((n_top, 0)) = top {
        failures.push(format!(
            "no traffic delivered at N={n_top}: the bench would be measuring a \
             degenerate zero-delivery workload"
        ));
    }

    if quick {
        println!("\nquick mode: BENCH_parallel.json left untouched");
    } else {
        // Checkpoint guard: periodic in-run checkpoints must be close to
        // free at the production cadence. Snapshots are taken every
        // 100 ms of simulated time — dense enough that a 400 ms row
        // yields a stable per-snapshot cost — and each is fully
        // serialized in the sink (`to_bytes`), the exact cost the
        // campaign runner pays before writing to disk. The enforced
        // bar rescales that per-snapshot cost to the recommended 10 s
        // simulated checkpoint interval: cost divided by the wall time
        // between 10 s-cadence snapshots must stay under 5%.
        let ck_n = 64_000;
        let ck_every = Duration::from_millis(100);
        let timed = |hooked: bool| -> (f64, u64, u64) {
            let mut best = f64::INFINITY;
            let (mut snaps, mut bytes) = (0u64, 0u64);
            for _ in 0..3 {
                let sim = Simulator::new(scenario(ck_n));
                let start = std::time::Instant::now();
                if hooked {
                    let seen = std::sync::Mutex::new((0u64, 0u64));
                    let sink = |s: SimSnapshot| {
                        let len = s.to_bytes().len() as u64;
                        let mut g = seen.lock().unwrap();
                        g.0 += 1;
                        g.1 += len;
                    };
                    match sim.run_with_hooks(RunHooks {
                        cancel: None,
                        checkpoint_every: Some(ck_every),
                        checkpoint_sink: Some(&sink),
                    }) {
                        RunOutcome::Completed(r) => {
                            black_box(r.events);
                        }
                        RunOutcome::Cancelled(_) => unreachable!("no cancel token"),
                    }
                    (snaps, bytes) = seen.into_inner().unwrap();
                } else {
                    black_box(sim.run().events);
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            (best, snaps, bytes)
        };
        let (plain_s, _, _) = timed(false);
        let (hooked_s, ck_snaps, ck_bytes) = timed(true);
        let per_snap_s = (hooked_s - plain_s).max(0.0) / ck_snaps.max(1) as f64;
        // Simulated seconds that elapse per wall second on this host:
        // at a 10 s simulated cadence a snapshot lands every
        // 10 / sim_rate wall seconds, and the overhead fraction is the
        // per-snapshot cost spread over that spacing.
        let sim_rate = row_duration(ck_n).as_secs_f64() / plain_s;
        let overhead_at_10s = per_snap_s * sim_rate / 10.0;
        println!(
            "\ncheckpoint overhead at N={ck_n}: plain {:.0} ms, {ck_snaps} snapshots \
             every 100 ms simulated add {:.0} ms ({:.0} ms per snapshot, \
             {:.1} MiB serialized each); at a 10 s simulated interval: {:.2}%",
            plain_s * 1e3,
            (hooked_s - plain_s).max(0.0) * 1e3,
            per_snap_s * 1e3,
            ck_bytes as f64 / ck_snaps.max(1) as f64 / (1024.0 * 1024.0),
            overhead_at_10s * 100.0
        );
        if overhead_at_10s > 0.05 {
            failures.push(format!(
                "checkpoint overhead bar: at a 10 s simulated checkpoint \
                 interval, snapshots cost {:.2}% events/sec at N={ck_n} \
                 (bar: 5%; measured {:.0} ms per snapshot, {:.2} sim-s/s)",
                overhead_at_10s * 100.0,
                per_snap_s * 1e3,
                sim_rate
            ));
        }
        rows.push(serde_json::Value::Map(vec![
            (
                "bench_section".into(),
                serde_json::Value::Str("checkpoint_overhead".into()),
            ),
            ("n".into(), serde_json::Value::U64(ck_n as u64)),
            (
                "checkpoint_interval_sim_ms".into(),
                serde_json::Value::U64(100),
            ),
            ("checkpoints".into(), serde_json::Value::U64(ck_snaps)),
            (
                "snapshot_bytes_total".into(),
                serde_json::Value::U64(ck_bytes),
            ),
            (
                "plain_wall_ns".into(),
                serde_json::Value::F64(plain_s * 1e9),
            ),
            (
                "checkpointed_wall_ns".into(),
                serde_json::Value::F64(hooked_s * 1e9),
            ),
            (
                "per_snapshot_wall_ns".into(),
                serde_json::Value::F64(per_snap_s * 1e9),
            ),
            (
                "overhead_frac_at_10s_interval".into(),
                serde_json::Value::F64(overhead_at_10s),
            ),
        ]));

        let doc = serde_json::Value::Map(vec![
            ("bench".into(), serde_json::Value::Str("parallel".into())),
            (
                "description".into(),
                serde_json::Value::Str(
                    "whole-run (build + run) events per wall-second at constant density \
                     (16 nodes/km2, floor = CSThresh, one nearest-neighbour CBR flow per \
                     250 nodes, 10 us delay floor on every row); peak_rss_bytes = per-row \
                     child process VmHWM (the N >= 100k rows run a reduced duration)"
                        .into(),
                ),
            ),
            (
                "host_cores".into(),
                serde_json::Value::U64(host_cores() as u64),
            ),
            ("results".into(), serde_json::Value::Seq(rows)),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
        std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
            .expect("write BENCH_parallel.json");
        println!("\nwrote {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
