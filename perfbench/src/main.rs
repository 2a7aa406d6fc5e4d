//! One measured iteration of one benchmark workload.
//!
//! `run.py` starts this binary in a fresh process for every iteration,
//! so each iteration pays its own first-touch allocation and its
//! `VmHWM` belongs to it alone. The binary generates the workload's
//! inputs from the seed before any clock starts, hands them to the
//! simulator through its public API only, times every call from the
//! outside, checks the results, and prints one JSON line:
//!
//! ```text
//! {"workload": .., "seed": .., "fingerprint": "<hex>", "attempted": n,
//!  "failed": n, "errors": [..], "e2e": {..}, "layer": {..}}
//! ```
//!
//! Usage: `pcmac-perfbench --workload <name> --seed <n> [--iteration <i>]
//! [--scale full|smoke] [--trace]`
//!
//! Iteration `i` of seed `n` simulates its own inputs, derived from
//! `1000·n + i`, so the iterations of one benchmark run average over
//! several random fields instead of repeating one.
//!
//! With `--trace` the iteration additionally re-runs every cell with the
//! metrics layer on and an observer that timestamps each event, and
//! re-runs the checkpointed cell without hooks as the untraced
//! reference; those runs never enter the end-to-end figures.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pcmac::{
    MetricsConfig, NodeSetup, RunHooks, RunOutcome, RunReport, ScenarioConfig, SimEvent,
    SimSnapshot, Simulator, Variant,
};
use pcmac_bench::support::{nearest_neighbour_flows, peak_rss_kb, scatter};
use pcmac_campaign::{run_campaign_with, Axis, CampaignSpec, RunOptions, ScenarioSpec};
use pcmac_engine::{Duration, Milliwatts};
use serde_json::Value;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    PaperSaturation,
    DenseStatic,
    Scale131k,
}

/// `Smoke` shrinks every workload to a few seconds in total; the
/// benchmark's own tests use it.
#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    iteration: u64,
    scale: Scale,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut iteration = 0;
    let mut scale = Scale::Full;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "paper_saturation" => Workload::PaperSaturation,
                    "dense_static" => Workload::DenseStatic,
                    "scale_131k" => Workload::Scale131k,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--iteration" => {
                iteration = value()?.parse().map_err(|e| format!("--iteration: {e}"))?
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--trace" => trace = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        iteration,
        scale,
        trace,
    })
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Offered load of the paper-saturation workload: the saturated end of
/// the paper's Figure 8/9 sweep.
const PAPER_LOAD_KBPS: f64 = 1000.0;

/// Simulation seeds per `paper_saturation` campaign point. The paper's scenario is small
/// (50 nodes, ten flows), so one topology's cost swings with its routes;
/// averaging over several keeps the workload's cost steady across
/// benchmark seeds, as the paper averages its figures over runs.
const PAPER_SEEDS: u64 = 4;

/// Simulated seconds per `paper_saturation` cell. The flows start at
/// 1.0–2.233 s (`pcmac::flow_start`), so two thirds of a cell run with all
/// ten flows on. In shorter cells warm-up takes a larger share: a 3.5 s
/// cell carries about a third fewer events per simulated second.
const PAPER_DURATION_S: f64 = 7.0;

/// `paper_saturation`: the paper's §IV scenario at saturation, one point per MAC
/// variant, `PAPER_SEEDS` simulation seeds derived from `seed`.
fn paper_campaign(seed: u64, scale: Scale) -> CampaignSpec {
    let mut base = ScenarioSpec::paper();
    base.name = "perfbench-paper-saturation".into();
    base.traffic.offered_load_kbps = PAPER_LOAD_KBPS;
    base.duration_s = scale.pick(PAPER_DURATION_S, 2.5);
    CampaignSpec {
        name: "perfbench-paper-saturation".into(),
        base,
        duration_s: None,
        seeds: (0..PAPER_SEEDS)
            .map(|k| seed.wrapping_mul(PAPER_SEEDS).wrapping_add(k))
            .collect(),
        axes: None,
        sweep: Some(vec![Axis::Variants {
            values: Variant::ALL.to_vec(),
        }]),
    }
}

/// A field of static nodes under the CSThresh interference floor, with
/// one nearest-neighbour CBR flow per `nodes_per_flow` nodes; flow `i`
/// starts at `20 + 3·i` ms.
struct StaticField {
    /// Scenario name and label of the field's random streams.
    name: &'static str,
    variant: Variant,
    nodes: usize,
    per_km2: f64,
    nodes_per_flow: usize,
    rate_bps: f64,
    duration: Duration,
}

impl StaticField {
    fn scenario(&self, seed: u64) -> ScenarioConfig {
        let (name, n) = (self.name, self.nodes);
        let side = (n as f64 / self.per_km2).sqrt() * 1000.0;
        let mut cfg = ScenarioConfig::two_nodes(self.variant, 100.0, self.rate_bps, seed);
        cfg.name = format!("{name}-{n}");
        cfg.field = (side, side);
        cfg.duration = self.duration;
        cfg.interference_floor = Milliwatts(1.559e-8);
        let pts = scatter(seed, &format!("{name}.placement"), n, side);
        cfg.flows = nearest_neighbour_flows(
            seed,
            &format!("{name}.flows"),
            &pts,
            (n / self.nodes_per_flow).max(8) as u32,
            self.rate_bps,
            (20, 3),
            self.duration,
        );
        cfg.nodes = NodeSetup::Static(pts);
        cfg
    }
}

/// `dense_static`: a static field small enough for the dense gain table.
fn dense_static(seed: u64, scale: Scale) -> ScenarioConfig {
    StaticField {
        name: "perfbench.dense",
        variant: Variant::Pcmac,
        nodes: scale.pick(2000, 300),
        per_km2: 100.0,
        nodes_per_flow: 100,
        rate_bps: 200_000.0,
        duration: Duration::from_millis(scale.pick(4000, 500)),
    }
    .scenario(seed)
}

/// `scale_131k`: the 131 072-node static field of the parallel bench (16
/// nodes/km², one flow per 250 nodes, 10 µs delay floor), single-threaded.
fn scale_131k(seed: u64, scale: Scale) -> ScenarioConfig {
    let mut cfg = StaticField {
        name: "perfbench.scale",
        variant: Variant::Basic,
        nodes: scale.pick(131_072, 8192),
        per_km2: 16.0,
        nodes_per_flow: 250,
        rate_bps: 40_000.0,
        duration: Duration::from_millis(scale.pick(120, 60)),
    }
    .scenario(seed);
    cfg.delay_floor_us = Some(10.0);
    cfg
}

// ---------------------------------------------------------------------
// Measurement plumbing
// ---------------------------------------------------------------------

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let kb = peak_rss_kb().expect("VmHWM in /proc/self/status (the benchmark runs on Linux)");
    kb as f64 / 1024.0
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Hash of a report's JSON with the wall clock zeroed and the metrics
/// section dropped: equal for the same deterministic run whether it was
/// timed, traced or resumed from a checkpoint.
fn fingerprint(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.wall_s = 0.0;
    r.metrics = None;
    fnv1a(
        serde_json::to_string(&r)
            .expect("a report serializes")
            .as_bytes(),
    )
}

/// The checkpoint taken halfway through the checkpointed cell.
#[derive(Default)]
struct Checkpoint {
    bytes: Vec<u8>,
    encode: f64,
    taken: u64,
}

/// Runs `sim` with one checkpoint grid point at half the duration; the
/// first snapshot is encoded with `to_bytes` and kept in `slot`.
fn run_checkpointed(sim: Simulator, half: Duration, slot: &Mutex<Checkpoint>) -> Option<RunReport> {
    let sink = |snap: SimSnapshot| {
        let mut cp = slot.lock().expect("checkpoint slot");
        cp.taken += 1;
        if cp.taken == 1 {
            (cp.bytes, cp.encode) = timed(|| snap.to_bytes());
        }
    };
    let outcome = sim.run_with_hooks(RunHooks {
        cancel: None,
        checkpoint_every: Some(half),
        checkpoint_sink: Some(&sink),
    });
    outcome.report()
}

/// Figures of one cell of the untraced run.
struct CellTiming {
    /// From the start of the workload to entering the cell.
    entered: f64,
    build: f64,
    call: f64,
    report_wall_s: f64,
    rss_after_build_mb: f64,
    rss_after_run_mb: f64,
}

/// Everything one iteration measured.
#[derive(Default)]
struct Iteration {
    e2e: Vec<(&'static str, f64)>,
    layer: Vec<(String, f64)>,
    fingerprints: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Iteration {
    fn layer(&mut self, name: &str, v: f64) {
        self.layer.push((name.to_string(), v));
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    fn to_json(&self, workload: &str, seed: u64, iteration: u64) -> String {
        let nums = |xs: &mut dyn Iterator<Item = (String, f64)>| {
            Value::Map(xs.map(|(k, v)| (k, Value::F64(v))).collect())
        };
        let fp = self
            .fingerprints
            .iter()
            .map(|f| format!("{f:016x}"))
            .collect::<String>();
        let doc = Value::Map(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("seed".into(), Value::U64(seed)),
            ("iteration".into(), Value::U64(iteration)),
            (
                "fingerprint".into(),
                Value::Str(format!("{:016x}", fnv1a(fp.as_bytes()))),
            ),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            (
                "errors".into(),
                Value::Seq(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "e2e".into(),
                nums(&mut self.e2e.iter().map(|(k, v)| (k.to_string(), *v))),
            ),
            ("layer".into(), nums(&mut self.layer.iter().cloned())),
        ]);
        serde_json::to_string(&doc).expect("a JSON document serializes")
    }
}

/// The untraced, timed part of one workload.
struct Untraced {
    timings: Vec<CellTiming>,
    /// Reports of the uninterrupted runs, in cell order (`None` = failed).
    reports: Vec<Option<RunReport>>,
    /// `paper_saturation` only: from the start to the campaign's return.
    campaign: Option<f64>,
}

// ---------------------------------------------------------------------
// Event classes of the traced run
// ---------------------------------------------------------------------

const CLASSES: [&str; 11] = [
    "phy.arrival_start",
    "phy.arrival_end",
    "phy.ctrl_arrival_start",
    "phy.ctrl_arrival_end",
    "mac.timer",
    "mac.tx_end",
    "mac.ctrl_tx_end",
    "aodv.timer",
    "traffic.emit",
    "core.probe",
    "core.fault",
];

fn class_of(ev: &SimEvent) -> usize {
    match ev {
        SimEvent::ArrivalStart { .. } => 0,
        SimEvent::ArrivalEnd { .. } => 1,
        SimEvent::CtrlArrivalStart { .. } => 2,
        SimEvent::CtrlArrivalEnd { .. } => 3,
        SimEvent::MacTimer { .. } => 4,
        SimEvent::TxEnd { .. } => 5,
        SimEvent::CtrlTxEnd { .. } => 6,
        SimEvent::AodvTimer { .. } => 7,
        SimEvent::TrafficEmit { .. } => 8,
        SimEvent::MetricsProbe => 9,
        SimEvent::NodeDown { .. }
        | SimEvent::NodeUp { .. }
        | SimEvent::ImpairmentStart { .. }
        | SimEvent::ImpairmentEnd { .. } => 10,
    }
}

/// Per-class event counts and self times of traced runs. A class's self
/// time runs from its event's observer callback to the next callback;
/// the last event of a run is left to finalize.
#[derive(Default)]
struct ClassProfile {
    count: [u64; CLASSES.len()],
    self_ns: [u128; CLASSES.len()],
    loop_s: f64,
    finalize_s: f64,
    call: f64,
}

/// Runs `cfg` with metrics on and a timestamping observer.
fn traced_run(mut cfg: ScenarioConfig, prof: &mut ClassProfile) -> RunReport {
    cfg.metrics = Some(MetricsConfig::default());
    let sim = Simulator::new(cfg);
    let mut first: Option<Instant> = None;
    let mut last: Option<(Instant, usize)> = None;
    let (count, self_ns) = (&mut prof.count, &mut prof.self_ns);
    let (report, call) = timed(|| {
        sim.run_with_observer(|ev, _| {
            let now = Instant::now();
            let class = class_of(ev);
            match last {
                Some((t, c)) => self_ns[c] += now.duration_since(t).as_nanos(),
                None => first = Some(now),
            }
            count[class] += 1;
            last = Some((now, class));
        })
    });
    let loop_s = match (first, last) {
        (Some(f), Some((l, _))) => l.duration_since(f).as_secs_f64(),
        _ => 0.0,
    };
    prof.loop_s += loop_s;
    prof.finalize_s += report.wall_s - loop_s;
    prof.call += call;
    report
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// `paper_saturation` through the campaign runner with one worker.
/// `keys` lists the cells' `(variant, seed)` in expansion order; cell
/// in `hooked` are checkpointed halfway into their slot of `slots`.
fn untraced_campaign(
    spec: CampaignSpec,
    keys: Vec<(Variant, u64)>,
    hooked: Vec<usize>,
    half: Duration,
    start: Instant,
    slots: Arc<Vec<Mutex<Checkpoint>>>,
) -> Result<Untraced, String> {
    let timings: Arc<Mutex<Vec<(usize, CellTiming)>>> = Arc::default();
    let sink = Arc::clone(&timings);
    let run_keys = keys.clone();
    let run = move |cfg: ScenarioConfig, _: &pcmac_campaign::JobCtl| {
        let entered = start.elapsed().as_secs_f64();
        let cell = run_keys
            .iter()
            .position(|k| *k == (cfg.variant, cfg.seed))
            .expect("every job is a cell");
        let (sim, build) = timed(|| Simulator::new(cfg));
        let rss_after_build_mb = peak_rss_mb();
        let (report, call) = timed(|| {
            if hooked.contains(&cell) {
                run_checkpointed(sim, half, &slots[cell])
            } else {
                Some(sim.run())
            }
        });
        let t = CellTiming {
            entered,
            build,
            call,
            report_wall_s: report.as_ref().map_or(0.0, |r| r.wall_s),
            rss_after_build_mb,
            rss_after_run_mb: peak_rss_mb(),
        };
        sink.lock().expect("timing sink").push((cell, t));
        match report {
            Some(r) => RunOutcome::Completed(r),
            None => RunOutcome::Cancelled(None),
        }
    };
    let opts = RunOptions {
        threads: 1,
        ..RunOptions::default()
    };
    let outcome = run_campaign_with(&spec, opts, run).map_err(|e| e.to_string())?;
    let campaign = start.elapsed().as_secs_f64();
    let mut timings = std::mem::take(&mut *timings.lock().expect("timing sink"));
    timings.sort_by_key(|(cell, _)| *cell);
    // Runs come back in expansion order; only successful runs leave a
    // report.
    let failed: Vec<(String, Option<u64>)> = outcome
        .report
        .failures
        .iter()
        .flatten()
        .map(|f| (f.key.variant.clone(), f.seed))
        .collect();
    let mut runs = outcome.runs.into_iter();
    let reports = keys
        .iter()
        .map(|(v, seed)| {
            if failed.contains(&(v.name().to_string(), Some(*seed))) {
                None
            } else {
                runs.next()
            }
        })
        .collect();
    Ok(Untraced {
        timings: timings.into_iter().map(|(_, t)| t).collect(),
        reports,
        campaign: Some(campaign),
    })
}

/// `dense_static` and `scale_131k`: one scenario, built and run directly, checkpointed halfway.
fn untraced_single(
    cfg: ScenarioConfig,
    half: Duration,
    start: Instant,
    slot: &Mutex<Checkpoint>,
) -> Untraced {
    let entered = start.elapsed().as_secs_f64();
    let (sim, build) = timed(|| Simulator::new(cfg));
    let rss_after_build_mb = peak_rss_mb();
    let (report, call) = timed(|| run_checkpointed(sim, half, slot));
    Untraced {
        timings: vec![CellTiming {
            entered,
            build,
            call,
            report_wall_s: report.as_ref().map_or(0.0, |r| r.wall_s),
            rss_after_build_mb,
            rss_after_run_mb: peak_rss_mb(),
        }],
        reports: vec![report],
        campaign: None,
    }
}

fn run_iteration(args: &Args) -> Iteration {
    let mut it = Iteration::default();
    let seed = args.seed.wrapping_mul(1000).wrapping_add(args.iteration);
    // Inputs, generated from the seed before any clock starts: the
    // campaign spec (`paper_saturation`) or the scenario the untraced run consumes, the
    // config the checkpoint is restored under, and every cell's config
    // for the traced runs.
    let ((campaign, cells), gen) = timed(|| match args.workload {
        Workload::PaperSaturation => {
            let spec = paper_campaign(seed, args.scale);
            let grid = spec.grid().expect("the paper campaign expands");
            let cells: Vec<ScenarioConfig> = grid
                .cells
                .iter()
                .flat_map(|c| spec.seeds.iter().map(move |&seed| (c, seed)))
                .map(|(c, seed)| {
                    c.spec
                        .materialize(seed)
                        .expect("the paper spec materializes")
                })
                .collect();
            (Some(spec), cells)
        }
        Workload::DenseStatic => (None, vec![dense_static(seed, args.scale)]),
        Workload::Scale131k => (None, vec![scale_131k(seed, args.scale)]),
    });
    // The checkpointed cells: every PCMAC cell of the campaign (one
    // 50-node cell's second half is too short and too seed-dependent to
    // time steadily on its own), the single cell otherwise.
    let hooked: Vec<usize> = match campaign {
        Some(_) => (0..cells.len())
            .filter(|&i| cells[i].variant == Variant::Pcmac)
            .collect(),
        None => vec![0],
    };
    let restore_cfgs: Vec<ScenarioConfig> = hooked.iter().map(|&h| cells[h].clone()).collect();
    let single_cfg = campaign.is_none().then(|| cells[0].clone());
    let keys: Vec<(Variant, u64)> = cells.iter().map(|c| (c.variant, c.seed)).collect();
    let half = Duration::from_nanos(cells[0].duration.as_nanos() / 2);
    let slots: Arc<Vec<Mutex<Checkpoint>>> =
        Arc::new(cells.iter().map(|_| Mutex::default()).collect());
    it.layer("input.gen_s", gen);
    // The benchmark's own work (fingerprints, config copies), subtracted
    // from the total.
    let mut own = 0.0;

    // ---- the timed, untraced workload -------------------------------
    let start = Instant::now();
    let untraced = match (campaign, single_cfg) {
        (Some(spec), _) => {
            let (hooked, slots) = (hooked.clone(), Arc::clone(&slots));
            match untraced_campaign(spec, keys, hooked, half, start, slots) {
                Ok(u) => u,
                Err(e) => {
                    it.attempted += cells.len() as u64;
                    it.fail(format!("campaign did not run: {e}"));
                    it.failed = it.attempted;
                    return it;
                }
            }
        }
        (None, Some(cfg)) => untraced_single(cfg, half, start, &slots[0]),
        (None, None) => unreachable!("a single-scenario workload has its config"),
    };
    it.attempted += untraced.reports.len() as u64;
    let (fps, s) = timed(|| {
        untraced
            .reports
            .iter()
            .map(|r| r.as_ref().map(fingerprint))
            .collect::<Vec<_>>()
    });
    own += s;
    for (i, fp) in fps.iter().enumerate() {
        if fp.is_none() {
            it.fail(format!("cell {i} returned no report"));
        }
    }
    let events: u64 = untraced.reports.iter().flatten().map(|r| r.events).sum();
    let Untraced {
        timings,
        reports,
        campaign,
    } = untraced;
    let (_, mut drops) = timed(|| drop(reports));

    // Resume every checkpointed cell from the bytes kept in memory and
    // run it to the end.
    let (mut decode, mut restore, mut resumed, mut resumed_wall_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut encode, mut snap_bytes) = (0.0, 0);
    for (&h, cfg) in hooked.iter().zip(restore_cfgs) {
        let checkpoint = std::mem::take(&mut *slots[h].lock().expect("checkpoint slot"));
        it.attempted += 1;
        let (decoded, s) = timed(|| SimSnapshot::from_bytes(&checkpoint.bytes));
        decode += s;
        match decoded {
            Err(e) => it.fail(format!("checkpoint of cell {h} did not decode: {e}")),
            Ok(snap) => {
                let (sim, s) = timed(|| Simulator::restore(cfg, &snap));
                restore += s;
                drops += timed(|| drop(snap)).1;
                match sim {
                    Err(e) => it.fail(format!("checkpoint of cell {h} did not restore: {e}")),
                    Ok(sim) => {
                        let (report, s) = timed(|| sim.run());
                        resumed += s;
                        resumed_wall_s += report.wall_s;
                        let (fp, s) = timed(|| fingerprint(&report));
                        own += s;
                        if Some(fp) != fps[h] {
                            it.fail(format!(
                                "resumed cell {h} differs from its uninterrupted run"
                            ));
                        }
                        drops += timed(|| drop(report)).1;
                    }
                }
            }
        }
        (encode, snap_bytes) = (
            encode + checkpoint.encode,
            snap_bytes + checkpoint.bytes.len(),
        );
        drops += timed(|| drop(checkpoint)).1;
    }
    let total = start.elapsed().as_secs_f64() - own;
    let peak = peak_rss_mb();
    it.fingerprints = fps.iter().map(|f| f.unwrap_or(0)).collect();

    // ---- end-to-end figures -----------------------------------------
    let build: f64 = timings.iter().map(|t| t.build).sum();
    let run: f64 = timings.iter().map(|t| t.call).sum();
    let report_wall_s: f64 = timings.iter().map(|t| t.report_wall_s).sum();
    // The campaign's expansion: from handing the spec over to the first cell.
    let expand = campaign.map_or(0.0, |_| timings.first().map_or(0.0, |t| t.entered));
    let setup = expand + build;
    it.e2e = vec![
        ("setup_s", setup),
        ("run_s", run),
        ("total_s", total),
        ("peak_rss_mb", peak),
        ("resume_s", decode + restore + resumed),
    ];

    // ---- phase spans of the same run ---------------------------------
    let overhead = campaign.map_or(0.0, |c| c - setup - run);
    it.layer("campaign.expand_s", expand);
    it.layer("campaign.overhead_s", overhead);
    it.layer("core.build_s", build);
    it.layer("engine.events", events as f64);
    it.layer("core.report_wall_s", report_wall_s);
    it.layer(
        "core.teardown_s",
        run - report_wall_s + resumed - resumed_wall_s + drops,
    );
    it.layer("core.resumed_run_s", resumed);
    it.layer("snap.encode_s", encode);
    it.layer("snap.bytes", snap_bytes as f64);
    it.layer("snap.decode_s", decode);
    it.layer("core.restore_s", restore);
    let max_of = |f: fn(&CellTiming) -> f64| timings.iter().map(f).fold(0.0, f64::max);
    it.layer("core.rss_after_build_mb", max_of(|t| t.rss_after_build_mb));
    it.layer("core.rss_after_run_mb", max_of(|t| t.rss_after_run_mb));
    // The share of the total that no span above covers.
    let covered = setup + run + overhead + drops + decode + restore + resumed;
    it.layer("bench.unaccounted_frac", (total - covered) / total);

    if args.trace {
        traced_iteration(&mut it, &cells, &hooked, &fps, &timings);
    }
    it
}

/// The traced part of an iteration: an untraced reference run of every
/// checkpointed cell without hooks, then every cell with metrics on and
/// the timestamping observer. Each report must match the untraced one.
fn traced_iteration(
    it: &mut Iteration,
    cells: &[ScenarioConfig],
    hooked: &[usize],
    fps: &[Option<u64>],
    timings: &[CellTiming],
) {
    let (mut hooked_calls, mut plain_calls) = (0.0, 0.0);
    for &h in hooked {
        it.attempted += 1;
        let sim = Simulator::new(cells[h].clone());
        let (report, plain) = timed(|| sim.run());
        if Some(fingerprint(&report)) != fps[h] {
            it.fail(format!(
                "hook-free run of cell {h} differs from the checkpointed run"
            ));
        }
        drop(report);
        hooked_calls += timings.get(h).map_or(0.0, |t| t.call);
        plain_calls += plain;
    }
    let untraced = timings.iter().map(|t| t.call).sum::<f64>() - hooked_calls + plain_calls;
    it.layer("snap.checkpoint_s", hooked_calls - plain_calls);

    let mut prof = ClassProfile::default();
    let mut counts = Counts::default();
    for (i, cfg) in cells.iter().enumerate() {
        it.attempted += 1;
        let report = traced_run(cfg.clone(), &mut prof);
        if Some(fingerprint(&report)) != fps[i] {
            it.fail(format!(
                "traced run of cell {i} differs from the untraced run"
            ));
        }
        counts.add(&report);
    }
    for (c, name) in CLASSES.iter().enumerate() {
        it.layer(&format!("{name}.count"), prof.count[c] as f64);
        it.layer(&format!("{name}.self_s"), prof.self_ns[c] as f64 * 1e-9);
    }
    it.layer("core.loop_s", prof.loop_s);
    it.layer("core.finalize_s", prof.finalize_s);
    it.layer("engine.events_per_s", counts.events as f64 / prof.loop_s);
    it.layer("trace.overhead_frac", prof.call / untraced - 1.0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = &counts;
    it.layer("engine.grid_queries", c.grid_queries as f64);
    it.layer(
        "engine.grid_candidates_per_query",
        ratio(c.grid_candidates, c.grid_queries),
    );
    it.layer(
        "phy.arrivals_per_candidate",
        ratio(c.arrivals, c.grid_candidates),
    );
    it.layer("phy.gain_cache_hits", c.cache_hits as f64);
    it.layer("phy.gain_cache_misses", c.cache_misses as f64);
    it.layer(
        "phy.gain_cache_hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
    );
    it.layer("mobility.exact_samples", c.exact_samples as f64);
    it.layer("mobility.refresh_pops", c.refresh_pops as f64);
    it.layer("mac.rts_sent", c.rts_sent as f64);
    it.layer("mac.cts_timeout_ratio", ratio(c.cts_timeouts, c.rts_sent));
    it.layer("mac.retry_drops", c.retry_drops as f64);
    it.layer("mac.queue_drops", c.queue_drops as f64);
    it.layer("mac.ctrl_broadcasts", c.ctrl_broadcasts as f64);
    it.layer("aodv.rreq_total", c.rreq_total as f64);
    it.layer("aodv.rerr_sent", c.rerr_sent as f64);
    it.layer("aodv.data_forwarded", c.data_forwarded as f64);
    it.layer("traffic.sent", c.sent as f64);
    it.layer("traffic.delivered", c.delivered as f64);
}

/// Work counts summed over the traced runs' reports.
#[derive(Default)]
struct Counts {
    events: u64,
    grid_queries: u64,
    grid_candidates: u64,
    arrivals: u64,
    cache_hits: u64,
    cache_misses: u64,
    exact_samples: u64,
    refresh_pops: u64,
    rts_sent: u64,
    cts_timeouts: u64,
    retry_drops: u64,
    queue_drops: u64,
    ctrl_broadcasts: u64,
    rreq_total: u64,
    rerr_sent: u64,
    data_forwarded: u64,
    sent: u64,
    delivered: u64,
}

impl Counts {
    fn add(&mut self, r: &RunReport) {
        self.events += r.events;
        if let Some(m) = &r.metrics {
            let h = &m.hot_path;
            self.grid_queries += h.grid_queries;
            self.grid_candidates += h.grid_candidates;
            self.exact_samples += h.exact_samples;
            self.refresh_pops += h.refresh_pops;
            if let Some(c) = &h.sparse_cache {
                self.cache_hits += c.hits;
                self.cache_misses += c.misses;
            }
            self.arrivals += m.phy.arrivals;
        }
        self.rts_sent += r.mac.rts_sent;
        self.cts_timeouts += r.mac.cts_timeouts;
        self.retry_drops += r.mac.retry_drops;
        self.queue_drops += r.mac.queue_drops;
        self.ctrl_broadcasts += r.mac.ctrl_broadcasts;
        self.rreq_total += r.routing.rreq_originated + r.routing.rreq_forwarded;
        self.rerr_sent += r.routing.rerr_sent;
        self.data_forwarded += r.routing.data_forwarded;
        self.sent += r.sent_packets;
        self.delivered += r.delivered_packets;
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pcmac-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let name = match args.workload {
        Workload::PaperSaturation => "paper_saturation",
        Workload::DenseStatic => "dense_static",
        Workload::Scale131k => "scale_131k",
    };
    let it = run_iteration(&args);
    println!("{}", it.to_json(name, args.seed, args.iteration));
}
