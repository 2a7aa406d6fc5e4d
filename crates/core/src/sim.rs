//! The simulator: event dispatch and the wireless channel.
//!
//! The channel is not an object — it is a *pattern*: when a node
//! transmits, the simulator computes the received power at every
//! candidate receiver from the propagation model and current positions,
//! and schedules `ArrivalStart`/`ArrivalEnd` events after the
//! speed-of-light delay. Each receiver's radio then decides locally what
//! it heard. Arrivals weaker than the configured interference floor are
//! culled (they cannot affect carrier sense or any plausible SINR).
//!
//! # The hot path
//!
//! Candidate receivers come from a [`UniformGrid`] spatial index sized
//! to the maximum reception range (max transmit power against the
//! interference floor), so a transmission visits only the cells its
//! signal can reach instead of scanning all N nodes. Candidate lists are
//! sorted by node id, so the event schedule is independent of the
//! index's internal bucket order.
//!
//! # Lazy mobility refresh
//!
//! Whenever nodes move, the index tolerates a per-node
//! drift *pad* (a fraction of a grid cell): each node carries a refresh
//! deadline — the instant its position could first drift past the pad,
//! from [`Mobility::stale_after`] — kept in a min-heap, and advancing
//! the clock re-samples only nodes whose deadlines have passed, O(moved)
//! instead of O(N). Queries inflate their radius by the pad, so the
//! ≤ pad-stale index still yields a superset of every true receiver;
//! the transmitter and each candidate are then re-sampled *exactly* at
//! the current instant before any gain or delay is computed. Physics
//! therefore always runs on exact positions and a lazy run is
//! bit-identical to an eager one — only the number of waypoint
//! evaluations changes.
//!
//! Propagation is dispatched statically through [`PropagationModel`].
//! The gain path follows the scenario's shape: a fully static field of
//! at most `GAIN_CACHE_MAX_NODES` (2048) nodes replays pairwise gains
//! from a dense precomputed [`GainCache`]; every other field evaluates
//! them live. Event dispatch draws its scratch buffers from per-type pools
//! on the simulator, so the steady state allocates nothing.
//!
//! # The reference channel
//!
//! [`Simulator::into_reference`] turns a freshly built or restored
//! simulator into the test oracle: an O(N) scan over every node, eager
//! refresh of every position on each new timestamp, and live gains.
//! It schedules the identical arrival sequence, which the equivalence
//! suites and the channel benches check against the production path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use pcmac_engine::{
    Duration, EventQueue, Milliwatts, NodeId, Point, RngStream, SimTime, UniformGrid,
};
use pcmac_mac::{CtrlFrame, Frame, MacAction};
use pcmac_mobility::{placement, Mobility, RandomWaypoint};
use pcmac_phy::energy::RadioMode;
use pcmac_phy::radio::RadioEvent;
use pcmac_phy::{GainCache, PropagationModel, Shadowed, TwoRayGround};

use crate::config::{NodeSetup, ScenarioConfig};
use crate::event::SimEvent;
use crate::fault::FaultConfig;
use crate::metrics::{Drop as PacketDrop, MetricsState};
use crate::node::{Node, TrafficSource};
use crate::report::{LatencySummary, ResilienceReport, RunReport};
use crate::snapshot::SimSnapshot;
use crate::soa::HotState;
use pcmac_snap::{SnapError, SnapReader, SnapWriter};

/// Speed of light (m/s) for propagation delays.
const C: f64 = 299_792_458.0;

/// Relative slack on the culling radius, absorbing the floating-point
/// error of inverting the path-loss formula so the spatial index can
/// never drop a receiver the exact power test would keep.
const RADIUS_SLACK: f64 = 1.0 + 1e-9;

/// The dense gain table is quadratic in node count; static fields with
/// more nodes than this evaluate gains live instead.
const GAIN_CACHE_MAX_NODES: usize = 2048;

/// Lazy-refresh drift pad, as a fraction of a grid cell: a node's
/// indexed position may go stale by up to this much before its refresh
/// deadline fires. Larger pads mean rarer deadline refreshes but
/// slightly fatter candidate rings (queries inflate by the pad).
const REFRESH_PAD_CELL_FRACTION: f64 = 0.125;

/// Query-side inflation over the drift pad, absorbing floating-point
/// error at the drift boundary so a node sampled exactly at its
/// deadline can never be missed.
const REFRESH_PAD_SLACK: f64 = 1.01;

/// A free list of scratch buffers: `take` hands out an empty vector
/// (reusing a previously returned allocation when one exists), `put`
/// clears and shelves it. Action application is reentrant — MAC actions
/// can trigger routing actions that trigger MAC actions — and each
/// nesting level simply takes its own buffer, so pooling is safe at any
/// recursion depth while the steady state allocates nothing.
#[derive(Debug)]
struct BufPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for BufPool<T> {
    fn default() -> Self {
        BufPool { free: Vec::new() }
    }
}

impl<T> BufPool<T> {
    fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.free.push(buf);
    }
}

/// Runtime fault-injection state, present only when the scenario
/// carries a fault plan. Every transition is either precomputed from
/// the master seed at build time (crashes, churn, impairment bursts)
/// or triggered by deterministic event-stream facts (energy budgets),
/// and none of them touch positions, the spatial index, or the gain
/// table — which is what keeps faulted runs bit-identical between the
/// production channel and the reference channel.
///
/// Crash semantics: a down node schedules no arrivals (nothing it
/// "sends" radiates), is skipped as a receiver (it hears nothing new),
/// and accrues no transmit energy. Its MAC/AODV state machines keep
/// running against the dead radio, so their timer chains stay
/// consistent and a later recovery resumes cleanly; arrivals already
/// in flight at the crash instant still land, keeping the radio's
/// interference bookkeeping exact.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultConfig,
    /// `true` while the node is down.
    down: Vec<bool>,
    /// Which impairment bursts are currently active.
    burst_active: Vec<bool>,
    /// Product of the active bursts' linear gain attenuations.
    impair_gain: f64,
    /// Product of the active bursts' noise multipliers.
    noise_mult: f64,
    /// Committed radiated data-channel energy per node (mJ).
    committed_mj: Vec<f64>,
    /// Nodes whose budget ran out (their `NodeDown` is permanent).
    energy_dead: Vec<bool>,
    /// Fault window from the precomputed schedule alone: start of the
    /// first activation, end of the last deactivation. Energy deaths
    /// extend it during the [`FaultState::into_report`] replay.
    window_start: Option<SimTime>,
    window_end: Option<SimTime>,
    /// End of the run (an exhausted budget extends the window to here).
    run_end: SimTime,
    crashes: u64,
    recoveries: u64,
    energy_deaths: u64,
    /// Open route-repair observations: (node, destination, first failure).
    pending_repairs: Vec<(u32, u32, SimTime)>,
    repairs_started: u64,
    repair_latency: pcmac_stats::StreamingQuantile,
    /// Phase-classification facts in processing order, each keyed by the
    /// `(time, rank)` of the event that produced it. They are classified
    /// lazily at report time, against the final fault window, so an
    /// energy death extends the window exactly where it happened in the
    /// record order.
    records: Vec<(SimTime, u128, FaultRecord)>,
}

/// One phase-classification fact (see [`FaultState::records`]).
#[derive(Debug, Clone, Copy)]
enum FaultRecord {
    /// A source emitted an application packet (classified by record time).
    Sent,
    /// A packet reached its sink (classified by its emission time; the
    /// record time drives reconvergence detection).
    Delivered {
        /// When the delivered packet was emitted.
        created_at: SimTime,
    },
    /// A node's energy budget ran out; it dies (and the fault window
    /// extends to the end of the run) at `death_at`.
    EnergyDeath {
        /// End of the transmission that exhausted the budget.
        death_at: SimTime,
    },
}

impl FaultState {
    pub(crate) fn into_report(self) -> ResilienceReport {
        // Replay the classification records in global processing order
        // against the static window, applying energy-death window
        // extensions exactly where the live path used to apply them.
        let mut ws = self.window_start;
        let mut we = self.window_end;
        let mut sent_phase = [0u64; 3];
        let mut delivered_phase = [0u64; 3];
        let mut reconverged_at = None;
        // Phase of instant `t`: 0 before, 1 during, 2 after the window.
        let phase = |ws: Option<SimTime>, we: Option<SimTime>, t: SimTime| match ws {
            Some(w) if t >= w => match we {
                Some(e) if t >= e => 2,
                _ => 1,
            },
            _ => 0,
        };
        for &(t, _, rec) in &self.records {
            match rec {
                FaultRecord::Sent => sent_phase[phase(ws, we, t)] += 1,
                FaultRecord::Delivered { created_at } => {
                    delivered_phase[phase(ws, we, created_at)] += 1;
                    if reconverged_at.is_none() && we.is_some_and(|e| t >= e) {
                        reconverged_at = Some(t);
                    }
                }
                FaultRecord::EnergyDeath { death_at } => {
                    if ws.is_none_or(|w| death_at < w) {
                        ws = Some(death_at);
                    }
                    we = Some(self.run_end);
                }
            }
        }
        let pdr = |d: u64, s: u64| if s == 0 { 0.0 } else { d as f64 / s as f64 };
        let residual = self
            .plan
            .energy_budget_mj
            .map(|b| self.committed_mj.iter().map(|c| (b - c).max(0.0)).collect());
        ResilienceReport {
            window_start_s: ws.map(SimTime::as_secs_f64),
            window_end_s: we.map(SimTime::as_secs_f64),
            sent_before: sent_phase[0],
            sent_during: sent_phase[1],
            sent_after: sent_phase[2],
            delivered_before: delivered_phase[0],
            delivered_during: delivered_phase[1],
            delivered_after: delivered_phase[2],
            pdr_before: pdr(delivered_phase[0], sent_phase[0]),
            pdr_during: pdr(delivered_phase[1], sent_phase[1]),
            pdr_after: pdr(delivered_phase[2], sent_phase[2]),
            crashes: self.crashes,
            recoveries: self.recoveries,
            energy_deaths: self.energy_deaths,
            dead_nodes_end: self.down.iter().filter(|d| **d).count() as u64,
            repairs_started: self.repairs_started,
            repairs_completed: self.repair_latency.count(),
            repair_latency: LatencySummary::from_streaming(&self.repair_latency),
            reconverged_after_s: match (reconverged_at, we) {
                (Some(t), Some(e)) => Some((t - e).as_secs_f64()),
                _ => None,
            },
            residual_energy_mj: residual,
        }
    }

    /// Capture everything the build cannot reconstruct from the fault
    /// plan into a portable checkpoint image. Open repair observations
    /// are sorted by key: their live order depends on removal history,
    /// so sorting makes a resumed run's later captures byte-identical to
    /// the uninterrupted run's. The records are already in key order.
    pub(crate) fn capture(&self) -> FaultSnap {
        let mut pending_repairs = self.pending_repairs.clone();
        pending_repairs.sort_by_key(|&(node, dst, t)| (node, dst, t));
        FaultSnap {
            down: self.down.clone(),
            burst_active: self.burst_active.clone(),
            impair_gain: self.impair_gain,
            noise_mult: self.noise_mult,
            committed_mj: self.committed_mj.clone(),
            energy_dead: self.energy_dead.clone(),
            window_start: self.window_start,
            window_end: self.window_end,
            run_end: self.run_end,
            crashes: self.crashes,
            recoveries: self.recoveries,
            energy_deaths: self.energy_deaths,
            pending_repairs,
            repairs_started: self.repairs_started,
            repair_latency: self.repair_latency.clone(),
            records: self.records.clone(),
        }
    }

    /// Overlay a checkpoint image on a freshly-built state.
    pub(crate) fn restore_from(&mut self, snap: &FaultSnap) -> Result<(), &'static str> {
        if snap.down.len() != self.down.len()
            || snap.committed_mj.len() != self.committed_mj.len()
            || snap.energy_dead.len() != self.energy_dead.len()
        {
            return Err("fault node count");
        }
        if snap.burst_active.len() != self.burst_active.len() {
            return Err("fault burst count");
        }
        self.down = snap.down.clone();
        self.burst_active = snap.burst_active.clone();
        self.impair_gain = snap.impair_gain;
        self.noise_mult = snap.noise_mult;
        self.committed_mj = snap.committed_mj.clone();
        self.energy_dead = snap.energy_dead.clone();
        self.window_start = snap.window_start;
        self.window_end = snap.window_end;
        self.run_end = snap.run_end;
        self.pending_repairs = snap.pending_repairs.clone();
        self.crashes = snap.crashes;
        self.recoveries = snap.recoveries;
        self.energy_deaths = snap.energy_deaths;
        self.repairs_started = snap.repairs_started;
        self.repair_latency = snap.repair_latency.clone();
        self.records = snap.records.clone();
        Ok(())
    }
}

/// Portable checkpoint image of [`FaultState`] — everything except the
/// static plan, which restore rebuilds from the scenario config.
#[derive(Debug, Clone)]
pub(crate) struct FaultSnap {
    down: Vec<bool>,
    burst_active: Vec<bool>,
    impair_gain: f64,
    noise_mult: f64,
    committed_mj: Vec<f64>,
    energy_dead: Vec<bool>,
    window_start: Option<SimTime>,
    window_end: Option<SimTime>,
    run_end: SimTime,
    crashes: u64,
    recoveries: u64,
    energy_deaths: u64,
    /// Sorted by `(node, dst, first_failure)` at capture.
    pending_repairs: Vec<(u32, u32, SimTime)>,
    repairs_started: u64,
    repair_latency: pcmac_stats::StreamingQuantile,
    /// Sorted by the global `(time, rank)` key at capture.
    records: Vec<(SimTime, u128, FaultRecord)>,
}

impl FaultSnap {
    /// Nodes down at the cut (used to seed the alive flags on restore).
    pub(crate) fn down(&self) -> &[bool] {
        &self.down
    }
}

mod fault_snap {
    use super::{FaultRecord, FaultSnap};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for FaultRecord {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                FaultRecord::Sent => w.u8(0),
                FaultRecord::Delivered { created_at } => {
                    w.u8(1);
                    created_at.save(w);
                }
                FaultRecord::EnergyDeath { death_at } => {
                    w.u8(2);
                    death_at.save(w);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(match r.u8()? {
                0 => FaultRecord::Sent,
                1 => FaultRecord::Delivered {
                    created_at: Snap::load(r)?,
                },
                2 => FaultRecord::EnergyDeath {
                    death_at: Snap::load(r)?,
                },
                _ => return Err(SnapError::Corrupt("fault record tag")),
            })
        }
    }

    pcmac_snap::snap_struct!(FaultSnap {
        down,
        burst_active,
        impair_gain,
        noise_mult,
        committed_mj,
        energy_dead,
        window_start,
        window_end,
        run_end,
        crashes,
        recoveries,
        energy_deaths,
        pending_repairs,
        repairs_started,
        repair_latency,
        records,
    });
}

/// A configured, runnable simulation.
pub struct Simulator {
    cfg: ScenarioConfig,
    queue: EventQueue<SimEvent>,
    /// Cold per-node state: radios, MAC, routing, traffic, energy. One
    /// allocation per node, the layout the build-time, snapshot and
    /// peak-RSS measurements were taken against; changing it is a
    /// separately measured change.
    #[allow(clippy::vec_box)]
    nodes: Vec<Box<Node>>,
    /// Struct-of-arrays hot per-node state: positions, movement,
    /// alive flags, carrier/queue mirrors, tx-key counters.
    hot: HotState,
    positions_at: Option<SimTime>,
    any_mobile: bool,
    propagation: PropagationModel,
    /// Spatial index over `positions` (kept in sync by
    /// [`Simulator::refresh_positions`]; under lazy refresh its entries
    /// may trail true positions by up to `pad_m`).
    grid: UniformGrid,
    /// Precomputed pairwise gains (small fully static fields only;
    /// `None` evaluates the propagation model live).
    gain_cache: Option<GainCache>,
    /// `true` on the reference channel ([`Simulator::into_reference`]):
    /// every node is a candidate receiver and positions refresh eagerly.
    reference: bool,
    /// `true` when positions refresh lazily (mobile scenarios only).
    lazy_refresh: bool,
    /// Metres of drift the index tolerates before a deadline refresh.
    pad_m: f64,
    /// Min-heap of `(deadline, node)` refresh entries; an entry earlier
    /// than its node's recorded deadline is superseded and re-arms.
    refresh_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Propagation-delay floor in nanoseconds (0 = exact delays).
    delay_floor_ns: u64,
    /// `(time, rank)` of the event currently being dispatched — its
    /// position in the event order, used to key fault records and
    /// packet-drop facts.
    cur: (SimTime, u128),
    sent_packets: u64,
    /// Fault-injection runtime state (`Some` iff the scenario has a
    /// fault plan).
    faults: Option<FaultState>,
    /// Observability collection state (`Some` iff the scenario enabled
    /// metrics). Only ever *reads* protocol state, so its presence
    /// cannot change a run's behavior.
    metrics: Option<MetricsState>,
    // Scratch-buffer pools for allocation-free dispatch.
    rad_pool: BufPool<RadioEvent<Arc<Frame>>>,
    ctrl_pool: BufPool<RadioEvent<CtrlFrame>>,
    mac_pool: BufPool<MacAction>,
    aodv_pool: BufPool<pcmac_aodv::AodvAction>,
    /// Candidate-receiver scratch (used only between a position refresh
    /// and the arrival-scheduling loop, which never re-enters).
    candidates: Vec<u32>,
    /// Batched gain scratch, parallel to `candidates` after
    /// [`Simulator::fill_gains`].
    gains: Vec<f64>,
}

impl Simulator {
    /// Build the network described by `cfg`.
    ///
    /// # Panics
    /// If the scenario fails [`ScenarioConfig::validate`]; the panic
    /// message lists every defect. Loading paths (spec files, campaign
    /// expansion) validate first and surface the same list as a
    /// `Result` instead.
    pub fn new(cfg: ScenarioConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let n = cfg.nodes.count();
        let mut nodes: Vec<Box<Node>> = Vec::with_capacity(n);
        let mut mobility = Vec::with_capacity(n);
        let mut positions = Vec::with_capacity(n);
        let mut any_mobile = false;

        let starts: Vec<Point> = match &cfg.nodes {
            NodeSetup::UniformWaypoint { count, .. } => {
                let mut rng = RngStream::derive(cfg.seed, "scenario.placement");
                placement::uniform(*count, cfg.field.0, cfg.field.1, &mut rng)
            }
            NodeSetup::Static(pts) => pts.clone(),
            NodeSetup::WaypointFrom { starts, .. } => starts.clone(),
        };

        for (i, start) in starts.iter().enumerate() {
            let m = match &cfg.nodes {
                NodeSetup::UniformWaypoint { speed, pause, .. }
                | NodeSetup::WaypointFrom { speed, pause, .. } => {
                    any_mobile = true;
                    Mobility::Waypoint(RandomWaypoint::new(
                        *start,
                        cfg.field.0,
                        cfg.field.1,
                        *speed,
                        *pause,
                        RngStream::derive_sub(cfg.seed, "mobility", i as u64),
                    ))
                }
                NodeSetup::Static(_) => Mobility::Static(*start),
            };
            mobility.push(m);
            nodes.push(Box::new(Node::new(
                NodeId(i as u32),
                cfg.radio.clone(),
                cfg.mac.clone(),
                cfg.aodv.clone(),
                cfg.seed,
            )));
            positions.push(*start);
        }

        // Attach traffic sources to their homes and schedule first
        // emissions.
        let mut queue = EventQueue::with_capacity(1 << 16);
        for spec in &cfg.flows {
            let home = spec.src.index();
            assert!(home < nodes.len(), "flow source out of range");
            let home_node = &mut nodes[home];
            let mut src = TrafficSource::from_spec(spec, cfg.seed);
            if let Some(t0) = src.next_time() {
                let source_idx = home_node.sources.len();
                sched_into(
                    &mut queue,
                    t0,
                    SimEvent::TrafficEmit {
                        node: spec.src,
                        source: source_idx,
                    },
                );
            }
            home_node.sources.push(src);
        }

        // Fault plan: precompute the entire crash/recover/impairment
        // schedule up front, from the master seed and the static plan
        // alone, so the injected events are identical whether the
        // production or the reference channel executes the run.
        let faults = cfg.faults.as_ref().map(|plan| {
            let dur_s = cfg.duration.as_secs_f64();
            let at = |s: f64| SimTime::ZERO + Duration::from_secs_f64(s);
            let mut starts: Vec<f64> = Vec::new();
            let mut ends: Vec<f64> = Vec::new();
            if let Some(crashes) = &plan.crashes {
                for cw in crashes {
                    sched_into(
                        &mut queue,
                        at(cw.at_s),
                        SimEvent::NodeDown {
                            node: NodeId(cw.node),
                        },
                    );
                    starts.push(cw.at_s);
                    match cw.recover_s {
                        Some(r) => {
                            sched_into(
                                &mut queue,
                                at(r),
                                SimEvent::NodeUp {
                                    node: NodeId(cw.node),
                                },
                            );
                            ends.push(r.min(dur_s));
                        }
                        None => ends.push(dur_s),
                    }
                }
            }
            if let Some(ch) = &plan.churn {
                let w0 = ch.start_s.unwrap_or(0.0);
                let w1 = ch.stop_s.unwrap_or(dur_s).min(dur_s);
                if w1 > w0 {
                    starts.push(w0);
                    ends.push(w1);
                    for i in 0..n {
                        let mut rng = RngStream::derive_sub(cfg.seed, "faults.churn", i as u64);
                        let node = NodeId(i as u32);
                        let mut t = w0;
                        loop {
                            t += rng.exponential(ch.mean_uptime_s);
                            if t >= w1 {
                                break;
                            }
                            sched_into(&mut queue, at(t), SimEvent::NodeDown { node });
                            let downtime = rng.exponential(ch.mean_downtime_s);
                            // A node still down when the window closes
                            // recovers at the window edge, so the
                            // "after" phase observes a healed network.
                            sched_into(
                                &mut queue,
                                at((t + downtime).min(w1)),
                                SimEvent::NodeUp { node },
                            );
                            t += downtime;
                            if t >= w1 {
                                break;
                            }
                        }
                    }
                }
            }
            if let Some(bursts) = &plan.impairments {
                for (k, b) in bursts.iter().enumerate() {
                    sched_into(
                        &mut queue,
                        at(b.start_s),
                        SimEvent::ImpairmentStart { index: k },
                    );
                    sched_into(
                        &mut queue,
                        at(b.stop_s),
                        SimEvent::ImpairmentEnd { index: k },
                    );
                    starts.push(b.start_s);
                    ends.push(b.stop_s.min(dur_s));
                }
            }
            let n_bursts = plan.impairments.as_ref().map_or(0, Vec::len);
            FaultState {
                plan: plan.clone(),
                down: vec![false; n],
                burst_active: vec![false; n_bursts],
                impair_gain: 1.0,
                noise_mult: 1.0,
                committed_mj: vec![0.0; n],
                energy_dead: vec![false; n],
                window_start: starts.iter().copied().reduce(f64::min).map(at),
                window_end: ends.iter().copied().reduce(f64::max).map(at),
                run_end: SimTime::ZERO + cfg.duration,
                crashes: 0,
                recoveries: 0,
                energy_deaths: 0,
                pending_repairs: Vec::new(),
                repairs_started: 0,
                repair_latency: pcmac_stats::StreamingQuantile::new(),
                records: Vec::new(),
            }
        });

        // Observability: the probe chain rides the ordinary event queue.
        // Probe events are pure reads, and their queue insertions only
        // shift sequence numbers monotonically, so every other pair of
        // events keeps its relative order — a metrics-on run behaves
        // bit-identically to a metrics-off run.
        let mut metrics = cfg.metrics.map(|mc| {
            MetricsState::new(
                mc,
                n,
                cfg.mac.levels.all().iter().map(|p| p.value()).collect(),
            )
        });
        if let Some(m) = &mut metrics {
            let first = SimTime::ZERO + m.interval();
            if first <= SimTime::ZERO + cfg.duration {
                sched_into(&mut queue, first, SimEvent::MetricsProbe);
                m.probes_scheduled += 1;
            }
        }

        let propagation = match cfg.shadowing {
            Some(s) => PropagationModel::Shadowed(Shadowed::new(
                TwoRayGround::ns2_default(),
                s.sigma_db,
                s.symmetric,
                cfg.seed,
            )),
            None => PropagationModel::TwoRay(TwoRayGround::ns2_default()),
        };

        // Cell size: the farthest any transmission can matter — maximum
        // transmit power against the interference floor (inflated for the
        // worst-case shadowing boost). The grid may shrink cells slightly
        // to tile the field evenly (and caps the cell count on huge
        // fields), so a max-reach query touches a small O(1) block of
        // cells around the transmitter — typically 3×3, sometimes 4×4.
        let max_reach = cull_radius(&propagation, cfg.mac.max_power(), cfg.interference_floor);
        let cell = if max_reach.is_finite() {
            max_reach.max(1.0)
        } else {
            cfg.field.0.max(cfg.field.1)
        };
        let grid = UniformGrid::new(cfg.field.0, cfg.field.1, cell, &positions);

        let gain_cache = (!any_mobile && n <= GAIN_CACHE_MAX_NODES)
            .then(|| GainCache::build(&propagation, &positions));

        // Lazy refresh: seed every mobile node's first deadline from its
        // start position (positions are exact at t = 0).
        let lazy_refresh = any_mobile;
        let pad_m = grid.cell_size() * REFRESH_PAD_CELL_FRACTION;
        let mut sampled_at = Vec::new();
        let mut deadline = Vec::new();
        let mut refresh_heap = BinaryHeap::new();
        if lazy_refresh {
            sampled_at = vec![SimTime::ZERO; n];
            deadline = vec![SimTime::MAX; n];
            for (i, m) in mobility.iter().enumerate() {
                let d = m.stale_after(SimTime::ZERO, pad_m);
                deadline[i] = d;
                if d != SimTime::MAX {
                    refresh_heap.push(Reverse((d, i as u32)));
                }
            }
        }

        let delay_floor_ns = cfg.delay_floor().as_nanos();

        Simulator {
            reference: false,
            lazy_refresh,
            pad_m,
            cfg,
            queue,
            nodes,
            hot: HotState {
                positions,
                mobility,
                alive: vec![true; n],
                busy: vec![false; n],
                queue_len: vec![0; n],
                tx_power_mw: vec![0.0; n],
                sampled_at,
                deadline,
                tx_key_ctr: vec![0; n],
            },
            positions_at: None,
            any_mobile,
            propagation,
            grid,
            gain_cache,
            refresh_heap,
            delay_floor_ns,
            cur: (SimTime::ZERO, 0),
            sent_packets: 0,
            faults,
            metrics,
            rad_pool: BufPool::default(),
            ctrl_pool: BufPool::default(),
            mac_pool: BufPool::default(),
            aodv_pool: BufPool::default(),
            candidates: Vec::new(),
            gains: Vec::new(),
        }
    }

    /// Run to the configured duration and produce the report.
    pub fn run(self) -> RunReport {
        self.run_with_observer(|_, _| {})
    }

    /// Like [`Simulator::run`], but calls `observer` with every event
    /// just before it is dispatched — the hook for packet traces,
    /// animations, or custom measurements. The observer sees events in
    /// exact execution order.
    pub fn run_with_observer(mut self, mut observer: impl FnMut(&SimEvent, SimTime)) -> RunReport {
        let wall_start = std::time::Instant::now();
        let end = SimTime::ZERO + self.cfg.duration;
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.cur = (ev.at, ev.rank);
            observer(&ev.event, ev.at);
            self.dispatch(ev.event, ev.at);
        }
        self.finalize(wall_start, end)
    }

    /// Schedule `ev` at `at` with its content-derived rank.
    #[inline]
    fn sched(&mut self, at: SimTime, ev: SimEvent) {
        self.queue.schedule_ranked(at, ev.rank(), ev);
    }

    /// Refresh node `i`'s hot mirrors from the authoritative cold state.
    #[inline]
    fn sync_hot(&mut self, i: usize) {
        let node = &self.nodes[i];
        self.hot.busy[i] = node.radio.carrier_busy();
        self.hot.queue_len[i] = node.mac.queue_len() as u32;
    }

    /// Like [`Simulator::run`], with in-run durability controls: a
    /// cooperative [`CancelToken`](crate::CancelToken) observed at cut
    /// boundaries, and periodic checkpoints on an absolute simulated-time
    /// grid delivered to a sink. Whenever the next event's time reaches a
    /// checkpoint grid instant, every grid instant up to it is
    /// snapshotted *before* the event dispatches, so a resumed run
    /// checkpoints at the same simulated instants as an uninterrupted
    /// one. A cancelled run returns a final snapshot instead of a report.
    pub fn run_with_hooks(
        mut self,
        hooks: crate::snapshot::RunHooks<'_>,
    ) -> crate::snapshot::RunOutcome {
        use crate::snapshot::RunOutcome;
        let wall_start = std::time::Instant::now();
        let end = SimTime::ZERO + self.cfg.duration;
        let every_ns = hooks.checkpoint_every.map(|e| e.as_nanos().max(1));
        let mut next_cp_ns =
            every_ns.map(|e| crate::snapshot::next_grid_point(self.queue.now(), e).as_nanos());
        let mut ticks: u64 = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let mut crossed_grid = false;
            while let Some(cp) = next_cp_ns {
                if t.as_nanos() < cp {
                    break;
                }
                if let Some(sink) = hooks.checkpoint_sink {
                    sink(self.snapshot_at(SimTime::from_nanos(cp)));
                }
                next_cp_ns = Some(cp.saturating_add(every_ns.expect("grid implies interval")));
                crossed_grid = true;
            }
            // The token costs an atomic load; amortise it across a batch
            // of dispatches, but always look right after a checkpoint —
            // a watchdog that cancels from the sink must be heard even
            // when few events remain. A cut here is safe at any event
            // boundary: `t` is the next undispatched instant, so
            // everything before it is fully processed.
            if (crossed_grid || ticks & 0xFF == 0)
                && hooks
                    .cancel
                    .is_some_and(crate::snapshot::CancelToken::is_cancelled)
            {
                return RunOutcome::Cancelled(Some(self.snapshot_at(t)));
            }
            ticks += 1;
            let ev = self.queue.pop().expect("peeked");
            self.cur = (ev.at, ev.rank);
            self.dispatch(ev.event, ev.at);
        }
        RunOutcome::Completed(self.finalize(wall_start, end))
    }

    /// Close the ledgers and build the report after the event loop
    /// drains (shared by the plain and hooked run paths).
    fn finalize(mut self, wall_start: std::time::Instant, end: SimTime) -> RunReport {
        let mut nodes: Vec<Node> = std::mem::take(&mut self.nodes)
            .into_iter()
            .map(|b| *b)
            .collect();
        for node in &mut nodes {
            node.energy.finish(end);
        }
        let resilience = self.faults.take().map(FaultState::into_report);
        // Probe events are subtracted from the scheduled total so the
        // reported event count matches a metrics-off run exactly.
        let mut probes_scheduled = 0;
        let metrics = self.metrics.take().map(|m| {
            probes_scheduled = m.probes_scheduled;
            m.finish(&nodes)
        });
        RunReport::build(
            &self.cfg,
            &nodes,
            self.sent_packets,
            self.queue.scheduled_total() - probes_scheduled,
            wall_start.elapsed().as_secs_f64(),
            resilience,
            metrics,
        )
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: SimEvent, now: SimTime) {
        let target = ev.node_index();
        self.dispatch_inner(ev, now);
        // Every mutation of a node's radio/MAC state happens while an
        // event addressed to that node dispatches (cross-node effects
        // only travel as scheduled events), so syncing here keeps the
        // hot mirrors exact whenever the queue is observed. The one
        // global mutation — an impairment edge shifting every noise
        // floor — resyncs inline in `set_impairment`.
        if let Some(i) = target {
            self.sync_hot(i);
        }
    }

    fn dispatch_inner(&mut self, ev: SimEvent, now: SimTime) {
        match ev {
            SimEvent::ArrivalStart {
                node,
                key,
                power,
                end,
                frame,
            } => {
                let i = node.index();
                // Radio state *before* the arrival, for the PHY drop
                // taxonomy (reads only; skipped entirely when off).
                let pre = self.metrics.as_ref().map(|_| {
                    let r = &self.nodes[i].radio;
                    (r.is_transmitting(), r.is_receiving())
                });
                let mut rad = self.rad_pool.take();
                self.nodes[i]
                    .radio
                    .on_arrival_start(key, power, end, &frame, &mut rad);
                if let (Some((was_tx, was_rx)), Some(m)) = (pre, &mut self.metrics) {
                    m.phy.arrivals += 1;
                    let addressed = frame.rx == NodeId(i as u32) || frame.rx.is_broadcast();
                    let locked = rad
                        .iter()
                        .any(|ev| matches!(ev, RadioEvent::RxStart { .. }));
                    if locked {
                        // Fresh lock: no overlap observed yet.
                        m.rx_overlap[i] = false;
                    } else if was_rx {
                        // Overlaps the arrival the radio is locked to.
                        m.rx_overlap[i] = true;
                        if addressed {
                            m.phy.captured_away += 1;
                        }
                    } else if was_tx {
                        if addressed {
                            m.phy.missed_while_tx += 1;
                        }
                    } else if addressed {
                        // Idle and still not locked: below the decode
                        // threshold (heard as noise at most).
                        m.phy.below_rx_thresh += 1;
                    }
                    if addressed
                        && self
                            .faults
                            .as_ref()
                            .is_some_and(|f| f.burst_active.iter().any(|b| *b))
                    {
                        m.phy.impaired_arrivals += 1;
                    }
                }
                self.forward_radio_events(i, rad, now);
            }
            SimEvent::ArrivalEnd { node, key } => {
                let i = node.index();
                let mut rad = self.rad_pool.take();
                self.nodes[i].radio.on_arrival_end(key, &mut rad);
                if let Some(m) = &mut self.metrics {
                    for ev in &rad {
                        if let RadioEvent::RxEnd { ok, .. } = ev {
                            if *ok {
                                m.phy.decoded_ok += 1;
                                if m.rx_overlap[i] {
                                    m.phy.capture_wins += 1;
                                }
                            } else {
                                m.phy.collided += 1;
                            }
                            m.rx_overlap[i] = false;
                        }
                    }
                }
                self.forward_radio_events(i, rad, now);
            }
            SimEvent::TxEnd { node } => {
                let i = node.index();
                let mut rad = self.rad_pool.take();
                let node = &mut self.nodes[i];
                node.radio.end_tx(&mut rad);
                node.energy.set_mode(now, RadioMode::Idle, Milliwatts::ZERO);
                self.forward_radio_events(i, rad, now);
                let mut acts = self.mac_pool.take();
                self.nodes[i].mac.on_tx_end(now, &mut acts);
                self.apply_mac_actions(i, acts, now);
            }
            SimEvent::CtrlArrivalStart {
                node,
                key,
                power,
                end,
                frame,
            } => {
                let mut rad = self.ctrl_pool.take();
                self.nodes[node.index()]
                    .ctrl_radio
                    .on_arrival_start(key, power, end, &frame, &mut rad);
                self.forward_ctrl_events(node.index(), rad, now);
            }
            SimEvent::CtrlArrivalEnd { node, key } => {
                let mut rad = self.ctrl_pool.take();
                self.nodes[node.index()]
                    .ctrl_radio
                    .on_arrival_end(key, &mut rad);
                self.forward_ctrl_events(node.index(), rad, now);
            }
            SimEvent::CtrlTxEnd { node } => {
                let i = node.index();
                let mut rad = self.ctrl_pool.take();
                self.nodes[i].ctrl_radio.end_tx(&mut rad);
                // The tolerance broadcast happens while the data radio is
                // mid-reception; energy for it was accounted at start.
                self.ctrl_pool.put(rad);
                self.nodes[i].mac.on_ctrl_tx_end(now);
            }
            SimEvent::MacTimer { node, kind, token } => {
                let i = node.index();
                let mut acts = self.mac_pool.take();
                self.nodes[i].mac.on_timer(kind, token, now, &mut acts);
                self.apply_mac_actions(i, acts, now);
            }
            SimEvent::AodvTimer { node, dst, token } => {
                let i = node.index();
                let mut acts = self.aodv_pool.take();
                self.nodes[i]
                    .aodv
                    .on_discovery_timeout(dst, token, now, &mut acts);
                self.apply_aodv_actions(i, acts, now);
            }
            SimEvent::TrafficEmit { node, source } => {
                let i = node.index();
                let (packet, next) = {
                    let src = &mut self.nodes[i].sources[source];
                    let packet = src.emit(now);
                    (packet, src.next_time())
                };
                self.sent_packets += 1;
                if let Some(m) = &mut self.metrics {
                    m.note_sent(packet.id);
                }
                if let Some(t) = next {
                    self.sched(t, SimEvent::TrafficEmit { node, source });
                }
                let cur_rank = self.cur.1;
                if let Some(fs) = &mut self.faults {
                    fs.records.push((now, cur_rank, FaultRecord::Sent));
                    if fs.down[i] {
                        // The application emits into a dead stack:
                        // counted as sent, lost on the spot.
                        if let Some(m) = &mut self.metrics {
                            m.note_dropped(packet.id, PacketDrop::EmitDead, now, cur_rank);
                        }
                        return;
                    }
                }
                let mut acts = self.aodv_pool.take();
                self.nodes[i].aodv.send(packet, now, &mut acts);
                self.apply_aodv_actions(i, acts, now);
            }
            SimEvent::NodeDown { node } => self.on_node_down(node.index()),
            SimEvent::NodeUp { node } => self.on_node_up(node.index()),
            SimEvent::ImpairmentStart { index } => self.set_impairment(index, true),
            SimEvent::ImpairmentEnd { index } => self.set_impairment(index, false),
            SimEvent::MetricsProbe => self.on_metrics_probe(now),
        }
    }

    /// Handle the periodic metrics probe: sample the instantaneous
    /// channel/queue/liveness observables into the time series and
    /// schedule the next probe. Reads only — no protocol state changes.
    fn on_metrics_probe(&mut self, now: SimTime) {
        let end = SimTime::ZERO + self.cfg.duration;
        let mut live = 0u64;
        let mut busy = 0u64;
        let mut queue_sum = 0u64;
        for i in 0..self.hot.alive.len() {
            // The probe is the natural audit point for the hot mirrors:
            // debug builds cross-check them against the cold state.
            debug_assert_eq!(
                self.hot.alive[i],
                !self.faults.as_ref().is_some_and(|f| f.down[i]),
                "alive mirror diverged for node {i}"
            );
            debug_assert_eq!(
                self.hot.busy[i],
                self.nodes[i].radio.carrier_busy(),
                "carrier mirror diverged for node {i}"
            );
            debug_assert_eq!(
                self.hot.queue_len[i] as usize,
                self.nodes[i].mac.queue_len(),
                "queue mirror diverged for node {i}"
            );
            if !self.hot.alive[i] {
                continue;
            }
            live += 1;
            if self.hot.busy[i] {
                busy += 1;
            }
            queue_sum += self.hot.queue_len[i] as u64;
        }
        let Some(m) = &mut self.metrics else { return };
        m.record_probe(now, live, busy, queue_sum);
        let next = now + m.interval();
        if next <= end {
            let ev = SimEvent::MetricsProbe;
            self.queue.schedule_ranked(next, ev.rank(), ev);
            m.probes_scheduled += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// `true` while node `i` is crashed.
    fn node_is_down(&self, i: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.down[i])
    }

    /// Apply a `NodeDown`: from here on the node schedules no arrivals,
    /// is skipped as a receiver, and accrues no transmit energy. See
    /// [`FaultState`] for the full crash semantics.
    fn on_node_down(&mut self, i: usize) {
        let Some(fs) = &mut self.faults else { return };
        if fs.down[i] {
            return; // a scheduled crash overlapping churn: already down
        }
        fs.down[i] = true;
        fs.crashes += 1;
        self.hot.alive[i] = false;
    }

    /// Apply a `NodeUp`. Exhausted energy budgets are permanent: a
    /// churn recovery scheduled for later cannot resurrect the node.
    fn on_node_up(&mut self, i: usize) {
        let expire = {
            let Some(fs) = &mut self.faults else { return };
            if !fs.down[i] || fs.energy_dead[i] {
                return;
            }
            fs.down[i] = false;
            fs.recoveries += 1;
            fs.plan.expire_routes == Some(true)
        };
        self.hot.alive[i] = true;
        if expire {
            // Reboot semantics: routing state is volatile and is lost
            // with the node; the experimenter's counters survive.
            let counters = self.nodes[i].aodv.counters;
            self.nodes[i].aodv =
                pcmac_aodv::AodvAgent::new(NodeId(i as u32), self.cfg.aodv.clone());
            self.nodes[i].aodv.counters = counters;
        }
    }

    /// (De)activate impairment burst `index`: recompute the composite
    /// attenuation and noise multiplier from the plan (products over
    /// the active set, so there is no incremental float drift), and
    /// push the scaled noise floor into every radio.
    fn set_impairment(&mut self, index: usize, active: bool) {
        let Some(fs) = &mut self.faults else { return };
        fs.burst_active[index] = active;
        let bursts = fs.plan.impairments.as_deref().unwrap_or(&[]);
        let mut gain = 1.0;
        let mut noise = 1.0;
        for (k, b) in bursts.iter().enumerate() {
            if fs.burst_active[k] {
                gain *= 10f64.powf(-b.extra_loss_db / 10.0);
                noise *= b.noise_mult.unwrap_or(1.0);
            }
        }
        fs.impair_gain = gain;
        if noise != fs.noise_mult {
            fs.noise_mult = noise;
            let floor = self.cfg.radio.noise_floor * noise;
            for node in &mut self.nodes {
                node.radio.set_noise_floor(floor);
                node.ctrl_radio.set_noise_floor(floor);
            }
            // A noise-floor shift can flip carrier sense on any radio
            // without an event addressed to it — the one mutation the
            // per-event sync in `dispatch` cannot see. Resync everyone.
            for i in 0..self.nodes.len() {
                self.sync_hot(i);
            }
        }
    }

    /// Account the radiated energy a data transmission commits (tx
    /// power × airtime) against the node's budget, scheduling its
    /// permanent death at the end of the transmission that exhausts it.
    fn commit_energy(&mut self, i: usize, power: Milliwatts, airtime: Duration, end: SimTime) {
        let (now, cur_rank) = self.cur;
        let died = {
            let Some(fs) = &mut self.faults else { return };
            let Some(budget) = fs.plan.energy_budget_mj else {
                return;
            };
            if fs.energy_dead[i] {
                return; // death already scheduled at an earlier tx's end
            }
            fs.committed_mj[i] += power.value() * airtime.as_secs_f64();
            if fs.committed_mj[i] >= budget {
                fs.energy_dead[i] = true;
                fs.energy_deaths += 1;
                // An exhausted budget is a fault like any other: it opens
                // (or extends) the fault window to the end of the run —
                // applied during the report replay, at this exact point in
                // the global record order.
                fs.records
                    .push((now, cur_rank, FaultRecord::EnergyDeath { death_at: end }));
                true
            } else {
                false
            }
        };
        if died {
            let ev = SimEvent::NodeDown {
                node: NodeId(i as u32),
            };
            self.queue.schedule_ranked(end, ev.rank(), ev);
        }
    }

    /// A data packet at node `i` lost its next hop: open a route-repair
    /// observation for (node, destination) unless one is pending.
    fn note_repair_start(&mut self, i: usize, dst: NodeId, now: SimTime) {
        let Some(fs) = &mut self.faults else { return };
        let key = (i as u32, dst.0);
        if fs.pending_repairs.iter().any(|&(n, d, _)| (n, d) == key) {
            return;
        }
        fs.pending_repairs.push((key.0, key.1, now));
        fs.repairs_started += 1;
    }

    /// Data is flowing from node `i` toward `dst` again (a fresh route
    /// exists): close the pending repair, recording its latency.
    fn note_repair_complete(&mut self, i: usize, dst: NodeId, now: SimTime) {
        let Some(fs) = &mut self.faults else { return };
        let key = (i as u32, dst.0);
        if let Some(idx) = fs
            .pending_repairs
            .iter()
            .position(|&(n, d, _)| (n, d) == key)
        {
            let (_, _, t0) = fs.pending_repairs.swap_remove(idx);
            fs.repair_latency.record((now - t0).as_secs_f64());
        }
    }

    // ------------------------------------------------------------------
    // Radio event forwarding
    // ------------------------------------------------------------------

    fn forward_radio_events(
        &mut self,
        i: usize,
        mut events: Vec<RadioEvent<Arc<Frame>>>,
        now: SimTime,
    ) {
        for ev in events.drain(..) {
            let mut acts = self.mac_pool.take();
            {
                let node = &mut self.nodes[i];
                let noise = node.radio.noise_power();
                node.mac.set_noise(noise);
                match ev {
                    RadioEvent::CarrierBusy => node.mac.on_carrier(true, now, &mut acts),
                    RadioEvent::CarrierIdle => node.mac.on_carrier(false, now, &mut acts),
                    RadioEvent::RxStart { power, frame, .. } => {
                        let remaining = node.mac.config().timing.frame_airtime(&frame);
                        node.mac
                            .on_rx_start(&frame, power, noise, remaining, now, &mut acts);
                    }
                    RadioEvent::RxEnd {
                        power, frame, ok, ..
                    } => {
                        node.mac
                            .on_rx_end((*frame).clone(), power, ok, now, &mut acts);
                    }
                }
            }
            self.apply_mac_actions(i, acts, now);
        }
        self.rad_pool.put(events);
    }

    fn forward_ctrl_events(
        &mut self,
        i: usize,
        mut events: Vec<RadioEvent<CtrlFrame>>,
        now: SimTime,
    ) {
        for ev in events.drain(..) {
            // The control channel is pure broadcast signalling: no carrier
            // sense, no NAV; only successfully-decoded frames matter.
            if let RadioEvent::RxEnd {
                power,
                frame,
                ok: true,
                ..
            } = ev
            {
                self.nodes[i].mac.on_ctrl_rx(frame, power, now);
            }
        }
        self.ctrl_pool.put(events);
    }

    // ------------------------------------------------------------------
    // Action application
    // ------------------------------------------------------------------

    fn apply_mac_actions(&mut self, i: usize, mut actions: Vec<MacAction>, now: SimTime) {
        for a in actions.drain(..) {
            match a {
                MacAction::TxFrame { frame, power } => self.transmit_frame(i, frame, power, now),
                MacAction::TxCtrl { frame, power } => self.transmit_ctrl(i, frame, power, now),
                MacAction::Arm { kind, delay, token } => {
                    self.sched(
                        now + delay,
                        SimEvent::MacTimer {
                            node: NodeId(i as u32),
                            kind,
                            token,
                        },
                    );
                }
                MacAction::Deliver { packet, from } => {
                    let mut acts = self.aodv_pool.take();
                    self.nodes[i].aodv.on_packet(packet, from, now, &mut acts);
                    self.apply_aodv_actions(i, acts, now);
                }
                MacAction::LinkFailure { packet, next_hop } => {
                    if self.faults.is_some() && !packet.payload.is_routing() {
                        self.note_repair_start(i, packet.dst, now);
                    }
                    // Purge other frames queued for the dead hop first, so
                    // the routing agent can salvage or drop them too.
                    let drained = self.nodes[i].mac.drain_next_hop(next_hop);
                    let mut acts = self.aodv_pool.take();
                    self.nodes[i]
                        .aodv
                        .on_link_failure(packet, next_hop, now, &mut acts);
                    for qp in drained {
                        if self.faults.is_some() && !qp.packet.payload.is_routing() {
                            self.note_repair_start(i, qp.packet.dst, now);
                        }
                        self.nodes[i]
                            .aodv
                            .on_link_failure(qp.packet, next_hop, now, &mut acts);
                    }
                    self.apply_aodv_actions(i, acts, now);
                }
                MacAction::QueueDrop { packet } => {
                    // Counted inside the MAC; only the fate map cares.
                    // Routing frames never enter the fate map (they were
                    // never `note_sent`), so they are filtered here rather
                    // than registered as spurious drops.
                    if !packet.payload.is_routing() {
                        let cur_rank = self.cur.1;
                        if let Some(m) = &mut self.metrics {
                            m.note_dropped(packet.id, PacketDrop::MacQueueFull, now, cur_rank);
                        }
                    }
                }
            }
        }
        self.mac_pool.put(actions);
    }

    fn apply_aodv_actions(
        &mut self,
        i: usize,
        mut actions: Vec<pcmac_aodv::AodvAction>,
        now: SimTime,
    ) {
        use pcmac_aodv::AodvAction;
        for a in actions.drain(..) {
            match a {
                AodvAction::Transmit { packet, next_hop } => {
                    if self.faults.is_some() && !packet.payload.is_routing() {
                        // A data packet has a usable next hop again.
                        self.note_repair_complete(i, packet.dst, now);
                    }
                    let mut acts = self.mac_pool.take();
                    self.nodes[i].mac.enqueue(packet, next_hop, now, &mut acts);
                    self.apply_mac_actions(i, acts, now);
                }
                AodvAction::DeliverLocal { packet } => {
                    let cur_rank = self.cur.1;
                    if let Some(fs) = &mut self.faults {
                        fs.records.push((
                            now,
                            cur_rank,
                            FaultRecord::Delivered {
                                created_at: packet.created_at,
                            },
                        ));
                    }
                    if !packet.payload.is_routing() {
                        if let Some(m) = &mut self.metrics {
                            m.note_delivered(packet.id);
                        }
                    }
                    self.nodes[i].sink.deliver(&packet, now);
                }
                AodvAction::Arm { dst, delay, token } => {
                    self.sched(
                        now + delay,
                        SimEvent::AodvTimer {
                            node: NodeId(i as u32),
                            dst,
                            token,
                        },
                    );
                }
                AodvAction::PeerReset { peer } => {
                    self.nodes[i].mac.reset_peer_state(peer);
                }
                AodvAction::Drop { packet, reason } => {
                    // Counted inside the agent; only the fate map cares
                    // (and only about application packets — see QueueDrop).
                    if !packet.payload.is_routing() {
                        let cur_rank = self.cur.1;
                        if let Some(m) = &mut self.metrics {
                            m.note_dropped(packet.id, reason.into(), now, cur_rank);
                        }
                    }
                }
            }
        }
        self.aodv_pool.put(actions);
    }

    // ------------------------------------------------------------------
    // The wireless channel
    // ------------------------------------------------------------------

    /// Bring `positions` (and the spatial index) up to `now`.
    ///
    /// Lazy refresh pops due refresh deadlines, touching only nodes
    /// whose indexed position could have drifted past the pad; exact
    /// sampling of the nodes that actually matter happens per-candidate
    /// in [`Simulator::collect_receivers`]. The reference channel instead
    /// rescans every node on each new timestamp (recording the timestamp
    /// so repeated transmissions at the same instant skip the rescan);
    /// it never queries the index, so only `positions` follows. Static
    /// scenarios never pay anything.
    fn refresh_positions(&mut self, now: SimTime) {
        if !self.any_mobile {
            return;
        }
        if self.lazy_refresh {
            self.process_refresh_deadlines(now);
            return;
        }
        if self.positions_at == Some(now) {
            return;
        }
        for i in 0..self.hot.positions.len() {
            self.hot.positions[i] = self.hot.mobility[i].position(now);
        }
        self.positions_at = Some(now);
    }

    /// Pop every refresh deadline at or before `now`, re-sampling those
    /// nodes so no indexed position is stale by more than `pad_m`. Each
    /// pop either re-arms a superseded entry (an on-demand exact sample
    /// pushed the node's deadline later) or refreshes the node and
    /// schedules its next deadline, so the heap holds one live chain per
    /// mobile node — O(moved · log N) per timestamp, not O(N).
    fn process_refresh_deadlines(&mut self, now: SimTime) {
        while let Some(&Reverse((t, node))) = self.refresh_heap.peek() {
            if t > now {
                break;
            }
            self.refresh_heap.pop();
            let i = node as usize;
            if t < self.hot.deadline[i] {
                if let Some(m) = &mut self.metrics {
                    m.hot.refresh_rearms += 1;
                }
                self.refresh_heap
                    .push(Reverse((self.hot.deadline[i], node)));
                continue;
            }
            if let Some(m) = &mut self.metrics {
                m.hot.refresh_pops += 1;
            }
            self.sample_exact(i, now);
            // `sample_exact` advanced the deadline past `now` whenever the
            // waypoint model allows; the +1 ns floor keeps degenerate
            // horizons (pad/speed rounding to zero) from re-firing at the
            // same instant forever.
            let d = self.hot.deadline[i].max(now + Duration::from_nanos(1));
            self.hot.deadline[i] = d;
            self.refresh_heap.push(Reverse((d, node)));
        }
    }

    /// Sample node `i`'s exact position at `now` (at most once per
    /// instant), propagating any movement into the spatial index, and
    /// extending the node's refresh deadline — freshly sampled nodes
    /// cannot drift past the pad for another `pad_m / speed`.
    fn sample_exact(&mut self, i: usize, now: SimTime) {
        if self.hot.sampled_at[i] == now {
            return;
        }
        self.hot.sampled_at[i] = now;
        if let Some(m) = &mut self.metrics {
            m.hot.exact_samples += 1;
        }
        let p = self.hot.mobility[i].position(now);
        if p != self.hot.positions[i] {
            self.hot.positions[i] = p;
            self.grid.update(i as u32, p);
        }
        let d = self.hot.mobility[i].stale_after(now, self.pad_m);
        if d > self.hot.deadline[i] {
            self.hot.deadline[i] = d;
        }
    }

    /// Fill `self.candidates` with every node (other than `i`, sorted by
    /// id) that could receive a transmission from `i` at `power` above
    /// the interference floor. Under lazy refresh the index query is
    /// padded by the staleness allowance and the transmitter plus every
    /// returned candidate are re-sampled exactly at `now`, so the
    /// subsequent gain/delay computations see true positions and the
    /// scheduled arrivals match the reference channel bit for bit.
    fn collect_receivers(&mut self, i: usize, power: Milliwatts, now: SimTime) {
        self.refresh_positions(now);
        if self.lazy_refresh {
            self.sample_exact(i, now);
        }
        self.candidates.clear();
        if self.reference {
            self.candidates
                .extend((0..self.hot.positions.len() as u32).filter(|&j| j as usize != i));
        } else {
            let mut radius = cull_radius(&self.propagation, power, self.cfg.interference_floor);
            if self.lazy_refresh {
                radius += self.pad_m * REFRESH_PAD_SLACK;
            }
            self.grid.query_circle(
                self.hot.positions[i],
                radius,
                Some(i as u32),
                &mut self.candidates,
            );
            if self.lazy_refresh {
                for c in 0..self.candidates.len() {
                    let j = self.candidates[c] as usize;
                    self.sample_exact(j, now);
                }
            }
            if let Some(m) = &mut self.metrics {
                m.hot.grid_queries += 1;
                m.hot.grid_candidates += self.candidates.len() as u64;
            }
        }
    }

    /// Drop receivers that are currently crashed from the candidate
    /// list, before the batched gain fill.
    fn cull_down_receivers(&mut self) {
        let Some(fs) = &self.faults else { return };
        self.candidates.retain(|&j| !fs.down[j as usize]);
    }

    /// Batch-evaluate the gains from node `i` to every candidate into
    /// `self.gains` (parallel to `self.candidates`): replayed from the
    /// dense table (small static fields) or evaluated live in one
    /// contiguous pass. Both paths produce bit-identical values to
    /// per-pair calls.
    fn fill_gains(&mut self, i: usize) {
        match &self.gain_cache {
            Some(cache) => {
                self.gains.clear();
                self.gains.reserve(self.candidates.len());
                self.gains
                    .extend(self.candidates.iter().map(|&j| cache.gain(i, j as usize)));
            }
            None => self.propagation.gains_into_indexed(
                self.hot.positions[i],
                &self.hot.positions,
                &self.candidates,
                &mut self.gains,
            ),
        }
    }

    /// Mint the transmission key for node `i`'s next transmission:
    /// `(node << 32) | per-node counter`. Keys depend only on the node's
    /// own transmission history, so arrival ranks (which carry the key)
    /// stay a pure function of event content.
    #[inline]
    fn tx_key(&mut self, i: usize) -> u64 {
        let k = ((i as u64) << 32) | self.hot.tx_key_ctr[i] as u64;
        self.hot.tx_key_ctr[i] += 1;
        k
    }

    /// Propagation delay over `dist` metres, floored at the configured
    /// minimum ([`ScenarioConfig::delay_floor`]; zero when unset).
    #[inline]
    fn prop_delay(&self, dist: f64) -> Duration {
        Duration::from_nanos(((dist / C * 1e9).round() as u64).max(self.delay_floor_ns))
    }

    fn transmit_frame(&mut self, i: usize, frame: Frame, power: Milliwatts, now: SimTime) {
        let airtime = self.nodes[i].mac.config().timing.frame_airtime(&frame);
        let end = now + airtime;
        let down = self.node_is_down(i);

        let mut rad = self.rad_pool.take();
        self.nodes[i].radio.start_tx(end, &mut rad);
        if !down {
            self.nodes[i]
                .energy
                .set_mode(now, RadioMode::Transmit, power);
        }
        self.forward_radio_events(i, rad, now);
        self.sched(
            end,
            SimEvent::TxEnd {
                node: NodeId(i as u32),
            },
        );
        if down {
            // A crashed node's MAC still goes through the motions (its
            // state machine stays consistent for recovery), but nothing
            // is radiated: no arrivals, no energy.
            return;
        }
        self.commit_energy(i, power, airtime, end);
        self.hot.tx_power_mw[i] = power.value();
        if let Some(m) = &mut self.metrics {
            m.note_data_tx(self.hot.tx_power_mw[i]);
        }

        self.collect_receivers(i, power, now);
        self.cull_down_receivers();
        let impair = self.faults.as_ref().map_or(1.0, |f| f.impair_gain);
        let frame = Arc::new(frame);
        let key = self.tx_key(i);
        let src_pos = self.hot.positions[i];
        self.fill_gains(i);
        for c in 0..self.candidates.len() {
            let j = self.candidates[c] as usize;
            let dst_pos = self.hot.positions[j];
            let pr = power * (self.gains[c] * impair);
            if pr.value() < self.cfg.interference_floor.value() {
                continue;
            }
            let delay = self.prop_delay(src_pos.distance(dst_pos));
            self.sched(
                now + delay,
                SimEvent::ArrivalStart {
                    node: NodeId(j as u32),
                    key,
                    power: pr,
                    end: end + delay,
                    frame: frame.clone(),
                },
            );
            self.sched(
                end + delay,
                SimEvent::ArrivalEnd {
                    node: NodeId(j as u32),
                    key,
                },
            );
        }
    }

    fn transmit_ctrl(&mut self, i: usize, frame: CtrlFrame, power: Milliwatts, now: SimTime) {
        let airtime = CtrlFrame::airtime(self.nodes[i].mac.config().pcmac.ctrl_rate_bps);
        let end = now + airtime;

        let mut rad = self.ctrl_pool.take();
        self.nodes[i].ctrl_radio.start_tx(end, &mut rad);
        self.ctrl_pool.put(rad);
        // The ctrl broadcast radiates too (the data radio may be mid-rx;
        // energy is attributed per-channel, transmit wins for the overlap).
        self.sched(
            end,
            SimEvent::CtrlTxEnd {
                node: NodeId(i as u32),
            },
        );
        if self.node_is_down(i) {
            return; // dead radios broadcast nothing
        }
        if let Some(m) = &mut self.metrics {
            m.note_ctrl_tx();
        }

        self.collect_receivers(i, power, now);
        self.cull_down_receivers();
        let impair = self.faults.as_ref().map_or(1.0, |f| f.impair_gain);
        let key = self.tx_key(i);
        let src_pos = self.hot.positions[i];
        self.fill_gains(i);
        for c in 0..self.candidates.len() {
            let j = self.candidates[c] as usize;
            let dst_pos = self.hot.positions[j];
            let pr = power * (self.gains[c] * impair);
            if pr.value() < self.cfg.interference_floor.value() {
                continue;
            }
            let delay = self.prop_delay(src_pos.distance(dst_pos));
            self.sched(
                now + delay,
                SimEvent::CtrlArrivalStart {
                    node: NodeId(j as u32),
                    key,
                    power: pr,
                    end: end + delay,
                    frame: frame.clone(),
                },
            );
            self.sched(
                end + delay,
                SimEvent::CtrlArrivalEnd {
                    node: NodeId(j as u32),
                    key,
                },
            );
        }
    }
}

// ----------------------------------------------------------------------
// Checkpoint capture and restore (see the `snapshot` module docs)
// ----------------------------------------------------------------------

impl Simulator {
    /// Capture the complete deterministic state at the current instant —
    /// every event dispatched so far is reflected, every pending event is
    /// recorded. Restoring the snapshot (on the production or the
    /// reference channel) and running to the end is bit-identical to
    /// never having stopped.
    pub fn snapshot(&self) -> SimSnapshot {
        self.snapshot_at(self.queue.now())
    }

    /// Capture at `cut` (every event strictly before `cut` has been
    /// dispatched; callers guarantee `cut` is at most the next pending
    /// event's time).
    pub(crate) fn snapshot_at(&self, cut: SimTime) -> SimSnapshot {
        let pending: Vec<(SimTime, u128, SimEvent)> = self
            .queue
            .pending_in_order()
            .into_iter()
            .map(|(t, r, e)| (t, r, e.clone()))
            .collect();
        // One scratch writer for every node: per-node `SnapWriter`s pay
        // allocator growth 64k times over at scale.
        let mut scratch = SnapWriter::new();
        let nodes: Vec<Vec<u8>> = self
            .nodes
            .iter()
            .map(|node| {
                scratch.clear();
                node.save_state(&mut scratch);
                scratch.payload().to_vec()
            })
            .collect();
        // Advance the mobility clones exactly to the cut: waypoint
        // queries are non-decreasing and idempotent, so this is the
        // state an uninterrupted run carries at `cut` regardless of when
        // each node was last sampled.
        let mut mobility = self.hot.mobility.clone();
        for m in &mut mobility {
            let _ = m.position(cut);
        }
        SimSnapshot {
            cfg_digest: crate::snapshot::config_digest(&self.cfg),
            time: cut,
            scheduled_total: self.queue.scheduled_total(),
            sent_packets: self.sent_packets,
            probes_scheduled: self.metrics.as_ref().map_or(0, |m| m.probes_scheduled),
            pending,
            mobility,
            tx_key_ctr: self.hot.tx_key_ctr.clone(),
            nodes,
            faults: self.faults.as_ref().map(FaultState::capture),
            metrics: self.metrics.as_ref().map(MetricsState::capture),
        }
    }

    /// Bring a snapshot back to life under `cfg`. The configuration must
    /// describe the same scenario the snapshot was captured from
    /// ([`SimSnapshot::matches`]). Running the result to the end is
    /// bit-identical to the uninterrupted run.
    pub fn restore(cfg: ScenarioConfig, snap: &SimSnapshot) -> Result<Simulator, SnapError> {
        if !snap.matches(&cfg) {
            return Err(SnapError::CfgMismatch);
        }
        let n = cfg.nodes.count();
        if snap.nodes.len() != n || snap.mobility.len() != n || snap.tx_key_ctr.len() != n {
            return Err(SnapError::Corrupt("snapshot node count"));
        }
        let base = snap
            .scheduled_total
            .checked_sub(snap.pending.len() as u64)
            .ok_or(SnapError::Corrupt("pending exceeds scheduled total"))?;
        let mut sim = Simulator::new(cfg);
        let cut = snap.time;

        // The event queue: restart the sequence counter at the cut and
        // re-schedule the pending set in canonical order, so insertion
        // sequence numbers break same-key ties exactly as they did in
        // the original run.
        sim.queue = pcmac_engine::EventQueue::restored(cut, base);
        for (at, rank, ev) in &snap.pending {
            sim.queue.schedule_ranked(*at, *rank, ev.clone());
        }

        // Cold per-node state.
        for (blob, node) in snap.nodes.iter().zip(sim.nodes.iter_mut()) {
            let mut r = SnapReader::over(blob);
            node.load_state(&mut r)?;
            if !r.is_exhausted() {
                return Err(SnapError::Corrupt("node blob trailing bytes"));
            }
        }

        // Hot state: mobility models arrive advanced exactly to the cut,
        // so sampling them at the cut is exact and free of history.
        sim.hot.mobility = snap.mobility.clone();
        sim.hot.tx_key_ctr = snap.tx_key_ctr.clone();
        if sim.any_mobile {
            for i in 0..n {
                let p = sim.hot.mobility[i].position(cut);
                sim.hot.positions[i] = p;
                sim.grid.update(i as u32, p);
            }
            sim.positions_at = Some(cut);
        }
        if sim.lazy_refresh {
            // One live deadline chain per node, re-seeded from the cut
            // (positions are exact there, like at t = 0 for a fresh
            // build).
            sim.refresh_heap.clear();
            for i in 0..n {
                sim.hot.sampled_at[i] = cut;
                let d = sim.hot.mobility[i].stale_after(cut, sim.pad_m);
                sim.hot.deadline[i] = d;
                if d != SimTime::MAX {
                    sim.refresh_heap.push(Reverse((d, i as u32)));
                }
            }
        }
        sim.sent_packets = snap.sent_packets;
        sim.cur = (cut, 0);

        // The fault layer.
        match (sim.faults.as_mut(), snap.faults.as_ref()) {
            (Some(fs), Some(fsnap)) => {
                fs.restore_from(fsnap).map_err(SnapError::Corrupt)?;
                for (alive, &d) in sim.hot.alive.iter_mut().zip(fsnap.down()) {
                    *alive = !d;
                }
            }
            (None, None) => {}
            _ => return Err(SnapError::Corrupt("fault section presence")),
        }

        // The metrics layer.
        match (sim.metrics.as_mut(), snap.metrics.as_ref()) {
            (Some(ms), Some(msnap)) => ms.restore_from(msnap).map_err(SnapError::Corrupt)?,
            (None, None) => {}
            _ => return Err(SnapError::Corrupt("metrics section presence")),
        }

        // Re-derive the hot mirrors from the restored cold state.
        for i in 0..n {
            sim.sync_hot(i);
        }
        Ok(sim)
    }

    /// The reference channel, as a test oracle: every node is a
    /// candidate receiver, every position is re-sampled on each new
    /// timestamp, and every gain is evaluated live. Production runs must
    /// match it bit for bit. Call it straight after [`Simulator::new`]
    /// or [`Simulator::restore`], where positions are exact; the switch
    /// itself is never serialized.
    #[doc(hidden)]
    pub fn into_reference(mut self) -> Self {
        self.reference = true;
        self.lazy_refresh = false;
        self.refresh_heap.clear();
        self.gain_cache = None;
        self
    }
}

/// Schedule `ev` with its content-derived rank (build-time sites; the
/// running simulator uses [`Simulator::sched`]).
fn sched_into(queue: &mut EventQueue<SimEvent>, at: SimTime, ev: SimEvent) {
    queue.schedule_ranked(at, ev.rank(), ev);
}

/// The radius beyond which a transmission at `power` cannot reach
/// `floor` under any realisation of `model` (slightly inflated for
/// float-inversion safety). Infinite when the floor is disabled.
fn cull_radius(model: &PropagationModel, power: Milliwatts, floor: Milliwatts) -> f64 {
    if floor.value() <= 0.0 || power.value() <= 0.0 {
        return f64::INFINITY;
    }
    model.max_range_for(power, floor) * RADIUS_SLACK
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmac_mac::Variant;

    /// The dense table serves exactly the small fully static fields, so
    /// the equivalence suites' static rows compare it against live gains.
    #[test]
    fn gain_path_follows_the_scenario_shape() {
        let small = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 1000.0, 1);
        assert!(Simulator::new(small.clone()).gain_cache.is_some());
        assert!(Simulator::new(small.clone())
            .into_reference()
            .gain_cache
            .is_none());
        let mut large = small;
        large.nodes = NodeSetup::Static(
            (0..=GAIN_CACHE_MAX_NODES)
                .map(|i| Point::new((i % 40) as f64 * 20.0, (i / 40) as f64 * 15.0))
                .collect(),
        );
        assert!(Simulator::new(large).gain_cache.is_none());
        let mobile = ScenarioConfig::paper(Variant::Basic, 500.0, 1);
        assert!(Simulator::new(mobile).gain_cache.is_none());
    }
}
