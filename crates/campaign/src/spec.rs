//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is the JSON-loadable description of *one kind of
//! experiment*: how nodes are placed (via the `pcmac-mobility` generator
//! library), whether they move, what traffic they carry and with which
//! arrival process, and which MAC variant runs. It stays abstract —
//! "50 nodes clustered in 3 hotspots, ten random Poisson pairs at
//! 600 kbps" — until [`ScenarioSpec::materialize`] turns it into a
//! concrete, seeded [`ScenarioConfig`] the simulator can run.
//!
//! Materialization is deterministic in the seed, and the `Uniform` +
//! `RandomPairs` path reproduces [`ScenarioConfig::paper`] bit for bit,
//! so spec-driven sweeps extend the constructor-built figures instead of
//! forking them.
//!
//! The *entire* [`ScenarioConfig`] surface is declarative: the optional
//! [`ProtocolSpec`] / [`RadioSpec`] / [`AodvSpec`] sections overlay the
//! MAC (including the PCMAC §III knobs: safety factor, capture ratio,
//! control-channel rate, handshake arity), radio (thresholds, capture
//! policy), and AODV parameters on top of the paper defaults. Campaign
//! sweep axes reach every one of those knobs through
//! [`ScenarioSpec::apply_patch`] and its dotted [`PATCH_PATHS`].

use pcmac::{
    ChurnConfig, FaultConfig, FlowShape, FlowSpec, MetricsConfig, NodeSetup, ScenarioConfig,
    ShadowingConfig, TraceFilter, Variant,
};
use pcmac_aodv::AodvConfig;
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, Point, RngStream, SimTime};
use pcmac_mac::MacConfig;
use pcmac_mobility::placement;
use pcmac_phy::{CapturePolicy, PowerLevels, RadioConfig};
use serde::{Deserialize, Serialize, Value};

/// Everything wrong with a spec, found in one pass.
#[derive(Debug, Clone)]
pub struct SpecError {
    /// Human-readable problems, one per defect.
    pub problems: Vec<String>,
}

impl SpecError {
    pub(crate) fn one(msg: impl Into<String>) -> Self {
        SpecError {
            problems: vec![msg.into()],
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid spec: {}", self.problems.join("; "))
    }
}

impl std::error::Error for SpecError {}

impl From<pcmac::InvalidScenario> for SpecError {
    fn from(e: pcmac::InvalidScenario) -> Self {
        SpecError {
            problems: e.problems,
        }
    }
}

/// How nodes are laid out, in terms of the `pcmac-mobility` generator
/// library. Stochastic placements draw from an RNG stream derived from
/// the scenario seed, so the same seed always yields the same layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementSpec {
    /// Uniform scatter over the whole field (the paper's layout).
    Uniform,
    /// Uniform scatter at a target density; the node count is computed
    /// from the field area (`count` is ignored).
    Density {
        /// Nodes per square kilometre.
        per_km2: f64,
    },
    /// Square grid centred pitch-by-pitch from the origin.
    Grid {
        /// Pitch between neighbours (m).
        spacing: f64,
    },
    /// Horizontal chain from the field's left edge midline.
    Chain {
        /// Distance between consecutive nodes (m).
        spacing: f64,
    },
    /// Evenly spaced on a circle around the field centre.
    Ring {
        /// Circle radius (m).
        radius: f64,
    },
    /// Hotspots: cluster centres uniform, members uniform in a disc
    /// around their centre.
    Clustered {
        /// Number of hotspots.
        clusters: usize,
        /// Disc radius around each centre (m).
        spread_m: f64,
    },
    /// Uniform over a thin horizontal strip across the field's vertical
    /// centre.
    Corridor {
        /// Strip height (m); the strip spans the full field width.
        width_m: f64,
    },
    /// Exact positions, as given.
    Explicit {
        /// One point per node.
        points: Vec<Point>,
    },
}

/// Random-waypoint movement parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilitySpec {
    /// Constant speed (m/s).
    pub speed_mps: f64,
    /// Pause at each waypoint (s).
    pub pause_s: f64,
}

/// Node population: how many, where, and whether they move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodesSpec {
    /// Node count. `None` is allowed only where the placement implies it
    /// (`Density`, `Explicit`).
    pub count: Option<usize>,
    /// Layout generator.
    pub placement: PlacementSpec,
    /// Random-waypoint mobility; `None` means static.
    pub mobility: Option<MobilitySpec>,
}

/// Which node pairs carry flows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Seeded distinct random pairs — the paper's workload shape.
    RandomPairs {
        /// Number of flows.
        flows: usize,
    },
    /// Adjacent pairs by id: 0→1, 2→3, … (deterministic geometries where
    /// ids encode positions, e.g. chains and rings).
    NeighbourPairs {
        /// Number of flows (needs `2·flows ≤ count`).
        flows: usize,
    },
    /// Exact `(src, dst)` node pairs.
    Explicit {
        /// One pair per flow.
        pairs: Vec<(u32, u32)>,
    },
}

/// Application traffic: pattern, packet size, aggregate load, arrival
/// process. The aggregate load splits evenly across flows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Which pairs talk.
    pub pattern: TrafficPattern,
    /// UDP payload bytes per packet.
    pub bytes: u32,
    /// Aggregate offered load (kbit/s) across all flows.
    pub offered_load_kbps: f64,
    /// Arrival process (CBR, Poisson, or bursty on/off — all three
    /// sources from `pcmac-traffic` are reachable here).
    pub shape: FlowShape,
}

/// Overlay on the MAC configuration, covering the PCMAC §III knobs the
/// paper's arguments are made of. Every field is optional; `None` keeps
/// [`MacConfig::paper_default`], so existing spec files stay valid.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProtocolSpec {
    /// Redundancy coefficient on the advertised noise tolerance
    /// (paper: 0.7).
    pub safety_factor: Option<f64>,
    /// Capture threshold η_cp used in the tolerance computation
    /// (paper: 10).
    pub capture_ratio: Option<f64>,
    /// Power-control channel bandwidth in bit/s (paper: 500 000).
    pub ctrl_rate_bps: Option<u64>,
    /// Power-history entry lifetime in seconds (paper: 3).
    pub history_expiry_s: Option<f64>,
    /// Cap on implicit-ack retransmissions of one stored packet.
    pub max_retx: Option<u8>,
    /// Keep the ACK (four-way handshake) even under PCMAC — the
    /// handshake-arity ablation. The paper's protocol uses `false`.
    pub four_way_handshake: Option<bool>,
    /// Interface queue capacity (ns-2: 50).
    pub queue_capacity: Option<usize>,
    /// dot11RTSThreshold in bytes (paper/ns-2: 0 — RTS for everything).
    pub rts_threshold: Option<u32>,
}

impl ProtocolSpec {
    pub(crate) fn apply(&self, mac: &mut MacConfig) {
        if let Some(v) = self.safety_factor {
            mac.pcmac.safety_factor = v;
        }
        if let Some(v) = self.capture_ratio {
            mac.pcmac.capture_ratio = v;
        }
        if let Some(v) = self.ctrl_rate_bps {
            mac.pcmac.ctrl_rate_bps = v;
        }
        if let Some(v) = self.history_expiry_s {
            mac.pcmac.history_expiry = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.max_retx {
            mac.pcmac.max_retx = v;
        }
        if let Some(v) = self.four_way_handshake {
            mac.pcmac.four_way_handshake = v;
        }
        if let Some(v) = self.queue_capacity {
            mac.queue_capacity = v;
        }
        if let Some(v) = self.rts_threshold {
            mac.rts_threshold = v;
        }
    }

    fn validate(&self, problems: &mut Vec<String>) {
        if let Some(v) = self.safety_factor {
            if !v.is_finite() || v <= 0.0 {
                problems.push(format!(
                    "PCMAC safety factor {v} must be positive and finite"
                ));
            }
        }
        if let Some(v) = self.capture_ratio {
            if v.is_nan() || v < 1.0 {
                problems.push(format!("PCMAC capture ratio {v} must be at least 1"));
            }
        }
        if self.ctrl_rate_bps == Some(0) {
            problems.push("control channel rate is zero".into());
        }
        if let Some(v) = self.history_expiry_s {
            if !v.is_finite() || v <= 0.0 {
                problems.push(format!(
                    "power history expiry {v} s must be positive and finite"
                ));
            }
        }
        if self.queue_capacity == Some(0) {
            problems.push("interface queue capacity is zero".into());
        }
    }
}

/// Overlay on the radio configuration (thresholds and capture model).
/// `None` keeps the ns-2 defaults with the paper's pairwise start-only
/// capture policy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RadioSpec {
    /// Decode threshold in mW (ns-2 `RXThresh`, 3.652e-7). Applied to
    /// both the radio and the MAC's needed-power computation, which must
    /// agree for power control to close the loop.
    pub rx_thresh_mw: Option<f64>,
    /// Carrier-sense threshold in mW (ns-2 `CSThresh`, 1.559e-8).
    pub cs_thresh_mw: Option<f64>,
    /// Linear SINR required to keep a locked frame (ns-2 `CPThresh`, 10).
    pub capture_ratio: Option<f64>,
    /// Receiver noise floor in mW (1e-9).
    pub noise_floor_mw: Option<f64>,
    /// Pairwise start-only (ns-2, the paper's model) vs cumulative-SINR
    /// capture — the capture-policy ablation.
    pub capture_policy: Option<CapturePolicy>,
}

impl RadioSpec {
    pub(crate) fn apply(&self, radio: &mut RadioConfig, mac: &mut MacConfig) {
        if let Some(v) = self.rx_thresh_mw {
            radio.rx_thresh = Milliwatts(v);
            mac.rx_thresh = Milliwatts(v);
        }
        if let Some(v) = self.cs_thresh_mw {
            radio.cs_thresh = Milliwatts(v);
        }
        if let Some(v) = self.capture_ratio {
            radio.capture_ratio = v;
        }
        if let Some(v) = self.noise_floor_mw {
            radio.noise_floor = Milliwatts(v);
        }
        if let Some(v) = self.capture_policy {
            radio.capture_policy = v;
        }
    }

    fn validate(&self, problems: &mut Vec<String>) {
        for (which, v) in [
            ("decode threshold", self.rx_thresh_mw),
            ("carrier-sense threshold", self.cs_thresh_mw),
            ("noise floor", self.noise_floor_mw),
        ] {
            if let Some(v) = v {
                if !v.is_finite() || v <= 0.0 {
                    problems.push(format!("{which} {v} mW must be positive and finite"));
                }
            }
        }
        if let Some(v) = self.capture_ratio {
            if v.is_nan() || v < 1.0 {
                problems.push(format!("radio capture ratio {v} must be at least 1"));
            }
        }
        // Effective values after the overlay: the decode threshold must
        // stay above the noise floor or nothing could ever be received.
        let defaults = RadioConfig::ns2_default();
        let rx = self.rx_thresh_mw.unwrap_or(defaults.rx_thresh.value());
        let noise = self.noise_floor_mw.unwrap_or(defaults.noise_floor.value());
        if rx.is_finite() && noise.is_finite() && rx > 0.0 && noise > 0.0 && rx <= noise {
            problems.push(format!(
                "decode threshold {rx} mW must exceed the noise floor {noise} mW"
            ));
        }
    }
}

/// Overlay on the AODV routing parameters. `None` keeps the CMU ns-2
/// era defaults ([`AodvConfig::default`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AodvSpec {
    /// Lifetime of an actively-used route in seconds (10).
    pub active_route_timeout_s: Option<f64>,
    /// Duplicate-flood suppression window in seconds (6).
    pub rreq_cache_timeout_s: Option<f64>,
    /// Wait for an RREP before retrying a discovery, in seconds (1).
    pub rreq_wait_s: Option<f64>,
    /// Discovery attempts before giving up (3).
    pub rreq_retries: Option<u8>,
    /// Send-buffer capacity in packets (64).
    pub buffer_capacity: Option<usize>,
    /// Maximum send-buffer wait in seconds (30).
    pub buffer_timeout_s: Option<f64>,
    /// TTL for flooded RREQs (32).
    pub rreq_ttl: Option<u8>,
}

impl AodvSpec {
    pub(crate) fn apply(&self, aodv: &mut AodvConfig) {
        if let Some(v) = self.active_route_timeout_s {
            aodv.active_route_timeout = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.rreq_cache_timeout_s {
            aodv.rreq_cache_timeout = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.rreq_wait_s {
            aodv.rreq_wait = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.rreq_retries {
            aodv.rreq_retries = v;
        }
        if let Some(v) = self.buffer_capacity {
            aodv.buffer_capacity = v;
        }
        if let Some(v) = self.buffer_timeout_s {
            aodv.buffer_timeout = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.rreq_ttl {
            aodv.rreq_ttl = v;
        }
    }

    fn validate(&self, problems: &mut Vec<String>) {
        for (which, v) in [
            ("active route timeout", self.active_route_timeout_s),
            ("RREQ cache timeout", self.rreq_cache_timeout_s),
            ("RREQ wait", self.rreq_wait_s),
            ("buffer timeout", self.buffer_timeout_s),
        ] {
            if let Some(v) = v {
                if !v.is_finite() || v <= 0.0 {
                    problems.push(format!("AODV {which} {v} s must be positive and finite"));
                }
            }
        }
        if self.rreq_retries == Some(0) {
            problems.push("AODV needs at least one RREQ attempt".into());
        }
        if self.buffer_capacity == Some(0) {
            problems.push("AODV send-buffer capacity is zero".into());
        }
        if self.rreq_ttl == Some(0) {
            problems.push("AODV RREQ TTL is zero: floods would die at the source".into());
        }
    }
}

/// Propagation-delay overlay. Specs written for the removed sharded
/// engine may still carry `"shards"` here; unknown fields are ignored,
/// so they load and run single-threaded with identical results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionSpec {
    /// Minimum propagation delay in microseconds, applied to every
    /// arrival (`None` = exact speed-of-light delays).
    pub delay_floor_us: Option<f64>,
}

impl ExecutionSpec {
    fn validate(&self, problems: &mut Vec<String>) {
        if let Some(us) = self.delay_floor_us {
            if !us.is_finite() || us <= 0.0 {
                problems.push(format!("delay floor {us} µs must be positive and finite"));
            }
        }
    }
}

/// Every dotted path [`ScenarioSpec::apply_patch`] accepts — the
/// sweepable parameter surface of a scenario. Paths mirror the
/// materialized [`ScenarioConfig`] layout (`mac.pcmac.*`, `radio.*`,
/// `aodv.*`) plus the spec's own top-level knobs.
pub const PATCH_PATHS: &[&str] = &[
    "duration_s",
    "variant",
    "field.width",
    "field.height",
    "nodes.count",
    "nodes.placement",
    "nodes.mobility.speed_mps",
    "nodes.mobility.pause_s",
    "traffic.pattern",
    "traffic.offered_load_kbps",
    "traffic.bytes",
    "power_levels_mw",
    "shadowing.sigma_db",
    "shadowing.symmetric",
    "faults.crashes",
    "faults.churn.mean_uptime_s",
    "faults.churn.mean_downtime_s",
    "faults.churn.start_s",
    "faults.churn.stop_s",
    "faults.expire_routes",
    "faults.impairments",
    "faults.energy_budget_mj",
    "mac.pcmac.safety_factor",
    "mac.pcmac.capture_ratio",
    "mac.pcmac.ctrl_rate_bps",
    "mac.pcmac.history_expiry_s",
    "mac.pcmac.max_retx",
    "mac.pcmac.four_way_handshake",
    "mac.queue_capacity",
    "mac.rts_threshold",
    "radio.rx_thresh_mw",
    "radio.cs_thresh_mw",
    "radio.capture_ratio",
    "radio.noise_floor_mw",
    "radio.capture_policy",
    "aodv.active_route_timeout_s",
    "aodv.rreq_cache_timeout_s",
    "aodv.rreq_wait_s",
    "aodv.rreq_retries",
    "aodv.buffer_capacity",
    "aodv.buffer_timeout_s",
    "aodv.rreq_ttl",
    "metrics.probe_interval_s",
    "execution.delay_floor_us",
    "trace.channel",
    "trace.ctrl",
    "trace.timers",
    "trace.traffic",
];

/// Deserialize one patch value as the target type, naming the path on
/// mismatch.
fn patch_value<T: Deserialize>(path: &str, v: &Value) -> Result<T, SpecError> {
    T::from_value(v).map_err(|e| SpecError::one(format!("patch `{path}`: {e}")))
}

/// A declarative scenario: data, not code. Load from JSON, validate,
/// then [`materialize`](ScenarioSpec::materialize) with a seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable label; materialized scenario names derive from it.
    pub name: String,
    /// MAC protocol under test.
    pub variant: Variant,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Field dimensions (m).
    pub field: (f64, f64),
    /// Node population.
    pub nodes: NodesSpec,
    /// Application traffic.
    pub traffic: TrafficSpec,
    /// Override the paper's ten discrete transmit power classes (mW,
    /// strictly increasing). `None` keeps the defaults.
    pub power_levels_mw: Option<Vec<f64>>,
    /// Optional log-normal shadowing (robustness ablations).
    pub shadowing: Option<ShadowingConfig>,
    /// MAC / PCMAC parameter overlay. `None` (or an omitted JSON field)
    /// keeps [`MacConfig::paper_default`].
    pub protocol: Option<ProtocolSpec>,
    /// Radio threshold / capture-model overlay. `None` keeps the ns-2
    /// defaults with the paper's start-only capture.
    pub radio: Option<RadioSpec>,
    /// AODV parameter overlay. `None` keeps [`AodvConfig::default`].
    pub aodv: Option<AodvSpec>,
    /// Deterministic fault plan — scheduled crashes, seeded churn,
    /// channel impairment bursts, energy budgets. `None` (or an omitted
    /// JSON field) runs the network healthy.
    pub faults: Option<FaultConfig>,
    /// Observability metrics layer. `None` (or an omitted JSON field)
    /// keeps the hot path untouched; `Some` collects the per-layer
    /// counters, drop taxonomy, and time-series probes into the report's
    /// `metrics` section without changing protocol behaviour.
    pub metrics: Option<MetricsConfig>,
    /// ns-2-style event-trace request. `None` runs untraced; `Some`
    /// asks the scenario runner to attach a [`pcmac::TraceWriter`] with
    /// this filter and write the trace next to the report.
    pub trace: Option<TraceFilter>,
    /// Propagation-delay floor overlay. `None` (or an omitted JSON field)
    /// keeps exact speed-of-light delays.
    pub execution: Option<ExecutionSpec>,
}

impl ScenarioSpec {
    /// The paper's §IV scenario as a declarative spec: 50 nodes uniform
    /// waypoint at 3 m/s / 3 s pause over 1000 m², ten random 512-byte
    /// CBR pairs, 400 s. Materializes identically to
    /// [`ScenarioConfig::paper`].
    pub fn paper() -> Self {
        ScenarioSpec {
            name: "paper".into(),
            variant: Variant::Pcmac,
            duration_s: 400.0,
            field: (1000.0, 1000.0),
            nodes: NodesSpec {
                count: Some(50),
                placement: PlacementSpec::Uniform,
                mobility: Some(MobilitySpec {
                    speed_mps: 3.0,
                    pause_s: 3.0,
                }),
            },
            traffic: TrafficSpec {
                pattern: TrafficPattern::RandomPairs { flows: 10 },
                bytes: 512,
                offered_load_kbps: 600.0,
                shape: FlowShape::Cbr,
            },
            power_levels_mw: None,
            shadowing: None,
            protocol: None,
            radio: None,
            aodv: None,
            faults: None,
            metrics: None,
            trace: None,
            execution: None,
        }
    }

    /// Set one parameter by its dotted path (see [`PATCH_PATHS`]) — the
    /// mechanism behind generic campaign sweep axes. The value is a raw
    /// JSON value and is type-checked against the target field; unknown
    /// paths and mismatched types fail with an actionable message.
    pub fn apply_patch(&mut self, path: &str, value: &Value) -> Result<(), SpecError> {
        match path {
            "duration_s" => self.duration_s = patch_value(path, value)?,
            "variant" => self.variant = patch_value(path, value)?,
            "field.width" => self.field.0 = patch_value(path, value)?,
            "field.height" => self.field.1 = patch_value(path, value)?,
            "nodes.count" => self.nodes.count = Some(patch_value(path, value)?),
            "nodes.placement" => self.nodes.placement = patch_value(path, value)?,
            "nodes.mobility.speed_mps" => {
                self.mobility_mut().speed_mps = patch_value(path, value)?;
            }
            "nodes.mobility.pause_s" => {
                self.mobility_mut().pause_s = patch_value(path, value)?;
            }
            "traffic.pattern" => self.traffic.pattern = patch_value(path, value)?,
            "traffic.offered_load_kbps" => {
                self.traffic.offered_load_kbps = patch_value(path, value)?;
            }
            "traffic.bytes" => self.traffic.bytes = patch_value(path, value)?,
            "power_levels_mw" => self.power_levels_mw = Some(patch_value(path, value)?),
            "shadowing.sigma_db" => self.shadowing_mut().sigma_db = patch_value(path, value)?,
            "shadowing.symmetric" => self.shadowing_mut().symmetric = patch_value(path, value)?,
            "faults.crashes" => self.faults_mut().crashes = Some(patch_value(path, value)?),
            "faults.churn.mean_uptime_s" => {
                self.churn_mut().mean_uptime_s = patch_value(path, value)?;
            }
            "faults.churn.mean_downtime_s" => {
                self.churn_mut().mean_downtime_s = patch_value(path, value)?;
            }
            "faults.churn.start_s" => {
                self.churn_mut().start_s = Some(patch_value(path, value)?);
            }
            "faults.churn.stop_s" => {
                self.churn_mut().stop_s = Some(patch_value(path, value)?);
            }
            "faults.expire_routes" => {
                self.faults_mut().expire_routes = Some(patch_value(path, value)?);
            }
            "faults.impairments" => {
                self.faults_mut().impairments = Some(patch_value(path, value)?);
            }
            "faults.energy_budget_mj" => {
                self.faults_mut().energy_budget_mj = Some(patch_value(path, value)?);
            }
            "mac.pcmac.safety_factor" => {
                self.protocol_mut().safety_factor = Some(patch_value(path, value)?);
            }
            "mac.pcmac.capture_ratio" => {
                self.protocol_mut().capture_ratio = Some(patch_value(path, value)?);
            }
            "mac.pcmac.ctrl_rate_bps" => {
                self.protocol_mut().ctrl_rate_bps = Some(patch_value(path, value)?);
            }
            "mac.pcmac.history_expiry_s" => {
                self.protocol_mut().history_expiry_s = Some(patch_value(path, value)?);
            }
            "mac.pcmac.max_retx" => {
                self.protocol_mut().max_retx = Some(patch_value(path, value)?);
            }
            "mac.pcmac.four_way_handshake" => {
                self.protocol_mut().four_way_handshake = Some(patch_value(path, value)?);
            }
            "mac.queue_capacity" => {
                self.protocol_mut().queue_capacity = Some(patch_value(path, value)?);
            }
            "mac.rts_threshold" => {
                self.protocol_mut().rts_threshold = Some(patch_value(path, value)?);
            }
            "radio.rx_thresh_mw" => {
                self.radio_mut().rx_thresh_mw = Some(patch_value(path, value)?);
            }
            "radio.cs_thresh_mw" => {
                self.radio_mut().cs_thresh_mw = Some(patch_value(path, value)?);
            }
            "radio.capture_ratio" => {
                self.radio_mut().capture_ratio = Some(patch_value(path, value)?);
            }
            "radio.noise_floor_mw" => {
                self.radio_mut().noise_floor_mw = Some(patch_value(path, value)?);
            }
            "radio.capture_policy" => {
                self.radio_mut().capture_policy = Some(patch_value(path, value)?);
            }
            "aodv.active_route_timeout_s" => {
                self.aodv_mut().active_route_timeout_s = Some(patch_value(path, value)?);
            }
            "aodv.rreq_cache_timeout_s" => {
                self.aodv_mut().rreq_cache_timeout_s = Some(patch_value(path, value)?);
            }
            "aodv.rreq_wait_s" => {
                self.aodv_mut().rreq_wait_s = Some(patch_value(path, value)?);
            }
            "aodv.rreq_retries" => {
                self.aodv_mut().rreq_retries = Some(patch_value(path, value)?);
            }
            "aodv.buffer_capacity" => {
                self.aodv_mut().buffer_capacity = Some(patch_value(path, value)?);
            }
            "aodv.buffer_timeout_s" => {
                self.aodv_mut().buffer_timeout_s = Some(patch_value(path, value)?);
            }
            "aodv.rreq_ttl" => self.aodv_mut().rreq_ttl = Some(patch_value(path, value)?),
            "metrics.probe_interval_s" => {
                self.metrics_mut().probe_interval_s = patch_value(path, value)?;
            }
            "execution.delay_floor_us" => {
                self.execution_mut().delay_floor_us = Some(patch_value(path, value)?);
            }
            "trace.channel" => self.trace_mut().channel = patch_value(path, value)?,
            "trace.ctrl" => self.trace_mut().ctrl = patch_value(path, value)?,
            "trace.timers" => self.trace_mut().timers = patch_value(path, value)?,
            "trace.traffic" => self.trace_mut().traffic = patch_value(path, value)?,
            unknown => {
                return Err(SpecError::one(format!(
                    "unknown patch path `{unknown}`; supported paths: {}",
                    PATCH_PATHS.join(", ")
                )));
            }
        }
        Ok(())
    }

    fn protocol_mut(&mut self) -> &mut ProtocolSpec {
        self.protocol.get_or_insert_with(ProtocolSpec::default)
    }

    fn radio_mut(&mut self) -> &mut RadioSpec {
        self.radio.get_or_insert_with(RadioSpec::default)
    }

    fn aodv_mut(&mut self) -> &mut AodvSpec {
        self.aodv.get_or_insert_with(AodvSpec::default)
    }

    fn mobility_mut(&mut self) -> &mut MobilitySpec {
        self.nodes.mobility.get_or_insert(MobilitySpec {
            speed_mps: 0.0,
            pause_s: 0.0,
        })
    }

    fn shadowing_mut(&mut self) -> &mut ShadowingConfig {
        self.shadowing.get_or_insert(ShadowingConfig {
            sigma_db: 0.0,
            symmetric: true,
        })
    }

    fn faults_mut(&mut self) -> &mut FaultConfig {
        self.faults.get_or_insert_with(FaultConfig::default)
    }

    fn metrics_mut(&mut self) -> &mut MetricsConfig {
        self.metrics.get_or_insert_with(MetricsConfig::default)
    }

    fn execution_mut(&mut self) -> &mut ExecutionSpec {
        self.execution.get_or_insert_with(ExecutionSpec::default)
    }

    fn trace_mut(&mut self) -> &mut TraceFilter {
        self.trace.get_or_insert_with(TraceFilter::default)
    }

    fn churn_mut(&mut self) -> &mut ChurnConfig {
        self.faults_mut().churn.get_or_insert(ChurnConfig {
            mean_uptime_s: 60.0,
            mean_downtime_s: 10.0,
            start_s: None,
            stop_s: None,
        })
    }

    /// The node count this spec materializes (resolving density- and
    /// placement-implied counts).
    pub fn node_count(&self) -> Result<usize, SpecError> {
        match (&self.nodes.placement, self.nodes.count) {
            (PlacementSpec::Density { per_km2 }, maybe_count) => {
                if !per_km2.is_finite() || *per_km2 <= 0.0 {
                    return Err(SpecError::one(format!(
                        "density {per_km2} nodes/km² must be positive and finite"
                    )));
                }
                let computed = placement::density_count(*per_km2, self.field.0, self.field.1);
                match maybe_count {
                    None => Ok(computed),
                    Some(c) if c == computed => Ok(c),
                    Some(c) => Err(SpecError::one(format!(
                        "count {c} conflicts with the density placement, which computes \
                         {computed} nodes; omit count"
                    ))),
                }
            }
            (PlacementSpec::Explicit { points }, None) => Ok(points.len()),
            (PlacementSpec::Explicit { points }, Some(c)) if c == points.len() => Ok(c),
            (PlacementSpec::Explicit { points }, Some(c)) => Err(SpecError::one(format!(
                "count {c} disagrees with the {} explicit points",
                points.len()
            ))),
            (_, Some(c)) => Ok(c),
            (_, None) => Err(SpecError::one(
                "node count is required unless the placement implies it (Density, Explicit)",
            )),
        }
    }

    /// Number of flows the traffic pattern creates.
    pub fn flow_count(&self) -> usize {
        match &self.traffic.pattern {
            TrafficPattern::RandomPairs { flows } | TrafficPattern::NeighbourPairs { flows } => {
                *flows
            }
            TrafficPattern::Explicit { pairs } => pairs.len(),
        }
    }

    /// The duration a run must *exceed* for every flow to get airtime:
    /// the last flow's staggered start ([`pcmac::flow_start`], the same
    /// schedule materialization uses).
    pub fn min_duration_s(&self) -> f64 {
        pcmac::flow_start(self.flow_count().saturating_sub(1)).as_secs_f64()
    }

    /// Check the spec for defects with actionable messages, without
    /// materializing it.
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut problems = Vec::new();
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            problems.push(format!(
                "duration {} s must be positive and finite",
                self.duration_s
            ));
        }
        for (which, dim) in [("width", self.field.0), ("height", self.field.1)] {
            if !dim.is_finite() || dim <= 0.0 {
                problems.push(format!("field {which} {dim} must be positive and finite"));
            }
        }
        let count = match self.node_count() {
            Ok(0) => {
                problems.push("scenario has zero nodes".to_string());
                0
            }
            Ok(c) => c,
            Err(e) => {
                problems.extend(e.problems);
                0
            }
        };
        match &self.nodes.placement {
            PlacementSpec::Grid { spacing } => {
                if !spacing.is_finite() || *spacing <= 0.0 {
                    problems.push(format!("spacing {spacing} m must be positive and finite"));
                } else if count > 0 {
                    let cols = (count as f64).sqrt().ceil() as usize;
                    let rows = count.div_ceil(cols);
                    if (cols - 1) as f64 * spacing > self.field.0
                        || (rows - 1) as f64 * spacing > self.field.1
                    {
                        problems.push(format!(
                            "a {cols}x{rows} grid at {spacing} m pitch does not fit the {} m x {} m field",
                            self.field.0, self.field.1
                        ));
                    }
                }
            }
            PlacementSpec::Chain { spacing } => {
                if !spacing.is_finite() || *spacing <= 0.0 {
                    problems.push(format!("spacing {spacing} m must be positive and finite"));
                } else if count > 1 && (count - 1) as f64 * spacing > self.field.0 {
                    problems.push(format!(
                        "a {count}-node chain at {spacing} m spacing exceeds the field width {}",
                        self.field.0
                    ));
                }
            }
            PlacementSpec::Ring { radius } => {
                if !radius.is_finite() || *radius <= 0.0 {
                    problems.push(format!(
                        "ring radius {radius} m must be positive and finite"
                    ));
                } else if *radius > self.field.0.min(self.field.1) / 2.0 {
                    problems.push(format!(
                        "ring radius {radius} m does not fit the {} m x {} m field",
                        self.field.0, self.field.1
                    ));
                }
            }
            PlacementSpec::Clustered { clusters, spread_m } => {
                if *clusters == 0 {
                    problems.push("clustered placement needs at least one cluster".into());
                }
                if !spread_m.is_finite() || *spread_m <= 0.0 {
                    problems.push(format!(
                        "cluster spread {spread_m} m must be positive and finite"
                    ));
                }
            }
            PlacementSpec::Corridor { width_m } => {
                if !width_m.is_finite() || *width_m <= 0.0 || *width_m > self.field.1 {
                    problems.push(format!(
                        "corridor width {width_m} m must be positive and fit the field height {}",
                        self.field.1
                    ));
                }
            }
            PlacementSpec::Explicit { points } => {
                if points.is_empty() {
                    problems.push("explicit placement has no points".into());
                }
                for (i, p) in points.iter().enumerate() {
                    if !p.x.is_finite()
                        || !p.y.is_finite()
                        || !(0.0..=self.field.0).contains(&p.x)
                        || !(0.0..=self.field.1).contains(&p.y)
                    {
                        problems.push(format!(
                            "point {i} ({}, {}) lies outside the {} m x {} m field",
                            p.x, p.y, self.field.0, self.field.1
                        ));
                    }
                }
            }
            PlacementSpec::Uniform | PlacementSpec::Density { .. } => {}
        }
        if let Some(m) = &self.nodes.mobility {
            if !m.speed_mps.is_finite() || m.speed_mps < 0.0 {
                problems.push(format!(
                    "mobility speed {} m/s must be finite and non-negative",
                    m.speed_mps
                ));
            }
            if !m.pause_s.is_finite() || m.pause_s < 0.0 {
                problems.push(format!(
                    "mobility pause {} s must be finite and non-negative",
                    m.pause_s
                ));
            }
        }
        let load = self.traffic.offered_load_kbps;
        if !load.is_finite() || load <= 0.0 {
            problems.push(format!(
                "offered load {load} kbps must be positive and finite"
            ));
        }
        if self.traffic.bytes == 0 {
            problems.push("packet size is zero bytes".into());
        }
        if let FlowShape::OnOff {
            mean_on_s,
            mean_off_s,
        } = self.traffic.shape
        {
            for (which, mean) in [("on", mean_on_s), ("off", mean_off_s)] {
                if !mean.is_finite() || mean <= 0.0 {
                    problems.push(format!(
                        "mean {which} phase {mean} s must be positive and finite"
                    ));
                }
            }
        }
        // A duration at or below the last flow's staggered start would
        // silently strand flows with zero airtime — the classic
        // over-shrunk smoke campaign.
        if self.duration_s.is_finite()
            && self.duration_s > 0.0
            && self.duration_s <= self.min_duration_s()
        {
            problems.push(format!(
                "duration {} s leaves later flows no airtime (flow starts are staggered up to {:.3} s)",
                self.duration_s,
                self.min_duration_s()
            ));
        }
        match &self.traffic.pattern {
            TrafficPattern::RandomPairs { flows } => {
                if *flows == 0 {
                    problems.push("traffic has zero flows".into());
                } else if count > 0 && count * (count.saturating_sub(1)) < *flows {
                    problems.push(format!(
                        "{flows} distinct random pairs cannot be drawn from {count} nodes"
                    ));
                }
            }
            TrafficPattern::NeighbourPairs { flows } => {
                if *flows == 0 {
                    problems.push("traffic has zero flows".into());
                } else if count > 0 && 2 * flows > count {
                    problems.push(format!(
                        "{flows} neighbour pairs need {} nodes, scenario has {count}",
                        2 * flows
                    ));
                }
            }
            TrafficPattern::Explicit { pairs } => {
                if pairs.is_empty() {
                    problems.push("traffic has zero flows".into());
                }
                for (i, (s, d)) in pairs.iter().enumerate() {
                    if s == d {
                        problems.push(format!(
                            "flow {i}: source and destination are both node {s}"
                        ));
                    }
                    if count > 0 {
                        for (role, node) in [("source", s), ("destination", d)] {
                            if *node as usize >= count {
                                problems.push(format!(
                                    "flow {i}: {role} node {node} out of range (scenario has {count} nodes)"
                                ));
                            }
                        }
                    }
                }
            }
        }
        if let Some(levels) = &self.power_levels_mw {
            if levels.is_empty() {
                problems.push("power level set is empty".into());
            }
            if levels.iter().any(|l| !l.is_finite() || *l <= 0.0) {
                problems.push("power levels must all be positive and finite (mW)".into());
            } else if levels.windows(2).any(|w| w[0] >= w[1]) {
                problems.push("power levels must be strictly increasing".into());
            }
        }
        if let Some(s) = &self.shadowing {
            if !s.sigma_db.is_finite() || s.sigma_db < 0.0 {
                problems.push(format!(
                    "shadowing sigma {} dB must be finite and non-negative",
                    s.sigma_db
                ));
            }
        }
        if let Some(p) = &self.protocol {
            p.validate(&mut problems);
        }
        if let Some(r) = &self.radio {
            r.validate(&mut problems);
        }
        if let Some(a) = &self.aodv {
            a.validate(&mut problems);
        }
        if let Some(fc) = &self.faults {
            fc.collect_problems(count, self.duration_s, &mut problems);
        }
        if let Some(mc) = &self.metrics {
            if !mc.probe_interval_s.is_finite() || mc.probe_interval_s <= 0.0 {
                problems.push(format!(
                    "metrics probe interval {} s must be positive and finite",
                    mc.probe_interval_s
                ));
            }
        }
        if let Some(e) = &self.execution {
            e.validate(&mut problems);
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(SpecError { problems })
        }
    }

    /// Turn the spec into a concrete, runnable [`ScenarioConfig`] for
    /// `seed`. Validates first; the result additionally passes
    /// [`ScenarioConfig::validate`].
    pub fn materialize(&self, seed: u64) -> Result<ScenarioConfig, SpecError> {
        self.validate()?;
        let count = self.node_count()?;
        let duration = Duration::from_secs_f64(self.duration_s);
        let (w, h) = self.field;

        let starts: Option<Vec<Point>> = match &self.nodes.placement {
            // Uniform placement is left symbolic: the simulator derives
            // it from the seed exactly as `ScenarioConfig::paper` does,
            // keeping spec-built and constructor-built runs identical.
            PlacementSpec::Uniform => None,
            PlacementSpec::Density { .. } => {
                let mut rng = RngStream::derive(seed, "scenario.placement");
                Some(placement::uniform(count, w, h, &mut rng))
            }
            PlacementSpec::Grid { spacing } => {
                let cols = (count as f64).sqrt().ceil() as usize;
                let rows = count.div_ceil(cols);
                let mut pts = placement::grid(cols, rows, Point::new(0.0, 0.0), *spacing);
                pts.truncate(count);
                Some(pts)
            }
            PlacementSpec::Chain { spacing } => {
                Some(placement::chain(count, Point::new(0.0, h / 2.0), *spacing))
            }
            PlacementSpec::Ring { radius } => Some(placement::ring(
                count,
                Point::new(w / 2.0, h / 2.0),
                *radius,
            )),
            PlacementSpec::Clustered { clusters, spread_m } => {
                let mut rng = RngStream::derive(seed, "spec.placement.clustered");
                Some(placement::clustered(
                    count, *clusters, w, h, *spread_m, &mut rng,
                ))
            }
            PlacementSpec::Corridor { width_m } => {
                let mut rng = RngStream::derive(seed, "spec.placement.corridor");
                Some(placement::corridor(
                    count,
                    Point::new(0.0, (h - width_m) / 2.0),
                    w,
                    *width_m,
                    &mut rng,
                ))
            }
            PlacementSpec::Explicit { points } => Some(points.clone()),
        };

        let nodes = match (starts, &self.nodes.mobility) {
            (None, Some(m)) => NodeSetup::UniformWaypoint {
                count,
                speed: m.speed_mps,
                pause: Duration::from_secs_f64(m.pause_s),
            },
            (None, None) => {
                // Static uniform scatter still needs concrete points.
                let mut rng = RngStream::derive(seed, "scenario.placement");
                NodeSetup::Static(placement::uniform(count, w, h, &mut rng))
            }
            (Some(starts), Some(m)) => NodeSetup::WaypointFrom {
                starts,
                speed: m.speed_mps,
                pause: Duration::from_secs_f64(m.pause_s),
            },
            (Some(starts), None) => NodeSetup::Static(starts),
        };

        let pairs: Vec<(u32, u32)> = match &self.traffic.pattern {
            TrafficPattern::RandomPairs { flows } => pcmac::random_flow_pairs(seed, count, *flows),
            TrafficPattern::NeighbourPairs { flows } => (0..*flows)
                .map(|i| (2 * i as u32, 2 * i as u32 + 1))
                .collect(),
            TrafficPattern::Explicit { pairs } => pairs.clone(),
        };
        let per_flow_bps = self.traffic.offered_load_kbps * 1000.0 / pairs.len() as f64;
        let flows: Vec<FlowSpec> = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| FlowSpec {
                flow: FlowId(i as u32),
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: self.traffic.bytes,
                rate_bps: per_flow_bps,
                start: pcmac::flow_start(i),
                stop: SimTime::ZERO + duration,
                shape: self.traffic.shape,
            })
            .collect();

        let mut mac = MacConfig::paper_default(self.variant);
        if let Some(levels) = &self.power_levels_mw {
            mac.levels = PowerLevels::new(levels.iter().map(|&l| Milliwatts(l)).collect());
        }
        // The paper's numbers come from ns2.1b8a, whose capture model is
        // pairwise and start-only (see `ScenarioConfig::paper`); overlays
        // then patch individual knobs on top of those defaults.
        let mut radio = RadioConfig {
            capture_policy: CapturePolicy::StartOnly,
            ..RadioConfig::ns2_default()
        };
        let mut aodv = AodvConfig::default();
        if let Some(p) = &self.protocol {
            p.apply(&mut mac);
        }
        if let Some(r) = &self.radio {
            r.apply(&mut radio, &mut mac);
        }
        if let Some(a) = &self.aodv {
            a.apply(&mut aodv);
        }

        let cfg = ScenarioConfig {
            name: format!(
                "{}-{}-{:.0}kbps-s{seed}",
                self.name,
                self.variant.name(),
                self.traffic.offered_load_kbps
            ),
            variant: self.variant,
            seed,
            duration,
            field: self.field,
            nodes,
            flows,
            radio,
            mac,
            aodv,
            interference_floor: Milliwatts(1.559e-10), // CSThresh / 100
            shadowing: self.shadowing,
            faults: self.faults.clone(),
            metrics: self.metrics,
            delay_floor_us: self.execution.and_then(|e| e.delay_floor_us),
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs always serialize")
    }

    /// Parse from JSON (no validation — call [`ScenarioSpec::validate`]).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}
