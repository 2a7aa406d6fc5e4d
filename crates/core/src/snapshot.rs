//! In-run durability: checkpoint/restore with bit-identical resume,
//! and cooperative cancellation.
//!
//! A [`SimSnapshot`] captures the *complete* deterministic state of a
//! run at a cut instant: the pending event population (with its
//! `(time, rank)` order), every per-node protocol machine (radios, MAC,
//! AODV, traffic sources, sink, energy meter), the mobility models with
//! their RNG streams, and the fault/metrics layers. The hard guarantee
//! — proven by the `channel_equivalence` matrix — is that restoring a
//! snapshot and running to the end produces a report **bit-identical**
//! to the uninterrupted run.
//!
//! # Cut semantics
//!
//! A cut is a *consistent instant* `g`: every event strictly before `g`
//! has been dispatched and every event at or after `g` is still
//! pending. A run cuts whenever the next event's time reaches a
//! checkpoint grid point. Grid points are absolute multiples of the
//! interval, so a resumed run cuts at the same instants as an
//! uninterrupted one, and same-instant events keep their order across
//! a restore because their ranks are derived from event content (see
//! `SimEvent::rank`), not from scheduling history.
//!
//! # Wire format
//!
//! [`SimSnapshot::to_bytes`] wraps the payload in the `pcmac-snap`
//! envelope (magic, version, length, FNV-1a checksum). Checkpoint files
//! are **host-independent**: every field is fixed-width little-endian,
//! floats travel as IEEE-754 bit patterns, and hash maps serialize in
//! sorted key order, so a file written on one machine restores with
//! bit-identical results on any other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pcmac_engine::{Duration, SimTime};
use pcmac_mobility::Mobility;
use pcmac_snap::{checksum64, fnv1a64, Snap, SnapError, SnapReader, SnapWriter};

use crate::config::ScenarioConfig;
use crate::event::SimEvent;
use crate::metrics::MetricsSnap;
use crate::report::RunReport;
use crate::sim::FaultSnap;

/// A cooperative cancellation handle: clone it, hand one side to the
/// run via [`RunHooks::cancel`], and call [`CancelToken::cancel`] from
/// any thread (a watchdog, a Ctrl-C handler). The run observes the
/// token at safe cut boundaries, takes a final snapshot, and returns
/// [`RunOutcome::Cancelled`] instead of blocking until the simulated
/// end — no thread is ever abandoned mid-dispatch.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Optional run-control hooks for [`Simulator::run_with_hooks`]
/// (crate::Simulator::run_with_hooks). The default (all `None`) is
/// exactly [`Simulator::run`](crate::Simulator::run).
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Observed at cut boundaries; when cancelled the run stops cleanly
    /// with a final snapshot.
    pub cancel: Option<&'a CancelToken>,
    /// Take a periodic checkpoint every this much *simulated* time.
    pub checkpoint_every: Option<Duration>,
    /// Receives every periodic checkpoint (called on the driving thread).
    pub checkpoint_sink: Option<&'a (dyn Fn(SimSnapshot) + Sync)>,
}

/// How a hooked run ended.
//
// The variants differ in size, but exactly one `RunOutcome` exists per
// run — boxing the report would cost every caller a deref for nothing.
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// Ran to the simulated end; the ordinary report.
    Completed(RunReport),
    /// Stopped at a cancellation cut; carries the state at the cut so
    /// the caller can persist it and resume later. `None` only when the
    /// event queue was already empty (nothing left to resume into).
    Cancelled(Option<SimSnapshot>),
}

impl RunOutcome {
    /// The report, if the run completed.
    pub fn report(self) -> Option<RunReport> {
        match self {
            RunOutcome::Completed(r) => Some(r),
            RunOutcome::Cancelled(_) => None,
        }
    }

    /// The cancellation snapshot, if the run was cancelled mid-flight.
    pub fn cancelled_snapshot(self) -> Option<SimSnapshot> {
        match self {
            RunOutcome::Completed(_) => None,
            RunOutcome::Cancelled(s) => s,
        }
    }
}

/// The complete deterministic state of a run at a cut instant. Obtain
/// one from [`Simulator::snapshot`](crate::Simulator::snapshot), a
/// periodic [`RunHooks::checkpoint_sink`], or a cancellation; bring it
/// back to life with [`Simulator::restore`](crate::Simulator::restore).
#[derive(Clone)]
pub struct SimSnapshot {
    /// Digest of the behavior-relevant scenario configuration; restore
    /// refuses a snapshot whose digest mismatches the offered config.
    pub(crate) cfg_digest: u64,
    /// The cut instant.
    pub(crate) time: SimTime,
    /// Count of events ever scheduled by the cut.
    pub(crate) scheduled_total: u64,
    /// Application packets emitted by the cut.
    pub(crate) sent_packets: u64,
    /// `MetricsProbe` events scheduled by the cut (0 when metrics are
    /// off), so post-cut probe accounting continues identically.
    pub(crate) probes_scheduled: u64,
    /// The pending event population in canonical `(time, rank,
    /// insertion)` order.
    pub(crate) pending: Vec<(SimTime, u128, SimEvent)>,
    /// Per-node mobility models, advanced exactly to the cut.
    pub(crate) mobility: Vec<Mobility>,
    /// Per-node transmission-key counters.
    pub(crate) tx_key_ctr: Vec<u32>,
    /// Per-node cold-state blobs ([`Node::save_state`]
    /// (crate::node::Node) wire format), indexed by node.
    pub(crate) nodes: Vec<Vec<u8>>,
    /// Fault-layer state (`Some` iff the scenario has a fault plan).
    pub(crate) faults: Option<FaultSnap>,
    /// Metrics-layer state (`Some` iff the scenario enabled metrics).
    pub(crate) metrics: Option<MetricsSnap>,
}

impl SimSnapshot {
    /// The cut instant this snapshot captures.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Does this snapshot belong to `cfg` (same behavior-relevant
    /// configuration)? The display name is excluded.
    pub fn matches(&self, cfg: &ScenarioConfig) -> bool {
        self.cfg_digest == config_digest(cfg)
    }

    /// Serialize into the checksummed, versioned `pcmac-snap` envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.save_core(&mut w);
        self.metrics.save(&mut w);
        w.finish()
    }

    /// Parse an envelope produced by [`SimSnapshot::to_bytes`]. Returns
    /// a structured [`SnapError`] — never panics — on truncation, magic
    /// or version mismatch, checksum failure, or trailing garbage.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, SnapError> {
        let mut r = SnapReader::open(bytes)?;
        let snap = SimSnapshot {
            cfg_digest: r.u64()?,
            time: Snap::load(&mut r)?,
            scheduled_total: r.u64()?,
            sent_packets: r.u64()?,
            probes_scheduled: r.u64()?,
            pending: Snap::load(&mut r)?,
            mobility: Snap::load(&mut r)?,
            tx_key_ctr: Snap::load(&mut r)?,
            nodes: {
                let n = r.len_prefix()?;
                let mut nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    nodes.push(r.blob()?);
                }
                nodes
            },
            faults: Snap::load(&mut r)?,
            metrics: Snap::load(&mut r)?,
        };
        if !r.is_exhausted() {
            return Err(SnapError::Corrupt("trailing bytes after snapshot"));
        }
        Ok(snap)
    }

    /// A digest of the *behavioral* state: everything except the
    /// metrics section (whose diagnostic hot-path work counts
    /// legitimately differ between the production and the reference
    /// channel). Two runs of the same scenario are at the
    /// same behavioral state at a cut iff these match; the divergence
    /// bisector binary-searches over this. The config digest is
    /// excluded — it identifies the *scenario*, not the state — so two
    /// differently-configured runs that are supposed to be bit-identical
    /// can still be compared cut by cut.
    pub fn state_fingerprint(&self) -> u64 {
        let mut w = SnapWriter::new();
        self.save_core(&mut w);
        checksum64(&w.payload()[8..])
    }

    /// Everything except the metrics section, in wire order.
    fn save_core(&self, w: &mut SnapWriter) {
        w.u64(self.cfg_digest);
        self.time.save(w);
        w.u64(self.scheduled_total);
        w.u64(self.sent_packets);
        w.u64(self.probes_scheduled);
        self.pending.save(w);
        self.mobility.save(w);
        self.tx_key_ctr.save(w);
        // Node blobs go through the bulk-copy path: the generic
        // `Vec<Vec<u8>>` impl writes the same bytes one `u8` at a time,
        // which dominated checkpoint cost at N = 64k.
        w.u64(self.nodes.len() as u64);
        for blob in &self.nodes {
            w.blob(blob);
        }
        self.faults.save(w);
    }
}

/// Entries configs once carried, always hashed at one normalized value:
/// `(key, value, re-inserted before key)`, with `None` as JSON `null`.
/// Hashing them keeps every digest, and so every existing checkpoint
/// file, valid.
const LEGACY_DIGEST_ENTRIES: [(&str, Option<&str>, &str); 4] = [
    ("channel_index", Some("Grid"), "faults"),
    ("mobility_refresh", None, "faults"),
    ("gain_cache", None, "faults"),
    ("execution", None, "delay_floor_us"),
];

/// Digest of the behavior-relevant scenario configuration: the master
/// seed, duration, field, nodes, flows, radio/MAC/AODV parameters,
/// variant, interference floor, shadowing, fault plan, metrics config
/// and delay floor. The display name is normalized away. The digest
/// hashes the canonical JSON encoding, which is identical on every host.
pub(crate) fn config_digest(cfg: &ScenarioConfig) -> u64 {
    let mut c = cfg.clone();
    c.name = String::new();
    let mut v = serde::Serialize::to_value(&c);
    if let serde_json::Value::Map(entries) = &mut v {
        for (key, value, before) in LEGACY_DIGEST_ENTRIES {
            let at = entries
                .iter()
                .position(|(k, _)| k == before)
                .unwrap_or(entries.len());
            let value = value.map_or(serde_json::Value::Null, |s| {
                serde_json::Value::Str(s.into())
            });
            entries.insert(at, (key.into(), value));
        }
    }
    let json = serde_json::to_string(&v).expect("scenario config serializes");
    fnv1a64(json.as_bytes())
}

/// The first checkpoint grid instant strictly after `after`: grid points
/// are absolute multiples of the interval, so a resumed run and an
/// uninterrupted one checkpoint at identical simulated instants no
/// matter where they started.
pub(crate) fn next_grid_point(after: SimTime, every_ns: u64) -> SimTime {
    let e = every_ns.max(1);
    SimTime::from_nanos((after.as_nanos() / e + 1).saturating_mul(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_are_absolute() {
        let e = 1_000_000_000u64; // 1 s
        let g = |ns: u64| next_grid_point(SimTime::from_nanos(ns), e).as_nanos();
        assert_eq!(g(0), e);
        assert_eq!(g(1), e);
        assert_eq!(g(e - 1), e);
        assert_eq!(g(e), 2 * e); // strictly after
        assert_eq!(g(e + 1), 2 * e);
        assert_eq!(next_grid_point(SimTime::from_nanos(5), 0).as_nanos(), 6);
    }

    #[test]
    fn config_digests_match_existing_checkpoints() {
        // Digests of these configs as checkpoint files written before the
        // execution-strategy and channel-mode fields were removed record
        // them.
        use crate::{MetricsConfig, ScenarioConfig, Variant};
        let mut c = ScenarioConfig::paper(Variant::Pcmac, 500.0, 1);
        assert_eq!(config_digest(&c), 0x3d3b_6ad6_af4e_af6c);
        c.delay_floor_us = Some(10.0);
        c.metrics = Some(MetricsConfig::default());
        assert_eq!(config_digest(&c), 0xc455_b89a_71cc_097a);
        let mobile = ScenarioConfig::paper(Variant::Pcmac, 1000.0, 1);
        assert_eq!(config_digest(&mobile), 0xfbe8_2a3d_41c0_a44a);
        let fixed = ScenarioConfig::two_nodes(Variant::Pcmac, 100.0, 1000.0, 1);
        assert_eq!(config_digest(&fixed), 0x2c0a_231f_bcdd_5456);
    }

    #[test]
    fn cancel_token_round_trip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }
}
