//! The divergence bisector: given two scenarios that are *supposed* to
//! be bit-identical but produce different results, localize the first
//! divergent event instead of staring at two multi-megabyte reports.
//!
//! The procedure leans on two checkpoint/restore guarantees:
//!
//! 1. periodic checkpoints land on an **absolute grid** of simulated
//!    instants, so both runs cut at exactly the same times, and
//! 2. [`SimSnapshot::state_fingerprint`] digests the complete
//!    behavioral state at a cut (excluding the config digest and the
//!    diagnostic metrics counters), so two runs are behaviorally equal
//!    at a cut iff their fingerprints match.
//!
//! Both runs execute once with checkpointing on, giving a fingerprint
//! per grid cut. The divergence is bracketed by the last cut where the
//! fingerprints agree (binary-searching the cut array; fingerprints are
//! equal on a prefix and differ on the suffix, because a deterministic
//! simulation cannot re-converge after its state has split). Both runs
//! are then **restored from that common cut** and replayed with an
//! event observer, and the first position where the dispatched event
//! streams differ — in time, rank, or content — is the answer: the
//! exact simulated instant, event class, and node where the two
//! executions part ways.

use pcmac::{RunHooks, RunOutcome, ScenarioConfig, SimEvent, SimSnapshot, Simulator};
use pcmac_engine::{Duration, SimTime};

/// Human name of a rank class (the event taxonomy, in rank order).
fn class_name(class: u32) -> &'static str {
    match class {
        0 => "ArrivalEnd",
        1 => "CtrlArrivalEnd",
        2 => "TxEnd",
        3 => "CtrlTxEnd",
        4 => "ArrivalStart",
        5 => "CtrlArrivalStart",
        6 => "MacTimer",
        7 => "AodvTimer",
        8 => "TrafficEmit",
        9 => "NodeDown",
        10 => "NodeUp",
        11 => "ImpairmentStart",
        12 => "ImpairmentEnd",
        13 => "MetricsProbe",
        _ => "Unknown",
    }
}

/// The first point where two event streams part ways.
#[derive(Debug, Clone)]
pub struct EventDivergence {
    /// Simulated instant of the divergent dispatch.
    pub at: SimTime,
    /// Full `(class, node, discriminator)` ordering key of the
    /// divergent event (the side that dispatches first).
    pub rank: u128,
    /// Event class, by name.
    pub class: &'static str,
    /// The node the divergent event addresses, when it addresses one.
    pub node: Option<u32>,
    /// Dispatch position, counted from the replay start.
    pub index: usize,
    /// What run A dispatched at that position (`None`: A's stream ended).
    pub a: Option<String>,
    /// What run B dispatched at that position (`None`: B's stream ended).
    pub b: Option<String>,
}

/// What [`bisect_configs`] found.
#[derive(Debug, Clone)]
pub struct BisectReport {
    /// The checkpoint grid interval used.
    pub interval: Duration,
    /// Grid cuts compared (both runs cut at the same instants).
    pub cuts_compared: usize,
    /// The last grid cut where both runs had identical behavioral
    /// state; `None` when they already differ at the first cut (a
    /// config-induced divergence, present from the start).
    pub last_common_cut: Option<SimTime>,
    /// The first grid cut where the state fingerprints differ; `None`
    /// when every compared cut agreed.
    pub first_divergent_cut: Option<SimTime>,
    /// The first divergent dispatched event in the replay window;
    /// `None` when the streams never diverged.
    pub divergence: Option<EventDivergence>,
    /// The two runs are bit-identical: every cut fingerprint and the
    /// entire replayed event stream agreed.
    pub identical: bool,
}

impl BisectReport {
    /// Human-readable triage summary, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.identical {
            out.push_str(&format!(
                "identical: {} grid cuts and the full event stream agree\n",
                self.cuts_compared
            ));
            return out;
        }
        out.push_str(&format!(
            "compared {} grid cuts every {:.3} s\n",
            self.cuts_compared,
            self.interval.as_nanos() as f64 / 1e9
        ));
        match self.last_common_cut {
            Some(t) => out.push_str(&format!(
                "last common state     t = {:.6} s\n",
                t.as_nanos() as f64 / 1e9
            )),
            None => out.push_str("runs differ from the very first cut (config-induced)\n"),
        }
        if let Some(t) = self.first_divergent_cut {
            out.push_str(&format!(
                "first divergent state t = {:.6} s\n",
                t.as_nanos() as f64 / 1e9
            ));
        }
        match &self.divergence {
            Some(d) => {
                out.push_str(&format!(
                    "first divergent event t = {:.9} s  class {}  node {}  rank {:#034x}  \
                     (dispatch #{} after the replay start)\n",
                    d.at.as_nanos() as f64 / 1e9,
                    d.class,
                    d.node.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
                    d.rank,
                    d.index
                ));
                out.push_str(&format!(
                    "  A: {}\n  B: {}\n",
                    d.a.as_deref().unwrap_or("<stream ended>"),
                    d.b.as_deref().unwrap_or("<stream ended>")
                ));
            }
            None => out.push_str(
                "event streams agree; the state difference is in event *content* \
                 carried forward silently — inspect the divergent cut's snapshot\n",
            ),
        }
        out
    }
}

/// One run's grid fingerprints plus the snapshots behind them.
fn grid_snapshots(cfg: &ScenarioConfig, interval: Duration) -> Vec<SimSnapshot> {
    let sink = std::sync::Mutex::new(Vec::new());
    let push = |s: SimSnapshot| sink.lock().unwrap().push(s);
    let outcome = Simulator::new(cfg.clone()).run_with_hooks(RunHooks {
        cancel: None,
        checkpoint_every: Some(interval),
        checkpoint_sink: Some(&push),
    });
    match outcome {
        RunOutcome::Completed(_) => {}
        RunOutcome::Cancelled(_) => unreachable!("no cancel token was supplied"),
    }
    sink.into_inner().unwrap()
}

/// Replay `cfg` from `from` (or from scratch), recording every
/// dispatched event as `(time, rank, debug)`.
fn replay(cfg: &ScenarioConfig, from: Option<&SimSnapshot>) -> Vec<(SimTime, u128, String)> {
    let sim = match from {
        Some(snap) => Simulator::restore(cfg.clone(), snap)
            .expect("replaying a snapshot this very run captured"),
        None => Simulator::new(cfg.clone()),
    };
    let mut events = Vec::new();
    sim.run_with_observer(|ev: &SimEvent, at| {
        events.push((at, ev.rank(), format!("{ev:?}")));
    });
    events
}

/// Localize the first divergence between two scenarios that should be
/// bit-identical.
pub fn bisect_configs(
    cfg_a: ScenarioConfig,
    cfg_b: ScenarioConfig,
    interval: Duration,
) -> BisectReport {
    let snaps_a = grid_snapshots(&cfg_a, interval);
    let snaps_b = grid_snapshots(&cfg_b, interval);
    let cuts = snaps_a.len().min(snaps_b.len());

    // Binary search for the state split. Fingerprints agree on a prefix
    // and disagree on the suffix — a deterministic run cannot
    // re-converge once its state differs — so the first disagreeing cut
    // is a monotone boundary.
    let agrees = |i: usize| -> bool {
        snaps_a[i].state_fingerprint() == snaps_b[i].state_fingerprint()
            && snaps_a[i].time() == snaps_b[i].time()
    };
    let first_bad = if cuts == 0 || agrees(cuts - 1) {
        cuts // every compared cut agrees
    } else if !agrees(0) {
        0
    } else {
        // Invariant: agrees(lo), !agrees(hi).
        let (mut lo, mut hi) = (0usize, cuts - 1);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if agrees(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    };

    // The replay window starts at the last behaviorally-common cut:
    // when every cut agrees the split (if any) is past the final cut;
    // when even the first cut disagrees the runs must replay from
    // scratch (a config-induced divergence, live from t = 0).
    let last_common: Option<usize> = if cuts == 0 {
        None
    } else if first_bad == cuts {
        Some(cuts - 1)
    } else {
        first_bad.checked_sub(1)
    };

    let events_a = replay(&cfg_a, last_common.map(|i| &snaps_a[i]));
    let events_b = replay(&cfg_b, last_common.map(|i| &snaps_b[i]));

    let mut divergence = None;
    let n = events_a.len().max(events_b.len());
    for i in 0..n {
        let a = events_a.get(i);
        let b = events_b.get(i);
        if a != b {
            // Report the side that dispatches first (smaller key), so
            // the answer names the event that *introduced* the split.
            let lead = match (a, b) {
                (Some(x), Some(y)) => {
                    if (y.0, y.1) < (x.0, x.1) {
                        y
                    } else {
                        x
                    }
                }
                (one, other) => one
                    .or(other)
                    .expect("one side has an event at a divergent index"),
            };
            divergence = Some(EventDivergence {
                at: lead.0,
                rank: lead.1,
                class: class_name((lead.1 >> 96) as u32),
                node: Some(((lead.1 >> 64) & 0xFFFF_FFFF) as u32).filter(|_| (lead.1 >> 96) < 11),
                index: i,
                a: a.map(|e| e.2.clone()),
                b: b.map(|e| e.2.clone()),
            });
            break;
        }
    }

    let identical = first_bad == cuts && divergence.is_none();
    BisectReport {
        interval,
        cuts_compared: cuts,
        last_common_cut: last_common.map(|i| snaps_a[i].time()),
        first_divergent_cut: (first_bad < cuts).then(|| snaps_a[first_bad].time()),
        divergence,
        identical,
    }
}
