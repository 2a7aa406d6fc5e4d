//! Shared plumbing for the channel and mobility benches.
//!
//! Both benches sell the same methodology — rows comparable across N —
//! and it lives here precisely so the two cannot drift apart:
//!
//! * **Constant node density**: fields grow as `sqrt(N) ·` [`PITCH_M`]
//!   (one node per 250 m × 250 m, 16 nodes/km²), recorded per row via
//!   [`density_per_km2`].
//! * **Single-hop workload**: flows run from a random source to its
//!   nearest neighbour ([`nearest_neighbour_flows`]), so AODV route
//!   length never varies with N and timing differences isolate the
//!   channel.
//! * **Quick mode**: `PCMAC_BENCH_QUICK=1` ([`quick_mode`]) is the CI
//!   perf-smoke switch — reduced sizes, tolerance-band assertions, and
//!   no rewrite of the checked-in `BENCH_*.json`.

use pcmac::{FlowShape, FlowSpec};
use pcmac_engine::{Duration, FlowId, NodeId, Point, RngStream, SimTime};

/// Field pitch per node: one node per `PITCH_M` × `PITCH_M` square.
pub const PITCH_M: f64 = 250.0;

/// `true` when `PCMAC_BENCH_QUICK` selects the CI perf-smoke mode.
pub fn quick_mode() -> bool {
    std::env::var_os("PCMAC_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Cores the OS exposes to this process, recorded in the artifacts.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Field side for a node count at constant density.
pub fn field_side(n: usize) -> f64 {
    (n as f64).sqrt() * PITCH_M
}

/// Nodes per square kilometre (constant by construction; recorded so
/// result rows are self-describing).
pub fn density_per_km2(n: usize) -> f64 {
    let side_km = field_side(n) / 1000.0;
    n as f64 / (side_km * side_km)
}

/// Peak resident set size of the calling process in kilobytes —
/// `VmHWM` from `/proc/self/status`. `None` where procfs is absent.
///
/// `VmHWM` is a high-water mark: it never decreases within a process,
/// so a harness that wants *per-row* peaks must run each row in a
/// fresh child process and read the child's value at exit.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `n` positions scattered uniformly over a `side` × `side` field from
/// a labelled RNG stream.
pub fn scatter(seed: u64, label: &str, n: usize, side: f64) -> Vec<Point> {
    let mut rng = RngStream::derive(seed, label);
    (0..n)
        .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
        .collect()
}

/// `count` CBR flows, each from a random source to its *nearest
/// neighbour* — single-hop traffic whose route length cannot vary with
/// N. Flow `i` starts at `stagger_ms.0 + i · stagger_ms.1`.
pub fn nearest_neighbour_flows(
    seed: u64,
    label: &str,
    pts: &[Point],
    count: u32,
    rate_bps: f64,
    stagger_ms: (u64, u64),
    duration: Duration,
) -> Vec<FlowSpec> {
    let (start_ms, step_ms) = stagger_ms;
    let n = pts.len();
    let nearest = |src: usize| -> u32 {
        (0..n)
            .filter(|&j| j != src)
            .min_by(|&a, &b| {
                pts[src]
                    .distance_sq(pts[a])
                    .total_cmp(&pts[src].distance_sq(pts[b]))
            })
            .expect("n >= 2") as u32
    };
    let mut rng = RngStream::derive(seed, label);
    (0..count)
        .map(|i| {
            let src = rng.below(n as u64) as u32;
            FlowSpec {
                flow: FlowId(i),
                src: NodeId(src),
                dst: NodeId(nearest(src as usize)),
                bytes: 512,
                rate_bps,
                start: SimTime::ZERO + Duration::from_millis(start_ms + step_ms * i as u64),
                stop: SimTime::ZERO + duration,
                shape: FlowShape::Cbr,
            }
        })
        .collect()
}
