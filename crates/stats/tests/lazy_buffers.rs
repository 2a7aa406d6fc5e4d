//! Lazily allocated bucket banks ≡ always-allocated ones.
//!
//! [`Histogram`] and [`StreamingQuantile`] allocate their bucket arrays
//! on the first sample that lands in one; an empty array stands for all
//! zeros. These properties replay random record/merge/reset sequences
//! on the lazy types and on dense reference models that always hold
//! every bucket, and require identical totals, quantiles and snapshot
//! bytes, including merges between empty and non-empty summaries and
//! samples outside the bucket range.

use pcmac_snap::{Snap, SnapReader, SnapWriter};
use pcmac_stats::quantile::EXACT_CAP;
use pcmac_stats::{Histogram, StreamingQuantile};
use proptest::prelude::*;

const WIDTH: f64 = 2.0;
const BUCKETS: usize = 16;
const QS: [f64; 6] = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];

/// The histogram with its bucket array always allocated.
#[derive(Clone)]
struct DenseHistogram {
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl DenseHistogram {
    fn new() -> Self {
        DenseHistogram {
            counts: vec![0; BUCKETS],
            overflow: 0,
            total: 0,
        }
    }

    fn record(&mut self, x: f64) {
        self.total += 1;
        match self.counts.get_mut((x.max(0.0) / WIDTH) as usize) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
    }

    fn merge(&mut self, other: &DenseHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((i + 1) as f64 * WIDTH);
            }
        }
        Some(f64::INFINITY)
    }

    /// The sparse snapshot encoding: geometry, totals, non-zero buckets.
    fn bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.f64(WIDTH);
        w.u64(BUCKETS as u64);
        w.u64(self.overflow);
        w.u64(self.total);
        w.u64(self.counts.iter().filter(|&&c| c != 0).count() as u64);
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                w.u32(i as u32);
                w.u64(c);
            }
        }
        w.finish()
    }
}

const MIN_EXP: i32 = -20;
const MAX_EXP: i32 = 10;
const Q_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// The streaming summary with its power-of-two buckets always
/// allocated, snapshotting them as a plain `Vec<u64>`.
#[derive(Clone)]
struct DenseQuantile {
    exact: Vec<f64>,
    count: u64,
    sum_ns: u64,
    max_s: f64,
    buckets: Vec<u64>,
}

impl DenseQuantile {
    fn new() -> Self {
        DenseQuantile {
            exact: Vec::new(),
            count: 0,
            sum_ns: 0,
            max_s: 0.0,
            buckets: vec![0; Q_BUCKETS],
        }
    }

    fn bucket_of(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        (exp.clamp(MIN_EXP, MAX_EXP) - MIN_EXP) as usize
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum_ns = self
            .sum_ns
            .saturating_add((v.max(0.0) * 1e9).round() as u64);
        if v > self.max_s {
            self.max_s = v;
        }
        self.buckets[Self::bucket_of(v)] += 1;
        if self.exact.len() < EXACT_CAP {
            self.exact.push(v);
        }
    }

    fn merge(&mut self, other: &DenseQuantile) {
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        if other.max_s > self.max_s {
            self.max_s = other.max_s;
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        let room = EXACT_CAP.saturating_sub(self.exact.len());
        self.exact
            .extend_from_slice(&other.exact[..other.exact.len().min(room)]);
    }

    fn quantile_s(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let k = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= k {
                return 2f64.powi(MIN_EXP + b as i32 + 1).min(self.max_s);
            }
        }
        self.max_s
    }

    fn bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.exact.save(&mut w);
        self.count.save(&mut w);
        self.sum_ns.save(&mut w);
        self.max_s.save(&mut w);
        self.buckets.save(&mut w);
        w.finish()
    }
}

fn bytes_of<T: Snap>(v: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    v.save(&mut w);
    w.finish()
}

fn reload<T: Snap>(bytes: &[u8]) -> T {
    T::load(&mut SnapReader::open(bytes).expect("envelope")).expect("snapshot loads")
}

/// One step on a pool of three summaries: `(kind, target, source, x)`.
/// Kinds 0–5 record into `target`, 6–8 merge `source` into `target`
/// (an empty side is common: a target or source untouched so far, or
/// just reset), 9 resets `target` to an empty summary.
type Op = (u8, usize, usize, f64);

/// Samples in `[-10, 48)`: negatives clamp into the first histogram
/// bucket and everything from 32 up overflows its 16 × 2 range.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..10, 0usize..3, 0usize..3, -10.0f64..48.0), 0..60)
}

/// A latency for the streaming summary: kind 0 is negative, kind 1 zero,
/// and kinds 2–5 scale `|x|` by 2⁻²⁵, 2⁻¹⁵, 2⁻⁵ and 2⁵, so the samples
/// reach both clamped end buckets (below 2⁻²⁰ s and from 2¹¹ s up).
fn latency(kind: u8, x: f64) -> f64 {
    match kind {
        0 => -x.abs(),
        1 => 0.0,
        _ => x.abs() * 2f64.powi(kind as i32 * 10 - 45),
    }
}

proptest! {
    #[test]
    fn lazy_histogram_matches_dense(ops in ops()) {
        let mut lazy = vec![Histogram::new(WIDTH, BUCKETS); 3];
        let mut dense = vec![DenseHistogram::new(); 3];
        for (kind, t, s, x) in ops {
            match kind {
                0..=5 => {
                    lazy[t].record(x);
                    dense[t].record(x);
                }
                6..=8 => {
                    let (l, d) = (lazy[s].clone(), dense[s].clone());
                    lazy[t].merge(&l);
                    dense[t].merge(&d);
                }
                _ => {
                    lazy[t] = Histogram::new(WIDTH, BUCKETS);
                    dense[t] = DenseHistogram::new();
                }
            }
        }
        for (l, d) in lazy.iter().zip(&dense) {
            prop_assert_eq!(l.total(), d.total);
            prop_assert_eq!(l.overflow(), d.overflow);
            for q in QS {
                prop_assert_eq!(l.quantile(q), d.quantile(q));
            }
            let bytes = bytes_of(l);
            prop_assert_eq!(&bytes, &d.bytes());
            let back: Histogram = reload(&bytes);
            prop_assert_eq!(bytes_of(&back), bytes);
            prop_assert_eq!(back.buffer_capacity() == 0, d.counts.iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn lazy_streaming_quantile_matches_dense(ops in ops()) {
        let mut lazy = vec![StreamingQuantile::new(); 3];
        let mut dense = vec![DenseQuantile::new(); 3];
        for (kind, t, s, x) in ops {
            match kind {
                0..=5 => {
                    let v = latency(kind, x);
                    lazy[t].record(v);
                    dense[t].record(v);
                }
                6..=8 => {
                    let (l, d) = (lazy[s].clone(), dense[s].clone());
                    lazy[t].merge(&l);
                    dense[t].merge(&d);
                }
                _ => {
                    lazy[t] = StreamingQuantile::new();
                    dense[t] = DenseQuantile::new();
                }
            }
        }
        for (l, d) in lazy.iter().zip(&dense) {
            prop_assert_eq!(l.count(), d.count);
            prop_assert_eq!(l.max_s().to_bits(), d.max_s.to_bits());
            prop_assert_eq!(l.exact_samples(), &d.exact[..]);
            for q in QS {
                prop_assert_eq!(l.quantile_s(q).to_bits(), d.quantile_s(q).to_bits());
            }
            let bytes = bytes_of(l);
            prop_assert_eq!(&bytes, &d.bytes());
            let back: StreamingQuantile = reload(&bytes);
            prop_assert_eq!(bytes_of(&back), bytes);
            prop_assert_eq!(back.buffer_capacity() == 0, d.count == 0);
        }
    }
}

#[test]
fn empty_summaries_hold_no_buffer_and_round_trip() {
    let h = Histogram::new(10.0, 1000);
    assert_eq!(h.buffer_capacity(), 0);
    let bytes = bytes_of(&h);
    let back: Histogram = reload(&bytes);
    assert_eq!(back.buffer_capacity(), 0);
    assert_eq!(bytes_of(&back), bytes);

    // Samples that all overflow never allocate the bucket array.
    let mut over = Histogram::new(10.0, 1000);
    over.record(1e9);
    over.record(f64::INFINITY);
    assert_eq!(over.buffer_capacity(), 0);
    assert_eq!(over.quantile(0.5), Some(f64::INFINITY));
    let bytes = bytes_of(&over);
    let back: Histogram = reload(&bytes);
    assert_eq!((back.buffer_capacity(), back.total()), (0, 2));
    assert_eq!(bytes_of(&back), bytes);

    let q = StreamingQuantile::new();
    assert_eq!(q.buffer_capacity(), 0);
    let bytes = bytes_of(&q);
    assert_eq!(bytes, DenseQuantile::new().bytes());
    let back: StreamingQuantile = reload(&bytes);
    assert_eq!(back.buffer_capacity(), 0);
    assert_eq!(bytes_of(&back), bytes);
}
