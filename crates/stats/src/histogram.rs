//! Fixed-width bucket histograms with percentile queries.

/// A histogram over `[0, width × buckets)` with an overflow bucket.
///
/// The bucket array is allocated by the first in-range sample: until
/// then `counts` is empty and stands for `buckets` zeros. Most per-node
/// histograms (a sink's delay distribution on a node that terminates no
/// flow) never see a sample, so they cost no heap at all.
#[derive(Debug, Clone)]
pub struct Histogram {
    width: f64,
    buckets: usize,
    /// Empty (all zeros) or exactly `buckets` long.
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `buckets` buckets of `width` each.
    pub fn new(width: f64, buckets: usize) -> Self {
        assert!(width > 0.0 && buckets > 0);
        Histogram {
            width,
            buckets,
            counts: Vec::new(),
            overflow: 0,
            total: 0,
        }
    }

    /// Record one sample (negatives clamp into the first bucket).
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        let idx = (x.max(0.0) / self.width) as usize;
        if idx < self.buckets {
            if self.counts.is_empty() {
                self.counts = vec![0; self.buckets];
            }
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Upper edge of the bucket containing the `q`-quantile (0 ≤ q ≤ 1),
    /// or `None` when empty. Overflowed quantiles report `infinity`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((i + 1) as f64 * self.width);
            }
        }
        Some(f64::INFINITY)
    }

    /// Count in the overflow bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Buckets the heap buffer holds: 0 until the first in-range sample.
    pub fn buffer_capacity(&self) -> usize {
        self.counts.capacity()
    }

    /// Merge another histogram with identical geometry (bucket width and
    /// count) into this one.
    ///
    /// # Panics
    /// If the geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "bucket width mismatch");
        assert_eq!(self.buckets, other.buckets, "bucket count mismatch");
        if self.counts.is_empty() {
            self.counts.clone_from(&other.counts);
        } else {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }
}

mod snap {
    use super::Histogram;
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    /// Histograms snapshot **sparsely**: geometry and totals, then only
    /// the non-zero buckets as strictly-ascending `(index, count)`
    /// pairs. A sink's delay histogram is almost entirely zeros (most
    /// nodes terminate no flows at all), and the dense encoding made
    /// every node's blob pay ~8 KB for 1000 empty buckets — at
    /// N = 64000 that alone put half a gigabyte into each periodic
    /// checkpoint. The ascending-index rule keeps the stream canonical:
    /// equal histograms serialize to equal bytes, and any other
    /// ordering is rejected as corrupt.
    impl Snap for Histogram {
        fn save(&self, w: &mut SnapWriter) {
            w.f64(self.width);
            w.u64(self.buckets as u64);
            w.u64(self.overflow);
            w.u64(self.total);
            let nz = self.counts.iter().filter(|&&c| c != 0).count() as u64;
            w.u64(nz);
            for (i, &c) in self.counts.iter().enumerate() {
                if c != 0 {
                    w.u32(i as u32);
                    w.u64(c);
                }
            }
        }

        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            let width = r.f64()?;
            let buckets = r.u64()?;
            // `partial_cmp` so NaN widths (None) are rejected too.
            let width_ok = width.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
            if !width_ok || buckets == 0 || buckets > (1 << 24) {
                return Err(SnapError::Corrupt("histogram geometry"));
            }
            let overflow = r.u64()?;
            let total = r.u64()?;
            let nz = r.len_prefix()?;
            let mut counts = if nz > 0 {
                vec![0u64; buckets as usize]
            } else {
                Vec::new()
            };
            let mut in_buckets: u64 = 0;
            let mut prev: Option<u32> = None;
            for _ in 0..nz {
                let i = r.u32()?;
                let c = r.u64()?;
                if prev.is_some_and(|p| p >= i) {
                    return Err(SnapError::Corrupt("histogram buckets not ascending"));
                }
                if u64::from(i) >= buckets || c == 0 {
                    return Err(SnapError::Corrupt("histogram bucket"));
                }
                counts[i as usize] = c;
                in_buckets = in_buckets
                    .checked_add(c)
                    .ok_or(SnapError::Corrupt("histogram counts overflow"))?;
                prev = Some(i);
            }
            if in_buckets.checked_add(overflow) != Some(total) {
                return Err(SnapError::Corrupt("histogram totals disagree"));
            }
            Ok(Histogram {
                width,
                buckets: buckets as usize,
                counts,
                overflow,
                total,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.95), Some(95.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn overflow_reports_infinity() {
        let mut h = Histogram::new(1.0, 10);
        h.record(5.0);
        h.record(1e9);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(h.quantile(0.25), Some(6.0));
    }

    #[test]
    fn empty_has_no_quantiles() {
        let h = Histogram::new(1.0, 10);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn negatives_clamp_to_first_bucket() {
        let mut h = Histogram::new(2.0, 4);
        h.record(-5.0);
        assert_eq!(h.quantile(1.0), Some(2.0));
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = Histogram::new(1.0, 50);
        let mut b = Histogram::new(1.0, 50);
        let mut whole = Histogram::new(1.0, 50);
        for i in 0..40 {
            let x = (i * 7 % 45) as f64;
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        for q in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_different_geometry() {
        let mut a = Histogram::new(1.0, 10);
        let b = Histogram::new(2.0, 10);
        a.merge(&b);
    }

    #[test]
    fn sparse_snapshot_round_trips_and_stays_small() {
        use pcmac_snap::{Snap, SnapReader, SnapWriter};
        let mut h = Histogram::new(10.0, 1000);
        h.record(5.0);
        h.record(5.0);
        h.record(4321.0);
        h.record(1e12); // overflow
        let mut w = SnapWriter::new();
        h.save(&mut w);
        // Geometry + totals + 2 sparse (index, count) pairs — nowhere
        // near the 8 KB a dense 1000-bucket dump would cost.
        assert!(w.len() < 100, "sparse encoding stayed small: {}", w.len());
        let bytes = w.finish();
        let back = Histogram::load(&mut SnapReader::open(&bytes).unwrap()).unwrap();
        assert_eq!(back.total(), h.total());
        assert_eq!(back.overflow(), h.overflow());
        for q in [0.1, 0.5, 0.75, 1.0] {
            assert_eq!(back.quantile(q), h.quantile(q));
        }
    }

    #[test]
    fn snapshot_rejects_inconsistent_buckets() {
        use pcmac_snap::{Snap, SnapReader, SnapWriter};
        // Hand-craft a stream whose sparse pairs are out of order.
        let mut w = SnapWriter::new();
        w.f64(1.0); // width
        w.u64(10); // buckets
        w.u64(0); // overflow
        w.u64(3); // total
        w.u64(2); // two pairs, descending indices
        w.u32(5);
        w.u64(2);
        w.u32(1);
        w.u64(1);
        let bytes = w.finish();
        assert!(Histogram::load(&mut SnapReader::open(&bytes).unwrap()).is_err());

        // Totals that do not add up are corrupt, not silently accepted.
        let mut w = SnapWriter::new();
        w.f64(1.0);
        w.u64(10);
        w.u64(0);
        w.u64(99); // claimed total
        w.u64(1);
        w.u32(3);
        w.u64(2); // only 2 samples present
        let bytes = w.finish();
        assert!(Histogram::load(&mut SnapReader::open(&bytes).unwrap()).is_err());
    }
}
