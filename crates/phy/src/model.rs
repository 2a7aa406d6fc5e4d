//! Closed propagation-model enum and the static-scenario gain cache.
//!
//! The simulator's channel fan-out sits on the hottest path of every
//! run: one gain evaluation per (transmission, candidate receiver).
//! Dispatching that through `Box<dyn Propagation>` costs an indirect
//! call per evaluation and keeps the optimizer blind. [`PropagationModel`]
//! closes the set of models the simulator actually supports — plain
//! two-ray ground, or two-ray with log-normal shadowing — so gain
//! evaluation is a direct (inlineable) match instead of a vtable jump.
//! The [`Propagation`] trait stays for generic call-sites and tests.
//!
//! [`GainCache`] goes one step further for small fully static
//! scenarios: with positions frozen for the whole run, every pairwise
//! gain is computed once up front and each transmission reads a table
//! row. The cache stores the full N×N matrix (not just the upper
//! triangle) so it is also exact for the asymmetric-shadowing ablation,
//! where `G_sd ≠ G_ds` by design. The simulator uses it for static
//! fields of at most 2048 nodes, where N² memory stays small; every
//! other field, mobile or larger, evaluates gains live through the
//! batched [`PropagationModel::gains_into_indexed`].

use pcmac_engine::{Milliwatts, Point};

use crate::propagation::{Propagation, TwoRayGround};
use crate::shadowing::Shadowed;

/// The shadowing amplitude bound: the deterministic Irwin–Hall(12)−6
/// draw lies in `[-6, 6]`, so a link's shadowing never exceeds
/// `6 · sigma_db` decibels above the median channel.
const SHADOW_SIGMA_SPAN: f64 = 6.0;

/// Every propagation model the simulator can run, dispatched statically.
#[derive(Debug, Clone)]
pub enum PropagationModel {
    /// ns-2's two-ray ground model.
    TwoRay(TwoRayGround),
    /// Two-ray ground with deterministic log-normal shadowing.
    Shadowed(Shadowed<TwoRayGround>),
}

impl PropagationModel {
    /// Dimensionless gain between two positions.
    #[inline]
    pub fn gain(&self, a: Point, b: Point) -> f64 {
        match self {
            PropagationModel::TwoRay(m) => m.gain(a, b),
            PropagationModel::Shadowed(m) => m.gain(a, b),
        }
    }

    /// Median-channel radius where `p_tx` drops to `threshold`.
    #[inline]
    pub fn range_for(&self, p_tx: Milliwatts, threshold: Milliwatts) -> f64 {
        match self {
            PropagationModel::TwoRay(m) => m.range_for(p_tx, threshold),
            PropagationModel::Shadowed(m) => m.range_for(p_tx, threshold),
        }
    }

    /// Minimum transmit power reaching `threshold` at distance `d`.
    #[inline]
    pub fn power_for_range(&self, d: f64, threshold: Milliwatts) -> Milliwatts {
        match self {
            PropagationModel::TwoRay(m) => m.power_for_range(d, threshold),
            PropagationModel::Shadowed(m) => m.power_for_range(d, threshold),
        }
    }

    /// Batch-evaluate the gain from `tx` to every candidate position in
    /// one pass, replacing `out`'s contents. The variant match is hoisted
    /// out of the loop, so the inner iteration is a tight run over the
    /// model's precomputed per-link terms (the two-ray crossover
    /// constants, the shadowing base) with no per-candidate dispatch.
    /// Values are bit-identical to per-pair [`PropagationModel::gain`]
    /// calls — this is purely a memory-layout/dispatch optimization.
    pub fn gains_into(&self, tx: Point, candidates: &[Point], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(candidates.len());
        match self {
            PropagationModel::TwoRay(m) => {
                out.extend(candidates.iter().map(|&p| m.gain(tx, p)));
            }
            PropagationModel::Shadowed(m) => {
                out.extend(candidates.iter().map(|&p| m.gain(tx, p)));
            }
        }
    }

    /// [`PropagationModel::gains_into`] over an index list into a shared
    /// position array — the shape the simulator's candidate sets have
    /// (sorted node ids from the spatial index). Avoids gathering the
    /// candidate positions into a temporary.
    pub fn gains_into_indexed(
        &self,
        tx: Point,
        positions: &[Point],
        idx: &[u32],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(idx.len());
        match self {
            PropagationModel::TwoRay(m) => {
                out.extend(idx.iter().map(|&j| m.gain(tx, positions[j as usize])));
            }
            PropagationModel::Shadowed(m) => {
                out.extend(idx.iter().map(|&j| m.gain(tx, positions[j as usize])));
            }
        }
    }

    /// An upper bound on the radius where `p_tx` can still arrive at or
    /// above `threshold` under **any** realisation of this model — the
    /// spatial-index culling radius. For the two-ray model this is the
    /// exact range; under shadowing the bound inflates the median range
    /// by the maximum shadowing boost (`6σ` dB), because a constructive
    /// shadow can lift a link far beyond its median reach.
    pub fn max_range_for(&self, p_tx: Milliwatts, threshold: Milliwatts) -> f64 {
        match self {
            PropagationModel::TwoRay(m) => m.range_for(p_tx, threshold),
            PropagationModel::Shadowed(m) => {
                let boost = 10f64.powf(SHADOW_SIGMA_SPAN * m.sigma_db() / 10.0);
                let effective = Milliwatts(threshold.value() / boost);
                m.range_for(p_tx, effective)
            }
        }
    }
}

impl Propagation for PropagationModel {
    fn gain(&self, a: Point, b: Point) -> f64 {
        PropagationModel::gain(self, a, b)
    }

    fn range_for(&self, p_tx: Milliwatts, threshold: Milliwatts) -> f64 {
        PropagationModel::range_for(self, p_tx, threshold)
    }

    fn power_for_range(&self, d: f64, threshold: Milliwatts) -> Milliwatts {
        PropagationModel::power_for_range(self, d, threshold)
    }
}

/// Precomputed pairwise gains for a frozen set of positions.
///
/// `gain(i, j)` returns exactly what `model.gain(pos[i], pos[j])`
/// returns — bit-for-bit, since the table is filled by calling the
/// model — so swapping the cache into the channel changes nothing about
/// a run except its speed.
#[derive(Debug, Clone)]
pub struct GainCache {
    n: usize,
    gains: Vec<f64>,
}

impl GainCache {
    /// Evaluate `model` over all ordered pairs of `positions`, one
    /// batched [`PropagationModel::gains_into`] pass per table row (the
    /// diagonal is zeroed afterwards, exactly as the per-pair fill
    /// skipped it).
    pub fn build(model: &PropagationModel, positions: &[Point]) -> Self {
        let n = positions.len();
        let mut gains = Vec::with_capacity(n * n);
        let mut row = Vec::with_capacity(n);
        for &a in positions {
            model.gains_into(a, positions, &mut row);
            gains.extend_from_slice(&row);
        }
        for i in 0..n {
            gains[i * n + i] = 0.0;
        }
        GainCache { n, gains }
    }

    /// Number of tracked positions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when built over zero positions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Cached gain from node `i` to node `j`.
    #[inline]
    pub fn gain(&self, i: usize, j: usize) -> f64 {
        self.gains[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(120.0, 40.0),
            Point::new(600.0, 900.0),
            Point::new(333.0, 333.0),
            Point::new(333.5, 333.5),
        ]
    }

    #[test]
    fn cache_matches_two_ray_exactly() {
        let model = PropagationModel::TwoRay(TwoRayGround::ns2_default());
        let pts = positions();
        let cache = GainCache::build(&model, &pts);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                if i == j {
                    continue;
                }
                assert_eq!(
                    cache.gain(i, j),
                    model.gain(pts[i], pts[j]),
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn cache_matches_shadowed_exactly_even_asymmetric() {
        let model = PropagationModel::Shadowed(Shadowed::new(
            TwoRayGround::ns2_default(),
            8.0,
            false, // asymmetric: G_sd ≠ G_ds
            42,
        ));
        let pts = positions();
        let cache = GainCache::build(&model, &pts);
        let mut asymmetric_pairs = 0;
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                if i == j {
                    continue;
                }
                assert_eq!(cache.gain(i, j), model.gain(pts[i], pts[j]));
                if cache.gain(i, j) != cache.gain(j, i) {
                    asymmetric_pairs += 1;
                }
            }
        }
        assert!(
            asymmetric_pairs > 0,
            "asymmetric mode should break G_sd = G_ds"
        );
    }

    #[test]
    fn batched_gains_match_per_pair_calls_bitwise() {
        let pts = positions();
        let idx: Vec<u32> = (0..pts.len() as u32).collect();
        for model in [
            PropagationModel::TwoRay(TwoRayGround::ns2_default()),
            PropagationModel::Shadowed(Shadowed::new(TwoRayGround::ns2_default(), 6.0, false, 9)),
        ] {
            let tx = Point::new(250.0, 400.0);
            let mut batch = Vec::new();
            model.gains_into(tx, &pts, &mut batch);
            let mut indexed = Vec::new();
            model.gains_into_indexed(tx, &pts, &idx, &mut indexed);
            assert_eq!(batch.len(), pts.len());
            for (k, &p) in pts.iter().enumerate() {
                assert_eq!(batch[k].to_bits(), model.gain(tx, p).to_bits());
                assert_eq!(indexed[k].to_bits(), batch[k].to_bits());
            }
        }
    }

    #[test]
    fn static_dispatch_agrees_with_trait_dispatch() {
        let bare = TwoRayGround::ns2_default();
        let model = PropagationModel::TwoRay(bare.clone());
        let a = Point::new(10.0, 20.0);
        let b = Point::new(400.0, 80.0);
        assert_eq!(model.gain(a, b), bare.gain(a, b));
        let p = Milliwatts(281.83815);
        let th = Milliwatts(3.652e-7);
        assert_eq!(model.range_for(p, th), bare.range_for(p, th));
        assert_eq!(
            model.power_for_range(100.0, th).value(),
            bare.power_for_range(100.0, th).value()
        );
    }

    #[test]
    fn max_range_covers_any_shadow_boost() {
        let sigma = 6.0;
        let model =
            PropagationModel::Shadowed(Shadowed::new(TwoRayGround::ns2_default(), sigma, true, 7));
        let p = Milliwatts(281.83815);
        let floor = Milliwatts(1.559e-10);
        let r_max = model.max_range_for(p, floor);
        let r_median = model.range_for(p, floor);
        assert!(r_max > r_median, "shadowing must widen the culling radius");
        // Beyond r_max the strongest possible shadow still falls below
        // the floor: check on a dense distance sweep.
        for k in 0..100 {
            let d = r_max * (1.0 + k as f64 / 50.0) + 1.0;
            let boost = 10f64.powf(6.0 * sigma / 10.0);
            let best_gain = match &model {
                PropagationModel::Shadowed(m) => m.base().gain_at(d) * boost,
                _ => unreachable!(),
            };
            assert!(
                (p * best_gain.min(1.0)).value() <= floor.value() * (1.0 + 1e-9),
                "distance {d} could still beat the floor"
            );
        }
    }

    #[test]
    fn two_ray_max_range_equals_range() {
        let model = PropagationModel::TwoRay(TwoRayGround::ns2_default());
        let p = Milliwatts(75.8);
        let floor = Milliwatts(1.559e-10);
        assert_eq!(model.max_range_for(p, floor), model.range_for(p, floor));
    }
}
