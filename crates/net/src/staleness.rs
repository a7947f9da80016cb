//! Stale-coordinate drift: the gap between where a host *is* and where it
//! *says* it is.
//!
//! A deployed overlay never works with fresh coordinates — embeddings are
//! measured, cached, and gossiped, so a joining host advertises a position
//! that may have drifted from its current one. [`CoordDrift`] models this
//! as a seeded perturbation applied to a fraction of hosts: the protocol
//! under test routes on the *advertised* points while delays are charged
//! on the *true* points, which is exactly the mismatch that makes cell
//! assignments stale. Deterministic by seed so fault campaigns replay
//! bit-identically.

use omt_geom::Point;
use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};

/// A stale-coordinate model: each selected host's advertised coordinate is
/// its true coordinate plus a uniform per-axis offset in `[-drift, drift]`.
///
/// # Examples
///
/// ```
/// use omt_geom::Point2;
/// use omt_net::CoordDrift;
///
/// let truth = vec![Point2::new([0.5, 0.0]), Point2::new([0.0, -0.3])];
/// let model = CoordDrift { drift: 0.01, stale_fraction: 1.0 };
/// let advertised = model.apply(&truth, 7);
/// assert_eq!(advertised, model.apply(&truth, 7)); // same seed, same drift
/// for (a, t) in advertised.iter().zip(&truth) {
///     assert!(a.distance(t) <= 0.01 * 2f64.sqrt());
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoordDrift {
    /// Maximum per-axis offset of an advertised coordinate.
    pub drift: f64,
    /// Fraction of hosts (drawn per host) whose coordinate is stale.
    pub stale_fraction: f64,
}

impl CoordDrift {
    /// The identity model: every advertised coordinate is fresh.
    pub const fn none() -> Self {
        Self {
            drift: 0.0,
            stale_fraction: 0.0,
        }
    }

    /// Whether this model never perturbs anything.
    pub fn is_none(&self) -> bool {
        self.drift == 0.0 || self.stale_fraction == 0.0
    }

    /// The advertised coordinates for `truth` under this model, seeded.
    ///
    /// # Panics
    ///
    /// Panics if `drift` is negative or not finite, or `stale_fraction`
    /// is outside `[0, 1]`.
    pub fn apply<const D: usize>(&self, truth: &[Point<D>], seed: u64) -> Vec<Point<D>> {
        assert!(
            self.drift >= 0.0 && self.drift.is_finite(),
            "bad drift {}",
            self.drift
        );
        assert!(
            (0.0..=1.0).contains(&self.stale_fraction),
            "bad stale fraction {}",
            self.stale_fraction
        );
        if self.is_none() {
            return truth.to_vec();
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5741_4c45_u64);
        truth
            .iter()
            .map(|p| {
                if !rng.random_bool(self.stale_fraction) {
                    return *p;
                }
                let mut coords = [0.0; D];
                for (c, t) in coords.iter_mut().zip(p.as_slice()) {
                    *c = t + rng.random_range(-self.drift..=self.drift);
                }
                Point::new(coords)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::Point2;

    fn truth() -> Vec<Point2> {
        (0..200)
            .map(|i| {
                let a = i as f64 * 0.41;
                Point2::new([a.cos() * 0.8, a.sin() * 0.8])
            })
            .collect()
    }

    #[test]
    fn none_is_identity() {
        let t = truth();
        assert_eq!(CoordDrift::none().apply(&t, 3), t);
        assert!(CoordDrift::none().is_none());
        assert!(CoordDrift {
            drift: 0.5,
            stale_fraction: 0.0
        }
        .is_none());
    }

    #[test]
    fn deterministic_per_seed_and_bounded() {
        let t = truth();
        let m = CoordDrift {
            drift: 0.05,
            stale_fraction: 1.0,
        };
        let a = m.apply(&t, 42);
        assert_eq!(a, m.apply(&t, 42));
        assert_ne!(a, m.apply(&t, 43));
        let max = t
            .iter()
            .zip(&a)
            .map(|(t, a)| t.distance(a))
            .fold(0.0, f64::max);
        assert!(max > 0.0 && max <= 0.05 * 2f64.sqrt() + 1e-12);
    }

    #[test]
    fn fraction_selects_roughly_that_many() {
        let t = truth();
        let m = CoordDrift {
            drift: 0.1,
            stale_fraction: 0.5,
        };
        let a = m.apply(&t, 9);
        let moved = t.iter().zip(&a).filter(|(x, y)| x != y).count();
        assert!(
            (60..=140).contains(&moved),
            "expected ~100 of 200 stale, got {moved}"
        );
    }

    #[test]
    #[should_panic(expected = "bad drift")]
    fn rejects_negative_drift() {
        let _ = CoordDrift {
            drift: -1.0,
            stale_fraction: 1.0,
        }
        .apply::<2>(&[], 0);
    }
}
