//! Polar and spherical coordinates.
//!
//! The paper's grid and bisection algorithms are most naturally expressed in
//! polar coordinates: a 2-D point becomes `(radius, angle)` and a 3-D point
//! becomes `(radius, azimuth, cos_polar)`. This module provides those
//! representations plus the small angle arithmetic the algorithms need
//! (normalization, arc containment, arc length).

use core::f64::consts::TAU;

use crate::point::{Point2, Point3};

/// Normalizes an angle into `[0, 2π)`.
///
/// ```
/// use omt_geom::polar::normalize_angle;
/// use core::f64::consts::{PI, TAU};
///
/// assert!((normalize_angle(-PI) - PI).abs() < 1e-12);
/// assert_eq!(normalize_angle(0.0), 0.0);
/// assert!(normalize_angle(TAU) < 1e-12);
/// ```
#[inline]
pub fn normalize_angle(theta: f64) -> f64 {
    let r = theta.rem_euclid(TAU);
    // rem_euclid can return TAU itself when theta is a tiny negative number,
    // due to rounding; fold that back to 0.
    if r >= TAU {
        0.0
    } else {
        r
    }
}

/// A point in polar coordinates: non-negative radius and angle in `[0, 2π)`.
///
/// # Examples
///
/// ```
/// use omt_geom::{Point2, PolarPoint};
///
/// let p = PolarPoint::from_cartesian(&Point2::new([0.0, 2.0]));
/// assert!((p.radius - 2.0).abs() < 1e-12);
/// assert!((p.angle - core::f64::consts::FRAC_PI_2).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct PolarPoint {
    /// Distance from the pole (origin).
    pub radius: f64,
    /// Counter-clockwise angle from the positive x axis, in `[0, 2π)`.
    pub angle: f64,
}

impl PolarPoint {
    /// Creates a polar point, normalizing the angle into `[0, 2π)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `radius` is negative or not finite.
    #[inline]
    pub fn new(radius: f64, angle: f64) -> Self {
        debug_assert!(radius >= 0.0 && radius.is_finite(), "bad radius {radius}");
        Self {
            radius,
            angle: normalize_angle(angle),
        }
    }

    /// Converts a Cartesian point (relative to the pole at the origin).
    #[inline]
    pub fn from_cartesian(p: &Point2) -> Self {
        Self {
            radius: p.norm(),
            angle: p.angle(),
        }
    }

    /// Converts back to Cartesian coordinates.
    #[inline]
    pub fn to_cartesian(self) -> Point2 {
        Point2::new([
            self.radius * self.angle.cos(),
            self.radius * self.angle.sin(),
        ])
    }
}

/// A point in spherical coordinates adapted for equal-volume grids:
/// radius, azimuth `θ ∈ [0, 2π)`, and `z = cos(polar angle) ∈ [-1, 1]`.
///
/// Using `cos` of the polar angle instead of the angle itself makes the
/// volume of a coordinate box separable (Archimedes), which is what the 3-D
/// polar grid construction needs.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct SphericalPoint {
    /// Distance from the pole (origin).
    pub radius: f64,
    /// Azimuthal angle in the xy-plane, in `[0, 2π)`.
    pub azimuth: f64,
    /// Cosine of the polar (inclination) angle, in `[-1, 1]`.
    pub cos_polar: f64,
}

impl SphericalPoint {
    /// Creates a spherical point, normalizing the azimuth.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `radius` is negative, or `cos_polar` is
    /// outside `[-1, 1]`.
    #[inline]
    pub fn new(radius: f64, azimuth: f64, cos_polar: f64) -> Self {
        debug_assert!(radius >= 0.0 && radius.is_finite(), "bad radius {radius}");
        debug_assert!(
            (-1.0..=1.0).contains(&cos_polar),
            "bad cos_polar {cos_polar}"
        );
        Self {
            radius,
            azimuth: normalize_angle(azimuth),
            cos_polar,
        }
    }

    /// Converts a Cartesian point (relative to the pole at the origin).
    #[inline]
    pub fn from_cartesian(p: &Point3) -> Self {
        Self {
            radius: p.norm(),
            azimuth: p.azimuth(),
            cos_polar: p.cos_polar(),
        }
    }

    /// Converts back to Cartesian coordinates.
    #[inline]
    pub fn to_cartesian(self) -> Point3 {
        let sin_polar = (1.0 - self.cos_polar * self.cos_polar).max(0.0).sqrt();
        Point3::new([
            self.radius * sin_polar * self.azimuth.cos(),
            self.radius * sin_polar * self.azimuth.sin(),
            self.radius * self.cos_polar,
        ])
    }
}

/// An arc of angles `[lo, hi)` on the circle, with `0 ≤ lo ≤ hi ≤ 2π`.
///
/// The grid only ever needs "standard position" arcs that do not wrap around
/// `2π`, which keeps containment tests branch-free and exact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arc {
    lo: f64,
    hi: f64,
}

impl Arc {
    /// The full circle `[0, 2π)`.
    pub const FULL: Self = Self { lo: 0.0, hi: TAU };

    /// Creates the arc `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, `lo < 0`, or `hi > 2π (+ε)`.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            (0.0..=hi).contains(&lo) && hi <= TAU * (1.0 + 1e-12),
            "invalid arc [{lo}, {hi})"
        );
        Self { lo, hi }
    }

    /// Lower endpoint (inclusive).
    #[inline]
    pub const fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint (exclusive, except the full circle's `2π`).
    #[inline]
    pub const fn hi(&self) -> f64 {
        self.hi
    }

    /// Angular width `hi - lo`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint angle.
    #[inline]
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether `angle` (assumed already normalized into `[0, 2π)`) lies in
    /// the arc. The full circle contains every normalized angle.
    #[inline]
    pub fn contains(&self, angle: f64) -> bool {
        self.lo <= angle && angle < self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn normalize_angle_range_and_fixed_points() {
        assert_eq!(normalize_angle(0.0), 0.0);
        assert!((normalize_angle(-FRAC_PI_2) - 3.0 * FRAC_PI_2).abs() < 1e-12);
        assert!((normalize_angle(5.0 * PI) - PI).abs() < 1e-12);
        for i in -20..20 {
            let a = normalize_angle(i as f64 * 1.3);
            assert!((0.0..TAU).contains(&a));
        }
    }

    #[test]
    fn polar_round_trip() {
        let pts = [
            Point2::new([1.0, 0.0]),
            Point2::new([-2.0, 3.0]),
            Point2::new([0.5, -0.5]),
            Point2::new([0.0, -7.0]),
        ];
        for p in pts {
            let rt = PolarPoint::from_cartesian(&p).to_cartesian();
            assert!(p.distance(&rt) < 1e-12, "{p:?} -> {rt:?}");
        }
    }

    #[test]
    fn spherical_round_trip() {
        let pts = [
            Point3::new([1.0, 0.0, 0.0]),
            Point3::new([-2.0, 3.0, 1.0]),
            Point3::new([0.0, 0.0, -4.0]),
            Point3::new([0.3, -0.1, 0.2]),
        ];
        for p in pts {
            let rt = SphericalPoint::from_cartesian(&p).to_cartesian();
            assert!(p.distance(&rt) < 1e-12, "{p:?} -> {rt:?}");
        }
    }

    #[test]
    fn spherical_poles() {
        let north = SphericalPoint::from_cartesian(&Point3::new([0.0, 0.0, 5.0]));
        assert_eq!(north.cos_polar, 1.0);
        assert_eq!(north.radius, 5.0);
        let south = SphericalPoint::from_cartesian(&Point3::new([0.0, 0.0, -5.0]));
        assert_eq!(south.cos_polar, -1.0);
    }

    #[test]
    fn arc_contains() {
        let arc = Arc::new(0.0, PI);
        assert!(arc.contains(0.0));
        assert!(arc.contains(FRAC_PI_2));
        assert!(!arc.contains(PI));
    }

    #[test]
    fn full_arc_contains_everything_normalized() {
        for i in 0..64 {
            let a = i as f64 / 64.0 * TAU;
            assert!(Arc::FULL.contains(a));
        }
    }

    #[test]
    #[should_panic(expected = "invalid arc")]
    fn arc_rejects_inverted() {
        let _ = Arc::new(1.0, 0.5);
    }

    #[test]
    fn arc_width_and_mid() {
        let arc = Arc::new(1.0, 2.0);
        assert!((arc.width() - 1.0).abs() < 1e-15);
        assert!((arc.mid() - 1.5).abs() < 1e-15);
    }
}
