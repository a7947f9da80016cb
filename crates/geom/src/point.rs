//! Fixed-dimension Euclidean points.
//!
//! [`Point<D>`] is a `D`-dimensional point with `f64` coordinates. The two
//! dimensions the paper evaluates get convenient aliases: [`Point2`] and
//! [`Point3`].

use core::fmt;
use core::ops::{Add, Div, Index, IndexMut, Mul, Neg, Sub};

/// A point (equivalently, a vector) in `D`-dimensional Euclidean space.
///
/// The type parameter is the compile-time dimension, so mixing points of
/// different dimensions is a type error rather than a runtime surprise.
///
/// # Examples
///
/// ```
/// use omt_geom::Point2;
///
/// let a = Point2::new([3.0, 0.0]);
/// let b = Point2::new([0.0, 4.0]);
/// assert_eq!(a.distance(&b), 5.0);
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Point<const D: usize> {
    coords: [f64; D],
}

impl<const D: usize> Default for Point<D> {
    /// The origin.
    fn default() -> Self {
        Self::ORIGIN
    }
}

/// A point in the plane. The paper's primary setting (unit disk).
pub type Point2 = Point<2>;

/// A point in three-dimensional space. Used for the unit-sphere experiments
/// (Figure 8 of the paper).
pub type Point3 = Point<3>;

impl<const D: usize> Point<D> {
    /// The origin (all coordinates zero).
    pub const ORIGIN: Self = Self { coords: [0.0; D] };

    /// Creates a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [f64; D]) -> Self {
        Self { coords }
    }

    /// Returns the coordinate array.
    #[inline]
    pub const fn coords(&self) -> [f64; D] {
        self.coords
    }

    /// Returns the coordinates as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.coords
    }

    /// The compile-time dimension `D`.
    #[inline]
    pub const fn dim(&self) -> usize {
        D
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_squared(&self) -> f64 {
        self.coords.iter().map(|c| c * c).sum()
    }

    /// Euclidean norm (distance from the origin).
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this over [`Point::distance`] in hot loops that only compare
    /// distances: it avoids the square root.
    #[inline]
    pub fn distance_squared(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = self.coords[i] - other.coords[i];
            acc += d * d;
        }
        acc
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Self) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Midpoint of the segment between `self` and `other`.
    ///
    /// ```
    /// use omt_geom::Point2;
    /// let m = Point2::new([0.0, 0.0]).midpoint(&Point2::new([2.0, 4.0]));
    /// assert_eq!(m, Point2::new([1.0, 2.0]));
    /// ```
    #[inline]
    pub fn midpoint(&self, other: &Self) -> Self {
        let mut coords = [0.0; D];
        for (c, (a, b)) in coords.iter_mut().zip(self.coords.iter().zip(&other.coords)) {
            *c = 0.5 * (a + b);
        }
        Self { coords }
    }

    /// Returns the unit vector pointing in the same direction, or `None` for
    /// the zero vector (whose direction is undefined).
    #[inline]
    pub fn normalized(&self) -> Option<Self> {
        let n = self.norm();
        if n == 0.0 {
            None
        } else {
            Some(*self / n)
        }
    }

    /// True if every coordinate is finite (neither NaN nor infinite).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }
}

impl Point2 {
    /// The x coordinate.
    #[inline]
    pub const fn x(&self) -> f64 {
        self.coords[0]
    }

    /// The y coordinate.
    #[inline]
    pub const fn y(&self) -> f64 {
        self.coords[1]
    }

    /// The polar angle in `[0, 2π)` measured counter-clockwise from the
    /// positive x axis. The angle of the origin is defined as `0`.
    #[inline]
    pub fn angle(&self) -> f64 {
        crate::polar::normalize_angle(self.coords[1].atan2(self.coords[0]))
    }
}

impl Point3 {
    /// The x coordinate.
    #[inline]
    pub const fn x(&self) -> f64 {
        self.coords[0]
    }

    /// The y coordinate.
    #[inline]
    pub const fn y(&self) -> f64 {
        self.coords[1]
    }

    /// The z coordinate.
    #[inline]
    pub const fn z(&self) -> f64 {
        self.coords[2]
    }

    /// Azimuthal angle in the xy-plane, in `[0, 2π)`.
    #[inline]
    pub fn azimuth(&self) -> f64 {
        crate::polar::normalize_angle(self.coords[1].atan2(self.coords[0]))
    }

    /// `cos` of the polar (inclination) angle: `z / ‖p‖`, in `[-1, 1]`.
    ///
    /// This is the natural "latitude" coordinate for equal-volume spherical
    /// grids (Archimedes' hat-box theorem): the solid angle of a box in
    /// `(azimuth, cos_polar)` space is the product of its side lengths.
    /// Returns `1.0` for the origin by convention.
    #[inline]
    pub fn cos_polar(&self) -> f64 {
        let n = self.norm();
        if n == 0.0 {
            1.0
        } else {
            (self.coords[2] / n).clamp(-1.0, 1.0)
        }
    }
}

impl<const D: usize> fmt::Debug for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl<const D: usize> fmt::Display for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.6}")?;
        }
        write!(f, ")")
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    #[inline]
    fn from(coords: [f64; D]) -> Self {
        Self { coords }
    }
}

impl<const D: usize> From<Point<D>> for [f64; D] {
    #[inline]
    fn from(p: Point<D>) -> Self {
        p.coords
    }
}

impl<const D: usize> AsRef<[f64]> for Point<D> {
    #[inline]
    fn as_ref(&self) -> &[f64] {
        &self.coords
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.coords[i]
    }
}

impl<const D: usize> Add for Point<D> {
    type Output = Self;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut coords = [0.0; D];
        for (c, (a, b)) in coords.iter_mut().zip(self.coords.iter().zip(&rhs.coords)) {
            *c = a + b;
        }
        Self { coords }
    }
}

impl<const D: usize> Sub for Point<D> {
    type Output = Self;

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let mut coords = [0.0; D];
        for (c, (a, b)) in coords.iter_mut().zip(self.coords.iter().zip(&rhs.coords)) {
            *c = a - b;
        }
        Self { coords }
    }
}

impl<const D: usize> Neg for Point<D> {
    type Output = Self;

    #[inline]
    fn neg(self) -> Self {
        let mut coords = [0.0; D];
        for (c, a) in coords.iter_mut().zip(&self.coords) {
            *c = -a;
        }
        Self { coords }
    }
}

impl<const D: usize> Mul<f64> for Point<D> {
    type Output = Self;

    #[inline]
    fn mul(self, s: f64) -> Self {
        let mut coords = [0.0; D];
        for (c, a) in coords.iter_mut().zip(&self.coords) {
            *c = a * s;
        }
        Self { coords }
    }
}

impl<const D: usize> Div<f64> for Point<D> {
    type Output = Self;

    /// # Panics
    ///
    /// Does not panic; dividing by zero yields non-finite coordinates, which
    /// [`Point::is_finite`] detects.
    #[inline]
    fn div(self, s: f64) -> Self {
        let mut coords = [0.0; D];
        for (c, a) in coords.iter_mut().zip(&self.coords) {
            *c = a / s;
        }
        Self { coords }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point2::new([1.5, -2.0]);
        let b = Point2::new([-0.5, 3.0]);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn pythagorean_triple() {
        let a = Point2::new([0.0, 0.0]);
        let b = Point2::new([3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_squared(&b), 25.0);
    }

    #[test]
    fn three_dimensional_distance() {
        let a = Point3::new([1.0, 2.0, 2.0]);
        assert_eq!(a.norm(), 3.0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Point2::new([1.0, 2.0]);
        let b = Point2::new([3.0, -1.0]);
        assert_eq!(a + b, Point2::new([4.0, 1.0]));
        assert_eq!(a - b, Point2::new([-2.0, 3.0]));
        assert_eq!(-a, Point2::new([-1.0, -2.0]));
        assert_eq!(a * 2.0, Point2::new([2.0, 4.0]));
        assert_eq!(a / 2.0, Point2::new([0.5, 1.0]));
    }

    #[test]
    fn angle_quadrants() {
        use core::f64::consts::PI;
        assert!((Point2::new([1.0, 0.0]).angle() - 0.0).abs() < 1e-12);
        assert!((Point2::new([0.0, 1.0]).angle() - PI / 2.0).abs() < 1e-12);
        assert!((Point2::new([-1.0, 0.0]).angle() - PI).abs() < 1e-12);
        assert!((Point2::new([0.0, -1.0]).angle() - 3.0 * PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn angle_is_always_in_range() {
        for i in 0..100 {
            let t = (i as f64) * 0.7 - 35.0;
            let p = Point2::new([t.cos() * 2.0, t.sin() * 2.0]);
            let a = p.angle();
            assert!((0.0..core::f64::consts::TAU).contains(&a), "angle {a}");
        }
    }

    #[test]
    fn cos_polar_poles_and_equator() {
        assert_eq!(Point3::new([0.0, 0.0, 2.0]).cos_polar(), 1.0);
        assert_eq!(Point3::new([0.0, 0.0, -2.0]).cos_polar(), -1.0);
        assert!(Point3::new([1.0, 1.0, 0.0]).cos_polar().abs() < 1e-12);
        // Origin convention.
        assert_eq!(Point3::ORIGIN.cos_polar(), 1.0);
    }

    #[test]
    fn normalized_unit_and_zero() {
        let p = Point2::new([3.0, 4.0]);
        let n = p.normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(Point2::ORIGIN.normalized().is_none());
    }

    #[test]
    fn conversions_round_trip() {
        let arr = [1.0, 2.0, 3.0];
        let p = Point3::from(arr);
        let back: [f64; 3] = p.into();
        assert_eq!(arr, back);
        assert_eq!(p.as_slice(), &arr);
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Point2::new([1.0, 2.0]).is_finite());
        assert!(!Point2::new([f64::NAN, 0.0]).is_finite());
        assert!(!(Point2::new([1.0, 0.0]) / 0.0).is_finite());
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        let p = Point2::new([1.0, 2.0]);
        assert!(!format!("{p:?}").is_empty());
        assert_eq!(format!("{p}"), "(1.000000, 2.000000)");
    }

    #[test]
    fn indexing() {
        let mut p = Point3::new([1.0, 2.0, 3.0]);
        assert_eq!(p[2], 3.0);
        p[0] = 9.0;
        assert_eq!(p.coords(), [9.0, 2.0, 3.0]);
    }
}
