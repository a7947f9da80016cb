//! Grid cells: 2-D ring segments and 3-D shell cells.
//!
//! A *ring segment* (Figure 1 of the paper) is the region between two
//! concentric circles, cut by an angular wedge: `{(r, θ) : r_lo ≤ r < r_hi,
//! θ_lo ≤ θ < θ_hi}`. The 3-D analogue, a *shell cell*, adds a `cos_polar`
//! extent. The bisection algorithm that recursively halves them lives in
//! `omt-core`, on plain coordinate boxes.
//!
//! Cells are half-open in every coordinate so that the cells of a grid ring
//! tile it exactly: every point of the ring belongs to exactly one cell.
//! (The outermost grid ring treats its outer radius as inclusive at a
//! higher level, by nudging the boundary — see `omt-core`.)

use crate::polar::{Arc, PolarPoint, SphericalPoint};

/// A 2-D polar-grid cell: radii `[r_lo, r_hi)` and angles `[θ_lo, θ_hi)`.
///
/// # Examples
///
/// ```
/// use omt_geom::{PolarPoint, RingSegment};
///
/// let seg = RingSegment::new(0.5, 1.0, 0.0, core::f64::consts::PI);
/// assert!(seg.contains(&PolarPoint::new(0.75, 1.0)));
/// assert!(!seg.contains(&PolarPoint::new(0.25, 1.0)));
/// assert!((seg.area() - 0.375 * core::f64::consts::PI).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RingSegment {
    r_lo: f64,
    r_hi: f64,
    arc: Arc,
}

impl RingSegment {
    /// Creates a ring segment.
    ///
    /// A degenerate full disk is expressed as `r_lo = 0` with the full arc.
    ///
    /// # Panics
    ///
    /// Panics if `r_lo < 0`, `r_lo > r_hi`, or the angles do not satisfy
    /// `0 ≤ θ_lo ≤ θ_hi ≤ 2π`.
    pub fn new(r_lo: f64, r_hi: f64, theta_lo: f64, theta_hi: f64) -> Self {
        assert!(
            0.0 <= r_lo && r_lo <= r_hi,
            "invalid radii [{r_lo}, {r_hi})"
        );
        Self {
            r_lo,
            r_hi,
            arc: Arc::new(theta_lo, theta_hi),
        }
    }

    /// The full disk of radius `r` centered at the pole.
    pub fn disk(r: f64) -> Self {
        Self {
            r_lo: 0.0,
            r_hi: r,
            arc: Arc::FULL,
        }
    }

    /// Inner radius (inclusive).
    #[inline]
    pub const fn r_lo(&self) -> f64 {
        self.r_lo
    }

    /// Outer radius (exclusive).
    #[inline]
    pub const fn r_hi(&self) -> f64 {
        self.r_hi
    }

    /// The angular extent.
    #[inline]
    pub const fn arc(&self) -> Arc {
        self.arc
    }

    /// Angular width `θ_hi - θ_lo` (the paper's `a`).
    #[inline]
    pub fn angle_width(&self) -> f64 {
        self.arc.width()
    }

    /// Area of the segment: `(θ_hi - θ_lo)/2 · (r_hi² - r_lo²)`.
    #[inline]
    pub fn area(&self) -> f64 {
        0.5 * self.arc.width() * (self.r_hi * self.r_hi - self.r_lo * self.r_lo)
    }

    /// Whether the polar point lies inside (half-open on both axes).
    #[inline]
    pub fn contains(&self, p: &PolarPoint) -> bool {
        self.r_lo <= p.radius && p.radius < self.r_hi && self.arc.contains(p.angle)
    }
}

/// A 3-D spherical-grid cell: radii `[r_lo, r_hi)`, azimuth `[θ_lo, θ_hi)`,
/// and `cos_polar ∈ [z_lo, z_hi)`.
///
/// Halving the azimuth or the `cos_polar` extent halves the solid angle
/// exactly (Archimedes), so an equal-volume grid needs no transcendental
/// inversions in 3-D.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShellCell {
    r_lo: f64,
    r_hi: f64,
    arc: Arc,
    z_lo: f64,
    z_hi: f64,
}

impl ShellCell {
    /// Creates a shell cell.
    ///
    /// # Panics
    ///
    /// Panics if any extent is inverted, radii are negative, or the `z`
    /// extent leaves `[-1, 1]`.
    pub fn new(r_lo: f64, r_hi: f64, theta_lo: f64, theta_hi: f64, z_lo: f64, z_hi: f64) -> Self {
        assert!(
            0.0 <= r_lo && r_lo <= r_hi,
            "invalid radii [{r_lo}, {r_hi})"
        );
        assert!(
            (-1.0..=1.0).contains(&z_lo) && z_lo <= z_hi && z_hi <= 1.0,
            "invalid z extent [{z_lo}, {z_hi})"
        );
        Self {
            r_lo,
            r_hi,
            arc: Arc::new(theta_lo, theta_hi),
            z_lo,
            z_hi,
        }
    }

    /// The full ball of radius `r` centered at the pole.
    pub fn ball(r: f64) -> Self {
        Self {
            r_lo: 0.0,
            r_hi: r,
            arc: Arc::FULL,
            z_lo: -1.0,
            z_hi: 1.0,
        }
    }

    /// Inner radius (inclusive).
    #[inline]
    pub const fn r_lo(&self) -> f64 {
        self.r_lo
    }

    /// Outer radius (exclusive).
    #[inline]
    pub const fn r_hi(&self) -> f64 {
        self.r_hi
    }

    /// The azimuthal extent.
    #[inline]
    pub const fn arc(&self) -> Arc {
        self.arc
    }

    /// The `cos_polar` extent as `(z_lo, z_hi)`.
    #[inline]
    pub const fn z_range(&self) -> (f64, f64) {
        (self.z_lo, self.z_hi)
    }

    /// Solid angle of the cell's angular box: `Δθ · Δz` steradians.
    #[inline]
    pub fn solid_angle(&self) -> f64 {
        self.arc.width() * (self.z_hi - self.z_lo)
    }

    /// Volume: `solid_angle/3 · (r_hi³ - r_lo³)`.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.solid_angle() / 3.0 * (self.r_hi.powi(3) - self.r_lo.powi(3))
    }

    /// Whether the spherical point lies inside (half-open everywhere, except
    /// `z_hi = 1`, which is inclusive so the north pole belongs to a cell).
    #[inline]
    pub fn contains(&self, p: &SphericalPoint) -> bool {
        let z_ok = self.z_lo <= p.cos_polar
            && (p.cos_polar < self.z_hi || (self.z_hi >= 1.0 && p.cos_polar <= 1.0));
        self.r_lo <= p.radius && p.radius < self.r_hi && self.arc.contains(p.azimuth) && z_ok
    }

    /// An upper bound on the great-circle "width" a path crosses the cell's
    /// angular box with, at radius `r_hi`: the diagonal of the angular box
    /// scaled to the outer radius. This plays the role of `R·a` in the 2-D
    /// path-length bound.
    pub fn angular_diameter_bound(&self) -> f64 {
        // Azimuth arc length at the widest parallel inside the cell plus the
        // polar arc length; both at the outer radius. A safe (loose) bound.
        let max_sin = max_sin_polar(self.z_lo, self.z_hi);
        self.r_hi * (self.arc.width() * max_sin + polar_angle_span(self.z_lo, self.z_hi))
    }
}

/// Maximum of `sin(polar angle)` over `cos_polar ∈ [z_lo, z_hi]`: 1 if the
/// interval straddles the equator (`z = 0`), else attained at the endpoint
/// closer to the equator.
fn max_sin_polar(z_lo: f64, z_hi: f64) -> f64 {
    if z_lo <= 0.0 && 0.0 <= z_hi {
        1.0
    } else {
        let z = z_lo.abs().min(z_hi.abs());
        (1.0 - z * z).max(0.0).sqrt()
    }
}

/// The span of the polar angle itself: `acos(z_lo) - acos(z_hi)`.
fn polar_angle_span(z_lo: f64, z_hi: f64) -> f64 {
    z_lo.clamp(-1.0, 1.0).acos() - z_hi.clamp(-1.0, 1.0).acos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::PI;

    #[test]
    fn disk_constructor() {
        let d = RingSegment::disk(1.0);
        assert!((d.area() - PI).abs() < 1e-12);
        assert!(d.contains(&PolarPoint::new(0.0, 0.0)));
        assert!(d.contains(&PolarPoint::new(0.999, 3.0)));
        assert!(!d.contains(&PolarPoint::new(1.0, 0.0)));
    }

    #[test]
    fn angle_width_is_paper_a() {
        let seg = RingSegment::new(0.5, 1.0, 1.0, 1.5);
        assert!((seg.angle_width() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn ball_volume() {
        let b = ShellCell::ball(1.0);
        assert!((b.volume() - 4.0 / 3.0 * PI).abs() < 1e-12);
        assert!((b.solid_angle() - 4.0 * PI).abs() < 1e-12);
    }

    #[test]
    fn max_sin_polar_cases() {
        assert_eq!(max_sin_polar(-0.5, 0.5), 1.0);
        assert!((max_sin_polar(0.6, 1.0) - 0.8) < 1e-12);
        assert!((max_sin_polar(-1.0, -0.6) - 0.8) < 1e-12);
    }

    #[test]
    fn angular_diameter_bound_positive_and_scales() {
        let c = ShellCell::new(0.0, 1.0, 0.0, 1.0, 0.0, 0.5);
        let c2 = ShellCell::new(0.0, 2.0, 0.0, 1.0, 0.0, 0.5);
        assert!(c.angular_diameter_bound() > 0.0);
        assert!((c2.angular_diameter_bound() - 2.0 * c.angular_diameter_bound()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid radii")]
    fn rejects_inverted_radii() {
        let _ = RingSegment::new(1.0, 0.5, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid z extent")]
    fn rejects_bad_z() {
        let _ = ShellCell::new(0.0, 1.0, 0.0, 1.0, 0.5, 1.5);
    }
}
