//! Uniform random sampling primitives.
//!
//! The paper's experiments draw points uniformly from the unit disk (2-D)
//! and the unit ball (3-D). These helpers implement exact uniform sampling
//! for disks, balls of any dimension, sphere surfaces, boxes, and triangles,
//! using only `omt-rng`'s uniform primitives (Gaussian deviates come from our
//! own Marsaglia polar transform, so no extra dependency is needed).

use omt_rng::{Rng, RngExt};

use crate::point::{Point, Point2};

/// A standard normal deviate via the Marsaglia polar method.
///
/// Generates pairs internally but returns one value per call (the spare is
/// discarded — simpler, and sampling is not the bottleneck anywhere in this
/// workspace).
pub fn standard_normal(rng: &mut (impl Rng + ?Sized)) -> f64 {
    loop {
        let u: f64 = rng.random_range(-1.0..1.0);
        let v: f64 = rng.random_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * ((-2.0 * s.ln()) / s).sqrt();
        }
    }
}

/// A point uniform in the `D`-ball of the given radius centered at the
/// origin: Gaussian direction scaled by `R·u^(1/D)`.
pub fn uniform_in_ball<const D: usize>(rng: &mut (impl Rng + ?Sized), radius: f64) -> Point<D> {
    let dir = uniform_on_sphere::<D>(rng);
    let r = radius * rng.random::<f64>().powf(1.0 / D as f64);
    dir * r
}

/// A unit vector uniform on the `(D-1)`-sphere.
///
/// # Panics
///
/// Panics if `D == 0`.
pub fn uniform_on_sphere<const D: usize>(rng: &mut (impl Rng + ?Sized)) -> Point<D> {
    assert!(D > 0, "dimension must be positive");
    loop {
        let mut coords = [0.0; D];
        for c in &mut coords {
            *c = standard_normal(rng);
        }
        let p = Point::new(coords);
        if let Some(unit) = p.normalized() {
            if unit.is_finite() {
                return unit;
            }
        }
    }
}

/// A point uniform in the axis-aligned box `[min, max]`.
///
/// # Panics
///
/// Panics if any `min[i] > max[i]`.
pub fn uniform_in_box<const D: usize>(
    rng: &mut (impl Rng + ?Sized),
    min: &Point<D>,
    max: &Point<D>,
) -> Point<D> {
    let mut coords = [0.0; D];
    for i in 0..D {
        assert!(min[i] <= max[i], "inverted box extent on axis {i}");
        coords[i] = if min[i] == max[i] {
            min[i]
        } else {
            rng.random_range(min[i]..max[i])
        };
    }
    Point::new(coords)
}

/// A point uniform in the triangle `(a, b, c)` via the reflected-parallelogram
/// method.
pub fn uniform_in_triangle(
    rng: &mut (impl Rng + ?Sized),
    a: &Point2,
    b: &Point2,
    c: &Point2,
) -> Point2 {
    let mut u: f64 = rng.random();
    let mut v: f64 = rng.random();
    if u + v > 1.0 {
        u = 1.0 - u;
        v = 1.0 - v;
    }
    *a + (*b - *a) * u + (*c - *a) * v
}

/// Signed area of triangle `(a, b, c)` (positive when counter-clockwise).
pub fn triangle_signed_area(a: &Point2, b: &Point2, c: &Point2) -> f64 {
    0.5 * ((b.x() - a.x()) * (c.y() - a.y()) - (c.x() - a.x()) * (b.y() - a.y()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0x0517_5EED)
    }

    const N: usize = 20_000;

    #[test]
    fn ball_points_are_inside_and_radially_uniform() {
        let mut rng = rng();
        let mut inside_half = 0usize;
        for _ in 0..N {
            let p = uniform_in_ball::<3>(&mut rng, 1.0);
            assert!(p.norm() <= 1.0 + 1e-12);
            if p.norm() <= 0.5_f64.cbrt() {
                inside_half += 1;
            }
        }
        let frac = inside_half as f64 / N as f64;
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn sphere_points_are_unit_and_balanced() {
        let mut rng = rng();
        let mut pos_z = 0usize;
        for _ in 0..N {
            let p = uniform_on_sphere::<3>(&mut rng);
            assert!((p.norm() - 1.0).abs() < 1e-12);
            if p[2] > 0.0 {
                pos_z += 1;
            }
        }
        let frac = pos_z as f64 / N as f64;
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = rng();
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..N {
            let x = standard_normal(&mut rng);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / N as f64;
        let var = sum_sq / N as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn box_points_inside() {
        let mut rng = rng();
        let min = Point::new([-1.0, 2.0]);
        let max = Point::new([1.0, 3.0]);
        for _ in 0..1000 {
            let p = uniform_in_box(&mut rng, &min, &max);
            assert!(p[0] >= -1.0 && p[0] < 1.0);
            assert!(p[1] >= 2.0 && p[1] < 3.0);
        }
    }

    #[test]
    fn degenerate_box_axis() {
        let mut rng = rng();
        let min = Point::new([0.0, 5.0]);
        let max = Point::new([1.0, 5.0]);
        let p = uniform_in_box(&mut rng, &min, &max);
        assert_eq!(p[1], 5.0);
    }

    #[test]
    fn triangle_points_inside() {
        let mut rng = rng();
        let a = Point2::new([0.0, 0.0]);
        let b = Point2::new([2.0, 0.0]);
        let c = Point2::new([0.0, 2.0]);
        for _ in 0..2000 {
            let p = uniform_in_triangle(&mut rng, &a, &b, &c);
            assert!(p.x() >= -1e-12 && p.y() >= -1e-12 && p.x() + p.y() <= 2.0 + 1e-12);
        }
    }

    #[test]
    fn triangle_area_sign() {
        let a = Point2::new([0.0, 0.0]);
        let b = Point2::new([1.0, 0.0]);
        let c = Point2::new([0.0, 1.0]);
        assert!((triangle_signed_area(&a, &b, &c) - 0.5).abs() < 1e-15);
        assert!((triangle_signed_area(&a, &c, &b) + 0.5).abs() < 1e-15);
    }

    #[test]
    fn two_dim_ball_matches_disk_distribution() {
        // Half a disk's area lies within radius R/sqrt(2).
        let mut rng = rng();
        let mut inside = 0usize;
        for _ in 0..N {
            let p = uniform_in_ball::<2>(&mut rng, 1.0);
            assert!(p.norm() <= 1.0 + 1e-12);
            if p.norm() <= core::f64::consts::FRAC_1_SQRT_2 {
                inside += 1;
            }
        }
        let frac = inside as f64 / N as f64;
        assert!((frac - 0.5).abs() < 0.02, "fraction {frac}");
    }
}
