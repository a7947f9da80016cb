//! The 3-D equal-volume spherical grid (Section IV-B of the paper).
//!
//! Rings are spherical shells whose radii grow by `∛2`, so each shell has
//! twice the volume of the one inside it. Within a shell, cells are angular
//! boxes in `(azimuth θ, z = cos polar)` space, obtained by alternating
//! binary splits of the two angular axes; by Archimedes' hat-box theorem a
//! `(θ, z)` box's solid angle is the product of its side lengths, so the
//! splits are *exactly* equal-volume. Ring `i` carries `2^i` cells and cell
//! `(i, j)` is aligned with cells `(i+1, 2j)` and `(i+1, 2j+1)` — the same
//! binary core-tree structure as in two dimensions.

use core::f64::consts::TAU;

use omt_geom::{ShellCell, SphericalPoint};

use crate::kselect::{locate_ring, shells};

/// Spreads the low 32 bits of `x` to the even bit positions of a `u64`
/// (bit `i` moves to bit `2i`), so two spread values interleave with a
/// shift and an OR.
#[inline]
fn spread_bits(x: u64) -> u64 {
    let mut x = x & 0xffff_ffff;
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// The 3-D spherical grid over a ball of radius `rho` with `k` rings.
///
/// # Examples
///
/// ```
/// use omt_core::SphereGrid3;
/// use omt_geom::SphericalPoint;
///
/// let grid = SphereGrid3::new(4, 1.0);
/// assert_eq!(grid.cell_count(), 31);
/// // Cells on the same ring have exactly equal volume.
/// let v0 = grid.cell(4, 0).volume();
/// let v9 = grid.cell(4, 9).volume();
/// assert!((v0 - v9).abs() < 1e-12);
/// let p = SphericalPoint::new(0.95, 0.3, 0.2);
/// let (ring, seg) = grid.cell_of(&p);
/// assert!(grid.cell(ring, seg).contains(&p));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SphereGrid3 {
    k: u32,
    rho: f64,
    /// `circle[i] = rho · 2^(-(k-i)/3)` for `i = 0..=k`; `circle[k] = rho`.
    circle: Vec<f64>,
}

impl SphereGrid3 {
    /// Creates the `k`-ring spherical grid over a ball of radius `rho`.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not positive and finite, or `k > 60`.
    pub fn new(k: u32, rho: f64) -> Self {
        assert!(rho > 0.0 && rho.is_finite(), "bad ball radius {rho}");
        assert!(k <= 60, "ring count {k} too large");
        Self {
            k,
            rho,
            circle: shells::<3>(k, rho),
        }
    }

    /// Number of rings `k`.
    #[inline]
    pub const fn rings(&self) -> u32 {
        self.k
    }

    /// The ball radius `ρ`.
    #[inline]
    pub const fn rho(&self) -> f64 {
        self.rho
    }

    /// Total number of cells: `2^(k+1) - 1`.
    #[inline]
    pub fn cell_count(&self) -> usize {
        ((1u64 << (self.k + 1)) - 1) as usize
    }

    /// Radius of shell boundary `i` (`0 ≤ i ≤ k`; index `k` is the ball
    /// boundary).
    ///
    /// # Panics
    ///
    /// Panics if `i > k`.
    #[inline]
    pub fn shell_radius(&self, i: u32) -> f64 {
        self.circle[i as usize]
    }

    /// Decodes the angular box of segment `seg` on a ring with `2^ring`
    /// cells: `(θ_lo, θ_hi, z_lo, z_hi)`.
    ///
    /// Split `ℓ` (1-based) halves the azimuth when `ℓ` is odd and the `z`
    /// axis when even, so the box is determined by de-interleaving the bits
    /// of `seg`.
    fn angular_box(ring: u32, seg: u64) -> (f64, f64, f64, f64) {
        let n_theta = ring.div_ceil(2);
        let n_z = ring / 2;
        // De-interleave MSB-first: odd split positions build the azimuth
        // index, even positions the z index.
        let mut ta = 0u64;
        let mut za = 0u64;
        for l in 1..=ring {
            let bit = (seg >> (ring - l)) & 1;
            if l % 2 == 1 {
                ta = (ta << 1) | bit;
            } else {
                za = (za << 1) | bit;
            }
        }
        let theta_w = TAU / (1u64 << n_theta) as f64;
        let theta_lo = ta as f64 * theta_w;
        let theta_hi = if ta + 1 == (1u64 << n_theta) {
            TAU
        } else {
            (ta + 1) as f64 * theta_w
        };
        let z_w = 2.0 / (1u64 << n_z) as f64;
        let z_lo = -1.0 + za as f64 * z_w;
        let z_hi = if za + 1 == (1u64 << n_z) {
            1.0
        } else {
            -1.0 + (za + 1) as f64 * z_w
        };
        (theta_lo, theta_hi, z_lo, z_hi)
    }

    /// The geometric region of cell `(ring, seg)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn cell(&self, ring: u32, seg: u64) -> ShellCell {
        assert!(ring <= self.k, "ring {ring} out of range");
        if ring == 0 {
            return ShellCell::ball(self.circle[0]);
        }
        assert!(
            seg < (1u64 << ring),
            "segment {seg} out of range for ring {ring}"
        );
        let (t_lo, t_hi, z_lo, z_hi) = Self::angular_box(ring, seg);
        ShellCell::new(
            self.circle[ring as usize - 1],
            self.circle[ring as usize],
            t_lo,
            t_hi,
            z_lo,
            z_hi,
        )
    }

    /// The ring containing radius `r`, exactly consistent with
    /// [`SphereGrid3::shell_radius`] comparisons: 0 below shell 0, ring
    /// `i` on `[shell(i-1), shell(i))`, and radii at or beyond `ρ` clamped
    /// into ring `k`. The starting guess comes from the exponent bits of
    /// `(r/ρ)³` (no logarithm), and a walk against the shell table settles
    /// it.
    #[inline]
    pub fn ring_of_radius(&self, r: f64) -> u32 {
        locate_ring(&self.circle, 3, r)
    }

    /// The angular bit path of a point at the finest level `k`: bit `ℓ`
    /// (MSB-first) records which half the point falls into at angular split
    /// `ℓ`. The segment of the point on any ring `m` is the top `m` bits.
    ///
    /// Odd splits halve the azimuth and even splits the `z` axis, so the
    /// path interleaves the point's `⌈k/2⌉`-bit azimuth quantile with its
    /// `⌊k/2⌋`-bit `z` quantile, MSB-first and azimuth first: the azimuth
    /// takes the lowest bit when `k` is odd, `z` when `k` is even. It is
    /// built by spreading each quantile's bits to every other position, with
    /// no per-level loop.
    pub fn angular_path(&self, p: &SphericalPoint) -> u64 {
        let k = self.k;
        if k == 0 {
            return 0;
        }
        let n_theta = k.div_ceil(2);
        let n_z = k / 2;
        let fa = (((p.azimuth / TAU) * (1u64 << n_theta) as f64) as u64).min((1u64 << n_theta) - 1);
        let fz = if n_z == 0 {
            0
        } else {
            ((((p.cos_polar + 1.0) / 2.0) * (1u64 << n_z) as f64) as u64).min((1u64 << n_z) - 1)
        };
        if k % 2 == 1 {
            spread_bits(fa) | spread_bits(fz) << 1
        } else {
            spread_bits(fa) << 1 | spread_bits(fz)
        }
    }

    /// The cell containing a spherical point.
    pub fn cell_of(&self, p: &SphericalPoint) -> (u32, u64) {
        omt_obs::obs_count!("grid3/cell_of");
        let ring = self.ring_of_radius(p.radius);
        if ring == 0 {
            return (0, 0);
        }
        let seg = self.angular_path(p) >> (self.k - ring);
        (ring, seg)
    }

    /// The parent cell in the core tree, or `None` for the inner ball.
    pub fn parent(&self, ring: u32, seg: u64) -> Option<(u32, u64)> {
        assert!(ring <= self.k, "ring {ring} out of range");
        match ring {
            0 => None,
            1 => Some((0, 0)),
            _ => Some((ring - 1, seg / 2)),
        }
    }

    /// The two aligned children on the next ring, or `None` for
    /// outermost-ring cells.
    pub fn children(&self, ring: u32, seg: u64) -> Option<[(u32, u64); 2]> {
        if ring >= self.k {
            return None;
        }
        if ring == 0 {
            Some([(1, 0), (1, 1)])
        } else {
            Some([(ring + 1, 2 * seg), (ring + 1, 2 * seg + 1)])
        }
    }

    /// The largest angular-diameter bound over cells of `ring` — the 3-D
    /// analogue of the arc length `Δ_i`, used by the equation-(7)-style
    /// delay bound.
    pub fn max_angular_diameter(&self, ring: u32) -> f64 {
        assert!(ring <= self.k, "ring {ring} out of range");
        if ring == 0 {
            // Full angular box at the inner-ball radius.
            return self.circle[0] * (TAU + core::f64::consts::PI);
        }
        (0..(1u64 << ring))
            .map(|seg| self.cell(ring, seg).angular_diameter_bound())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radii_follow_cbrt2_progression() {
        let g = SphereGrid3::new(6, 1.0);
        for i in 0..6 {
            let ratio = g.shell_radius(i + 1) / g.shell_radius(i);
            assert!((ratio - 2f64.cbrt()).abs() < 1e-12);
        }
        assert!((g.shell_radius(6) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn all_cells_have_equal_volume() {
        let g = SphereGrid3::new(5, 1.3);
        let unit = 4.0 / 3.0 * core::f64::consts::PI * 1.3f64.powi(3) * 2f64.powi(-6);
        assert!((g.cell(0, 0).volume() - 2.0 * unit).abs() < 1e-12);
        for ring in 1..=5u32 {
            for seg in 0..(1u64 << ring) {
                assert!(
                    (g.cell(ring, seg).volume() - unit).abs() < 1e-12,
                    "ring {ring} seg {seg}"
                );
            }
        }
    }

    #[test]
    fn volumes_sum_to_ball() {
        let g = SphereGrid3::new(4, 1.0);
        let mut total = g.cell(0, 0).volume();
        for ring in 1..=4u32 {
            for seg in 0..(1u64 << ring) {
                total += g.cell(ring, seg).volume();
            }
        }
        assert!((total - 4.0 / 3.0 * core::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn cells_tile_each_ring() {
        // Every point of a shell belongs to exactly one cell of its ring.
        let g = SphereGrid3::new(4, 1.0);
        for ring in 1..=4u32 {
            let r = 0.5 * (g.shell_radius(ring - 1) + g.shell_radius(ring));
            for i in 0..16 {
                for j in 0..16 {
                    let p = SphericalPoint::new(
                        r,
                        (i as f64 + 0.5) / 16.0 * TAU,
                        -1.0 + (j as f64 + 0.5) / 8.0,
                    );
                    let containing = (0..(1u64 << ring))
                        .filter(|&s| g.cell(ring, s).contains(&p))
                        .count();
                    assert_eq!(containing, 1, "ring {ring}, point {p:?}");
                }
            }
        }
    }

    #[test]
    fn cell_of_agrees_with_containment() {
        let g = SphereGrid3::new(5, 1.0);
        for i in 0..20 {
            for j in 0..10 {
                for m in 0..10 {
                    let p = SphericalPoint::new(
                        (i as f64 + 0.5) / 20.0,
                        (j as f64 + 0.5) / 10.0 * TAU,
                        -1.0 + (m as f64 + 0.5) / 5.0,
                    );
                    let (ring, seg) = g.cell_of(&p);
                    assert!(
                        g.cell(ring, seg).contains(&p),
                        "point {p:?} -> ({ring},{seg})"
                    );
                }
            }
        }
    }

    #[test]
    fn angular_path_is_prefix_stable() {
        // The segment at ring m must be the top m bits of the path.
        let g = SphereGrid3::new(6, 1.0);
        let p = SphericalPoint::new(0.99, 2.1, -0.4);
        let path = g.angular_path(&p);
        for ring in 1..=6u32 {
            let seg = path >> (6 - ring);
            let (t_lo, t_hi, z_lo, z_hi) = SphereGrid3::angular_box(ring, seg);
            assert!(t_lo <= p.azimuth && p.azimuth < t_hi, "ring {ring} azimuth");
            assert!(z_lo <= p.cos_polar && p.cos_polar < z_hi, "ring {ring} z");
        }
    }

    /// The per-level loop `angular_path` replaced, kept as its oracle:
    /// split `ℓ` (1-based, MSB-first) takes the next azimuth bit when `ℓ` is
    /// odd and the next `z` bit when it is even.
    fn angular_path_by_levels(k: u32, p: &SphericalPoint) -> u64 {
        if k == 0 {
            return 0;
        }
        let n_theta = k.div_ceil(2);
        let n_z = k / 2;
        let fa = (((p.azimuth / TAU) * (1u64 << n_theta) as f64) as u64).min((1u64 << n_theta) - 1);
        let fz = if n_z == 0 {
            0
        } else {
            ((((p.cos_polar + 1.0) / 2.0) * (1u64 << n_z) as f64) as u64).min((1u64 << n_z) - 1)
        };
        let mut path = 0u64;
        let mut ti = 0;
        let mut zi = 0;
        for l in 1..=k {
            let bit = if l % 2 == 1 {
                ti += 1;
                (fa >> (n_theta - ti)) & 1
            } else {
                zi += 1;
                (fz >> (n_z - zi)) & 1
            };
            path = (path << 1) | bit;
        }
        path
    }

    #[test]
    fn angular_path_matches_the_per_level_loop() {
        use omt_rng::rngs::SmallRng;
        use omt_rng::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        let edges_az = [0.0, f64::from_bits(1), 1e-300, TAU / 3.0, TAU.next_down()];
        let edges_z = [-1.0, (-1.0f64).next_up(), 0.0, 1.0f64.next_down(), 1.0];
        let mut points: Vec<SphericalPoint> = edges_az
            .iter()
            .flat_map(|&a| edges_z.iter().map(move |&z| SphericalPoint::new(0.5, a, z)))
            .collect();
        points.extend((0..2_000).map(|_| {
            SphericalPoint::new(
                0.5,
                rng.random::<f64>() * TAU,
                rng.random::<f64>() * 2.0 - 1.0,
            )
        }));
        for k in 0..=60u32 {
            let g = SphereGrid3::new(k, 1.0);
            for p in &points {
                assert_eq!(
                    g.angular_path(p),
                    angular_path_by_levels(k, p),
                    "k {k} point {p:?}"
                );
            }
        }
    }

    #[test]
    fn parent_child_alignment() {
        let g = SphereGrid3::new(3, 1.0);
        for ring in 1..=3u32 {
            for seg in 0..(1u64 << ring) {
                let (pr, ps) = g.parent(ring, seg).unwrap();
                assert!(g.children(pr, ps).unwrap().contains(&(ring, seg)));
            }
        }
        // Children's angular boxes partition the parent's.
        for ring in 1..3u32 {
            for seg in 0..(1u64 << ring) {
                let parent = g.cell(ring, seg);
                let kids = g.children(ring, seg).unwrap();
                let v: f64 = kids
                    .iter()
                    .map(|&(r, s)| {
                        let c = g.cell(r, s);
                        c.solid_angle()
                    })
                    .sum();
                assert!((v - parent.solid_angle()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ring_of_radius_boundaries() {
        let g = SphereGrid3::new(6, 1.0);
        for i in 0..6u32 {
            let r = g.shell_radius(i);
            assert_eq!(g.ring_of_radius(r), i + 1, "on shell {i}");
            if i > 0 {
                assert_eq!(g.ring_of_radius(r * (1.0 - 1e-12)), i);
            }
        }
        assert_eq!(g.ring_of_radius(0.0), 0);
        assert_eq!(g.ring_of_radius(99.0), 6);
    }

    #[test]
    fn max_angular_diameter_decreases() {
        let g = SphereGrid3::new(8, 1.0);
        // Must decrease roughly like 2^(-i/6); just check overall decrease
        // over two-level strides (θ and z alternate).
        for i in (1..7u32).step_by(2) {
            assert!(
                g.max_angular_diameter(i) > g.max_angular_diameter(i + 2),
                "ring {i}"
            );
        }
        assert!(g.max_angular_diameter(0) >= g.max_angular_diameter(1));
    }

    #[test]
    fn poles_and_seam_points_are_located() {
        let g = SphereGrid3::new(5, 1.0);
        let pole = SphericalPoint::new(0.9, 0.0, 1.0);
        let (ring, seg) = g.cell_of(&pole);
        assert!(g.cell(ring, seg).contains(&pole));
        let seam = SphericalPoint::new(0.9, TAU - 1e-12, -1.0);
        let (ring, seg) = g.cell_of(&seam);
        assert!(g.cell(ring, seg).contains(&seam));
    }
}
