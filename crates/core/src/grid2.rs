//! The 2-D equal-area polar grid (Section III-A of the paper).
//!
//! For `k` rings over a disk of radius `ρ`, the grid consists of circles of
//! radius `r_i = ρ·(1/√2)^(k-i)` for `0 ≤ i ≤ k-1`, giving:
//!
//! * ring 0 — the inner disk of radius `ρ·2^(-k/2)`, one cell;
//! * ring `i` (`1 ≤ i ≤ k`) — the annulus between circles `i-1` and `i`
//!   (circle `k` being the disk boundary), split into `2^i` equal segments.
//!
//! Every cell has area `π·ρ²·2^(-k-1)`, each ring has twice the cells of
//! the ring inside it, and cell `(i, j)` is aligned with cells
//! `(i+1, 2j)` and `(i+1, 2j+1)` — the binary "core" tree.

use core::f64::consts::TAU;

use omt_geom::{PolarPoint, RingSegment};

use crate::kselect::{locate_ring, shells};

/// A grid cell address: `(ring, segment)`. The inner disk is `(0, 0)`.
pub type CellId = (u32, u64);

/// The 2-D polar grid over a disk of radius `rho` with `k` rings.
///
/// # Examples
///
/// ```
/// use omt_core::PolarGrid2;
/// use omt_geom::PolarPoint;
///
/// let grid = PolarGrid2::new(3, 1.0);
/// assert_eq!(grid.cell_count(), 15); // 2^(3+1) - 1
/// let (ring, seg) = grid.cell_of(&PolarPoint::new(0.9, 0.1));
/// assert_eq!(ring, 3); // outermost ring
/// assert_eq!(seg, 0);
/// // Every cell of the grid has the same area.
/// let a0 = grid.segment(0, 0).area();
/// let a3 = grid.segment(3, 5).area();
/// assert!((a0 / 2.0 - a3).abs() < 1e-12); // the inner disk counts as 2 cells
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PolarGrid2 {
    k: u32,
    rho: f64,
    /// `circle[i] = rho · 2^(-(k-i)/2)` for `i = 0..=k`; `circle[k] = rho`.
    circle: Vec<f64>,
}

impl PolarGrid2 {
    /// Creates the `k`-ring grid over a disk of radius `rho`.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not positive and finite, or `k > 60`.
    pub fn new(k: u32, rho: f64) -> Self {
        assert!(rho > 0.0 && rho.is_finite(), "bad disk radius {rho}");
        assert!(k <= 60, "ring count {k} too large");
        Self {
            k,
            rho,
            circle: shells::<2>(k, rho),
        }
    }

    /// Number of rings `k`.
    #[inline]
    pub const fn rings(&self) -> u32 {
        self.k
    }

    /// The disk radius `ρ`.
    #[inline]
    pub const fn rho(&self) -> f64 {
        self.rho
    }

    /// Total number of cells: `2^(k+1) - 1`.
    #[inline]
    pub fn cell_count(&self) -> usize {
        ((1u64 << (self.k + 1)) - 1) as usize
    }

    /// Number of segments on ring `i`: 1 for the inner disk, else `2^i`.
    ///
    /// # Panics
    ///
    /// Panics if `ring > k`.
    pub fn segments_on_ring(&self, ring: u32) -> u64 {
        assert!(ring <= self.k, "ring {ring} out of range");
        1u64 << ring
    }

    /// Radius of grid circle `i` (`0 ≤ i ≤ k`; index `k` is the boundary).
    ///
    /// # Panics
    ///
    /// Panics if `i > k`.
    #[inline]
    pub fn circle_radius(&self, i: u32) -> f64 {
        self.circle[i as usize]
    }

    /// The geometric region of cell `(ring, seg)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn segment(&self, ring: u32, seg: u64) -> RingSegment {
        assert!(ring <= self.k, "ring {ring} out of range");
        if ring == 0 {
            return RingSegment::disk(self.circle[0]);
        }
        let count = 1u64 << ring;
        assert!(seg < count, "segment {seg} out of range for ring {ring}");
        let width = TAU / count as f64;
        // Derive the upper angle from the next boundary index so adjacent
        // segments share boundaries exactly.
        let lo = seg as f64 * width;
        let hi = if seg + 1 == count {
            TAU
        } else {
            (seg + 1) as f64 * width
        };
        RingSegment::new(
            self.circle[ring as usize - 1],
            self.circle[ring as usize],
            lo,
            hi,
        )
    }

    /// The cell containing a polar point (radius must satisfy `r < ρ`;
    /// larger radii clamp to the outermost ring).
    pub fn cell_of(&self, p: &PolarPoint) -> (u32, u64) {
        omt_obs::obs_count!("grid2/cell_of");
        let ring = self.ring_of_radius(p.radius);
        if ring == 0 {
            return (0, 0);
        }
        let count = 1u64 << ring;
        let seg = ((p.angle / TAU) * count as f64) as u64;
        (ring, seg.min(count - 1))
    }

    /// The ring containing radius `r`, exactly consistent with
    /// [`PolarGrid2::circle_radius`] comparisons: 0 below circle 0, ring
    /// `i` on `[circle(i-1), circle(i))`, and radii at or beyond `ρ`
    /// clamped into ring `k`. The starting guess comes from the exponent
    /// bits of `(r/ρ)²` (no logarithm), and a walk against the circle table
    /// settles it.
    #[inline]
    pub fn ring_of_radius(&self, r: f64) -> u32 {
        locate_ring(&self.circle, 2, r)
    }

    /// The parent cell of `(ring, seg)` in the core tree, or `None` for the
    /// inner disk.
    pub fn parent(&self, ring: u32, seg: u64) -> Option<(u32, u64)> {
        assert!(ring <= self.k, "ring {ring} out of range");
        match ring {
            0 => None,
            1 => Some((0, 0)),
            _ => Some((ring - 1, seg / 2)),
        }
    }

    /// The two aligned children of `(ring, seg)` on the next ring, or
    /// `None` for outermost-ring cells.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radii_follow_sqrt2_progression() {
        let g = PolarGrid2::new(4, 1.0);
        for i in 0..4 {
            let ratio = g.circle_radius(i + 1) / g.circle_radius(i);
            assert!((ratio - 2f64.sqrt()).abs() < 1e-12);
        }
        assert!((g.circle_radius(4) - 1.0).abs() < 1e-15);
        assert!((g.circle_radius(0) - 0.25).abs() < 1e-12); // 2^(-2)
    }

    #[test]
    fn all_cells_have_equal_area() {
        let g = PolarGrid2::new(5, 2.0);
        let unit = core::f64::consts::PI * 4.0 * 2f64.powi(-6); // π ρ² 2^-(k+1)
                                                                // Inner disk counts as two cells.
        assert!((g.segment(0, 0).area() - 2.0 * unit).abs() < 1e-12);
        for ring in 1..=5 {
            for seg in [0u64, (1 << ring) - 1] {
                assert!(
                    (g.segment(ring, seg).area() - unit).abs() < 1e-12,
                    "ring {ring} seg {seg}"
                );
            }
        }
    }

    #[test]
    fn areas_sum_to_disk() {
        let g = PolarGrid2::new(4, 1.5);
        let mut total = g.segment(0, 0).area();
        for ring in 1..=4 {
            for seg in 0..(1u64 << ring) {
                total += g.segment(ring, seg).area();
            }
        }
        assert!((total - core::f64::consts::PI * 1.5 * 1.5).abs() < 1e-9);
    }

    #[test]
    fn cell_of_agrees_with_segment_containment() {
        let g = PolarGrid2::new(5, 1.0);
        // A deterministic sweep of points.
        for i in 0..50 {
            for j in 0..50 {
                let r = (i as f64 + 0.5) / 50.0;
                let t = (j as f64 + 0.5) / 50.0 * TAU;
                let p = PolarPoint::new(r, t);
                let (ring, seg) = g.cell_of(&p);
                assert!(
                    g.segment(ring, seg).contains(&p),
                    "point {p:?} assigned to ({ring},{seg})"
                );
            }
        }
    }

    #[test]
    fn ring_of_radius_boundaries() {
        let g = PolarGrid2::new(6, 1.0);
        for i in 0..=6u32 {
            let r = g.circle_radius(i);
            if i < 6 {
                // Exactly on circle i -> ring i+1 (half-open annuli).
                assert_eq!(g.ring_of_radius(r), i + 1, "circle {i}");
            } else {
                assert_eq!(g.ring_of_radius(r), 6);
            }
            if i > 0 {
                let just_in = r * (1.0 - 1e-12);
                assert_eq!(g.ring_of_radius(just_in), i, "just inside circle {i}");
            }
        }
        assert_eq!(g.ring_of_radius(0.0), 0);
        assert_eq!(g.ring_of_radius(5.0), 6); // clamped
    }

    #[test]
    fn parent_child_alignment() {
        let g = PolarGrid2::new(3, 1.0);
        assert_eq!(g.parent(0, 0), None);
        assert_eq!(g.parent(1, 1), Some((0, 0)));
        assert_eq!(g.parent(3, 5), Some((2, 2)));
        assert_eq!(g.children(0, 0), Some([(1, 0), (1, 1)]));
        assert_eq!(g.children(2, 3), Some([(3, 6), (3, 7)]));
        assert_eq!(g.children(3, 0), None);
        // Parent/children are inverse.
        for ring in 1..=3u32 {
            for seg in 0..(1u64 << ring) {
                let (pr, ps) = g.parent(ring, seg).unwrap();
                let kids = g.children(pr, ps).unwrap();
                assert!(kids.contains(&(ring, seg)));
            }
        }
    }

    #[test]
    fn children_cover_parent_angles() {
        let g = PolarGrid2::new(4, 1.0);
        for ring in 1..4u32 {
            for seg in 0..(1u64 << ring) {
                let parent = g.segment(ring, seg);
                let kids = g.children(ring, seg).unwrap();
                let a = g.segment(kids[0].0, kids[0].1);
                let b = g.segment(kids[1].0, kids[1].1);
                assert!((a.arc().lo() - parent.arc().lo()).abs() < 1e-12);
                assert!((b.arc().hi() - parent.arc().hi()).abs() < 1e-12);
                assert!((a.arc().hi() - b.arc().lo()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn k_zero_grid_is_single_disk() {
        let g = PolarGrid2::new(0, 1.0);
        assert_eq!(g.cell_count(), 1);
        assert_eq!(g.cell_of(&PolarPoint::new(0.5, 1.0)), (0, 0));
        assert!((g.segment(0, 0).r_hi() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn last_segment_reaches_tau() {
        let g = PolarGrid2::new(3, 1.0);
        let last = g.segment(3, 7);
        assert_eq!(last.arc().hi(), TAU);
        // A point with angle just under TAU lands in it.
        let p = PolarPoint::new(0.9, TAU - 1e-9);
        assert_eq!(g.cell_of(&p), (3, 7));
        assert!(last.contains(&p));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_rejects_bad_ring() {
        let g = PolarGrid2::new(2, 1.0);
        let _ = g.segment(3, 0);
    }
}
