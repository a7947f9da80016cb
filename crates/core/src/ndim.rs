//! General-dimension `Polar_Grid` (Section IV-B sketches this; the paper
//! only evaluates d = 2, 3 and remarks "the details of equal volume split
//! become tedious").
//!
//! We make the split exact in any dimension with the *quantile trick*: in
//! hyperspherical coordinates `(r, φ_1, …, φ_{D-1})` the volume element
//! factorizes as `r^{D-1} dr · sin^{D-2}φ_1 dφ_1 ⋯ sin φ_{D-2} dφ_{D-2} ·
//! dφ_{D-1}`, so
//!
//! * rings of equal volume use radii growing by `2^{1/D}`;
//! * each polar angle `φ_j` is measured through its own CDF
//!   `F_m(x) = ∫_0^x sin^m t dt` (closed form by the standard reduction
//!   formula), which maps it to a uniform quantile in `[0, 1)`;
//! * the azimuth `φ_{D-1}` is already uniform.
//!
//! Binary angular splits then cut exact measure-halves by halving quantile
//! intervals, and a point's angular bit path is just the interleaved binary
//! digits of its per-axis quantiles — the same level-independent encoding
//! the 2-D and 3-D grids use, so ring selection is shared.
//!
//! The pipeline is the shared driver of [`crate::grid_builder`], with
//! least-radius representatives and the degree-2 wiring of Section IV-A
//! only: this module holds the quantile row transform and the grid's
//! [`CellGeometry`]. The in-cell bisection is the binary kernel of
//! [`crate::bisect`] (axes cycling radius → quantile axes), with carriers
//! picked by closeness to the inner radius of the box being split. Any
//! out-degree budget ≥ 2 is supported; the emitted tree always has
//! out-degree ≤ 2.

use omt_geom::{Point, PointStore};
use omt_tree::MulticastTree;

use crate::bisect::{Anchor, PolarBox};
use crate::error::BuildError;
use crate::grid_builder::{obs_names, CellGeometry, GridBuilder, ObsNames};
use crate::kselect::{locate_ring, shells};
use crate::RepStrategy;

/// `F_m(x) = ∫_0^x sin^m t dt` via the reduction formula
/// `m·F_m(x) = -cos x · sin^{m-1} x + (m-1)·F_{m-2}(x)`.
fn sin_power_integral(m: u32, x: f64) -> f64 {
    match m {
        0 => x,
        1 => 1.0 - x.cos(),
        _ => {
            let s = x.sin();
            (-x.cos() * s.powi(m as i32 - 1) + (m - 1) as f64 * sin_power_integral(m - 2, x))
                / m as f64
        }
    }
}

/// The grid coordinates of the source-relative vector `v`: its radius,
/// then one quantile in `[0, 1)` per angular axis.
pub(crate) fn quant_row<const D: usize>(v: &Point<D>) -> [f64; D] {
    let mut row = [0.0; D];
    row[0] = v.norm();
    // Residual squared norm of coordinates j.. (suffix sums).
    let mut suffix = [0.0f64; D];
    let mut acc = 0.0;
    for j in (0..D).rev() {
        acc += v[j] * v[j];
        suffix[j] = acc;
    }
    // Polar angles φ_1..φ_{D-2} with sin-power densities.
    for j in 0..D.saturating_sub(2) {
        let tail = suffix[j + 1].max(0.0).sqrt();
        let phi = tail.atan2(v[j]); // in [0, π]
        let m = (D - 2 - j) as u32;
        let q = sin_power_integral(m, phi) / sin_power_integral(m, core::f64::consts::PI);
        row[1 + j] = q.clamp(0.0, 1.0 - 1e-15);
    }
    // Azimuth φ_{D-1}: uniform in [0, 2π).
    let az = omt_geom::normalize_angle(v[D - 1].atan2(v[D - 2]));
    row[D - 1] = (az / core::f64::consts::TAU).clamp(0.0, 1.0 - 1e-15);
    row
}

/// The angular bit path of row `i` of the grid columns `polar` at level
/// `k`: bit `ℓ` (MSB-first) is the next binary digit of the quantile on
/// axis `ℓ mod (D-1)`.
fn angular_path<const D: usize>(polar: [&[f64]; D], i: usize, k: u32) -> u64 {
    let mut counts = [0i32; D];
    let mut path = 0u64;
    for l in 0..k as usize {
        let a = 1 + l % (D - 1);
        counts[a] += 1;
        // Binary digit `counts[a]` of the quantile's binary expansion.
        let digit = (polar[a][i] * 2f64.powi(counts[a])) as u64 & 1;
        path = (path << 1) | digit;
    }
    path
}

/// The `k`-ring quantile grid over the covering `D`-ball of radius `rho`:
/// ring `i` lies between shells `i - 1` and `i` (ring 0 is the inner
/// ball), and its `2^i` cells halve the quantile axes in turn.
pub(crate) struct NdGrid<const D: usize> {
    k: u32,
    shells: Vec<f64>,
}

impl<const D: usize> CellGeometry<D> for NdGrid<D> {
    /// No budget reaches a full-degree construction: every build runs the
    /// degree-2 wiring.
    const FULL_DEGREE: u32 = u32::MAX;
    const OBS: ObsNames = obs_names!("nd_grid");

    fn new(k: u32, rho: f64) -> Self {
        Self {
            k,
            shells: shells::<D>(k, rho),
        }
    }

    fn bin(&self, polar: [&[f64]; D], base: usize, ring: &mut [u32], path: &mut [u32]) {
        for j in 0..ring.len() {
            let i = base + j;
            ring[j] = locate_ring(&self.shells, D as i32, polar[0][i]);
            path[j] = angular_path(polar, i, self.k) as u32;
        }
    }

    /// Never called: the n-D builder picks least-radius representatives.
    /// Returns the origin rather than panicking.
    fn inner_mid(&self, _ring: u32, _seg: u64) -> Point<D> {
        Point::ORIGIN
    }

    /// The connector pick measures distance between the input points
    /// themselves.
    fn connector_point(_win: [&[f64]; D], coords: [&[f64]; D], ids: &[u32], i: usize) -> Point<D> {
        Point::new(core::array::from_fn(|d| coords[d][ids[i] as usize]))
    }

    fn pole(source: Point<D>) -> Point<D> {
        source
    }

    /// The box of cell `(ring, seg)` in grid coordinates: the radius
    /// interval, then one quantile interval per angular axis.
    fn cell_box(&self, ring: u32, seg: u64) -> PolarBox<D> {
        let mut cell = [(0.0, 1.0); D];
        let r_lo = if ring == 0 {
            0.0
        } else {
            self.shells[ring as usize - 1]
        };
        cell[0] = (r_lo, self.shells[ring as usize]);
        for l in 0..ring {
            let a = 1 + (l as usize) % (D - 1);
            let mid = 0.5 * (cell[a].0 + cell[a].1);
            if (seg >> (ring - 1 - l)) & 1 == 1 {
                cell[a].0 = mid;
            } else {
                cell[a].1 = mid;
            }
        }
        cell
    }

    /// Carriers closest to the inner radius of the box being split, the
    /// rule the n-D trees are pinned with (a stand-in for the local
    /// source's radius; exactness is not needed for validity).
    fn anchor(_q: f64) -> Anchor {
        Anchor::InnerRadius
    }

    /// [`NdGridReport`] carries no analytic bound.
    fn bound(&self, _max_out_degree: u32) -> f64 {
        0.0
    }
}

/// Report of an [`NdGridBuilder`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct NdGridReport {
    /// The number of grid rings `k`.
    pub rings: u32,
    /// The longest source-to-receiver delay in the tree.
    pub delay: f64,
    /// The trivial lower bound: the largest direct source-to-point distance.
    pub lower_bound: f64,
    /// Total number of grid cells, `2^(k+1) - 1`.
    pub cells: usize,
    /// Number of cells containing at least one point.
    pub occupied_cells: usize,
}

/// Builder for the general-dimension `Polar_Grid` algorithm (`D ≥ 2`).
///
/// For `D = 2` and `D = 3` prefer [`crate::PolarGridBuilder`] and
/// [`crate::SphereGridBuilder`], which implement the exact paper
/// constructions with their analytic bounds; this builder exists for
/// higher-dimensional embeddings (the GNP coordinates of the paper's
/// motivation use dimension "3 and above").
///
/// # Examples
///
/// ```
/// use omt_core::NdGridBuilder;
/// use omt_geom::{Ball, Point, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SmallRng::seed_from_u64(2);
/// let hosts = Ball::<4>::unit().sample_n(&mut rng, 500);
/// let tree = NdGridBuilder::new().build(Point::ORIGIN, &hosts)?;
/// tree.validate(Some(2))?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NdGridBuilder {
    max_out_degree: u32,
    rings_override: Option<u32>,
}

impl Default for NdGridBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NdGridBuilder {
    /// Creates a builder with out-degree budget 2 and automatic ring
    /// selection.
    pub fn new() -> Self {
        Self {
            max_out_degree: 2,
            rings_override: None,
        }
    }

    /// Sets the out-degree budget (any value ≥ 2; the construction emits
    /// out-degree ≤ 2 regardless, so larger budgets are slack).
    #[must_use]
    pub fn max_out_degree(mut self, budget: u32) -> Self {
        self.max_out_degree = budget;
        self
    }

    /// Forces a specific number of rings. Fails at build time if
    /// infeasible.
    #[must_use]
    pub fn rings(mut self, k: u32) -> Self {
        self.rings_override = Some(k);
        self
    }

    /// Builds the multicast tree over `D`-dimensional points.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`PolarGridBuilder::build_with_report`](crate::PolarGridBuilder::build_with_report),
    /// in the same order.
    pub fn build<const D: usize>(
        &self,
        source: Point<D>,
        points: &[Point<D>],
    ) -> Result<MulticastTree<D>, BuildError> {
        self.build_with_report(source, points).map(|(t, _)| t)
    }

    /// Builds the multicast tree and returns diagnostics.
    ///
    /// The points are copied into columns — Cartesian, plus radius and
    /// angular quantiles relative to `source` — and built by the shared
    /// grid driver at out-degree 2 with least-radius representatives. The
    /// tree is bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NdGridBuilder::build`].
    pub fn build_with_report<const D: usize>(
        &self,
        source: Point<D>,
        points: &[Point<D>],
    ) -> Result<(MulticastTree<D>, NdGridReport), BuildError> {
        assert!(D >= 2, "NdGridBuilder needs dimension >= 2");
        if self.max_out_degree < 2 {
            return Err(BuildError::DegreeTooSmall {
                got: self.max_out_degree,
                min: 2,
            });
        }
        let mut driver =
            GridBuilder::<D>::with_degree(2).representative_strategy(RepStrategy::MinRadius);
        if let Some(k) = self.rings_override {
            driver = driver.rings(k);
        }
        let store = {
            let _store_span = omt_obs::obs_span!("nd_grid/store");
            let threads = driver.threads_for(points.len());
            PointStore::from_points_on(source, points, threads, quant_row)
        };
        let (tree, report) = driver.build_checked::<NdGrid<D>>(&store)?;
        Ok((
            tree,
            NdGridReport {
                rings: report.rings,
                delay: report.delay,
                lower_bound: report.lower_bound,
                cells: report.cells,
                occupied_cells: report.occupied_cells,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Ball, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    #[test]
    fn sin_power_integral_known_values() {
        use core::f64::consts::PI;
        assert!((sin_power_integral(0, PI) - PI).abs() < 1e-12);
        assert!((sin_power_integral(1, PI) - 2.0).abs() < 1e-12);
        // ∫ sin² over [0, π] = π/2; ∫ sin³ = 4/3.
        assert!((sin_power_integral(2, PI) - PI / 2.0).abs() < 1e-12);
        assert!((sin_power_integral(3, PI) - 4.0 / 3.0).abs() < 1e-12);
        // Monotone in x.
        for m in 0..5 {
            assert!(sin_power_integral(m, 1.0) < sin_power_integral(m, 2.0));
        }
    }

    #[test]
    fn quantiles_are_uniform_for_uniform_directions() {
        // For points uniform in a ball, every angular quantile must be
        // uniform in [0,1): check first and second moments per axis.
        let mut rng = SmallRng::seed_from_u64(1);
        let pts = Ball::<4>::unit().sample_n(&mut rng, 20_000);
        let store = PointStore::from_points_on(Point::ORIGIN, &pts, 1, quant_row);
        for axis in 0..3 {
            let vals = store.grid()[1 + axis];
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            assert!((mean - 0.5).abs() < 0.01, "axis {axis} mean {mean}");
            assert!((var - 1.0 / 12.0).abs() < 0.005, "axis {axis} var {var}");
        }
    }

    /// The quantile fill over more than two chunks gives the same columns
    /// on one thread and three, each point verbatim and its `quant_row`
    /// bit for bit; non-finite points are stored as they are.
    #[test]
    fn store_fill_is_the_same_on_every_thread_count() {
        use omt_geom::SOA_CHUNK;
        let mut rng = SmallRng::seed_from_u64(4);
        let mut pts = Ball::<4>::unit().sample_n(&mut rng, 2 * SOA_CHUNK + 1000);
        pts[SOA_CHUNK + 1][2] = f64::NAN;
        pts[2 * SOA_CHUNK + 7][0] = f64::NEG_INFINITY;
        let source = Point::new([0.1, -0.2, 0.0, 0.3]);
        let inline = PointStore::from_points_on(source, &pts, 1, quant_row);
        let threaded = PointStore::from_points_on(source, &pts, 3, quant_row);
        for (i, p) in pts.iter().enumerate() {
            let row = quant_row(&(*p - source));
            for store in [&inline, &threaded] {
                for d in 0..4 {
                    assert_eq!(store.coords()[d][i].to_bits(), p[d].to_bits(), "row {i}");
                    assert_eq!(store.grid()[d][i].to_bits(), row[d].to_bits(), "row {i}");
                }
            }
        }
    }

    #[test]
    fn builds_valid_trees_in_dimension_4_and_5() {
        let mut rng = SmallRng::seed_from_u64(3);
        for n in [1usize, 5, 100, 2000] {
            let pts = Ball::<4>::unit().sample_n(&mut rng, n);
            let (tree, report) = NdGridBuilder::new()
                .build_with_report(Point::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(2)).unwrap();
            assert!(report.delay >= report.lower_bound - 1e-12);
        }
        let pts = Ball::<5>::unit().sample_n(&mut rng, 1000);
        let tree = NdGridBuilder::new().build(Point::ORIGIN, &pts).unwrap();
        tree.validate(Some(2)).unwrap();
    }

    #[test]
    fn two_dimensional_case_agrees_with_paper_structure() {
        // In D = 2 the quantile grid degenerates to the polar grid (one
        // uniform angular axis); sanity-check validity and quality.
        let mut rng = SmallRng::seed_from_u64(7);
        let pts = Ball::<2>::unit().sample_n(&mut rng, 3000);
        let (tree, report) = NdGridBuilder::new()
            .build_with_report(Point::ORIGIN, &pts)
            .unwrap();
        tree.validate(Some(2)).unwrap();
        assert!(report.delay < 2.0 * report.lower_bound);
        assert!(report.rings >= 4);
    }

    #[test]
    fn delay_converges_in_dimension_4() {
        let mut ratios = Vec::new();
        for (n, seed) in [(500usize, 1u64), (5000, 2), (50_000, 3)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let pts = Ball::<4>::unit().sample_n(&mut rng, n);
            let (_, report) = NdGridBuilder::new()
                .build_with_report(Point::ORIGIN, &pts)
                .unwrap();
            ratios.push(report.delay / report.lower_bound);
        }
        assert!(ratios[2] < ratios[0], "no convergence in 4-D: {ratios:?}");
    }

    #[test]
    fn errors_and_degenerates() {
        let pts = vec![Point::<4>::new([0.1, 0.2, 0.3, 0.4])];
        assert!(matches!(
            NdGridBuilder::new()
                .max_out_degree(1)
                .build(Point::ORIGIN, &pts),
            Err(BuildError::DegreeTooSmall { .. })
        ));
        let (tree, _) = NdGridBuilder::new()
            .build_with_report::<4>(Point::ORIGIN, &[])
            .unwrap();
        assert!(tree.is_empty());
        let dup = vec![Point::<4>::new([1.0, 0.0, 0.0, 0.0]); 20];
        let tree = NdGridBuilder::new().build(Point::ORIGIN, &dup).unwrap();
        assert_eq!(tree.len(), 20);
        tree.validate(Some(2)).unwrap();
        let all_source = vec![Point::<4>::ORIGIN; 10];
        let tree = NdGridBuilder::new()
            .build(Point::ORIGIN, &all_source)
            .unwrap();
        assert_eq!(tree.radius(), 0.0);
    }

    #[test]
    fn rings_override_nd() {
        let mut rng = SmallRng::seed_from_u64(9);
        let pts = Ball::<4>::unit().sample_n(&mut rng, 2000);
        let (_, auto) = NdGridBuilder::new()
            .build_with_report(Point::ORIGIN, &pts)
            .unwrap();
        assert!(auto.rings >= 1);
        let (tree, forced) = NdGridBuilder::new()
            .rings(auto.rings - 1)
            .build_with_report(Point::ORIGIN, &pts)
            .unwrap();
        assert_eq!(forced.rings, auto.rings - 1);
        tree.validate(Some(2)).unwrap();
        assert!(matches!(
            NdGridBuilder::new()
                .rings(auto.rings + 8)
                .build(Point::ORIGIN, &pts),
            Err(BuildError::InfeasibleRings { .. })
        ));
    }

    #[test]
    fn angular_path_prefix_property() {
        // Row 1 of the columns: radius 1, quantiles 0.7, 0.3, 0.9.
        let polar: [&[f64]; 4] = [&[0.5, 1.0], &[0.1, 0.7], &[0.2, 0.3], &[0.4, 0.9]];
        // The path at level k must be a prefix of the path at level k+1
        // restricted to shared splits.
        let p6 = angular_path(polar, 1, 6);
        let p3 = angular_path(polar, 1, 3);
        assert_eq!(p6 >> 3, p3);
        // 0.7, 0.3, 0.9 start with binary digits 1, 0, 1; then 0, 1, 1.
        assert_eq!(p6, 0b101_011);
    }
}
