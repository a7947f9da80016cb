//! The three-dimensional `Polar_Grid` (Section IV-B, evaluated in
//! Figure 8): spherical shells of equal volume, a binary core tree over
//! cell representatives, and 8-way bisection inside cells — out-degree 10
//! (2 core + 8 bisection links), or the degree-2 wiring.
//!
//! The pipeline is the shared driver of [`crate::grid_builder`]; this
//! module holds the 3-D entry points and the spherical grid's
//! [`CellGeometry`].

use omt_geom::{spherical_row, Point3, PointStore3, SphericalPoint};
use omt_tree::MulticastTree;

use crate::bisect::PolarBox;
use crate::error::BuildError;
use crate::grid3::SphereGrid3;
use crate::grid_builder::{obs_names, CellGeometry, GridBuilder, ObsNames};
use crate::PolarGridReport;

/// Builder for the 3-D `Polar_Grid` algorithm over points in a ball: the
/// 3-D [`GridBuilder`].
///
/// Budgets of 10 and above use the degree-10 construction of the paper
/// (2 core links + 8 octant-bisection links per representative); budgets
/// 2–9 use the degree-2 wiring of Section IV-A with a binary in-cell
/// bisection.
///
/// # Examples
///
/// ```
/// use omt_core::SphereGridBuilder;
/// use omt_geom::{Ball, Point3, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SmallRng::seed_from_u64(5);
/// let hosts = Ball::<3>::unit().sample_n(&mut rng, 3000);
/// let (tree, report) = SphereGridBuilder::new()
///     .build_with_report(Point3::ORIGIN, &hosts)?;
/// tree.validate(Some(10))?;
/// assert!(report.delay >= report.lower_bound);
/// # Ok(())
/// # }
/// ```
pub type SphereGridBuilder = GridBuilder<3>;

impl Default for GridBuilder<3> {
    fn default() -> Self {
        Self::new()
    }
}

impl GridBuilder<3> {
    /// Creates a builder with the paper's 3-D defaults: out-degree 10,
    /// automatic ring selection, inner-boundary-midpoint representatives.
    pub fn new() -> Self {
        Self::with_degree(10)
    }

    /// Builds the multicast tree.
    ///
    /// # Errors
    ///
    /// See [`SphereGridBuilder::build_with_report`].
    pub fn build(&self, source: Point3, points: &[Point3]) -> Result<MulticastTree<3>, BuildError> {
        self.build_with_report(source, points).map(|(t, _)| t)
    }

    /// Builds the multicast tree and returns the diagnostics.
    ///
    /// The points are copied into a [`PointStore3`] relative to `source`, on
    /// the build's thread count (inline for at most 65,536 points), and
    /// built by [`SphereGridBuilder::build_store_with_report`].
    ///
    /// The report's `bound` field is the 3-D analogue of equation (7):
    /// `ρ + c·D_0 + Σ_{i=1}^{k-1} D_i`, where `D_i` is the largest angular
    /// diameter of a ring-`i` cell and `c` is 2 (degree ≥ 10) or 4
    /// (degree-2 wiring).
    ///
    /// # Errors
    ///
    /// Same conditions, in the same order, as
    /// [`PolarGridBuilder::build_with_report`](crate::PolarGridBuilder::build_with_report),
    /// including [`BuildError::TooManyPoints`] for more than
    /// [`omt_tree::MAX_NODES`] points and [`BuildError::RadiusOverflow`]
    /// for points too far from the source to measure.
    pub fn build_with_report(
        &self,
        source: Point3,
        points: &[Point3],
    ) -> Result<(MulticastTree<3>, PolarGridReport), BuildError> {
        let store = PointStore3::from_points_on(
            source,
            points,
            self.threads_for(points.len()),
            spherical_row,
        );
        self.build_store_with_report(&store)
    }

    /// Builds the multicast tree from a structure-of-arrays point store
    /// (the million-scale path).
    ///
    /// # Errors
    ///
    /// See [`SphereGridBuilder::build_store_with_report`].
    pub fn build_store(&self, store: &PointStore3) -> Result<MulticastTree<3>, BuildError> {
        self.build_store_with_report(store).map(|(t, _)| t)
    }

    /// Builds the multicast tree from a structure-of-arrays point store and
    /// returns the diagnostics.
    ///
    /// The 3-D analogue of
    /// [`PolarGridBuilder::build_store_with_report`](crate::PolarGridBuilder::build_store_with_report),
    /// through the same driver: arena tree construction over the store's
    /// borrowed coordinate columns, counting-sort cell partition, in-place
    /// window bisections. The tree is bit-identical for every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SphereGridBuilder::build_with_report`], in the
    /// same order.
    ///
    /// # Examples
    ///
    /// ```
    /// use omt_core::SphereGridBuilder;
    /// use omt_geom::{Ball, Point3, PointStore3, Region};
    /// use omt_rng::rngs::SmallRng;
    /// use omt_rng::SeedableRng;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = SmallRng::seed_from_u64(5);
    /// let store =
    ///     PointStore3::sample_region(Point3::ORIGIN, &Ball::<3>::unit(), &mut rng, 3000);
    /// let (tree, report) = SphereGridBuilder::new().build_store_with_report(&store)?;
    /// tree.validate(Some(10))?;
    /// assert!(report.delay <= report.bound);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build_store_with_report(
        &self,
        store: &PointStore3,
    ) -> Result<(MulticastTree<3>, PolarGridReport), BuildError> {
        self.build_checked::<SphereGrid3>(store)
    }
}

/// Row `i` of the spherical columns `polar`.
fn spherical(polar: [&[f64]; 3], i: usize) -> SphericalPoint {
    let [radius, azimuth, cos_polar] = polar.map(|c| c[i]);
    SphericalPoint {
        radius,
        azimuth,
        cos_polar,
    }
}

impl CellGeometry<3> for SphereGrid3 {
    const FULL_DEGREE: u32 = 10;
    const OBS: ObsNames = obs_names!("sphere_grid");

    fn new(k: u32, rho: f64) -> Self {
        SphereGrid3::new(k, rho)
    }

    fn bin(&self, polar: [&[f64]; 3], base: usize, ring: &mut [u32], path: &mut [u32]) {
        for j in 0..ring.len() {
            let i = base + j;
            ring[j] = self.ring_of_radius(polar[0][i]);
            path[j] = self.angular_path(&spherical(polar, i)) as u32;
        }
    }

    fn inner_mid(&self, ring: u32, seg: u64) -> Point3 {
        let cell = self.cell(ring, seg);
        let (z_lo, z_hi) = cell.z_range();
        SphericalPoint::new(cell.r_lo(), cell.arc().mid(), 0.5 * (z_lo + z_hi)).to_cartesian()
    }

    /// The source-relative frame, read from the spherical window.
    fn connector_point(win: [&[f64]; 3], _: [&[f64]; 3], _: &[u32], i: usize) -> Point3 {
        spherical(win, i).to_cartesian()
    }

    fn pole(_source: Point3) -> Point3 {
        Point3::ORIGIN
    }

    fn cell_box(&self, ring: u32, seg: u64) -> PolarBox<3> {
        let cell = self.cell(ring, seg);
        let arc = cell.arc();
        [
            (cell.r_lo(), cell.r_hi()),
            (arc.lo(), arc.hi()),
            cell.z_range(),
        ]
    }

    fn bound(&self, max_out_degree: u32) -> f64 {
        let full = max_out_degree >= Self::FULL_DEGREE;
        let c = if full { 2.0 } else { 4.0 };
        let mut bound = self.rho() + c * self.max_angular_diameter(0);
        for i in 1..self.rings() {
            bound += self.max_angular_diameter(i);
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Ball, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    fn ball_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Ball::<3>::unit().sample_n(&mut rng, n)
    }

    #[test]
    fn degree10_tree_is_valid_and_within_bounds() {
        for n in [1usize, 2, 10, 100, 3000] {
            let pts = ball_points(n, n as u64);
            let (tree, report) = SphereGridBuilder::new()
                .build_with_report(Point3::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(10)).unwrap();
            assert!(
                report.delay <= report.bound + 1e-9,
                "n={n}: delay {} > bound {}",
                report.delay,
                report.bound
            );
            assert!(report.delay >= report.lower_bound - 1e-12);
        }
    }

    #[test]
    fn degree2_tree_is_valid() {
        for n in [1usize, 3, 50, 1500] {
            let pts = ball_points(n, 31 + n as u64);
            let (tree, report) = SphereGridBuilder::new()
                .max_out_degree(2)
                .build_with_report(Point3::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(2)).unwrap();
            assert!(report.delay <= report.bound + 1e-9);
        }
    }

    #[test]
    fn delay_converges_toward_lower_bound() {
        let mut ratios = Vec::new();
        for (n, seed) in [(200usize, 1u64), (2000, 2), (20_000, 3)] {
            let pts = ball_points(n, seed);
            let (_, report) = SphereGridBuilder::new()
                .build_with_report(Point3::ORIGIN, &pts)
                .unwrap();
            ratios.push(report.delay / report.lower_bound);
        }
        // Convergence in 3-D is markedly slower than in 2-D (the paper's
        // Figure 8 observation); require monotone improvement and a sane
        // absolute level at n = 20k.
        assert!(ratios[0] > ratios[1] && ratios[1] > ratios[2], "{ratios:?}");
        assert!(ratios[2] < 2.5, "{ratios:?}");
    }

    #[test]
    fn three_d_converges_slower_than_two_d() {
        // Figure 8's observation: at equal n, the 3-D delay exceeds the
        // 2-D delay because points are sparser per unit volume.
        use crate::polar_grid::PolarGridBuilder;
        use omt_geom::{Disk, Point2};
        let n = 5000;
        let mut rng = SmallRng::seed_from_u64(4);
        let pts2 = Disk::unit().sample_n(&mut rng, n);
        let (_, r2) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &pts2)
            .unwrap();
        let pts3 = ball_points(n, 4);
        let (_, r3) = SphereGridBuilder::new()
            .build_with_report(Point3::ORIGIN, &pts3)
            .unwrap();
        assert!(
            r3.delay / r3.lower_bound > r2.delay / r2.lower_bound,
            "3-D {} vs 2-D {}",
            r3.delay / r3.lower_bound,
            r2.delay / r2.lower_bound
        );
    }

    #[test]
    fn intermediate_budgets_use_degree2_wiring() {
        let pts = ball_points(500, 9);
        for deg in [2u32, 5, 9] {
            let tree = SphereGridBuilder::new()
                .max_out_degree(deg)
                .build(Point3::ORIGIN, &pts)
                .unwrap();
            assert!(tree.max_out_degree() <= 2);
            tree.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn offset_source_and_errors() {
        let pts = ball_points(2000, 11);
        let source = Point3::new([0.3, -0.2, 0.1]);
        let (tree, report) = SphereGridBuilder::new()
            .build_with_report(source, &pts)
            .unwrap();
        tree.validate(Some(10)).unwrap();
        assert!(report.delay <= report.bound + 1e-9);

        assert!(matches!(
            SphereGridBuilder::new()
                .max_out_degree(1)
                .build(Point3::ORIGIN, &pts),
            Err(BuildError::DegreeTooSmall { .. })
        ));
        assert!(matches!(
            SphereGridBuilder::new().build(Point3::new([f64::NAN, 0.0, 0.0]), &pts),
            Err(BuildError::NonFiniteSource)
        ));
    }

    #[test]
    fn degenerate_inputs() {
        let (tree, _) = SphereGridBuilder::new()
            .build_with_report(Point3::ORIGIN, &[])
            .unwrap();
        assert!(tree.is_empty());
        let pts = vec![Point3::new([1.0, 1.0, 1.0]); 30];
        let (tree, report) = SphereGridBuilder::new()
            .max_out_degree(2)
            .build_with_report(Point3::new([1.0, 1.0, 1.0]), &pts)
            .unwrap();
        assert_eq!(tree.radius(), 0.0);
        assert_eq!(report.delay, 0.0);
        tree.validate(Some(2)).unwrap();
    }

    #[test]
    fn rings_override_3d() {
        let pts = ball_points(1000, 14);
        let (_, auto) = SphereGridBuilder::new()
            .build_with_report(Point3::ORIGIN, &pts)
            .unwrap();
        assert!(auto.rings >= 1);
        let (tree, forced) = SphereGridBuilder::new()
            .rings(auto.rings - 1)
            .build_with_report(Point3::ORIGIN, &pts)
            .unwrap();
        assert_eq!(forced.rings, auto.rings - 1);
        tree.validate(Some(10)).unwrap();
        assert!(matches!(
            SphereGridBuilder::new()
                .rings(auto.rings + 6)
                .build(Point3::ORIGIN, &pts),
            Err(BuildError::InfeasibleRings { .. })
        ));
    }
}
