//! Algorithm `Polar_Grid` (Section III of the paper): the asymptotically
//! optimal construction.
//!
//! The algorithm proceeds in three stages:
//!
//! 1. build an equal-area polar grid over the smallest disk centered at the
//!    source that covers all points, choosing the number of rings `k` as
//!    large as possible such that every *active* non-outermost cell is
//!    occupied (see [`crate::kselect`]);
//! 2. connect cell representatives in a binary core tree rooted at the
//!    source — each representative adopts the representatives of the two
//!    aligned cells on the next ring;
//! 3. connect the remaining points inside each cell with the bisection
//!    algorithm.
//!
//! With the 4-way bisection this yields out-degree ≤ 6 (2 core links +
//! 4 bisection links per representative); the out-degree-2 wiring of
//! Section IV-A threads the core through two designated in-cell points
//! instead. Because the source is the grid pole, the construction also
//! handles arbitrary convex regions with any interior source placement
//! (Section IV-C): the covering disk is built around the source, and the
//! active-cell rule tolerates the empty cells outside the region.
//!
//! The pipeline is the shared driver of [`crate::grid_builder`]; this
//! module holds the 2-D entry points and the polar grid's
//! [`CellGeometry`]: angle binning, the inner-arc target and the cell's
//! ring segment as a bisection box.

use core::f64::consts::TAU;

use omt_geom::{polar_row, Point2, PointStore2, PolarPoint};
use omt_tree::MulticastTree;

use crate::bisect::{ring_box, PolarBox};
use crate::bounds::upper_bound_eq7;
use crate::error::BuildError;
use crate::grid2::PolarGrid2;
use crate::grid_builder::{obs_names, CellGeometry, GridBuilder, ObsNames};
use crate::PolarGridReport;

/// Builder for the `Polar_Grid` algorithm: the 2-D [`GridBuilder`].
///
/// # Examples
///
/// ```
/// use omt_core::PolarGridBuilder;
/// use omt_geom::{Disk, Point2, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SmallRng::seed_from_u64(5);
/// let points = Disk::unit().sample_n(&mut rng, 2000);
/// let (tree, report) = PolarGridBuilder::new()
///     .max_out_degree(6)
///     .build_with_report(Point2::ORIGIN, &points)?;
/// tree.validate(Some(6))?;
/// assert!(report.delay <= report.bound);
/// assert!(report.delay >= report.lower_bound);
/// # Ok(())
/// # }
/// ```
pub type PolarGridBuilder = GridBuilder<2>;

impl Default for GridBuilder<2> {
    fn default() -> Self {
        Self::new()
    }
}

impl GridBuilder<2> {
    /// Creates a builder with the paper's defaults: out-degree 6,
    /// automatic ring selection, inner-arc-midpoint representatives.
    pub fn new() -> Self {
        Self::with_degree(6)
    }

    /// Builds the multicast tree.
    ///
    /// # Errors
    ///
    /// See [`PolarGridBuilder::build_with_report`].
    pub fn build(&self, source: Point2, points: &[Point2]) -> Result<MulticastTree<2>, BuildError> {
        self.build_with_report(source, points).map(|(t, _)| t)
    }

    /// Builds the multicast tree and returns the Table-I diagnostics.
    ///
    /// The points are copied into a [`PointStore2`] relative to `source`, on
    /// the build's thread count (inline for at most 65,536 points), and
    /// built by [`PolarGridBuilder::build_store_with_report`].
    ///
    /// # Errors
    ///
    /// In the order they are checked:
    ///
    /// * [`BuildError::DegreeTooSmall`] for out-degree budgets below 2;
    /// * [`BuildError::NonFiniteSource`] for a NaN or infinite source;
    /// * [`BuildError::TooManyPoints`] for more than
    ///   [`omt_tree::MAX_NODES`] points;
    /// * [`BuildError::NonFinitePoint`] for the first NaN or infinite
    ///   point;
    /// * [`BuildError::RadiusOverflow`] if the farthest point's distance
    ///   from the source overflows `f64`;
    /// * [`BuildError::InfeasibleRings`] if a [`GridBuilder::rings`]
    ///   override cannot keep every active interior cell occupied.
    pub fn build_with_report(
        &self,
        source: Point2,
        points: &[Point2],
    ) -> Result<(MulticastTree<2>, PolarGridReport), BuildError> {
        let store =
            PointStore2::from_points_on(source, points, self.threads_for(points.len()), polar_row);
        self.build_store_with_report(&store)
    }

    /// Builds the multicast tree from a structure-of-arrays point store
    /// (the million-scale path).
    ///
    /// # Errors
    ///
    /// See [`PolarGridBuilder::build_store_with_report`].
    pub fn build_store(&self, store: &PointStore2) -> Result<MulticastTree<2>, BuildError> {
        self.build_store_with_report(store).map(|(t, _)| t)
    }

    /// Builds the multicast tree from a structure-of-arrays point store and
    /// returns the Table-I diagnostics.
    ///
    /// This is the one construction path; the slice builders wrap it. The
    /// store's coordinate columns are borrowed by an arena builder
    /// ([`omt_tree::TreeArena`] — preallocated flat arrays, no per-node
    /// allocation), the cells are partitioned by a counting sort, and the
    /// per-cell bisections run in place on windows of the flat member
    /// array with explicit work stacks. The tree is bit-identical for
    /// every thread count; `tests/construction_golden.rs` pins it.
    ///
    /// # Errors
    ///
    /// The same conditions as [`PolarGridBuilder::build_with_report`], in
    /// the same order.
    ///
    /// # Examples
    ///
    /// ```
    /// use omt_core::PolarGridBuilder;
    /// use omt_geom::{Disk, Point2, PointStore2, Region};
    /// use omt_rng::rngs::SmallRng;
    /// use omt_rng::SeedableRng;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = SmallRng::seed_from_u64(5);
    /// let store = PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, 2000);
    /// let (tree, report) = PolarGridBuilder::new()
    ///     .max_out_degree(6)
    ///     .build_store_with_report(&store)?;
    /// tree.validate(Some(6))?;
    /// assert!(report.delay <= report.bound);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build_store_with_report(
        &self,
        store: &PointStore2,
    ) -> Result<(MulticastTree<2>, PolarGridReport), BuildError> {
        self.build_checked::<PolarGrid2>(store)
    }
}

impl CellGeometry<2> for PolarGrid2 {
    const FULL_DEGREE: u32 = 6;
    const OBS: ObsNames = obs_names!("polar_grid");

    fn new(k: u32, rho: f64) -> Self {
        PolarGrid2::new(k, rho)
    }

    fn bin(&self, [radius, angle]: [&[f64]; 2], base: usize, ring: &mut [u32], path: &mut [u32]) {
        let k = self.rings();
        let scale = (1u64 << k) as f64 / TAU;
        for j in 0..ring.len() {
            let i = base + j;
            ring[j] = self.ring_of_radius(radius[i]);
            path[j] = ((angle[i] * scale) as u64).min((1u64 << k) - 1) as u32;
        }
    }

    fn inner_mid(&self, ring: u32, seg: u64) -> Point2 {
        let cell = self.segment(ring, seg);
        PolarPoint::new(cell.r_lo(), cell.arc().mid()).to_cartesian()
    }

    /// The source-relative frame, read from the polar window.
    fn connector_point(win: [&[f64]; 2], _: [&[f64]; 2], _: &[u32], i: usize) -> Point2 {
        let [radius, angle] = win.map(|c| c[i]);
        PolarPoint { radius, angle }.to_cartesian()
    }

    fn pole(_source: Point2) -> Point2 {
        Point2::ORIGIN
    }

    fn cell_box(&self, ring: u32, seg: u64) -> PolarBox<2> {
        ring_box(&self.segment(ring, seg))
    }

    fn bound(&self, max_out_degree: u32) -> f64 {
        upper_bound_eq7(self.rings(), max_out_degree, self.rho())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RepStrategy;
    use omt_geom::{BoxRegion, Disk, Point, Region, Translated};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    fn disk_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Disk::unit().sample_n(&mut rng, n)
    }

    #[test]
    fn degree6_tree_is_valid_and_within_bounds() {
        for n in [1usize, 2, 3, 10, 100, 2000] {
            let pts = disk_points(n, n as u64);
            let (tree, report) = PolarGridBuilder::new()
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(6)).unwrap();
            assert!(
                report.delay <= report.bound + 1e-9,
                "n={n}: delay {} > bound {}",
                report.delay,
                report.bound
            );
            assert!(report.delay >= report.lower_bound - 1e-12);
            assert!((report.delay - tree.radius()).abs() < 1e-12);
        }
    }

    #[test]
    fn degree2_tree_is_valid_and_within_bounds() {
        for n in [1usize, 2, 3, 4, 10, 100, 2000] {
            let pts = disk_points(n, 50 + n as u64);
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(2)
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(2)).unwrap();
            assert!(
                report.delay <= report.bound + 1e-9,
                "n={n}: delay {} > bound {}",
                report.delay,
                report.bound
            );
        }
    }

    #[test]
    fn delay_converges_toward_lower_bound() {
        // Theorem 2: the radius approaches the optimum as n grows.
        let mut last_ratio = f64::INFINITY;
        for (n, seed) in [(100usize, 1u64), (1000, 2), (10_000, 3)] {
            let pts = disk_points(n, seed);
            let (_, report) = PolarGridBuilder::new()
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            let ratio = report.delay / report.lower_bound;
            assert!(
                ratio < last_ratio + 0.05,
                "n={n}: ratio {ratio} not shrinking"
            );
            last_ratio = ratio;
        }
        assert!(last_ratio < 1.2, "ratio at n=10000 is {last_ratio}");
    }

    #[test]
    fn rings_grow_logarithmically() {
        // Equation (5): k >= 1/2 log2 n with high probability.
        for (n, seed) in [(100usize, 7u64), (1000, 8), (10_000, 9)] {
            let pts = disk_points(n, seed);
            let (_, report) = PolarGridBuilder::new()
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            let floor = crate::bounds::min_rings_estimate(n as u64);
            assert!(
                report.rings >= floor,
                "n={n}: rings {} below eq-5 floor {floor}",
                report.rings
            );
            // And not absurdly large either (cells need points).
            assert!((1u64 << report.rings) <= 2 * n as u64 + 2);
        }
    }

    #[test]
    fn rings_override() {
        let pts = disk_points(500, 4);
        let (_, auto) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        // A smaller k is always feasible.
        let (tree, forced) = PolarGridBuilder::new()
            .rings(auto.rings - 1)
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        assert_eq!(forced.rings, auto.rings - 1);
        tree.validate(Some(6)).unwrap();
        // A much larger k is infeasible.
        let err = PolarGridBuilder::new()
            .rings(auto.rings + 5)
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap_err();
        assert!(matches!(err, BuildError::InfeasibleRings { .. }));
    }

    #[test]
    fn rings_zero_override_is_pure_bisection() {
        let pts = disk_points(200, 12);
        let (tree, report) = PolarGridBuilder::new()
            .rings(0)
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        assert_eq!(report.rings, 0);
        assert_eq!(report.cells, 1);
        tree.validate(Some(6)).unwrap();
    }

    #[test]
    fn rep_strategies_all_yield_valid_trees() {
        let pts = disk_points(800, 21);
        for strategy in [
            RepStrategy::MinRadius,
            RepStrategy::MaxRadius,
            RepStrategy::First,
        ] {
            for deg in [2, 6] {
                let tree = PolarGridBuilder::new()
                    .max_out_degree(deg)
                    .representative_strategy(strategy)
                    .build(Point2::ORIGIN, &pts)
                    .unwrap();
                tree.validate(Some(deg)).unwrap();
            }
        }
    }

    #[test]
    fn min_radius_reps_beat_max_radius_reps() {
        // The paper's rule should not be worse than the adversarial one on
        // average; check a single decently-sized instance.
        let pts = disk_points(5000, 33);
        let (_, good) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        let (_, bad) = PolarGridBuilder::new()
            .representative_strategy(RepStrategy::MaxRadius)
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        assert!(
            good.delay <= bad.delay * 1.05,
            "{} vs {}",
            good.delay,
            bad.delay
        );
    }

    #[test]
    fn degree_validation() {
        let pts = disk_points(10, 1);
        assert!(matches!(
            PolarGridBuilder::new()
                .max_out_degree(1)
                .build(Point2::ORIGIN, &pts),
            Err(BuildError::DegreeTooSmall { got: 1, min: 2 })
        ));
        for deg in [2, 3, 4, 5, 6, 7, 16] {
            let tree = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            tree.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn non_finite_rejected() {
        assert!(matches!(
            PolarGridBuilder::new().build(Point2::new([f64::NAN, 0.0]), &[]),
            Err(BuildError::NonFiniteSource)
        ));
        assert!(matches!(
            PolarGridBuilder::new().build(Point2::ORIGIN, &[Point2::new([1.0, f64::NAN])]),
            Err(BuildError::NonFinitePoint { index: 0 })
        ));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let (tree, report) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &[])
            .unwrap();
        assert!(tree.is_empty());
        assert_eq!(report.rings, 0);

        // All points at the source.
        let pts = vec![Point2::new([2.0, 2.0]); 25];
        let (tree, report) = PolarGridBuilder::new()
            .max_out_degree(2)
            .build_with_report(Point2::new([2.0, 2.0]), &pts)
            .unwrap();
        assert_eq!(tree.len(), 25);
        assert_eq!(tree.radius(), 0.0);
        assert_eq!(report.delay, 0.0);
        tree.validate(Some(2)).unwrap();
    }

    #[test]
    fn duplicated_points_terminate_and_validate() {
        let mut pts = disk_points(50, 5);
        let dup = pts[7];
        pts.extend(std::iter::repeat_n(dup, 40));
        for deg in [2, 6] {
            let tree = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), 90);
            tree.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn offset_source_in_disk() {
        // Arbitrary source placement inside the region (Section IV-C).
        let pts = disk_points(3000, 17);
        let source = Point2::new([0.4, -0.3]);
        for deg in [2, 6] {
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build_with_report(source, &pts)
                .unwrap();
            tree.validate(Some(deg)).unwrap();
            assert!(report.delay <= report.bound + 1e-9);
            // Still near-optimal: within 2x of the covering radius.
            assert!(report.delay <= 2.0 * report.lower_bound);
        }
    }

    #[test]
    fn square_region_with_corner_source() {
        // Convex region, source near a corner: most of the covering disk is
        // empty, exercising the active-cell rule.
        let mut rng = SmallRng::seed_from_u64(88);
        let square = BoxRegion::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        let pts = square.sample_n(&mut rng, 4000);
        let source = Point2::new([0.05, 0.05]);
        for deg in [2, 6] {
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build_with_report(source, &pts)
                .unwrap();
            tree.validate(Some(deg)).unwrap();
            assert!(report.delay <= report.bound + 1e-9);
            assert!(
                report.delay <= 2.0 * report.lower_bound,
                "deg {deg}: delay {} vs lb {}",
                report.delay,
                report.lower_bound
            );
        }
    }

    #[test]
    fn translated_region_far_from_origin() {
        // The grid pole is the source, wherever it is in absolute terms.
        let mut rng = SmallRng::seed_from_u64(3);
        let region = Translated::new(Disk::unit(), Point2::new([100.0, -50.0]));
        let pts = region.sample_n(&mut rng, 1000);
        let (tree, report) = PolarGridBuilder::new()
            .build_with_report(Point2::new([100.0, -50.0]), &pts)
            .unwrap();
        tree.validate(Some(6)).unwrap();
        assert!(report.delay <= report.bound + 1e-9);
        assert!(report.lower_bound <= 1.0 + 1e-9);
    }

    #[test]
    fn report_cell_accounting() {
        let pts = disk_points(1000, 2);
        let (_, report) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        assert_eq!(report.cells, (1usize << (report.rings + 1)) - 1);
        assert!(report.occupied_cells <= report.cells);
        // Interior cells are all occupied, so at least 2^k - 1 cells are.
        assert!(report.occupied_cells >= (1usize << report.rings) - 1);
        assert!(report.core_delay <= report.delay + 1e-12);
    }

    #[test]
    fn clustered_input_far_from_source() {
        // A tight cluster at distance 1: optimal radius ~1; the algorithm
        // must cope with almost every cell being inactive.
        let mut rng = SmallRng::seed_from_u64(14);
        let cluster = Translated::new(Disk::new(Point2::ORIGIN, 0.01), Point2::new([1.0, 0.0]));
        let pts = cluster.sample_n(&mut rng, 500);
        for deg in [2, 6] {
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            tree.validate(Some(deg)).unwrap();
            assert!(
                report.delay < 1.25,
                "deg {deg}: cluster delay {}",
                report.delay
            );
        }
    }

    #[test]
    fn deterministic_given_same_input() {
        let pts = disk_points(500, 77);
        let t1 = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
        let t2 = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn builder_is_reusable_and_default() {
        let b = PolarGridBuilder::default();
        let pts = disk_points(50, 6);
        let _ = b.build(Point2::ORIGIN, &pts).unwrap();
        let _ = b.build(Point2::ORIGIN, &pts).unwrap();
    }
}
