//! The minimum-diameter variant (the paper's conclusion): minimize the
//! largest delay between **any pair** of participating nodes, rather than
//! from a fixed source.
//!
//! Following the paper: "To construct an optimal solution in the sphere,
//! an artificial root node should be chosen among nodes closest to the
//! sphere center. In general convex regions, the algorithm will only find
//! a tree with delay within factor of 2 of the optimal as the number of
//! nodes becomes large."
//!
//! Implementation: compute the smallest enclosing circle (Welzl, exact, in
//! 2-D) or an approximate bounding sphere (Ritter, 3-D) of the points,
//! promote the point nearest its center to the root, and run the
//! radius-minimizing polar-grid algorithm from there. The tree diameter is
//! at most twice the tree radius, and the point-set diameter lower-bounds
//! any spanning tree's diameter — both bounds are reported.

use omt_geom::{bounding_sphere, smallest_enclosing_circle, Point, Point2, Point3};
use omt_tree::MulticastTree;

use crate::error::BuildError;
use crate::polar_grid::PolarGridBuilder;
use crate::sphere_grid::SphereGridBuilder;

/// Diagnostics of a minimum-diameter construction.
#[derive(Clone, Debug, PartialEq)]
pub struct MinDiameterReport {
    /// Index (into the input slice) of the point promoted to root.
    pub root: usize,
    /// The tree's diameter — the objective.
    pub diameter: f64,
    /// The tree's radius from the promoted root.
    pub radius: f64,
    /// Lower bound on any spanning tree's diameter: the largest pairwise
    /// distance of the point set.
    pub lower_bound: f64,
    /// Radius of the smallest enclosing circle/sphere (another lower
    /// bound: `diameter ≥ enclosing radius`, since some point is that far
    /// from every possible "center" of the tree).
    pub enclosing_radius: f64,
}

/// Builder for minimum-diameter degree-constrained trees.
///
/// The returned tree is rooted at the promoted center-most point; the
/// remaining `n - 1` points are its receivers. Node indices in the tree
/// refer to the input slice **with the root removed** — use
/// [`MinDiameterReport::root`] to recover the mapping
/// (`tree_index < root ? tree_index : tree_index + 1`).
///
/// # Examples
///
/// ```
/// use omt_core::MinDiameterBuilder;
/// use omt_geom::{Disk, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SmallRng::seed_from_u64(4);
/// let points = Disk::unit().sample_n(&mut rng, 2000);
/// let (tree, report) = MinDiameterBuilder::new()
///     .max_out_degree(6)
///     .build_2d(&points)?;
/// assert!(report.diameter >= report.lower_bound);
/// assert!(report.diameter <= 2.0 * report.radius + 1e-12);
/// assert_eq!(tree.len(), 1999);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinDiameterBuilder {
    max_out_degree: u32,
}

impl Default for MinDiameterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MinDiameterBuilder {
    /// Creates a builder with out-degree budget 6.
    pub fn new() -> Self {
        Self { max_out_degree: 6 }
    }

    /// Sets the out-degree budget (≥ 2).
    #[must_use]
    pub fn max_out_degree(mut self, budget: u32) -> Self {
        self.max_out_degree = budget;
        self
    }

    /// Builds a minimum-diameter tree over 2-D points.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`PolarGridBuilder::build_with_report`](crate::PolarGridBuilder::build_with_report);
    /// additionally requires at least one point (the root must exist).
    pub fn build_2d(
        &self,
        points: &[Point2],
    ) -> Result<(MulticastTree<2>, MinDiameterReport), BuildError> {
        if let Some(bad) = points.iter().position(|p| !p.is_finite()) {
            return Err(BuildError::NonFinitePoint { index: bad });
        }
        let circle = smallest_enclosing_circle(points).ok_or(BuildError::NonFiniteSource)?;
        let (root, rest) = promote_nearest(points, &circle.center);
        let (tree, _) = PolarGridBuilder::new()
            .max_out_degree(self.max_out_degree)
            .build_with_report(points[root], &rest)?;
        let diameter = tree.diameter();
        let radius = tree.radius();
        let lower_bound = omt_geom::diameter(points).map_or(0.0, |(d, _, _)| d);
        Ok((
            tree,
            MinDiameterReport {
                root,
                diameter,
                radius,
                lower_bound,
                enclosing_radius: circle.radius,
            },
        ))
    }

    /// Builds a minimum-diameter tree over 3-D points (approximate
    /// bounding-sphere center).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MinDiameterBuilder::build_2d`].
    pub fn build_3d(
        &self,
        points: &[Point3],
    ) -> Result<(MulticastTree<3>, MinDiameterReport), BuildError> {
        if let Some(bad) = points.iter().position(|p| !p.is_finite()) {
            return Err(BuildError::NonFinitePoint { index: bad });
        }
        let sphere = bounding_sphere(points).ok_or(BuildError::NonFiniteSource)?;
        let (root, rest) = promote_nearest(points, &sphere.center);
        let tree = SphereGridBuilder::new()
            .max_out_degree(self.max_out_degree.max(2))
            .build(points[root], &rest)?;
        let diameter = tree.diameter();
        let radius = tree.radius();
        // Exact pairwise diameter is O(n²) in 3-D; use the bounding-sphere
        // radius as a conservative lower bound: some point lies that far
        // from every candidate tree center.
        let lower_bound = sphere.radius;
        Ok((
            tree,
            MinDiameterReport {
                root,
                diameter,
                radius,
                lower_bound,
                enclosing_radius: sphere.radius,
            },
        ))
    }
}

/// Promotes the point nearest `center` (the first on ties) to the root:
/// returns its index and the other points, in input order.
fn promote_nearest<const D: usize>(
    points: &[Point<D>],
    center: &Point<D>,
) -> (usize, Vec<Point<D>>) {
    let root = points
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.distance_squared(center)
                .total_cmp(&b.1.distance_squared(center))
        })
        .map(|(i, _)| i)
        .expect("nonempty input");
    let mut rest = points.to_vec();
    rest.remove(root);
    (root, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Ball, Disk, Region, Translated};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    #[test]
    fn diameter_within_factor_two_of_lower_bound_asymptotically() {
        // For uniform disks the paper claims asymptotic optimality of the
        // diameter too (root near the center); the ratio must fall toward 1.
        let mut prev = f64::INFINITY;
        for (n, seed) in [(200usize, 1u64), (2_000, 2), (20_000, 3)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let pts = Disk::unit().sample_n(&mut rng, n);
            let (tree, report) = MinDiameterBuilder::new().build_2d(&pts).unwrap();
            tree.validate(Some(6)).unwrap();
            let ratio = report.diameter / report.lower_bound;
            assert!(ratio >= 1.0 - 1e-9);
            assert!(ratio <= prev + 0.05, "ratio {ratio} grew");
            prev = ratio;
        }
        assert!(prev < 1.35, "final diameter ratio {prev}");
    }

    #[test]
    fn root_is_near_enclosing_center() {
        let mut rng = SmallRng::seed_from_u64(5);
        // Shifted disk: the root must adapt to the region, not the origin.
        let region = Translated::new(Disk::unit(), omt_geom::Point2::new([10.0, -3.0]));
        let pts = region.sample_n(&mut rng, 1000);
        let (_, report) = MinDiameterBuilder::new().build_2d(&pts).unwrap();
        let root_pos = pts[report.root];
        assert!(
            root_pos.distance(&omt_geom::Point2::new([10.0, -3.0])) < 0.15,
            "root {root_pos:?} far from region center"
        );
        assert!((report.enclosing_radius - 1.0).abs() < 0.1);
    }

    #[test]
    fn structural_bounds_hold() {
        let mut rng = SmallRng::seed_from_u64(6);
        let pts = Disk::unit().sample_n(&mut rng, 500);
        let (tree, report) = MinDiameterBuilder::new()
            .max_out_degree(2)
            .build_2d(&pts)
            .unwrap();
        tree.validate(Some(2)).unwrap();
        assert_eq!(tree.len(), 499);
        assert!(report.diameter <= 2.0 * report.radius + 1e-12);
        assert!(report.diameter >= report.radius - 1e-12);
        assert!(report.diameter >= report.enclosing_radius - 1e-12);
    }

    #[test]
    fn three_dimensional_variant() {
        let mut rng = SmallRng::seed_from_u64(7);
        let pts = Ball::<3>::unit().sample_n(&mut rng, 2000);
        let (tree, report) = MinDiameterBuilder::new()
            .max_out_degree(10)
            .build_3d(&pts)
            .unwrap();
        tree.validate(Some(10)).unwrap();
        assert!(report.diameter >= report.lower_bound - 1e-12);
        assert!(report.diameter < 4.5, "diameter {}", report.diameter);
        // Root near the ball center.
        assert!(pts[report.root].norm() < 0.2);
    }

    #[test]
    fn degenerate_inputs() {
        // Single point: an empty tree rooted at it.
        let (tree, report) = MinDiameterBuilder::new()
            .build_2d(&[omt_geom::Point2::new([3.0, 3.0])])
            .unwrap();
        assert!(tree.is_empty());
        assert_eq!(report.root, 0);
        assert_eq!(report.diameter, 0.0);
        // Empty input is an error (no root can exist).
        assert!(MinDiameterBuilder::new().build_2d(&[]).is_err());
        // Bad point.
        assert!(matches!(
            MinDiameterBuilder::new().build_2d(&[omt_geom::Point2::new([f64::NAN, 0.0])]),
            Err(BuildError::NonFinitePoint { index: 0 })
        ));
    }

    #[test]
    fn center_rooting_beats_corner_rooting() {
        // Promoting the central point must produce a smaller diameter than
        // rooting at an extreme point, on average.
        let mut rng = SmallRng::seed_from_u64(8);
        let pts = Disk::unit().sample_n(&mut rng, 3000);
        let (_, center_report) = MinDiameterBuilder::new().build_2d(&pts).unwrap();
        // Root at the farthest-from-center point instead.
        let corner = pts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
            .map(|(i, _)| i)
            .unwrap();
        let rest: Vec<omt_geom::Point2> = pts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != corner)
            .map(|(_, p)| *p)
            .collect();
        let corner_tree = crate::PolarGridBuilder::new()
            .build(pts[corner], &rest)
            .unwrap();
        assert!(
            center_report.diameter < corner_tree.diameter(),
            "{} vs {}",
            center_report.diameter,
            corner_tree.diameter()
        );
    }
}
