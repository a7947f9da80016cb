//! Metamorphic properties of the tree builders: relabeling the input
//! must not change the tree at all, and rigid motions of the input disk
//! must not change its quality (radius) beyond fp rounding.
//!
//! These are the determinism guarantees the observability and parallel
//! layers lean on: if a permutation or a rigid motion could shift the
//! radius, seed-pinned golden streams and cross-thread parity would be
//! meaningless.

use core::f64::consts::TAU;

use omt_core::{Bisection, PolarGridBuilder};
use omt_geom::Point2;
use omt_rng::proptest::{any, collection, Strategy};
use omt_rng::rngs::SmallRng;
use omt_rng::{prop_assert, prop_assert_eq, props, RngExt, SeedableRng};

/// Generic point clouds in a disk-ish box. Coordinates are "generic" in
/// the geometric sense with probability 1: no two points coincide and no
/// exact distance ties, so representative selection has a unique
/// minimum and relabeling cannot flip a tie.
fn generic_points() -> impl Strategy<Value = Vec<Point2>> {
    collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(x, y)| Point2::new([x, y])),
        1..120,
    )
}

/// Deterministic Fisher-Yates shuffle of `0..n` driven by `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Rotation of `p` around the origin by `theta`.
fn rotate(p: &Point2, theta: f64) -> Point2 {
    let (s, c) = theta.sin_cos();
    let [x, y] = p.coords();
    Point2::new([x * c - y * s, x * s + y * c])
}

props! {
    #[cases(48)]
    fn radius_is_invariant_under_permutation(
        points in generic_points(),
        seed in any::<u64>(),
    ) {
        // Relabeling the receivers is a pure renaming: the polar-grid and
        // bisection algorithms only consult geometry (with first-minimum
        // tie-breaks that generic inputs never exercise), so the radius
        // must be bit-identical, not merely close.
        let order = permutation(points.len(), seed);
        let shuffled: Vec<Point2> = order.iter().map(|&i| points[i]).collect();
        for deg in [2u32, 6] {
            let base = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &points)
                .unwrap();
            let perm = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &shuffled)
                .unwrap();
            prop_assert_eq!(base.radius(), perm.radius());
        }
        let base = Bisection::new(4).unwrap().build(Point2::ORIGIN, &points).unwrap();
        let perm = Bisection::new(4).unwrap().build(Point2::ORIGIN, &shuffled).unwrap();
        prop_assert_eq!(base.radius(), perm.radius());
    }

    #[cases(48)]
    fn radius_is_invariant_under_translation(
        points in generic_points(),
        tx in -50.0f64..50.0,
        ty in -50.0f64..50.0,
    ) {
        // Translating receivers and source together only perturbs the
        // source-relative coordinates by rounding of (p + t) - t.
        let t = Point2::new([tx, ty]);
        let moved: Vec<Point2> = points.iter().map(|p| *p + t).collect();
        for deg in [2u32, 6] {
            let base = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &points)
                .unwrap();
            let trans = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(t, &moved)
                .unwrap();
            let scale = 1.0 + base.radius();
            prop_assert!((base.radius() - trans.radius()).abs() < 1e-6 * scale,
                "deg {}: radius {} vs translated {}", deg, base.radius(), trans.radius());
        }
    }

    #[cases(48)]
    fn radius_is_invariant_under_half_turn(points in generic_points()) {
        // Rotation by pi is coordinate negation — exact in floating
        // point, and it maps every ring of the polar grid onto itself.
        // Only a point sitting within one ulp of an angular cell
        // boundary could flip cells, which generic inputs never are, so
        // the radius agrees to tight tolerance.
        let flipped: Vec<Point2> = points
            .iter()
            .map(|p| {
                let [x, y] = p.coords();
                Point2::new([-x, -y])
            })
            .collect();
        for deg in [2u32, 6] {
            let base = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &points)
                .unwrap();
            let half_turn = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &flipped)
                .unwrap();
            let scale = 1.0 + base.radius();
            prop_assert!((base.radius() - half_turn.radius()).abs() < 1e-9 * scale,
                "deg {}: radius {} vs half-turn {}", deg, base.radius(), half_turn.radius());
        }
    }

    #[cases(48)]
    fn rotation_preserves_the_quality_envelope(
        points in generic_points(),
        theta in 0.0f64..TAU,
    ) {
        // An arbitrary rotation moves points across the fixed angular
        // cell boundaries, so the tree (and its radius) may legitimately
        // change — but the problem is rotation-invariant, so the
        // instance's lower bound must survive exactly (up to rounding of
        // the rotated coordinates) and the rotated tree must still sit
        // inside its own Theorem-2 envelope.
        let rotated: Vec<Point2> = points.iter().map(|p| rotate(p, theta)).collect();
        let (_, base) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &points)
            .unwrap();
        let (tree, rot) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &rotated)
            .unwrap();
        tree.validate(Some(6)).unwrap();
        let scale = 1.0 + base.lower_bound;
        prop_assert!((base.lower_bound - rot.lower_bound).abs() < 1e-9 * scale,
            "lower bound moved: {} vs {}", base.lower_bound, rot.lower_bound);
        prop_assert!(rot.delay >= rot.lower_bound - 1e-9 * scale);
        prop_assert!(rot.delay <= rot.bound + 1e-9,
            "rotated delay {} above bound {}", rot.delay, rot.bound);
    }
}
