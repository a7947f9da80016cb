//! Property-based tests of the core algorithms, beyond the uniform-disk
//! workloads: clustered, collinear, duplicated, and adversarial inputs.

use core::f64::consts::TAU;

use omt_core::{Bisection, PolarGridBuilder, SphereGridBuilder};
use omt_geom::{Point2, Point3};
use omt_rng::proptest::{any, collection, Strategy};
use omt_rng::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, props};

/// Mixed adversarial point clouds: clusters, lines, rings and noise.
fn adversarial_points() -> impl Strategy<Value = Vec<Point2>> {
    let cluster = (any::<u8>(), 1usize..40).prop_map(|(c, m)| {
        let base = Point2::new([f64::from(c % 16) * 0.3 - 2.0, f64::from(c / 16) * 0.3 - 2.0]);
        (0..m)
            .map(|i| base + Point2::new([i as f64 * 1e-4, (i % 3) as f64 * 1e-4]))
            .collect::<Vec<_>>()
    });
    let line = (0.0f64..TAU, 1usize..40).prop_map(|(angle, m)| {
        (1..=m)
            .map(|i| {
                let r = i as f64 * 0.05;
                Point2::new([r * angle.cos(), r * angle.sin()])
            })
            .collect::<Vec<_>>()
    });
    let ring = (0.1f64..3.0, 1usize..40).prop_map(|(radius, m)| {
        (0..m)
            .map(|i| {
                let t = i as f64 / m as f64 * core::f64::consts::TAU;
                Point2::new([radius * t.cos(), radius * t.sin()])
            })
            .collect::<Vec<_>>()
    });
    let noise = collection::vec(
        (-3.0f64..3.0, -3.0f64..3.0).prop_map(|(x, y)| Point2::new([x, y])),
        0..40,
    );
    collection::vec(prop_oneof![cluster, line, ring, noise], 1..4)
        .prop_map(|chunks| chunks.into_iter().flatten().collect())
}

props! {
    #[cases(48)]
    fn polar_grid_survives_adversarial_inputs(points in adversarial_points()) {
        for deg in [2u32, 6] {
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build_with_report(Point2::ORIGIN, &points)
                .unwrap();
            tree.validate(Some(deg)).unwrap();
            prop_assert!(report.delay <= report.bound + 1e-9,
                "deg {deg}: delay {} > bound {}", report.delay, report.bound);
        }
    }

    #[cases(48)]
    fn bisection_survives_adversarial_inputs(points in adversarial_points()) {
        for deg in [2u32, 4] {
            let tree = Bisection::new(deg).unwrap().build(Point2::ORIGIN, &points).unwrap();
            tree.validate(Some(deg)).unwrap();
        }
    }

    #[cases(48)]
    fn scaling_and_translation_equivariance(
        points in collection::vec(
            (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(x, y)| Point2::new([x, y])),
            2..60,
        ),
        scale in 0.1f64..50.0,
        tx in -100.0f64..100.0,
        ty in -100.0f64..100.0,
    ) {
        // The construction is similarity-equivariant: scaling and
        // translating the input scales the radius and preserves topology.
        let base = PolarGridBuilder::new().build(Point2::ORIGIN, &points).unwrap();
        let moved: Vec<Point2> = points
            .iter()
            .map(|p| *p * scale + Point2::new([tx, ty]))
            .collect();
        let other = PolarGridBuilder::new()
            .build(Point2::new([tx, ty]), &moved)
            .unwrap();
        prop_assert!(
            (other.radius() - base.radius() * scale).abs()
                < 1e-6 * (1.0 + base.radius() * scale)
        );
        for i in 0..points.len() {
            prop_assert_eq!(base.parent(i), other.parent(i));
        }
    }

    #[cases(48)]
    fn source_among_the_points(points in adversarial_points(), pick in any::<u64>()) {
        // Using one of the points as the source must work (zero-distance
        // receivers included).
        prop_assume!(!points.is_empty());
        let source = points[(pick % points.len() as u64) as usize];
        let tree = PolarGridBuilder::new().build(source, &points).unwrap();
        tree.validate(Some(6)).unwrap();
    }

    #[cases(48)]
    fn sphere_grid_survives_degenerate_3d(
        m in 1usize..50,
        axis in 0usize..3,
    ) {
        // All points on one coordinate axis — degenerate angular spread.
        let points: Vec<Point3> = (1..=m)
            .map(|i| {
                let mut c = [0.0; 3];
                c[axis] = i as f64 * 0.1;
                Point3::new(c)
            })
            .collect();
        let tree = SphereGridBuilder::new().build(Point3::ORIGIN, &points).unwrap();
        tree.validate(Some(10)).unwrap();
    }

    #[cases(48)]
    fn report_internal_consistency(points in adversarial_points()) {
        let (tree, report) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &points)
            .unwrap();
        prop_assert_eq!(report.cells, (1usize << (report.rings + 1)) - 1);
        prop_assert!(report.occupied_cells <= report.cells);
        prop_assert!(report.core_delay <= report.delay + 1e-12);
        prop_assert!((report.delay - tree.radius()).abs() < 1e-12);
    }
}
