//! Finite points too far from the source to measure: beyond about 1.3e154
//! the squared norm overflows, so the covering radius is infinite. Every
//! grid-based builder, and both bisection builders, must return the typed
//! error, never panic.

use omt_core::{
    Bisection, Bisection3, BuildError, HeteroGridBuilder, MinDiameterBuilder, NdGridBuilder,
    PolarGridBuilder, SphereGridBuilder,
};
use omt_geom::{Ball, Disk, Point, Point2, Point3, Region};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;

const SCALE: f64 = 1e200;

fn far_disk() -> Vec<Point2> {
    let points = Disk::unit().sample_n(&mut SmallRng::seed_from_u64(1), 2_000);
    points.into_iter().map(|p| p * SCALE).collect()
}

fn far_ball() -> Vec<Point3> {
    let points = Ball::<3>::unit().sample_n(&mut SmallRng::seed_from_u64(1), 2_000);
    points.into_iter().map(|p| p * SCALE).collect()
}

#[test]
fn grid_builders_reject_overflowing_radii() {
    let disk = far_disk();
    assert!(disk.iter().all(Point2::is_finite));
    for deg in [2, 6] {
        let got = PolarGridBuilder::new()
            .max_out_degree(deg)
            .build(Point2::ORIGIN, &disk);
        assert_eq!(
            got.unwrap_err(),
            BuildError::RadiusOverflow,
            "2-D deg {deg}"
        );
    }
    let ball = far_ball();
    assert!(ball.iter().all(Point3::is_finite));
    for deg in [2, 10] {
        let got = SphereGridBuilder::new()
            .max_out_degree(deg)
            .build(Point3::ORIGIN, &ball);
        assert_eq!(
            got.unwrap_err(),
            BuildError::RadiusOverflow,
            "3-D deg {deg}"
        );
    }
    let ball4 = Ball::<4>::unit().sample_n(&mut SmallRng::seed_from_u64(1), 2_000);
    let ball4: Vec<Point<4>> = ball4.into_iter().map(|p| p * SCALE).collect();
    assert!(ball4.iter().all(Point::is_finite));
    let got = NdGridBuilder::new().build(Point::ORIGIN, &ball4);
    assert_eq!(got.unwrap_err(), BuildError::RadiusOverflow, "4-D");
}

#[test]
fn grid_based_builders_reject_overflowing_radii() {
    let disk = far_disk();
    let capacities: Vec<u32> = (0..disk.len() as u32).map(|i| i % 4).collect();
    let got = HeteroGridBuilder::new().build(Point2::ORIGIN, &disk, &capacities);
    assert_eq!(got.unwrap_err(), BuildError::RadiusOverflow, "hetero");
    let got = MinDiameterBuilder::new().build_2d(&disk);
    assert_eq!(
        got.unwrap_err(),
        BuildError::RadiusOverflow,
        "min-diameter 2-D"
    );
    let got = MinDiameterBuilder::new().build_3d(&far_ball());
    assert_eq!(
        got.unwrap_err(),
        BuildError::RadiusOverflow,
        "min-diameter 3-D"
    );
}

#[test]
fn bisection_builders_reject_overflowing_radii() {
    let disk = far_disk();
    for deg in [2, 4] {
        let got = Bisection::new(deg).unwrap().build(Point2::ORIGIN, &disk);
        assert_eq!(
            got.unwrap_err(),
            BuildError::RadiusOverflow,
            "2-D deg {deg}"
        );
    }
    let ball = far_ball();
    for deg in [2, 8] {
        let got = Bisection3::new(deg).unwrap().build(Point3::ORIGIN, &ball);
        assert_eq!(
            got.unwrap_err(),
            BuildError::RadiusOverflow,
            "3-D deg {deg}"
        );
    }
}
