//! Cross-machine reproducibility: a fixed seed pins the whole pipeline,
//! from raw generator output through point sampling to the radius of the
//! constructed tree. If any of these change, results claimed against the
//! paper are no longer comparable across machines or commits.

use overlay_multicast::algo::PolarGridBuilder;
use overlay_multicast::geom::{Ball, Point2, Region};
use overlay_multicast::rng::rngs::SmallRng;
use overlay_multicast::rng::SeedableRng;

/// The seed used for the pinned workload below.
const SEED: u64 = 2004;

/// Radius of the degree-6 Polar_Grid tree over 1,000 unit-disk points
/// drawn from `SmallRng::seed_from_u64(2004)`. Pinned to the exact f64;
/// any drift in the generator, the samplers, or the construction shows up
/// as a bit-level difference here.
const PINNED_RADIUS: f64 = 1.236_629_286_088_540_6;

fn thousand_point_tree_radius() -> f64 {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let points: Vec<Point2> = Ball::<2>::unit().sample_n(&mut rng, 1_000);
    PolarGridBuilder::new()
        .build(Point2::ORIGIN, &points)
        .unwrap()
        .radius()
}

#[test]
fn polar_grid_radius_is_pinned_for_seed_2004() {
    let radius = thousand_point_tree_radius();
    assert_eq!(
        radius.to_bits(),
        PINNED_RADIUS.to_bits(),
        "radius {radius:.17} (bits {:#x}) drifted from pinned {PINNED_RADIUS:.17}",
        radius.to_bits(),
    );
}

#[test]
fn identical_seeds_give_identical_radii_across_runs() {
    let a = thousand_point_tree_radius();
    let b = thousand_point_tree_radius();
    assert_eq!(a.to_bits(), b.to_bits());
}

/// Golden stream: exact degree-6 Polar_Grid radii for two seeds across
/// three problem sizes. Each value must reproduce bit-for-bit under both
/// the forced-sequential path and the 4-thread parallel path — the
/// parallel construction is part of the determinism contract.
const PINNED_RADII: [(u64, usize, f64); 6] = [
    (2004, 100, 1.996_663_175_912_053_2),
    (2004, 1_000, 1.236_629_286_088_540_6),
    (2004, 10_000, 1.114_178_643_433_743_7),
    (2005, 100, 1.805_383_687_313_799_8),
    (2005, 1_000, 1.285_077_066_044_268_7),
    (2005, 10_000, 1.099_604_644_238_691),
];

#[test]
fn polar_grid_radii_are_pinned_across_seeds_sizes_and_thread_counts() {
    for (seed, n, pinned) in PINNED_RADII {
        let mut rng = SmallRng::seed_from_u64(seed);
        let points: Vec<Point2> = Ball::<2>::unit().sample_n(&mut rng, n);
        for threads in [1usize, 4] {
            let radius = PolarGridBuilder::new()
                .threads(threads)
                .build(Point2::ORIGIN, &points)
                .unwrap()
                .radius();
            assert_eq!(
                radius.to_bits(),
                pinned.to_bits(),
                "seed={seed} n={n} threads={threads}: radius {radius:.17} \
                 (bits {:#x}) drifted from pinned {pinned:.17}",
                radius.to_bits(),
            );
        }
    }
}
