//! Differential suite: the decentralized protocol against the
//! centralized `Polar_Grid` builder on identical point sets.
//!
//! With zero loss and zero jitter the protocol must reach quiescence with
//! every host attached, the parent structure a valid degree-capped
//! forest, both endpoints of every edge in agreement, and the tree radius
//! within a pinned factor of the centralized construction. The pins are
//! per degree cap and deliberately generous (measured worst cases are
//! roughly half of them — see `pinned_factor`); they exist to catch
//! regressions that change the protocol's shape, not to certify
//! near-optimality.
//!
//! Grid sizing is taken from the centralized run's report (`crep.rings`)
//! so both constructions quantize the disk identically — the comparison
//! is purely message-driven wiring vs. omniscient wiring.
//!
//! The n = 100_000 leg multiplies runtime by ~20 and is `#[ignore]`d; run
//! it with `cargo test --release -p omt-proto --test differential --
//! --ignored`. CI and `scripts/verify.sh` run the 1k/10k legs.

use omt_core::PolarGridBuilder;
use omt_geom::{Disk, Point2, Region};
use omt_proto::{ProtoConfig, ProtoSim};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;

const SEEDS: [u64; 2] = [11, 12];
const DEGREES: [u32; 3] = [2, 4, 6];

/// Pinned ceiling for `proto_radius / centralized_radius` per degree cap.
///
/// Measured worst cases over the suite's seeds at n ∈ {1k, 10k}:
/// deg 2 → 9.8, deg 4 → 5.8, deg 6 → 5.7. Degree 2 gets extra headroom
/// because binary in-cell subtrees are deepest and the factor grows
/// slowly with n (6.1 at 1k → 9.8 at 10k).
fn pinned_factor(degree: u32) -> f64 {
    match degree {
        2 => 22.0,
        4 => 14.0,
        _ => 14.0,
    }
}

/// Runs one faultless protocol instance next to the centralized builder
/// on the same points and checks every structural invariant.
fn differential_case(n: usize, degree: u32, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts = Disk::unit().sample_n(&mut rng, n);
    let (tree, crep) = PolarGridBuilder::new()
        .max_out_degree(degree)
        .build_with_report(Point2::ORIGIN, &pts)
        .unwrap();
    let mut cfg = ProtoConfig::for_n(n, degree);
    cfg.rings = crep.rings;
    let mut sim = ProtoSim::new(cfg, &pts, &pts, seed);
    let rep = sim.run();

    // Everyone in, nobody stranded, quiescent before the deadline.
    assert_eq!(
        rep.alive, n,
        "n={n} deg={degree} seed={seed}: missing hosts"
    );
    assert_eq!(
        rep.orphans, 0,
        "n={n} deg={degree} seed={seed}: orphans at quiescence"
    );
    assert!(
        rep.convergence_time < rep.end_time + 1e-9,
        "n={n} deg={degree} seed={seed}: still churning at the end"
    );

    // Structural invariants: a valid degree-capped parent forest whose
    // edges both endpoints agree on.
    let forest = rep.forest.as_ref().expect("orphan-free run has a forest");
    assert_eq!(forest.len(), n);
    omt_tree::validate_parent_forest(forest, Some(degree))
        .unwrap_or_else(|e| panic!("n={n} deg={degree} seed={seed}: {e:?}"));
    assert!(rep.max_out_degree <= degree);
    sim.check_agreement()
        .unwrap_or_else(|e| panic!("n={n} deg={degree} seed={seed}: {e}"));

    // Radius parity: within the pinned factor of the centralized tree,
    // and never below the star lower bound.
    let central = tree.radius();
    assert!(central > 0.0);
    assert!(rep.radius >= rep.star_bound - 1e-12);
    let factor = rep.radius / central;
    assert!(
        factor <= pinned_factor(degree),
        "n={n} deg={degree} seed={seed}: radius factor {factor:.2} \
         exceeds pin {:.1} (proto {:.3} vs centralized {:.3})",
        pinned_factor(degree),
        rep.radius,
        central
    );
}

#[test]
fn differential_1k() {
    for degree in DEGREES {
        for seed in SEEDS {
            differential_case(1_000, degree, seed);
        }
    }
}

#[test]
fn differential_10k() {
    for degree in DEGREES {
        for seed in SEEDS {
            differential_case(10_000, degree, seed);
        }
    }
}

#[test]
#[ignore = "n = 100k; run with --ignored in release"]
fn differential_100k_full() {
    for degree in DEGREES {
        differential_case(100_000, degree, SEEDS[0]);
    }
}
