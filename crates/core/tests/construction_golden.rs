//! Golden construction fingerprints: the exact trees the grid and
//! bisection builders produce, pinned bit for bit.
//!
//! Each pin is the radius bit pattern plus an FNV-1a hash of the parent
//! array, so any change to a representative pick, a connector choice, a
//! bisection split or an attachment shows up here, not only changes that
//! move the deepest leaf. The 2-D and 3-D grid matrices are checked at
//! every thread count in [`THREADS`]: the per-cell parallel fill must give
//! the same tree as the sequential one, and a build at the env-default
//! thread count (`OMT_THREADS` or the available parallelism) must match
//! `threads(1)` in its tree and its report.
//!
//! The 1k/10k matrices run everywhere; the 100k and 1M golden radii and
//! the 1M fingerprints are `#[ignore]`d (debug-build cost) and run in
//! release:
//! `cargo test --release -p omt-core --test construction_golden -- --ignored`.

use omt_core::{
    Bisection, Bisection3, BuildError, HeteroGridBuilder, NdGridBuilder, PolarGridBuilder,
    PolarGridReport, RepStrategy, SphereGridBuilder,
};
use omt_geom::{Ball, Disk, Point, Point2, Point3, PointStore2, PointStore3, Region};
use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};
use omt_tree::{MulticastTree, ParentRef};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// What a golden entry pins: the tree radius bits and
/// [`parent_fingerprint`] of the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pin {
    radius_bits: u64,
    parents: u64,
}

/// FNV-1a over a tree's parent array, `u32::MAX` standing for the source.
fn parent_fingerprint<const D: usize>(tree: &MulticastTree<D>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..tree.len() {
        let p = match tree.parent(i) {
            ParentRef::Source => u32::MAX,
            ParentRef::Node(p) => p as u32,
        };
        for byte in p.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn assert_pinned<const D: usize>(label: &str, tree: &MulticastTree<D>, want: Pin) {
    let got = Pin {
        radius_bits: tree.radius().to_bits(),
        parents: parent_fingerprint(tree),
    };
    assert_eq!(got, want, "{label}: golden construction fingerprint moved");
}

/// What a golden report entry pins: `rings`, `cells`, `occupied_cells`,
/// and the bits of `delay`, `core_delay`, `bound` and `lower_bound`.
type ReportPin = (u32, usize, usize, [u64; 4]);

fn report_pin(r: &PolarGridReport) -> ReportPin {
    (
        r.rings,
        r.cells,
        r.occupied_cells,
        [r.delay, r.core_delay, r.bound, r.lower_bound].map(f64::to_bits),
    )
}

fn disk_points(n: usize, seed: u64) -> Vec<Point2> {
    Disk::unit().sample_n(&mut SmallRng::seed_from_u64(seed), n)
}

fn ball_points(n: usize, seed: u64) -> Vec<Point3> {
    Ball::<3>::unit().sample_n(&mut SmallRng::seed_from_u64(seed), n)
}

/// `(n, seed, degree, pin)` for the 2-D grid on the unit disk.
const POLAR_GRID: [(usize, u64, u32, Pin); 12] = [
    (
        1_000,
        2004,
        2,
        pin(0x3ff7_8bef_86ee_a375, 0x870e_1608_8b18_a55b),
    ),
    (
        1_000,
        2004,
        4,
        pin(0x3ff7_8bef_86ee_a375, 0x870e_1608_8b18_a55b),
    ),
    (
        1_000,
        2004,
        6,
        pin(0x3ff3_c93b_ca50_6af2, 0x1527_2e2a_2a71_9ec0),
    ),
    (
        1_000,
        2005,
        2,
        pin(0x3ff9_dfb9_70a6_edad, 0x6342_94c8_28f0_7769),
    ),
    (
        1_000,
        2005,
        4,
        pin(0x3ff9_dfb9_70a6_edad, 0x6342_94c8_28f0_7769),
    ),
    (
        1_000,
        2005,
        6,
        pin(0x3ff4_8fac_f837_ff0b, 0x3423_27df_154b_49ea),
    ),
    (
        10_000,
        2004,
        2,
        pin(0x3ff2_bef1_41df_70e8, 0x6734_4995_624c_6a39),
    ),
    (
        10_000,
        2004,
        4,
        pin(0x3ff2_bef1_41df_70e8, 0x6734_4995_624c_6a39),
    ),
    (
        10_000,
        2004,
        6,
        pin(0x3ff1_d3ac_fc37_3175, 0xc7d4_91e7_ff6f_a612),
    ),
    (
        10_000,
        2005,
        2,
        pin(0x3ff2_6efd_71c8_b50d, 0xec3c_1e85_16b2_fd26),
    ),
    (
        10_000,
        2005,
        4,
        pin(0x3ff2_6efd_71c8_b50d, 0xec3c_1e85_16b2_fd26),
    ),
    (
        10_000,
        2005,
        6,
        pin(0x3ff1_97fb_0a18_8eec, 0x8589_a745_a85c_badc),
    ),
];

/// `(n, seed, degree, pin)` for the 3-D grid on the unit ball.
const SPHERE_GRID: [(usize, u64, u32, Pin); 8] = [
    (
        1_000,
        2004,
        2,
        pin(0x4012_156e_1ec8_e5c6, 0x9f58_70ee_234a_514f),
    ),
    (
        1_000,
        2004,
        10,
        pin(0x4005_80f9_742d_2b60, 0x9813_7824_a032_7d93),
    ),
    (
        1_000,
        2005,
        2,
        pin(0x4010_743a_69c2_4d9d, 0x42e8_dd4c_7c39_a1d0),
    ),
    (
        1_000,
        2005,
        10,
        pin(0x4004_d186_657d_07e1, 0x0eab_c29e_3a41_754c),
    ),
    (
        10_000,
        2004,
        2,
        pin(0x4007_f8bb_2e60_b814, 0xf9f1_c580_aeaf_90be),
    ),
    (
        10_000,
        2004,
        10,
        pin(0x3ffe_67d0_656c_5ef4, 0x5733_c286_855b_2699),
    ),
    (
        10_000,
        2005,
        2,
        pin(0x4009_03e9_f123_8a54, 0xd5a1_5cc9_bbb9_9ee0),
    ),
    (
        10_000,
        2005,
        10,
        pin(0x3ffe_5322_9fc3_fa86, 0x0203_5e3b_e7fb_03c7),
    ),
];

const fn pin(radius_bits: u64, parents: u64) -> Pin {
    Pin {
        radius_bits,
        parents,
    }
}

#[test]
fn polar_grid_fingerprints() {
    for (n, seed, deg, want) in POLAR_GRID {
        let points = disk_points(n, seed);
        for threads in THREADS {
            let tree = PolarGridBuilder::new()
                .max_out_degree(deg)
                .threads(threads)
                .build(Point2::ORIGIN, &points)
                .unwrap();
            assert_pinned(
                &format!("2d n={n} seed={seed} deg={deg} threads={threads}"),
                &tree,
                want,
            );
        }
    }
}

/// A build that leaves the thread count to the environment is
/// bit-identical to the forced-sequential one, tree and report alike.
#[test]
fn env_default_threads_match_sequential() {
    let points = disk_points(2_000, 2004);
    for deg in [2u32, 6] {
        let (seq_tree, seq) = PolarGridBuilder::new()
            .max_out_degree(deg)
            .threads(1)
            .build_with_report(Point2::ORIGIN, &points)
            .unwrap();
        let (env_tree, env) = PolarGridBuilder::new()
            .max_out_degree(deg)
            .build_with_report(Point2::ORIGIN, &points)
            .unwrap();
        assert_eq!(
            env_tree, seq_tree,
            "deg={deg}: default-threads tree drifted"
        );
        for (name, a, b) in [
            ("delay", env.delay, seq.delay),
            ("bound", env.bound, seq.bound),
            ("lower_bound", env.lower_bound, seq.lower_bound),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "deg={deg}: report {name} drifted");
        }
    }
}

#[test]
fn sphere_grid_fingerprints() {
    for (n, seed, deg, want) in SPHERE_GRID {
        let points = ball_points(n, seed);
        for threads in THREADS {
            let tree = SphereGridBuilder::new()
                .max_out_degree(deg)
                .threads(threads)
                .build(Point3::ORIGIN, &points)
                .unwrap();
            assert_pinned(
                &format!("3d n={n} seed={seed} deg={deg} threads={threads}"),
                &tree,
                want,
            );
        }
    }
}

#[test]
fn rep_strategy_fingerprints() {
    let points = disk_points(2_000, 2004);
    let pinned = [
        (
            RepStrategy::InnerArcMid,
            2,
            pin(0x3ff7_d782_9878_c226, 0x8497_921d_e800_4531),
        ),
        (
            RepStrategy::InnerArcMid,
            6,
            pin(0x3ff3_abb3_3ce7_b62b, 0xc818_9a05_c685_7a9c),
        ),
        (
            RepStrategy::MinRadius,
            2,
            pin(0x3ff7_e1de_04c8_3c3a, 0x1da2_75b3_7009_1379),
        ),
        (
            RepStrategy::MinRadius,
            6,
            pin(0x3ff4_c540_3e09_b209, 0x1095_dcdf_bd79_a92d),
        ),
        (
            RepStrategy::MaxRadius,
            2,
            pin(0x4000_b898_95a1_ccac, 0x9e93_61fc_380b_bdc7),
        ),
        (
            RepStrategy::MaxRadius,
            6,
            pin(0x3ffb_fb6d_73d9_8e1e, 0x50bf_8b73_1b4a_0124),
        ),
        (
            RepStrategy::First,
            2,
            pin(0x3ffe_3246_5510_aca0, 0x5067_00d1_2a5b_7d38),
        ),
        (
            RepStrategy::First,
            6,
            pin(0x3ff9_52d8_e55b_b099, 0x38a9_cf1d_23ad_c9ee),
        ),
    ];
    for (strategy, deg, want) in pinned {
        let tree = PolarGridBuilder::new()
            .max_out_degree(deg)
            .representative_strategy(strategy)
            .build(Point2::ORIGIN, &points)
            .unwrap();
        assert_pinned(&format!("{strategy:?} deg={deg}"), &tree, want);
    }
    // 3-D: the same rules over the shell cells' inner boundaries.
    let points = ball_points(2_000, 2004);
    let pinned = [
        (
            RepStrategy::MinRadius,
            2,
            pin(0x400d_e8f7_64b2_25e4, 0x2989_0b3a_68e7_6514),
        ),
        (
            RepStrategy::MinRadius,
            10,
            pin(0x4006_3bf0_b057_68fa, 0x790a_34ac_6ea5_a3d8),
        ),
        (
            RepStrategy::MaxRadius,
            2,
            pin(0x4012_2a7c_d448_fc30, 0x9822_8bf1_ae9f_7f63),
        ),
        (
            RepStrategy::MaxRadius,
            10,
            pin(0x400b_8402_35bd_ae7f, 0xf6c6_7dd9_964a_dcdb),
        ),
        (
            RepStrategy::First,
            2,
            pin(0x4012_f85a_7311_453c, 0x5dce_d1ba_cdd2_2cb9),
        ),
        (
            RepStrategy::First,
            10,
            pin(0x4009_5bbf_dac8_8150, 0x2c44_ec5a_b0e5_54d7),
        ),
    ];
    for (strategy, deg, want) in pinned {
        let tree = SphereGridBuilder::new()
            .max_out_degree(deg)
            .representative_strategy(strategy)
            .build(Point3::ORIGIN, &points)
            .unwrap();
        assert_pinned(&format!("3d {strategy:?} deg={deg}"), &tree, want);
    }
}

#[test]
fn rings_override_fingerprints() {
    let points = disk_points(2_000, 2005);
    let (_, auto) = PolarGridBuilder::new()
        .build_with_report(Point2::ORIGIN, &points)
        .unwrap();
    assert_eq!(auto.rings, 7, "automatic ring count moved");
    let pinned = [
        (2, pin(0x3ff7_6148_6cb0_2258, 0x6c7f_c2ea_636a_ffee)),
        (6, pin(0x3ff3_e212_c42d_62bd, 0xc13a_73cf_fa91_518e)),
    ];
    for (deg, want) in pinned {
        let (tree, report) = PolarGridBuilder::new()
            .max_out_degree(deg)
            .rings(auto.rings - 1)
            .build_with_report(Point2::ORIGIN, &points)
            .unwrap();
        assert_eq!(report.rings, auto.rings - 1);
        assert_pinned(&format!("rings={} deg={deg}", report.rings), &tree, want);
    }
    let points = ball_points(2_000, 2005);
    let (_, auto) = SphereGridBuilder::new()
        .build_with_report(Point3::ORIGIN, &points)
        .unwrap();
    assert_eq!(auto.rings, 7, "automatic 3-D ring count moved");
    let pinned = [
        (2, pin(0x4010_a124_bc46_7a6a, 0x4883_999e_bd9d_49c1)),
        (10, pin(0x4003_6ec3_b05e_240e, 0x16ed_4221_e21f_abee)),
    ];
    for (deg, want) in pinned {
        let (tree, report) = SphereGridBuilder::new()
            .max_out_degree(deg)
            .rings(auto.rings - 1)
            .build_with_report(Point3::ORIGIN, &points)
            .unwrap();
        assert_eq!(report.rings, auto.rings - 1);
        assert_pinned(&format!("3d rings={} deg={deg}", report.rings), &tree, want);
    }
}

/// An off-origin source, which leaves part of the covering disk (ball)
/// empty; the report is pinned too, once per degree class.
#[test]
fn off_origin_source_fingerprints() {
    let source = Point2::new([0.25, -0.4]);
    let points = disk_points(3_000, 7);
    let pinned = [
        (2, pin(0x3ffa_e352_c732_1b3a, 0xdd92_4c6c_3e53_548e)),
        (4, pin(0x3ffa_e352_c732_1b3a, 0xdd92_4c6c_3e53_548e)),
        (6, pin(0x3ff9_a205_b570_57a6, 0xe31a_30e7_210c_4ad4)),
    ];
    for (deg, want) in pinned {
        let tree = PolarGridBuilder::new()
            .max_out_degree(deg)
            .build(source, &points)
            .unwrap();
        assert_pinned(&format!("off-origin deg={deg}"), &tree, want);
    }
    let reports: [(u32, ReportPin); 2] = [
        (
            2,
            (
                8,
                511,
                296,
                [
                    0x3ffa_e352_c732_1b3a,
                    0x3ff7_4d89_227d_4666,
                    0x4014_2642_d290_95b2,
                    0x3ff7_769b_46af_58bb,
                ],
            ),
        ),
        (
            6,
            (
                8,
                511,
                296,
                [
                    0x3ff9_a205_b570_57a6,
                    0x3ff5_9a92_2e85_eb14,
                    0x400f_15bb_b13f_03d4,
                    0x3ff7_769b_46af_58bb,
                ],
            ),
        ),
    ];
    for (deg, want) in reports {
        let (_, report) = PolarGridBuilder::new()
            .max_out_degree(deg)
            .build_with_report(source, &points)
            .unwrap();
        assert_eq!(
            report_pin(&report),
            want,
            "off-origin deg={deg}: report moved"
        );
    }

    let source = Point3::new([0.25, -0.4, 0.1]);
    let points = ball_points(3_000, 7);
    let pinned = [
        (
            2,
            pin(0x400d_c9e9_d0f1_132f, 0x07e3_6472_67b4_b47a),
            (
                9,
                1023,
                429,
                [
                    0x400d_c9e9_d0f1_132f,
                    0x4008_4c78_6cbc_16b9,
                    0x4031_2340_2f89_b4a2,
                    0x3ff7_8524_21c8_81b4,
                ],
            ),
        ),
        (
            10,
            pin(0x4002_2704_f56c_2c64, 0x9bcf_9fd3_436b_39e4),
            (
                9,
                1023,
                429,
                [
                    0x4002_2704_f56c_2c64,
                    0x4000_a272_a213_06e3,
                    0x402b_5921_063d_b8ae,
                    0x3ff7_8524_21c8_81b4,
                ],
            ),
        ),
    ];
    for (deg, want, want_report) in pinned {
        let (tree, report) = SphereGridBuilder::new()
            .max_out_degree(deg)
            .build_with_report(source, &points)
            .unwrap();
        assert_pinned(&format!("3d off-origin deg={deg}"), &tree, want);
        assert_eq!(
            report_pin(&report),
            want_report,
            "3d off-origin deg={deg}: report moved"
        );
    }
}

#[test]
fn degenerate_input_fingerprints() {
    // Empty input: an empty tree and the trivial report.
    let (tree, report) = PolarGridBuilder::new()
        .build_with_report(Point2::ORIGIN, &[])
        .unwrap();
    assert!(tree.is_empty());
    assert_eq!(
        (report.rings, report.cells, report.occupied_cells),
        (0, 1, 0)
    );
    assert!(SphereGridBuilder::new()
        .build(Point3::ORIGIN, &[])
        .unwrap()
        .is_empty());

    // Every point coincides with the source: the breadth-first fan-out.
    let at = Point2::new([1.0, 1.0]);
    let coincident = vec![at; 37];
    for (deg, want) in [
        (2, pin(0x0000_0000_0000_0000, 0x547a_e10c_97e2_bfec)),
        (4, pin(0x0000_0000_0000_0000, 0x9df4_8f5c_868e_7d2d)),
        (6, pin(0x0000_0000_0000_0000, 0xda97_d333_3027_10e8)),
    ] {
        let (tree, report) = PolarGridBuilder::new()
            .max_out_degree(deg)
            .build_with_report(at, &coincident)
            .unwrap();
        assert_eq!(report.occupied_cells, 1);
        assert_pinned(&format!("coincident 2d deg={deg}"), &tree, want);
    }
    let at3 = Point3::new([0.5, 0.5, 0.5]);
    let coincident3 = vec![at3; 19];
    for (deg, want) in [
        (2, pin(0x0000_0000_0000_0000, 0x1048_8bf1_7dc4_9045)),
        (10, pin(0x0000_0000_0000_0000, 0x9746_0783_6c7e_fd6d)),
    ] {
        let tree = SphereGridBuilder::new()
            .max_out_degree(deg)
            .build(at3, &coincident3)
            .unwrap();
        assert_pinned(&format!("coincident 3d deg={deg}"), &tree, want);
    }

    // Forty copies of one point among fifty distinct ones.
    let mut dup = disk_points(50, 5);
    dup.extend(std::iter::repeat_n(dup[7], 40));
    for (deg, want) in [
        (2, pin(0x4007_73d2_902e_04d3, 0x1d98_ea89_fc12_356c)),
        (6, pin(0x3ffc_f834_0001_e7dc, 0x5cdc_4a45_5814_7710)),
    ] {
        let tree = PolarGridBuilder::new()
            .max_out_degree(deg)
            .build(Point2::ORIGIN, &dup)
            .unwrap();
        assert_pinned(&format!("duplicates 2d deg={deg}"), &tree, want);
    }
    let mut dup3 = ball_points(50, 5);
    dup3.extend(std::iter::repeat_n(dup3[7], 40));
    for (deg, want) in [
        (2, pin(0x4013_0998_388e_0241, 0xa99e_176c_f0e6_c051)),
        (10, pin(0x4009_6fe7_7be9_5760, 0xb946_bc52_c7f0_aae0)),
    ] {
        let tree = SphereGridBuilder::new()
            .max_out_degree(deg)
            .build(Point3::ORIGIN, &dup3)
            .unwrap();
        assert_pinned(&format!("duplicates 3d deg={deg}"), &tree, want);
    }
}

#[test]
fn bisection_fingerprints() {
    let points = disk_points(1_000, 2004);
    for (deg, want) in [
        (2, pin(0x4015_0085_64bf_0a3a, 0xd72e_bacc_4b09_b7fe)),
        (4, pin(0x4004_abb3_c835_8623, 0xe30a_4889_53b1_3871)),
    ] {
        let tree = Bisection::new(deg)
            .unwrap()
            .build(Point2::ORIGIN, &points)
            .unwrap();
        assert_pinned(&format!("Bisection deg={deg}"), &tree, want);
    }
    let points = ball_points(1_000, 2004);
    for (deg, want) in [
        (2, pin(0x4018_a5d4_7734_9488, 0x3cff_1ead_f675_0486)),
        (8, pin(0x4005_e94c_4e6c_2e6a, 0x218c_efbb_ec80_a0a9)),
    ] {
        let tree = Bisection3::new(deg)
            .unwrap()
            .build(Point3::ORIGIN, &points)
            .unwrap();
        assert_pinned(&format!("Bisection3 deg={deg}"), &tree, want);
    }
}

/// The general-dimension grid at `n` points of the unit `D`-ball (seed
/// 2004) under out-degree budget `budget`.
fn nd_tree<const D: usize>(n: usize, budget: u32) -> MulticastTree<D> {
    let points = Ball::<D>::unit().sample_n(&mut SmallRng::seed_from_u64(2004), n);
    NdGridBuilder::new()
        .max_out_degree(budget)
        .build(Point::ORIGIN, &points)
        .unwrap()
}

#[test]
fn nd_grid_fingerprints() {
    // `(D, budget, pin)` at n = 3,000. Budgets above 2 are slack (the
    // builder always emits out-degree <= 2), so both budgets must agree.
    let pinned = [
        (2, 2, pin(0x3ff7_3641_8f1e_35f9, 0x2907_3425_16ee_71a8)),
        (2, 6, pin(0x3ff7_3641_8f1e_35f9, 0x2907_3425_16ee_71a8)),
        (3, 2, pin(0x4014_1f11_6573_58ff, 0xded7_84c4_06d1_99ca)),
        (3, 6, pin(0x4014_1f11_6573_58ff, 0xded7_84c4_06d1_99ca)),
        (4, 2, pin(0x4023_6d31_7da5_e50d, 0x82a5_e117_b75a_295d)),
        (4, 6, pin(0x4023_6d31_7da5_e50d, 0x82a5_e117_b75a_295d)),
        (5, 2, pin(0x4028_fe96_bf8c_8c98, 0x0838_8319_5976_b1dd)),
        (5, 6, pin(0x4028_fe96_bf8c_8c98, 0x0838_8319_5976_b1dd)),
    ];
    for (dim, budget, want) in pinned {
        let label = format!("nd D={dim} budget={budget}");
        match dim {
            2 => assert_pinned(&label, &nd_tree::<2>(3_000, budget), want),
            3 => assert_pinned(&label, &nd_tree::<3>(3_000, budget), want),
            4 => assert_pinned(&label, &nd_tree::<4>(3_000, budget), want),
            _ => assert_pinned(&label, &nd_tree::<5>(3_000, budget), want),
        }
    }
}

#[test]
fn hetero_fingerprint() {
    let mut rng = SmallRng::seed_from_u64(1);
    let points = Disk::unit().sample_n(&mut rng, 2_000);
    let caps: Vec<u32> = (0..points.len())
        .map(|_| match rng.random_range(0..20u32) {
            0..=5 => 6,
            6..=15 => 2,
            16..=18 => 1,
            _ => 0,
        })
        .collect();
    let (tree, _) = HeteroGridBuilder::new()
        .source_capacity(6)
        .build(Point2::ORIGIN, &points, &caps)
        .unwrap();
    assert_pinned(
        "hetero",
        &tree,
        pin(0x3ff6_320b_a2ed_001c, 0x9603_16ad_792d_75a9),
    );
}

/// Seeded golden radii on the store path: pins the exact bit pattern of
/// the tree radius at every thread count so any numeric drift anywhere in
/// the pipeline (sampling, polar conversion, partition, bisection, arena,
/// the parallel direct fill) is caught. Degrees 2 and 4 share a radius
/// because both use the degree-2 core wiring and the binary bisection
/// reaches the same deepest leaf.
fn check_golden_radii(n: usize, expected: [(u32, u64); 3]) {
    let mut rng = SmallRng::seed_from_u64(2004);
    let store = PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, n);
    for (deg, bits) in expected {
        for threads in THREADS {
            let tree = PolarGridBuilder::new()
                .max_out_degree(deg)
                .threads(threads)
                .build_store(&store)
                .unwrap();
            assert_eq!(
                tree.radius().to_bits(),
                bits,
                "n {n} deg {deg} threads {threads}: radius drifted to {:?}",
                tree.radius()
            );
        }
    }
}

#[test]
fn golden_radii_10k() {
    check_golden_radii(
        10_000,
        [
            (2, 0x3ff2_bef1_41df_70e8), // 1.1716167996556184
            (4, 0x3ff2_bef1_41df_70e8), // 1.1716167996556184
            (6, 0x3ff1_d3ac_fc37_3175), // 1.1141786434337437
        ],
    );
}

#[test]
#[ignore = "n = 100k; run in release (CI large-n job)"]
fn golden_radii_100k() {
    check_golden_radii(
        100_000,
        [
            (2, 0x3ff1_0cb5_b09a_12ed), // 1.0656029604444328
            (4, 0x3ff1_0cb5_b09a_12ed), // 1.0656029604444328
            (6, 0x3ff0_9589_4b92_e386), // 1.0365078880406329
        ],
    );
}

#[test]
#[ignore = "n = 1M; run in release (CI large-n job)"]
fn golden_radii_1m() {
    check_golden_radii(
        1_000_000,
        [
            (2, 0x3ff0_62aa_5aa0_2465), // 1.0240882434902912
            (4, 0x3ff0_62aa_5aa0_2465), // 1.0240882434902912
            (6, 0x3ff0_2c67_fc12_603a), // 1.0108413549951494
        ],
    );
}

/// Every rejected input gets the same typed error from the slice entry
/// point and the store entry point, in the documented order.
#[test]
fn error_cases_match() {
    let points = disk_points(100, 1);
    let store = PointStore2::from_points(Point2::ORIGIN, &points);
    let slice_and_store = |b: PolarGridBuilder, source: Point2, pts: &[Point2]| {
        let from_slice = b.build(source, pts).unwrap_err();
        let from_store = b
            .build_store(&PointStore2::from_points(source, pts))
            .unwrap_err();
        assert_eq!(from_slice, from_store);
        from_slice
    };

    // The degree check comes first, even before a bad source.
    assert_eq!(
        slice_and_store(
            PolarGridBuilder::new().max_out_degree(1),
            Point2::new([f64::NAN, 0.0]),
            &points
        ),
        BuildError::DegreeTooSmall { got: 1, min: 2 }
    );
    assert_eq!(
        slice_and_store(
            PolarGridBuilder::new(),
            Point2::new([f64::NAN, 0.0]),
            &points
        ),
        BuildError::NonFiniteSource
    );

    // The first non-finite point is reported by index.
    let mut bad = points.clone();
    bad[41] = Point2::new([0.1, f64::INFINITY]);
    bad[60] = Point2::new([f64::NAN, 0.0]);
    assert_eq!(
        slice_and_store(PolarGridBuilder::new(), Point2::ORIGIN, &bad),
        BuildError::NonFinitePoint { index: 41 }
    );

    let (_, auto) = PolarGridBuilder::new()
        .build_store_with_report(&store)
        .unwrap();
    assert_eq!(
        slice_and_store(
            PolarGridBuilder::new().rings(auto.rings + 9),
            Point2::ORIGIN,
            &points
        ),
        BuildError::InfeasibleRings {
            requested: auto.rings + 9,
            feasible: auto.rings,
        }
    );

    // 3-D: the same checks in the same order.
    let points3 = ball_points(100, 1);
    let slice_and_store3 = |b: SphereGridBuilder, source: Point3, pts: &[Point3]| {
        let from_slice = b.build(source, pts).unwrap_err();
        let from_store = b
            .build_store(&PointStore3::from_points(source, pts))
            .unwrap_err();
        assert_eq!(from_slice, from_store);
        from_slice
    };
    assert_eq!(
        slice_and_store3(
            SphereGridBuilder::new().max_out_degree(1),
            Point3::ORIGIN,
            &points3
        ),
        BuildError::DegreeTooSmall { got: 1, min: 2 }
    );
    assert_eq!(
        slice_and_store3(
            SphereGridBuilder::new(),
            Point3::new([0.0, f64::NAN, 0.0]),
            &[]
        ),
        BuildError::NonFiniteSource
    );
    let mut bad3 = points3.clone();
    bad3[17] = Point3::new([0.0, 0.0, f64::NEG_INFINITY]);
    assert_eq!(
        slice_and_store3(SphereGridBuilder::new(), Point3::ORIGIN, &bad3),
        BuildError::NonFinitePoint { index: 17 }
    );
}

/// Full fingerprints at n = 1M, where the cell windows are largest and the
/// parallel fill has the most cells to spread: the 2-D grid at degrees 6
/// and 2 and the 3-D grid at degree 10, each on one and two threads.
#[test]
#[ignore = "n = 1M; run in release (CI large-n job)"]
fn golden_fingerprints_1m() {
    let n = 1_000_000;
    let mut rng = SmallRng::seed_from_u64(2004);
    let store = PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, n);
    for (deg, want) in [
        (6, pin(0x3ff0_2c67_fc12_603a, 0x4022_dd4d_0f06_16f7)),
        (2, pin(0x3ff0_62aa_5aa0_2465, 0x6bc1_ac26_7fa4_9d07)),
    ] {
        for threads in [1, 2] {
            let tree = PolarGridBuilder::new()
                .max_out_degree(deg)
                .threads(threads)
                .build_store(&store)
                .unwrap();
            assert_pinned(&format!("2d n=1M deg={deg} threads={threads}"), &tree, want);
        }
    }
    drop(store);
    let mut rng = SmallRng::seed_from_u64(2004);
    let store = PointStore3::sample_region(Point3::ORIGIN, &Ball::<3>::unit(), &mut rng, n);
    for threads in [1, 2] {
        let tree = SphereGridBuilder::new()
            .max_out_degree(10)
            .threads(threads)
            .build_store(&store)
            .unwrap();
        assert_pinned(
            &format!("3d n=1M deg=10 threads={threads}"),
            &tree,
            pin(0x3ff3_b57f_adce_b5cd, 0x5460_1ccb_1bbc_ef49),
        );
    }
}
