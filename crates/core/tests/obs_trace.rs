//! Acceptance test for the observability layer (`--features obs`): the
//! phase spans recorded while building a polar-grid tree must cover the
//! build wall-clock, and the counters/histograms must reflect the work
//! actually done.
//!
//! Run with `cargo test -p omt-core --features obs --test obs_trace`; the
//! release-only 1M coverage case with
//! `cargo test --release -p omt-core --features obs --test obs_trace -- --ignored`.
#![cfg(feature = "obs")]

use std::time::Instant;

use omt_core::{NdGridBuilder, PolarGridBuilder, SphereGridBuilder};
use omt_geom::{Ball, Disk, Point, Point2, Point3, Region};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;

/// One test function on purpose: the recording mode is process-global
/// (first decision wins), so all assertions share a single activation.
#[test]
fn phase_spans_cover_the_build_and_metrics_match_the_work() {
    if !omt_obs::enable_memory() {
        // An OMT_TRACE file sink was configured for this process; the
        // in-memory assertions below would not see the data.
        eprintln!("skipping: recording mode already fixed externally");
        return;
    }
    let n = 20_000;
    let mut rng = SmallRng::seed_from_u64(77);
    let pts = Disk::unit().sample_n(&mut rng, n);

    // Drop whatever earlier instrumented code put in this thread's
    // registry so the assertions see exactly one build.
    let _ = omt_obs::take_local();
    let wall = Instant::now();
    let tree = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    assert_eq!(tree.len(), n);

    let reg = omt_obs::take_local();
    let build = reg.span("polar_grid/build").expect("build span missing");
    assert_eq!(build.count, 1);
    // The build span nests strictly inside the measured wall-clock.
    assert!(
        build.total_ns <= wall_ns,
        "span {} ns exceeds wall {} ns",
        build.total_ns,
        wall_ns
    );
    assert!(
        build.total_ns >= wall_ns / 2,
        "span {} ns implausibly small vs wall {} ns",
        build.total_ns,
        wall_ns
    );

    assert_phases_tile(&reg, "polar_grid", build.total_ns, "slice build");

    // Counters and histograms reflect the work done.
    assert_eq!(reg.counter("polar_grid/builds"), 1);
    let occupied = reg
        .hist("polar_grid/occupied_cells")
        .expect("occupancy histogram missing");
    assert_eq!(occupied.count, 1);
    assert!(occupied.sum >= 1, "at least one occupied cell");

    // A second build accumulates rather than overwrites.
    let _ = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
    let reg2 = omt_obs::take_local();
    assert_eq!(reg2.counter("polar_grid/builds"), 1);
    assert_eq!(reg2.span("polar_grid/build").map(|s| s.count), Some(1));

    // The store entry point records the same instrumentation.
    let mut rng = SmallRng::seed_from_u64(77);
    let store = omt_geom::PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, n);
    let _ = omt_obs::take_local();
    let tree = PolarGridBuilder::new().build_store(&store).unwrap();
    assert_eq!(tree.len(), n);
    let reg3 = omt_obs::take_local();
    let build = reg3.span("polar_grid/build").expect("store build span");
    assert_eq!(build.count, 1);
    assert_eq!(reg3.counter("polar_grid/builds"), 1);
    assert_phases_tile(&reg3, "polar_grid", build.total_ns, "store build");

    // The 3-D builder records the same phases under its own prefix.
    let mut rng = SmallRng::seed_from_u64(77);
    let pts3 = Ball::<3>::unit().sample_n(&mut rng, n);
    let _ = omt_obs::take_local();
    let tree = SphereGridBuilder::new()
        .build(Point3::ORIGIN, &pts3)
        .unwrap();
    assert_eq!(tree.len(), n);
    let reg4 = omt_obs::take_local();
    let build = reg4.span("sphere_grid/build").expect("3-D build span");
    assert_eq!(build.count, 1);
    assert_eq!(reg4.counter("sphere_grid/builds"), 1);
    assert_phases_tile(&reg4, "sphere_grid", build.total_ns, "3-D build");

    // So does the general-dimension builder, on the same driver. Its
    // column-store fill runs before the driver, under its own span: the
    // store and build spans together tile the whole call.
    let mut rng = SmallRng::seed_from_u64(77);
    let pts4 = Ball::<4>::unit().sample_n(&mut rng, n);
    let _ = omt_obs::take_local();
    let wall = Instant::now();
    let tree = NdGridBuilder::new().build(Point::ORIGIN, &pts4).unwrap();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    assert_eq!(tree.len(), n);
    let reg5 = omt_obs::take_local();
    let build = reg5.span("nd_grid/build").expect("n-D build span");
    assert_eq!(build.count, 1);
    assert_eq!(reg5.counter("nd_grid/builds"), 1);
    assert_phases_tile(&reg5, "nd_grid", build.total_ns, "4-D build");
    let store = reg5.span("nd_grid/store").expect("n-D store span");
    assert_eq!(store.count, 1);
    let spanned = store.total_ns + build.total_ns;
    assert!(
        spanned <= wall_ns,
        "4-D: store + build spans ({spanned} ns) exceed the wall ({wall_ns} ns)"
    );
    assert!(
        spanned * 10 >= wall_ns * 9,
        "4-D: store + build spans cover only {spanned} of {wall_ns} ns (< 90%)"
    );
}

/// A builder pinned to one thread spawns none on any pass of a slice
/// build, the store fill included, even past one 65,536-point chunk: the
/// pool records no `par/maps`. The same build on two threads does, so the
/// counter is live.
#[test]
fn a_single_thread_builder_spawns_no_worker() {
    if !omt_obs::enable_memory() {
        eprintln!("skipping: recording mode already fixed externally");
        return;
    }
    let n = 100_000;
    let pts = Disk::unit().sample_n(&mut SmallRng::seed_from_u64(5), n);
    let _ = omt_obs::take_local();
    let tree = PolarGridBuilder::new()
        .threads(1)
        .build(Point2::ORIGIN, &pts)
        .unwrap();
    assert_eq!(tree.len(), n);
    let reg = omt_obs::take_local();
    assert_eq!(reg.counter("polar_grid/builds"), 1);
    assert_eq!(reg.counter("par/maps"), 0, "threads(1) used the pool");
    let tree = PolarGridBuilder::new()
        .threads(2)
        .build(Point2::ORIGIN, &pts)
        .unwrap();
    assert_eq!(tree.len(), n);
    assert!(omt_obs::take_local().counter("par/maps") > 0);
}

/// The five phases tile the build span: together they must account for
/// at least 90% of it (the remainder is validation glue), and nesting
/// means they can never exceed it. The partition and finish phases are
/// themselves split into nested sub-spans, which must all be entered and
/// together fit inside their phase.
fn assert_phases_tile(reg: &omt_obs::Registry, builder: &str, build_ns: u64, label: &str) {
    let phase_sum = direct_phase_ns(reg, builder, build_ns, label);
    assert!(
        phase_sum * 10 >= build_ns * 9,
        "{label}: phases cover only {phase_sum} of {build_ns} ns (< 90%)"
    );
}

/// Checks the nesting of `builder`'s phase spans and sub-spans inside a
/// build of `build_ns` and returns the summed time of the build's direct
/// child spans (the five phases).
fn direct_phase_ns(reg: &omt_obs::Registry, builder: &str, build_ns: u64, label: &str) -> u64 {
    let nested: [(&str, &[&str]); 2] = [
        ("partition", &["bound", "bin", "select", "bucket", "gather"]),
        ("finish", &["permute", "points", "csr"]),
    ];
    for (phase, subs) in nested {
        let phase_ns = reg
            .span(&format!("{builder}/{phase}"))
            .unwrap_or_else(|| panic!("{label}: {phase} missing"))
            .total_ns;
        let mut sub_sum = 0u64;
        for sub in subs {
            let name = format!("{builder}/{phase}/{sub}");
            let s = reg
                .span(&name)
                .unwrap_or_else(|| panic!("{label}: {name} missing"));
            assert!(s.count >= 1, "{label}: {name} never entered");
            sub_sum += s.total_ns;
        }
        assert!(
            sub_sum <= phase_ns,
            "{label}: {phase} sub-spans ({sub_sum} ns) exceed {phase} ({phase_ns} ns)"
        );
    }

    let mut phase_sum = 0u64;
    for phase in ["partition", "reps", "core", "cells", "finish"] {
        let phase = format!("{builder}/{phase}");
        let s = reg
            .span(&phase)
            .unwrap_or_else(|| panic!("{label}: {phase} missing"));
        assert!(s.count >= 1, "{label}: {phase} never entered");
        phase_sum += s.total_ns;
    }
    assert!(
        phase_sum <= build_ns,
        "{label}: nested phases ({phase_sum} ns) exceed the build span ({build_ns} ns)"
    );
    phase_sum
}

/// At million scale the five phases must leave almost nothing of the
/// build unaccounted for: their spans cover at least 95% of it, on the
/// store path both builders run. Debug builds distort the split, so this
/// runs in release only.
#[test]
#[ignore = "n = 1M; run in release with --features obs (CI large-n job)"]
fn phase_spans_cover_95_percent_of_a_1m_build() {
    if !omt_obs::enable_memory() {
        eprintln!("skipping: recording mode already fixed externally");
        return;
    }
    let n = 1_000_000;
    let mut rng = SmallRng::seed_from_u64(2004);
    let store = omt_geom::PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, n);
    let mut rng = SmallRng::seed_from_u64(2004);
    let store3 =
        omt_geom::PointStore3::sample_region(Point3::ORIGIN, &Ball::<3>::unit(), &mut rng, n);
    for deg in [6, 2] {
        let _ = omt_obs::take_local();
        let tree = PolarGridBuilder::new()
            .max_out_degree(deg)
            .build_store(&store)
            .unwrap();
        assert_eq!(tree.len(), n);
        drop(tree);
        let reg = omt_obs::take_local();
        assert_covers_95(&reg, "polar_grid", &format!("1M 2-D deg {deg}"));
    }
    let _ = omt_obs::take_local();
    let tree = SphereGridBuilder::new().build_store(&store3).unwrap();
    assert_eq!(tree.len(), n);
    drop(tree);
    let reg = omt_obs::take_local();
    assert_covers_95(&reg, "sphere_grid", "1M 3-D deg 10");
}

fn assert_covers_95(reg: &omt_obs::Registry, builder: &str, label: &str) {
    let build = reg
        .span(&format!("{builder}/build"))
        .unwrap_or_else(|| panic!("{label}: build span missing"));
    assert_eq!(build.count, 1, "{label}: one build");
    let phase_sum = direct_phase_ns(reg, builder, build.total_ns, label);
    assert!(
        phase_sum * 100 >= build.total_ns * 95,
        "{label}: phases cover only {phase_sum} of {} ns (< 95%)",
        build.total_ns
    );
}

#[test]
fn churn_metrics_count_joins_and_leaves() {
    if !omt_obs::enable_memory() {
        eprintln!("skipping: recording mode already fixed externally");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(3);
    let mut overlay = omt_core::DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
    let _ = omt_obs::take_local();
    let ids: Vec<_> = Disk::unit()
        .sample_n(&mut rng, 50)
        .into_iter()
        .map(|p| overlay.join(p))
        .collect();
    for id in ids.iter().take(20) {
        overlay.leave(*id).unwrap();
    }
    let reg = omt_obs::take_local();
    assert_eq!(reg.counter("dynamic/joins"), 50);
    assert_eq!(reg.counter("dynamic/leaves"), 20);
    assert_eq!(reg.span("dynamic/join").map(|s| s.count), Some(50));
    assert_eq!(reg.span("dynamic/leave").map(|s| s.count), Some(20));
    let chains = reg.hist("dynamic/chain_len").expect("chain_len missing");
    assert!(chains.count >= 50, "every join walks the parent chain");
}
