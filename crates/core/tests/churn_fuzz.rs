//! Every-event invariant fuzzing for [`DynamicOverlay`] and its sharded
//! batch engine [`ShardedOverlay`].
//!
//! Each workload replays a seeded membership trace (joins : leaves ≈ 2 : 1)
//! and, after **every** event, re-verifies the overlay's internal
//! invariants from scratch (`assert_invariants`: spanning, acyclic,
//! alive-consistency, degree ≤ budget including the source, cache and
//! index exactness) *and* materializes a full snapshot and validates it
//! with the tree crate's independent checker. Rebuild boundaries are
//! crossed naturally many times per trace, so every invariant is exercised
//! both before and after `maybe_rebuild` fires.
//!
//! The sharded suites additionally prove the headline guarantee of the
//! batch engine: for every shard count, batch boundary choice, and thread
//! count, the final overlay is **bit-identical** to applying the same
//! event stream one at a time to an unsharded [`DynamicOverlay`] —
//! positions, parents, cached delays, and the radius compare by bits —
//! while the cross-shard invariants (sector ownership partitions the
//! membership, global degree caps, drained speculation state, coherent
//! batch counters) are re-checked after every batch.
//!
//! **`OMT_HGRID=1` axis.** Setting `OMT_HGRID=1` makes every overlay in
//! this file construct with the hierarchical capacity-summary index
//! (`omt-geom::hgrid`) enabled, so *all* of the campaigns above — the
//! per-event invariant fuzz, both full-source regressions, and the whole
//! sharded equivalence matrix — also run through the indexed parent
//! search. `assert_invariants` reconciles the incrementally-maintained
//! summary counters against a from-scratch index rebuild on every call,
//! which the per-event and per-batch suites invoke after every event /
//! batch. The dedicated tests at the bottom additionally pin indexed vs.
//! scan bit-identity and the empty-cell short-circuit without needing the
//! environment variable.

use omt_core::{BuildError, ChurnEvent, DynamicOverlay, ShardedOverlay};
use omt_geom::Point2;
use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};
use omt_tree::{MulticastTree, ParentRef};

/// Replays `events` membership events at the given degree, validating the
/// overlay after every single one. Returns the number of leave events.
fn churn_and_validate(degree: u32, seed: u64, events: usize) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut overlay = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
    // Live ids in join order (ids are monotone, removal preserves order),
    // mirroring the snapshot's documented host order.
    let mut live = Vec::new();
    let mut leaves = 0;
    for _ in 0..events {
        if live.len() < 8 || rng.random::<f64>() < 2.0 / 3.0 {
            let p = Point2::new([rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)]);
            live.push(overlay.join(p));
        } else {
            let i = rng.random_range(0..live.len());
            let id = live.remove(i);
            overlay.leave(id).unwrap();
            // A departed id must stay invalid forever (ids never recycle).
            assert!(matches!(
                overlay.leave(id),
                Err(BuildError::UnknownHost { .. })
            ));
            leaves += 1;
        }
        overlay.assert_invariants();
        let tree = overlay.snapshot().unwrap();
        tree.validate(Some(degree)).unwrap();
        assert_eq!(tree.len(), live.len());
        assert!(
            (overlay.radius() - tree.radius()).abs() <= 1e-9 * (1.0 + tree.radius()),
            "cached radius {} disagrees with snapshot radius {}",
            overlay.radius(),
            tree.radius()
        );
    }
    assert_eq!(overlay.len(), live.len());
    leaves
}

#[test]
fn every_event_invariants_degree_2() {
    let leaves = churn_and_validate(2, 0xC0FFEE_02, 2000);
    assert!(leaves > 400, "workload produced too few leaves: {leaves}");
}

#[test]
fn every_event_invariants_degree_4() {
    let leaves = churn_and_validate(4, 0xC0FFEE_04, 2000);
    assert!(leaves > 400, "workload produced too few leaves: {leaves}");
}

#[test]
fn every_event_invariants_degree_6() {
    let leaves = churn_and_validate(6, 0xC0FFEE_06, 2000);
    assert!(leaves > 400, "workload produced too few leaves: {leaves}");
}

/// Snapshot host `i` of an overlay whose live ids (join order) are
/// `live`: returns an interior host — attached below another host, with
/// children of its own — if one exists.
fn find_interior(tree: &omt_tree::MulticastTree<2>) -> Option<usize> {
    (0..tree.len())
        .find(|&i| matches!(tree.parent(i), ParentRef::Node(_)) && !tree.children(i).is_empty())
}

/// A workload position inside a narrow angular wedge, leaving the rest of
/// the disk empty so source-filling probes (see [`fill_source`]) work.
fn wedge_point(rng: &mut SmallRng) -> Point2 {
    let theta: f64 = rng.random_range(0.0..1.0);
    let r: f64 = rng.random_range(0.2..1.0);
    Point2::new([r * theta.cos(), r * theta.sin()])
}

/// Drives the source to its full out-degree budget by joining probe hosts
/// in the half-plane opposite the workload wedge: a join whose entire
/// ancestor-cell chain holds no open host attaches directly to the
/// source. Returns true once the source is full.
fn fill_source(
    overlay: &mut DynamicOverlay,
    live: &mut Vec<omt_core::HostId>,
    degree: u32,
) -> bool {
    let mut angle: f64 = 1.6;
    while angle < 6.0 {
        if overlay.snapshot().unwrap().source_out_degree() >= degree {
            return true;
        }
        live.push(overlay.join(Point2::new([0.9 * angle.cos(), 0.9 * angle.sin()])));
        angle += 0.37;
    }
    overlay.snapshot().unwrap().source_out_degree() >= degree
}

/// Regression for the degree-cap hole fixed in this change: the old
/// `find_parent_for_excluding` answered "attach to the source" whenever no
/// open candidate survived the banned-subtree filter, without checking
/// source capacity. Drive the overlay (public API only) into states where
/// the source is at its full out-degree budget, then remove an interior
/// host so its orphans must be re-homed — once right after an explicit
/// rebuild and repeatedly mid-churn, so the scenario is exercised on both
/// sides of a `maybe_rebuild` boundary.
#[test]
fn interior_leave_with_full_source_regression() {
    for degree in [2u32, 4, 6] {
        let mut exercised_fresh = 0;
        let mut exercised_churned = 0;
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(0xFACE_0000 + seed * 31 + u64::from(degree));
            let mut overlay = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
            let mut live = Vec::new();
            for _ in 0..150 {
                if live.len() < 8 || rng.random::<f64>() < 0.7 {
                    live.push(overlay.join(wedge_point(&mut rng)));
                } else {
                    let i = rng.random_range(0..live.len());
                    overlay.leave(live.remove(i)).unwrap();
                }
            }
            // Once on a freshly rebuilt overlay (churn counter just reset,
            // so the interior leave lands before the next rebuild
            // boundary) …
            overlay.rebuild();
            overlay.assert_invariants();
            if fill_source(&mut overlay, &mut live, degree)
                && interior_leave_under_full_source(&mut overlay, &mut live, degree)
            {
                exercised_fresh += 1;
            }
            // … and repeatedly mid-churn, with rebuilds triggering on
            // their own schedule between attempts.
            for _ in 0..5 {
                for _ in 0..20 {
                    if live.len() < 8 || rng.random::<f64>() < 0.7 {
                        live.push(overlay.join(wedge_point(&mut rng)));
                    } else {
                        let i = rng.random_range(0..live.len());
                        overlay.leave(live.remove(i)).unwrap();
                    }
                }
                if fill_source(&mut overlay, &mut live, degree)
                    && interior_leave_under_full_source(&mut overlay, &mut live, degree)
                {
                    exercised_churned += 1;
                }
            }
        }
        assert!(
            exercised_fresh >= 5 && exercised_churned >= 10,
            "degree {degree}: regression scenario under-exercised \
             (fresh {exercised_fresh}, churned {exercised_churned})"
        );
    }
}

/// If the source is currently full and an interior host exists, removes
/// that host and validates everything; returns whether the scenario fired.
fn interior_leave_under_full_source(
    overlay: &mut DynamicOverlay,
    live: &mut Vec<omt_core::HostId>,
    degree: u32,
) -> bool {
    let tree = overlay.snapshot().unwrap();
    if tree.source_out_degree() < degree {
        return false;
    }
    let Some(victim) = find_interior(&tree) else {
        return false;
    };
    // Snapshot order is join order, which `live` mirrors.
    let id = live.remove(victim);
    overlay.leave(id).unwrap();
    overlay.assert_invariants();
    let after = overlay.snapshot().unwrap();
    after.validate(Some(degree)).unwrap();
    assert!(
        after.source_out_degree() <= degree,
        "re-homing over-attached the source: {} > {degree}",
        after.source_out_degree()
    );
    true
}

// ---------------------------------------------------------------------------
// Sharded batch engine: equivalence, batch-boundary invariance, cross-shard
// invariant fuzzing, and the cross-shard orphan re-homing regression.
// ---------------------------------------------------------------------------

/// Generates a churn trace (same policy as [`churn_and_validate`]) by
/// running the unsharded reference overlay, returning the event stream and
/// the reference's final snapshot. Leave targets are valid because host
/// ids are the join count at issue time, identical on every replay.
fn build_trace(seed: u64, degree: u32, events: usize) -> (Vec<ChurnEvent>, MulticastTree<2>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reference = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
    let mut live = Vec::new();
    let mut trace = Vec::with_capacity(events);
    for _ in 0..events {
        if live.len() < 8 || rng.random::<f64>() < 2.0 / 3.0 {
            let p = Point2::new([rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)]);
            trace.push(ChurnEvent::Join(p));
            live.push(reference.join(p));
        } else {
            let i = rng.random_range(0..live.len());
            let id = live.remove(i);
            trace.push(ChurnEvent::Leave(id));
            reference.leave(id).unwrap();
        }
    }
    (trace, reference.snapshot().unwrap())
}

/// Bit-level tree equality: same membership in the same order, same
/// parents, and bitwise-equal delays and radius.
fn assert_trees_identical(got: &MulticastTree<2>, want: &MulticastTree<2>, context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: membership size differs");
    for i in 0..got.len() {
        assert_eq!(
            got.points()[i],
            want.points()[i],
            "{context}: position of host {i} differs"
        );
        assert_eq!(
            got.parent(i),
            want.parent(i),
            "{context}: parent of host {i} differs"
        );
        assert_eq!(
            got.depth(i).to_bits(),
            want.depth(i).to_bits(),
            "{context}: delay of host {i} differs in bits"
        );
    }
    assert_eq!(
        got.radius().to_bits(),
        want.radius().to_bits(),
        "{context}: radius differs in bits"
    );
}

/// The headline acceptance matrix: sharded batch application is
/// bit-identical to the unsharded per-event path across seeds × degrees
/// {2,4,6} × shards {1,2,4,8} × batch sizes {1, 7, 64, full-stream}.
#[test]
fn sharded_batches_are_bit_identical_to_unsharded() {
    for (seed, degree) in [
        (0xA1u64, 2u32),
        (0xA2, 4),
        (0xA3, 6),
        (0xB1, 2),
        (0xB2, 4),
        (0xB3, 6),
    ] {
        let (trace, want) = build_trace(seed, degree, 600);
        for shards in [1u32, 2, 4, 8] {
            for batch in [1usize, 7, 64, trace.len()] {
                let mut ov = ShardedOverlay::new(Point2::ORIGIN, degree, shards).unwrap();
                for (b, chunk) in trace.chunks(batch).enumerate() {
                    ov.apply_batch(chunk).unwrap();
                    // Full invariant re-verification after every batch
                    // (sparsely for single-event batches, where the
                    // dedicated fuzz below covers the per-event case).
                    if batch > 1 || b % 13 == 0 {
                        ov.assert_invariants();
                    }
                }
                ov.assert_invariants();
                let got = ov.snapshot().unwrap();
                assert_trees_identical(
                    &got,
                    &want,
                    &format!("seed {seed:#x} degree {degree} shards {shards} batch {batch}"),
                );
            }
        }
    }
}

/// Satellite property: replaying the same stream with different batch
/// boundaries (1 event per batch vs. the whole stream at once) yields
/// bit-identical overlays — any order-dependence in the merge phase, or
/// any speculation leak across a batch boundary, breaks this.
#[test]
fn batch_boundaries_do_not_change_the_overlay() {
    for (seed, degree, shards) in [
        (0xD1u64, 2u32, 4u32),
        (0xD2, 4, 8),
        (0xD3, 6, 2),
        (0xD4, 4, 1),
    ] {
        let (trace, _) = build_trace(seed, degree, 500);
        let mut one = ShardedOverlay::new(Point2::ORIGIN, degree, shards).unwrap();
        for ev in &trace {
            one.apply_batch(std::slice::from_ref(ev)).unwrap();
        }
        let mut full = ShardedOverlay::new(Point2::ORIGIN, degree, shards).unwrap();
        full.apply_batch(&trace).unwrap();
        one.assert_invariants();
        full.assert_invariants();
        assert_trees_identical(
            &one.snapshot().unwrap(),
            &full.snapshot().unwrap(),
            &format!("seed {seed:#x} degree {degree} shards {shards}: 1-event vs full-stream"),
        );
        // The full-stream run must actually have exercised speculation.
        let st = full.last_batch_stats();
        assert_eq!(st.joins + st.leaves, trace.len() as u64);
        assert_eq!(st.fast_path + st.recomputed, st.joins);
    }
}

/// Cross-shard invariant fuzz: a sharded overlay and an unsharded mirror
/// consume the same stream batch by batch; after **every** batch the
/// sharding invariants are re-verified (ownership partition, degree caps,
/// drained speculation, counter coherence — `ShardedOverlay::
/// assert_invariants` — plus the wrapped overlay's full check) and the
/// merged view is snapshot-validated and compared to the mirror by bits.
#[test]
fn cross_shard_fuzz_every_batch_matches_mirror() {
    for (degree, shards) in [(2u32, 4u32), (4, 8), (6, 4), (3, 2)] {
        let mut rng = SmallRng::seed_from_u64(0xF0_0000 + u64::from(degree * 100 + shards));
        let mut sharded = ShardedOverlay::new(Point2::ORIGIN, degree, shards).unwrap();
        let mut mirror = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
        let mut live = Vec::new();
        let mut total_fast = 0u64;
        for _batch in 0..30 {
            let mut events = Vec::new();
            for _ in 0..32 {
                if live.len() < 8 || rng.random::<f64>() < 2.0 / 3.0 {
                    let p = Point2::new([rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)]);
                    events.push(ChurnEvent::Join(p));
                } else {
                    let i = rng.random_range(0..live.len());
                    events.push(ChurnEvent::Leave(live.remove(i)));
                }
                // Track the would-be id stream so leave targets are valid.
                if let ChurnEvent::Join(p) = events.last().unwrap() {
                    live.push(mirror.join(*p));
                } else if let ChurnEvent::Leave(id) = events.last().unwrap() {
                    mirror.leave(*id).unwrap();
                }
            }
            let ids = sharded.apply_batch(&events).unwrap();
            assert_eq!(ids.len(), events.len());
            sharded.assert_invariants();
            let got = sharded.snapshot().unwrap();
            got.validate(Some(degree)).unwrap();
            assert_trees_identical(
                &got,
                &mirror.snapshot().unwrap(),
                &format!("degree {degree} shards {shards} batch {_batch}"),
            );
            let st = sharded.last_batch_stats();
            assert_eq!(st.fast_path + st.recomputed, st.joins);
            assert_eq!(st.joins + st.leaves, events.len() as u64);
            total_fast += st.fast_path;
        }
        assert!(
            total_fast > 0,
            "degree {degree} shards {shards}: speculation never took the fast path"
        );
    }
}

/// Sharded analogue of the full-source regression: engineer leaves near a
/// sector boundary whose local candidates are exhausted, so orphan
/// re-homing must attach across shards — at degrees {2,4,6}, once right
/// after an explicit rebuild and repeatedly mid-churn (both sides of the
/// rebuild boundary) — and prove via the unsharded mirror that the result
/// is still bit-identical, with the cross-shard traffic visible in
/// `BatchStats`.
#[test]
fn cross_shard_orphan_rehoming_regression() {
    for degree in [2u32, 4, 6] {
        let mut exercised_fresh = 0u32;
        let mut exercised_churned = 0u32;
        let mut cross_writes = 0u64;
        let mut cross_leaves = 0u64;
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(0xB0A_0000 + seed * 37 + u64::from(degree));
            let mut sharded = ShardedOverlay::new(Point2::ORIGIN, degree, 8).unwrap();
            let mut mirror = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
            let mut live = Vec::new();
            // The wedge workload concentrates hosts in ~2 adjacent ring-3
            // sectors, so interior leaves there orphan hosts whose local
            // candidates saturate quickly at small degrees.
            let churn = |sharded: &mut ShardedOverlay,
                         mirror: &mut DynamicOverlay,
                         live: &mut Vec<omt_core::HostId>,
                         rng: &mut SmallRng,
                         steps: usize| {
                let mut events = Vec::new();
                for _ in 0..steps {
                    if live.len() < 8 || rng.random::<f64>() < 0.7 {
                        let p = wedge_point(rng);
                        events.push(ChurnEvent::Join(p));
                        live.push(mirror.join(p));
                    } else {
                        let i = rng.random_range(0..live.len());
                        let id = live.remove(i);
                        events.push(ChurnEvent::Leave(id));
                        mirror.leave(id).unwrap();
                    }
                }
                sharded.apply_batch(&events).unwrap();
            };
            churn(&mut sharded, &mut mirror, &mut live, &mut rng, 150);
            // Fresh side of the rebuild boundary.
            sharded.rebuild();
            mirror.rebuild();
            sharded.assert_invariants();
            if sharded_interior_leave(&mut sharded, &mut mirror, &mut live, degree) {
                exercised_fresh += 1;
                let st = sharded.last_batch_stats();
                cross_writes += st.cross_shard_writes;
                cross_leaves += st.cross_shard_leaves;
            }
            // Churned side: rebuilds fire on their own schedule.
            for _ in 0..4 {
                churn(&mut sharded, &mut mirror, &mut live, &mut rng, 20);
                if sharded_interior_leave(&mut sharded, &mut mirror, &mut live, degree) {
                    exercised_churned += 1;
                    let st = sharded.last_batch_stats();
                    cross_writes += st.cross_shard_writes;
                    cross_leaves += st.cross_shard_leaves;
                }
            }
        }
        assert!(
            exercised_fresh >= 5 && exercised_churned >= 8,
            "degree {degree}: scenario under-exercised \
             (fresh {exercised_fresh}, churned {exercised_churned})"
        );
        assert!(
            cross_writes > 0,
            "degree {degree}: no cross-shard writes observed \
             (leaves {cross_leaves}, writes {cross_writes})"
        );
    }
}

/// Fills the source via probe joins opposite the wedge (mirrored on both
/// overlays), then removes an interior host through the batch API and
/// verifies invariants, the degree cap, and bit-identity with the mirror.
/// Returns whether the scenario fired.
fn sharded_interior_leave(
    sharded: &mut ShardedOverlay,
    mirror: &mut DynamicOverlay,
    live: &mut Vec<omt_core::HostId>,
    degree: u32,
) -> bool {
    // Drive the source to its full budget so re-homing cannot fall back to
    // it (same probe pattern as the unsharded regression above).
    let mut angle: f64 = 1.6;
    while angle < 6.0 && sharded.snapshot().unwrap().source_out_degree() < degree {
        let p = Point2::new([0.9 * angle.cos(), 0.9 * angle.sin()]);
        let ids = sharded.apply_batch(&[ChurnEvent::Join(p)]).unwrap();
        let mid = mirror.join(p);
        assert_eq!(ids[0], Some(mid));
        live.push(mid);
        angle += 0.37;
    }
    let tree = sharded.snapshot().unwrap();
    if tree.source_out_degree() < degree {
        return false;
    }
    let Some(victim) = find_interior(&tree) else {
        return false;
    };
    let id = live.remove(victim);
    sharded.apply_batch(&[ChurnEvent::Leave(id)]).unwrap();
    mirror.leave(id).unwrap();
    sharded.assert_invariants();
    let after = sharded.snapshot().unwrap();
    after.validate(Some(degree)).unwrap();
    assert!(
        after.source_out_degree() <= degree,
        "re-homing over-attached the source: {} > {degree}",
        after.source_out_degree()
    );
    assert_trees_identical(
        &after,
        &mirror.snapshot().unwrap(),
        "after cross-shard interior leave",
    );
    true
}

// ---------------------------------------------------------------------------
// Golden churn fingerprints: the exact trees and search work of one fixed
// trace, pinned so that any change to the churn path's decisions shows up.
// ---------------------------------------------------------------------------

/// FNV-1a over a snapshot's parent array, `u32::MAX` standing for the
/// source.
fn parent_fingerprint(tree: &MulticastTree<2>) -> u64 {
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

/// What the golden trace pins per degree: the final snapshot's radius
/// bits, [`parent_fingerprint`] of it, and `search_probes().0` (cells
/// scanned) in scan mode and in index mode.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    radius_bits: u64,
    parents: u64,
    scan_cells: u64,
    indexed_cells: u64,
}

/// The golden trace at `degree`: 2400 events, joins : leaves ≈ 2 : 1, in
/// which one join in six lands exactly on an earlier join's position (a
/// zero-length edge whenever one becomes the other's parent). Returns
/// the trace and how many of its leaves departed an interior host.
fn golden_trace(degree: u32) -> (Vec<ChurnEvent>, usize) {
    let mut rng = SmallRng::seed_from_u64(0x601D_C4A2);
    let mut reference = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
    let mut live = Vec::new();
    let mut seen: Vec<Point2> = Vec::new();
    let mut trace = Vec::new();
    let mut interior_leaves = 0;
    for _ in 0..2400 {
        if live.len() < 8 || rng.random::<f64>() < 2.0 / 3.0 {
            let p = if !seen.is_empty() && rng.random::<f64>() < 1.0 / 6.0 {
                seen[rng.random_range(0..seen.len())]
            } else {
                Point2::new([rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)])
            };
            seen.push(p);
            trace.push(ChurnEvent::Join(p));
            live.push(reference.join(p));
        } else {
            let i = rng.random_range(0..live.len());
            // Snapshot order is join order, which `live` mirrors.
            if !reference.snapshot().unwrap().children(i).is_empty() {
                interior_leaves += 1;
            }
            let id = live.remove(i);
            trace.push(ChurnEvent::Leave(id));
            reference.leave(id).unwrap();
        }
    }
    (trace, interior_leaves)
}

/// How many automatic rebuilds `trace` triggers, by the documented rule:
/// a rebuild fires once the events since the last one exceed half the
/// live membership (`churn · 2 > max(live, 8)`).
fn automatic_rebuilds(trace: &[ChurnEvent]) -> usize {
    let (mut live, mut churn, mut rebuilds) = (0usize, 0usize, 0);
    for ev in trace {
        match ev {
            ChurnEvent::Join(_) => live += 1,
            ChurnEvent::Leave(_) => live -= 1,
        }
        churn += 1;
        if churn * 2 > live.max(8) {
            rebuilds += 1;
            churn = 0;
        }
    }
    rebuilds
}

/// Replays `trace` one event at a time, with the capacity index on or
/// off, and returns the final snapshot and the cells scanned.
fn golden_replay(trace: &[ChurnEvent], degree: u32, hgrid: bool) -> (MulticastTree<2>, u64) {
    let mut overlay = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
    overlay.set_hgrid(hgrid);
    for ev in trace {
        match ev {
            ChurnEvent::Join(p) => {
                overlay.join(*p);
            }
            ChurnEvent::Leave(id) => overlay.leave(*id).unwrap(),
        }
    }
    overlay.assert_invariants();
    (overlay.snapshot().unwrap(), overlay.search_probes().0)
}

/// Golden fingerprints of the trace in [`golden_trace`] at degrees
/// {2, 4, 6}. Changes to the churn path that claim to keep every tree
/// bit-identical must leave all of them unchanged; the sharded engine
/// replaying the same trace in batches must reproduce the same tree.
#[test]
fn golden_churn_fingerprints() {
    let pinned = [
        (
            2u32,
            Golden {
                radius_bits: 4612070420392865182,
                parents: 18092851850185435477,
                scan_cells: 2087,
                indexed_cells: 2031,
            },
        ),
        (
            4,
            Golden {
                radius_bits: 4612070420392865182,
                parents: 3080242825948415786,
                scan_cells: 2099,
                indexed_cells: 2061,
            },
        ),
        (
            6,
            Golden {
                radius_bits: 4610555280411578161,
                parents: 13116103975485518760,
                scan_cells: 2237,
                indexed_cells: 2199,
            },
        ),
    ];
    for (degree, want) in pinned {
        let (trace, interior_leaves) = golden_trace(degree);
        assert!(
            interior_leaves >= 50,
            "degree {degree}: only {interior_leaves} interior leaves"
        );
        let rebuilds = automatic_rebuilds(&trace);
        assert!(rebuilds >= 2, "degree {degree}: only {rebuilds} rebuilds");
        let (scan_tree, scan_cells) = golden_replay(&trace, degree, false);
        let zero_edges = (0..scan_tree.len())
            .filter(|&i| match scan_tree.parent(i) {
                ParentRef::Node(p) => scan_tree.points()[p] == scan_tree.points()[i],
                ParentRef::Source => false,
            })
            .count();
        assert!(zero_edges > 0, "degree {degree}: no zero-length edge");
        let (indexed_tree, indexed_cells) = golden_replay(&trace, degree, true);
        assert_trees_identical(&indexed_tree, &scan_tree, "golden trace, index vs scan");
        let mut sharded = ShardedOverlay::new(Point2::ORIGIN, degree, 4).unwrap();
        for chunk in trace.chunks(64) {
            sharded.apply_batch(chunk).unwrap();
        }
        assert_trees_identical(
            &sharded.snapshot().unwrap(),
            &scan_tree,
            "golden trace, sharded vs per-event",
        );
        let got = Golden {
            radius_bits: scan_tree.radius().to_bits(),
            parents: parent_fingerprint(&scan_tree),
            scan_cells,
            indexed_cells,
        };
        assert_eq!(got, want, "degree {degree}: golden churn fingerprint moved");
    }
}

// ---------------------------------------------------------------------------
// Hierarchical capacity-summary index: indexed vs. scan bit-identity and the
// empty-cell short-circuit regression (no environment variable needed).
// ---------------------------------------------------------------------------

/// Replays the same churn trace into a scan-only overlay and an indexed
/// one, comparing the parent *choice* for every join before applying it
/// and reconciling the incremental summaries against a from-scratch index
/// rebuild after every event (`assert_invariants` does exactly that when
/// the index is on). Ends with a bit-level snapshot comparison.
#[test]
fn hgrid_indexed_churn_is_bit_identical_to_scan() {
    for (seed, degree) in [(0xE1u64, 2u32), (0xE2, 4), (0xE3, 6)] {
        let (trace, _) = build_trace(seed, degree, 600);
        let mut scan = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
        scan.set_hgrid(false);
        let mut indexed = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
        indexed.set_hgrid(true);
        assert!(indexed.hgrid_enabled() && !scan.hgrid_enabled());
        for (i, ev) in trace.iter().enumerate() {
            match ev {
                ChurnEvent::Join(p) => {
                    assert_eq!(
                        scan.peek_parent(p),
                        indexed.peek_parent(p),
                        "seed {seed:#x} degree {degree} event {i}: \
                         indexed parent search disagrees with the scan"
                    );
                    assert_eq!(scan.join(*p), indexed.join(*p));
                }
                ChurnEvent::Leave(id) => {
                    scan.leave(*id).unwrap();
                    indexed.leave(*id).unwrap();
                }
            }
            indexed.assert_invariants();
            if i % 25 == 0 {
                assert_trees_identical(
                    &indexed.snapshot().unwrap(),
                    &scan.snapshot().unwrap(),
                    &format!("seed {seed:#x} degree {degree} event {i}"),
                );
            }
        }
        assert_trees_identical(
            &indexed.snapshot().unwrap(),
            &scan.snapshot().unwrap(),
            &format!("seed {seed:#x} degree {degree} final"),
        );
        // The index must have actually saved work for the run to mean
        // anything: fewer open-list consultations than the scan path.
        let (scan_cells, _) = scan.search_probes();
        let (indexed_cells, _) = indexed.search_probes();
        assert!(
            indexed_cells < scan_cells,
            "seed {seed:#x} degree {degree}: index did not reduce scans \
             ({indexed_cells} vs {scan_cells})"
        );
    }
}

/// Regression for the empty-cell scan waste fixed in this change: the
/// open-host index used to be consulted (and its free-list walked) even
/// for cells the capacity index knows are empty. A join whose entire
/// ancestor-cell chain is empty must now touch **zero** open lists when
/// the index is on — and still pick the identical parent (the source).
#[test]
fn empty_cell_join_scans_nothing_under_the_index() {
    let mut scan = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
    scan.set_hgrid(false);
    let mut indexed = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
    indexed.set_hgrid(true);
    // A tight 3-host cluster near angle 0 at radius ~0.9: after a rebuild
    // the grid's occupied cells all sit in the cluster's wedge, and the
    // source still has open degree budget.
    for i in 0..3 {
        let a = 0.02 * f64::from(i);
        let p = Point2::new([0.9 * a.cos(), 0.9 * a.sin()]);
        scan.join(p);
        indexed.join(p);
    }
    scan.rebuild();
    indexed.rebuild();
    indexed.assert_invariants();
    // A join on the far side of the disk: every cell on its ancestor
    // chain is empty, so the answer is the source either way.
    let q = Point2::new([-0.9, 0.0]);
    scan.reset_search_probes();
    indexed.reset_search_probes();
    let ps = scan.peek_parent(&q);
    let pi = indexed.peek_parent(&q);
    assert_eq!(ps, pi, "index changed the empty-chain answer");
    assert_eq!(ps, None, "expected a fallback to the source");
    let (scan_cells, _) = scan.search_probes();
    assert!(
        scan_cells > 0,
        "scan path consulted no open lists — scenario is degenerate"
    );
    assert_eq!(
        indexed.search_probes(),
        (0, 0),
        "indexed path consulted open lists for cells known to be empty"
    );
    // The actual join stays bit-identical too.
    assert_eq!(scan.join(q), indexed.join(q));
    indexed.assert_invariants();
    assert_trees_identical(
        &indexed.snapshot().unwrap(),
        &scan.snapshot().unwrap(),
        "after the empty-chain join",
    );
}
