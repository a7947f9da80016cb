//! Every-event invariant fuzzing for [`DynamicOverlay`].
//!
//! Each workload replays a seeded membership trace (joins : leaves ≈ 2 : 1)
//! and, after **every** event, re-verifies the overlay's internal
//! invariants from scratch (`assert_invariants`: spanning, acyclic,
//! alive-consistency, degree ≤ budget including the source, cache and
//! index exactness) *and* materializes a full snapshot and validates it
//! with the tree crate's independent checker. Rebuild boundaries are
//! crossed naturally many times per trace, so every invariant is exercised
//! both before and after `maybe_rebuild` fires. A golden trace pins the
//! exact trees and search work of the churn path across changes.

use omt_core::{BuildError, DynamicOverlay, HostId};
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
/// scanned).
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    radius_bits: u64,
    parents: u64,
    scan_cells: u64,
}

/// One membership event of a recorded trace.
enum Event {
    Join(Point2),
    Leave(HostId),
}

/// The golden trace at `degree`: 2400 events, joins : leaves ≈ 2 : 1, in
/// which one join in six lands exactly on an earlier join's position (a
/// zero-length edge whenever one becomes the other's parent). Returns
/// the trace and how many of its leaves departed an interior host.
fn golden_trace(degree: u32) -> (Vec<Event>, usize) {
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
            trace.push(Event::Join(p));
            live.push(reference.join(p));
        } else {
            let i = rng.random_range(0..live.len());
            // Snapshot order is join order, which `live` mirrors.
            if !reference.snapshot().unwrap().children(i).is_empty() {
                interior_leaves += 1;
            }
            let id = live.remove(i);
            trace.push(Event::Leave(id));
            reference.leave(id).unwrap();
        }
    }
    (trace, interior_leaves)
}

/// How many automatic rebuilds `trace` triggers, by the documented rule:
/// a rebuild fires once the events since the last one exceed half the
/// live membership (`churn · 2 > max(live, 8)`).
fn automatic_rebuilds(trace: &[Event]) -> usize {
    let (mut live, mut churn, mut rebuilds) = (0usize, 0usize, 0);
    for ev in trace {
        match ev {
            Event::Join(_) => live += 1,
            Event::Leave(_) => live -= 1,
        }
        churn += 1;
        if churn * 2 > live.max(8) {
            rebuilds += 1;
            churn = 0;
        }
    }
    rebuilds
}

/// Replays `trace` one event at a time and returns the final snapshot and
/// the cells scanned.
fn golden_replay(trace: &[Event], degree: u32) -> (MulticastTree<2>, u64) {
    let mut overlay = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
    for ev in trace {
        match ev {
            Event::Join(p) => {
                overlay.join(*p);
            }
            Event::Leave(id) => overlay.leave(*id).unwrap(),
        }
    }
    overlay.assert_invariants();
    (overlay.snapshot().unwrap(), overlay.search_probes().0)
}

/// Golden fingerprints of the trace in [`golden_trace`] at degrees
/// {2, 4, 6}. Changes to the churn path that claim to keep every tree
/// bit-identical must leave all of them unchanged.
#[test]
fn golden_churn_fingerprints() {
    let pinned = [
        (
            2u32,
            Golden {
                radius_bits: 4612070420392865182,
                parents: 18092851850185435477,
                scan_cells: 2087,
            },
        ),
        (
            4,
            Golden {
                radius_bits: 4612070420392865182,
                parents: 3080242825948415786,
                scan_cells: 2099,
            },
        ),
        (
            6,
            Golden {
                radius_bits: 4610555280411578161,
                parents: 13116103975485518760,
                scan_cells: 2237,
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
        let (scan_tree, scan_cells) = golden_replay(&trace, degree);
        let zero_edges = (0..scan_tree.len())
            .filter(|&i| match scan_tree.parent(i) {
                ParentRef::Node(p) => scan_tree.points()[p] == scan_tree.points()[i],
                ParentRef::Source => false,
            })
            .count();
        assert!(zero_edges > 0, "degree {degree}: no zero-length edge");
        let got = Golden {
            radius_bits: scan_tree.radius().to_bits(),
            parents: parent_fingerprint(&scan_tree),
            scan_cells,
        };
        assert_eq!(got, want, "degree {degree}: golden churn fingerprint moved");
    }
}
