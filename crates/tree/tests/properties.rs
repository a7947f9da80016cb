//! Property-based tests of the tree substrate: random valid construction
//! sequences always yield trees that satisfy every invariant, and the
//! builder rejects every class of invalid operation.

use omt_geom::Point2;
use omt_rng::rngs::SmallRng;
use omt_rng::{prop_assert, prop_assert_eq, props, RngExt, SeedableRng};
use omt_tree::{ParentRef, TreeBuilder, TreeError};

/// Builds a random valid tree over `n` points with the given degree bound,
/// returning it together with the parent choices made.
fn random_valid_tree(
    n: usize,
    max_deg: u32,
    seed: u64,
) -> (omt_tree::MulticastTree<2>, Vec<Option<usize>>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let points: Vec<Point2> = (0..n)
        .map(|_| Point2::new([rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)]))
        .collect();
    let mut b = TreeBuilder::new(Point2::ORIGIN, points).max_out_degree(max_deg);
    let mut parents: Vec<Option<usize>> = vec![None; n];
    let mut attached: Vec<usize> = Vec::new();
    let mut used: Vec<u32> = vec![0; n];
    let mut used_source = 0u32;
    #[allow(clippy::needless_range_loop)] // `i` is the node id being attached
    for i in 0..n {
        // Candidates: source (if budget) plus attached nodes with budget.
        let mut cands: Vec<Option<usize>> = Vec::new();
        if used_source < max_deg {
            cands.push(None);
        }
        for &a in &attached {
            if used[a] < max_deg {
                cands.push(Some(a));
            }
        }
        // With max_deg >= 1 a candidate always exists (chain fallback).
        let choice = cands[rng.random_range(0..cands.len())];
        match choice {
            None => {
                b.attach_to_source(i).unwrap();
                used_source += 1;
            }
            Some(p) => {
                b.attach(i, p).unwrap();
                used[p] += 1;
            }
        }
        parents[i] = choice;
        attached.push(i);
    }
    (b.finish().unwrap(), parents)
}

props! {
    fn random_construction_always_validates(
        n in 0usize..120,
        max_deg in 1u32..8,
        seed in 0u64..10_000,
    ) {
        let (tree, parents) = random_valid_tree(n, max_deg, seed);
        tree.validate(Some(max_deg)).unwrap();
        prop_assert_eq!(tree.len(), n);
        // Parent records round-trip.
        for (i, p) in parents.iter().enumerate() {
            match p {
                None => prop_assert_eq!(tree.parent(i), ParentRef::Source),
                Some(q) => prop_assert_eq!(tree.parent(i), ParentRef::Node(*q)),
            }
        }
    }

    fn children_lists_are_inverse_of_parents(n in 1usize..100, seed in 0u64..1000) {
        let (tree, _) = random_valid_tree(n, 3, seed);
        for i in 0..n {
            match tree.parent(i) {
                ParentRef::Source => {
                    prop_assert!(tree.source_children().contains(&(i as u32)));
                }
                ParentRef::Node(p) => {
                    prop_assert!(tree.children(p).contains(&(i as u32)));
                }
            }
        }
        let total_children: usize = (0..n).map(|i| tree.children(i).len()).sum();
        prop_assert_eq!(total_children + tree.source_children().len(), n);
    }

    fn radius_equals_max_depth_and_bfs_is_monotone_in_hops(
        n in 1usize..100,
        seed in 0u64..1000,
    ) {
        let (tree, _) = random_valid_tree(n, 2, seed);
        let max_depth = (0..n).map(|i| tree.depth(i)).fold(0.0f64, f64::max);
        prop_assert!((tree.radius() - max_depth).abs() < 1e-12);
        let hops: Vec<u32> = tree.iter_bfs().map(|i| tree.hops(i)).collect();
        for w in hops.windows(2) {
            prop_assert!(w[0] <= w[1], "BFS hop order violated");
        }
    }

    fn metrics_are_internally_consistent(n in 1usize..80, seed in 0u64..1000) {
        let (tree, _) = random_valid_tree(n, 4, seed);
        let m = tree.metrics();
        prop_assert_eq!(m.len, n);
        prop_assert!(m.radius <= m.diameter + 1e-12);
        prop_assert!(m.diameter <= 2.0 * m.radius + 1e-12);
        prop_assert!(m.mean_depth <= m.radius + 1e-12);
        prop_assert!(f64::from(m.max_hops) >= m.mean_hops);
        prop_assert!(m.max_stretch >= 1.0 - 1e-9 || m.max_stretch == 0.0);
    }

    fn distances_from_are_a_tree_metric(n in 2usize..40, seed in 0u64..300) {
        let (tree, _) = random_valid_tree(n, 3, seed);
        let d0 = tree.distances_from(0);
        // Symmetry via a second sweep.
        let d1 = tree.distances_from(1);
        prop_assert!((d0[1] - d1[0]).abs() < 1e-9);
        // Distance to the source slot equals depth.
        prop_assert!((d0[n] - tree.depth(0)).abs() < 1e-9);
    }
}

#[test]
fn builder_error_paths() {
    let pts = vec![Point2::new([1.0, 0.0]), Point2::new([2.0, 0.0])];
    let mut b = TreeBuilder::new(Point2::ORIGIN, pts).max_out_degree(1);
    assert_eq!(
        b.attach(0, 1),
        Err(TreeError::ParentNotAttached { parent: 1 })
    );
    b.attach_to_source(0).unwrap();
    assert_eq!(
        b.attach_to_source(1),
        Err(TreeError::DegreeExceeded {
            parent: None,
            max_out_degree: 1
        })
    );
    b.attach(1, 0).unwrap();
    let t = b.finish().unwrap();
    t.validate(Some(1)).unwrap();
}
