//! Closed-form checks of [`omt_tree::TreeMetrics`] on degenerate and
//! hand-constructed trees whose every statistic can be computed on paper:
//! the root-only (receiver-free) tree, a path (chain) tree, and a
//! saturated out-degree-2 binary tree with all receivers co-located so
//! that in-tree edges are weightless.

use omt_geom::Point2;
use omt_tree::TreeBuilder;

#[test]
fn root_only_tree_has_all_zero_metrics() {
    let tree = TreeBuilder::<2>::new(Point2::ORIGIN, Vec::new())
        .finish()
        .expect("empty tree is complete");
    assert!(tree.is_empty());
    let m = tree.metrics();
    assert_eq!(m.len, 0);
    assert_eq!(m.radius, 0.0);
    assert_eq!(m.diameter, 0.0);
    assert_eq!(m.total_edge_weight, 0.0);
    assert_eq!(m.mean_depth, 0.0);
    assert_eq!(m.max_hops, 0);
    assert_eq!(m.mean_hops, 0.0);
    assert_eq!(m.max_out_degree, 0);
    assert_eq!(m.max_stretch, 0.0);
    assert_eq!(m.mean_stretch, 0.0);
}

#[test]
fn path_tree_metrics_match_closed_forms() {
    // Source at the origin, receivers on the x-axis at 1, 2, ..., k, each
    // attached to its predecessor: a chain with unit edges.
    const K: usize = 8;
    let points: Vec<Point2> = (1..=K).map(|i| Point2::new([i as f64, 0.0])).collect();
    let mut b = TreeBuilder::new(Point2::ORIGIN, points).max_out_degree(2);
    b.attach_to_source(0).unwrap();
    for i in 1..K {
        b.attach(i, i - 1).unwrap();
    }
    let tree = b.finish().unwrap();
    let m = tree.metrics();
    let k = K as f64;
    assert_eq!(m.len, K);
    // Node i sits at depth i; the deepest is k.
    assert_eq!(m.radius, k);
    // The chain's farthest pair is the source and the far end.
    assert_eq!(m.diameter, k);
    // K unit edges.
    assert_eq!(m.total_edge_weight, k);
    // mean depth = (1 + 2 + ... + k)/k = (k + 1)/2, and hops == depth here.
    assert_eq!(m.mean_depth, (k + 1.0) / 2.0);
    assert_eq!(m.max_hops, K as u32);
    assert_eq!(m.mean_hops, (k + 1.0) / 2.0);
    // A chain never branches.
    assert_eq!(m.max_out_degree, 1);
    // Tree paths run straight along the axis: zero detour.
    assert_eq!(m.max_stretch, 1.0);
    assert_eq!(m.mean_stretch, 1.0);
}

#[test]
fn saturated_binary_tree_metrics_match_closed_forms() {
    // A complete out-degree-2 tree over 7 co-located receivers at (1, 0):
    //
    //   source -> 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}
    //
    // Only the source->0 edge has weight (1); all in-tree edges connect
    // coincident points and weigh 0, so every statistic is exact.
    let points = vec![Point2::new([1.0, 0.0]); 7];
    let mut b = TreeBuilder::new(Point2::ORIGIN, points).max_out_degree(2);
    b.attach_to_source(0).unwrap();
    b.attach(1, 0).unwrap();
    b.attach(2, 0).unwrap();
    b.attach(3, 1).unwrap();
    b.attach(4, 1).unwrap();
    b.attach(5, 2).unwrap();
    b.attach(6, 2).unwrap();
    // The tree is saturated: nodes 0..=2 are at the degree bound, so any
    // further attachment to them must fail.
    assert!(b.remaining_degree(0) == Some(0));
    let tree = b.finish().unwrap();
    let m = tree.metrics();
    assert_eq!(m.len, 7);
    // Everyone sits exactly distance 1 from the source.
    assert_eq!(m.radius, 1.0);
    assert_eq!(m.mean_depth, 1.0);
    // Node-to-node tree paths that avoid the source are free; the
    // diameter endpoints are the source and any receiver.
    assert_eq!(m.diameter, 1.0);
    assert_eq!(m.total_edge_weight, 1.0);
    // Hops: 1 for node 0, 2 for nodes 1-2, 3 for nodes 3-6.
    assert_eq!(m.max_hops, 3);
    assert_eq!(m.mean_hops, (1.0 + 2.0 * 2.0 + 3.0 * 4.0) / 7.0);
    assert_eq!(m.max_out_degree, 2);
    assert_eq!(m.max_stretch, 1.0);
    assert_eq!(m.mean_stretch, 1.0);
    tree.validate(Some(2)).expect("structurally sound");
}
