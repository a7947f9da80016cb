//! Greedy attachment heuristics: the **compact tree** (CPT) heuristic of
//! Shi & Turner (minimize the resulting source-to-node delay at every
//! attachment — reference [16]/[17] of the paper) and a degree-constrained
//! **Prim** variant (minimize the edge length instead).
//!
//! Both share one engine: repeatedly pick the unattached node with the
//! cheapest attachment under the chosen objective, using a lazy binary
//! heap. Complexity is `O(n² log n)` worst case — these are the quadratic
//! baselines the paper's `O(n)` algorithm is designed to out-scale.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use omt_geom::Point;
use omt_tree::{MulticastTree, TreeBuilder};

use crate::error::BaselineError;

/// What a greedy attachment minimizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GreedyObjective {
    /// Minimize the resulting source-to-node delay (`depth(parent) +
    /// dist(parent, node)`): the compact-tree (CPT) heuristic.
    #[default]
    MinDelay,
    /// Minimize the edge length (`dist(parent, node)`): degree-constrained
    /// Prim. Greedily cheap edges, but paths can snake badly.
    MinEdge,
}

/// A totally ordered f64 key (delays are always finite here).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Key(f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Greedy degree-constrained tree builder.
///
/// # Examples
///
/// ```
/// use omt_baselines::{GreedyBuilder, GreedyObjective};
/// use omt_geom::Point2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pts = vec![Point2::new([1.0, 0.0]), Point2::new([2.0, 0.0])];
/// let tree = GreedyBuilder::new(GreedyObjective::MinDelay)
///     .max_out_degree(1)
///     .build(Point2::ORIGIN, &pts)?;
/// // With budget 1 the tree is a chain through the closer node.
/// assert_eq!(tree.radius(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GreedyBuilder {
    objective: GreedyObjective,
    max_out_degree: Option<u32>,
}

impl GreedyBuilder {
    /// Creates a builder with the given objective and no degree bound.
    pub fn new(objective: GreedyObjective) -> Self {
        Self {
            objective,
            max_out_degree: None,
        }
    }

    /// Sets the out-degree budget (applies to the source too).
    #[must_use]
    pub fn max_out_degree(mut self, bound: u32) -> Self {
        self.max_out_degree = Some(bound);
        self
    }

    /// Builds the tree over `points` rooted at `source`.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::DegreeTooSmall`] if the budget is 0 (nothing can
    ///   attach);
    /// * [`BaselineError::NonFinite`] for NaN/infinite coordinates.
    pub fn build<const D: usize>(
        &self,
        source: Point<D>,
        points: &[Point<D>],
    ) -> Result<MulticastTree<D>, BaselineError> {
        if self.max_out_degree == Some(0) && !points.is_empty() {
            return Err(BaselineError::DegreeTooSmall { got: 0, min: 1 });
        }
        check_finite(source, points)?;
        let n = points.len();
        let mut builder = TreeBuilder::new(source, points.to_vec());
        if let Some(b) = self.max_out_degree {
            builder = builder.max_out_degree(b);
        }
        // Candidate heap: (key, node, parent) where parent = n means the
        // source. Entries go stale when nodes attach or parents saturate —
        // both are detected at pop time (lazy deletion).
        let mut heap: BinaryHeap<Reverse<(Key, u32, u32)>> = BinaryHeap::new();
        let key = |parent_depth: f64, dist: f64| match self.objective {
            GreedyObjective::MinDelay => parent_depth + dist,
            GreedyObjective::MinEdge => dist,
        };
        // Best key seen per node: only push improvements, which keeps the
        // heap near-linear in practice (the algorithm stays O(n^2) in the
        // distance evaluations, as any exact greedy must be).
        let mut best_key = vec![f64::INFINITY; n];
        for (i, point) in points.iter().enumerate() {
            let d = source.distance(point);
            best_key[i] = key(0.0, d);
            heap.push(Reverse((Key(best_key[i]), i as u32, n as u32)));
        }
        let mut attached_order: Vec<u32> = Vec::with_capacity(n);
        let mut attached_count = 0usize;
        // The builder's own attached flags, kept locally: the relaxation
        // loop below reads them n times per attach.
        let mut attached = vec![false; n];
        while attached_count < n {
            let Some(Reverse((_, node, parent))) = heap.pop() else {
                // Heap exhausted with nodes left: recompute candidates for
                // all unattached nodes (can happen after saturations).
                for (i, bk) in best_key.iter_mut().enumerate() {
                    if attached[i] {
                        continue;
                    }
                    if let Some(k) = push_candidates(
                        &mut heap,
                        &builder,
                        &attached_order,
                        source,
                        points,
                        i,
                        key,
                    ) {
                        *bk = k;
                    }
                }
                if heap.is_empty() {
                    // No feasible parent anywhere: only possible when the
                    // degree budget is 0, which was rejected above.
                    unreachable!("a positive degree budget always admits a chain");
                }
                continue;
            };
            let node = node as usize;
            if attached[node] {
                continue;
            }
            // Try to attach; if the parent saturated since the entry was
            // pushed, recompute this node's best candidate and re-push.
            let ok = if parent as usize == n {
                builder.remaining_source_degree().is_none_or(|r| r > 0)
            } else {
                builder
                    .remaining_degree(parent as usize)
                    .is_none_or(|r| r > 0)
            };
            if !ok {
                if let Some(k) = push_candidates(
                    &mut heap,
                    &builder,
                    &attached_order,
                    source,
                    points,
                    node,
                    key,
                ) {
                    best_key[node] = k;
                }
                continue;
            }
            if parent as usize == n {
                builder.attach_to_source(node).expect("checked budget");
            } else {
                builder
                    .attach(node, parent as usize)
                    .expect("checked budget");
            }
            attached[node] = true;
            attached_order.push(node as u32);
            attached_count += 1;
            // Offer the new parent to every unattached node that improves.
            let nd = builder.depth_of(node).expect("just attached");
            for i in 0..n {
                if !attached[i] {
                    let k = key(nd, points[node].distance(&points[i]));
                    if k < best_key[i] {
                        best_key[i] = k;
                        heap.push(Reverse((Key(k), i as u32, node as u32)));
                    }
                }
            }
        }
        Ok(builder.finish().expect("all nodes attached"))
    }
}

/// Pushes the current best feasible candidate for `node` (source plus every
/// attached node with spare budget) and returns its key.
fn push_candidates<const D: usize>(
    heap: &mut BinaryHeap<Reverse<(Key, u32, u32)>>,
    builder: &TreeBuilder<D>,
    attached_order: &[u32],
    source: Point<D>,
    points: &[Point<D>],
    node: usize,
    key: impl Fn(f64, f64) -> f64,
) -> Option<f64> {
    let n = points.len();
    let mut best: Option<(Key, u32)> = None;
    if builder.remaining_source_degree().is_none_or(|r| r > 0) {
        let d = source.distance(&points[node]);
        best = Some((Key(key(0.0, d)), n as u32));
    }
    for &a in attached_order {
        if builder.remaining_degree(a as usize).is_none_or(|r| r > 0) {
            let pd = builder.depth_of(a as usize).expect("attached");
            let d = points[a as usize].distance(&points[node]);
            let k = Key(key(pd, d));
            if best.as_ref().is_none_or(|(bk, _)| k < *bk) {
                best = Some((k, a));
            }
        }
    }
    if let Some((k, p)) = best {
        heap.push(Reverse((k, node as u32, p)));
        return Some(k.0);
    }
    None
}

pub(crate) fn check_finite<const D: usize>(
    source: Point<D>,
    points: &[Point<D>],
) -> Result<(), BaselineError> {
    if !source.is_finite() {
        return Err(BaselineError::NonFinite { index: None });
    }
    if let Some(i) = points.iter().position(|p| !p.is_finite()) {
        return Err(BaselineError::NonFinite { index: Some(i) });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Disk, Point2, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    fn disk_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Disk::unit().sample_n(&mut rng, n)
    }

    #[test]
    fn cpt_valid_and_degree_bounded() {
        for n in [1usize, 2, 10, 200] {
            let pts = disk_points(n, n as u64);
            for deg in [1u32, 2, 6] {
                let t = GreedyBuilder::new(GreedyObjective::MinDelay)
                    .max_out_degree(deg)
                    .build(Point2::ORIGIN, &pts)
                    .unwrap();
                assert_eq!(t.len(), n);
                t.validate(Some(deg)).unwrap();
            }
        }
    }

    #[test]
    fn prim_valid_and_degree_bounded() {
        let pts = disk_points(300, 5);
        for deg in [2u32, 6] {
            let t = GreedyBuilder::new(GreedyObjective::MinEdge)
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            t.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn unbounded_cpt_is_a_star() {
        // With no degree bound, attaching through any relay can never beat
        // the direct edge (triangle inequality), so CPT produces the star.
        let pts = disk_points(100, 9);
        let t = GreedyBuilder::new(GreedyObjective::MinDelay)
            .build(Point2::ORIGIN, &pts)
            .unwrap();
        assert_eq!(t.source_out_degree() as usize, 100);
        let direct_max = pts.iter().map(|p| p.norm()).fold(0.0, f64::max);
        assert!((t.radius() - direct_max).abs() < 1e-12);
    }

    #[test]
    fn cpt_delay_at_least_lower_bound() {
        let pts = disk_points(500, 3);
        let lb = pts.iter().map(|p| p.norm()).fold(0.0, f64::max);
        let t = GreedyBuilder::new(GreedyObjective::MinDelay)
            .max_out_degree(2)
            .build(Point2::ORIGIN, &pts)
            .unwrap();
        assert!(t.radius() >= lb - 1e-12);
    }

    #[test]
    fn cpt_no_worse_than_prim_on_radius() {
        // CPT optimizes delay directly; Prim does not. On random instances
        // CPT should not lose (allow a tiny slack for ties).
        let mut cpt_total = 0.0;
        let mut prim_total = 0.0;
        for seed in 0..5u64 {
            let pts = disk_points(150, 60 + seed);
            let cpt = GreedyBuilder::new(GreedyObjective::MinDelay)
                .max_out_degree(4)
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            let prim = GreedyBuilder::new(GreedyObjective::MinEdge)
                .max_out_degree(4)
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            cpt_total += cpt.radius();
            prim_total += prim.radius();
        }
        assert!(
            cpt_total <= prim_total * 1.02,
            "{cpt_total} vs {prim_total}"
        );
    }

    #[test]
    fn prim_no_worse_than_cpt_on_weight() {
        let mut cpt_total = 0.0;
        let mut prim_total = 0.0;
        for seed in 0..5u64 {
            let pts = disk_points(150, 80 + seed);
            let cpt = GreedyBuilder::new(GreedyObjective::MinDelay)
                .max_out_degree(4)
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            let prim = GreedyBuilder::new(GreedyObjective::MinEdge)
                .max_out_degree(4)
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            cpt_total += cpt.total_edge_weight();
            prim_total += prim.total_edge_weight();
        }
        assert!(
            prim_total <= cpt_total * 1.02,
            "{prim_total} vs {cpt_total}"
        );
    }

    #[test]
    fn degree_one_builds_a_chain() {
        let pts = disk_points(30, 4);
        let t = GreedyBuilder::new(GreedyObjective::MinDelay)
            .max_out_degree(1)
            .build(Point2::ORIGIN, &pts)
            .unwrap();
        t.validate(Some(1)).unwrap();
        assert_eq!(t.max_hops(), 30);
    }

    #[test]
    fn zero_degree_rejected() {
        let pts = disk_points(3, 1);
        assert!(matches!(
            GreedyBuilder::new(GreedyObjective::MinDelay)
                .max_out_degree(0)
                .build(Point2::ORIGIN, &pts),
            Err(BaselineError::DegreeTooSmall { .. })
        ));
        // ...but fine for an empty input.
        let t = GreedyBuilder::new(GreedyObjective::MinDelay)
            .max_out_degree(0)
            .build::<2>(Point2::ORIGIN, &[])
            .unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn non_finite_rejected() {
        assert!(matches!(
            GreedyBuilder::new(GreedyObjective::MinDelay).build(Point2::new([f64::NAN, 0.0]), &[]),
            Err(BaselineError::NonFinite { index: None })
        ));
        assert!(matches!(
            GreedyBuilder::new(GreedyObjective::MinDelay)
                .build(Point2::ORIGIN, &[Point2::new([f64::INFINITY, 0.0])]),
            Err(BaselineError::NonFinite { index: Some(0) })
        ));
    }

    #[test]
    fn works_in_three_dimensions() {
        use omt_geom::{Ball, Point3};
        let mut rng = SmallRng::seed_from_u64(2);
        let pts = Ball::<3>::unit().sample_n(&mut rng, 100);
        let t = GreedyBuilder::new(GreedyObjective::MinDelay)
            .max_out_degree(3)
            .build(Point3::ORIGIN, &pts)
            .unwrap();
        t.validate(Some(3)).unwrap();
    }

    #[test]
    fn duplicate_points() {
        let pts = vec![Point2::new([0.4, 0.4]); 25];
        let t = GreedyBuilder::new(GreedyObjective::MinDelay)
            .max_out_degree(2)
            .build(Point2::ORIGIN, &pts)
            .unwrap();
        t.validate(Some(2)).unwrap();
    }
}
