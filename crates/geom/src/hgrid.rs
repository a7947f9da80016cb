//! Hierarchical capacity-summary index over polar-grid cells.
//!
//! The polar grid's flat cell numbering (`flat(ring, seg) = 2^ring - 1 +
//! seg`) is exactly a binary-heap layout: the children of flat index `i`
//! are `2i + 1` and `2i + 2`, and its parent is `(i - 1) / 2`. [`HGrid`]
//! exploits that to keep, for every cell *and every subtree of cells*,
//!
//! * open-capacity counts per out-degree class (how many hosts with `c`
//!   children still accept attachments), and
//! * a nearest-representative summary: the minimum source-to-host delay
//!   over the subtree's open hosts.
//!
//! Both are maintained incrementally in `O(classes + rings)` per cell
//! update, and power [`HGrid::best_open_parent`] — a best-first,
//! lower-bound-pruned search that provably returns the *same* answer a
//! linear scan over all cells returns (the differential parity suite in
//! `crates/geom/tests/hgrid_parity.rs` pins this bit for bit).
//!
//! # The lower bound
//!
//! The attach cost of an open host `h` for a query point `q` is
//! `delay(h) + |q - pos(h)|`. Every host bucketed in the subtree rooted at
//! node `(ring, seg)` lies inside the sector region
//!
//! ```text
//! S(ring, seg) = { (r, θ) : r ≥ inner(ring),  θ ∈ [seg·w, (seg+1)·w] },
//! w = 2π / 2^ring
//! ```
//!
//! (radially *unbounded outward*: grid assignment clamps out-of-disk radii
//! to the outermost ring, so a subtree always extends to infinity). With
//! `dist(q, S)` a geometric lower bound on `|q - pos(h)|` and `min_delay`
//! the subtree's delay summary,
//!
//! ```text
//! lb = (min_delay + dist(q, S)) · (1 - 1e-12)
//! ```
//!
//! under-estimates every attach cost in the subtree. The multiplicative
//! guard absorbs floating-point slop in the sector distance (boundary
//! hosts can be assigned a cell whose computed wedge excludes their
//! rounded angle by a few ulp), so a subtree is pruned only when `lb`
//! *strictly* exceeds the best cost found so far — which means no host in
//! it can beat, or even tie, the final answer, and the scan's
//! deterministic tie-breaking (lowest cost, then lowest cell index, then
//! earliest list position) is preserved exactly.
//!
//! # Examples
//!
//! ```
//! use omt_geom::{HGrid, Point2};
//!
//! // Two rings: cells 0 (disk), 1-2 (ring 1), 3-6 (ring 2).
//! let mut hg = HGrid::new(2, 4, &[0.0, 0.25, 0.5]);
//! // One open host with 1 child in cell 4, delay 0.7.
//! hg.set_cell(4, &[0, 1, 0, 0], 0.7);
//! assert_eq!(hg.cell_total(4), 1);
//! assert_eq!(hg.subtree_total_in(0, 4), 1);
//! // Best-first query: the scan closure rates cell 4's host.
//! let q = Point2::new([0.3, 0.4]);
//! let best = hg.best_open_parent(&q, 4, |cell| (cell == 4).then_some((0.9, "host")), None);
//! assert_eq!(best, Some((0.9, 4, "host")));
//! ```

use core::f64::consts::TAU;

use crate::point::Point2;
use crate::polar::normalize_angle;
use crate::region::{ConvexPolygon, Region};

/// Multiplicative guard applied to every lower bound so floating-point
/// slop in the sector distance can never manufacture a false prune.
const LB_GUARD: f64 = 1.0 - 1e-12;

/// Angular slack (relative to the wedge width) under which a query is
/// treated as inside the wedge, falling back to the always-valid radial
/// bound instead of the boundary-ray distance.
const WEDGE_SLACK: f64 = 1e-9;

/// Whether the `OMT_HGRID` environment variable asks for the hierarchical
/// index (`1` or `true`, case-insensitive). Consumers read this once at
/// construction so a process-wide setting turns every parent search in a
/// test campaign through the index.
pub fn env_enabled() -> bool {
    std::env::var("OMT_HGRID")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

/// One pruned subtree from an audited [`HGrid::best_open_parent`] query:
/// the node, the lower bound that excluded it, and the best cost at the
/// moment of pruning. The no-false-prune property test asserts every open
/// host under `node` costs at least `lower_bound` and strictly more than
/// the query's final answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruneRecord {
    /// Flat index of the pruned subtree's root node.
    pub node: usize,
    /// The guarded lower bound computed for the subtree.
    pub lower_bound: f64,
    /// The best attach cost known when the subtree was pruned.
    pub best_at_prune: f64,
}

/// Hierarchical capacity-summary index over the cells of a polar grid.
///
/// The caller maintains it through [`set_cell`](HGrid::set_cell), which
/// re-declares a cell's full per-class census and min-delay summary: the
/// dynamic overlay rescans its per-cell open list at each mutation.
#[derive(Clone, Debug, PartialEq)]
pub struct HGrid {
    rings: u32,
    classes: usize,
    cells: usize,
    /// Inner radius of each ring (`ring_inner[0] == 0`).
    ring_inner: Vec<f64>,
    /// Per-cell open-host counts, `cells × classes` row-major.
    direct_counts: Vec<u32>,
    /// Per-subtree open-host counts, same layout.
    sub_counts: Vec<u32>,
    /// Per-cell minimum open-host delay (`+inf` when the cell is empty).
    direct_min: Vec<f64>,
    /// Per-subtree minimum open-host delay.
    sub_min: Vec<f64>,
}

impl HGrid {
    /// Creates an empty index for a grid of `rings + 1` ring levels
    /// (level 0 is the inner disk) and `classes` out-degree classes.
    /// `ring_inner[r]` is the inner radius of ring `r`; `ring_inner[0]`
    /// must be `0`.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`, `ring_inner.len() != rings + 1`, or the
    /// radii are not finite, non-negative, and non-decreasing from zero.
    pub fn new(rings: u32, classes: usize, ring_inner: &[f64]) -> Self {
        assert!(classes > 0, "need at least one degree class");
        assert!(rings < 62, "ring count {rings} overflows the flat layout");
        assert_eq!(
            ring_inner.len(),
            rings as usize + 1,
            "need one inner radius per ring level"
        );
        assert_eq!(ring_inner[0], 0.0, "the inner disk starts at radius 0");
        for w in ring_inner.windows(2) {
            assert!(
                w[0].is_finite() && w[1].is_finite() && 0.0 <= w[0] && w[0] <= w[1],
                "ring radii must be finite, non-negative, and non-decreasing"
            );
        }
        let cells = ((1u64 << (rings + 1)) - 1) as usize;
        Self {
            rings,
            classes,
            cells,
            ring_inner: ring_inner.to_vec(),
            direct_counts: vec![0; cells * classes],
            sub_counts: vec![0; cells * classes],
            direct_min: vec![f64::INFINITY; cells],
            sub_min: vec![f64::INFINITY; cells],
        }
    }

    /// Number of ring levels minus one (the deepest ring index).
    pub fn rings(&self) -> u32 {
        self.rings
    }

    /// Number of out-degree classes tracked.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total number of cells (`2^(rings+1) - 1`).
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Re-declares `cell`'s census: `counts[c]` open hosts of out-degree
    /// class `c`, with `min_delay` the minimum delay among them
    /// (`+inf` for an empty cell). `O(classes + rings)`.
    ///
    /// # Panics
    ///
    /// Panics on a bad cell index, a `counts` length mismatch, or a
    /// negative/NaN `min_delay`.
    pub fn set_cell(&mut self, cell: usize, counts: &[u32], min_delay: f64) {
        assert!(cell < self.cells, "cell {cell} out of range");
        assert_eq!(counts.len(), self.classes, "one count per degree class");
        assert!(min_delay >= 0.0, "delays are non-negative");
        let base = cell * self.classes;
        self.direct_counts[base..base + self.classes].copy_from_slice(counts);
        self.direct_min[cell] = min_delay;
        self.refold_path(cell);
    }

    /// Open hosts bucketed directly in `cell`, all classes.
    pub fn cell_total(&self, cell: usize) -> u64 {
        self.cell_total_in(cell, self.classes)
    }

    /// Open hosts bucketed directly in `cell` with class below `cap`.
    pub fn cell_total_in(&self, cell: usize, cap: usize) -> u64 {
        let base = cell * self.classes;
        self.direct_counts[base..base + cap.min(self.classes)]
            .iter()
            .map(|&c| u64::from(c))
            .sum()
    }

    /// Open hosts in the subtree rooted at `node` with class below `cap`.
    pub fn subtree_total_in(&self, node: usize, cap: usize) -> u64 {
        let base = node * self.classes;
        self.sub_counts[base..base + cap.min(self.classes)]
            .iter()
            .map(|&c| u64::from(c))
            .sum()
    }

    /// The guarded lower bound on any attach cost in the subtree rooted at
    /// `node`, for a query at `q` (in grid-centered coordinates): subtree
    /// min delay plus the distance from `q` to the subtree's sector
    /// region, scaled by the conservative guard. `+inf` when the subtree
    /// has no delay summary.
    pub fn subtree_lower_bound(&self, node: usize, q: &Point2) -> f64 {
        let min_delay = self.sub_min[node];
        if min_delay == f64::INFINITY {
            return f64::INFINITY;
        }
        (min_delay + self.sector_distance(node, q)) * LB_GUARD
    }

    /// Best-first, lower-bound-pruned search for the cheapest open parent.
    ///
    /// `scan` rates one cell: it returns the cell's best candidate as
    /// `(attach_cost, payload)` — breaking in-cell ties by earliest list
    /// position — or `None` when no eligible candidate exists (exclusions
    /// live in the closure; the summaries still count excluded hosts, so
    /// every bound stays a conservative under-estimate). `cap` restricts
    /// the capacity counts consulted to classes below it.
    ///
    /// Returns the overall winner as `(cost, cell, payload)`, minimal by
    /// `(cost, cell)` exactly as a linear scan over all cells in flat
    /// order would choose it. When `audit` is given, every bound-pruned
    /// subtree is recorded (count-empty skips are exact, not heuristic,
    /// and are not recorded).
    pub fn best_open_parent<P, F>(
        &self,
        q: &Point2,
        cap: usize,
        mut scan: F,
        mut audit: Option<&mut Vec<PruneRecord>>,
    ) -> Option<(f64, usize, P)>
    where
        F: FnMut(usize) -> Option<(f64, P)>,
    {
        let mut best: Option<(f64, usize, P)> = None;
        self.visit(0, q, cap, &mut scan, &mut best, &mut audit);
        best
    }

    fn visit<P, F>(
        &self,
        node: usize,
        q: &Point2,
        cap: usize,
        scan: &mut F,
        best: &mut Option<(f64, usize, P)>,
        audit: &mut Option<&mut Vec<PruneRecord>>,
    ) where
        F: FnMut(usize) -> Option<(f64, P)>,
    {
        if self.subtree_total_in(node, cap) == 0 {
            return;
        }
        if let Some((best_cost, _, _)) = best {
            let lb = self.subtree_lower_bound(node, q);
            // Strict: an equal-bound subtree could still hold an
            // equal-cost host in a lower cell, which wins the tie.
            if lb > *best_cost {
                if let Some(records) = audit {
                    records.push(PruneRecord {
                        node,
                        lower_bound: lb,
                        best_at_prune: *best_cost,
                    });
                }
                return;
            }
        }
        if self.cell_total_in(node, cap) > 0 {
            if let Some((cost, payload)) = scan(node) {
                let replace = match best {
                    None => true,
                    Some((bc, bcell, _)) => cost < *bc || (cost == *bc && node < *bcell),
                };
                if replace {
                    *best = Some((cost, node, payload));
                }
            }
        }
        let left = 2 * node + 1;
        if left >= self.cells {
            return;
        }
        let right = left + 1;
        // Best-first: the nearer child tightens the bound before the
        // farther child is considered. Order affects pruning only, never
        // the result.
        let (first, second) =
            if self.subtree_lower_bound(left, q) <= self.subtree_lower_bound(right, q) {
                (left, right)
            } else {
                (right, left)
            };
        self.visit(first, q, cap, scan, best, audit);
        self.visit(second, q, cap, scan, best, audit);
    }

    /// Distance from `q` to the sector region of the subtree rooted at
    /// `node`: the wedge of its angular extent, radially unbounded
    /// outward from the ring's inner radius.
    fn sector_distance(&self, node: usize, q: &Point2) -> f64 {
        let (ring, seg) = unflatten(node);
        if ring == 0 {
            return 0.0; // the root region is the whole plane
        }
        let r_in = self.ring_inner[ring as usize];
        let segments = 1u64 << ring;
        let width = TAU / segments as f64;
        let lo = seg as f64 * width;
        let hi = if seg + 1 == segments { TAU } else { lo + width };
        let radius = q.norm();
        let theta = normalize_angle(q.angle());
        // The radial gap is a valid lower bound for ANY query (every
        // region point has radius >= r_in), so near-boundary queries can
        // safely take this branch even when rounding flips which side of
        // the wedge they are on.
        let slack = width * WEDGE_SLACK;
        if theta >= lo - slack && theta <= hi + slack {
            return (r_in - radius).max(0.0);
        }
        let hi_ray = if seg + 1 == segments { 0.0 } else { hi };
        ray_distance(q, lo, r_in).min(ray_distance(q, hi_ray, r_in))
    }

    /// Recomputes the subtree aggregates along the path from `node` to
    /// the root from each node's direct census and its children's
    /// (already consistent) subtree aggregates.
    fn refold_path(&mut self, mut node: usize) {
        loop {
            let base = node * self.classes;
            let left = 2 * node + 1;
            let mut min_delay = self.direct_min[node];
            for class in 0..self.classes {
                let mut total = self.direct_counts[base + class];
                if left < self.cells {
                    total += self.sub_counts[left * self.classes + class];
                    total += self.sub_counts[(left + 1) * self.classes + class];
                }
                self.sub_counts[base + class] = total;
            }
            if left < self.cells {
                min_delay = min_delay
                    .min(self.sub_min[left])
                    .min(self.sub_min[left + 1]);
            }
            self.sub_min[node] = min_delay;
            if node == 0 {
                break;
            }
            node = (node - 1) / 2;
        }
    }

    /// Asserts that `self` and a from-scratch rebuild `other` agree on
    /// every summary: shape, counts *and* delay minima (the latter
    /// compared exactly — incremental refolds evaluate the same fold
    /// expression a rebuild does, so they must match bit for bit).
    ///
    /// # Panics
    ///
    /// Panics with the first disagreement.
    pub fn assert_same(&self, other: &HGrid) {
        assert!(
            self.rings == other.rings && self.classes == other.classes,
            "hgrid shape mismatch: {}r/{}c vs {}r/{}c",
            self.rings,
            self.classes,
            other.rings,
            other.classes
        );
        for (i, (a, b)) in self
            .direct_counts
            .iter()
            .zip(&other.direct_counts)
            .enumerate()
        {
            assert!(
                a == b,
                "direct count mismatch at cell {} class {}: {a} vs {b}",
                i / self.classes,
                i % self.classes
            );
        }
        for (i, (a, b)) in self.sub_counts.iter().zip(&other.sub_counts).enumerate() {
            assert!(
                a == b,
                "subtree count mismatch at node {} class {}: {a} vs {b}",
                i / self.classes,
                i % self.classes
            );
        }
        assert_eq!(
            self.ring_inner, other.ring_inner,
            "hgrid ring radii diverged"
        );
        for (i, (a, b)) in self.direct_min.iter().zip(&other.direct_min).enumerate() {
            assert!(a == b, "direct min mismatch at cell {i}: {a} vs {b}");
        }
        for (i, (a, b)) in self.sub_min.iter().zip(&other.sub_min).enumerate() {
            assert!(a == b, "subtree min mismatch at node {i}: {a} vs {b}");
        }
    }
}

/// Distance from `q` to the truncated ray `{ t·(cos θ, sin θ) : t ≥ r_in }`.
fn ray_distance(q: &Point2, theta: f64, r_in: f64) -> f64 {
    let u = Point2::new([theta.cos(), theta.sin()]);
    let t = q.dot(&u).max(r_in);
    q.distance(&Point2::new([u.x() * t, u.y() * t]))
}

/// Inverse of the flat cell index: `(ring, seg)`.
fn unflatten(idx: usize) -> (u32, u64) {
    let v = idx as u64 + 1;
    let ring = 63 - v.leading_zeros();
    (ring, v - (1u64 << ring))
}

/// The deepest-interior point (pole of inaccessibility) of a convex
/// polygon, to within `tolerance`: the center of the largest inscribed
/// circle, found by the polylabel-style best-first quadtree search. This
/// is the representative-placement mode the generalization workload uses
/// for arbitrary convex regions with off-center sources: the returned
/// point maximizes the clearance to the region boundary, so a source (or
/// cell representative) placed there keeps the grid's active area
/// balanced.
///
/// For a convex polygon the interior depth of a point is exactly the
/// minimum signed distance to the edge lines, which is 1-Lipschitz — so
/// `depth(center) + half_diagonal` upper-bounds the depth anywhere in a
/// square search cell, and cells whose bound cannot beat the incumbent
/// are pruned (the same bound-pruning pattern [`HGrid`] uses, with the
/// inequality flipped for maximization).
///
/// `tolerance` is the accepted depth shortfall of the returned point.
/// Polygons with two parallel binding edges (any true trapezoid) have a
/// *plateau* — a whole segment of maximal-depth points — and bound
/// pruning cannot separate plateau cells from each other, so the work
/// scales as O(plateau length / tolerance). Pick the coarsest tolerance
/// the caller can stand (placement workloads use `1e-6`); nanometre
/// tolerances on plateaued shapes cost gigabytes, not nanometres.
///
/// # Panics
///
/// Panics if `tolerance` is not strictly positive and finite.
///
/// # Examples
///
/// ```
/// use omt_geom::{deepest_interior, ConvexPolygon, Point2};
///
/// let hex = ConvexPolygon::regular(6, Point2::new([2.0, -1.0]), 1.0);
/// let pole = deepest_interior(&hex, 1e-9);
/// assert!(pole.distance(&Point2::new([2.0, -1.0])) < 1e-6);
/// ```
pub fn deepest_interior(poly: &ConvexPolygon, tolerance: f64) -> Point2 {
    assert!(
        tolerance > 0.0 && tolerance.is_finite(),
        "tolerance must be positive and finite"
    );
    let vertices = poly.vertices();
    let depth = |p: &Point2| -> f64 {
        let n = vertices.len();
        let mut d = f64::INFINITY;
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let e = b - a;
            let len = e.norm();
            // Signed distance to the edge line; positive inside (CCW).
            d = d.min((e.x() * (p.y() - a.y()) - e.y() * (p.x() - a.x())) / len);
        }
        d
    };
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for v in vertices {
        min_x = min_x.min(v.x());
        min_y = min_y.min(v.y());
        max_x = max_x.max(v.x());
        max_y = max_y.max(v.y());
    }
    /// One square search cell, ordered by its depth upper bound (ties
    /// broken on coordinates so the heap order — and hence the returned
    /// pole — is deterministic).
    #[derive(PartialEq)]
    struct Cand {
        score: f64,
        x: f64,
        y: f64,
        half: f64,
    }
    impl Eq for Cand {}
    impl Ord for Cand {
        fn cmp(&self, other: &Self) -> core::cmp::Ordering {
            self.score
                .total_cmp(&other.score)
                .then(self.x.total_cmp(&other.x))
                .then(self.y.total_cmp(&other.y))
        }
    }
    impl PartialOrd for Cand {
        fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut best_point = poly.reference_point();
    let mut best_depth = depth(&best_point);
    let half = ((max_x - min_x).max(max_y - min_y)) / 2.0;
    let mut heap = std::collections::BinaryHeap::new();
    let root = Point2::new([(min_x + max_x) / 2.0, (min_y + max_y) / 2.0]);
    heap.push(Cand {
        score: depth(&root) + half * core::f64::consts::SQRT_2,
        x: root.x(),
        y: root.y(),
        half,
    });
    while let Some(cand) = heap.pop() {
        if cand.score - best_depth <= tolerance {
            break; // the max-heap invariant: nothing left can improve
        }
        let h = cand.half / 2.0;
        for (dx, dy) in [(-h, -h), (h, -h), (-h, h), (h, h)] {
            let center = Point2::new([cand.x + dx, cand.y + dy]);
            let d = depth(&center);
            if d > best_depth {
                best_depth = d;
                best_point = center;
            }
            let score = d + h * core::f64::consts::SQRT_2;
            if score - best_depth > tolerance {
                heap.push(Cand {
                    score,
                    x: center.x(),
                    y: center.y(),
                    half: h,
                });
            }
        }
    }
    best_point
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_ring_grid() -> HGrid {
        HGrid::new(2, 3, &[0.0, 0.3, 0.6])
    }

    #[test]
    fn counts_fold_up_the_heap() {
        let mut hg = two_ring_grid();
        hg.set_cell(3, &[1, 0, 2], 0.5);
        hg.set_cell(6, &[0, 1, 0], 0.2);
        assert_eq!(hg.cell_total(3), 3);
        assert_eq!(hg.subtree_total_in(1, 3), 3);
        assert_eq!(hg.subtree_total_in(2, 3), 1);
        assert_eq!(hg.subtree_total_in(0, 3), 4);
        // Capped totals exclude high classes.
        assert_eq!(hg.subtree_total_in(0, 1), 1);
        assert_eq!(hg.subtree_total_in(0, 2), 2);
        // Min delay folds too.
        assert_eq!(hg.sub_min[0], 0.2);
        assert_eq!(hg.sub_min[1], 0.5);
        // Clearing a cell restores emptiness.
        hg.set_cell(3, &[0, 0, 0], f64::INFINITY);
        assert_eq!(hg.subtree_total_in(0, 3), 1);
        assert_eq!(hg.sub_min[1], f64::INFINITY);
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let mut incremental = two_ring_grid();
        for (cell, counts, min) in [
            (0, [1u32, 0, 0], 0.9),
            (3, [0, 2, 0], 0.4),
            (3, [1, 1, 0], 0.3), // overwrite
            (5, [0, 0, 1], 0.8),
        ] {
            incremental.set_cell(cell, &counts, min);
        }
        let mut fresh = two_ring_grid();
        fresh.set_cell(0, &[1, 0, 0], 0.9);
        fresh.set_cell(3, &[1, 1, 0], 0.3);
        fresh.set_cell(5, &[0, 0, 1], 0.8);
        incremental.assert_same(&fresh);
    }

    #[test]
    fn sector_distance_basics() {
        let hg = two_ring_grid();
        // Root region is everything.
        assert_eq!(hg.sector_distance(0, &Point2::new([5.0, -3.0])), 0.0);
        // Query inside ring-2 cell 3's wedge (angle ~0), inside radially.
        let q = Point2::new([0.7, 0.05]);
        assert_eq!(hg.sector_distance(3, &q), 0.0);
        // Same angle, radially inside the ring: radial gap.
        let q = Point2::new([0.2, 0.0]);
        assert!((hg.sector_distance(3, &q) - 0.4).abs() < 1e-12);
        // Opposite wedge: distance through the plane, at most |q| + r_in.
        let q = Point2::new([-0.5, -0.001]);
        let d = hg.sector_distance(3, &q);
        assert!(d > 0.5 && d <= 0.5 + 0.6 + 1e-9, "distance {d}");
        // The bound never exceeds the true distance to a contained point.
        let host = Point2::new([0.9_f64.cos() * 0.7, 0.9_f64.sin() * 0.7]);
        let flat = |ring: u32, seg: u64| ((1u64 << ring) - 1 + seg) as usize;
        let cell = flat(2, (normalize_angle(host.angle()) / TAU * 4.0) as u64);
        for q in [
            Point2::new([-1.0, 0.4]),
            Point2::new([0.0, -0.9]),
            Point2::ORIGIN,
            Point2::new([2.0, 2.0]),
        ] {
            assert!(hg.sector_distance(cell, &q) <= q.distance(&host) + 1e-12);
        }
    }

    #[test]
    fn query_is_a_linear_scan_with_pruning() {
        // Synthetic census: hosts as (cell, delay, position).
        let mut hg = two_ring_grid();
        let hosts = [
            (3usize, 0.40, Point2::new([0.7, 0.1])),
            (4usize, 0.35, Point2::new([0.05, 0.8])),
            (6usize, 0.90, Point2::new([0.4, -0.6])),
            (0usize, 0.85, Point2::new([0.1, 0.05])),
        ];
        for (cell, delay, _) in hosts {
            let mut counts = [0u32; 3];
            counts[1] = 1;
            hg.set_cell(cell, &counts, delay);
        }
        // (cell 4 holds one host at delay .35 etc.)
        hg.set_cell(4, &[0, 1, 0], 0.35);
        let q = Point2::new([0.6, 0.2]);
        let cost_of = |cell: usize| {
            hosts
                .iter()
                .filter(|(c, _, _)| *c == cell)
                .map(|(_, d, p)| (d + p.distance(&q), cell))
                .next()
        };
        let mut audit = Vec::new();
        let got = hg.best_open_parent(
            &q,
            3,
            |cell| cost_of(cell).map(|(c, _)| (c, cell)),
            Some(&mut audit),
        );
        // Brute force over all hosts.
        let want = hosts
            .iter()
            .map(|(cell, d, p)| (d + p.distance(&q), *cell))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .unwrap();
        let (cost, cell, payload) = got.unwrap();
        assert_eq!((cost, cell), want);
        assert_eq!(payload, cell);
        // Every recorded prune genuinely excludes its subtree.
        for rec in &audit {
            assert!(rec.lower_bound > rec.best_at_prune);
            for (c, d, p) in hosts {
                let mut anc = c;
                let covered = loop {
                    if anc == rec.node {
                        break true;
                    }
                    if anc == 0 {
                        break false;
                    }
                    anc = (anc - 1) / 2;
                };
                if covered {
                    let cost = d + p.distance(&q);
                    assert!(cost >= rec.lower_bound && cost > want.0);
                }
            }
        }
    }

    #[test]
    fn empty_index_returns_none() {
        let hg = two_ring_grid();
        let r: Option<(f64, usize, ())> =
            hg.best_open_parent(&Point2::ORIGIN, 3, |_| panic!("must not scan"), None);
        assert!(r.is_none());
    }

    #[test]
    fn deepest_interior_of_symmetric_shapes_is_the_center() {
        let square = ConvexPolygon::new(vec![
            Point2::new([0.0, 0.0]),
            Point2::new([2.0, 0.0]),
            Point2::new([2.0, 2.0]),
            Point2::new([0.0, 2.0]),
        ])
        .unwrap();
        let pole = deepest_interior(&square, 1e-9);
        assert!(pole.distance(&Point2::new([1.0, 1.0])) < 1e-6);
        let hex = ConvexPolygon::regular(6, Point2::new([-3.0, 0.5]), 2.0);
        let pole = deepest_interior(&hex, 1e-9);
        assert!(pole.distance(&Point2::new([-3.0, 0.5])) < 1e-6);
    }

    #[test]
    fn deepest_interior_beats_the_centroid_on_skewed_shapes() {
        // A sharp right trapezoid: the centroid is pulled toward the long
        // edge, while the pole of inaccessibility sits deeper.
        let trap = ConvexPolygon::new(vec![
            Point2::new([0.0, 0.0]),
            Point2::new([4.0, 0.0]),
            Point2::new([4.0, 0.2]),
            Point2::new([0.0, 1.6]),
        ])
        .unwrap();
        let pole = deepest_interior(&trap, 1e-9);
        assert!(trap.contains(&pole));
        let depth = |p: &Point2| {
            let vs = trap.vertices();
            (0..vs.len())
                .map(|i| {
                    let a = vs[i];
                    let b = vs[(i + 1) % vs.len()];
                    let e = b - a;
                    (e.x() * (p.y() - a.y()) - e.y() * (p.x() - a.x())) / e.norm()
                })
                .fold(f64::INFINITY, f64::min)
        };
        assert!(depth(&pole) >= depth(&trap.reference_point()) - 1e-9);
        assert!(depth(&pole) > 0.0);
    }

    #[test]
    fn env_gate_parses_common_spellings() {
        // Only parse logic is tested here (the variable itself is owned
        // by the test runner's environment).
        let on = |v: &str| v == "1" || v.eq_ignore_ascii_case("true");
        assert!(on("1") && on("true") && on("TRUE"));
        assert!(!on("0") && !on("") && !on("yes"));
    }
}
