//! The bisection algorithm (Section II of the paper): a constant-factor
//! approximation for the degree-constrained minimum-radius spanning tree of
//! points inside a polar ring segment.
//!
//! Two variants are provided, matching the paper:
//!
//! * **out-degree 4** — the segment is split into four sub-segments (radius
//!   and angle each halved); the source connects the representative of each
//!   non-empty sub-segment, chosen as the point whose radius is closest to
//!   the source's radius. Theorem 1: paths are within factor 5 of optimal,
//!   per equation (1): `l_p ≤ max(R-q, q-r) + 2·R·a`.
//! * **out-degree 2** — the source connects only two points (again chosen
//!   by radius proximity), which then take over half the segment each; the
//!   angular term doubles, per equation (2): `l_p ≤ max(R-q, q-r) + 4·R·a`,
//!   and the approximation factor becomes 9.
//!
//! Both are implemented with explicit work stacks (no recursion) so
//! adversarially clustered inputs cannot overflow the call stack, and both
//! are careful to make progress every step — each work item attaches at
//! least one point — so termination is unconditional, even for duplicate
//! points.

use omt_geom::{Point2, PolarPoint, RingSegment};
use omt_tree::{MulticastTree, ParentRef, TreeBuilder, TreeError};

pub(crate) use crate::fanout::fanout_chain;
pub(crate) use crate::sink::attach;

use crate::error::BuildError;
use crate::sink::AttachSink;

/// The axis a binary split halves, cycling radius → angle → radius → …
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Axis {
    Radius,
    Angle,
}

impl Axis {
    fn next(self) -> Self {
        match self {
            Self::Radius => Self::Angle,
            Self::Angle => Self::Radius,
        }
    }
}

/// A read-only structure-of-arrays view of polar coordinates, as consumed
/// by the bisection kernels ([`bisect4`], [`bisect2`]).
///
/// `radius[i]` / `angle[i]` are the polar components of the point at
/// position `i` in the frame the segment lives in. For the grid the view
/// is one cell's window of the cell-major source-relative columns, so `i`
/// is a local position and the window's first row plus `i` is its arena
/// row; for the standalone builder it is the far-pole columns of a
/// [`CoveringFrame`], indexed by point id (row base 0). The view is `Copy`
/// so parallel cell workers can capture it by value.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PolarSlices<'a> {
    /// Source-relative radii.
    pub radius: &'a [f64],
    /// Source-relative angles in `[0, 2π)`.
    pub angle: &'a [f64],
}

impl PolarSlices<'_> {
    /// Reassembles the point at position `i` as a [`PolarPoint`].
    #[inline]
    pub fn get(&self, i: u32) -> PolarPoint {
        PolarPoint {
            radius: self.radius[i as usize],
            angle: self.angle[i as usize],
        }
    }

    /// Radius of the point at position `i`.
    #[inline]
    pub fn radius_of(&self, i: u32) -> f64 {
        self.radius[i as usize]
    }
}

/// A 4-way work frame over a range of the scratch position array.
#[derive(Clone, Debug)]
struct Frame4 {
    seg: RingSegment,
    src: ParentRef,
    q: f64,
    start: u32,
    end: u32,
    depth: u32,
}

/// A binary work frame over a range of the scratch position array.
#[derive(Clone, Debug)]
struct Frame2 {
    seg: RingSegment,
    axis: Axis,
    src: ParentRef,
    q: f64,
    start: u32,
    end: u32,
    depth: u32,
}

/// Reusable scratch for the bisection kernels: the window's local
/// positions (which the kernels permute, leaving the columns read-only),
/// the explicit work stacks, and the staging buffers for stable in-place
/// partitions. One instance is carried across all cell jobs of a build
/// (one per worker in the parallel fill), so the steady state allocates
/// nothing per frame.
#[derive(Debug, Default)]
pub(crate) struct Scratch2 {
    loc: Vec<u32>,
    perm: Vec<u32>,
    class: Vec<u8>,
    stack4: Vec<Frame4>,
    stack2: Vec<Frame2>,
}

/// Picks the position in `idx` whose radius is closest to `q` (the
/// paper's representative rule: "radius closest to the radius of the
/// source node"; the first minimum wins ties), swaps it to the back of
/// `idx` and returns it. The rest of `idx` keeps its order except for the
/// one element that took the chosen slot, as with `Vec::swap_remove`.
pub(crate) fn take_closest_radius(radius: &[f64], idx: &mut [u32], q: f64) -> u32 {
    debug_assert!(!idx.is_empty());
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (pos, &p) in idx.iter().enumerate() {
        let d = (radius[p as usize] - q).abs();
        if d < best_d {
            best_d = d;
            best = pos;
        }
    }
    let last = idx.len() - 1;
    idx.swap(best, last);
    idx[last]
}

/// Fills `loc` with the window's local positions `0..len`, in window order.
pub(crate) fn reset_positions(loc: &mut Vec<u32>, len: usize) {
    loc.clear();
    loc.extend(0..len as u32);
}

/// Connects every point of a window below `src` with out-degree at most 4
/// per node, following the 4-way bisection of `seg`.
///
/// `polar` holds the window's coordinates by local position, and the
/// window is the sink's rows `base..base + len`; the kernel permutes local
/// positions in `scratch` and attaches row `base + position`. `src` is a
/// row outside the window (or the source) and `src_radius` its radius in
/// the frame of `polar`.
pub(crate) fn bisect4<S: AttachSink>(
    b: &mut S,
    polar: PolarSlices<'_>,
    base: usize,
    seg: RingSegment,
    src: ParentRef,
    src_radius: f64,
    scratch: &mut Scratch2,
) -> Result<(), TreeError> {
    let Scratch2 {
        loc,
        perm,
        class,
        stack4,
        ..
    } = scratch;
    reset_positions(loc, polar.radius.len());
    stack4.clear();
    stack4.push(Frame4 {
        seg,
        src,
        q: src_radius,
        start: 0,
        end: loc.len() as u32,
        depth: 0,
    });
    while let Some(f) = stack4.pop() {
        let (start, end) = (f.start as usize, f.end as usize);
        if start == end {
            continue;
        }
        omt_obs::obs_observe!("bisect2d/depth", u64::from(f.depth));
        omt_obs::obs_count!("bisect2d/splits");
        // Partition the window into the four sub-segments: count + classify
        // in one pass, then scatter stably from a staged copy, so each
        // sub-segment keeps its input order (the representative tie rule
        // depends on it).
        let children = f.seg.split4();
        class.clear();
        let mut counts = [0u32; 4];
        for &p in &loc[start..end] {
            let c = f.seg.classify4(&polar.get(p));
            class.push(c as u8);
            counts[c] += 1;
        }
        perm.clear();
        perm.extend_from_slice(&loc[start..end]);
        let mut bounds = [0usize; 5];
        bounds[0] = start;
        for c in 0..4 {
            bounds[c + 1] = bounds[c] + counts[c] as usize;
        }
        let mut cursors = [bounds[0], bounds[1], bounds[2], bounds[3]];
        for (j, &p) in perm.iter().enumerate() {
            let c = class[j] as usize;
            loc[cursors[c]] = p;
            cursors[c] += 1;
        }
        for c in 0..4 {
            let (cs, ce) = (bounds[c], bounds[c + 1]);
            if cs == ce {
                continue;
            }
            let rep = take_closest_radius(polar.radius, &mut loc[cs..ce], f.q);
            let rep_row = base + rep as usize;
            attach(b, rep_row, f.src)?;
            if ce - cs > 1 {
                stack4.push(Frame4 {
                    seg: children[c],
                    src: ParentRef::Node(rep_row),
                    q: polar.radius_of(rep),
                    start: cs as u32,
                    end: (ce - 1) as u32,
                    depth: f.depth + 1,
                });
            }
        }
    }
    Ok(())
}

/// Connects every point of a window below `src` with out-degree at most 2
/// per node: the source adopts the two points with radius closest to its
/// own, which then take over the two halves of the segment (split along
/// alternating axes — the binary refinement of the paper's 4-way step).
///
/// The window is given as in [`bisect4`]: coordinates by local position,
/// rows from `base`, with the positions permuted in `scratch`.
pub(crate) fn bisect2<S: AttachSink>(
    b: &mut S,
    polar: PolarSlices<'_>,
    base: usize,
    seg: RingSegment,
    src: ParentRef,
    src_radius: f64,
    scratch: &mut Scratch2,
) -> Result<(), TreeError> {
    let Scratch2 {
        loc, perm, stack2, ..
    } = scratch;
    reset_positions(loc, polar.radius.len());
    stack2.clear();
    stack2.push(Frame2 {
        seg,
        axis: Axis::Radius,
        src,
        q: src_radius,
        start: 0,
        end: loc.len() as u32,
        depth: 0,
    });
    while let Some(f) = stack2.pop() {
        let (start, end) = (f.start as usize, f.end as usize);
        match end - start {
            0 => continue,
            1 => {
                attach(b, base + loc[start] as usize, f.src)?;
                continue;
            }
            2 => {
                attach(b, base + loc[start] as usize, f.src)?;
                attach(b, base + loc[start + 1] as usize, f.src)?;
                continue;
            }
            _ => {}
        }
        omt_obs::obs_observe!("bisect2d/depth", u64::from(f.depth));
        omt_obs::obs_count!("bisect2d/splits");
        let a = take_closest_radius(polar.radius, &mut loc[start..end], f.q);
        let c = take_closest_radius(polar.radius, &mut loc[start..end - 1], f.q);
        attach(b, base + a as usize, f.src)?;
        attach(b, base + c as usize, f.src)?;
        // Split the segment and hand each half to one carrier.
        let (lo_seg, hi_seg) = match f.axis {
            Axis::Radius => {
                let parts = f.seg.split4();
                // split4 yields [inner-lo, inner-hi, outer-lo, outer-hi];
                // recombine into inner/outer halves.
                (
                    RingSegment::new(
                        parts[0].r_lo(),
                        parts[0].r_hi(),
                        f.seg.arc().lo(),
                        f.seg.arc().hi(),
                    ),
                    RingSegment::new(
                        parts[2].r_lo(),
                        parts[2].r_hi(),
                        f.seg.arc().lo(),
                        f.seg.arc().hi(),
                    ),
                )
            }
            Axis::Angle => f.seg.split_angle(),
        };
        // Stable lo/hi partition of the remaining window (the two carriers
        // are parked past `rest_end` and are no longer members).
        let rest_end = end - 2;
        let rm = 0.5 * (f.seg.r_lo() + f.seg.r_hi());
        let am = f.seg.arc().mid();
        let is_hi = |p: u32| match f.axis {
            Axis::Radius => polar.radius[p as usize] >= rm,
            Axis::Angle => polar.angle[p as usize] >= am,
        };
        perm.clear();
        perm.extend_from_slice(&loc[start..rest_end]);
        let mut w = start;
        for &p in perm.iter() {
            if !is_hi(p) {
                loc[w] = p;
                w += 1;
            }
        }
        let mid = w;
        for &p in perm.iter() {
            if is_hi(p) {
                loc[w] = p;
                w += 1;
            }
        }
        debug_assert_eq!(w, rest_end);
        // Give the lower half to the carrier closer to it in the split
        // coordinate, to avoid pointless criss-crossing.
        let (pa, pc) = (polar.get(a), polar.get(c));
        let (carrier_lo, carrier_hi) = match f.axis {
            Axis::Radius => {
                if pa.radius <= pc.radius {
                    (a, c)
                } else {
                    (c, a)
                }
            }
            Axis::Angle => {
                if pa.angle <= pc.angle {
                    (a, c)
                } else {
                    (c, a)
                }
            }
        };
        stack2.push(Frame2 {
            seg: lo_seg,
            axis: f.axis.next(),
            src: ParentRef::Node(base + carrier_lo as usize),
            q: polar.radius_of(carrier_lo),
            start: start as u32,
            end: mid as u32,
            depth: f.depth + 1,
        });
        stack2.push(Frame2 {
            seg: hi_seg,
            axis: f.axis.next(),
            src: ParentRef::Node(base + carrier_hi as usize),
            q: polar.radius_of(carrier_hi),
            start: mid as u32,
            end: rest_end as u32,
            depth: f.depth + 1,
        });
    }
    Ok(())
}

/// A frame for running the bisection algorithm on an arbitrary point set:
/// a far-away pole so that the covering ring segment is thin
/// (`r > 0.6 R`) and narrow (`sin a > 5a/6`), as Section II requires for
/// the constant-factor guarantee.
#[derive(Clone, Debug)]
pub(crate) struct CoveringFrame {
    /// Radius of every point in the far-pole frame.
    pub radius: Vec<f64>,
    /// Angle of every point in the far-pole frame, shifted to sit near `π`
    /// (so the arc never wraps `2π`).
    pub angle: Vec<f64>,
    /// The source's coordinates in the same frame.
    pub source_polar: PolarPoint,
    /// The minimal covering segment.
    pub segment: RingSegment,
}

impl CoveringFrame {
    /// Builds the covering frame. Returns `None` if all points coincide
    /// with the source (no extent — callers should fall back to a trivial
    /// fan-out tree).
    pub fn new(source: Point2, points: &[Point2]) -> Option<Self> {
        let mut min = source.coords();
        let mut max = source.coords();
        for p in points {
            for i in 0..2 {
                min[i] = min[i].min(p[i]);
                max[i] = max[i].max(p[i]);
            }
        }
        let diag = Point2::new(max).distance(&Point2::new(min));
        if diag == 0.0 {
            return None;
        }
        let center = Point2::new(min).midpoint(&Point2::new(max));
        // Pole at distance 20·diag: r/R ≥ 19.5/20.5 > 0.6 and the full
        // angular width is below 0.06 rad, so sin a > 5a/6 easily holds.
        let pole = center - Point2::new([20.0 * diag, 0.0]);
        let to_polar = |p: &Point2| {
            let v = *p - pole;
            // Raw angle is within ±~0.026 of 0 (the +x direction); shift by
            // π so the covering arc sits far from the 0/2π seam.
            let raw = v.y().atan2(v.x());
            PolarPoint::new(v.norm(), raw + core::f64::consts::PI)
        };
        let (radius, angle): (Vec<f64>, Vec<f64>) = points
            .iter()
            .map(|p| {
                let q = to_polar(p);
                (q.radius, q.angle)
            })
            .unzip();
        let source_polar = to_polar(&source);
        let mut r_lo = source_polar.radius;
        let mut r_hi = source_polar.radius;
        let mut a_lo = source_polar.angle;
        let mut a_hi = source_polar.angle;
        for (&r, &a) in radius.iter().zip(&angle) {
            r_lo = r_lo.min(r);
            r_hi = r_hi.max(r);
            a_lo = a_lo.min(a);
            a_hi = a_hi.max(a);
        }
        // Nudge the exclusive upper bounds so extreme points are inside.
        let r_pad = (r_hi - r_lo).max(r_hi * 1e-12) * 1e-9 + f64::MIN_POSITIVE;
        let a_pad = (a_hi - a_lo).max(1e-12) * 1e-9 + f64::MIN_POSITIVE;
        let segment = RingSegment::new(r_lo, r_hi + r_pad, a_lo, a_hi + a_pad);
        Some(Self {
            radius,
            angle,
            source_polar,
            segment,
        })
    }

    /// The frame's point columns as a kernel view.
    pub fn slices(&self) -> PolarSlices<'_> {
        PolarSlices {
            radius: &self.radius,
            angle: &self.angle,
        }
    }
}

/// The standalone bisection tree builder (Section II): a constant-factor
/// approximation algorithm for arbitrary point sets in the plane.
///
/// Budgets of 4 and above run the 4-way variant (approximation factor 5);
/// budgets 2 and 3 run the binary variant (factor 9).
///
/// # Examples
///
/// ```
/// use omt_core::Bisection;
/// use omt_geom::Point2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let points: Vec<Point2> = (0..50)
///     .map(|i| Point2::new([(i as f64 * 0.7).cos(), (i as f64 * 0.7).sin() * 0.5]))
///     .collect();
/// let tree = Bisection::new(4)?.build(Point2::ORIGIN, &points)?;
/// assert_eq!(tree.len(), 50);
/// assert!(tree.max_out_degree() <= 4);
/// tree.validate(Some(4))?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bisection {
    max_out_degree: u32,
}

impl Bisection {
    /// Creates a bisection builder with the given out-degree budget.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DegreeTooSmall`] for budgets below 2.
    pub fn new(max_out_degree: u32) -> Result<Self, BuildError> {
        if max_out_degree < 2 {
            return Err(BuildError::DegreeTooSmall {
                got: max_out_degree,
                min: 2,
            });
        }
        Ok(Self { max_out_degree })
    }

    /// The configured out-degree budget.
    pub const fn max_out_degree(&self) -> u32 {
        self.max_out_degree
    }

    /// Builds the spanning tree rooted at `source` over `points`.
    ///
    /// # Errors
    ///
    /// Returns an error if any coordinate is non-finite. Internal tree
    /// errors ([`BuildError::Internal`]) indicate a bug, not bad input.
    pub fn build(&self, source: Point2, points: &[Point2]) -> Result<MulticastTree<2>, BuildError> {
        if !source.is_finite() {
            return Err(BuildError::NonFiniteSource);
        }
        if let Some(bad) = points.iter().position(|p| !p.is_finite()) {
            return Err(BuildError::NonFinitePoint { index: bad });
        }
        let mut builder =
            TreeBuilder::new(source, points.to_vec()).max_out_degree(self.max_out_degree);
        match CoveringFrame::new(source, points) {
            None => {
                // Every point coincides with the source: any
                // degree-respecting tree is optimal (radius 0).
                fanout_chain(&mut builder, self.max_out_degree)?;
            }
            Some(frame) => {
                // The frame's columns are indexed by point id, so the
                // builder's rows start at 0.
                let (polar, seg, q) = (frame.slices(), frame.segment, frame.source_polar.radius);
                let mut scratch = Scratch2::default();
                if self.max_out_degree >= 4 {
                    bisect4(
                        &mut builder,
                        polar,
                        0,
                        seg,
                        ParentRef::Source,
                        q,
                        &mut scratch,
                    )?;
                } else {
                    bisect2(
                        &mut builder,
                        polar,
                        0,
                        seg,
                        ParentRef::Source,
                        q,
                        &mut scratch,
                    )?;
                }
            }
        }
        Ok(builder.finish()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{bisection_bound_deg2, bisection_bound_deg4};
    use omt_geom::{Disk, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    fn disk_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Disk::unit().sample_n(&mut rng, n)
    }

    #[test]
    fn degree_below_two_rejected() {
        assert!(matches!(
            Bisection::new(1),
            Err(BuildError::DegreeTooSmall { got: 1, min: 2 })
        ));
        assert!(Bisection::new(2).is_ok());
    }

    #[test]
    fn non_finite_inputs_rejected() {
        let b = Bisection::new(4).unwrap();
        assert_eq!(
            b.build(Point2::new([f64::NAN, 0.0]), &[]),
            Err(BuildError::NonFiniteSource)
        );
        assert_eq!(
            b.build(Point2::ORIGIN, &[Point2::new([0.0, f64::INFINITY])]),
            Err(BuildError::NonFinitePoint { index: 0 })
        );
    }

    #[test]
    fn empty_input_yields_empty_tree() {
        let t = Bisection::new(4)
            .unwrap()
            .build(Point2::ORIGIN, &[])
            .unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn single_point() {
        let t = Bisection::new(2)
            .unwrap()
            .build(Point2::ORIGIN, &[Point2::new([3.0, 4.0])])
            .unwrap();
        assert_eq!(t.radius(), 5.0);
        t.validate(Some(2)).unwrap();
    }

    #[test]
    fn deg4_trees_are_valid_spanning_degree_bounded() {
        for n in [2usize, 5, 17, 100, 1000] {
            let pts = disk_points(n, n as u64);
            let t = Bisection::new(4)
                .unwrap()
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            assert_eq!(t.len(), n);
            t.validate(Some(4)).unwrap();
        }
    }

    #[test]
    fn deg2_trees_are_valid_spanning_degree_bounded() {
        for n in [2usize, 3, 9, 64, 777] {
            let pts = disk_points(n, 100 + n as u64);
            let t = Bisection::new(2)
                .unwrap()
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            assert_eq!(t.len(), n);
            t.validate(Some(2)).unwrap();
        }
    }

    #[test]
    fn duplicate_points_terminate() {
        let pts = vec![Point2::new([0.5, 0.5]); 50];
        for deg in [2, 4] {
            let t = Bisection::new(deg)
                .unwrap()
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            assert_eq!(t.len(), 50);
            t.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn all_points_at_source_fall_back_to_fanout() {
        let pts = vec![Point2::new([1.0, 1.0]); 20];
        let t = Bisection::new(3)
            .unwrap()
            .build(Point2::new([1.0, 1.0]), &pts)
            .unwrap();
        assert_eq!(t.len(), 20);
        assert_eq!(t.radius(), 0.0);
        t.validate(Some(3)).unwrap();
    }

    #[test]
    fn collinear_points() {
        let pts: Vec<Point2> = (1..=40)
            .map(|i| Point2::new([i as f64 * 0.1, 0.0]))
            .collect();
        for deg in [2, 4] {
            let t = Bisection::new(deg)
                .unwrap()
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            t.validate(Some(deg)).unwrap();
            // Optimal radius is 4.0 (the farthest point); factor must hold
            // comfortably on this benign instance.
            assert!(t.radius() < 4.0 * 3.0, "radius {}", t.radius());
        }
    }

    #[test]
    fn covering_frame_geometry() {
        let pts = disk_points(200, 9);
        let frame = CoveringFrame::new(Point2::ORIGIN, &pts).unwrap();
        let seg = frame.segment;
        // Thin: r > 0.6 R.
        assert!(seg.r_lo() > 0.6 * seg.r_hi());
        // Narrow: well below the sin a > 5a/6 threshold.
        assert!(seg.angle_width() < 0.2);
        // Contains every point and the source.
        for i in 0..pts.len() as u32 {
            let p = frame.slices().get(i);
            assert!(seg.contains(&p), "{p:?} outside {seg:?}");
        }
        assert!(seg.contains(&frame.source_polar));
    }

    #[test]
    fn paths_respect_equation_bounds() {
        // Equation (1) bounds every root-to-leaf path of the deg-4 variant;
        // the binary deg-2 variant satisfies equation (2). We assert the
        // tree radius (longest path) against the bound in the covering
        // frame, with a small numerical tolerance.
        for seed in 0..5u64 {
            let pts = disk_points(300, 40 + seed);
            let frame = CoveringFrame::new(Point2::ORIGIN, &pts).unwrap();
            let q = frame.source_polar.radius;

            let t4 = Bisection::new(4)
                .unwrap()
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            let bound4 = bisection_bound_deg4(&frame.segment, q);
            assert!(
                t4.radius() <= bound4 * (1.0 + 1e-9),
                "deg4 radius {} > bound {}",
                t4.radius(),
                bound4
            );

            let t2 = Bisection::new(2)
                .unwrap()
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            let bound2 = bisection_bound_deg2(&frame.segment, q);
            assert!(
                t2.radius() <= bound2 * (1.0 + 1e-9),
                "deg2 radius {} > bound {}",
                t2.radius(),
                bound2
            );
        }
    }

    #[test]
    fn constant_factor_versus_lower_bound() {
        // OPT >= max direct distance; Theorem 1 promises factor 5 (deg 4)
        // and 9 (deg 2) against OPT, so in particular against this bound.
        for seed in 0..5u64 {
            let pts = disk_points(500, 700 + seed);
            let opt_lb = pts.iter().map(|p| p.norm()).fold(0.0, f64::max);
            let t4 = Bisection::new(4)
                .unwrap()
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            assert!(
                t4.radius() <= 5.0 * opt_lb * (1.0 + 1e-9),
                "factor 5 violated"
            );
            let t2 = Bisection::new(2)
                .unwrap()
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            assert!(
                t2.radius() <= 9.0 * opt_lb * (1.0 + 1e-9),
                "factor 9 violated"
            );
        }
    }

    #[test]
    fn budget_three_uses_binary_variant() {
        let pts = disk_points(50, 3);
        let t = Bisection::new(3)
            .unwrap()
            .build(Point2::ORIGIN, &pts)
            .unwrap();
        assert!(t.max_out_degree() <= 2);
        t.validate(Some(3)).unwrap();
    }

    #[test]
    fn take_closest_radius_picks_nearest() {
        let radius = [1.0, 5.0, 2.9];
        let mut idx = [0, 1, 2];
        let got = take_closest_radius(&radius, &mut idx, 3.0);
        assert_eq!(got, 2);
        assert_eq!(idx, [0, 1, 2]);
        let mut idx = [2, 0, 1];
        assert_eq!(take_closest_radius(&radius, &mut idx, 3.0), 2);
        // Swapped to the back; the old last element takes its slot.
        assert_eq!(idx, [1, 0, 2]);
    }

    #[test]
    fn take_closest_radius_first_minimum_wins_ties() {
        let radius = [3.0, 1.0, 3.0, 2.0, 2.0];
        let mut idx = [0, 1, 2, 3, 4];
        assert_eq!(take_closest_radius(&radius, &mut idx, 2.0), 3);
        assert_eq!(idx, [0, 1, 2, 4, 3]);
        assert_eq!(take_closest_radius(&radius, &mut idx[..4], 3.0), 0);
        assert_eq!(idx, [4, 1, 2, 0, 3]);
    }
}
