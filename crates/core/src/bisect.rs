//! The bisection algorithm (Section II of the paper) in every dimension:
//! the one in-cell construction of the grid builders and of the standalone
//! [`Bisection`] / [`Bisection3`] builders.
//!
//! A cell is a [`PolarBox`]: one half-open interval per source-relative
//! polar column — the radius, then the angular coordinates (the 2-D angle;
//! the 3-D azimuth and polar-angle cosine; the n-D angular quantiles). The
//! algorithm halves the box recursively at the interval midpoints
//! `0.5·(lo + hi)`, and a point lies in the high half of an axis iff its
//! coordinate is at least the midpoint. Two kernels run it:
//!
//! * [`bisect_all`] — the `2^D`-way split, every axis halved at once (the
//!   4-way split of Figure 1 b, the 3-D octant split of Section IV-B). The
//!   local source connects the representative of each non-empty child, the
//!   point whose radius is closest to the source's ("radius closest to the
//!   radius of the source node"), which then splits its own child. Child
//!   `c` takes the high half of axis `a` iff bit `D - 1 - a` of `c` is
//!   set, so axis 0 is the most significant bit. In 2-D every path obeys
//!   equation (1), `l_p ≤ max(R-q, q-r) + 2·R·a` (Theorem 1: factor 5).
//! * [`bisect_binary`] — the binary refinement: the local source adopts two
//!   carriers, which take over the two halves of the box split on one axis,
//!   the axes cycling `0 → 1 → … → D-1 → 0`. The carrier whose coordinate on
//!   the split axis is not larger takes the low half (the first pick on
//!   ties). In 2-D the angular term doubles, equation (2), and the factor
//!   becomes 9.
//!
//! The radius a frame's picks are closest to is its [`Anchor`]: the local
//! source's, as Section II says, or — for the n-D grid, whose trees are
//! pinned with this rule — the inner radius of the box being split.
//!
//! Both kernels run on explicit work stacks (no recursion), so adversarially
//! clustered inputs cannot overflow the call stack, and every work item
//! attaches at least one point, so termination is unconditional, even for
//! duplicate points. Both partition the window stably, so each child keeps
//! its input order (the pick tie rule depends on it).

use core::f64::consts::{PI, TAU};

use omt_geom::{normalize_angle, Point, Point2, Point3, PolarPoint, RingSegment};
use omt_tree::{MulticastTree, ParentRef, TreeBuilder, TreeError};

use crate::error::BuildError;
use crate::fanout::fanout_sink;
use crate::sink::{attach, AttachSink};

/// A cell of the bisection: the half-open interval `[lo, hi)` of each of
/// the `D` source-relative polar columns, the radius first.
pub(crate) type PolarBox<const D: usize> = [(f64, f64); D];

/// The box of a 2-D ring segment: radii, then angles.
pub(crate) fn ring_box(seg: &RingSegment) -> PolarBox<2> {
    [(seg.r_lo(), seg.r_hi()), (seg.arc().lo(), seg.arc().hi())]
}

/// The box of the 3-D ball of radius `r` around the pole: every azimuth
/// and every polar-angle cosine.
fn ball_box(r: f64) -> PolarBox<3> {
    [(0.0, r), (0.0, TAU), (-1.0, 1.0)]
}

/// The radius the picks of a frame are closest to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Anchor {
    /// The local source's radius (Section II's rule); the payload is the
    /// root source's radius in the frame of the window.
    Source(f64),
    /// The inner radius of the box being split (the n-D grid's rule).
    InnerRadius,
}

impl Anchor {
    /// The anchor radius of a frame over `cell` below a local source of
    /// radius `src_radius`.
    #[inline]
    fn radius<const D: usize>(self, cell: &PolarBox<D>, src_radius: f64) -> f64 {
        match self {
            Self::Source(_) => src_radius,
            Self::InnerRadius => cell[0].0,
        }
    }

    /// The anchor radius of the root frame over `cell`.
    fn root<const D: usize>(self, cell: &PolarBox<D>) -> f64 {
        match self {
            Self::Source(q) => q,
            Self::InnerRadius => cell[0].0,
        }
    }
}

/// The interval midpoints of `cell`: where every split halves it.
#[inline]
fn mids<const D: usize>(cell: &PolarBox<D>) -> [f64; D] {
    cell.map(|(lo, hi)| 0.5 * (lo + hi))
}

/// The half of `cell` on `axis` at `mid`: `[lo, mid)`, or `[mid, hi)` if
/// `high`.
#[inline]
fn half<const D: usize>(mut cell: PolarBox<D>, axis: usize, mid: f64, high: bool) -> PolarBox<D> {
    if high {
        cell[axis].0 = mid;
    } else {
        cell[axis].1 = mid;
    }
    cell
}

/// Child `c` of the `2^D`-way split of `cell` at `mid`.
#[inline]
fn child<const D: usize>(cell: PolarBox<D>, mid: &[f64; D], c: usize) -> PolarBox<D> {
    (0..D).fold(cell, |b, a| half(b, a, mid[a], (c >> (D - 1 - a)) & 1 == 1))
}

/// The child of the `2^D`-way split at `mid` that the point `x` lies in.
#[inline]
fn classify<const D: usize>(mid: &[f64; D], x: [f64; D]) -> usize {
    (0..D).fold(0, |c, a| c << 1 | usize::from(x[a] >= mid[a]))
}

/// The `obs` names of the kernels' split counter and depth histogram:
/// `bisect2d/…` and `bisect3d/…` (the names committed BENCH files hold),
/// `bisectnd/…` above.
const fn obs_names(d: usize) -> (&'static str, &'static str) {
    match d {
        2 => ("bisect2d/splits", "bisect2d/depth"),
        3 => ("bisect3d/splits", "bisect3d/depth"),
        _ => ("bisectnd/splits", "bisectnd/depth"),
    }
}

/// A work frame over the positions `start..end` of the scratch position
/// array: its box, its local source, and the radius its picks are closest
/// to. The binary kernel splits axis `depth % D`.
#[derive(Clone, Copy, Debug)]
struct Frame<const D: usize> {
    cell: PolarBox<D>,
    src: ParentRef,
    q: f64,
    start: u32,
    end: u32,
    depth: u32,
}

/// Reusable scratch of the kernels: the window's local positions (which the
/// kernels permute, leaving the columns read-only), the work stack, and the
/// staging buffers of the stable partitions. One instance is carried
/// across all cell jobs of a build (one per worker in the parallel fill),
/// so the steady state allocates nothing per frame.
#[derive(Debug, Default)]
pub(crate) struct Scratch<const D: usize> {
    loc: Vec<u32>,
    perm: Vec<u32>,
    class: Vec<u8>,
    /// Per child of a `2^D`-way split: its count, then its next free
    /// position, then its end.
    ends: Vec<usize>,
    stack: Vec<Frame<D>>,
}

impl<const D: usize> Scratch<D> {
    /// Resets the positions to the window `0..len` in window order and
    /// pushes the root frame.
    fn start(&mut self, len: usize, cell: PolarBox<D>, src: ParentRef, q: f64) {
        self.loc.clear();
        self.loc.extend(0..len as u32);
        self.stack.clear();
        self.stack.push(Frame {
            cell,
            src,
            q,
            start: 0,
            end: len as u32,
            depth: 0,
        });
    }
}

/// Picks the position in `idx` whose radius is closest to `q` (the
/// paper's representative rule: "radius closest to the radius of the
/// source node"; the first minimum wins ties), swaps it to the back of
/// `idx` and returns it. The rest of `idx` keeps its order except for the
/// one element that took the chosen slot, as with `Vec::swap_remove`.
fn take_closest_radius(radius: &[f64], idx: &mut [u32], q: f64) -> u32 {
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

/// Connects every point of a window below `src` with out-degree at most
/// `2^D` per node, by the `2^D`-way split of `cell`.
///
/// `win` holds the window's polar columns by local position, and the
/// window is the sink's rows `base..base + len`; the kernel permutes local
/// positions in `scratch` and attaches row `base + position`. `src` is a
/// row outside the window (or the source).
pub(crate) fn bisect_all<S: AttachSink, const D: usize>(
    sink: &mut S,
    win: [&[f64]; D],
    base: usize,
    cell: PolarBox<D>,
    src: ParentRef,
    anchor: Anchor,
    scratch: &mut Scratch<D>,
) -> Result<(), TreeError> {
    let (splits, depth) = obs_names(D);
    let radius = win[0];
    scratch.start(radius.len(), cell, src, anchor.root(&cell));
    let Scratch {
        loc,
        perm,
        class,
        ends,
        stack,
    } = scratch;
    while let Some(f) = stack.pop() {
        let (start, end) = (f.start as usize, f.end as usize);
        if start == end {
            continue;
        }
        omt_obs::obs_observe!(depth, u64::from(f.depth));
        omt_obs::obs_count!(splits);
        // Partition the window into the children: count + classify in one
        // pass, then scatter stably from a staged copy.
        let mid = mids(&f.cell);
        ends.clear();
        ends.resize(1 << D, 0);
        class.clear();
        for &p in &loc[start..end] {
            let c = classify(&mid, win.map(|col| col[p as usize]));
            class.push(c as u8);
            ends[c] += 1;
        }
        let mut next = start;
        for e in ends.iter_mut() {
            (*e, next) = (next, next + *e);
        }
        perm.clear();
        perm.extend_from_slice(&loc[start..end]);
        for (&p, &c) in perm.iter().zip(class.iter()) {
            loc[ends[c as usize]] = p;
            ends[c as usize] += 1;
        }
        let mut cs = start;
        for (c, &ce) in ends.iter().enumerate() {
            if cs == ce {
                continue;
            }
            let rep = take_closest_radius(radius, &mut loc[cs..ce], f.q);
            let rep_row = base + rep as usize;
            attach(sink, rep_row, f.src)?;
            if ce - cs > 1 {
                let cell = child(f.cell, &mid, c);
                stack.push(Frame {
                    cell,
                    src: ParentRef::Node(rep_row),
                    q: anchor.radius(&cell, radius[rep as usize]),
                    start: cs as u32,
                    end: (ce - 1) as u32,
                    depth: f.depth + 1,
                });
            }
            cs = ce;
        }
    }
    Ok(())
}

/// Connects every point of a window below `src` with out-degree at most 2
/// per node: the local source adopts the two points whose radius is
/// closest to the anchor, which then take over the two halves of the box,
/// split on axes cycling `0 → 1 → … → D-1`.
///
/// The window is given as in [`bisect_all`]: columns by local position,
/// rows from `base`, with the positions permuted in `scratch`.
pub(crate) fn bisect_binary<S: AttachSink, const D: usize>(
    sink: &mut S,
    win: [&[f64]; D],
    base: usize,
    cell: PolarBox<D>,
    src: ParentRef,
    anchor: Anchor,
    scratch: &mut Scratch<D>,
) -> Result<(), TreeError> {
    let (splits, depth) = obs_names(D);
    let radius = win[0];
    scratch.start(radius.len(), cell, src, anchor.root(&cell));
    let Scratch {
        loc, perm, stack, ..
    } = scratch;
    while let Some(f) = stack.pop() {
        let (start, end) = (f.start as usize, f.end as usize);
        match end - start {
            0 => continue,
            1 => {
                attach(sink, base + loc[start] as usize, f.src)?;
                continue;
            }
            2 => {
                attach(sink, base + loc[start] as usize, f.src)?;
                attach(sink, base + loc[start + 1] as usize, f.src)?;
                continue;
            }
            _ => {}
        }
        omt_obs::obs_observe!(depth, u64::from(f.depth));
        omt_obs::obs_count!(splits);
        let a = take_closest_radius(radius, &mut loc[start..end], f.q);
        let c = take_closest_radius(radius, &mut loc[start..end - 1], f.q);
        attach(sink, base + a as usize, f.src)?;
        attach(sink, base + c as usize, f.src)?;
        // Stable lo/hi partition of the remaining window (the two carriers
        // are parked past `rest_end` and are no longer members).
        let axis = f.depth as usize % D;
        let (coord, mid) = (win[axis], 0.5 * (f.cell[axis].0 + f.cell[axis].1));
        let is_hi = |p: u32| coord[p as usize] >= mid;
        let rest_end = end - 2;
        perm.clear();
        perm.extend_from_slice(&loc[start..rest_end]);
        let mut w = start;
        for &p in perm.iter().filter(|&&p| !is_hi(p)) {
            loc[w] = p;
            w += 1;
        }
        let split = w;
        for &p in perm.iter().filter(|&&p| is_hi(p)) {
            loc[w] = p;
            w += 1;
        }
        debug_assert_eq!(w, rest_end);
        // Give the lower half to the carrier closer to it in the split
        // coordinate, to avoid pointless criss-crossing.
        let (lo, hi) = if coord[a as usize] <= coord[c as usize] {
            (a, c)
        } else {
            (c, a)
        };
        for (carrier, high, (s, e)) in [(lo, false, (start, split)), (hi, true, (split, rest_end))]
        {
            let cell = half(f.cell, axis, mid, high);
            stack.push(Frame {
                cell,
                src: ParentRef::Node(base + carrier as usize),
                q: anchor.radius(&cell, radius[carrier as usize]),
                start: s as u32,
                end: e as u32,
                depth: f.depth + 1,
            });
        }
    }
    Ok(())
}

/// The frame a standalone build bisects in: the points' polar columns by
/// point id, their covering box, and the source's radius in that frame.
struct Covering<const D: usize> {
    cols: [Vec<f64>; D],
    cell: PolarBox<D>,
    q: f64,
}

/// The build body of [`Bisection`] and [`Bisection3`]: the argument checks,
/// then the covering `cover` computes, then the `2^D`-way kernel at budgets
/// of `2^D` and above and the binary one below. `cover` returns `None` when
/// every point coincides with the source (any degree-respecting tree is
/// optimal then, with radius 0), and [`BuildError::RadiusOverflow`] when the
/// points are too far apart to measure.
fn build_covered<const D: usize>(
    source: Point<D>,
    points: &[Point<D>],
    max_out_degree: u32,
    cover: impl FnOnce() -> Result<Option<Covering<D>>, BuildError>,
) -> Result<MulticastTree<D>, BuildError> {
    if !source.is_finite() {
        return Err(BuildError::NonFiniteSource);
    }
    if let Some(bad) = points.iter().position(|p| !p.is_finite()) {
        return Err(BuildError::NonFinitePoint { index: bad });
    }
    let covering = cover()?;
    let mut builder = TreeBuilder::new(source, points.to_vec()).max_out_degree(max_out_degree);
    match covering {
        None => fanout_sink(&mut builder, points.len(), max_out_degree)?,
        Some(Covering { cols, cell, q }) => {
            // The columns are indexed by point id, so the builder's rows
            // start at 0.
            let win = cols.each_ref().map(Vec::as_slice);
            let (src, anchor, scratch) = (
                ParentRef::Source,
                Anchor::Source(q),
                &mut Scratch::default(),
            );
            if max_out_degree >= 1 << D {
                bisect_all(&mut builder, win, 0, cell, src, anchor, scratch)?;
            } else {
                bisect_binary(&mut builder, win, 0, cell, src, anchor, scratch)?;
            }
        }
    }
    Ok(builder.finish()?)
}

/// A frame for running the bisection algorithm on an arbitrary planar
/// point set: a far-away pole so that the covering ring segment is thin
/// (`r > 0.6 R`) and narrow (`sin a > 5a/6`), as Section II requires for
/// the constant-factor guarantee.
#[derive(Debug)]
struct CoveringFrame {
    /// Radius of every point in the far-pole frame.
    radius: Vec<f64>,
    /// Angle of every point in the far-pole frame, shifted to sit near `π`
    /// (so the arc never wraps `2π`).
    angle: Vec<f64>,
    /// The source's coordinates in the same frame.
    source_polar: PolarPoint,
    /// The minimal covering segment.
    segment: RingSegment,
}

impl CoveringFrame {
    /// Builds the covering frame. Returns `None` if all points coincide
    /// with the source (no extent — callers should fall back to a trivial
    /// fan-out tree).
    ///
    /// # Errors
    ///
    /// [`BuildError::RadiusOverflow`] if the frame is not finite: the points
    /// lie too far apart to measure.
    fn new(source: Point2, points: &[Point2]) -> Result<Option<Self>, BuildError> {
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
            return Ok(None);
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
            PolarPoint {
                radius: v.norm(),
                angle: normalize_angle(raw + PI),
            }
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
        let bounds = [r_lo, r_hi + r_pad, a_lo, a_hi + a_pad, source_polar.radius];
        if !bounds.iter().all(|b| b.is_finite()) {
            return Err(BuildError::RadiusOverflow);
        }
        let segment = RingSegment::new(r_lo, r_hi + r_pad, a_lo, a_hi + a_pad);
        Ok(Some(Self {
            radius,
            angle,
            source_polar,
            segment,
        }))
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

/// The standalone 3-D bisection builder: the Section-II constant-factor
/// construction lifted to shell cells (8-way splits at out-degree 8, the
/// binary variant at out-degree 2–7).
///
/// # Examples
///
/// ```
/// use omt_core::Bisection3;
/// use omt_geom::Point3;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let points: Vec<Point3> = (0..60)
///     .map(|i| {
///         let t = i as f64 * 0.4;
///         Point3::new([t.cos(), t.sin(), (t * 0.3).sin() * 0.5])
///     })
///     .collect();
/// let tree = Bisection3::new(8)?.build(Point3::ORIGIN, &points)?;
/// tree.validate(Some(8))?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bisection3 {
    max_out_degree: u32,
}

/// A budget check shared by both builders' constructors.
fn checked_degree(max_out_degree: u32) -> Result<u32, BuildError> {
    if max_out_degree < 2 {
        return Err(BuildError::DegreeTooSmall {
            got: max_out_degree,
            min: 2,
        });
    }
    Ok(max_out_degree)
}

impl Bisection {
    /// Creates a bisection builder with the given out-degree budget.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DegreeTooSmall`] for budgets below 2.
    pub fn new(max_out_degree: u32) -> Result<Self, BuildError> {
        checked_degree(max_out_degree).map(|max_out_degree| Self { max_out_degree })
    }

    /// The configured out-degree budget.
    pub const fn max_out_degree(&self) -> u32 {
        self.max_out_degree
    }

    /// Builds the spanning tree rooted at `source` over `points`, bisecting
    /// the ring segment that covers the input around a far-away pole: thin
    /// and narrow, as Section II's constant factors require.
    ///
    /// # Errors
    ///
    /// Returns an error if any coordinate is non-finite, and
    /// [`BuildError::RadiusOverflow`] if the points lie too far apart to
    /// measure. Internal tree errors ([`BuildError::Internal`]) indicate a
    /// bug, not bad input.
    pub fn build(&self, source: Point2, points: &[Point2]) -> Result<MulticastTree<2>, BuildError> {
        build_covered(source, points, self.max_out_degree, || {
            Ok(CoveringFrame::new(source, points)?.map(|frame| Covering {
                cell: ring_box(&frame.segment),
                q: frame.source_polar.radius,
                cols: [frame.radius, frame.angle],
            }))
        })
    }
}

impl Bisection3 {
    /// Creates a 3-D bisection builder with the given out-degree budget.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DegreeTooSmall`] for budgets below 2.
    pub fn new(max_out_degree: u32) -> Result<Self, BuildError> {
        checked_degree(max_out_degree).map(|max_out_degree| Self { max_out_degree })
    }

    /// The configured out-degree budget.
    pub const fn max_out_degree(&self) -> u32 {
        self.max_out_degree
    }

    /// Builds the spanning tree rooted at `source` over `points`, bisecting
    /// the smallest source-centered ball covering the input (the natural
    /// 3-D covering region; a far-pole covering shell buys nothing in 3-D
    /// because the octant split already bounds all three coordinates).
    ///
    /// # Errors
    ///
    /// Returns an error for non-finite coordinates, and
    /// [`BuildError::RadiusOverflow`] if the farthest point's distance from
    /// the source overflows `f64`; internal tree errors indicate bugs.
    pub fn build(&self, source: Point3, points: &[Point3]) -> Result<MulticastTree<3>, BuildError> {
        build_covered(source, points, self.max_out_degree, || {
            let rel = points.iter().map(|p| *p - source);
            let cols = [
                rel.clone().map(|v| v.norm()).collect::<Vec<_>>(),
                rel.clone().map(|v| v.azimuth()).collect(),
                rel.map(|v| v.cos_polar()).collect(),
            ];
            let rho = cols[0].iter().copied().fold(0.0f64, f64::max);
            if rho == 0.0 {
                return Ok(None);
            }
            let r_hi = rho * (1.0 + 1e-9);
            if !r_hi.is_finite() {
                return Err(BuildError::RadiusOverflow);
            }
            Ok(Some(Covering {
                cols,
                cell: ball_box(r_hi),
                q: 0.0,
            }))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{bisection_bound_deg2, bisection_bound_deg4};
    use omt_geom::{Ball, Disk, PointStore3, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::{prop_assert, prop_assert_eq, props, RngExt, SeedableRng};

    fn disk_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Disk::unit().sample_n(&mut rng, n)
    }

    /// Whether `x` lies in `cell`, half-open on every axis.
    fn contains<const D: usize>(cell: &PolarBox<D>, x: &[f64; D]) -> bool {
        cell.iter().zip(x).all(|(&(lo, hi), &v)| lo <= v && v < hi)
    }

    /// A random box and a point in it whose coordinates are drawn from
    /// each interval's low end, its midpoint, its largest value and its
    /// interior, so the split boundaries are hit; then the tiling checks.
    fn check_tiling<const D: usize>(rng: &mut SmallRng) -> Result<(), String> {
        let cell: PolarBox<D> = core::array::from_fn(|_| {
            let lo = rng.random::<f64>() * 20.0 - 10.0;
            (lo, lo + 1e-3 + rng.random::<f64>() * 10.0)
        });
        let mid = mids(&cell);
        let x: [f64; D] = core::array::from_fn(|a| {
            let (lo, hi) = cell[a];
            match rng.random_range(0..4u32) {
                0 => lo,
                1 => mid[a],
                2 => hi.next_down(),
                _ => (lo + rng.random::<f64>() * (hi - lo)).min(hi.next_down()),
            }
        });
        prop_assert!(contains(&cell, &x));
        // The 2^D-way split: every point lies in exactly the child its
        // classify names.
        let c = classify(&mid, x);
        for j in 0..1 << D {
            prop_assert_eq!(contains(&child(cell, &mid, j), &x), j == c);
        }
        // The binary split on each axis: in exactly the half its
        // coordinate names.
        for a in 0..D {
            let high = x[a] >= mid[a];
            prop_assert!(contains(&half(cell, a, mid[a], high), &x));
            prop_assert!(!contains(&half(cell, a, mid[a], !high), &x));
        }
        Ok(())
    }

    props! {
        fn every_point_of_a_box_lies_in_the_child_its_classify_names(seed in 0u64..1 << 40) {
            let mut rng = SmallRng::seed_from_u64(seed);
            check_tiling::<2>(&mut rng)?;
            check_tiling::<3>(&mut rng)?;
            check_tiling::<4>(&mut rng)?;
        }
    }

    #[test]
    fn classify_puts_axis_zero_in_the_most_significant_bit() {
        // On each midpoint goes to the high half: the outer children of a
        // ring segment are 2 and 3, the high-angle ones 1 and 3.
        let seg = RingSegment::new(0.0, 2.0, 0.0, TAU);
        let mid = mids(&ring_box(&seg));
        assert_eq!(classify(&mid, [1.0, 0.1]), 2);
        assert_eq!(classify(&mid, [0.5, PI]), 1);
        assert_eq!(classify(&[0.0; 3], [0.0, -1.0, 0.0]), 0b101);
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
        let frame = CoveringFrame::new(Point2::ORIGIN, &pts).unwrap().unwrap();
        let seg = frame.segment;
        // Thin: r > 0.6 R.
        assert!(seg.r_lo() > 0.6 * seg.r_hi());
        // Narrow: well below the sin a > 5a/6 threshold.
        assert!(seg.angle_width() < 0.2);
        // Contains every point and the source.
        for (&radius, &angle) in frame.radius.iter().zip(&frame.angle) {
            let p = PolarPoint { radius, angle };
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
            let frame = CoveringFrame::new(Point2::ORIGIN, &pts).unwrap().unwrap();
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

    fn setup(n: usize, seed: u64) -> (TreeBuilder<3>, PointStore3) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = Ball::<3>::unit().sample_n(&mut rng, n);
        let store = PointStore3::from_points(Point3::ORIGIN, &pts);
        let b = TreeBuilder::new(Point3::ORIGIN, pts);
        (b, store)
    }

    /// The spherical columns of `store`, by point id.
    fn sph(store: &PointStore3) -> [&[f64]; 3] {
        [store.radius(), store.azimuth(), store.cos_polar()]
    }

    #[test]
    fn bisect8_produces_valid_degree8_tree() {
        let mut scratch = Scratch::default();
        for n in [1usize, 5, 64, 500] {
            let (b, store) = setup(n, n as u64);
            let mut b = b.max_out_degree(8);
            bisect_all(
                &mut b,
                sph(&store),
                0,
                ball_box(1.0 + 1e-9),
                ParentRef::Source,
                Anchor::Source(0.0),
                &mut scratch,
            )
            .unwrap();
            let t = b.finish().unwrap();
            assert_eq!(t.len(), n);
            t.validate(Some(8)).unwrap();
        }
    }

    #[test]
    fn bisect2_3d_produces_valid_degree2_tree() {
        let mut scratch = Scratch::default();
        for n in [1usize, 2, 3, 9, 200] {
            let (b, store) = setup(n, 90 + n as u64);
            let mut b = b.max_out_degree(2);
            bisect_binary(
                &mut b,
                sph(&store),
                0,
                ball_box(1.0 + 1e-9),
                ParentRef::Source,
                Anchor::Source(0.0),
                &mut scratch,
            )
            .unwrap();
            let t = b.finish().unwrap();
            assert_eq!(t.len(), n);
            t.validate(Some(2)).unwrap();
        }
    }

    #[test]
    fn duplicate_points_terminate_3d() {
        let pts = vec![Point3::new([0.3, 0.3, 0.3]); 40];
        let store = PointStore3::from_points(Point3::ORIGIN, &pts);
        let mut scratch = Scratch::default();
        let mut b = TreeBuilder::new(Point3::ORIGIN, pts.clone()).max_out_degree(8);
        let (cell, src, anchor) = (ball_box(1.0), ParentRef::Source, Anchor::Source(0.0));
        bisect_all(&mut b, sph(&store), 0, cell, src, anchor, &mut scratch).unwrap();
        b.finish().unwrap().validate(Some(8)).unwrap();

        let mut b = TreeBuilder::new(Point3::ORIGIN, pts).max_out_degree(2);
        bisect_binary(&mut b, sph(&store), 0, cell, src, anchor, &mut scratch).unwrap();
        b.finish().unwrap().validate(Some(2)).unwrap();
    }

    #[test]
    fn radius_stays_within_constant_factor_of_direct() {
        let (b, store) = setup(1000, 7);
        let opt_lb = store.radius().iter().copied().fold(0.0, f64::max);
        let mut b = b.max_out_degree(8);
        bisect_all(
            &mut b,
            sph(&store),
            0,
            ball_box(1.0 + 1e-9),
            ParentRef::Source,
            Anchor::Source(0.0),
            &mut Scratch::default(),
        )
        .unwrap();
        let t = b.finish().unwrap();
        // Inside the full ball the bisection is not the tuned covering-
        // segment setting, but the radius must still be a small multiple of
        // the lower bound.
        assert!(t.radius() <= 8.0 * opt_lb, "radius {}", t.radius());
    }

    /// The binary kernel in four dimensions, with either anchor: a valid
    /// degree-2 tree over every window size.
    #[test]
    fn binary_kernel_builds_valid_trees_in_4d() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut scratch = Scratch::default();
        for n in [1usize, 2, 3, 10, 300] {
            let pts = Ball::<4>::unit().sample_n(&mut rng, n);
            // A plain coordinate box around the ball: the kernel needs no
            // polar meaning.
            let cols: [Vec<f64>; 4] =
                core::array::from_fn(|d| pts.iter().map(|p| p[d] + 1.0).collect());
            let win = cols.each_ref().map(Vec::as_slice);
            for anchor in [Anchor::Source(0.0), Anchor::InnerRadius] {
                let mut b = TreeBuilder::new(Point::ORIGIN, pts.clone()).max_out_degree(2);
                bisect_binary(
                    &mut b,
                    win,
                    0,
                    [(0.0, 2.0); 4],
                    ParentRef::Source,
                    anchor,
                    &mut scratch,
                )
                .unwrap();
                let t = b.finish().unwrap();
                assert_eq!(t.len(), n);
                t.validate(Some(2)).unwrap();
            }
        }
    }

    #[test]
    fn builds_valid_trees_at_both_variants() {
        let mut rng = SmallRng::seed_from_u64(1);
        let pts = Ball::<3>::unit().sample_n(&mut rng, 600);
        for deg in [2u32, 5, 8, 12] {
            let t = Bisection3::new(deg)
                .unwrap()
                .build(Point3::ORIGIN, &pts)
                .unwrap();
            assert_eq!(t.len(), 600);
            t.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn constant_factor_versus_lower_bound_3d() {
        for seed in 0..3u64 {
            let mut r = SmallRng::seed_from_u64(seed);
            let pts = Ball::<3>::unit().sample_n(&mut r, 400);
            let lb = pts.iter().map(|p| p.norm()).fold(0.0f64, f64::max);
            let t8 = Bisection3::new(8)
                .unwrap()
                .build(Point3::ORIGIN, &pts)
                .unwrap();
            assert!(t8.radius() <= 8.0 * lb, "deg8 radius {}", t8.radius());
            let t2 = Bisection3::new(2)
                .unwrap()
                .build(Point3::ORIGIN, &pts)
                .unwrap();
            assert!(t2.radius() <= 14.0 * lb, "deg2 radius {}", t2.radius());
        }
    }

    #[test]
    fn rejects_degree_one_and_bad_points() {
        assert!(Bisection3::new(1).is_err());
        let b = Bisection3::new(4).unwrap();
        assert!(b.build(Point3::new([f64::NAN, 0.0, 0.0]), &[]).is_err());
        assert!(b
            .build(Point3::ORIGIN, &[Point3::new([0.0, f64::INFINITY, 0.0])])
            .is_err());
    }

    #[test]
    fn degenerates() {
        let b = Bisection3::new(2).unwrap();
        assert!(b.build(Point3::ORIGIN, &[]).unwrap().is_empty());
        let dup = vec![Point3::new([1.0, 1.0, 1.0]); 30];
        let t = b.build(Point3::new([1.0, 1.0, 1.0]), &dup).unwrap();
        assert_eq!(t.radius(), 0.0);
        t.validate(Some(2)).unwrap();
    }
}
