//! The 3-D bisection subroutines: the 8-way split used by the out-degree-10
//! tree of Figure 8 ("each cell representative node … uses at most 8 links
//! to connect to points inside the cell"), and a binary variant for
//! out-degree-2 trees (axes cycling radius → azimuth → z).

use omt_geom::{PointStore3, ShellCell, SphericalPoint};
use omt_tree::{ParentRef, TreeBuilder, TreeError};

use crate::bisect2d::{reset_positions, take_closest_radius};
use crate::fanout::fanout_sink;
use crate::sink::{attach, AttachSink};

/// The axis a binary split halves, cycling radius → azimuth → z.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Axis3 {
    Radius,
    Azimuth,
    Z,
}

impl Axis3 {
    fn next(self) -> Self {
        match self {
            Self::Radius => Self::Azimuth,
            Self::Azimuth => Self::Z,
            Self::Z => Self::Radius,
        }
    }
}

/// A read-only structure-of-arrays view of spherical coordinates, as
/// consumed by the 3-D bisection kernels ([`bisect8`], [`bisect2_3d`]):
/// the columns of `omt_geom::PointStore3` (indexed by point id), or one
/// cell's window of their cell-major copy (indexed by local position).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SphSlices<'a> {
    /// Source-relative radii.
    pub radius: &'a [f64],
    /// Source-relative azimuths in `[0, 2π)`.
    pub azimuth: &'a [f64],
    /// Source-relative polar-angle cosines in `[-1, 1]`.
    pub cos_polar: &'a [f64],
}

impl SphSlices<'_> {
    /// The source-relative columns of `store`.
    pub fn of(store: &PointStore3) -> SphSlices<'_> {
        SphSlices {
            radius: store.radius(),
            azimuth: store.azimuth(),
            cos_polar: store.cos_polar(),
        }
    }

    /// Reassembles the point at position `i` as a [`SphericalPoint`].
    #[inline]
    pub fn get(&self, i: u32) -> SphericalPoint {
        SphericalPoint {
            radius: self.radius[i as usize],
            azimuth: self.azimuth[i as usize],
            cos_polar: self.cos_polar[i as usize],
        }
    }

    /// Radius of the point at position `i`.
    #[inline]
    pub fn radius_of(&self, i: u32) -> f64 {
        self.radius[i as usize]
    }
}

/// An 8-way work frame over a range of the scratch position array.
#[derive(Clone, Debug)]
struct Frame8 {
    cell: ShellCell,
    src: ParentRef,
    q: f64,
    start: u32,
    end: u32,
    depth: u32,
}

/// A binary 3-D work frame over a range of the scratch position array.
#[derive(Clone, Debug)]
struct Frame2x3 {
    cell: ShellCell,
    axis: Axis3,
    src: ParentRef,
    q: f64,
    start: u32,
    end: u32,
    depth: u32,
}

/// Reusable scratch for the 3-D bisection kernels (see
/// `bisect2d::Scratch2` for the rationale).
#[derive(Debug, Default)]
pub(crate) struct Scratch3 {
    loc: Vec<u32>,
    perm: Vec<u32>,
    class: Vec<u8>,
    stack8: Vec<Frame8>,
    stack2: Vec<Frame2x3>,
}

/// Connects every point of a window below `src` with out-degree at most 8
/// per node, following the 8-way octant split of the shell cell. `sph`
/// gives the window's coordinates by local position and the window is the
/// sink's rows `base..base + len`; the kernel permutes local positions in
/// `scratch` and attaches row `base + position` (see `bisect2d::bisect4`).
pub(crate) fn bisect8<S: AttachSink>(
    b: &mut S,
    sph: SphSlices<'_>,
    base: usize,
    cell: ShellCell,
    src: ParentRef,
    src_radius: f64,
    scratch: &mut Scratch3,
) -> Result<(), TreeError> {
    let Scratch3 {
        loc,
        perm,
        class,
        stack8,
        ..
    } = scratch;
    reset_positions(loc, sph.radius.len());
    stack8.clear();
    stack8.push(Frame8 {
        cell,
        src,
        q: src_radius,
        start: 0,
        end: loc.len() as u32,
        depth: 0,
    });
    while let Some(f) = stack8.pop() {
        let (start, end) = (f.start as usize, f.end as usize);
        if start == end {
            continue;
        }
        omt_obs::obs_observe!("bisect3d/depth", u64::from(f.depth));
        omt_obs::obs_count!("bisect3d/splits");
        let children = f.cell.split8();
        // Stable 8-way partition: classify + count, then scatter from a
        // staged copy, so each octant keeps its input order.
        class.clear();
        let mut counts = [0u32; 8];
        for &p in &loc[start..end] {
            let c = f.cell.classify8(&sph.get(p));
            class.push(c as u8);
            counts[c] += 1;
        }
        perm.clear();
        perm.extend_from_slice(&loc[start..end]);
        let mut bounds = [0usize; 9];
        bounds[0] = start;
        for c in 0..8 {
            bounds[c + 1] = bounds[c] + counts[c] as usize;
        }
        let mut cursors = [0usize; 8];
        cursors.copy_from_slice(&bounds[..8]);
        for (j, &p) in perm.iter().enumerate() {
            let c = class[j] as usize;
            loc[cursors[c]] = p;
            cursors[c] += 1;
        }
        for c in 0..8 {
            let (cs, ce) = (bounds[c], bounds[c + 1]);
            if cs == ce {
                continue;
            }
            let rep = take_closest_radius(sph.radius, &mut loc[cs..ce], f.q);
            let rep_row = base + rep as usize;
            attach(b, rep_row, f.src)?;
            if ce - cs > 1 {
                stack8.push(Frame8 {
                    cell: children[c],
                    src: ParentRef::Node(rep_row),
                    q: sph.radius_of(rep),
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
/// per node: binary splits along cycling radius → azimuth → z axes, two
/// carriers per step chosen by radius proximity to the local source. The
/// window is given as in [`bisect8`].
pub(crate) fn bisect2_3d<S: AttachSink>(
    b: &mut S,
    sph: SphSlices<'_>,
    base: usize,
    cell: ShellCell,
    src: ParentRef,
    src_radius: f64,
    scratch: &mut Scratch3,
) -> Result<(), TreeError> {
    let Scratch3 {
        loc, perm, stack2, ..
    } = scratch;
    reset_positions(loc, sph.radius.len());
    stack2.clear();
    stack2.push(Frame2x3 {
        cell,
        axis: Axis3::Radius,
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
        omt_obs::obs_observe!("bisect3d/depth", u64::from(f.depth));
        omt_obs::obs_count!("bisect3d/splits");
        let a = take_closest_radius(sph.radius, &mut loc[start..end], f.q);
        let c = take_closest_radius(sph.radius, &mut loc[start..end - 1], f.q);
        attach(b, base + a as usize, f.src)?;
        attach(b, base + c as usize, f.src)?;
        let rm = 0.5 * (f.cell.r_lo() + f.cell.r_hi());
        let am = f.cell.arc().mid();
        let (z_lo, z_hi) = f.cell.z_range();
        let zm = 0.5 * (z_lo + z_hi);
        let coordinate = |p: &SphericalPoint| match f.axis {
            Axis3::Radius => (p.radius, rm),
            Axis3::Azimuth => (p.azimuth, am),
            Axis3::Z => (p.cos_polar, zm),
        };
        let (lo_cell, hi_cell) = match f.axis {
            Axis3::Radius => (
                ShellCell::new(
                    f.cell.r_lo(),
                    rm,
                    f.cell.arc().lo(),
                    f.cell.arc().hi(),
                    z_lo,
                    z_hi,
                ),
                ShellCell::new(
                    rm,
                    f.cell.r_hi(),
                    f.cell.arc().lo(),
                    f.cell.arc().hi(),
                    z_lo,
                    z_hi,
                ),
            ),
            Axis3::Azimuth => f.cell.split_azimuth(),
            Axis3::Z => f.cell.split_z(),
        };
        // Stable lo/hi partition of the remaining window (carriers parked
        // past `rest_end`).
        let rest_end = end - 2;
        perm.clear();
        perm.extend_from_slice(&loc[start..rest_end]);
        let mut w = start;
        for &p in perm.iter() {
            let (v, mid) = coordinate(&sph.get(p));
            if v < mid {
                loc[w] = p;
                w += 1;
            }
        }
        let mid_pos = w;
        for &p in perm.iter() {
            let (v, mid) = coordinate(&sph.get(p));
            if v >= mid {
                loc[w] = p;
                w += 1;
            }
        }
        debug_assert_eq!(w, rest_end);
        // Carrier closer to each half (in the split coordinate) takes it.
        let (va, _) = coordinate(&sph.get(a));
        let (vc, _) = coordinate(&sph.get(c));
        let (carrier_lo, carrier_hi) = if va <= vc { (a, c) } else { (c, a) };
        stack2.push(Frame2x3 {
            cell: lo_cell,
            axis: f.axis.next(),
            src: ParentRef::Node(base + carrier_lo as usize),
            q: sph.radius_of(carrier_lo),
            start: start as u32,
            end: mid_pos as u32,
            depth: f.depth + 1,
        });
        stack2.push(Frame2x3 {
            cell: hi_cell,
            axis: f.axis.next(),
            src: ParentRef::Node(base + carrier_hi as usize),
            q: sph.radius_of(carrier_hi),
            start: mid_pos as u32,
            end: rest_end as u32,
            depth: f.depth + 1,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Ball, Point3, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    fn setup(n: usize, seed: u64) -> (TreeBuilder<3>, PointStore3) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = Ball::<3>::unit().sample_n(&mut rng, n);
        let store = PointStore3::from_points(Point3::ORIGIN, &pts);
        let b = TreeBuilder::new(Point3::ORIGIN, pts);
        (b, store)
    }

    #[test]
    fn bisect8_produces_valid_degree8_tree() {
        let mut scratch = Scratch3::default();
        for n in [1usize, 5, 64, 500] {
            let (b, store) = setup(n, n as u64);
            let mut b = b.max_out_degree(8);
            bisect8(
                &mut b,
                SphSlices::of(&store),
                0,
                ShellCell::ball(1.0 + 1e-9),
                ParentRef::Source,
                0.0,
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
        let mut scratch = Scratch3::default();
        for n in [1usize, 2, 3, 9, 200] {
            let (b, store) = setup(n, 90 + n as u64);
            let mut b = b.max_out_degree(2);
            bisect2_3d(
                &mut b,
                SphSlices::of(&store),
                0,
                ShellCell::ball(1.0 + 1e-9),
                ParentRef::Source,
                0.0,
                &mut scratch,
            )
            .unwrap();
            let t = b.finish().unwrap();
            assert_eq!(t.len(), n);
            t.validate(Some(2)).unwrap();
        }
    }

    #[test]
    fn duplicate_points_terminate() {
        let pts = vec![Point3::new([0.3, 0.3, 0.3]); 40];
        let store = PointStore3::from_points(Point3::ORIGIN, &pts);
        let mut scratch = Scratch3::default();
        let mut b = TreeBuilder::new(Point3::ORIGIN, pts.clone()).max_out_degree(8);
        bisect8(
            &mut b,
            SphSlices::of(&store),
            0,
            ShellCell::ball(1.0),
            ParentRef::Source,
            0.0,
            &mut scratch,
        )
        .unwrap();
        b.finish().unwrap().validate(Some(8)).unwrap();

        let mut b = TreeBuilder::new(Point3::ORIGIN, pts).max_out_degree(2);
        bisect2_3d(
            &mut b,
            SphSlices::of(&store),
            0,
            ShellCell::ball(1.0),
            ParentRef::Source,
            0.0,
            &mut scratch,
        )
        .unwrap();
        b.finish().unwrap().validate(Some(2)).unwrap();
    }

    #[test]
    fn radius_stays_within_constant_factor_of_direct() {
        let (b, store) = setup(1000, 7);
        let opt_lb = store.radius().iter().copied().fold(0.0, f64::max);
        let mut b = b.max_out_degree(8);
        bisect8(
            &mut b,
            SphSlices::of(&store),
            0,
            ShellCell::ball(1.0 + 1e-9),
            ParentRef::Source,
            0.0,
            &mut Scratch3::default(),
        )
        .unwrap();
        let t = b.finish().unwrap();
        // Inside the full ball the bisection is not the tuned covering-
        // segment setting, but the radius must still be a small multiple of
        // the lower bound.
        assert!(t.radius() <= 8.0 * opt_lb, "radius {}", t.radius());
    }
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

impl Bisection3 {
    /// Creates a 3-D bisection builder with the given out-degree budget.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::BuildError::DegreeTooSmall`] for budgets below 2.
    pub fn new(max_out_degree: u32) -> Result<Self, crate::error::BuildError> {
        if max_out_degree < 2 {
            return Err(crate::error::BuildError::DegreeTooSmall {
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

    /// Builds the spanning tree rooted at `source` over `points`, bisecting
    /// the smallest source-centered ball covering the input (the natural
    /// 3-D covering region; a far-pole covering shell buys nothing in 3-D
    /// because the octant split already bounds all three coordinates).
    ///
    /// # Errors
    ///
    /// Returns an error for non-finite coordinates; internal tree errors
    /// indicate bugs.
    pub fn build(
        &self,
        source: omt_geom::Point3,
        points: &[omt_geom::Point3],
    ) -> Result<omt_tree::MulticastTree<3>, crate::error::BuildError> {
        use crate::error::BuildError;
        if !source.is_finite() {
            return Err(BuildError::NonFiniteSource);
        }
        if let Some(bad) = points.iter().position(|p| !p.is_finite()) {
            return Err(BuildError::NonFinitePoint { index: bad });
        }
        let mut builder =
            TreeBuilder::new(source, points.to_vec()).max_out_degree(self.max_out_degree);
        let store = PointStore3::from_points(source, points);
        let rho = store.radius().iter().copied().fold(0.0f64, f64::max);
        if rho == 0.0 {
            fanout_sink(&mut builder, points.len(), self.max_out_degree)?;
            return Ok(builder.finish()?);
        }
        let (sph, cell) = (SphSlices::of(&store), ShellCell::ball(rho * (1.0 + 1e-9)));
        // The store's columns are indexed by point id: rows start at 0.
        let mut scratch = Scratch3::default();
        if self.max_out_degree >= 8 {
            bisect8(
                &mut builder,
                sph,
                0,
                cell,
                ParentRef::Source,
                0.0,
                &mut scratch,
            )?;
        } else {
            bisect2_3d(
                &mut builder,
                sph,
                0,
                cell,
                ParentRef::Source,
                0.0,
                &mut scratch,
            )?;
        }
        Ok(builder.finish()?)
    }
}

#[cfg(test)]
mod standalone_tests {
    use super::*;
    use omt_geom::{Ball, Point3, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

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
