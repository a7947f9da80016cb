//! The structure-of-arrays point store of the grid builders' construction
//! path.
//!
//! The grid builders in `omt-core` consume points twice: once in Cartesian
//! form (edge lengths, tree depths) and once in the source-relative
//! coordinates their grid bins on (ring assignment, angular bisection). An
//! array-of-structs pipeline materializes both as `Vec<Point2>` /
//! `Vec<PolarPoint>` — two full copies plus per-cell index `Vec`s. At the
//! paper's largest configurations (Table I runs up to n = 5,000,000) that
//! layout is memory-bandwidth-bound and wastes roughly half the resident set
//! on struct padding and duplication.
//!
//! [`PointStore<D>`] keeps one flat `f64` array per coordinate instead: `D`
//! absolute Cartesian columns plus `D` grid columns. A grid row is a pure
//! function of its point, chosen by the caller that fills the store — the
//! polar row ([`polar_row`]) of the 2-D grid, the spherical row
//! ([`spherical_row`]) of the 3-D shells, the quantile row of `omt-core`'s
//! n-D grid — and computed in one pass over [`SOA_CHUNK`]-point chunks on
//! the `omt-par` worker pool. Because every row depends on its point alone,
//! the columns are bit-identical for every thread count.
//!
//! [`PointStore2`] and [`PointStore3`] name the 2-D and 3-D stores and fill
//! them with the polar and spherical rows on the ambient thread count
//! ([`omt_par::effective_threads`]). Sampling a workload via
//! [`PointStore2::sample_region`] draws points straight from the region
//! sampler into the Cartesian columns, so no intermediate `Vec<Point2>` of
//! all n points ever exists and the RNG stream is bit-identical to
//! [`Region::sample_n`]; the grid columns follow in a second, parallel pass.
//!
//! Bit-identity contract: for every index `i`,
//! `store.polar(i) == PolarPoint::from_cartesian(&(points[i] - source))`
//! down to the last bit (and the spherical analogue in 3-D), so a store
//! filled by [`PointStore2::from_points`] and one sampled from the same
//! RNG stream by [`PointStore2::sample_region`] build the same tree.

use omt_rng::Rng;

use crate::point::{Point, Point2, Point3};
use crate::polar::{PolarPoint, SphericalPoint};
use crate::region::Region;

/// Points per chunk of the store fill: large enough to amortize the
/// dispatch, small enough to load-balance. A store of at most this many
/// points is filled inline on the calling thread.
pub const SOA_CHUNK: usize = 1 << 16;

/// The polar row of a source-relative vector `v`: its radius, then its
/// angle in `[0, 2π)`, with exactly the float operations of
/// [`PolarPoint::from_cartesian`].
#[must_use]
pub fn polar_row(v: &Point2) -> [f64; 2] {
    let p = PolarPoint::from_cartesian(v);
    [p.radius, p.angle]
}

/// The spherical row of a source-relative vector `v`: its radius, azimuth
/// in `[0, 2π)` and polar-angle cosine, with exactly the float operations
/// of [`SphericalPoint::from_cartesian`].
#[must_use]
pub fn spherical_row(v: &Point3) -> [f64; 3] {
    let s = SphericalPoint::from_cartesian(v);
    [s.radius, s.azimuth, s.cos_polar]
}

/// A structure-of-arrays store of `D`-dimensional points: `D` Cartesian
/// columns and `D` grid columns, the grid row of each point relative to the
/// store's source.
///
/// # Examples
///
/// ```
/// use omt_geom::{Disk, Point2, PointStore2, PolarPoint, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// // Streamed sampling matches `sample_n` bit-for-bit...
/// let source = Point2::ORIGIN;
/// let store = PointStore2::sample_region(
///     source,
///     &Disk::unit(),
///     &mut SmallRng::seed_from_u64(2004),
///     1000,
/// );
/// let reference = Disk::unit().sample_n(&mut SmallRng::seed_from_u64(2004), 1000);
/// assert!((0..1000).all(|i| store.point(i) == reference[i]));
///
/// // ...and the stored polar view matches the AoS conversion bit-for-bit.
/// let p = store.point(17);
/// assert_eq!(store.polar(17), PolarPoint::from_cartesian(&(p - source)));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PointStore<const D: usize> {
    source: Point<D>,
    coords: [Vec<f64>; D],
    grid: [Vec<f64>; D],
}

/// The 2-D store, whose grid columns are the polar rows ([`polar_row`]):
/// `radius` and `angle`.
pub type PointStore2 = PointStore<2>;

/// The 3-D store, whose grid columns are the spherical rows
/// ([`spherical_row`]): `radius`, `azimuth` and `cos_polar`.
///
/// # Examples
///
/// ```
/// use omt_geom::{Ball, Point3, PointStore3, SphericalPoint, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// let source = Point3::ORIGIN;
/// let store = PointStore3::sample_region(
///     source,
///     &Ball::<3>::unit(),
///     &mut SmallRng::seed_from_u64(2004),
///     500,
/// );
/// let p = store.point(42);
/// assert_eq!(store.spherical(42), SphericalPoint::from_cartesian(&(p - source)));
/// ```
pub type PointStore3 = PointStore<3>;

impl<const D: usize> PointStore<D> {
    /// The store of `points` relative to `source`, its grid columns
    /// `row(&(p - source))` for every point `p`, filled on `threads`
    /// workers (inline for one, or for at most [`SOA_CHUNK`] points).
    ///
    /// Non-finite coordinates are stored as-is (the grid columns then hold
    /// whatever IEEE arithmetic produces); consumers that require finite
    /// inputs validate the Cartesian columns (the grid builders report the
    /// first non-finite index).
    #[must_use]
    pub fn from_points_on(
        source: Point<D>,
        points: &[Point<D>],
        threads: usize,
        row: impl Fn(&Point<D>) -> [f64; D] + Sync,
    ) -> Self {
        let coords = core::array::from_fn(|_| vec![0.0; points.len()]);
        Self::fill(source, coords, Some(points), threads, row)
    }

    /// `n` points drawn from `region`, one [`Region::sample`] call per
    /// point in order, as [`Region::sample_n`] draws them; the grid rows
    /// follow in a second pass on `threads` workers.
    fn sample_on<R: Region<D> + ?Sized>(
        source: Point<D>,
        region: &R,
        rng: &mut dyn Rng,
        n: usize,
        threads: usize,
        row: impl Fn(&Point<D>) -> [f64; D] + Sync,
    ) -> Self {
        let mut coords: [Vec<f64>; D] = core::array::from_fn(|_| Vec::with_capacity(n));
        for _ in 0..n {
            let p = region.sample(rng);
            for (d, column) in coords.iter_mut().enumerate() {
                column.push(p[d]);
            }
        }
        Self::fill(source, coords, None, threads, row)
    }

    /// The one fill: over chunks of [`SOA_CHUNK`] rows on `threads`
    /// workers, copies the chunk's `points` (if given) into the Cartesian
    /// columns, then computes its grid rows from them.
    fn fill(
        source: Point<D>,
        mut coords: [Vec<f64>; D],
        points: Option<&[Point<D>]>,
        threads: usize,
        row: impl Fn(&Point<D>) -> [f64; D] + Sync,
    ) -> Self {
        let n = coords.first().map_or(0, Vec::len);
        let mut grid: [Vec<f64>; D] = core::array::from_fn(|_| vec![0.0; n]);
        {
            let mut coord_chunks = coords.each_mut().map(|c| c.chunks_mut(SOA_CHUNK));
            let mut grid_chunks = grid.each_mut().map(|c| c.chunks_mut(SOA_CHUNK));
            let mut chunks: Vec<_> = (0..n)
                .step_by(SOA_CHUNK)
                .map(|base| {
                    let c = coord_chunks.each_mut().map(|it| it.next().expect("n rows"));
                    let g = grid_chunks.each_mut().map(|it| it.next().expect("n rows"));
                    (base, c, g)
                })
                .collect();
            omt_par::par_map_indexed_mut(&mut chunks, threads, |_, (base, c, g)| {
                let len = g[0].len();
                if let Some(points) = points {
                    for (j, p) in points[*base..*base + len].iter().enumerate() {
                        for d in 0..D {
                            c[d][j] = p[d];
                        }
                    }
                }
                for j in 0..len {
                    let p = Point::new(core::array::from_fn(|d| c[d][j]));
                    let r = row(&(p - source));
                    for d in 0..D {
                        g[d][j] = r[d];
                    }
                }
            });
        }
        Self {
            source,
            coords,
            grid,
        }
    }

    /// Number of stored points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.coords.first().map_or(0, Vec::len)
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The source the grid columns are relative to.
    #[must_use]
    pub fn source(&self) -> Point<D> {
        self.source
    }

    /// The Cartesian columns, one per axis.
    #[must_use]
    pub fn coords(&self) -> [&[f64]; D] {
        self.coords.each_ref().map(Vec::as_slice)
    }

    /// The grid columns: each point's row relative to the source, as the
    /// filling caller's transform computed it.
    #[must_use]
    pub fn grid(&self) -> [&[f64]; D] {
        self.grid.each_ref().map(Vec::as_slice)
    }

    /// Source-relative radii (`‖p - source‖`): grid column 0, which every
    /// row transform of the grid builders puts first.
    #[must_use]
    pub fn radius(&self) -> &[f64] {
        &self.grid[0]
    }

    /// The `i`-th point in Cartesian form.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn point(&self, i: usize) -> Point<D> {
        Point::new(core::array::from_fn(|d| self.coords[d][i]))
    }
}

impl PointStore<2> {
    /// The store of `points` relative to `source`, with their polar rows,
    /// filled on the ambient thread count (how the slice grid builders
    /// enter the store construction path is the same fill, on their own
    /// thread count).
    #[must_use]
    pub fn from_points(source: Point2, points: &[Point2]) -> Self {
        Self::from_points_on(source, points, omt_par::effective_threads(), polar_row)
    }

    /// Samples `n` points uniformly from `region` straight into the
    /// Cartesian columns, then computes their polar rows on the ambient
    /// thread count.
    ///
    /// The RNG is consumed exactly as by [`Region::sample_n`] (one
    /// [`Region::sample`] call per point, in order), so the generated
    /// coordinates are bit-identical to the AoS workload — but no full
    /// `Vec<Point2>` copy of the workload is ever allocated.
    #[must_use]
    pub fn sample_region<R: Region<2> + ?Sized>(
        source: Point2,
        region: &R,
        rng: &mut dyn Rng,
        n: usize,
    ) -> Self {
        Self::sample_on(
            source,
            region,
            rng,
            n,
            omt_par::effective_threads(),
            polar_row,
        )
    }

    /// Absolute x coordinates.
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.coords[0]
    }

    /// Absolute y coordinates.
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.coords[1]
    }

    /// Source-relative angles, normalized to `[0, 2π)`.
    #[must_use]
    pub fn angle(&self) -> &[f64] {
        &self.grid[1]
    }

    /// The `i`-th point in source-relative polar form.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn polar(&self, i: usize) -> PolarPoint {
        PolarPoint {
            radius: self.grid[0][i],
            angle: self.grid[1][i],
        }
    }
}

impl PointStore<3> {
    /// The store of `points` relative to `source`, with their spherical
    /// rows, filled on the ambient thread count.
    #[must_use]
    pub fn from_points(source: Point3, points: &[Point3]) -> Self {
        Self::from_points_on(source, points, omt_par::effective_threads(), spherical_row)
    }

    /// Samples `n` points uniformly from `region`; see
    /// [`PointStore2::sample_region`] for the streaming and RNG-parity
    /// guarantees.
    #[must_use]
    pub fn sample_region<R: Region<3> + ?Sized>(
        source: Point3,
        region: &R,
        rng: &mut dyn Rng,
        n: usize,
    ) -> Self {
        Self::sample_on(
            source,
            region,
            rng,
            n,
            omt_par::effective_threads(),
            spherical_row,
        )
    }

    /// Absolute x coordinates.
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.coords[0]
    }

    /// Absolute y coordinates.
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.coords[1]
    }

    /// Absolute z coordinates.
    #[must_use]
    pub fn zs(&self) -> &[f64] {
        &self.coords[2]
    }

    /// Source-relative azimuths, normalized to `[0, 2π)`.
    #[must_use]
    pub fn azimuth(&self) -> &[f64] {
        &self.grid[1]
    }

    /// Source-relative polar-angle cosines in `[-1, 1]`.
    #[must_use]
    pub fn cos_polar(&self) -> &[f64] {
        &self.grid[2]
    }

    /// The `i`-th point in source-relative spherical form.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn spherical(&self, i: usize) -> SphericalPoint {
        SphericalPoint {
            radius: self.grid[0][i],
            azimuth: self.grid[1][i],
            cos_polar: self.grid[2][i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Ball;
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    /// More than two fill chunks, so the threaded fill hands each worker
    /// several, and a partial last one.
    const MULTI_CHUNK: usize = 2 * SOA_CHUNK + 777;

    /// `points` with a NaN, an infinite coordinate and the source itself
    /// planted in the second chunk.
    fn with_specials<const D: usize>(mut points: Vec<Point<D>>, source: Point<D>) -> Vec<Point<D>> {
        points[SOA_CHUNK + 3][0] = f64::NAN;
        points[SOA_CHUNK + 4][D - 1] = f64::INFINITY;
        points[SOA_CHUNK + 5] = source;
        points
    }

    /// The stores of `points` filled on 1 and 3 threads are equal, and
    /// hold each point verbatim and its row `row(p - source)`, bit for bit.
    fn assert_fill_matches_rows<const D: usize>(
        source: Point<D>,
        points: &[Point<D>],
        row: fn(&Point<D>) -> [f64; D],
    ) {
        let inline = PointStore::from_points_on(source, points, 1, row);
        let threaded = PointStore::from_points_on(source, points, 3, row);
        assert_eq!(inline.len(), points.len());
        for (i, p) in points.iter().enumerate() {
            let want = row(&(*p - source));
            for d in 0..D {
                for store in [&inline, &threaded] {
                    assert_eq!(store.coords()[d][i].to_bits(), p[d].to_bits(), "row {i}");
                    assert_eq!(store.grid()[d][i].to_bits(), want[d].to_bits(), "row {i}");
                }
            }
        }
    }

    #[test]
    fn polar_view_is_bit_identical_to_aos_conversion() {
        let source = Point2::new([0.25, -1.5]);
        let mut rng = SmallRng::seed_from_u64(99);
        let points = Ball::<2>::new(Point2::new([1.0, 2.0]), 3.0).sample_n(&mut rng, MULTI_CHUNK);
        let points = with_specials(points, source);
        assert_fill_matches_rows(source, &points, polar_row);
        let store = PointStore2::from_points(source, &points);
        for (i, p) in points.iter().enumerate().filter(|(_, p)| p.is_finite()) {
            let expect = PolarPoint::from_cartesian(&(*p - source));
            assert_eq!(store.radius()[i].to_bits(), expect.radius.to_bits());
            assert_eq!(store.angle()[i].to_bits(), expect.angle.to_bits());
            assert_eq!(store.point(i), *p);
        }
    }

    #[test]
    fn spherical_view_is_bit_identical_to_aos_conversion() {
        let source = Point3::new([0.1, 0.2, -0.3]);
        let mut rng = SmallRng::seed_from_u64(7);
        let points =
            Ball::<3>::new(Point3::new([0.5, 0.0, 1.0]), 2.0).sample_n(&mut rng, MULTI_CHUNK);
        let points = with_specials(points, source);
        assert_fill_matches_rows(source, &points, spherical_row);
        let store = PointStore3::from_points(source, &points);
        for (i, p) in points.iter().enumerate().filter(|(_, p)| p.is_finite()) {
            let expect = SphericalPoint::from_cartesian(&(*p - source));
            assert_eq!(store.radius()[i].to_bits(), expect.radius.to_bits());
            assert_eq!(store.azimuth()[i].to_bits(), expect.azimuth.to_bits());
            assert_eq!(store.cos_polar()[i].to_bits(), expect.cos_polar.to_bits());
        }
    }

    #[test]
    fn streamed_sampling_matches_sample_n_across_chunk_boundary() {
        for n in [0usize, 1, 7, 1000, SOA_CHUNK + 1] {
            let store = PointStore2::sample_region(
                Point2::ORIGIN,
                &Ball::<2>::unit(),
                &mut SmallRng::seed_from_u64(2004),
                n,
            );
            let reference = Ball::<2>::unit().sample_n(&mut SmallRng::seed_from_u64(2004), n);
            assert_eq!(
                store,
                PointStore2::from_points_on(Point2::ORIGIN, &reference, 1, polar_row)
            );
        }
    }

    #[test]
    fn streamed_sampling_3d_matches_sample_n() {
        let store = PointStore3::sample_region(
            Point3::ORIGIN,
            &Ball::<3>::unit(),
            &mut SmallRng::seed_from_u64(2005),
            333,
        );
        let reference = Ball::<3>::unit().sample_n(&mut SmallRng::seed_from_u64(2005), 333);
        assert_eq!(store.len(), 333);
        assert!((0..333).all(|i| store.point(i) == reference[i]));
    }

    #[test]
    fn non_finite_points_are_stored_verbatim() {
        let points = [
            Point2::new([f64::NAN, 1.0]),
            Point2::new([2.0, f64::INFINITY]),
        ];
        let store = PointStore2::from_points(Point2::ORIGIN, &points);
        assert!(store.xs()[0].is_nan());
        assert_eq!(store.ys()[0], 1.0);
        assert_eq!(store.ys()[1], f64::INFINITY);
    }
}
