//! General-dimension `Polar_Grid` (Section IV-B sketches this; the paper
//! only evaluates d = 2, 3 and remarks "the details of equal volume split
//! become tedious").
//!
//! We make the split exact in any dimension with the *quantile trick*: in
//! hyperspherical coordinates `(r, φ_1, …, φ_{D-1})` the volume element
//! factorizes as `r^{D-1} dr · sin^{D-2}φ_1 dφ_1 ⋯ sin φ_{D-2} dφ_{D-2} ·
//! dφ_{D-1}`, so
//!
//! * rings of equal volume use radii growing by `2^{1/D}`;
//! * each polar angle `φ_j` is measured through its own CDF
//!   `F_m(x) = ∫_0^x sin^m t dt` (closed form by the standard reduction
//!   formula), which maps it to a uniform quantile in `[0, 1)`;
//! * the azimuth `φ_{D-1}` is already uniform.
//!
//! Binary angular splits then cut exact measure-halves by halving quantile
//! intervals, and a point's angular bit path is just the interleaved binary
//! digits of its per-axis quantiles — the same level-independent encoding
//! the 2-D and 3-D grids use, so ring selection is shared.
//!
//! Trees use the degree-2 wiring of Section IV-A with a binary in-cell
//! bisection (axes cycling radius → quantile axes), so any out-degree
//! budget ≥ 2 is supported; the emitted tree always has out-degree ≤ 2.

use omt_geom::Point;
use omt_tree::{MulticastTree, ParentRef, TreeBuilder, TreeError};

use crate::error::BuildError;
use crate::fanout::fanout_chain as fanout_nd;
use crate::kselect::{
    bucket_cells, cell_count, cell_index, finest_level, select_rings, Assignments,
};

/// `F_m(x) = ∫_0^x sin^m t dt` via the reduction formula
/// `m·F_m(x) = -cos x · sin^{m-1} x + (m-1)·F_{m-2}(x)`.
fn sin_power_integral(m: u32, x: f64) -> f64 {
    match m {
        0 => x,
        1 => 1.0 - x.cos(),
        _ => {
            let s = x.sin();
            (-x.cos() * s.powi(m as i32 - 1) + (m - 1) as f64 * sin_power_integral(m - 2, x))
                / m as f64
        }
    }
}

/// A point in the grid's internal coordinates: radius plus one quantile in
/// `[0, 1)` per angular axis.
#[derive(Clone, Debug)]
struct QuantPoint {
    radius: f64,
    /// Quantiles of the `D-1` angular coordinates.
    quant: Vec<f64>,
}

/// Hyperspherical quantile coordinates of `p - source`.
fn to_quant<const D: usize>(v: &Point<D>) -> QuantPoint {
    let r = v.norm();
    let mut quant = Vec::with_capacity(D - 1);
    // Residual squared norm of coordinates j.. (suffix sums).
    let mut suffix = [0.0f64; D];
    let mut acc = 0.0;
    for j in (0..D).rev() {
        acc += v[j] * v[j];
        suffix[j] = acc;
    }
    // Polar angles φ_1..φ_{D-2} with sin-power densities.
    for j in 0..D.saturating_sub(2) {
        let tail = suffix[j + 1].max(0.0).sqrt();
        let phi = tail.atan2(v[j]); // in [0, π]
        let m = (D - 2 - j) as u32;
        let q = sin_power_integral(m, phi) / sin_power_integral(m, core::f64::consts::PI);
        quant.push(q.clamp(0.0, 1.0 - 1e-15));
    }
    // Azimuth φ_{D-1}: uniform in [0, 2π).
    let az = omt_geom::normalize_angle(v[D - 1].atan2(v[D - 2]));
    quant.push((az / core::f64::consts::TAU).clamp(0.0, 1.0 - 1e-15));
    QuantPoint { radius: r, quant }
}

/// The angular bit path of a point at level `k`: bit `ℓ` (MSB-first) is the
/// next binary digit of the quantile on axis `ℓ mod (D-1)`.
fn angular_path(q: &QuantPoint, k: u32) -> u64 {
    let axes = q.quant.len();
    let mut counts = vec![0u32; axes];
    let mut path = 0u64;
    for l in 0..k {
        let a = (l as usize) % axes;
        counts[a] += 1;
        // Binary digit `counts[a]` of the quantile's binary expansion.
        let digit = (q.quant[a] * 2f64.powi(counts[a] as i32)) as u64 & 1;
        path = (path << 1) | digit;
    }
    path
}

/// An axis-aligned box in (radius, quantile) space plus the split cursor.
#[derive(Clone, Debug)]
struct QuantCell {
    r_lo: f64,
    r_hi: f64,
    /// Per-axis quantile intervals `[lo, hi)`.
    q: Vec<(f64, f64)>,
}

/// Report of an [`NdGridBuilder`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct NdGridReport {
    /// The number of grid rings `k`.
    pub rings: u32,
    /// The longest source-to-receiver delay in the tree.
    pub delay: f64,
    /// The trivial lower bound: the largest direct source-to-point distance.
    pub lower_bound: f64,
    /// Total number of grid cells, `2^(k+1) - 1`.
    pub cells: usize,
    /// Number of cells containing at least one point.
    pub occupied_cells: usize,
}

/// Builder for the general-dimension `Polar_Grid` algorithm (`D ≥ 2`).
///
/// For `D = 2` and `D = 3` prefer [`crate::PolarGridBuilder`] and
/// [`crate::SphereGridBuilder`], which implement the exact paper
/// constructions with their analytic bounds; this builder exists for
/// higher-dimensional embeddings (the GNP coordinates of the paper's
/// motivation use dimension "3 and above").
///
/// # Examples
///
/// ```
/// use omt_core::NdGridBuilder;
/// use omt_geom::{Ball, Point, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SmallRng::seed_from_u64(2);
/// let hosts = Ball::<4>::unit().sample_n(&mut rng, 500);
/// let tree = NdGridBuilder::new().build(Point::ORIGIN, &hosts)?;
/// tree.validate(Some(2))?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NdGridBuilder {
    max_out_degree: u32,
    rings_override: Option<u32>,
}

impl Default for NdGridBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NdGridBuilder {
    /// Creates a builder with out-degree budget 2 and automatic ring
    /// selection.
    pub fn new() -> Self {
        Self {
            max_out_degree: 2,
            rings_override: None,
        }
    }

    /// Sets the out-degree budget (any value ≥ 2; the construction emits
    /// out-degree ≤ 2 regardless, so larger budgets are slack).
    #[must_use]
    pub fn max_out_degree(mut self, budget: u32) -> Self {
        self.max_out_degree = budget;
        self
    }

    /// Forces a specific number of rings. Fails at build time if
    /// infeasible.
    #[must_use]
    pub fn rings(mut self, k: u32) -> Self {
        self.rings_override = Some(k);
        self
    }

    /// Builds the multicast tree over `D`-dimensional points.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`PolarGridBuilder::build_with_report`](crate::PolarGridBuilder::build_with_report).
    pub fn build<const D: usize>(
        &self,
        source: Point<D>,
        points: &[Point<D>],
    ) -> Result<MulticastTree<D>, BuildError> {
        self.build_with_report(source, points).map(|(t, _)| t)
    }

    /// Builds the multicast tree and returns diagnostics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NdGridBuilder::build`].
    pub fn build_with_report<const D: usize>(
        &self,
        source: Point<D>,
        points: &[Point<D>],
    ) -> Result<(MulticastTree<D>, NdGridReport), BuildError> {
        assert!(D >= 2, "NdGridBuilder needs dimension >= 2");
        if self.max_out_degree < 2 {
            return Err(BuildError::DegreeTooSmall {
                got: self.max_out_degree,
                min: 2,
            });
        }
        if !source.is_finite() {
            return Err(BuildError::NonFiniteSource);
        }
        if let Some(bad) = points.iter().position(|p| !p.is_finite()) {
            return Err(BuildError::NonFinitePoint { index: bad });
        }
        let n = points.len();
        let mut builder = TreeBuilder::new(source, points.to_vec()).max_out_degree(2);
        if n == 0 {
            let tree = builder.finish()?;
            return Ok((
                tree,
                NdGridReport {
                    rings: 0,
                    delay: 0.0,
                    lower_bound: 0.0,
                    cells: 1,
                    occupied_cells: 0,
                },
            ));
        }
        let quant: Vec<QuantPoint> = points.iter().map(|p| to_quant(&(*p - source))).collect();
        let lower_bound = quant.iter().map(|q| q.radius).fold(0.0, f64::max);
        if lower_bound == 0.0 {
            fanout_nd(&mut builder, 2)?;
            let tree = builder.finish()?;
            return Ok((
                tree,
                NdGridReport {
                    rings: 0,
                    delay: 0.0,
                    lower_bound: 0.0,
                    cells: 1,
                    occupied_cells: 1,
                },
            ));
        }
        let rho = lower_bound * (1.0 + 1e-9);

        let k_max = finest_level(n);
        // Ring radii at the finest level: rho · 2^(-(k_max - i)/D).
        let shell = |i: u32| rho * 2f64.powf(-((k_max - i) as f64) / D as f64);
        let ring_of = |r: f64| -> u32 {
            if k_max == 0 || r < shell(0) {
                return 0;
            }
            if r >= rho {
                return k_max;
            }
            let guess = (k_max as f64 + D as f64 * (r / rho).log2()).floor() as i64 + 1;
            let mut ring = guess.clamp(1, k_max as i64) as u32;
            while ring > 1 && r < shell(ring - 1) {
                ring -= 1;
            }
            while ring < k_max && r >= shell(ring) {
                ring += 1;
            }
            ring
        };
        let assignments = Assignments::from_columns(
            k_max,
            quant.iter().map(|q| ring_of(q.radius)).collect(),
            quant
                .iter()
                .map(|q| angular_path(q, k_max) as u32)
                .collect(),
        );
        let k_auto = select_rings(&assignments);
        let k = match self.rings_override {
            None => k_auto,
            Some(req) if req <= k_auto => req,
            Some(req) => {
                return Err(BuildError::InfeasibleRings {
                    requested: req,
                    feasible: k_auto,
                })
            }
        };

        // Cell geometry at level k.
        let level_shell = |i: u32| rho * 2f64.powf(-((k - i) as f64) / D as f64);
        let cell_geom = |ring: u32, seg: u64| -> QuantCell {
            let axes = D - 1;
            let mut q = vec![(0.0, 1.0); axes];
            let mut counts = vec![0u32; axes];
            for l in 0..ring {
                let a = (l as usize) % axes;
                counts[a] += 1;
                let bit = (seg >> (ring - 1 - l)) & 1;
                let mid = 0.5 * (q[a].0 + q[a].1);
                if bit == 1 {
                    q[a].0 = mid;
                } else {
                    q[a].1 = mid;
                }
            }
            QuantCell {
                r_lo: if ring == 0 {
                    0.0
                } else {
                    level_shell(ring - 1)
                },
                r_hi: level_shell(ring),
                q,
            }
        };

        // Bucket points per cell.
        let cells = cell_count(k);
        let (counts, members) = bucket_cells(assignments, k, 1);
        let cell_members = |c: usize| &members[counts[c] as usize..counts[c + 1] as usize];
        let occupied_cells = (0..cells).filter(|&c| counts[c] != counts[c + 1]).count();

        // Degree-2 wiring, identical in shape to the 2-D/3-D versions.
        let mut connector: Vec<ParentRef> = vec![ParentRef::Source; cells];
        {
            let mem = cell_members(0);
            let has_core_children = k >= 1
                && (!cell_members(cell_index(1, 0)).is_empty()
                    || !cell_members(cell_index(1, 1)).is_empty());
            connector[0] = wire_cell(
                &mut builder,
                &quant,
                cell_geom(0, 0),
                ParentRef::Source,
                0.0,
                mem,
                None,
                has_core_children,
            )?;
        }
        for ring in 1..=k {
            for seg in 0..(1u64 << ring) {
                let c = cell_index(ring, seg);
                let mem = cell_members(c);
                if mem.is_empty() {
                    continue;
                }
                let rep = *mem
                    .iter()
                    .min_by(|&&a, &&b| {
                        quant[a as usize]
                            .radius
                            .total_cmp(&quant[b as usize].radius)
                    })
                    .expect("nonempty");
                let parent_idx = if ring == 1 {
                    cell_index(0, 0)
                } else {
                    cell_index(ring - 1, seg / 2)
                };
                match connector[parent_idx] {
                    ParentRef::Source => builder.attach_to_source(rep as usize)?,
                    ParentRef::Node(p) => builder.attach(rep as usize, p)?,
                }
                let has_core_children = ring < k && {
                    let kids = [
                        cell_index(ring + 1, 2 * seg),
                        cell_index(ring + 1, 2 * seg + 1),
                    ];
                    kids.iter().any(|&kc| !cell_members(kc).is_empty())
                };
                connector[c] = wire_cell(
                    &mut builder,
                    &quant,
                    cell_geom(ring, seg),
                    ParentRef::Node(rep as usize),
                    quant[rep as usize].radius,
                    mem,
                    Some(rep),
                    has_core_children,
                )?;
            }
        }

        let tree = builder.finish()?;
        let delay = tree.radius();
        Ok((
            tree,
            NdGridReport {
                rings: k,
                delay,
                lower_bound,
                cells,
                occupied_cells,
            },
        ))
    }
}

/// Degree-2 in-cell wiring; returns the connector.
#[allow(clippy::too_many_arguments)]
fn wire_cell<const D: usize>(
    builder: &mut TreeBuilder<D>,
    quant: &[QuantPoint],
    cell: QuantCell,
    rep_ref: ParentRef,
    rep_radius: f64,
    members: &[u32],
    rep: Option<u32>,
    has_core_children: bool,
) -> Result<ParentRef, BuildError> {
    let attach = |b: &mut TreeBuilder<D>, child: usize, parent: ParentRef| match parent {
        ParentRef::Source => b.attach_to_source(child),
        ParentRef::Node(p) => b.attach(child, p),
    };
    let mut rest: Vec<u32> = members
        .iter()
        .copied()
        .filter(|&p| Some(p) != rep)
        .collect();
    match rest.len() {
        0 => Ok(rep_ref),
        1 => {
            let other = rest[0];
            attach(builder, other as usize, rep_ref)?;
            Ok(ParentRef::Node(other as usize))
        }
        _ => {
            let connector = if has_core_children {
                // Nearest point to the representative in the original
                // coordinates (see the 2-D wiring for the rationale).
                let rep_pos = match rep_ref {
                    ParentRef::Source => builder.source(),
                    ParentRef::Node(r) => builder.point(r),
                };
                let pos = rest
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        let da = builder.point(*a.1 as usize).distance_squared(&rep_pos);
                        let db = builder.point(*b.1 as usize).distance_squared(&rep_pos);
                        da.total_cmp(&db)
                    })
                    .map(|(i, _)| i)
                    .expect("nonempty");
                let x = rest.swap_remove(pos);
                attach(builder, x as usize, rep_ref)?;
                Some(ParentRef::Node(x as usize))
            } else {
                None
            };
            if !rest.is_empty() {
                let pos = rest
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        (quant[*a.1 as usize].radius - rep_radius)
                            .abs()
                            .total_cmp(&(quant[*b.1 as usize].radius - rep_radius).abs())
                    })
                    .map(|(i, _)| i)
                    .expect("nonempty");
                let s = rest.swap_remove(pos);
                attach(builder, s as usize, rep_ref)?;
                bisect2_nd(builder, quant, cell, ParentRef::Node(s as usize), rest)?;
            }
            Ok(connector.unwrap_or(rep_ref))
        }
    }
}

/// Binary in-cell bisection for general dimension: axes cycle radius →
/// quantile axis 0 → quantile axis 1 → … Each step removes two points, so
/// termination is unconditional.
fn bisect2_nd<const D: usize>(
    b: &mut TreeBuilder<D>,
    quant: &[QuantPoint],
    cell: QuantCell,
    src: ParentRef,
    idx: Vec<u32>,
) -> Result<(), TreeError> {
    let attach = |b: &mut TreeBuilder<D>, child: usize, parent: ParentRef| match parent {
        ParentRef::Source => b.attach_to_source(child),
        ParentRef::Node(p) => b.attach(child, p),
    };
    let axes = cell.q.len() + 1; // radius plus angular axes
    let mut stack: Vec<(QuantCell, usize, ParentRef, Vec<u32>)> = vec![(cell, 0, src, idx)];
    while let Some((cell, axis, src, mut idx)) = stack.pop() {
        match idx.len() {
            0 => continue,
            1 => {
                attach(b, idx[0] as usize, src)?;
                continue;
            }
            2 => {
                attach(b, idx[0] as usize, src)?;
                attach(b, idx[1] as usize, src)?;
                continue;
            }
            _ => {}
        }
        // Two carriers: the points with radius closest to the cell's inner
        // boundary (a stand-in for the local source radius; exactness is
        // not needed for validity).
        let take_min = |idx: &mut Vec<u32>, target: f64| -> u32 {
            let pos = idx
                .iter()
                .enumerate()
                .min_by(|x, y| {
                    (quant[*x.1 as usize].radius - target)
                        .abs()
                        .total_cmp(&(quant[*y.1 as usize].radius - target).abs())
                })
                .map(|(i, _)| i)
                .expect("nonempty");
            idx.swap_remove(pos)
        };
        let a = take_min(&mut idx, cell.r_lo);
        let c = take_min(&mut idx, cell.r_lo);
        attach(b, a as usize, src)?;
        attach(b, c as usize, src)?;
        let coordinate = |p: &QuantPoint| -> (f64, f64) {
            if axis == 0 {
                (p.radius, 0.5 * (cell.r_lo + cell.r_hi))
            } else {
                let (lo, hi) = cell.q[axis - 1];
                (p.quant[axis - 1], 0.5 * (lo + hi))
            }
        };
        let mut lo_cell = cell.clone();
        let mut hi_cell = cell.clone();
        if axis == 0 {
            let mid = 0.5 * (cell.r_lo + cell.r_hi);
            lo_cell.r_hi = mid;
            hi_cell.r_lo = mid;
        } else {
            let (lo, hi) = cell.q[axis - 1];
            let mid = 0.5 * (lo + hi);
            lo_cell.q[axis - 1].1 = mid;
            hi_cell.q[axis - 1].0 = mid;
        }
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for p in idx {
            let (v, mid) = coordinate(&quant[p as usize]);
            if v >= mid {
                hi.push(p);
            } else {
                lo.push(p);
            }
        }
        let (va, _) = coordinate(&quant[a as usize]);
        let (vc, _) = coordinate(&quant[c as usize]);
        let (carrier_lo, carrier_hi) = if va <= vc { (a, c) } else { (c, a) };
        let next = (axis + 1) % axes;
        stack.push((lo_cell, next, ParentRef::Node(carrier_lo as usize), lo));
        stack.push((hi_cell, next, ParentRef::Node(carrier_hi as usize), hi));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Ball, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    #[test]
    fn sin_power_integral_known_values() {
        use core::f64::consts::PI;
        assert!((sin_power_integral(0, PI) - PI).abs() < 1e-12);
        assert!((sin_power_integral(1, PI) - 2.0).abs() < 1e-12);
        // ∫ sin² over [0, π] = π/2; ∫ sin³ = 4/3.
        assert!((sin_power_integral(2, PI) - PI / 2.0).abs() < 1e-12);
        assert!((sin_power_integral(3, PI) - 4.0 / 3.0).abs() < 1e-12);
        // Monotone in x.
        for m in 0..5 {
            assert!(sin_power_integral(m, 1.0) < sin_power_integral(m, 2.0));
        }
    }

    #[test]
    fn quantiles_are_uniform_for_uniform_directions() {
        // For points uniform in a ball, every angular quantile must be
        // uniform in [0,1): check first and second moments per axis.
        let mut rng = SmallRng::seed_from_u64(1);
        let pts = Ball::<4>::unit().sample_n(&mut rng, 20_000);
        let qs: Vec<QuantPoint> = pts.iter().map(to_quant).collect();
        for axis in 0..3 {
            let vals: Vec<f64> = qs.iter().map(|q| q.quant[axis]).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            assert!((mean - 0.5).abs() < 0.01, "axis {axis} mean {mean}");
            assert!((var - 1.0 / 12.0).abs() < 0.005, "axis {axis} var {var}");
        }
    }

    #[test]
    fn builds_valid_trees_in_dimension_4_and_5() {
        let mut rng = SmallRng::seed_from_u64(3);
        for n in [1usize, 5, 100, 2000] {
            let pts = Ball::<4>::unit().sample_n(&mut rng, n);
            let (tree, report) = NdGridBuilder::new()
                .build_with_report(Point::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(2)).unwrap();
            assert!(report.delay >= report.lower_bound - 1e-12);
        }
        let pts = Ball::<5>::unit().sample_n(&mut rng, 1000);
        let tree = NdGridBuilder::new().build(Point::ORIGIN, &pts).unwrap();
        tree.validate(Some(2)).unwrap();
    }

    #[test]
    fn two_dimensional_case_agrees_with_paper_structure() {
        // In D = 2 the quantile grid degenerates to the polar grid (one
        // uniform angular axis); sanity-check validity and quality.
        let mut rng = SmallRng::seed_from_u64(7);
        let pts = Ball::<2>::unit().sample_n(&mut rng, 3000);
        let (tree, report) = NdGridBuilder::new()
            .build_with_report(Point::ORIGIN, &pts)
            .unwrap();
        tree.validate(Some(2)).unwrap();
        assert!(report.delay < 2.0 * report.lower_bound);
        assert!(report.rings >= 4);
    }

    #[test]
    fn delay_converges_in_dimension_4() {
        let mut ratios = Vec::new();
        for (n, seed) in [(500usize, 1u64), (5000, 2), (50_000, 3)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let pts = Ball::<4>::unit().sample_n(&mut rng, n);
            let (_, report) = NdGridBuilder::new()
                .build_with_report(Point::ORIGIN, &pts)
                .unwrap();
            ratios.push(report.delay / report.lower_bound);
        }
        assert!(ratios[2] < ratios[0], "no convergence in 4-D: {ratios:?}");
    }

    #[test]
    fn errors_and_degenerates() {
        let pts = vec![Point::<4>::new([0.1, 0.2, 0.3, 0.4])];
        assert!(matches!(
            NdGridBuilder::new()
                .max_out_degree(1)
                .build(Point::ORIGIN, &pts),
            Err(BuildError::DegreeTooSmall { .. })
        ));
        let (tree, _) = NdGridBuilder::new()
            .build_with_report::<4>(Point::ORIGIN, &[])
            .unwrap();
        assert!(tree.is_empty());
        let dup = vec![Point::<4>::new([1.0, 0.0, 0.0, 0.0]); 20];
        let tree = NdGridBuilder::new().build(Point::ORIGIN, &dup).unwrap();
        assert_eq!(tree.len(), 20);
        tree.validate(Some(2)).unwrap();
        let all_source = vec![Point::<4>::ORIGIN; 10];
        let tree = NdGridBuilder::new()
            .build(Point::ORIGIN, &all_source)
            .unwrap();
        assert_eq!(tree.radius(), 0.0);
    }

    #[test]
    fn rings_override_nd() {
        let mut rng = SmallRng::seed_from_u64(9);
        let pts = Ball::<4>::unit().sample_n(&mut rng, 2000);
        let (_, auto) = NdGridBuilder::new()
            .build_with_report(Point::ORIGIN, &pts)
            .unwrap();
        assert!(auto.rings >= 1);
        let (tree, forced) = NdGridBuilder::new()
            .rings(auto.rings - 1)
            .build_with_report(Point::ORIGIN, &pts)
            .unwrap();
        assert_eq!(forced.rings, auto.rings - 1);
        tree.validate(Some(2)).unwrap();
        assert!(matches!(
            NdGridBuilder::new()
                .rings(auto.rings + 8)
                .build(Point::ORIGIN, &pts),
            Err(BuildError::InfeasibleRings { .. })
        ));
    }

    #[test]
    fn angular_path_prefix_property() {
        let q = QuantPoint {
            radius: 1.0,
            quant: vec![0.7, 0.3, 0.9],
        };
        // The path at level k must be a prefix of the path at level k+1
        // restricted to shared splits.
        let p6 = angular_path(&q, 6);
        let p3 = angular_path(&q, 3);
        assert_eq!(p6 >> 3, p3);
    }
}
