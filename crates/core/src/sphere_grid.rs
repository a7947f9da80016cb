//! The three-dimensional `Polar_Grid` (Section IV-B, evaluated in
//! Figure 8): spherical shells of equal volume, a binary core tree over
//! cell representatives, and 8-way bisection inside cells — out-degree 10
//! (2 core + 8 bisection links), or the degree-2 wiring.

use omt_geom::{Point3, PointStore3, SphericalPoint};
use omt_tree::{check_node_capacity, FinishStage, MulticastTree, NodeId, TreeArena, TreeError};

use crate::bisect3d::{attach3, bisect2_3d, bisect8, Scratch3, SphSlices};
use crate::error::BuildError;
use crate::fanout::fanout_sink;
use crate::grid3::SphereGrid3;
use crate::kselect::{
    bucket_cells, cell_count, cell_index, finest_level, select_rings, Assignments, CellMajor,
};
use crate::polar_grid::{PolarGridReport, RepStrategy, SOA_CHUNK};
use crate::sink::{unpack_parent, CellSink, RowArena, PACKED_SOURCE};

/// One deferred in-cell bisection, packed to 20 bytes (the 3-D analogue of
/// the 2-D `CellJob`): the job names its cell by `(ring, seg)` — the
/// [`ShellCell`](omt_geom::ShellCell) geometry is pure arithmetic,
/// re-derived from the grid at dispatch — its local root by a packed row
/// (`PACKED_SOURCE` = the source; the bisection offset `q` is always that
/// root's radius, 0 for the source), and its members by a window
/// `[start, end)` of the cell-major rows.
#[derive(Clone, Copy, Debug)]
struct CellJob3 {
    ring: u32,
    seg: u32,
    parent: NodeId,
    start: u32,
    end: u32,
}

/// Cell-major positions `s..e` as a kernel view.
fn window3(cells: &CellMajor<3>, s: usize, e: usize) -> SphSlices<'_> {
    SphSlices {
        radius: &cells.cols[0][s..e],
        azimuth: &cells.cols[1][s..e],
        cos_polar: &cells.cols[2][s..e],
    }
}

/// Runs the per-cell bisections (the 3-D analogue of the 2-D
/// `run_cell_jobs` in `crate::polar_grid`): every job reads its read-only
/// window of the cell-major columns, gathers the window's Cartesian points
/// from `coords` into the worker's scratch, permutes local positions
/// there, and writes its window's rows of the shared arena through a
/// [`CellSink`] — no edge buffers, no replay.
fn run_cell_jobs3(
    arena: &mut TreeArena<'_, 3>,
    cells: &CellMajor<3>,
    coords: [&[f64]; 3],
    grid: &SphereGrid3,
    jobs: &[CellJob3],
    binary: bool,
    threads: usize,
) -> Result<(), TreeError> {
    let shared: &TreeArena<'_, 3> = arena;
    let scratch = <(Scratch3, Vec<Point3>)>::default;
    let results = omt_par::par_map_with(jobs, threads, scratch, |(scratch, points), _, job| {
        let cell = grid.cell(job.ring, u64::from(job.seg));
        let q = if job.parent == PACKED_SOURCE {
            0.0
        } else {
            cells.cols[0][job.parent as usize]
        };
        let (s, e) = (job.start as usize, job.end as usize);
        let (mut sink, parent) =
            CellSink::gather(shared, &cells.ids, coords, (s, e), job.parent, points);
        if binary {
            bisect2_3d(&mut sink, window3(cells, s, e), s, cell, parent, q, scratch)
        } else {
            bisect8(&mut sink, window3(cells, s, e), s, cell, parent, q, scratch)
        }
        .map_err(Box::new)
    });
    results
        .into_iter()
        .collect::<Result<(), _>>()
        .map_err(|e| *e)?;
    arena.add_attached(jobs.iter().map(|j| (j.end - j.start) as usize).sum());
    Ok(())
}

/// Builder for the 3-D `Polar_Grid` algorithm over points in a ball.
///
/// Budgets of 10 and above use the degree-10 construction of the paper
/// (2 core links + 8 octant-bisection links per representative); budgets
/// 2–9 use the degree-2 wiring of Section IV-A with a binary in-cell
/// bisection.
///
/// # Examples
///
/// ```
/// use omt_core::SphereGridBuilder;
/// use omt_geom::{Ball, Point3, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SmallRng::seed_from_u64(5);
/// let hosts = Ball::<3>::unit().sample_n(&mut rng, 3000);
/// let (tree, report) = SphereGridBuilder::new()
///     .build_with_report(Point3::ORIGIN, &hosts)?;
/// tree.validate(Some(10))?;
/// assert!(report.delay >= report.lower_bound);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SphereGridBuilder {
    max_out_degree: u32,
    rings_override: Option<u32>,
    rep_strategy: RepStrategy,
    threads: Option<usize>,
}

impl Default for SphereGridBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SphereGridBuilder {
    /// Creates a builder with the paper's 3-D defaults: out-degree 10,
    /// automatic ring selection, inner-boundary-midpoint representatives.
    pub fn new() -> Self {
        Self {
            max_out_degree: 10,
            rings_override: None,
            rep_strategy: RepStrategy::InnerArcMid,
            threads: None,
        }
    }

    /// Sets the out-degree budget (≥ 10 → degree-10 construction,
    /// 2–9 → degree-2 wiring; < 2 fails at build time).
    #[must_use]
    pub fn max_out_degree(mut self, budget: u32) -> Self {
        self.max_out_degree = budget;
        self
    }

    /// Forces a specific number of rings. Fails at build time if the
    /// override is infeasible.
    #[must_use]
    pub fn rings(mut self, k: u32) -> Self {
        self.rings_override = Some(k);
        self
    }

    /// Overrides the representative selection rule (for ablations).
    #[must_use]
    pub fn representative_strategy(mut self, strategy: RepStrategy) -> Self {
        self.rep_strategy = strategy;
        self
    }

    /// Pins the worker-thread count for the chunked pre-passes and the
    /// per-cell bisection phase (`1` = sequential path; unset =
    /// `OMT_THREADS` / available parallelism). Builds of at most 65,536
    /// points run every pass inline whatever this is set to. Trees are
    /// bit-identical for every thread count; see
    /// [`PolarGridBuilder::threads`](crate::PolarGridBuilder::threads).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builds the multicast tree.
    ///
    /// # Errors
    ///
    /// See [`SphereGridBuilder::build_with_report`].
    pub fn build(&self, source: Point3, points: &[Point3]) -> Result<MulticastTree<3>, BuildError> {
        self.build_with_report(source, points).map(|(t, _)| t)
    }

    /// Builds the multicast tree and returns the diagnostics.
    ///
    /// The points are copied into a [`PointStore3`] relative to `source`
    /// and built by [`SphereGridBuilder::build_store_with_report`].
    ///
    /// The report's `bound` field is the 3-D analogue of equation (7):
    /// `ρ + c·D_0 + Σ_{i=1}^{k-1} D_i`, where `D_i` is the largest angular
    /// diameter of a ring-`i` cell and `c` is 2 (degree ≥ 10) or 4
    /// (degree-2 wiring).
    ///
    /// # Errors
    ///
    /// Same conditions, in the same order, as
    /// [`PolarGridBuilder::build_with_report`](crate::PolarGridBuilder::build_with_report),
    /// including [`BuildError::TooManyPoints`] for more than
    /// [`omt_tree::MAX_NODES`] points.
    pub fn build_with_report(
        &self,
        source: Point3,
        points: &[Point3],
    ) -> Result<(MulticastTree<3>, PolarGridReport), BuildError> {
        self.build_store_with_report(&PointStore3::from_points(source, points))
    }

    /// Builds the multicast tree from a structure-of-arrays point store
    /// (the million-scale path).
    ///
    /// # Errors
    ///
    /// See [`SphereGridBuilder::build_store_with_report`].
    pub fn build_store(&self, store: &PointStore3) -> Result<MulticastTree<3>, BuildError> {
        self.build_store_with_report(store).map(|(t, _)| t)
    }

    /// Builds the multicast tree from a structure-of-arrays point store and
    /// returns the diagnostics.
    ///
    /// The 3-D analogue of
    /// [`PolarGridBuilder::build_store_with_report`](crate::PolarGridBuilder::build_store_with_report)
    /// and the one 3-D construction path: arena tree construction over the
    /// store's borrowed coordinate columns, counting-sort cell partition,
    /// in-place window bisections. The tree is bit-identical for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SphereGridBuilder::build_with_report`], in the
    /// same order.
    ///
    /// # Examples
    ///
    /// ```
    /// use omt_core::SphereGridBuilder;
    /// use omt_geom::{Ball, Point3, PointStore3, Region};
    /// use omt_rng::rngs::SmallRng;
    /// use omt_rng::SeedableRng;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = SmallRng::seed_from_u64(5);
    /// let store =
    ///     PointStore3::sample_region(Point3::ORIGIN, &Ball::<3>::unit(), &mut rng, 3000);
    /// let (tree, report) = SphereGridBuilder::new().build_store_with_report(&store)?;
    /// tree.validate(Some(10))?;
    /// assert!(report.delay <= report.bound);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build_store_with_report(
        &self,
        store: &PointStore3,
    ) -> Result<(MulticastTree<3>, PolarGridReport), BuildError> {
        if self.max_out_degree < 2 {
            return Err(BuildError::DegreeTooSmall {
                got: self.max_out_degree,
                min: 2,
            });
        }
        if !store.source().is_finite() {
            return Err(BuildError::NonFiniteSource);
        }
        let n = store.len();
        check_node_capacity(n).map_err(|_| BuildError::TooManyPoints {
            nodes: n,
            max: omt_tree::MAX_NODES,
        })?;
        let threads = if n <= SOA_CHUNK {
            1
        } else {
            omt_par::resolve_threads(self.threads)
        };
        self.build_on(store, threads)
    }

    /// The build after the argument checks, on `threads` workers.
    fn build_on(
        &self,
        store: &PointStore3,
        threads: usize,
    ) -> Result<(MulticastTree<3>, PolarGridReport), BuildError> {
        let source = store.source();
        let n = store.len();
        let (xs, ys, zs) = (store.xs(), store.ys(), store.zs());
        let sph = SphSlices::of(store);
        let _build_span = omt_obs::obs_span!("sphere_grid/build");
        let partition_span = omt_obs::obs_span!("sphere_grid/partition");
        // Finiteness scan and lower bound in one chunked pass (see the 2-D
        // builder): the first `Some` in chunk order is the global first
        // offending index, and the chunk maxima fold bit-identically to
        // the flat fold.
        let bound_span = omt_obs::obs_span!("sphere_grid/partition/bound");
        let chunk_starts: Vec<usize> = (0..n).step_by(SOA_CHUNK).collect();
        let per_chunk = omt_par::par_map_indexed(&chunk_starts, threads, |_, &s| {
            let e = (s + SOA_CHUNK).min(n);
            let bad =
                (s..e).find(|&i| !(xs[i].is_finite() && ys[i].is_finite() && zs[i].is_finite()));
            (bad, sph.radius[s..e].iter().copied().fold(0.0, f64::max))
        });
        if let Some(bad) = per_chunk.iter().find_map(|c| c.0) {
            return Err(BuildError::NonFinitePoint { index: bad });
        }
        let lower_bound = per_chunk.iter().map(|c| c.1).fold(0.0, f64::max);
        drop(bound_span);
        omt_obs::obs_count!("sphere_grid/builds");
        let coords = [xs, ys, zs];
        if n == 0 {
            let arena = TreeArena::new(source, coords).max_out_degree(self.max_out_degree);
            let tree = arena.into_tree(Vec::new())?;
            return Ok((tree, trivial_report(0)));
        }
        if lower_bound == 0.0 {
            // Every point coincides with the source: rows are point ids.
            let mut arena = TreeArena::new(source, coords).max_out_degree(self.max_out_degree);
            let ids: Vec<u32> = (0..n as u32).collect();
            fanout_sink(
                &mut RowArena {
                    arena: &mut arena,
                    ids: &ids,
                    coords,
                },
                n,
                self.max_out_degree,
            )?;
            let tree = arena.into_tree(ids)?;
            let mut report = trivial_report(1);
            report.occupied_cells = 1;
            return Ok((tree, report));
        }
        let rho = lower_bound * (1.0 + 1e-9);

        // Finest-level assignment, batched over disjoint column chunks: a
        // ring locate guessed from exponent bits and a loop-free angular
        // path per point.
        let bin_span = omt_obs::obs_span!("sphere_grid/partition/bin");
        let k_max = finest_level(n);
        let finest = SphereGrid3::new(k_max, rho);
        let mut assignments = Assignments::zeroed(k_max, n);
        {
            let (ring, path) = assignments.columns_mut();
            let mut chunks: Vec<(usize, &mut [u32], &mut [u32])> = ring
                .chunks_mut(SOA_CHUNK)
                .zip(path.chunks_mut(SOA_CHUNK))
                .enumerate()
                .map(|(ci, (r, p))| (ci * SOA_CHUNK, r, p))
                .collect();
            omt_par::par_map_indexed_mut(&mut chunks, threads, |_, (base, rc, pc)| {
                for j in 0..rc.len() {
                    let i = *base + j;
                    rc[j] = finest.ring_of_radius(sph.radius[i]);
                    pc[j] = finest.angular_path(&sph.get(i as u32)) as u32;
                }
            });
        }
        drop(bin_span);
        let select_span = omt_obs::obs_span!("sphere_grid/partition/select");
        let k_auto = select_rings(&assignments);
        drop(select_span);
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
        let grid = SphereGrid3::new(k, rho);
        let deg10 = self.max_out_degree >= 10;

        // Bucket points per cell (counting sort). The sort consumes the
        // assignments and frees them before the cell-major columns and the
        // arena's rows are allocated, keeping them out of the peak-RSS
        // window.
        let bucket_span = omt_obs::obs_span!("sphere_grid/partition/bucket");
        let cells = cell_count(k);
        let (counts, members) = bucket_cells(assignments, k, threads);
        let cell_range = |c: usize| (counts[c] as usize, counts[c + 1] as usize);
        let occupied_cells = (0..cells).filter(|&c| counts[c] != counts[c + 1]).count();
        omt_obs::obs_observe!("sphere_grid/occupied_cells", occupied_cells as u64);
        drop(bucket_span);

        // The spherical columns in member order: every cell is one
        // contiguous window, read by local position, and the arena's rows
        // are these positions (see the 2-D builder).
        let gather_span = omt_obs::obs_span!("sphere_grid/partition/gather");
        let mut cm = CellMajor::gather(members, [sph.radius, sph.azimuth, sph.cos_polar], threads);
        drop(gather_span);
        drop(partition_span);

        // Representative pre-pass (see `crate::polar_grid`): one Cartesian
        // conversion and one distance per window member
        // (`SphSlices::nearest`). Picks depend only on the un-permuted
        // window contents, so they run in parallel up front, each returning
        // the rep's local position, and the sequential core pass consumes
        // them via a cursor.
        let rep_span = omt_obs::obs_span!("sphere_grid/reps");
        let occupied_list: Vec<(u32, u32)> = (1..=k)
            .flat_map(|ring| (0..(1u64 << ring)).map(move |seg| (ring, seg as u32)))
            .filter(|&(ring, seg)| {
                let c = cell_index(ring, u64::from(seg));
                counts[c] != counts[c + 1]
            })
            .collect();
        let reps: Vec<u32> =
            omt_par::par_map_indexed(&occupied_list, threads, |_, &(ring, seg)| {
                let (cs, ce) = cell_range(cell_index(ring, u64::from(seg)));
                pick_rep(
                    self.rep_strategy,
                    window3(&cm, cs, ce),
                    inner_arc_mid(&grid, ring, u64::from(seg)),
                )
            });
        drop(occupied_list);
        drop(rep_span);

        // The core pass moves every point it wires to its final row before
        // attaching it (see the 2-D builder).
        // The arena's rows are written first by the core pass, which owns
        // their allocation.
        let core_span = omt_obs::obs_span!("sphere_grid/core");
        let mut arena = TreeArena::new(source, coords).max_out_degree(self.max_out_degree);
        let mut core_delay = 0.0f64;
        let mut jobs: Vec<CellJob3> = Vec::with_capacity(reps.len() + 1);
        let mut next_rep = reps.iter().copied();
        let mut place_rep = |arena: &mut TreeArena<'_, 3>,
                             cm: &mut CellMajor<3>,
                             (cs, ce): (usize, usize),
                             parent: NodeId|
         -> Result<usize, TreeError> {
            let pos = cs + next_rep.next().expect("one pre-picked rep per cell") as usize;
            cm.rotate_to_back(pos, ce);
            let row = ce - 1;
            let ids = &cm.ids;
            attach3(
                &mut RowArena { arena, ids, coords },
                row,
                unpack_parent(parent),
            )?;
            core_delay = core_delay.max(arena.depth_of(row).expect("just attached"));
            Ok(row)
        };
        if deg10 {
            let mut rep_ref: Vec<NodeId> = vec![PACKED_SOURCE; cells];
            jobs.push(CellJob3 {
                ring: 0,
                seg: 0,
                parent: PACKED_SOURCE,
                start: counts[0],
                end: counts[1],
            });
            for ring in 1..=k {
                for seg in 0..(1u64 << ring) {
                    let c = cell_index(ring, seg);
                    let (cs, ce) = cell_range(c);
                    if cs == ce {
                        continue;
                    }
                    let (pr, ps) = grid.parent(ring, seg).expect("ring >= 1 has a parent");
                    let parent = rep_ref[cell_index(pr, ps)];
                    let rep = place_rep(&mut arena, &mut cm, (cs, ce), parent)?;
                    rep_ref[c] = rep as NodeId;
                    jobs.push(CellJob3 {
                        ring,
                        seg: seg as u32,
                        parent: rep as NodeId,
                        start: cs as u32,
                        end: rep as u32,
                    });
                }
            }
            drop(rep_ref);
        } else {
            let mut connector: Vec<NodeId> = vec![PACKED_SOURCE; cells];
            {
                let nonempty = |c: usize| counts[c] != counts[c + 1];
                let has_core_children =
                    k >= 1 && (nonempty(cell_index(1, 0)) || nonempty(cell_index(1, 1)));
                let (conn, job) = wire_cell_deg2_3d(
                    &mut arena,
                    &mut cm,
                    coords,
                    (0, 0),
                    cell_range(0),
                    None,
                    has_core_children,
                )?;
                connector[0] = conn;
                jobs.extend(job);
            }
            for ring in 1..=k {
                for seg in 0..(1u64 << ring) {
                    let c = cell_index(ring, seg);
                    let (cs, ce) = cell_range(c);
                    if cs == ce {
                        continue;
                    }
                    let (pr, ps) = grid.parent(ring, seg).expect("ring >= 1 has a parent");
                    let parent = connector[cell_index(pr, ps)];
                    let rep = place_rep(&mut arena, &mut cm, (cs, ce), parent)?;
                    let has_core_children = match grid.children(ring, seg) {
                        None => false,
                        Some(kids) => kids.iter().any(|&(r, s)| {
                            let cc = cell_index(r, s);
                            counts[cc] != counts[cc + 1]
                        }),
                    };
                    let (conn, job) = wire_cell_deg2_3d(
                        &mut arena,
                        &mut cm,
                        coords,
                        (ring, seg as u32),
                        (cs, rep),
                        Some(rep),
                        has_core_children,
                    )?;
                    connector[c] = conn;
                    jobs.extend(job);
                }
            }
            drop(connector);
        }
        drop(core_span);
        debug_assert!(next_rep.next().is_none(), "every pre-picked rep consumed");
        drop(reps);
        drop(counts);

        {
            let _cells_span = omt_obs::obs_span!("sphere_grid/cells");
            run_cell_jobs3(&mut arena, &cm, coords, &grid, &jobs, !deg10, threads)?;
            drop(jobs);
        }

        let _finish_span = omt_obs::obs_span!("sphere_grid/finish");
        let CellMajor { ids: order, cols } = cm;
        drop(cols);
        let tree = arena.into_tree_staged(order, threads, |stage| {
            omt_obs::obs_span!(match stage {
                FinishStage::Permute => "sphere_grid/finish/permute",
                FinishStage::Points => "sphere_grid/finish/points",
                FinishStage::Csr => "sphere_grid/finish/csr",
            })
        })?;
        let delay = tree.radius();
        let c = if deg10 { 2.0 } else { 4.0 };
        let mut bound = rho + c * grid.max_angular_diameter(0);
        for i in 1..k {
            bound += grid.max_angular_diameter(i);
        }
        let report = PolarGridReport {
            rings: k,
            delay,
            core_delay,
            bound,
            lower_bound,
            cells,
            occupied_cells,
        };
        Ok((tree, report))
    }
}

fn trivial_report(occupied: usize) -> PolarGridReport {
    PolarGridReport {
        rings: 0,
        delay: 0.0,
        core_delay: 0.0,
        bound: 0.0,
        lower_bound: 0.0,
        cells: 1,
        occupied_cells: occupied,
    }
}

/// Midpoint of a cell's inner boundary (minimum radius, central angles),
/// in the source-relative frame.
fn inner_arc_mid(grid: &SphereGrid3, ring: u32, seg: u64) -> Point3 {
    let cell = grid.cell(ring, seg);
    let (z_lo, z_hi) = cell.z_range();
    SphericalPoint::new(cell.r_lo(), cell.arc().mid(), 0.5 * (z_lo + z_hi)).to_cartesian()
}

/// Chooses the representative of a non-empty cell and returns its local
/// position in the cell's window `win`; `inner_mid` is the midpoint of the
/// cell's inner boundary in the source-relative frame. The first minimum
/// wins ties, and for `MaxRadius` the last maximum.
fn pick_rep(strategy: RepStrategy, win: SphSlices<'_>, inner_mid: Point3) -> u32 {
    let len = win.radius.len() as u32;
    debug_assert!(len > 0);
    match strategy {
        RepStrategy::InnerArcMid => win.nearest(inner_mid),
        RepStrategy::MinRadius => (0..len)
            .min_by(|&a, &b| win.radius_of(a).total_cmp(&win.radius_of(b)))
            .expect("nonempty"),
        RepStrategy::MaxRadius => (0..len)
            .max_by(|&a, &b| win.radius_of(a).total_cmp(&win.radius_of(b)))
            .expect("nonempty"),
        RepStrategy::First => 0,
    }
}

/// Degree-2 in-cell wiring (the 3-D analogue of the 2-D
/// `wire_cell_deg2`), in place on the cell's window `[cs, end)` of the
/// cell-major rows: returns the cell's connector row and the deferred
/// in-cell bisection job, if any. `rep` is the attached representative's
/// row, already moved out of the window, or `None` for the inner disk.
fn wire_cell_deg2_3d(
    arena: &mut TreeArena<'_, 3>,
    cm: &mut CellMajor<3>,
    coords: [&[f64]; 3],
    (ring, seg): (u32, u32),
    (cs, mut end): (usize, usize),
    rep: Option<usize>,
    has_core_children: bool,
) -> Result<(NodeId, Option<CellJob3>), BuildError> {
    // The representative's packed row and coordinates; the source sits at
    // the pole.
    let rep_ref = rep.map_or(PACKED_SOURCE, |r| r as NodeId);
    let rep_sph = rep.map(|r| SphericalPoint {
        radius: cm.cols[0][r],
        azimuth: cm.cols[1][r],
        cos_polar: cm.cols[2][r],
    });
    let rep_radius = rep_sph.map_or(0.0, |p| p.radius);
    let mut attach_last = |cm: &CellMajor<3>, row: usize| {
        let ids = &cm.ids;
        attach3(
            &mut RowArena {
                arena: &mut *arena,
                ids,
                coords,
            },
            row,
            unpack_parent(rep_ref),
        )
    };
    match end - cs {
        0 => Ok((rep_ref, None)),
        1 => {
            attach_last(cm, cs)?;
            Ok((cs as NodeId, None))
        }
        _ => {
            let connector = if has_core_children {
                // Nearest point to the representative (see the 2-D wiring
                // for the rationale: the extra hop stays local).
                let rep_pos = rep_sph.map_or(Point3::ORIGIN, |p| p.to_cartesian());
                let pos = window3(cm, cs, end).nearest(rep_pos);
                cm.swap(cs + pos as usize, end - 1);
                end -= 1;
                attach_last(cm, end)?;
                Some(end as NodeId)
            } else {
                None
            };
            let mut job = None;
            if end > cs {
                let win = window3(cm, cs, end);
                let pos = (0..(end - cs) as u32)
                    .min_by(|&a, &b| {
                        (win.radius_of(a) - rep_radius)
                            .abs()
                            .total_cmp(&(win.radius_of(b) - rep_radius).abs())
                    })
                    .expect("nonempty");
                cm.swap(cs + pos as usize, end - 1);
                end -= 1;
                attach_last(cm, end)?;
                job = Some(CellJob3 {
                    ring,
                    seg,
                    parent: end as NodeId,
                    start: cs as u32,
                    end: end as u32,
                });
            }
            Ok((connector.unwrap_or(rep_ref), job))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Ball, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    fn ball_points(n: usize, seed: u64) -> Vec<Point3> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Ball::<3>::unit().sample_n(&mut rng, n)
    }

    #[test]
    fn degree10_tree_is_valid_and_within_bounds() {
        for n in [1usize, 2, 10, 100, 3000] {
            let pts = ball_points(n, n as u64);
            let (tree, report) = SphereGridBuilder::new()
                .build_with_report(Point3::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(10)).unwrap();
            assert!(
                report.delay <= report.bound + 1e-9,
                "n={n}: delay {} > bound {}",
                report.delay,
                report.bound
            );
            assert!(report.delay >= report.lower_bound - 1e-12);
        }
    }

    #[test]
    fn degree2_tree_is_valid() {
        for n in [1usize, 3, 50, 1500] {
            let pts = ball_points(n, 31 + n as u64);
            let (tree, report) = SphereGridBuilder::new()
                .max_out_degree(2)
                .build_with_report(Point3::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(2)).unwrap();
            assert!(report.delay <= report.bound + 1e-9);
        }
    }

    #[test]
    fn delay_converges_toward_lower_bound() {
        let mut ratios = Vec::new();
        for (n, seed) in [(200usize, 1u64), (2000, 2), (20_000, 3)] {
            let pts = ball_points(n, seed);
            let (_, report) = SphereGridBuilder::new()
                .build_with_report(Point3::ORIGIN, &pts)
                .unwrap();
            ratios.push(report.delay / report.lower_bound);
        }
        // Convergence in 3-D is markedly slower than in 2-D (the paper's
        // Figure 8 observation); require monotone improvement and a sane
        // absolute level at n = 20k.
        assert!(ratios[0] > ratios[1] && ratios[1] > ratios[2], "{ratios:?}");
        assert!(ratios[2] < 2.5, "{ratios:?}");
    }

    #[test]
    fn three_d_converges_slower_than_two_d() {
        // Figure 8's observation: at equal n, the 3-D delay exceeds the
        // 2-D delay because points are sparser per unit volume.
        use crate::polar_grid::PolarGridBuilder;
        use omt_geom::{Disk, Point2};
        let n = 5000;
        let mut rng = SmallRng::seed_from_u64(4);
        let pts2 = Disk::unit().sample_n(&mut rng, n);
        let (_, r2) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &pts2)
            .unwrap();
        let pts3 = ball_points(n, 4);
        let (_, r3) = SphereGridBuilder::new()
            .build_with_report(Point3::ORIGIN, &pts3)
            .unwrap();
        assert!(
            r3.delay / r3.lower_bound > r2.delay / r2.lower_bound,
            "3-D {} vs 2-D {}",
            r3.delay / r3.lower_bound,
            r2.delay / r2.lower_bound
        );
    }

    #[test]
    fn intermediate_budgets_use_degree2_wiring() {
        let pts = ball_points(500, 9);
        for deg in [2u32, 5, 9] {
            let tree = SphereGridBuilder::new()
                .max_out_degree(deg)
                .build(Point3::ORIGIN, &pts)
                .unwrap();
            assert!(tree.max_out_degree() <= 2);
            tree.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn offset_source_and_errors() {
        let pts = ball_points(2000, 11);
        let source = Point3::new([0.3, -0.2, 0.1]);
        let (tree, report) = SphereGridBuilder::new()
            .build_with_report(source, &pts)
            .unwrap();
        tree.validate(Some(10)).unwrap();
        assert!(report.delay <= report.bound + 1e-9);

        assert!(matches!(
            SphereGridBuilder::new()
                .max_out_degree(1)
                .build(Point3::ORIGIN, &pts),
            Err(BuildError::DegreeTooSmall { .. })
        ));
        assert!(matches!(
            SphereGridBuilder::new().build(Point3::new([f64::NAN, 0.0, 0.0]), &pts),
            Err(BuildError::NonFiniteSource)
        ));
    }

    #[test]
    fn degenerate_inputs() {
        let (tree, _) = SphereGridBuilder::new()
            .build_with_report(Point3::ORIGIN, &[])
            .unwrap();
        assert!(tree.is_empty());
        let pts = vec![Point3::new([1.0, 1.0, 1.0]); 30];
        let (tree, report) = SphereGridBuilder::new()
            .max_out_degree(2)
            .build_with_report(Point3::new([1.0, 1.0, 1.0]), &pts)
            .unwrap();
        assert_eq!(tree.radius(), 0.0);
        assert_eq!(report.delay, 0.0);
        tree.validate(Some(2)).unwrap();
    }

    /// The 3-D analogue of the 2-D `threaded_passes_match_inline_at_10k`:
    /// `run_cell_jobs3` and the pre-passes at 2 and 4 threads give the
    /// inline tree, for both bisection kernels.
    #[test]
    fn threaded_passes_match_inline_at_10k() {
        let store = PointStore3::from_points(Point3::ORIGIN, &ball_points(10_000, 2004));
        for deg in [2, 10] {
            let builder = SphereGridBuilder::new().max_out_degree(deg);
            let (inline, inline_report) = builder.build_on(&store, 1).unwrap();
            for threads in [2, 4] {
                let (tree, report) = builder.build_on(&store, threads).unwrap();
                assert_eq!(tree, inline, "deg {deg} threads {threads}");
                assert_eq!(tree.radius().to_bits(), inline.radius().to_bits());
                assert_eq!(report, inline_report);
            }
        }
    }

    #[test]
    fn rings_override_3d() {
        let pts = ball_points(1000, 14);
        let (_, auto) = SphereGridBuilder::new()
            .build_with_report(Point3::ORIGIN, &pts)
            .unwrap();
        assert!(auto.rings >= 1);
        let (tree, forced) = SphereGridBuilder::new()
            .rings(auto.rings - 1)
            .build_with_report(Point3::ORIGIN, &pts)
            .unwrap();
        assert_eq!(forced.rings, auto.rings - 1);
        tree.validate(Some(10)).unwrap();
        assert!(matches!(
            SphereGridBuilder::new()
                .rings(auto.rings + 6)
                .build(Point3::ORIGIN, &pts),
            Err(BuildError::InfeasibleRings { .. })
        ));
    }
}
