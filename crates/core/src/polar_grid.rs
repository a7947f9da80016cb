//! Algorithm `Polar_Grid` (Section III of the paper): the asymptotically
//! optimal construction.
//!
//! The algorithm proceeds in three stages:
//!
//! 1. build an equal-area polar grid over the smallest disk centered at the
//!    source that covers all points, choosing the number of rings `k` as
//!    large as possible such that every *active* non-outermost cell is
//!    occupied (see [`crate::kselect`]);
//! 2. connect cell representatives in a binary core tree rooted at the
//!    source — each representative adopts the representatives of the two
//!    aligned cells on the next ring;
//! 3. connect the remaining points inside each cell with the bisection
//!    algorithm.
//!
//! With the 4-way bisection this yields out-degree ≤ 6 (2 core links +
//! 4 bisection links per representative); the out-degree-2 wiring of
//! Section IV-A threads the core through two designated in-cell points
//! instead. Because the source is the grid pole, the construction also
//! handles arbitrary convex regions with any interior source placement
//! (Section IV-C): the covering disk is built around the source, and the
//! active-cell rule tolerates the empty cells outside the region.

use omt_geom::{Point2, PointStore2, PolarPoint};
use omt_tree::{check_node_capacity, FinishStage, MulticastTree, NodeId, TreeArena, TreeError};

use crate::bisect2d::{attach, bisect2, bisect4, PolarSlices, Scratch2};
use crate::bounds::upper_bound_eq7;
use crate::error::BuildError;
use crate::fanout::fanout_sink;
use crate::grid2::PolarGrid2;
use crate::kselect::{
    bucket_cells, cell_count, cell_index, finest_level, select_rings, Assignments, CellMajor,
};
use crate::sink::{unpack_parent, CellSink, RowArena, PACKED_SOURCE};

/// Chunk length for the batched column pre-passes (finiteness scan, lower
/// bound, polar-column ring/path binning, cell-major gather): large enough
/// to amortize the dispatch, small enough to load-balance on skewed
/// machines. A build of at most this many points runs every pass inline on
/// the calling thread.
pub(crate) const SOA_CHUNK: usize = 1 << 16;

/// One deferred in-cell bisection, packed to 20 bytes, captured in
/// deterministic cell order during core wiring. The job names its cell by
/// `(ring, seg)` (the [`RingSegment`](omt_geom::RingSegment) geometry is
/// pure arithmetic, re-derived from the grid at dispatch), its local root
/// by a packed row (`PACKED_SOURCE` = the source; the bisection offset `q`
/// is always that root's radius, 0 for the source), and its members by a
/// window `[start, end)` of the cell-major rows produced by the
/// counting-sort partition. `Copy`, so the parallel path can hand jobs to
/// workers without cloning index lists.
#[derive(Clone, Copy, Debug)]
struct CellJob {
    ring: u32,
    seg: u32,
    parent: NodeId,
    start: u32,
    end: u32,
}

/// Cell-major positions `s..e` as a kernel view.
fn window(cells: &CellMajor<2>, s: usize, e: usize) -> PolarSlices<'_> {
    PolarSlices {
        radius: &cells.cols[0][s..e],
        angle: &cells.cols[1][s..e],
    }
}

/// Runs the per-cell bisections. Every job reads its window of the
/// cell-major polar columns, which are read-only here, gathers the
/// window's Cartesian points from `coords` (by point id) into the worker's
/// scratch, and its bisection permutes local positions in that scratch.
/// Each worker writes **directly** into its window's rows of the shared
/// arena through a [`CellSink`]: no per-job edge buffers, no sequential
/// replay. With `threads <= 1` the jobs run inline, in order, with one
/// scratch. The edge set (and therefore the finished tree) is the same for
/// every thread count, because each attachment is a pure function of the
/// job and the read-only columns.
fn run_cell_jobs(
    arena: &mut TreeArena<'_, 2>,
    cells: &CellMajor<2>,
    coords: [&[f64]; 2],
    grid: &PolarGrid2,
    jobs: &[CellJob],
    binary: bool,
    threads: usize,
) -> Result<(), TreeError> {
    let shared: &TreeArena<'_, 2> = arena;
    let scratch = <(Scratch2, Vec<Point2>)>::default;
    let results = omt_par::par_map_with(jobs, threads, scratch, |(scratch, points), _, job| {
        // Unpack the 20-byte job: cell geometry from pure grid arithmetic,
        // and the bisection offset `q` as the local root's cell-major
        // radius (0 at the source) — exactly the values the core pass
        // computed when it emitted the job.
        let seg = grid.segment(job.ring, u64::from(job.seg));
        let q = if job.parent == PACKED_SOURCE {
            0.0
        } else {
            cells.cols[0][job.parent as usize]
        };
        let (s, e) = (job.start as usize, job.end as usize);
        let (mut sink, parent) =
            CellSink::gather(shared, &cells.ids, coords, (s, e), job.parent, points);
        if binary {
            bisect2(&mut sink, window(cells, s, e), s, seg, parent, q, scratch)
        } else {
            bisect4(&mut sink, window(cells, s, e), s, seg, parent, q, scratch)
        }
        // One result per job is held until the join, at the fill's peak
        // RSS: a boxed error keeps each to one word.
        .map_err(Box::new)
    });
    results
        .into_iter()
        .collect::<Result<(), _>>()
        .map_err(|e| *e)?;
    // Every window member was attached exactly once by its job; fold the
    // statically known total into the arena's counter (the shared attach
    // methods leave it alone so the fill stays coordination-free).
    arena.add_attached(jobs.iter().map(|j| (j.end - j.start) as usize).sum());
    Ok(())
}

/// How a cell representative is chosen — the paper uses the point closest
/// to the disk center ("on the inner arc of the segment"); the alternatives
/// exist for the ablation experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepStrategy {
    /// The point closest to the midpoint of the cell's inner arc — the
    /// paper's rule read literally ("closest to the center on the inner
    /// arc of the segment"): minimal radius *and* central angle.
    #[default]
    InnerArcMid,
    /// The point with minimal radius (the reading the paper's analysis
    /// uses: "we pick the least-radius point").
    MinRadius,
    /// The point with maximal radius (ablation: pessimal-ish choice).
    MaxRadius,
    /// The first point in input order (ablation: arbitrary choice).
    First,
}

/// Diagnostics of a [`PolarGridBuilder`] run, matching the columns of
/// Table I in the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct PolarGridReport {
    /// The number of grid rings `k` ("Rings").
    pub rings: u32,
    /// The longest source-to-receiver delay in the tree ("Delay").
    pub delay: f64,
    /// The longest source-to-representative portion of any path ("Core").
    pub core_delay: f64,
    /// The analytic upper bound of equation (7) at `j = 0` ("Bound").
    pub bound: f64,
    /// The trivial lower bound on the optimum: the largest direct
    /// source-to-point distance (approaches the disk radius).
    pub lower_bound: f64,
    /// Total number of grid cells, `2^(k+1) - 1`.
    pub cells: usize,
    /// Number of cells containing at least one point.
    pub occupied_cells: usize,
}

/// Builder for the `Polar_Grid` algorithm.
///
/// # Examples
///
/// ```
/// use omt_core::PolarGridBuilder;
/// use omt_geom::{Disk, Point2, Region};
/// use omt_rng::rngs::SmallRng;
/// use omt_rng::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = SmallRng::seed_from_u64(5);
/// let points = Disk::unit().sample_n(&mut rng, 2000);
/// let (tree, report) = PolarGridBuilder::new()
///     .max_out_degree(6)
///     .build_with_report(Point2::ORIGIN, &points)?;
/// tree.validate(Some(6))?;
/// assert!(report.delay <= report.bound);
/// assert!(report.delay >= report.lower_bound);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolarGridBuilder {
    max_out_degree: u32,
    rings_override: Option<u32>,
    rep_strategy: RepStrategy,
    threads: Option<usize>,
}

impl Default for PolarGridBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PolarGridBuilder {
    /// Creates a builder with the paper's defaults: out-degree 6,
    /// automatic ring selection, inner-arc-midpoint representatives.
    pub fn new() -> Self {
        Self {
            max_out_degree: 6,
            rings_override: None,
            rep_strategy: RepStrategy::InnerArcMid,
            threads: None,
        }
    }

    /// Sets the out-degree budget. Budgets of 6 and above use the
    /// degree-6 construction (Section III); budgets 2–5 use the
    /// degree-2 wiring (Section IV-A). Budgets below 2 fail at build time.
    #[must_use]
    pub fn max_out_degree(mut self, budget: u32) -> Self {
        self.max_out_degree = budget;
        self
    }

    /// Forces a specific number of rings instead of the automatic maximal
    /// feasible choice. Fails at build time if infeasible.
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
    /// per-cell bisection phase.
    ///
    /// `1` forces the sequential path (no threads are spawned). Unset, the
    /// builder follows `OMT_THREADS` / the machine's available parallelism.
    /// Builds of at most 65,536 points (one pre-pass chunk) run every pass
    /// inline on the calling thread whatever this is set to: at that size
    /// spawning workers costs more than it saves. The constructed tree is
    /// **bit-identical for every thread count** — cells are independent and
    /// results join in deterministic cell order — so this knob only affects
    /// wall-clock, never results.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builds the multicast tree.
    ///
    /// # Errors
    ///
    /// See [`PolarGridBuilder::build_with_report`].
    pub fn build(&self, source: Point2, points: &[Point2]) -> Result<MulticastTree<2>, BuildError> {
        self.build_with_report(source, points).map(|(t, _)| t)
    }

    /// Builds the multicast tree and returns the Table-I diagnostics.
    ///
    /// The points are copied into a [`PointStore2`] relative to `source`
    /// and built by [`PolarGridBuilder::build_store_with_report`].
    ///
    /// # Errors
    ///
    /// In the order they are checked:
    ///
    /// * [`BuildError::DegreeTooSmall`] for out-degree budgets below 2;
    /// * [`BuildError::NonFiniteSource`] for a NaN or infinite source;
    /// * [`BuildError::TooManyPoints`] for more than
    ///   [`omt_tree::MAX_NODES`] points;
    /// * [`BuildError::NonFinitePoint`] for the first NaN or infinite
    ///   point;
    /// * [`BuildError::InfeasibleRings`] if a [`PolarGridBuilder::rings`]
    ///   override cannot keep every active interior cell occupied.
    pub fn build_with_report(
        &self,
        source: Point2,
        points: &[Point2],
    ) -> Result<(MulticastTree<2>, PolarGridReport), BuildError> {
        self.build_store_with_report(&PointStore2::from_points(source, points))
    }

    /// Builds the multicast tree from a structure-of-arrays point store
    /// (the million-scale path).
    ///
    /// # Errors
    ///
    /// See [`PolarGridBuilder::build_store_with_report`].
    pub fn build_store(&self, store: &PointStore2) -> Result<MulticastTree<2>, BuildError> {
        self.build_store_with_report(store).map(|(t, _)| t)
    }

    /// Builds the multicast tree from a structure-of-arrays point store and
    /// returns the Table-I diagnostics.
    ///
    /// This is the one construction path; the slice builders wrap it. The
    /// store's coordinate columns are borrowed by an arena builder
    /// ([`omt_tree::TreeArena`] — preallocated flat arrays, no per-node
    /// allocation), the cells are partitioned by a counting sort, and the
    /// per-cell bisections run in place on windows of the flat member
    /// array with explicit work stacks. The tree is bit-identical for
    /// every thread count; `tests/construction_golden.rs` pins it.
    ///
    /// # Errors
    ///
    /// The same conditions as [`PolarGridBuilder::build_with_report`], in
    /// the same order.
    ///
    /// # Examples
    ///
    /// ```
    /// use omt_core::PolarGridBuilder;
    /// use omt_geom::{Disk, Point2, PointStore2, Region};
    /// use omt_rng::rngs::SmallRng;
    /// use omt_rng::SeedableRng;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = SmallRng::seed_from_u64(5);
    /// let store = PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, 2000);
    /// let (tree, report) = PolarGridBuilder::new()
    ///     .max_out_degree(6)
    ///     .build_store_with_report(&store)?;
    /// tree.validate(Some(6))?;
    /// assert!(report.delay <= report.bound);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build_store_with_report(
        &self,
        store: &PointStore2,
    ) -> Result<(MulticastTree<2>, PolarGridReport), BuildError> {
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
        store: &PointStore2,
        threads: usize,
    ) -> Result<(MulticastTree<2>, PolarGridReport), BuildError> {
        let source = store.source();
        let n = store.len();
        let (xs, ys) = (store.xs(), store.ys());
        let coords = [xs, ys];
        // The store's polar columns are the precomputed source-relative
        // coordinates, indexed by point id.
        let (radius, angle) = (store.radius(), store.angle());
        let _build_span = omt_obs::obs_span!("polar_grid/build");
        let partition_span = omt_obs::obs_span!("polar_grid/partition");

        // Finiteness scan and lower bound in one chunked pass. Each chunk
        // reports its first offending index (the first `Some` in chunk
        // order is the global first, as a sequential scan finds it) and its
        // largest radius; `f64::max` is associative over the finite,
        // non-negative radii, so folding the chunk maxima in chunk order is
        // bit-identical to the flat fold.
        let bound_span = omt_obs::obs_span!("polar_grid/partition/bound");
        let chunk_starts: Vec<usize> = (0..n).step_by(SOA_CHUNK).collect();
        let per_chunk = omt_par::par_map_indexed(&chunk_starts, threads, |_, &s| {
            let e = (s + SOA_CHUNK).min(n);
            let bad = (s..e).find(|&i| !(xs[i].is_finite() && ys[i].is_finite()));
            (bad, radius[s..e].iter().copied().fold(0.0, f64::max))
        });
        if let Some(bad) = per_chunk.iter().find_map(|c| c.0) {
            return Err(BuildError::NonFinitePoint { index: bad });
        }
        let lower_bound = per_chunk.iter().map(|c| c.1).fold(0.0, f64::max);
        drop(bound_span);
        omt_obs::obs_count!("polar_grid/builds");
        if n == 0 {
            let arena = TreeArena::new(source, coords).max_out_degree(self.max_out_degree);
            let tree = arena.into_tree(Vec::new())?;
            return Ok((
                tree,
                PolarGridReport {
                    rings: 0,
                    delay: 0.0,
                    core_delay: 0.0,
                    bound: 0.0,
                    lower_bound: 0.0,
                    cells: 1,
                    occupied_cells: 0,
                },
            ));
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
            return Ok((
                tree,
                PolarGridReport {
                    rings: 0,
                    delay: 0.0,
                    core_delay: 0.0,
                    bound: 0.0,
                    lower_bound: 0.0,
                    cells: 1,
                    occupied_cells: 1,
                },
            ));
        }
        // Covering disk radius: strictly above the farthest point so the
        // half-open outermost ring contains it.
        let rho = lower_bound * (1.0 + 1e-9);

        // Assign every point once at the finest level, then select k. The
        // ring/path binning is pure per-point math (a ring locate guessed
        // from exponent bits, plus an angle-to-bits scale), batched over
        // disjoint column chunks.
        let bin_span = omt_obs::obs_span!("polar_grid/partition/bin");
        let k_max = finest_level(n);
        let finest = PolarGrid2::new(k_max, rho);
        let scale = (1u64 << k_max) as f64 / core::f64::consts::TAU;
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
                    rc[j] = finest.ring_of_radius(radius[i]);
                    pc[j] = ((angle[i] * scale) as u64).min((1u64 << k_max) - 1) as u32;
                }
            });
        }
        drop(bin_span);
        let select_span = omt_obs::obs_span!("polar_grid/partition/select");
        let k_auto = select_rings(&assignments);
        drop(select_span);
        let k = match self.rings_override {
            None => k_auto,
            Some(req) => {
                if req <= k_auto {
                    req
                } else {
                    return Err(BuildError::InfeasibleRings {
                        requested: req,
                        feasible: k_auto,
                    });
                }
            }
        };

        let grid = PolarGrid2::new(k, rho);
        let deg6 = self.max_out_degree >= 6;

        // Bucket points per cell (counting sort into CSR lists). The sort
        // consumes the assignments and frees them before the cell-major
        // columns and the arena's rows are allocated, keeping them out of
        // the peak-RSS window.
        let bucket_span = omt_obs::obs_span!("polar_grid/partition/bucket");
        let cells = cell_count(k);
        let (counts, members) = bucket_cells(assignments, k, threads);
        let cell_range = |c: usize| (counts[c] as usize, counts[c + 1] as usize);
        let occupied_cells = (0..cells).filter(|&c| counts[c] != counts[c + 1]).count();
        omt_obs::obs_observe!("polar_grid/occupied_cells", occupied_cells as u64);
        drop(bucket_span);

        // Copy the polar columns into member order once, so every cell is
        // one contiguous window of each column. Every later stage —
        // representative picks, connector picks, in-place bisection —
        // reads its cell's window by local position, and every attachment
        // writes the arena row of a cell-major position: rows are
        // positions, mapped to point ids once, in `into_tree`.
        let gather_span = omt_obs::obs_span!("polar_grid/partition/gather");
        let mut cm = CellMajor::gather(members, [radius, angle], threads);
        drop(gather_span);
        drop(partition_span);

        // Representative pre-pass: the dominant per-cell cost of the core
        // pass is the representative pick — one `sin_cos` and one distance
        // per window member (`PolarSlices::nearest`) — and it reads only the
        // window's original counting-sort order (a cell's window is first
        // permuted during its *own* core step, after its pick). So the
        // picks for every occupied ring ≥ 1 cell run in parallel up front,
        // each returning the rep's local position in its window, and the
        // sequential core pass consumes them via a cursor.
        let rep_span = omt_obs::obs_span!("polar_grid/reps");
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
                let cell_seg = grid.segment(ring, u64::from(seg));
                let inner_mid =
                    PolarPoint::new(cell_seg.r_lo(), cell_seg.arc().mid()).to_cartesian();
                self.pick_rep(window(&cm, cs, ce), inner_mid)
            });
        drop(occupied_list);
        drop(rep_span);

        // Wire the tree in two passes: a sequential core pass (one edge
        // per occupied cell) capturing one window-job per cell, then the
        // bisection pass, which is where the algorithm spends its time and
        // where the worker pool pays off. Cell order is fixed by the
        // (ring, seg) sweep, so the job list — and with it the final edge
        // set — is the same for every thread count. The core pass is the
        // one stage that reorders windows: it moves ids and columns
        // together so they stay aligned, and it moves every point it wires
        // to its final position *before* attaching that row, so no
        // attached row moves afterwards.
        // The arena's rows are written first by the core pass, which owns
        // their allocation.
        let core_span = omt_obs::obs_span!("polar_grid/core");
        let mut arena = TreeArena::new(source, coords).max_out_degree(self.max_out_degree);
        let mut core_delay = 0.0f64;
        let mut jobs: Vec<CellJob> = Vec::with_capacity(reps.len() + 1);
        let mut next_rep = reps.iter().copied();
        // Order-preserving removal of a cell's pre-picked representative
        // from its window — rotate it to the last row — and its attachment
        // under `parent`. Returns the representative's row.
        let mut place_rep = |arena: &mut TreeArena<'_, 2>,
                             cm: &mut CellMajor<2>,
                             (cs, ce): (usize, usize),
                             parent: NodeId|
         -> Result<usize, TreeError> {
            let pos = cs + next_rep.next().expect("one pre-picked rep per cell") as usize;
            cm.rotate_to_back(pos, ce);
            let row = ce - 1;
            let ids = &cm.ids;
            attach(
                &mut RowArena { arena, ids, coords },
                row,
                unpack_parent(parent),
            )?;
            core_delay = core_delay.max(arena.depth_of(row).expect("just attached"));
            Ok(row)
        };
        if deg6 {
            // rep_ref[cell] = the row the cell's children attach to.
            let mut rep_ref: Vec<NodeId> = vec![PACKED_SOURCE; cells];
            // Ring 0: the source is the representative; bisect the rest.
            jobs.push(CellJob {
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
                    jobs.push(CellJob {
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
            // Degree-2 wiring (Section IV-A); see `wire_cell_deg2`. The
            // connector and bisection-source picks stay in the sequential
            // core pass: unlike the rep pick they run over a window the
            // pass has already permuted, so hoisting them would change the
            // comparison order and with it the tree.
            let mut connector: Vec<NodeId> = vec![PACKED_SOURCE; cells];
            // Ring 0 — the source is the representative.
            {
                let nonempty = |c: usize| counts[c] != counts[c + 1];
                let has_core_children =
                    k >= 1 && (nonempty(cell_index(1, 0)) || nonempty(cell_index(1, 1)));
                let (conn, job) = self.wire_cell_deg2(
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
                    let (conn, job) = self.wire_cell_deg2(
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
            let _cells_span = omt_obs::obs_span!("polar_grid/cells");
            run_cell_jobs(&mut arena, &cm, coords, &grid, &jobs, !deg6, threads)?;
            drop(jobs);
        }

        let _finish_span = omt_obs::obs_span!("polar_grid/finish");
        let CellMajor { ids: order, cols } = cm;
        drop(cols);
        let tree = arena.into_tree_staged(order, threads, |stage| {
            omt_obs::obs_span!(match stage {
                FinishStage::Permute => "polar_grid/finish/permute",
                FinishStage::Points => "polar_grid/finish/points",
                FinishStage::Csr => "polar_grid/finish/csr",
            })
        })?;
        let delay = tree.radius();
        let report = PolarGridReport {
            rings: k,
            delay,
            core_delay,
            bound: upper_bound_eq7(k, self.max_out_degree, rho),
            lower_bound,
            cells,
            occupied_cells,
        };
        Ok((tree, report))
    }

    /// Chooses the representative of a non-empty cell and returns its
    /// local position in the cell's window `win`; `inner_mid` is the
    /// midpoint of the cell's inner arc in the source-relative frame. The
    /// first minimum wins ties, and for `MaxRadius` the last maximum.
    fn pick_rep(&self, win: PolarSlices<'_>, inner_mid: Point2) -> u32 {
        let len = win.radius.len() as u32;
        debug_assert!(len > 0);
        match self.rep_strategy {
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

    /// Wires the scaffold of one cell in the degree-2 scheme, in place on the
    /// cell's window `[cs, end)` of the cell-major rows, and returns the cell's
    /// connector row — the node (or source) with ≥ 2 spare out-links that will
    /// adopt the representatives of the occupied child cells — plus the
    /// deferred in-cell bisection job, if the cell has enough points to need
    /// one.
    ///
    /// `rep` is the attached representative's row, already moved out of the
    /// window, or `None` for the inner disk (the source is the representative
    /// there). Wired points leave the window from the back, by a swap with the
    /// last member, before their row is attached: the connector and the
    /// bisection source. `coords` are the store's Cartesian columns, by point
    /// id.
    #[allow(clippy::too_many_arguments)]
    fn wire_cell_deg2(
        &self,
        arena: &mut TreeArena<'_, 2>,
        cm: &mut CellMajor<2>,
        coords: [&[f64]; 2],
        (ring, seg): (u32, u32),
        (cs, mut end): (usize, usize),
        rep: Option<usize>,
        has_core_children: bool,
    ) -> Result<(NodeId, Option<CellJob>), BuildError> {
        // The representative's packed row and coordinates; the source sits at
        // the pole.
        let rep_ref = rep.map_or(PACKED_SOURCE, |r| r as NodeId);
        let rep_polar = rep.map(|r| PolarPoint {
            radius: cm.cols[0][r],
            angle: cm.cols[1][r],
        });
        let rep_radius = rep_polar.map_or(0.0, |p| p.radius);
        // Attaches the last window row under the representative.
        let mut attach_last = |cm: &CellMajor<2>, row: usize| {
            let ids = &cm.ids;
            attach(
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
            0 => {
                // Case 1: the representative alone (or the bare source for
                // the inner disk); it has both links spare.
                Ok((rep_ref, None))
            }
            1 => {
                // Case 2: rep -> other; the other point becomes the
                // connector with both links spare.
                attach_last(cm, cs)?;
                Ok((cs as NodeId, None))
            }
            _ => {
                // Case 3: rep -> {bisection source, connector}; the
                // connector keeps both links for the child cells. When the
                // cell has no occupied children the connector is skipped
                // and every spare point goes through the bisection.
                let connector = if has_core_children {
                    // The point nearest the representative: the extra
                    // rep -> connector hop stays short, so the core costs
                    // roughly one degree-6 hop per ring plus a local step.
                    let rep_pos = rep_polar.map_or(Point2::ORIGIN, |p| p.to_cartesian());
                    let pos = window(cm, cs, end).nearest(rep_pos);
                    cm.swap(cs + pos as usize, end - 1);
                    end -= 1;
                    attach_last(cm, end)?;
                    Some(end as NodeId)
                } else {
                    None
                };
                let mut job = None;
                if end > cs {
                    // Bisection source: radius closest to the representative.
                    let win = window(cm, cs, end);
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
                    job = Some(CellJob {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{BoxRegion, Disk, Point, Region, Translated};
    use omt_rng::rngs::SmallRng;
    use omt_rng::SeedableRng;

    fn disk_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Disk::unit().sample_n(&mut rng, n)
    }

    #[test]
    fn degree6_tree_is_valid_and_within_bounds() {
        for n in [1usize, 2, 3, 10, 100, 2000] {
            let pts = disk_points(n, n as u64);
            let (tree, report) = PolarGridBuilder::new()
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(6)).unwrap();
            assert!(
                report.delay <= report.bound + 1e-9,
                "n={n}: delay {} > bound {}",
                report.delay,
                report.bound
            );
            assert!(report.delay >= report.lower_bound - 1e-12);
            assert!((report.delay - tree.radius()).abs() < 1e-12);
        }
    }

    #[test]
    fn degree2_tree_is_valid_and_within_bounds() {
        for n in [1usize, 2, 3, 4, 10, 100, 2000] {
            let pts = disk_points(n, 50 + n as u64);
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(2)
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), n);
            tree.validate(Some(2)).unwrap();
            assert!(
                report.delay <= report.bound + 1e-9,
                "n={n}: delay {} > bound {}",
                report.delay,
                report.bound
            );
        }
    }

    #[test]
    fn delay_converges_toward_lower_bound() {
        // Theorem 2: the radius approaches the optimum as n grows.
        let mut last_ratio = f64::INFINITY;
        for (n, seed) in [(100usize, 1u64), (1000, 2), (10_000, 3)] {
            let pts = disk_points(n, seed);
            let (_, report) = PolarGridBuilder::new()
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            let ratio = report.delay / report.lower_bound;
            assert!(
                ratio < last_ratio + 0.05,
                "n={n}: ratio {ratio} not shrinking"
            );
            last_ratio = ratio;
        }
        assert!(last_ratio < 1.2, "ratio at n=10000 is {last_ratio}");
    }

    #[test]
    fn rings_grow_logarithmically() {
        // Equation (5): k >= 1/2 log2 n with high probability.
        for (n, seed) in [(100usize, 7u64), (1000, 8), (10_000, 9)] {
            let pts = disk_points(n, seed);
            let (_, report) = PolarGridBuilder::new()
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            let floor = crate::bounds::min_rings_estimate(n as u64);
            assert!(
                report.rings >= floor,
                "n={n}: rings {} below eq-5 floor {floor}",
                report.rings
            );
            // And not absurdly large either (cells need points).
            assert!((1u64 << report.rings) <= 2 * n as u64 + 2);
        }
    }

    #[test]
    fn rings_override() {
        let pts = disk_points(500, 4);
        let (_, auto) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        // A smaller k is always feasible.
        let (tree, forced) = PolarGridBuilder::new()
            .rings(auto.rings - 1)
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        assert_eq!(forced.rings, auto.rings - 1);
        tree.validate(Some(6)).unwrap();
        // A much larger k is infeasible.
        let err = PolarGridBuilder::new()
            .rings(auto.rings + 5)
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap_err();
        assert!(matches!(err, BuildError::InfeasibleRings { .. }));
    }

    #[test]
    fn rings_zero_override_is_pure_bisection() {
        let pts = disk_points(200, 12);
        let (tree, report) = PolarGridBuilder::new()
            .rings(0)
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        assert_eq!(report.rings, 0);
        assert_eq!(report.cells, 1);
        tree.validate(Some(6)).unwrap();
    }

    #[test]
    fn rep_strategies_all_yield_valid_trees() {
        let pts = disk_points(800, 21);
        for strategy in [
            RepStrategy::MinRadius,
            RepStrategy::MaxRadius,
            RepStrategy::First,
        ] {
            for deg in [2, 6] {
                let tree = PolarGridBuilder::new()
                    .max_out_degree(deg)
                    .representative_strategy(strategy)
                    .build(Point2::ORIGIN, &pts)
                    .unwrap();
                tree.validate(Some(deg)).unwrap();
            }
        }
    }

    #[test]
    fn min_radius_reps_beat_max_radius_reps() {
        // The paper's rule should not be worse than the adversarial one on
        // average; check a single decently-sized instance.
        let pts = disk_points(5000, 33);
        let (_, good) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        let (_, bad) = PolarGridBuilder::new()
            .representative_strategy(RepStrategy::MaxRadius)
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        assert!(
            good.delay <= bad.delay * 1.05,
            "{} vs {}",
            good.delay,
            bad.delay
        );
    }

    #[test]
    fn degree_validation() {
        let pts = disk_points(10, 1);
        assert!(matches!(
            PolarGridBuilder::new()
                .max_out_degree(1)
                .build(Point2::ORIGIN, &pts),
            Err(BuildError::DegreeTooSmall { got: 1, min: 2 })
        ));
        for deg in [2, 3, 4, 5, 6, 7, 16] {
            let tree = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            tree.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn non_finite_rejected() {
        assert!(matches!(
            PolarGridBuilder::new().build(Point2::new([f64::NAN, 0.0]), &[]),
            Err(BuildError::NonFiniteSource)
        ));
        assert!(matches!(
            PolarGridBuilder::new().build(Point2::ORIGIN, &[Point2::new([1.0, f64::NAN])]),
            Err(BuildError::NonFinitePoint { index: 0 })
        ));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let (tree, report) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &[])
            .unwrap();
        assert!(tree.is_empty());
        assert_eq!(report.rings, 0);

        // All points at the source.
        let pts = vec![Point2::new([2.0, 2.0]); 25];
        let (tree, report) = PolarGridBuilder::new()
            .max_out_degree(2)
            .build_with_report(Point2::new([2.0, 2.0]), &pts)
            .unwrap();
        assert_eq!(tree.len(), 25);
        assert_eq!(tree.radius(), 0.0);
        assert_eq!(report.delay, 0.0);
        tree.validate(Some(2)).unwrap();
    }

    #[test]
    fn duplicated_points_terminate_and_validate() {
        let mut pts = disk_points(50, 5);
        let dup = pts[7];
        pts.extend(std::iter::repeat_n(dup, 40));
        for deg in [2, 6] {
            let tree = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build(Point2::ORIGIN, &pts)
                .unwrap();
            assert_eq!(tree.len(), 90);
            tree.validate(Some(deg)).unwrap();
        }
    }

    #[test]
    fn offset_source_in_disk() {
        // Arbitrary source placement inside the region (Section IV-C).
        let pts = disk_points(3000, 17);
        let source = Point2::new([0.4, -0.3]);
        for deg in [2, 6] {
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build_with_report(source, &pts)
                .unwrap();
            tree.validate(Some(deg)).unwrap();
            assert!(report.delay <= report.bound + 1e-9);
            // Still near-optimal: within 2x of the covering radius.
            assert!(report.delay <= 2.0 * report.lower_bound);
        }
    }

    #[test]
    fn square_region_with_corner_source() {
        // Convex region, source near a corner: most of the covering disk is
        // empty, exercising the active-cell rule.
        let mut rng = SmallRng::seed_from_u64(88);
        let square = BoxRegion::new(Point::new([0.0, 0.0]), Point::new([1.0, 1.0]));
        let pts = square.sample_n(&mut rng, 4000);
        let source = Point2::new([0.05, 0.05]);
        for deg in [2, 6] {
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build_with_report(source, &pts)
                .unwrap();
            tree.validate(Some(deg)).unwrap();
            assert!(report.delay <= report.bound + 1e-9);
            assert!(
                report.delay <= 2.0 * report.lower_bound,
                "deg {deg}: delay {} vs lb {}",
                report.delay,
                report.lower_bound
            );
        }
    }

    #[test]
    fn translated_region_far_from_origin() {
        // The grid pole is the source, wherever it is in absolute terms.
        let mut rng = SmallRng::seed_from_u64(3);
        let region = Translated::new(Disk::unit(), Point2::new([100.0, -50.0]));
        let pts = region.sample_n(&mut rng, 1000);
        let (tree, report) = PolarGridBuilder::new()
            .build_with_report(Point2::new([100.0, -50.0]), &pts)
            .unwrap();
        tree.validate(Some(6)).unwrap();
        assert!(report.delay <= report.bound + 1e-9);
        assert!(report.lower_bound <= 1.0 + 1e-9);
    }

    #[test]
    fn report_cell_accounting() {
        let pts = disk_points(1000, 2);
        let (_, report) = PolarGridBuilder::new()
            .build_with_report(Point2::ORIGIN, &pts)
            .unwrap();
        assert_eq!(report.cells, (1usize << (report.rings + 1)) - 1);
        assert!(report.occupied_cells <= report.cells);
        // Interior cells are all occupied, so at least 2^k - 1 cells are.
        assert!(report.occupied_cells >= (1usize << report.rings) - 1);
        assert!(report.core_delay <= report.delay + 1e-12);
    }

    #[test]
    fn clustered_input_far_from_source() {
        // A tight cluster at distance 1: optimal radius ~1; the algorithm
        // must cope with almost every cell being inactive.
        let mut rng = SmallRng::seed_from_u64(14);
        let cluster = Translated::new(Disk::new(Point2::ORIGIN, 0.01), Point2::new([1.0, 0.0]));
        let pts = cluster.sample_n(&mut rng, 500);
        for deg in [2, 6] {
            let (tree, report) = PolarGridBuilder::new()
                .max_out_degree(deg)
                .build_with_report(Point2::ORIGIN, &pts)
                .unwrap();
            tree.validate(Some(deg)).unwrap();
            assert!(
                report.delay < 1.25,
                "deg {deg}: cluster delay {}",
                report.delay
            );
        }
    }

    #[test]
    fn deterministic_given_same_input() {
        let pts = disk_points(500, 77);
        let t1 = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
        let t2 = PolarGridBuilder::new().build(Point2::ORIGIN, &pts).unwrap();
        assert_eq!(t1, t2);
    }

    /// A 10k build runs every pass inline through the public entry
    /// points, so the threaded pre-passes and `run_cell_jobs` are driven
    /// here directly: the trees at 2 and 4 threads must equal the inline
    /// one, for both bisection kernels.
    #[test]
    fn threaded_passes_match_inline_at_10k() {
        let store = PointStore2::from_points(Point2::ORIGIN, &disk_points(10_000, 2004));
        for deg in [2, 6] {
            let builder = PolarGridBuilder::new().max_out_degree(deg);
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
    fn builder_is_reusable_and_default() {
        let b = PolarGridBuilder::default();
        let pts = disk_points(50, 6);
        let _ = b.build(Point2::ORIGIN, &pts).unwrap();
        let _ = b.build(Point2::ORIGIN, &pts).unwrap();
    }
}
