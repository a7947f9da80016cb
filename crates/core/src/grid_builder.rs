//! The one construction driver of the grid builders: Algorithm
//! `Polar_Grid` (Section III of the paper) over an equal-measure grid, for
//! the 2-D polar grid ([`crate::PolarGridBuilder`]), the 3-D spherical
//! shells of Section IV-B ([`crate::SphereGridBuilder`]) and the
//! general-dimension quantile grid ([`crate::NdGridBuilder`]). Only the
//! cell geometry differs by dimension; it is the grid type's
//! [`CellGeometry`]. The in-cell bisection is the one kernel pair of
//! [`crate::bisect`] in every dimension.
//!
//! A build ([`GridBuilder::build_on`]) runs five stages, each under an
//! `obs` span (`polar_grid/…`, `sphere_grid/…`, `nd_grid/…`):
//! `partition` (finiteness scan and lower bound, finest-level binning,
//! ring selection by [`crate::kselect`], counting sort, cell-major
//! gather), `reps` (the representative picks, in parallel), `core` (the
//! sequential core pass, capturing one bisection job per cell), `cells`
//! (the bisections, on the worker pool) and `finish`.

use omt_geom::{Point, PointStore};
use omt_tree::{check_node_capacity, FinishStage, MulticastTree, NodeId, TreeArena, TreeError};

use crate::bisect::{bisect_all, bisect_binary, Anchor, PolarBox, Scratch};
use crate::error::BuildError;
use crate::fanout::fanout_sink;
use crate::kselect::{
    bucket_cells, cell_count, cell_index, finest_level, select_rings, Assignments, CellMajor,
};
use crate::sink::{attach, unpack_parent, CellSink, RowArena, PACKED_SOURCE};

/// Chunk length for the batched column passes (the store fill, finiteness
/// scan, lower bound, polar-column ring/path binning, cell-major gather,
/// the finish's point gather): large enough to amortize the dispatch,
/// small enough to load-balance on skewed machines. A build of at most
/// this many points runs every pass inline on the calling thread.
pub(crate) use omt_geom::SOA_CHUNK;

/// The points of the Cartesian columns `coords`, in id order: the tree's
/// one point vector, gathered at the finish's points stage in chunks of
/// [`SOA_CHUNK`] points on `threads` workers. The rows start as zeroed
/// arrays, whose pages the allocator hands out untouched, so the workers
/// take the page faults in parallel; the final map to points reuses the
/// allocation in place.
fn store_points<const D: usize>(coords: [&[f64]; D], threads: usize) -> Vec<Point<D>> {
    let mut rows = vec![[0.0f64; D]; coords[0].len()];
    let mut chunks: Vec<(usize, &mut [[f64; D]])> = rows
        .chunks_mut(SOA_CHUNK)
        .enumerate()
        .map(|(c, chunk)| (c * SOA_CHUNK, chunk))
        .collect();
    omt_par::par_map_indexed_mut(&mut chunks, threads, |_, (base, chunk)| {
        for (j, row) in chunk.iter_mut().enumerate() {
            *row = core::array::from_fn(|d| coords[d][*base + j]);
        }
    });
    rows.into_iter().map(Point::new).collect()
}

/// The `obs` span, counter and histogram names of one dimension's builds.
pub(crate) struct ObsNames {
    pub build: &'static str,
    pub partition: &'static str,
    pub bound: &'static str,
    pub bin: &'static str,
    pub select: &'static str,
    pub bucket: &'static str,
    pub gather: &'static str,
    pub reps: &'static str,
    pub core: &'static str,
    pub cells: &'static str,
    pub finish: &'static str,
    pub permute: &'static str,
    pub points: &'static str,
    pub csr: &'static str,
    pub builds: &'static str,
    pub occupied_cells: &'static str,
}

/// The [`ObsNames`] under one prefix (`"polar_grid"`, `"sphere_grid"`,
/// `"nd_grid"`).
macro_rules! obs_names {
    ($prefix:literal) => {
        $crate::grid_builder::ObsNames {
            build: concat!($prefix, "/build"),
            partition: concat!($prefix, "/partition"),
            bound: concat!($prefix, "/partition/bound"),
            bin: concat!($prefix, "/partition/bin"),
            select: concat!($prefix, "/partition/select"),
            bucket: concat!($prefix, "/partition/bucket"),
            gather: concat!($prefix, "/partition/gather"),
            reps: concat!($prefix, "/reps"),
            core: concat!($prefix, "/core"),
            cells: concat!($prefix, "/cells"),
            finish: concat!($prefix, "/finish"),
            permute: concat!($prefix, "/finish/permute"),
            points: concat!($prefix, "/finish/points"),
            csr: concat!($prefix, "/finish/csr"),
            builds: concat!($prefix, "/builds"),
            occupied_cells: concat!($prefix, "/occupied_cells"),
        }
    };
}
pub(crate) use obs_names;

/// What a grid build needs of its dimension, implemented by the grid type
/// itself ([`crate::PolarGrid2`], [`crate::SphereGrid3`], and the n-D
/// quantile grid of [`crate::NdGridBuilder`]). `D` is a
/// parameter rather than an associated const because an associated const
/// cannot be a const-generic argument on stable Rust.
///
/// Cells are named `(ring, seg)`: ring 0 is the inner disk (ball), ring
/// `i ≥ 1` has `2^i` cells, and cell `(i, j)` is aligned with
/// `(i + 1, 2j)` and `(i + 1, 2j + 1)` in every dimension.
pub(crate) trait CellGeometry<const D: usize>: Sized + Sync {
    /// Budgets at or above this use the full-degree construction: 2 core
    /// links plus the `2^D`-way bisection. Budgets 2 up to it use the
    /// degree-2 wiring of Section IV-A.
    const FULL_DEGREE: u32;
    /// The `obs` names of this dimension's builds.
    const OBS: ObsNames;

    /// The `k`-ring grid over the covering disk (ball) of radius `rho`.
    fn new(k: u32, rho: f64) -> Self;
    /// Bins the points `base..base + ring.len()` of the polar columns at
    /// this grid's level: each point's ring, and its angular path, whose
    /// top `m` bits are its segment on ring `m`.
    fn bin(&self, polar: [&[f64]; D], base: usize, ring: &mut [u32], path: &mut [u32]);
    /// The midpoint of the cell's inner arc (inner boundary) in the
    /// connector frame: the target of [`RepStrategy::InnerArcMid`].
    fn inner_mid(&self, ring: u32, seg: u64) -> Point<D>;
    /// Row `i` of a window in the connector frame, where the nearest-point
    /// picks (the degree-2 connector, the inner-arc representative)
    /// measure distance: `win` is the window of polar columns, `coords`
    /// the store's Cartesian columns and `ids` the window's point ids.
    fn connector_point(win: [&[f64]; D], coords: [&[f64]; D], ids: &[u32], i: usize) -> Point<D>;
    /// The source's position in the connector frame.
    fn pole(source: Point<D>) -> Point<D>;
    /// The box of cell `(ring, seg)` over the polar columns, where the
    /// in-cell bisection starts.
    fn cell_box(&self, ring: u32, seg: u64) -> PolarBox<D>;
    /// The anchor of the in-cell bisection below a local root of radius
    /// `q`: the local source's radius, the paper's rule, unless the grid
    /// pins another.
    fn anchor(q: f64) -> Anchor {
        Anchor::Source(q)
    }
    /// The analytic delay bound the report carries, at this grid's rings
    /// and radius.
    fn bound(&self, max_out_degree: u32) -> f64;
}

/// The first `i` in `0..len` with the least `key(i)` under `total_cmp`:
/// the position `min_by` with a `total_cmp` of the keys picks, `inf` and
/// `NaN` keys included. Each key is computed once.
///
/// # Panics
///
/// Panics if `len` is 0.
fn first_min(len: u32, key: impl Fn(u32) -> f64) -> u32 {
    assert!(len > 0, "first_min over an empty range");
    let mut best = (0, key(0));
    for i in 1..len {
        let d = key(i);
        if d.total_cmp(&best.1).is_lt() {
            best = (i, d);
        }
    }
    best.0
}

/// The position in rows `s..e` of `cm` whose point is nearest `target`
/// (squared Euclidean distance in the connector frame; `coords` are the
/// store's Cartesian columns), relative to `s`: the first one on ties, as
/// `min_by` with a `total_cmp` of the distances picks. Each point's
/// distance is computed once.
fn nearest<G: CellGeometry<D>, const D: usize>(
    cm: &CellMajor<D>,
    coords: [&[f64]; D],
    (s, e): (usize, usize),
    target: Point<D>,
) -> u32 {
    let (win, ids) = (cm.window(s, e), &cm.ids[s..e]);
    first_min((e - s) as u32, |i| {
        G::connector_point(win, coords, ids, i as usize).distance_squared(&target)
    })
}

/// One deferred in-cell bisection, packed to 20 bytes, captured in cell
/// order during the core pass: its cell `(ring, seg)` (the geometry is
/// re-derived from the grid at dispatch), its local root as a packed row
/// (`PACKED_SOURCE` = the source; the bisection offset `q` is that root's
/// radius), and its members as the cell-major rows `[start, end)`.
#[derive(Clone, Copy, Debug)]
struct CellJob {
    ring: u32,
    seg: u32,
    parent: NodeId,
    start: u32,
    end: u32,
}

/// Runs the per-cell bisections on `threads` workers (inline, in order, for
/// one). Each job gathers its window's Cartesian points from `coords` into
/// worker scratch, permutes local positions there, and writes its own rows
/// of the shared arena through a [`CellSink`]: no edge buffers, no replay.
/// Every attachment is a pure function of the job and the read-only
/// columns, so the tree is the same for every thread count.
fn run_cell_jobs<G: CellGeometry<D>, const D: usize>(
    arena: &mut TreeArena<D>,
    cm: &CellMajor<D>,
    coords: [&[f64]; D],
    grid: &G,
    jobs: &[CellJob],
    binary: bool,
    threads: usize,
) -> Result<(), TreeError> {
    let shared: &TreeArena<D> = arena;
    let scratch = <(Scratch<D>, Vec<Point<D>>)>::default;
    let results = omt_par::par_map_with(jobs, threads, scratch, |(scratch, points), _, job| {
        // The bisection offset `q` is the local root's cell-major radius
        // (0 at the source) — exactly the value the core pass saw when it
        // emitted the job.
        let q = if job.parent == PACKED_SOURCE {
            0.0
        } else {
            cm.cols[0][job.parent as usize]
        };
        let (s, e) = (job.start as usize, job.end as usize);
        let (mut sink, parent) =
            CellSink::gather(shared, &cm.ids, coords, (s, e), job.parent, points);
        let (win, anchor) = (cm.window(s, e), G::anchor(q));
        let cell = grid.cell_box(job.ring, u64::from(job.seg));
        let kernel = if binary { bisect_binary } else { bisect_all };
        kernel(&mut sink, win, s, cell, parent, anchor, scratch)
            // One result per job is held until the join, at the fill's
            // peak RSS: a boxed error keeps each to one word.
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
    /// arc of the segment"): minimal radius *and* central angle. In 3-D,
    /// the midpoint of the cell's inner boundary.
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

/// Diagnostics of a grid build ([`crate::PolarGridBuilder`],
/// [`crate::SphereGridBuilder`]), matching the columns of Table I in the
/// paper.
#[derive(Clone, Debug, PartialEq)]
pub struct PolarGridReport {
    /// The number of grid rings `k` ("Rings").
    pub rings: u32,
    /// The longest source-to-receiver delay in the tree ("Delay").
    pub delay: f64,
    /// The longest source-to-representative portion of any path ("Core").
    pub core_delay: f64,
    /// The analytic upper bound ("Bound"): equation (7) at `j = 0` in 2-D,
    /// its shell-sum analogue in 3-D.
    pub bound: f64,
    /// The trivial lower bound on the optimum: the largest direct
    /// source-to-point distance (approaches the disk radius).
    pub lower_bound: f64,
    /// Total number of grid cells, `2^(k+1) - 1`.
    pub cells: usize,
    /// Number of cells containing at least one point.
    pub occupied_cells: usize,
}

/// Builder for the `Polar_Grid` algorithm in `D` dimensions. Use it through
/// its aliases, [`crate::PolarGridBuilder`] (`D = 2`, Section III) and
/// [`crate::SphereGridBuilder`] (`D = 3`, Section IV-B), which carry the
/// constructors and the typed build entry points; the settings below are
/// shared. [`crate::NdGridBuilder`] runs it in any dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridBuilder<const D: usize> {
    max_out_degree: u32,
    rings_override: Option<u32>,
    rep_strategy: RepStrategy,
    threads: Option<usize>,
}

impl<const D: usize> GridBuilder<D> {
    /// A builder with out-degree budget `max_out_degree`, automatic ring
    /// selection and inner-arc-midpoint representatives.
    pub(crate) const fn with_degree(max_out_degree: u32) -> Self {
        Self {
            max_out_degree,
            rings_override: None,
            rep_strategy: RepStrategy::InnerArcMid,
            threads: None,
        }
    }

    /// Sets the out-degree budget. Budgets at or above the full degree —
    /// 6 in 2-D, 10 in 3-D — use the paper's construction: 2 core links
    /// plus the 4-way (8-way) bisection per representative. Budgets from 2
    /// up to it use the degree-2 wiring of Section IV-A. Budgets below 2
    /// fail at build time.
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

    /// The argument checks of every entry point, in their documented
    /// order, then the build on the resolved thread count.
    pub(crate) fn build_checked<G: CellGeometry<D>>(
        &self,
        store: &PointStore<D>,
    ) -> Result<(MulticastTree<D>, PolarGridReport), BuildError> {
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
        self.build_on::<G>(store, self.threads_for(n))
    }

    /// The worker count of a build over `n` points: one for builds of at
    /// most one pre-pass chunk, else the pinned or ambient thread count.
    pub(crate) fn threads_for(&self, n: usize) -> usize {
        if n <= SOA_CHUNK {
            1
        } else {
            omt_par::resolve_threads(self.threads)
        }
    }

    /// The build after the argument checks, on `threads` workers. Each
    /// stage runs in a block that holds its `obs` span.
    fn build_on<G: CellGeometry<D>>(
        &self,
        store: &PointStore<D>,
        threads: usize,
    ) -> Result<(MulticastTree<D>, PolarGridReport), BuildError> {
        let (source, coords, polar) = (store.source(), store.coords(), store.grid());
        let names = &G::OBS;
        let radius = polar[0];
        let n = radius.len();
        let _build_span = omt_obs::obs_span!(names.build);
        let (lower_bound, k, grid, counts, occupied_cells, mut cm) = {
            let _span = omt_obs::obs_span!(names.partition);
            // Finiteness scan and lower bound in one chunked pass. Each chunk
            // reports its first offending index (the first `Some` in chunk
            // order is the global first, as a sequential scan finds it) and its
            // largest radius; `f64::max` is associative over the non-negative
            // radii, so folding the chunk maxima in chunk order is
            // bit-identical to the flat fold.
            let lower_bound = {
                let _span = omt_obs::obs_span!(names.bound);
                let chunk_starts: Vec<usize> = (0..n).step_by(SOA_CHUNK).collect();
                let per_chunk = omt_par::par_map_indexed(&chunk_starts, threads, |_, &s| {
                    let e = (s + SOA_CHUNK).min(n);
                    let bad = (s..e).find(|&i| !coords.iter().all(|c| c[i].is_finite()));
                    (bad, radius[s..e].iter().copied().fold(0.0, f64::max))
                });
                if let Some(bad) = per_chunk.iter().find_map(|c| c.0) {
                    return Err(BuildError::NonFinitePoint { index: bad });
                }
                per_chunk.iter().map(|c| c.1).fold(0.0, f64::max)
            };
            // Covering radius: strictly above the farthest point so the
            // half-open outermost ring contains it. Finite points can still be
            // too far from the source to measure: beyond about 1.3e154 the
            // squared norm overflows and the radius is infinite.
            let rho = lower_bound * (1.0 + 1e-9);
            if !rho.is_finite() {
                return Err(BuildError::RadiusOverflow);
            }
            omt_obs::obs_count!(names.builds);
            if lower_bound == 0.0 {
                // No points, or every point at the source: no grid, and any
                // fan-out within the budget is optimal. Rows are point ids.
                let mut arena = TreeArena::new(source, n).max_out_degree(self.max_out_degree);
                let ids: Vec<u32> = (0..n as u32).collect();
                let rows = &mut RowArena {
                    arena: &mut arena,
                    ids: &ids,
                    coords,
                };
                fanout_sink(rows, n, self.max_out_degree)?;
                let report = PolarGridReport {
                    rings: 0,
                    delay: 0.0,
                    core_delay: 0.0,
                    bound: 0.0,
                    lower_bound: 0.0,
                    cells: 1,
                    occupied_cells: n.min(1),
                };
                return Ok((arena.into_tree(ids, store_points(coords, 1))?, report));
            }

            // Assign every point once at the finest level, then select k. The
            // ring/path binning is pure per-point math (a ring locate guessed
            // from exponent bits, plus the angular path), batched over
            // disjoint column chunks.
            let assignments = {
                let _span = omt_obs::obs_span!(names.bin);
                let k_max = finest_level(n);
                let finest = G::new(k_max, rho);
                let mut assignments = Assignments::zeroed(k_max, n);
                let (ring, path) = assignments.columns_mut();
                let mut chunks: Vec<(usize, &mut [u32], &mut [u32])> = ring
                    .chunks_mut(SOA_CHUNK)
                    .zip(path.chunks_mut(SOA_CHUNK))
                    .enumerate()
                    .map(|(ci, (r, p))| (ci * SOA_CHUNK, r, p))
                    .collect();
                omt_par::par_map_indexed_mut(&mut chunks, threads, |_, (base, rc, pc)| {
                    finest.bin(polar, *base, rc, pc);
                });
                assignments
            };
            let k_auto = {
                let _span = omt_obs::obs_span!(names.select);
                select_rings(&assignments)
            };
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

            // Bucket points per cell (counting sort into CSR lists). The sort
            // consumes the assignments and frees them before the cell-major
            // columns and the arena's rows are allocated, keeping them out of
            // the peak-RSS window.
            let (counts, members) = {
                let _span = omt_obs::obs_span!(names.bucket);
                bucket_cells(assignments, k, threads)
            };
            let occupied_cells = (0..cell_count(k))
                .filter(|&c| counts[c] != counts[c + 1])
                .count();
            omt_obs::obs_observe!(names.occupied_cells, occupied_cells as u64);

            // Copy the polar columns into member order once, so every cell is
            // one contiguous window of each column. Every later stage reads its
            // cell's window by local position, and every attachment writes the
            // arena row of a cell-major position, mapped to a point id once, in
            // `into_tree`.
            let cm = {
                let _span = omt_obs::obs_span!(names.gather);
                CellMajor::gather(members, polar, threads)
            };
            (lower_bound, k, G::new(k, rho), counts, occupied_cells, cm)
        };
        let cells = cell_count(k);
        let full = self.max_out_degree >= G::FULL_DEGREE;
        let cell_range = |c: usize| (counts[c] as usize, counts[c + 1] as usize);
        let occupied = |c: usize| counts[c] != counts[c + 1];

        // Representative pre-pass: the pick — one Cartesian conversion and
        // one distance per window member — is the core pass's dominant
        // cost, and it reads only the window's counting-sort order (a
        // window is first permuted in its own core step, after its pick).
        // So every occupied ring ≥ 1 cell picks in parallel up front, and
        // the sequential core pass consumes the local positions in order.
        let reps: Vec<u32> = {
            let _span = omt_obs::obs_span!(names.reps);
            let occupied_list: Vec<(u32, u32)> = (1..=k)
                .flat_map(|ring| (0..(1u64 << ring)).map(move |seg| (ring, seg as u32)))
                .filter(|&(ring, seg)| occupied(cell_index(ring, u64::from(seg))))
                .collect();
            omt_par::par_map_indexed(&occupied_list, threads, |_, &(ring, seg)| {
                let (cs, ce) = cell_range(cell_index(ring, u64::from(seg)));
                self.pick_rep(&grid, &cm, coords, (cs, ce), (ring, u64::from(seg)))
            })
        };

        // Wire the tree in two passes: a sequential core pass capturing one
        // bisection job per cell in (ring, seg) order, then the bisections
        // on the worker pool, where the time goes. The job list, and with
        // it the edge set, is the same for every thread count. The core
        // pass is the one stage that reorders windows, ids and columns
        // together, and it moves every point it wires to its final row
        // *before* attaching it, so no attached row moves afterwards.
        let (mut arena, core_delay, jobs) = {
            let _span = omt_obs::obs_span!(names.core);
            let mut arena = TreeArena::new(source, n).max_out_degree(self.max_out_degree);
            let mut core_delay = 0.0f64;
            let mut jobs: Vec<CellJob> = Vec::with_capacity(reps.len() + 1);
            let mut next_rep = reps.iter().copied();
            // hub[cell] = the row the cell's core children attach to: its
            // representative in the full-degree construction, its connector
            // in the degree-2 wiring. The core tree is the same binary tree
            // in every dimension: cell (ring, seg) hangs below
            // (ring - 1, seg / 2) — the inner disk for ring 1 — and adopts
            // (ring + 1, 2 seg) and (ring + 1, 2 seg + 1).
            let mut hub: Vec<NodeId> = vec![PACKED_SOURCE; cells];
            for ring in 0..=k {
                for seg in 0..(1u64 << ring) {
                    let c = cell_index(ring, seg);
                    let (cs, ce) = cell_range(c);
                    // The source is ring 0's representative. A ring >= 1
                    // cell rotates its pre-picked one to its window's last
                    // row, order-preserving, and attaches it to its core
                    // parent.
                    let rep = if ring == 0 {
                        None
                    } else if cs == ce {
                        continue;
                    } else {
                        let pos = next_rep.next().expect("one pre-picked rep per cell");
                        cm.rotate_to_back(cs + pos as usize, ce);
                        let row = ce - 1;
                        let parent = unpack_parent(hub[cell_index(ring - 1, seg / 2)]);
                        let ids = &cm.ids;
                        let rows = &mut RowArena {
                            arena: &mut arena,
                            ids,
                            coords,
                        };
                        attach(rows, row, parent)?;
                        core_delay = core_delay.max(arena.depth_of(row).expect("just attached"));
                        Some(row)
                    };
                    let end = rep.unwrap_or(ce);
                    if full {
                        // The representative bisects the rest of its cell.
                        hub[c] = rep.map_or(PACKED_SOURCE, |r| r as NodeId);
                        jobs.push(CellJob {
                            ring,
                            seg: seg as u32,
                            parent: hub[c],
                            start: cs as u32,
                            end: end as u32,
                        });
                    } else {
                        // Degree-2 wiring (Section IV-A). The connector and
                        // bisection-source picks stay in the sequential core
                        // pass: unlike the rep pick they run over a window
                        // the pass has already permuted, so hoisting them
                        // would change the comparison order and with it the
                        // tree.
                        let has_core_children = ring < k
                            && (occupied(cell_index(ring + 1, 2 * seg))
                                || occupied(cell_index(ring + 1, 2 * seg + 1)));
                        let (conn, job) = wire_cell_deg2::<G, D>(
                            &mut arena,
                            &mut cm,
                            store,
                            (ring, seg as u32),
                            (cs, end),
                            rep,
                            has_core_children,
                        )?;
                        hub[c] = conn;
                        jobs.extend(job);
                    }
                }
            }
            debug_assert!(next_rep.next().is_none(), "every pre-picked rep consumed");
            (arena, core_delay, jobs)
        };
        drop(reps);
        drop(counts);

        {
            let _span = omt_obs::obs_span!(names.cells);
            run_cell_jobs(&mut arena, &cm, coords, &grid, &jobs, !full, threads)?;
            drop(jobs);
        }

        let _finish_span = omt_obs::obs_span!(names.finish);
        let CellMajor { ids: order, cols } = cm;
        drop(cols);
        let points = || store_points(coords, threads);
        let tree = arena.into_tree_staged(order, threads, points, |stage| {
            omt_obs::obs_span!(match stage {
                FinishStage::Permute => names.permute,
                FinishStage::Points => names.points,
                FinishStage::Csr => names.csr,
            })
        })?;
        let report = PolarGridReport {
            rings: k,
            delay: tree.radius(),
            core_delay,
            bound: grid.bound(self.max_out_degree),
            lower_bound,
            cells,
            occupied_cells,
        };
        Ok((tree, report))
    }

    /// Chooses the representative of the non-empty cell `(ring, seg)`,
    /// whose window is the rows `s..e` of `cm`, and returns its local
    /// position in the window. The first minimum wins ties, and for
    /// `MaxRadius` the last maximum, as `min_by` and `max_by` pick.
    fn pick_rep<G: CellGeometry<D>>(
        &self,
        grid: &G,
        cm: &CellMajor<D>,
        coords: [&[f64]; D],
        (s, e): (usize, usize),
        (ring, seg): (u32, u64),
    ) -> u32 {
        let radius = &cm.cols[0][s..e];
        let len = radius.len() as u32;
        debug_assert!(len > 0);
        let radius_of = |i: u32| radius[i as usize];
        match self.rep_strategy {
            RepStrategy::InnerArcMid => {
                nearest::<G, D>(cm, coords, (s, e), grid.inner_mid(ring, seg))
            }
            RepStrategy::MinRadius => first_min(len, radius_of),
            RepStrategy::MaxRadius => (0..len)
                .max_by(|&a, &b| radius_of(a).total_cmp(&radius_of(b)))
                .expect("nonempty"),
            RepStrategy::First => 0,
        }
    }
}

/// Wires the scaffold of one cell in the degree-2 scheme, in place on its
/// window `[cs, end)` of the cell-major rows. Returns the cell's connector
/// row — the node (or source) with 2 spare out-links that adopts the
/// representatives of the occupied child cells — and the deferred in-cell
/// bisection job, if the cell needs one. `rep` is the attached
/// representative's row, already moved out of the window, or `None` for the
/// inner disk, whose representative is the source. The connector and the
/// bisection source leave the window from the back, by a swap with the last
/// member, before their rows are attached.
fn wire_cell_deg2<G: CellGeometry<D>, const D: usize>(
    arena: &mut TreeArena<D>,
    cm: &mut CellMajor<D>,
    store: &PointStore<D>,
    (ring, seg): (u32, u32),
    (cs, mut end): (usize, usize),
    rep: Option<usize>,
    has_core_children: bool,
) -> Result<(NodeId, Option<CellJob>), BuildError> {
    // The representative's packed row and radius; the source sits at the
    // pole.
    let coords = store.coords();
    let rep_ref = rep.map_or(PACKED_SOURCE, |r| r as NodeId);
    let rep_radius = rep.map_or(0.0, |r| cm.cols[0][r]);
    // Attaches the last window row under the representative.
    let mut attach_last = |cm: &CellMajor<D>, row: usize| {
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
                // roughly one full-degree hop per ring plus a local step.
                let rep_pos = rep.map_or(G::pole(store.source()), |r| {
                    G::connector_point(cm.window(r, r + 1), coords, &cm.ids[r..r + 1], 0)
                });
                let pos = nearest::<G, D>(cm, coords, (cs, end), rep_pos);
                cm.swap(cs + pos as usize, end - 1);
                end -= 1;
                attach_last(cm, end)?;
                Some(end as NodeId)
            } else {
                None
            };
            let mut job = None;
            if end > cs {
                // Bisection source: radius closest to the representative's,
                // the first one on ties.
                let radius = &cm.cols[0][cs..end];
                let pos = first_min(radius.len() as u32, |i| {
                    (radius[i as usize] - rep_radius).abs()
                });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndim::{quant_row, NdGrid};
    use crate::{PolarGrid2, PolarGridBuilder, SphereGrid3, SphereGridBuilder};
    use omt_geom::{Ball, Disk, Point2, Point3, PointStore2, PointStore3, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::{RngExt, SeedableRng};

    #[test]
    fn first_min_matches_min_by_on_every_short_key_sequence() {
        // Every sequence of up to 5 keys over values that tie, differ only
        // in sign (`total_cmp` puts -0 before +0), or are infinite or NaN
        // of either sign: the first minimum `min_by` picks, in every case.
        let values = [
            0.0,
            -0.0,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for len in 1..=5u32 {
            for code in 0..values.len().pow(len) {
                let keys: Vec<f64> = (0..len)
                    .map(|j| values[code / values.len().pow(j) % values.len()])
                    .collect();
                let want = (0..len)
                    .min_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]))
                    .unwrap();
                assert_eq!(first_min(len, |i| keys[i as usize]), want, "{keys:?}");
            }
        }
    }

    /// `nearest` against the double-evaluating `min_by` scan it replaced,
    /// on random windows of `store`, toward a stored point and the pole.
    fn assert_nearest_is_first_min<G: CellGeometry<D>, const D: usize>(store: &PointStore<D>) {
        let (source, coords, polar) = (store.source(), store.coords(), store.grid());
        let n = store.len();
        let cm = CellMajor::gather((0..n as u32).collect(), polar, 1);
        let mut rng = SmallRng::seed_from_u64(29);
        for _ in 0..2_000 {
            let s = rng.random_range(0..n);
            let e = rng.random_range(s + 1..=n.min(s + 300));
            let (win, ids) = (cm.window(s, e), &cm.ids[s..e]);
            let stored = G::connector_point(polar, coords, &cm.ids, rng.random_range(0..n));
            for target in [stored, G::pole(source)] {
                let key = |i: u32| {
                    G::connector_point(win, coords, ids, i as usize).distance_squared(&target)
                };
                let want = (0..(e - s) as u32)
                    .min_by(|&a, &b| key(a).total_cmp(&key(b)))
                    .unwrap();
                assert_eq!(nearest::<G, D>(&cm, coords, (s, e), target), want, "D={D}");
            }
        }
    }

    #[test]
    fn nearest_matches_min_by_on_random_windows() {
        // Every point twice in a row, so windows hold exact ties, and a
        // stored target ties at distance 0.
        let mut rng = SmallRng::seed_from_u64(23);
        let disk: Vec<Point2> = Disk::unit().sample_n(&mut rng, 2_000);
        let disk = disk.into_iter().flat_map(|p| [p, p]).collect::<Vec<_>>();
        assert_nearest_is_first_min::<PolarGrid2, 2>(&PointStore2::from_points(
            Point2::ORIGIN,
            &disk,
        ));
        let ball: Vec<Point3> = Ball::<3>::unit().sample_n(&mut rng, 2_000);
        let ball = ball.into_iter().flat_map(|p| [p, p]).collect::<Vec<_>>();
        assert_nearest_is_first_min::<SphereGrid3, 3>(&PointStore3::from_points(
            Point3::ORIGIN,
            &ball,
        ));
        // The n-D connector frame is the input points themselves, with the
        // pole at an off-origin source.
        let ball: Vec<Point<4>> = Ball::<4>::unit().sample_n(&mut rng, 2_000);
        let ball = ball.into_iter().flat_map(|p| [p, p]).collect::<Vec<_>>();
        let source = Point::new([0.25, -0.5, 0.125, 0.0]);
        let store = PointStore::from_points_on(source, &ball, 1, quant_row);
        assert_nearest_is_first_min::<NdGrid<4>, 4>(&store);
    }

    /// The build of `store` on `threads` workers equals the inline one,
    /// tree, radius bits and report alike.
    fn assert_threads_match<G: CellGeometry<D>, const D: usize>(
        builder: GridBuilder<D>,
        store: &PointStore<D>,
    ) {
        let (inline, inline_report) = builder.build_on::<G>(store, 1).unwrap();
        for threads in [2, 4] {
            let (tree, report) = builder.build_on::<G>(store, threads).unwrap();
            let label = format!("D={D} deg {} threads {threads}", builder.max_out_degree);
            assert_eq!(tree, inline, "{label}");
            assert_eq!(
                tree.radius().to_bits(),
                inline.radius().to_bits(),
                "{label}"
            );
            assert_eq!(report, inline_report, "{label}");
        }
    }

    /// A 10k build runs every pass inline through the public entry
    /// points, so the threaded pre-passes and `run_cell_jobs` are driven
    /// here directly: the trees at 2 and 4 threads must equal the inline
    /// one, for every bisection kernel of both dimensions.
    #[test]
    fn threaded_passes_match_inline_at_10k() {
        let mut rng = SmallRng::seed_from_u64(2004);
        let disk = PointStore2::sample_region(Point2::ORIGIN, &Disk::unit(), &mut rng, 10_000);
        for deg in [2, 6] {
            let builder = PolarGridBuilder::new().max_out_degree(deg);
            assert_threads_match::<PolarGrid2, 2>(builder, &disk);
        }
        let ball = PointStore3::sample_region(Point3::ORIGIN, &Ball::<3>::unit(), &mut rng, 10_000);
        for deg in [2, 10] {
            let builder = SphereGridBuilder::new().max_out_degree(deg);
            assert_threads_match::<SphereGrid3, 3>(builder, &ball);
        }
        // The n-D grid as its builder drives it: degree 2, least-radius
        // representatives.
        let ball4: Vec<Point<4>> = Ball::<4>::unit().sample_n(&mut rng, 10_000);
        let builder =
            GridBuilder::<4>::with_degree(2).representative_strategy(RepStrategy::MinRadius);
        let store = PointStore::from_points_on(Point::ORIGIN, &ball4, 1, quant_row);
        assert_threads_match::<NdGrid<4>, 4>(builder, &store);
    }
}
