//! Ring-count (`k`) selection for polar grids, shared by the grid builders
//! of every dimension.
//!
//! The paper chooses "the number of rings `k` as large as possible, such
//! that property 3) is satisfied" — every non-outermost cell contains at
//! least one point. We generalize this to arbitrary convex regions by only
//! requiring it of **active** cells (cells whose outward cone contains a
//! point); for the uniform disk the two rules coincide, and the relaxed
//! rule still guarantees the degree bound: a non-empty cell's parent is an
//! ancestor of an active cell, hence active, hence occupied.
//!
//! # Level-independent encoding
//!
//! The grids for successive `k` are nested: the annuli of the `k`-ring grid
//! are a suffix of the annuli of the `(k+1)`-ring grid, and each `k`-cell is
//! the union of two `(k+1)`-cells. We exploit this by assigning every point
//! once, at a finest level `k_max`, to a pair
//!
//! * `ring ∈ [0, k_max]` — 0 is the inner disk, `k_max` the outermost ring;
//! * `path` — the binary *angular path*: bit `b` of the first `m` bits
//!   identifies which half the point falls into at the `b`-th angular
//!   split, so the point's segment on any ring with `2^m` segments is
//!   simply the top `m` bits.
//!
//! The cell of the same point at a coarser level `k = k_max - d` is then
//! pure integer arithmetic — `ring' = max(ring - d, 0)`,
//! `seg' = path >> (k_max - ring')` — so occupancy at every level is
//! derived from one consistent assignment with no floating-point re-binning.
//!
//! # Per-ring bitsets
//!
//! [`select_rings`] keeps the occupancy as one `u64` bitset per ring
//! ([`RingBits`]). Coarsening a level is a pair-OR of each ring's adjacent
//! bits, done a word at a time (64 cells in, 32 out), plus folding ring 1
//! into the inner disk; the feasibility check folds the active set inward
//! the same way and stops at the first active, unoccupied cell. At
//! `n = 5M` the finest grid (`k_max = 23`) is 16.7 M cells, i.e. 1 MB of
//! words.
//!
//! # Partition
//!
//! [`bucket_cells`] turns the assignments at the selected level into a
//! counting-sort member order — a parallel stable counting sort over
//! contiguous id ranges — and [`CellMajor::gather`] copies the point
//! columns into that order, so each cell's points are one contiguous
//! window of every column. The grid builders' arena rows are these
//! positions: `ids[row]` is the point id the finished tree gives row
//! `row`.
//!
//! # Ring locate
//!
//! [`locate_ring`] bins a radius into the equal-volume shells of any
//! dimension, for the 2-D, 3-D and general-dimension grids alike.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use crate::grid_builder::SOA_CHUNK;

/// Per-point finest-level grid assignments plus the finest level itself.
///
/// Two columns per point: the finest ring, in `[0, k_max]`, and the
/// angular bit path, of which only the top `min(ring, m)` bits are
/// meaningful when reading a segment at a ring with `2^m` segments. Paths
/// are `u32`: [`finest_level`] caps `k_max` at 31, so every path fits.
///
/// Both columns live in one allocation, ring first. At million scale it
/// is the largest transient of the build and bigger than glibc's 32 MB
/// cap on its dynamic mmap threshold, so it is always mapped and unmapped
/// whole; two separate 20 MB columns at 5M would, once an earlier free
/// had raised that threshold, land on the heap and leave a 40 MB resident
/// hole behind when they are dropped.
#[derive(Clone, Debug)]
pub(crate) struct Assignments {
    /// The finest grid level the points were assigned at.
    pub k_max: u32,
    /// The ring column, then the path column.
    columns: Vec<u32>,
}

impl Assignments {
    /// All-zero assignments of `n` points at level `k_max`, to be filled
    /// through [`Assignments::columns_mut`].
    pub fn zeroed(k_max: u32, n: usize) -> Self {
        Self {
            k_max,
            columns: vec![0; 2 * n],
        }
    }

    /// Assignments from a ring and a path column of equal length.
    #[cfg(test)]
    pub fn from_columns(k_max: u32, mut ring: Vec<u32>, path: Vec<u32>) -> Self {
        assert_eq!(ring.len(), path.len(), "one ring and one path per point");
        ring.extend_from_slice(&path);
        Self {
            k_max,
            columns: ring,
        }
    }

    /// Number of assigned points.
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len() / 2
    }

    /// The ring and path columns, for filling.
    pub fn columns_mut(&mut self) -> (&mut [u32], &mut [u32]) {
        let n = self.len();
        self.columns.split_at_mut(n)
    }

    /// The (ring, segment) cell of point `p` at grid level `k ≤ k_max`.
    #[inline]
    pub fn cell_at(&self, p: usize, k: u32) -> (u32, u64) {
        coarse_cell(self.k_max, k, self.columns[p], self.columns[self.len() + p])
    }
}

/// The (ring, segment) cell at grid level `k ≤ k_max` of a point with
/// finest ring `ring` and angular path `path`.
#[inline]
fn coarse_cell(k_max: u32, k: u32, ring: u32, path: u32) -> (u32, u64) {
    let r = ring.saturating_sub(k_max - k);
    let seg = if r == 0 {
        0
    } else {
        // r >= 1 and k_max <= 31, so the shift is at most 30.
        u64::from(path >> (k_max - r))
    };
    (r, seg)
}

/// Flat index of cell `(ring, seg)` within a `k`-level grid: the inner disk
/// is 0, ring `i` occupies the range `[2^i - 1, 2^(i+1) - 1)`.
#[inline]
pub(crate) fn cell_index(ring: u32, seg: u64) -> usize {
    ((1u64 << ring) - 1 + seg) as usize
}

/// Inverse of [`cell_index`]: the cell `(ring, seg)` at flat index `idx`.
#[inline]
pub(crate) fn cell_at_index(idx: usize) -> (u32, u64) {
    let v = idx as u64 + 1;
    let ring = 63 - v.leading_zeros();
    (ring, v - (1u64 << ring))
}

/// Number of cells of the `k`-level grid.
#[inline]
pub(crate) fn cell_count(k: u32) -> usize {
    ((1u64 << (k + 1)) - 1) as usize
}

/// Cell occupancy of a grid, one bitset per ring: bit `s` of ring `r` is
/// set iff cell `(r, s)` holds a point. Ring `r`'s `2^r` cells pack into
/// `⌈2^r / 64⌉` words, so a `k_max = 23` grid is 1 MB of words rather
/// than 16.7 M flags, and coarsening and the feasibility check both run a
/// word at a time.
#[derive(Debug)]
pub(crate) struct RingBits {
    /// `rings[r]` is the bitset of ring `r`; the grid level is
    /// `rings.len() - 1`.
    rings: Vec<Vec<u64>>,
}

/// Pair-OR of one word: bit `j` of the low half of the result is bit `2j`
/// OR bit `2j + 1` of `w` (the aligned-pair merge of one coarsening step).
#[inline]
fn squeeze(w: u64) -> u64 {
    let mut x = (w | (w >> 1)) & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    (x | (x >> 16)) & 0x0000_0000_ffff_ffff
}

/// Halves a ring bitset in place: cell `j` of the result is the union of
/// cells `2j` and `2j + 1`.
fn halve(ring: &mut Vec<u64>) {
    let words = ring.len().div_ceil(2);
    for w in 0..words {
        let hi = ring.get(2 * w + 1).map_or(0, |&h| squeeze(h) << 32);
        ring[w] = squeeze(ring[2 * w]) | hi;
    }
    ring.truncate(words);
}

impl RingBits {
    /// The occupancy of the `k_max`-level grid.
    pub fn finest(a: &Assignments) -> Self {
        let mut rings: Vec<Vec<u64>> = (0..=a.k_max)
            .map(|r| vec![0u64; (1usize << r).div_ceil(64)])
            .collect();
        for p in 0..a.len() {
            let (r, s) = a.cell_at(p, a.k_max);
            rings[r as usize][(s / 64) as usize] |= 1 << (s % 64);
        }
        Self { rings }
    }

    /// The grid level `t`.
    pub fn level(&self) -> u32 {
        (self.rings.len() - 1) as u32
    }

    /// Whether cell `(ring, seg)` holds a point.
    #[cfg(test)]
    pub fn occupied(&self, ring: u32, seg: u64) -> bool {
        self.rings[ring as usize][(seg / 64) as usize] >> (seg % 64) & 1 == 1
    }

    /// Coarsens a level-`t` occupancy into level `t - 1`: the new inner
    /// disk absorbs the old inner disk and old ring 1; every other new
    /// cell is the union of an aligned pair one ring further out.
    pub fn coarsen(&mut self) {
        debug_assert!(self.level() >= 1);
        let inner = (self.rings[0][0] | self.rings[1][0]) != 0;
        self.rings.remove(0);
        self.rings[0] = vec![u64::from(inner)];
        for ring in &mut self.rings[1..] {
            halve(ring);
        }
    }

    /// Whether every **active** non-outermost cell is occupied. Active =
    /// the cell or any cell in its outward cone is occupied. Ring 0 is
    /// exempt: the source sits at the pole and acts as its
    /// representative.
    ///
    /// The active set is folded inward ring by ring — ring `i` is its own
    /// occupancy plus the pair-OR of ring `i + 1`'s active set — and the
    /// check stops at the first active, unoccupied cell.
    pub fn feasible(&self) -> bool {
        let t = self.rings.len() - 1;
        if t <= 1 {
            return true;
        }
        let mut active = self.rings[t].clone();
        for occ in self.rings[1..t].iter().rev() {
            halve(&mut active);
            for (a, &o) in active.iter_mut().zip(occ) {
                if *a & !o != 0 {
                    return false;
                }
                *a |= o;
            }
        }
        true
    }
}

/// Selects the largest feasible number of rings `k ≤ k_max`.
///
/// Feasibility is monotone (coarsening a feasible grid stays feasible), so
/// a downward scan with pairwise coarsening finds the maximum in
/// `O(n + 2^k_max / 64)` word operations.
pub(crate) fn select_rings(a: &Assignments) -> u32 {
    let mut occ = RingBits::finest(a);
    while occ.level() > 0 && !occ.feasible() {
        occ.coarsen();
    }
    occ.level()
}

/// Buckets points into the cells of a level-`k` grid as a CSR structure:
/// `counts[c]..counts[c + 1]` indexes the members of cell `c` in the
/// returned member list, and within a cell the members keep their input
/// order (a stable counting sort). Consumes the assignments: the first
/// pass overwrites each point's ring with its cell index, which the
/// scatter then reads.
///
/// The ids are split into `threads` contiguous ranges, one histogram per
/// range. The cursor of range `t` in cell `c` starts after cell `c`'s
/// members from ranges `< t`, so the parallel scatter lands every id where
/// the sequential one would: the result is the same for every thread
/// count. A partition of at most [`SOA_CHUNK`] points runs inline, as one
/// range.
pub(crate) fn bucket_cells(mut a: Assignments, k: u32, threads: usize) -> (Vec<u32>, Vec<u32>) {
    let (n, k_max) = (a.len(), a.k_max);
    let cells = cell_count(k);
    let parts = if n <= SOA_CHUNK { 1 } else { threads.max(1) };
    let range_len = n.div_ceil(parts).max(1);
    let (ring, path) = a.columns_mut();
    let mut ranges: Vec<(&mut [u32], &[u32])> = ring
        .chunks_mut(range_len)
        .zip(path.chunks(range_len))
        .collect();
    let mut cursors: Vec<Vec<u32>> =
        omt_par::par_map_indexed_mut(&mut ranges, parts, |_, (ring, path)| {
            let mut hist = vec![0u32; cells];
            for (r, &p) in ring.iter_mut().zip(path.iter()) {
                let (cr, cs) = coarse_cell(k_max, k, *r, p);
                let c = cell_index(cr, cs);
                *r = c as u32;
                hist[c] += 1;
            }
            hist
        });
    // Turn the histograms into per-range cursors, cell by cell in range
    // order, while accumulating the cell offsets.
    let mut counts = vec![0u32; cells + 1];
    let mut next = 0u32;
    for c in 0..cells {
        counts[c] = next;
        for cursor in &mut cursors {
            let members = cursor[c];
            cursor[c] = next;
            next += members;
        }
    }
    counts[cells] = next;
    let members: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let mut work: Vec<(usize, &[u32], Vec<u32>)> = ranges
        .into_iter()
        .enumerate()
        .zip(cursors)
        .map(|((t, (cell, _)), cursor)| (t * range_len, &*cell, cursor))
        .collect();
    omt_par::par_map_indexed_mut(&mut work, parts, |_, (base, cell, cursor)| {
        for (p, &c) in cell.iter().enumerate() {
            let slot = &mut cursor[c as usize];
            members[*slot as usize].store((*base + p) as u32, Relaxed);
            *slot += 1;
        }
    });
    drop(work);
    (
        counts,
        members.into_iter().map(AtomicU32::into_inner).collect(),
    )
}

/// The point columns in cell-major order: position `pos` of every column
/// describes point `ids[pos]`, so the counting-sort window
/// `counts[c]..counts[c + 1]` of cell `c` is one contiguous slice of each
/// column, and per-cell work reads its window sequentially instead of
/// gathering through permuted ids.
#[derive(Debug)]
pub(crate) struct CellMajor<const C: usize> {
    /// The point id at each position (the counting-sort member order).
    pub ids: Vec<u32>,
    /// The gathered columns: `cols[c][pos] = source[c][ids[pos]]`.
    pub cols: [Vec<f64>; C],
}

impl<const C: usize> CellMajor<C> {
    /// Gathers `columns` into the order of `ids`, in parallel over
    /// disjoint output chunks of [`SOA_CHUNK`] positions.
    pub fn gather(ids: Vec<u32>, columns: [&[f64]; C], threads: usize) -> Self {
        let n = ids.len();
        let mut cols: [Vec<f64>; C] = core::array::from_fn(|_| vec![0.0; n]);
        {
            let mut chunks: Vec<(usize, [&mut [f64]; C])> = Vec::new();
            let mut rest = cols.each_mut().map(|c| &mut c[..]);
            let mut base = 0;
            while base < n {
                let len = SOA_CHUNK.min(n - base);
                let mut heads = rest.map(|c| c.split_at_mut(len));
                chunks.push((base, heads.each_mut().map(|h| core::mem::take(&mut h.0))));
                rest = heads.map(|h| h.1);
                base += len;
            }
            omt_par::par_map_indexed_mut(&mut chunks, threads, |_, (base, outs)| {
                let ids = &ids[*base..*base + outs[0].len()];
                for (out, column) in outs.iter_mut().zip(columns) {
                    for (o, &id) in out.iter_mut().zip(ids) {
                        *o = column[id as usize];
                    }
                }
            });
        }
        Self { ids, cols }
    }

    /// Rows `s..e` of every column.
    pub fn window(&self, s: usize, e: usize) -> [&[f64]; C] {
        self.cols.each_ref().map(|c| &c[s..e])
    }

    /// Order-preserving removal: moves position `pos` to `end - 1` and
    /// shifts `pos + 1..end` down by one, in the ids and every column.
    pub fn rotate_to_back(&mut self, pos: usize, end: usize) {
        self.ids[pos..end].rotate_left(1);
        for col in &mut self.cols {
            col[pos..end].rotate_left(1);
        }
    }

    /// Swaps positions `a` and `b` in the ids and every column.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.ids.swap(a, b);
        for col in &mut self.cols {
            col.swap(a, b);
        }
    }
}

/// The finest level to assign at, given `n` points: the largest `k` that
/// could possibly be feasible (`2^k - 1` non-outermost cells cannot all be
/// occupied with fewer points), capped at 31 so angular paths fit in `u32`.
///
/// The cap is value-identical to the historical `u64`-path cap of 60 for
/// every `n < 2^31` — far beyond the arena's `u32` id space anyway — so the
/// golden radii are unaffected.
pub(crate) fn finest_level(n: usize) -> u32 {
    if n == 0 {
        return 0;
    }
    let k = (usize::BITS - n.leading_zeros()).saturating_sub(1) + 1; // ceil(log2(n)) + 1-ish
    k.min(31)
}

/// The shell radii of the `k`-ring grid over a `D`-ball of radius `rho`:
/// `rho · 2^(-(k-i)/D)` for `i = 0..=k`, the last being `rho` itself.
pub(crate) fn shells<const D: usize>(k: u32, rho: f64) -> Vec<f64> {
    (0..=k)
        .map(|i| rho * 2f64.powf(-((k - i) as f64) / D as f64))
        .collect()
}

/// The ring of radius `r` on a grid of `dim`-dimensional equal-volume
/// shells with boundary radii `circle[0..=k]`, where `circle[i] =
/// ρ·2^(-(k-i)/dim)` and `circle[k] = ρ`: 0 below `circle[0]`, `k` at or
/// beyond `circle[k]`, otherwise the `i` with `circle[i-1] <= r <
/// circle[i]` (a NaN radius lands in ring 1).
///
/// The starting guess `k + ⌊log2((r/ρ)^dim)⌋ + 1` is read from the
/// exponent field of `(r/ρ)^dim`, which is `<= 1` here, so no logarithm is
/// taken. The two walks against the (increasing) table then decide the
/// result alone, whatever the guess: it is exactly a linear scan of
/// `circle`, and the guess only keeps the walks to a step or two.
#[inline]
pub(crate) fn locate_ring(circle: &[f64], dim: i32, r: f64) -> u32 {
    let k = circle.len() - 1;
    if k == 0 || r < circle[0] {
        return 0;
    }
    if r >= circle[k] {
        return k as u32;
    }
    if r.is_nan() {
        return 1;
    }
    let x = (r / circle[k]).powi(dim);
    let log2 = ((x.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    let mut ring = (k as i64 + 1 + log2).clamp(1, k as i64) as usize;
    while ring > 1 && r < circle[ring - 1] {
        ring -= 1;
    }
    while ring < k && r >= circle[ring] {
        ring += 1;
    }
    ring as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds assignments directly from (ring, path) pairs.
    fn asg(k_max: u32, cells: &[(u32, u64)]) -> Assignments {
        Assignments::from_columns(
            k_max,
            cells.iter().map(|c| c.0).collect(),
            cells
                .iter()
                .map(|c| {
                    // `path` stores the angular bits left-aligned to k_max:
                    // a point on ring r with segment s has path = s << (k_max - r).
                    if c.0 == 0 {
                        0
                    } else {
                        (c.1 << (k_max - c.0)) as u32
                    }
                })
                .collect(),
        )
    }

    /// The linear-scan oracle for [`locate_ring`]: the number of inner
    /// circles `circle[0..k]` at or below `r` (a NaN radius is in ring 1
    /// when `k >= 1`).
    fn scan_ring(circle: &[f64], r: f64) -> u32 {
        let k = circle.len() - 1;
        if r.is_nan() {
            return k.min(1) as u32;
        }
        circle[..k].iter().filter(|&&c| c <= r).count() as u32
    }

    /// Every probe radius for a table: each circle and one ulp to either
    /// side, plus zero, the smallest positive values, just below and at
    /// `ρ`, beyond it, and the non-finite values.
    fn probes(circle: &[f64]) -> Vec<f64> {
        let rho = circle[circle.len() - 1];
        let mut rs = vec![
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            rho.next_down(),
            rho,
            rho.next_up(),
            2.0 * rho,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for &c in circle {
            rs.extend([c.next_down(), c, c.next_up()]);
        }
        rs
    }

    #[test]
    fn locate_ring_matches_a_linear_scan() {
        use crate::{PolarGrid2, SphereGrid3};
        let rhos = [1.0, 0.7, 1.3e300, 1e-300, 7.1e-301];
        let mut checked = 0usize;
        for k in 0..=60u32 {
            for rho in rhos {
                let g2 = PolarGrid2::new(k, rho);
                let g3 = SphereGrid3::new(k, rho);
                let tables: [(i32, Vec<f64>); 4] = [
                    (2, (0..=k).map(|i| g2.circle_radius(i)).collect()),
                    (3, (0..=k).map(|i| g3.shell_radius(i)).collect()),
                    (4, shells::<4>(k, rho)),
                    (5, shells::<5>(k, rho)),
                ];
                for (dim, table) in &tables {
                    assert!(
                        table.windows(2).all(|w| w[0] < w[1]),
                        "dim {dim} k {k} rho {rho}: table not increasing"
                    );
                    for r in probes(table) {
                        let want = scan_ring(table, r);
                        let got = match dim {
                            2 => g2.ring_of_radius(r),
                            3 => g3.ring_of_radius(r),
                            _ => locate_ring(table, *dim, r),
                        };
                        assert_eq!(got, want, "dim {dim} k {k} rho {rho} r {r:e}");
                        assert_eq!(locate_ring(table, *dim, r), want);
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100_000, "{checked} probes");
    }

    #[test]
    fn cell_index_layout() {
        assert_eq!(cell_index(0, 0), 0);
        assert_eq!(cell_index(1, 0), 1);
        assert_eq!(cell_index(1, 1), 2);
        assert_eq!(cell_index(2, 0), 3);
        assert_eq!(cell_index(3, 7), 14);
        assert_eq!(cell_count(3), 15);
        for ring in 0..8u32 {
            for seg in 0..(1u64 << ring) {
                assert_eq!(cell_at_index(cell_index(ring, seg)), (ring, seg));
            }
        }
    }

    #[test]
    fn cell_at_coarsens_correctly() {
        // k_max = 3; a point on ring 3, segment 6 (binary 110).
        let a = asg(3, &[(3, 6)]);
        assert_eq!(a.cell_at(0, 3), (3, 6));
        // One level coarser: ring 2, segment 3 (top 2 bits of 110).
        assert_eq!(a.cell_at(0, 2), (2, 3));
        assert_eq!(a.cell_at(0, 1), (1, 1));
        // At k = 0 everything is the inner disk.
        assert_eq!(a.cell_at(0, 0), (0, 0));
    }

    #[test]
    fn inner_rings_collapse_to_disk() {
        let a = asg(4, &[(1, 1)]);
        assert_eq!(a.cell_at(0, 4), (1, 1));
        assert_eq!(a.cell_at(0, 3), (0, 0));
    }

    #[test]
    fn full_grid_is_feasible_at_finest() {
        // Occupy every cell of a k=2 grid (rings 1 and 2 fully).
        let mut cells = vec![(0u32, 0u64)];
        for j in 0..2 {
            cells.push((1, j));
        }
        for j in 0..4 {
            cells.push((2, j));
        }
        let a = asg(2, &cells);
        assert_eq!(select_rings(&a), 2);
    }

    #[test]
    fn hole_forces_coarsening() {
        // k_max = 2: ring 1 has segments {0} only, but ring 2 segment 3
        // (whose ring-1 ancestor is segment 1) is occupied -> ring-1 hole
        // under an active cone -> must coarsen to k = 1.
        let a = asg(2, &[(1, 0), (2, 3)]);
        assert_eq!(select_rings(&a), 1);
        let mut occ = RingBits::finest(&a);
        assert!(!occ.feasible());
        occ.coarsen();
        assert!(occ.feasible());
        // At k = 1: the old ring-1 points are in the inner disk; the old
        // ring-2 segment 3 becomes ring-1 segment 1.
        assert_eq!(occ.level(), 1);
        assert!(occ.occupied(0, 0));
        assert!(occ.occupied(1, 1));
        assert!(!occ.occupied(1, 0));
    }

    #[test]
    fn inactive_holes_are_allowed() {
        // Ring 1 segment 1 is empty AND nothing lies outward of it: the
        // grid is still feasible at k = 2 because the cell is inactive.
        let a = asg(2, &[(1, 0), (2, 0), (2, 1)]);
        assert_eq!(select_rings(&a), 2);
    }

    #[test]
    fn outermost_ring_may_have_holes() {
        // Full ring 1, partially empty ring 2 (outermost): feasible at k=2.
        let a = asg(2, &[(1, 0), (1, 1), (2, 2)]);
        assert_eq!(select_rings(&a), 2);
    }

    #[test]
    fn single_point_selects_k1() {
        let a = asg(3, &[(3, 5)]);
        // Rings 1 and 2 are on the point's active chain but empty, so the
        // grid coarsens until only the (exempt) inner disk is interior.
        assert_eq!(select_rings(&a), 1);
        let mut occ = RingBits::finest(&a);
        occ.coarsen();
        occ.coarsen();
        assert!(occ.occupied(1, 1)); // 5 >> 2 == 1
        assert!(!occ.occupied(1, 0));
        assert!(!occ.occupied(0, 0));
    }

    #[test]
    fn empty_input() {
        let a = Assignments::from_columns(0, vec![], vec![]);
        assert_eq!(select_rings(&a), 0);
        let occ = RingBits::finest(&a);
        assert_eq!(occ.level(), 0);
        assert!(!occ.occupied(0, 0));
    }

    #[test]
    fn coarsen_merges_pairs() {
        // Level 2 occupancy with ring-2 segments 2 and 3 occupied.
        let mut occ = RingBits::finest(&asg(2, &[(2, 2), (2, 3)]));
        occ.coarsen();
        assert_eq!(occ.level(), 1);
        assert!(occ.occupied(1, 1));
        assert!(!occ.occupied(1, 0));
        assert!(!occ.occupied(0, 0));
        // Ring-1 and inner-disk occupancy folds into the new inner disk.
        let mut occ = RingBits::finest(&asg(2, &[(1, 1)]));
        occ.coarsen();
        assert!(occ.occupied(0, 0));
        // Ring 8 spans four words; its cells 127/128 straddle a word
        // boundary and land in ring-7 cells 63/64, on either side of the
        // coarser ring's own word boundary.
        let mut occ = RingBits::finest(&asg(8, &[(8, 127), (8, 128), (8, 255), (7, 3)]));
        occ.coarsen();
        assert_eq!(occ.level(), 7);
        let set: Vec<u64> = (0..128).filter(|&s| occ.occupied(7, s)).collect();
        assert_eq!(set, [63, 64, 127]);
        assert_eq!((0..64).filter(|&s| occ.occupied(6, s)).count(), 1);
        assert!(occ.occupied(6, 1));
    }

    #[test]
    fn feasibility_is_monotone_under_coarsening() {
        // Random-ish occupancy patterns: once feasible, stays feasible.
        let patterns: Vec<Vec<(u32, u64)>> = vec![
            vec![(3, 0), (3, 7), (2, 1), (1, 0), (1, 1), (2, 2)],
            vec![(3, 1), (3, 2), (3, 3)],
            vec![(2, 0), (2, 1), (2, 2), (2, 3), (1, 0), (1, 1)],
        ];
        for cells in patterns {
            let a = asg(3, &cells);
            let mut occ = RingBits::finest(&a);
            let mut seen_feasible = false;
            while occ.level() > 0 {
                let f = occ.feasible();
                if seen_feasible {
                    assert!(f, "feasibility must be monotone");
                }
                seen_feasible |= f;
                occ.coarsen();
            }
            assert!(seen_feasible);
        }
    }

    /// Pseudo-random assignments over the full cell range of a level-`k_max`
    /// grid (hash-based, no RNG dependency).
    fn scrambled_assignments(n: usize, k_max: u32, salt: u64) -> Assignments {
        let mut ring = Vec::with_capacity(n);
        let mut path = Vec::with_capacity(n);
        for p in 0..n as u64 {
            // SplitMix64 finalizer: well-mixed, deterministic.
            let mut z = p.wrapping_add(salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let r = (z % (k_max as u64 + 1)) as u32;
            ring.push(r);
            path.push(if r == 0 {
                0
            } else {
                (((z >> 8) % (1u64 << r)) << (k_max - r)) as u32
            });
        }
        Assignments::from_columns(k_max, ring, path)
    }

    /// Every point in one finest-level cell (ring `k_max`, segment 1).
    fn one_cell_assignments(n: usize, k_max: u32) -> Assignments {
        Assignments::from_columns(k_max, vec![k_max; n], vec![1; n])
    }

    /// Buckets at 1, 2, 3 and 4 threads, asserts the four results are
    /// identical, and returns that result.
    fn bucket_at_every_thread_count(a: &Assignments, k: u32) -> (Vec<u32>, Vec<u32>) {
        let inline = bucket_cells(a.clone(), k, 1);
        for threads in 2..=4 {
            assert!(
                bucket_cells(a.clone(), k, threads) == inline,
                "n {} k {k}: threads {threads} differ from inline",
                a.len()
            );
        }
        inline
    }

    /// Point counts past one pre-pass chunk, so the threaded partition
    /// splits the ids into several ranges (at 3 threads, uneven ones).
    const LARGE: usize = SOA_CHUNK + 4_097;

    #[test]
    fn bucket_cells_offsets_partition_everything() {
        // The counting-sort invariants the SoA construction path relies on:
        // `counts` is a monotone prefix array starting at 0 and ending at n,
        // so the per-cell windows `[counts[c], counts[c+1])` are sorted,
        // disjoint, and cover the whole member array.
        let cases = [
            (scrambled_assignments(0, 4, 1), 2u32),
            (scrambled_assignments(1, 5, 2), 3),
            (scrambled_assignments(257, 6, 3), 4),
            (scrambled_assignments(5000, 8, 4), 6),
            (scrambled_assignments(LARGE, 12, 5), 10),
            (one_cell_assignments(LARGE, 12), 10),
        ];
        for (a, k) in &cases {
            let n = a.len();
            let (counts, members) = bucket_at_every_thread_count(a, *k);
            assert_eq!(counts.len(), cell_count(*k) + 1);
            assert_eq!(counts[0], 0);
            assert_eq!(*counts.last().unwrap() as usize, n);
            assert!(
                counts.windows(2).all(|w| w[0] <= w[1]),
                "offsets must be non-decreasing"
            );
            let total: usize = (0..cell_count(*k))
                .map(|c| (counts[c + 1] - counts[c]) as usize)
                .sum();
            assert_eq!(total, n, "cell occupancies must sum to n");
            assert_eq!(members.len(), n);
        }
    }

    #[test]
    fn bucket_cells_members_form_a_stable_permutation() {
        let cases = [
            (scrambled_assignments(4096, 6, 99), 5u32),
            (scrambled_assignments(LARGE, 11, 98), 9),
            (one_cell_assignments(LARGE, 11), 9),
        ];
        for (a, k) in &cases {
            let (n, k) = (a.len(), *k);
            let (counts, members) = bucket_at_every_thread_count(a, k);
            // A permutation of 0..n...
            let mut seen = vec![false; n];
            for &m in &members {
                assert!(!seen[m as usize], "duplicate member {m}");
                seen[m as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
            // ...where every member sits in the window of its own cell, and
            // the scatter is stable: within a cell, point indices stay in
            // input order (the first-minimum tie rules of the in-cell
            // picks, and so the pinned trees, depend on it).
            for c in 0..cell_count(k) {
                let window = &members[counts[c] as usize..counts[c + 1] as usize];
                assert!(
                    window.windows(2).all(|w| w[0] < w[1]),
                    "cell {c}: members not in input order"
                );
                for &p in window {
                    let (r, s) = a.cell_at(p as usize, k);
                    assert_eq!(cell_index(r, s), c, "member {p} bucketed into wrong cell");
                }
            }
        }
    }

    #[test]
    fn finest_level_grows_with_n() {
        assert_eq!(finest_level(0), 0);
        assert!(finest_level(1) >= 1);
        assert!(finest_level(100) >= 6);
        assert!(finest_level(1 << 20) >= 20);
        assert!(finest_level(usize::MAX / 2) <= 31, "paths must fit u32");
    }
}

#[cfg(test)]
mod brute_force_tests {
    use super::*;
    use omt_rng::rngs::SmallRng;
    use omt_rng::{RngExt, SeedableRng};

    /// Assignments placing one point in each listed finest-level cell.
    fn assignments(k_max: u32, cells: &[(u32, u64)]) -> Assignments {
        Assignments::from_columns(
            k_max,
            cells.iter().map(|c| c.0).collect(),
            cells
                .iter()
                .map(|&(r, s)| if r == 0 { 0 } else { (s << (k_max - r)) as u32 })
                .collect(),
        )
    }

    /// Feasibility by direct definition: at level `t`, every non-outermost
    /// cell whose outward cone contains a point must itself contain one.
    fn feasible_brute(a: &Assignments, t: u32) -> bool {
        if t <= 1 {
            return true;
        }
        let occupied =
            |ring: u32, seg: u64| -> bool { (0..a.len()).any(|p| a.cell_at(p, t) == (ring, seg)) };
        for ring in 1..t {
            for seg in 0..(1u64 << ring) {
                // Outward cone: all cells (r', s') with r' >= ring whose
                // ancestor chain passes through (ring, seg), plus the cell
                // itself.
                let cone_occupied = (0..a.len()).any(|p| {
                    let (r, s) = a.cell_at(p, t);
                    r >= ring && (s >> (r - ring)) == seg
                });
                if cone_occupied && !occupied(ring, seg) {
                    return false;
                }
            }
        }
        true
    }

    /// Exhaustive check of select_rings against the brute-force definition
    /// over every small assignment pattern.
    #[test]
    fn select_rings_matches_brute_force_exhaustively() {
        let k_max = 3u32;
        // Enumerate all multisets of up to 3 cells out of the 15 cells of a
        // k=3 grid (with repetition patterns covered by pairs).
        let cells: Vec<(u32, u64)> = {
            let mut v = vec![(0u32, 0u64)];
            for ring in 1..=k_max {
                for seg in 0..(1u64 << ring) {
                    v.push((ring, seg));
                }
            }
            v
        };
        let mut checked = 0;
        for i in 0..cells.len() {
            for j in i..cells.len() {
                for k in j..cells.len() {
                    let a = assignments(k_max, &[cells[i], cells[j], cells[k]]);
                    let selected = select_rings(&a);
                    // Selected level must be feasible...
                    assert!(
                        feasible_brute(&a, selected),
                        "selected {selected} infeasible for {:?}",
                        (cells[i], cells[j], cells[k])
                    );
                    // ...and maximal.
                    for higher in (selected + 1)..=k_max {
                        assert!(
                            !feasible_brute(&a, higher),
                            "higher level {higher} was feasible for {:?}",
                            (cells[i], cells[j], cells[k])
                        );
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 15 * 16 * 17 / 6); // C(15+2, 3) patterns
    }

    /// A uniformly random cell of a level-`k_max` grid.
    fn uniform_cell(rng: &mut SmallRng, k_max: u32) -> (u32, u64) {
        let c = rng.random_range(0..cell_count(k_max) as u64) + 1;
        let ring = 63 - c.leading_zeros();
        (ring, c - (1 << ring))
    }

    /// Seeded random assignments with `k_max` up to 10, so the rings past
    /// 6 span several 64-bit words: at every level the bitset occupancy
    /// and feasibility verdict must match the brute-force definition, and
    /// `select_rings` must return the largest feasible level. Three
    /// shapes: uniform over all cells, a narrow cone behind one ancestor
    /// cell, and uniform with one finest-level cell emptied.
    #[test]
    fn select_rings_matches_brute_force_on_random_assignments() {
        let mut rng = SmallRng::seed_from_u64(0x6b73_656c);
        let mut feasible_multiword = 0;
        for case in 0..42u32 {
            let k_max = 4 + case % 7;
            let n = rng.random_range(1..=400usize);
            let cells: Vec<(u32, u64)> = match case % 3 {
                0 => (0..n).map(|_| uniform_cell(&mut rng, k_max)).collect(),
                1 => {
                    let m = rng.random_range(1..=k_max.min(5));
                    let prefix = rng.random_range(0..1u64 << m);
                    (0..n)
                        .map(|_| {
                            let r = rng.random_range(0..=k_max);
                            let seg = if r < m {
                                prefix >> (m - r)
                            } else {
                                (prefix << (r - m)) | rng.random_range(0..1u64 << (r - m))
                            };
                            (r, seg)
                        })
                        .collect()
                }
                _ => {
                    let hole_ring = rng.random_range(1..k_max);
                    let hole = (hole_ring, rng.random_range(0..1u64 << hole_ring));
                    (0..n)
                        .map(|_| uniform_cell(&mut rng, k_max))
                        .filter(|&c| c != hole)
                        .collect()
                }
            };
            let a = assignments(k_max, &cells);
            let mut occ = RingBits::finest(&a);
            let mut selected = None;
            for t in (0..=k_max).rev() {
                assert_eq!(occ.level(), t);
                let occupied: std::collections::HashSet<(u32, u64)> =
                    (0..a.len()).map(|p| a.cell_at(p, t)).collect();
                for ring in 0..=t {
                    for seg in 0..(1u64 << ring) {
                        assert_eq!(
                            occ.occupied(ring, seg),
                            occupied.contains(&(ring, seg)),
                            "case {case}: cell ({ring}, {seg}) at level {t}"
                        );
                    }
                }
                let want = feasible_brute(&a, t);
                assert_eq!(occ.feasible(), want, "case {case}: level {t} of {k_max}");
                if want && selected.is_none() {
                    selected = Some(t);
                    if t >= 7 {
                        feasible_multiword += 1;
                    }
                }
                if t > 0 {
                    occ.coarsen();
                }
            }
            assert_eq!(Some(select_rings(&a)), selected, "case {case}");
        }
        assert!(
            feasible_multiword > 0,
            "no case selected a level with multi-word rings"
        );
    }
}
