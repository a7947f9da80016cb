//! Ring-count (`k`) selection for polar grids, shared by the 2-D and 3-D
//! algorithms.
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

/// Per-point finest-level grid assignments plus the finest level itself.
#[derive(Clone, Debug)]
pub(crate) struct Assignments {
    /// The finest grid level the points were assigned at.
    pub k_max: u32,
    /// Finest ring index per point, in `[0, k_max]`.
    pub ring: Vec<u32>,
    /// Angular bit path per point; only the top `min(ring, m)` bits are
    /// meaningful when reading a segment at a ring with `2^m` segments.
    ///
    /// Stored as `u32`: [`finest_level`] caps `k_max` at 31, so every path
    /// fits — and at million-scale this array is one of the two largest
    /// transient allocations of the build, so halving its width matters.
    pub path: Vec<u32>,
}

impl Assignments {
    /// The (ring, segment) cell of point `p` at grid level `k ≤ k_max`.
    #[inline]
    pub fn cell_at(&self, p: usize, k: u32) -> (u32, u64) {
        let d = self.k_max - k;
        let r = self.ring[p].saturating_sub(d);
        let seg = if r == 0 {
            0
        } else {
            // r >= 1 and k_max <= 31, so the shift is at most 30.
            u64::from(self.path[p] >> (self.k_max - r))
        };
        (r, seg)
    }
}

/// Flat index of cell `(ring, seg)` within a `k`-level grid: the inner disk
/// is 0, ring `i` occupies the range `[2^i - 1, 2^(i+1) - 1)`.
#[inline]
pub(crate) fn cell_index(ring: u32, seg: u64) -> usize {
    ((1u64 << ring) - 1 + seg) as usize
}

/// Number of cells of the `k`-level grid.
#[inline]
pub(crate) fn cell_count(k: u32) -> usize {
    ((1u64 << (k + 1)) - 1) as usize
}

/// Builds the occupancy bitmap of the `k_max`-level grid.
fn finest_occupancy(a: &Assignments) -> Vec<bool> {
    let mut occ = vec![false; cell_count(a.k_max)];
    for p in 0..a.ring.len() {
        let (r, s) = a.cell_at(p, a.k_max);
        occ[cell_index(r, s)] = true;
    }
    occ
}

/// Coarsens a level-`t` occupancy bitmap into level `t - 1`:
/// the new inner disk absorbs the old inner disk and old ring 1; every other
/// new cell is the union of an aligned pair one ring further out.
fn coarsen(occ: &[bool], t: u32) -> Vec<bool> {
    debug_assert_eq!(occ.len(), cell_count(t));
    debug_assert!(t >= 1);
    let mut out = vec![false; cell_count(t - 1)];
    out[0] = occ[0] || occ[1] || occ[2];
    for i in 1..t {
        for j in 0..(1u64 << i) {
            let merged = occ[cell_index(i + 1, 2 * j)] || occ[cell_index(i + 1, 2 * j + 1)];
            out[cell_index(i, j)] = merged;
        }
    }
    out
}

/// Whether every **active** non-outermost cell of a level-`t` grid is
/// occupied. Active = the cell or any cell in its outward cone is occupied.
/// Ring 0 is exempt: the source sits at the pole and acts as its
/// representative.
fn feasible(occ: &[bool], t: u32) -> bool {
    if t <= 1 {
        return true;
    }
    // Compute active flags bottom-up: a cell is active if occupied or
    // either aligned child on the next ring is active.
    let mut active = occ.to_vec();
    for i in (1..t).rev() {
        for j in 0..(1u64 << i) {
            let idx = cell_index(i, j);
            active[idx] = active[idx]
                || active[cell_index(i + 1, 2 * j)]
                || active[cell_index(i + 1, 2 * j + 1)];
        }
    }
    for i in 1..t {
        for j in 0..(1u64 << i) {
            let idx = cell_index(i, j);
            if active[idx] && !occ[idx] {
                return false;
            }
        }
    }
    true
}

/// Selects the largest feasible number of rings `k ≤ k_max`, together with
/// the occupancy bitmap at that level.
///
/// Feasibility is monotone (coarsening a feasible grid stays feasible), so
/// a downward scan with pairwise coarsening finds the maximum in
/// `O(n + 2^k_max)`.
pub(crate) fn select_rings(a: &Assignments) -> (u32, Vec<bool>) {
    let mut occ = finest_occupancy(a);
    let mut t = a.k_max;
    while t > 0 {
        if feasible(&occ, t) {
            return (t, occ);
        }
        occ = coarsen(&occ, t);
        t -= 1;
    }
    (0, occ)
}

/// Buckets points into the cells of a level-`k` grid as a CSR structure:
/// `counts[c]..counts[c + 1]` indexes the members of cell `c` in the
/// returned member list.
pub(crate) fn bucket_cells(a: &Assignments, k: u32) -> (Vec<u32>, Vec<u32>) {
    let n = a.ring.len();
    let cells = cell_count(k);
    let mut counts = vec![0u32; cells + 1];
    let mut point_cell = vec![0u32; n];
    for (p, slot) in point_cell.iter_mut().enumerate() {
        let (r, s) = a.cell_at(p, k);
        let idx = cell_index(r, s);
        *slot = idx as u32;
        counts[idx + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let mut members = vec![0u32; n];
    let mut cursor = counts.clone();
    for (p, &cell) in point_cell.iter().enumerate() {
        let c = cell as usize;
        members[cursor[c] as usize] = p as u32;
        cursor[c] += 1;
    }
    (counts, members)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds assignments directly from (ring, path) pairs.
    fn asg(k_max: u32, cells: &[(u32, u64)]) -> Assignments {
        Assignments {
            k_max,
            ring: cells.iter().map(|c| c.0).collect(),
            path: cells
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
        }
    }

    #[test]
    fn cell_index_layout() {
        assert_eq!(cell_index(0, 0), 0);
        assert_eq!(cell_index(1, 0), 1);
        assert_eq!(cell_index(1, 1), 2);
        assert_eq!(cell_index(2, 0), 3);
        assert_eq!(cell_index(3, 7), 14);
        assert_eq!(cell_count(3), 15);
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
        let (k, _) = select_rings(&a);
        assert_eq!(k, 2);
    }

    #[test]
    fn hole_forces_coarsening() {
        // k_max = 2: ring 1 has segments {0} only, but ring 2 segment 3
        // (whose ring-1 ancestor is segment 1) is occupied -> ring-1 hole
        // under an active cone -> must coarsen to k = 1.
        let a = asg(2, &[(1, 0), (2, 3)]);
        let (k, occ) = select_rings(&a);
        assert_eq!(k, 1);
        // At k = 1: the old ring-1 points are in the inner disk; the old
        // ring-2 segment 3 becomes ring-1 segment 1.
        assert!(occ[cell_index(0, 0)]);
        assert!(occ[cell_index(1, 1)]);
    }

    #[test]
    fn inactive_holes_are_allowed() {
        // Ring 1 segment 1 is empty AND nothing lies outward of it: the
        // grid is still feasible at k = 2 because the cell is inactive.
        let a = asg(2, &[(1, 0), (2, 0), (2, 1)]);
        let (k, _) = select_rings(&a);
        assert_eq!(k, 2);
    }

    #[test]
    fn outermost_ring_may_have_holes() {
        // Full ring 1, partially empty ring 2 (outermost): feasible at k=2.
        let a = asg(2, &[(1, 0), (1, 1), (2, 2)]);
        let (k, _) = select_rings(&a);
        assert_eq!(k, 2);
    }

    #[test]
    fn single_point_selects_k1() {
        let a = asg(3, &[(3, 5)]);
        let (k, occ) = select_rings(&a);
        // Rings 1 and 2 are on the point's active chain but empty, so the
        // grid coarsens until only the (exempt) inner disk is interior.
        assert_eq!(k, 1);
        assert!(occ[cell_index(1, 1)]); // 5 >> 2 == 1
    }

    #[test]
    fn empty_input() {
        let a = Assignments {
            k_max: 0,
            ring: vec![],
            path: vec![],
        };
        let (k, occ) = select_rings(&a);
        assert_eq!(k, 0);
        assert_eq!(occ.len(), 1);
        assert!(!occ[0]);
    }

    #[test]
    fn coarsen_merges_pairs() {
        // Level 2 occupancy with ring-2 segments 2 and 3 occupied.
        let mut occ = vec![false; cell_count(2)];
        occ[cell_index(2, 2)] = true;
        occ[cell_index(2, 3)] = true;
        let out = coarsen(&occ, 2);
        assert!(out[cell_index(1, 1)]);
        assert!(!out[cell_index(1, 0)]);
        assert!(!out[0]);
        // Ring-1 and inner-disk occupancy folds into the new inner disk.
        let mut occ = vec![false; cell_count(2)];
        occ[cell_index(1, 1)] = true;
        let out = coarsen(&occ, 2);
        assert!(out[0]);
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
            let mut occ = finest_occupancy(&a);
            let mut t = 3;
            let mut seen_feasible = false;
            while t > 0 {
                let f = feasible(&occ, t);
                if seen_feasible {
                    assert!(f, "feasibility must be monotone");
                }
                seen_feasible |= f;
                occ = coarsen(&occ, t);
                t -= 1;
            }
            assert!(seen_feasible || t == 0);
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
                ((z >> 8) % (1u64 << r) << (k_max - r)) as u32
            });
        }
        Assignments { k_max, ring, path }
    }

    #[test]
    fn bucket_cells_offsets_partition_everything() {
        // The counting-sort invariants the SoA construction path relies on:
        // `counts` is a monotone prefix array starting at 0 and ending at n,
        // so the per-cell windows `[counts[c], counts[c+1])` are sorted,
        // disjoint, and cover the whole member array.
        for (n, k, salt) in [(0usize, 2u32, 1u64), (1, 3, 2), (257, 4, 3), (5000, 6, 4)] {
            let a = scrambled_assignments(n, k + 2, salt);
            let (counts, members) = bucket_cells(&a, k);
            assert_eq!(counts.len(), cell_count(k) + 1);
            assert_eq!(counts[0], 0);
            assert_eq!(*counts.last().unwrap() as usize, n);
            assert!(
                counts.windows(2).all(|w| w[0] <= w[1]),
                "offsets must be non-decreasing"
            );
            let total: usize = (0..cell_count(k))
                .map(|c| (counts[c + 1] - counts[c]) as usize)
                .sum();
            assert_eq!(total, n, "cell occupancies must sum to n");
            assert_eq!(members.len(), n);
        }
    }

    #[test]
    fn bucket_cells_members_form_a_stable_permutation() {
        let n = 4096;
        let k = 5;
        let a = scrambled_assignments(n, k + 1, 99);
        let (counts, members) = bucket_cells(&a, k);
        // A permutation of 0..n...
        let mut seen = vec![false; n];
        for &m in &members {
            assert!(!seen[m as usize], "duplicate member {m}");
            seen[m as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // ...where every member sits in the window of its own cell, and the
        // scatter is stable: within a cell, point indices stay in input
        // order (the first-minimum tie rules of the in-cell picks, and so
        // the pinned trees, depend on it).
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

    /// Feasibility by direct definition: at level `t`, every non-outermost
    /// cell whose outward cone contains a point must itself contain one.
    fn feasible_brute(a: &Assignments, t: u32) -> bool {
        if t <= 1 {
            return true;
        }
        let occupied = |ring: u32, seg: u64| -> bool {
            (0..a.ring.len()).any(|p| a.cell_at(p, t) == (ring, seg))
        };
        for ring in 1..t {
            for seg in 0..(1u64 << ring) {
                // Outward cone: all cells (r', s') with r' >= ring whose
                // ancestor chain passes through (ring, seg), plus the cell
                // itself.
                let cone_occupied = (0..a.ring.len()).any(|p| {
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
        let mk = |chosen: &[(u32, u64)]| -> Assignments {
            Assignments {
                k_max,
                ring: chosen.iter().map(|c| c.0).collect(),
                path: chosen
                    .iter()
                    .map(|c| {
                        if c.0 == 0 {
                            0
                        } else {
                            (c.1 << (k_max - c.0)) as u32
                        }
                    })
                    .collect(),
            }
        };
        let mut checked = 0;
        for i in 0..cells.len() {
            for j in i..cells.len() {
                for k in j..cells.len() {
                    let a = mk(&[cells[i], cells[j], cells[k]]);
                    let (selected, _) = select_rings(&a);
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
}
