//! Tree construction: the one implementation of top-down attachment,
//! its validation, delay arithmetic and the CSR finish.
//!
//! [`TreeArena`] preallocates one 20-byte row per node in one shot from
//! `n`, so no allocation happens per attachment. It holds no coordinates:
//! each attachment passes the points it connects, and the finished tree's
//! one `Vec<Point<D>>` is handed over at finish time
//! ([`TreeArena::into_tree`]), after the rows are freed.
//!
//! Every builder in the workspace goes through it. [`crate::TreeBuilder`]
//! is a thin owner of its point vector plus one arena, filled with rows in
//! point-id order and finished with the identity order; the million-scale
//! grid builders fill an arena directly, in their own row order and in
//! parallel, and gather the points from their store at the finish's
//! points stage.
//!
//! # Rows are positions
//!
//! Rows are not point ids. A caller fills the arena in whatever row order
//! suits its memory traffic — the grid builders use the cell-major
//! counting-sort order, so every cell's attachments touch one contiguous run
//! of rows — and hands [`TreeArena::into_tree`] the row → point-id order
//! once, at the end. Each attachment names the child and parent by row,
//! passes both points (the arena reads no coordinates during the fill), and
//! stores the parent's *point id*, so the finished parent array needs no
//! translation pass. A caller that fills rows in id order passes the
//! identity order.
//!
//! A row packs the node's words into five `u32`s — parent id, the two halves
//! of the depth's `f64` bits, hop count, out-degree — so an attachment reads
//! one parent row and writes one child row. Inputs beyond the `u32` id space
//! are rejected up front by [`check_node_capacity`].
//!
//! # Shared-reference parallel fill
//!
//! The row words are atomics and every access uses `Relaxed` ordering. This
//! is not for synchronization — cross-thread visibility comes entirely from
//! the spawn/join edges of `std::thread::scope` in `omt-par` — but to let
//! disjoint regions of one arena be filled concurrently through `&self` in
//! 100% safe Rust ([`TreeArena::attach_parallel`],
//! [`TreeArena::attach_to_source_parallel`]). On mainstream hardware a
//! relaxed atomic load/store compiles to the same plain move as a
//! non-atomic access, so the sequential path pays nothing. Callers of the
//! parallel methods own the partitioning argument: concurrent attachments
//! must target disjoint child rows and never share a parent row. Getting
//! that wrong produces nondeterministic links — caught by the golden and
//! validation suites — but never undefined behavior, because no `unsafe`
//! is involved (`omt-tree` is `#![forbid(unsafe_code)]`).
//!
//! The finished parent, depth, hop and CSR arrays depend only on the edge
//! set and the points, not on the row order or the attachment order, so a
//! fill in any row order gives the tree of the same edges attached by
//! point id. The golden construction pins in `omt-core`
//! (`tests/construction_golden.rs`) fix the trees the builders make with
//! it, across thread counts.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use omt_geom::Point;

use crate::error::TreeError;
use crate::tree::{MulticastTree, NodeId, SOURCE_PARENT};

/// Largest node count a [`TreeArena`] supports: `u32::MAX - 1`.
///
/// Ids live in [`NodeId`] (`u32`) with `NodeId::MAX`
/// reserved as the no-node/source sentinel, and cumulative CSR offsets
/// reach `n`, so `n` itself must stay strictly below the sentinel.
pub const MAX_NODES: usize = (u32::MAX - 1) as usize;

/// Checks that `n` nodes fit the arena's `u32` id space.
///
/// Grid builders call this before allocating anything so oversized inputs
/// surface as a typed error instead of wrapped ids.
///
/// # Errors
///
/// Returns [`TreeError::CapacityExceeded`] if `n > MAX_NODES`.
pub fn check_node_capacity(n: usize) -> Result<(), TreeError> {
    if n > MAX_NODES {
        Err(TreeError::CapacityExceeded {
            nodes: n,
            max: MAX_NODES,
        })
    } else {
        Ok(())
    }
}

/// One node's words: 20 bytes, so an attachment touches one parent row and
/// one child row. `hops == 0` exactly for unattached rows — every
/// attachment sets `hops >= 1` — so no separate flag is carried.
#[derive(Debug, Default)]
struct Row {
    /// The parent's point id (`SOURCE_PARENT` = the source).
    parent: AtomicU32,
    /// Low half of the source-to-node delay's `f64` bits.
    depth_lo: AtomicU32,
    /// High half of the source-to-node delay's `f64` bits.
    depth_hi: AtomicU32,
    hops: AtomicU32,
    out_degree: AtomicU32,
}

impl Row {
    fn depth(&self) -> f64 {
        let lo = u64::from(self.depth_lo.load(Relaxed));
        let hi = u64::from(self.depth_hi.load(Relaxed));
        f64::from_bits(hi << 32 | lo)
    }

    fn set_depth(&self, d: f64) {
        let bits = d.to_bits();
        self.depth_lo.store(bits as u32, Relaxed);
        self.depth_hi.store((bits >> 32) as u32, Relaxed);
    }

    fn is_attached(&self) -> bool {
        self.hops.load(Relaxed) > 0
    }
}

impl Clone for Row {
    fn clone(&self) -> Self {
        let copy = |a: &AtomicU32| AtomicU32::new(a.load(Relaxed));
        Self {
            parent: copy(&self.parent),
            depth_lo: copy(&self.depth_lo),
            depth_hi: copy(&self.depth_hi),
            hops: copy(&self.hops),
            out_degree: copy(&self.out_degree),
        }
    }
}

/// Splits `s` into consecutive chunks of the lengths of `ranges`, which
/// tile `0..s.len()` in order.
fn split_ranges<'s, T>(mut s: &'s mut [T], ranges: &[(usize, usize)]) -> Vec<&'s mut [T]> {
    ranges
        .iter()
        .map(|&(a, b)| {
            let (head, tail) = core::mem::take(&mut s).split_at_mut(b - a);
            s = tail;
            head
        })
        .collect()
}

/// Runs `f` on every part: the first on the calling thread, each other on
/// a scoped thread of its own (joined before returning).
fn for_each_part<T: Send>(parts: Vec<T>, f: impl Fn(T) + Sync) {
    std::thread::scope(|scope| {
        let mut parts = parts.into_iter();
        let first = parts.next();
        for part in parts {
            let f = &f;
            scope.spawn(move || f(part));
        }
        if let Some(part) = first {
            f(part);
        }
    });
}

/// The three stages of [`TreeArena::into_tree`], in the order they run,
/// for callers that time them ([`TreeArena::into_tree_staged`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinishStage {
    /// Inverting the row order and gathering the rows into id order.
    Permute,
    /// Taking over the tree's points (the grid builders gather them from
    /// their store here).
    Points,
    /// Scattering children into the CSR child list.
    Csr,
}

/// Preallocated, allocation-free-per-attachment tree builder whose rows
/// are filled in a caller-chosen order and mapped to point ids once, in
/// [`TreeArena::into_tree`].
///
/// The arena keeps a parent array's bookkeeping and nothing else: the CSR
/// child layout produced by [`TreeArena::into_tree`] is derived from the
/// parent array alone, so no child list is maintained while the tree grows.
/// [`crate::TreeBuilder`] wraps one arena whose rows are the point ids.
///
/// Disjoint regions of one arena can be filled concurrently through shared
/// references — see the [module docs](crate::arena) for the contract and
/// [`TreeArena::attach_parallel`] for the entry point.
///
/// # Examples
///
/// Rows in reverse id order: row 0 holds point 1, row 1 holds point 0.
///
/// ```
/// use omt_tree::TreeArena;
/// use omt_geom::Point2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let points = vec![Point2::new([1.0, 0.0]), Point2::new([1.0, 1.0])];
/// let mut arena = TreeArena::new(Point2::ORIGIN, 2).max_out_degree(2);
/// arena.attach_to_source(1, points[0])?;
/// arena.attach(0, points[1], 1, 0, points[0])?;
/// let tree = arena.into_tree(vec![1, 0], points)?;
/// assert_eq!(tree.len(), 2);
/// assert_eq!(tree.children(0), &[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TreeArena<const D: usize> {
    source: Point<D>,
    rows: Vec<Row>,
    source_out_degree: AtomicU32,
    max_out_degree: Option<u32>,
    attached_count: usize,
}

impl<const D: usize> Clone for TreeArena<D> {
    fn clone(&self) -> Self {
        Self {
            source: self.source,
            rows: self.rows.clone(),
            source_out_degree: AtomicU32::new(self.source_out_degree.load(Relaxed)),
            max_out_degree: self.max_out_degree,
            attached_count: self.attached_count,
        }
    }
}

impl<const D: usize> TreeArena<D> {
    /// Creates an arena for a tree of `n` receiver nodes rooted at
    /// `source`, with one row per node.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_NODES`] (builders that accept untrusted
    /// sizes should call [`check_node_capacity`] first and surface the
    /// typed error).
    #[must_use]
    pub fn new(source: Point<D>, n: usize) -> Self {
        assert!(
            check_node_capacity(n).is_ok(),
            "node count {n} exceeds the arena's u32 id space (max {MAX_NODES})"
        );
        Self {
            source,
            rows: (0..n).map(|_| Row::default()).collect(),
            source_out_degree: AtomicU32::new(0),
            max_out_degree: None,
            attached_count: 0,
        }
    }

    /// Sets the maximum out-degree enforced on every node including the
    /// source. Unset means unbounded.
    #[must_use]
    pub fn max_out_degree(mut self, bound: u32) -> Self {
        self.max_out_degree = Some(bound);
        self
    }

    /// How many nodes have been attached so far.
    ///
    /// The parallel attachment methods do not update this counter (it would
    /// be the one contended word in an otherwise coordination-free fill);
    /// after a parallel phase the driver folds in the statically known
    /// attachment count via [`TreeArena::add_attached`].
    #[must_use]
    pub fn attached_count(&self) -> usize {
        self.attached_count
    }

    /// Records `n` attachments performed through the parallel methods.
    ///
    /// The spanning check in [`TreeArena::into_tree`] trusts this total, so
    /// callers must pass exactly the number of successful
    /// [`TreeArena::attach_parallel`] / [`TreeArena::attach_to_source_parallel`]
    /// calls since the last update.
    pub fn add_attached(&mut self, n: usize) {
        self.attached_count += n;
    }

    /// Whether row `row` has been attached.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn is_attached(&self, row: usize) -> bool {
        self.rows[row].is_attached()
    }

    /// The source position.
    #[must_use]
    pub fn source(&self) -> Point<D> {
        self.source
    }

    /// Current delay from the source to the node in row `row`, if attached.
    #[must_use]
    pub fn depth_of(&self, row: usize) -> Option<f64> {
        self.rows
            .get(row)
            .filter(|r| r.is_attached())
            .map(Row::depth)
    }

    /// Remaining out-degree budget of the node in row `row` (`None` if
    /// unbounded).
    ///
    /// # Panics
    ///
    /// Panics if the budget is bounded and `row` is out of range.
    #[must_use]
    pub fn remaining_degree(&self, row: usize) -> Option<u32> {
        self.max_out_degree
            .map(|b| b.saturating_sub(self.rows[row].out_degree.load(Relaxed)))
    }

    /// Remaining out-degree budget of the source (`None` if unbounded).
    #[must_use]
    pub fn remaining_source_degree(&self) -> Option<u32> {
        self.max_out_degree
            .map(|b| b.saturating_sub(self.source_out_degree.load(Relaxed)))
    }

    fn check_index(&self, row: usize) -> Result<(), TreeError> {
        if row >= self.rows.len() {
            Err(TreeError::NodeOutOfRange {
                index: row,
                len: self.rows.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Attaches the node in row `child`, at `child_point`, directly to the
    /// source.
    ///
    /// # Errors
    ///
    /// Fails, in this order, if the row is out of range, the child is
    /// already attached, or the source's degree budget is exhausted.
    /// Indices in errors are rows.
    pub fn attach_to_source(
        &mut self,
        child: usize,
        child_point: Point<D>,
    ) -> Result<(), TreeError> {
        self.attach_to_source_parallel(child, child_point)?;
        self.attached_count += 1;
        Ok(())
    }

    /// Attaches the node in row `child`, at `child_point`, under the node in
    /// row `parent`, whose point id is `parent_id` and position
    /// `parent_point`.
    ///
    /// # Errors
    ///
    /// Fails, in this order, if either row is out of range (the child's
    /// first), `child == parent`, the child is already attached, the parent
    /// is not attached yet (construction is top-down), or the parent's
    /// degree budget is exhausted. Indices in errors are rows.
    pub fn attach(
        &mut self,
        child: usize,
        child_point: Point<D>,
        parent: usize,
        parent_id: NodeId,
        parent_point: Point<D>,
    ) -> Result<(), TreeError> {
        self.attach_parallel(child, child_point, parent, parent_id, parent_point)?;
        self.attached_count += 1;
        Ok(())
    }

    /// Attaches the node in row `child` directly to the source through a
    /// shared reference, for use inside a parallel fill.
    ///
    /// Identical to [`TreeArena::attach_to_source`] — same validation order,
    /// same stores, same floating-point expressions — except that
    /// [`TreeArena::attached_count`] is not updated (see
    /// [`TreeArena::add_attached`]). Concurrent callers must partition the
    /// work so that at most one thread attaches children to the source; the
    /// grid builders satisfy this by giving the whole ring-0 cell to a
    /// single job.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TreeArena::attach_to_source`].
    pub fn attach_to_source_parallel(
        &self,
        child: usize,
        child_point: Point<D>,
    ) -> Result<(), TreeError> {
        self.check_index(child)?;
        let row = &self.rows[child];
        if row.is_attached() {
            return Err(TreeError::AlreadyAttached { index: child });
        }
        if let Some(bound) = self.max_out_degree {
            if self.source_out_degree.load(Relaxed) >= bound {
                return Err(TreeError::DegreeExceeded {
                    parent: None,
                    max_out_degree: bound,
                });
            }
        }
        self.source_out_degree
            .store(self.source_out_degree.load(Relaxed) + 1, Relaxed);
        row.parent.store(SOURCE_PARENT, Relaxed);
        row.set_depth(self.source.distance(&child_point));
        row.hops.store(1, Relaxed);
        Ok(())
    }

    /// Attaches the node in row `child` under the node in row `parent`
    /// through a shared reference, for use inside a parallel fill.
    ///
    /// Identical to [`TreeArena::attach`] — same validation order, same
    /// stores, same floating-point expressions — except that
    /// [`TreeArena::attached_count`] is not updated (see
    /// [`TreeArena::add_attached`]). Concurrent callers own the
    /// disjointness argument: no two threads may attach the same child row,
    /// and no two threads may concurrently attach children under the same
    /// parent row (each attachment reads and writes the parent's degree).
    /// The grid builders satisfy both by construction — every cell job's
    /// write set is its own counting-sort window of rows plus that window's
    /// already-attached local root, and windows are disjoint. A violated
    /// contract yields nondeterministic links (caught by the golden
    /// suites), never undefined behavior.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TreeArena::attach`].
    pub fn attach_parallel(
        &self,
        child: usize,
        child_point: Point<D>,
        parent: usize,
        parent_id: NodeId,
        parent_point: Point<D>,
    ) -> Result<(), TreeError> {
        self.check_index(child)?;
        self.check_index(parent)?;
        if child == parent {
            return Err(TreeError::SelfLoop { index: child });
        }
        let (c, p) = (&self.rows[child], &self.rows[parent]);
        if c.is_attached() {
            return Err(TreeError::AlreadyAttached { index: child });
        }
        if !p.is_attached() {
            return Err(TreeError::ParentNotAttached { parent });
        }
        let degree = p.out_degree.load(Relaxed);
        if let Some(bound) = self.max_out_degree {
            if degree >= bound {
                return Err(TreeError::DegreeExceeded {
                    parent: Some(parent),
                    max_out_degree: bound,
                });
            }
        }
        p.out_degree.store(degree + 1, Relaxed);
        c.parent.store(parent_id, Relaxed);
        c.set_depth(p.depth() + parent_point.distance(&child_point));
        c.hops.store(p.hops.load(Relaxed) + 1, Relaxed);
        Ok(())
    }

    /// Finalizes the tree: `order[row]` is the point id of row `row`, a
    /// permutation of `0..n`, and `points[id]` the position of point `id`.
    /// See [`TreeArena::into_tree_staged`].
    ///
    /// # Errors
    ///
    /// Fails with [`TreeError::NotSpanning`] if any node is unattached;
    /// `first` is the smallest unattached point id.
    ///
    /// # Panics
    ///
    /// Panics if `order` or `points` does not have one entry per row.
    pub fn into_tree(
        self,
        order: Vec<NodeId>,
        points: Vec<Point<D>>,
    ) -> Result<MulticastTree<D>, TreeError> {
        self.into_tree_staged(order, 1, || points, |_| ())
    }

    /// [`TreeArena::into_tree`] with the permute and CSR stages split over
    /// up to `threads` scoped threads, the points produced by `points` at the
    /// points stage, and `stage` called as each [`FinishStage`] begins,
    /// what it returns dropped when the stage ends (the grid builders
    /// return a phase-span guard). The tree is the same for every thread
    /// count.
    ///
    /// Peak memory at finish time is the binding constraint at n in the
    /// millions, so the conversion is sequenced to keep transients minimal:
    ///
    /// 1. *Permute.* The inverse of `order` is built in the buffer that
    ///    becomes the CSR offsets, and `order`'s buffer is reused for the
    ///    id-ordered parent array. One descending
    ///    sweep over point ids then gathers each id's row into the
    ///    id-ordered parent, depth and hop arrays and writes its out-degree
    ///    to offset slot `id + 2` — which, in descending order, has always
    ///    been read as the inverse of `id + 2` already. The rows are freed.
    ///    With several threads, each owns one range of ids: it fills that
    ///    range of the inverse, scanning the whole order for its ids, and
    ///    runs the sweep over it, reading the range's first two rows up
    ///    front (their slots belong to the range below).
    /// 2. *Points.* `points` is called, once the rows are freed: the grid
    ///    builders gather their store's coordinate columns into the tree's
    ///    point vector here, the one full point copy of their path, and
    ///    [`crate::TreeBuilder`] moves its own vector in.
    /// 3. *CSR.* The children are scattered using the offset array itself
    ///    as the cursor (restored with a one-slot shift) instead of a
    ///    cloned cursor array. With several threads, each owns one range of
    ///    parent slots, cut at about equal child counts, and with it one
    ///    range of the child list and of the cursors: it scans the whole
    ///    parent array and writes its own slots' children, in id order.
    ///
    /// # Errors
    ///
    /// As [`TreeArena::into_tree`].
    ///
    /// # Panics
    ///
    /// As [`TreeArena::into_tree`].
    pub fn into_tree_staged<G>(
        self,
        order: Vec<NodeId>,
        threads: usize,
        points: impl FnOnce() -> Vec<Point<D>>,
        mut stage: impl FnMut(FinishStage) -> G,
    ) -> Result<MulticastTree<D>, TreeError> {
        let Self {
            source,
            rows,
            source_out_degree,
            attached_count,
            ..
        } = self;
        let n = rows.len();
        assert_eq!(order.len(), n, "the row order must name one point per row");
        if attached_count != n {
            let first = rows
                .iter()
                .zip(&order)
                .filter(|(row, _)| !row.is_attached())
                .map(|(_, &id)| id as usize)
                .min()
                .expect("some node is unattached");
            return Err(TreeError::NotSpanning {
                unattached: n - attached_count,
                first,
            });
        }

        let permute = stage(FinishStage::Permute);
        let parts = threads.clamp(1, n.max(1));
        let ranges: Vec<(usize, usize)> = (0..parts)
            .map(|t| (t * n / parts, (t + 1) * n / parts))
            .collect();
        // CSR slot 0 is the source, slot i+1 is node i; before the prefix
        // sum, child_offsets[s + 1] holds slot s's out-degree. Until the
        // sweep overwrites it, slot `id` holds the row of point `id`. Each
        // thread owns one id range of the inverse and scans the whole
        // order for its ids, so the random writes need no atomics and
        // stay within one range.
        let mut child_offsets = vec![0u32; n + 2];
        let inverse = ranges
            .iter()
            .zip(split_ranges(&mut child_offsets[..n], &ranges))
            .collect();
        for_each_part(inverse, |(&(a, _), slots)| {
            for (row, &id) in order.iter().enumerate() {
                if let Some(slot) = slots.get_mut((id as usize).wrapping_sub(a)) {
                    *slot = row as u32;
                }
            }
        });
        // The order is spent: its buffer becomes the id-ordered parent
        // array, which the sweep overwrites.
        let mut parent = order;
        let mut depth = vec![0.0f64; n];
        let mut hops = vec![0u32; n];
        {
            let heads: Vec<[u32; 2]> = ranges
                .iter()
                .map(|&(a, _)| [child_offsets[a], child_offsets[a + 1]])
                .collect();
            // Range [a, b) owns slots a + 2..b + 2 and the id-ordered
            // entries a..b.
            let work = heads
                .into_iter()
                .zip(split_ranges(&mut child_offsets[2..], &ranges))
                .zip(split_ranges(&mut parent, &ranges))
                .zip(split_ranges(&mut depth, &ranges))
                .zip(split_ranges(&mut hops, &ranges))
                .collect();
            let rows = &rows;
            for_each_part(work, |((((head, slots), parent), depth), hops)| {
                for k in (0..slots.len()).rev() {
                    let row = &rows[if k < 2 { head[k] } else { slots[k - 2] } as usize];
                    parent[k] = row.parent.load(Relaxed);
                    depth[k] = row.depth();
                    hops[k] = row.hops.load(Relaxed);
                    slots[k] = row.out_degree.load(Relaxed);
                }
            });
        }
        drop(rows);
        child_offsets[0] = 0;
        child_offsets[1] = source_out_degree.load(Relaxed);
        for i in 1..child_offsets.len() {
            child_offsets[i] += child_offsets[i - 1];
        }
        drop(permute);

        let points_stage = stage(FinishStage::Points);
        let points = points();
        assert_eq!(points.len(), n, "the tree needs one point per row");
        drop(points_stage);

        let _csr = stage(FinishStage::Csr);
        // Scatter children using child_offsets[0..=n] as in-place cursors,
        // one range of parent slots per thread (step 3 above). Each thread
        // visits the children in id order, so every child list is
        // ascending for every thread count.
        let mut child_list = vec![0u32; n];
        let cut = |t: usize| match t {
            0 => 0,
            t if t == parts => n + 1,
            t => child_offsets[..=n].partition_point(|&o| (o as usize) < t * n / parts),
        };
        let slot_ranges: Vec<(usize, usize)> = (0..parts).map(|t| (cut(t), cut(t + 1))).collect();
        // Slot range [a, b) owns the children child_offsets[a]..child_offsets[b].
        let list_ranges: Vec<(usize, usize)> = slot_ranges
            .iter()
            .map(|&(a, b)| (child_offsets[a] as usize, child_offsets[b] as usize))
            .collect();
        let scatter = slot_ranges
            .iter()
            .zip(split_ranges(&mut child_offsets[..=n], &slot_ranges))
            .zip(list_ranges.iter())
            .zip(split_ranges(&mut child_list, &list_ranges))
            .collect();
        let parent_ids = &parent;
        for_each_part(scatter, |(((&(a, _), cursors), &(base, _)), list)| {
            for (child, &p) in parent_ids.iter().enumerate() {
                let slot = if p == SOURCE_PARENT {
                    0
                } else {
                    p as usize + 1
                };
                if let Some(cursor) = cursors.get_mut(slot.wrapping_sub(a)) {
                    list[*cursor as usize - base] = child as u32;
                    *cursor += 1;
                }
            }
        });
        // After the scatter, cursor[slot] == original offsets[slot + 1] for
        // every slot in 0..=n, so shifting right by one restores the offset
        // array exactly, without a cloned cursor.
        child_offsets.copy_within(0..n + 1, 1);
        child_offsets[0] = 0;
        Ok(MulticastTree {
            source,
            points,
            parent,
            depth,
            hops,
            child_offsets,
            child_list,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;
    use omt_geom::Point2;

    fn points(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new([i as f64 + 1.0, (i as f64 * 0.5) - 1.0]))
            .collect()
    }

    /// Row orders to fill in: the identity and a fixed shuffle
    /// (`37` is coprime to every `n` used here).
    fn orders(n: usize) -> [Vec<NodeId>; 2] {
        [
            (0..n as NodeId).collect(),
            (0..n).map(|r| ((r * 37 + 11) % n) as NodeId).collect(),
        ]
    }

    /// `inverse[id]` is the row of point `id` under `order`.
    fn inverse(order: &[NodeId]) -> Vec<usize> {
        let mut inv = vec![0; order.len()];
        for (row, &id) in order.iter().enumerate() {
            inv[id as usize] = row;
        }
        inv
    }

    /// Filling the rows in a shuffled order, and splitting the finish over
    /// 2 or 3 threads, gives the tree of the identity-order fill finished
    /// on one thread, bit for bit.
    #[test]
    fn shuffled_rows_and_split_finish_match_identity_order() {
        let pts = points(8);
        // A mixed attachment schedule by point id: sources, chains, fans.
        let schedule: &[(usize, Option<usize>)] = &[
            (3, None),
            (0, Some(3)),
            (5, Some(3)),
            (1, Some(0)),
            (2, None),
            (4, Some(2)),
            (6, Some(4)),
            (7, Some(3)),
        ];
        let fill = |order: &[NodeId]| {
            let row = inverse(order);
            let mut arena = TreeArena::new(Point2::ORIGIN, 8).max_out_degree(3);
            for &(child, parent) in schedule {
                match parent {
                    None => arena.attach_to_source(row[child], pts[child]).unwrap(),
                    Some(p) => arena
                        .attach(row[child], pts[child], row[p], p as NodeId, pts[p])
                        .unwrap(),
                }
            }
            arena
        };
        let [identity, shuffled] = orders(8);
        let expected = fill(&identity)
            .into_tree(identity.clone(), pts.clone())
            .unwrap();
        for order in [identity, shuffled] {
            let row = inverse(&order);
            let arena = fill(&order);
            for (id, &r) in row.iter().enumerate() {
                assert_eq!(
                    arena.depth_of(r).map(f64::to_bits),
                    Some(expected.depth(id).to_bits())
                );
            }
            // The permute stage splits over id ranges (at 3 threads, of
            // 2 and 3 ids); every split gives the same tree.
            for threads in 1..=3 {
                let tree =
                    arena
                        .clone()
                        .into_tree_staged(order.clone(), threads, || pts.clone(), |_| ());
                assert_eq!(tree.unwrap(), expected, "threads {threads}");
            }
        }
    }

    /// The finish split over 2 to 4 threads gives the 1-thread tree under
    /// skewed fan-in, in id row order and a shuffled one: every child under
    /// the source (so every part but the first owns no child), one hub
    /// holding more than half of the children, and a random recursive
    /// tree. Every child list stays ascending by id.
    #[test]
    fn split_finish_matches_one_thread_under_skewed_fan_in() {
        let n = 40;
        let pts = points(n);
        let shapes: [fn(usize) -> Option<usize>; 3] = [
            |_| None,
            |i| (i != 7 && i % 4 != 0).then_some(7),
            |i| (i > 0).then(|| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize % i),
        ];
        for (shape, parent_of) in shapes.iter().enumerate() {
            for order in orders(n) {
                let row = inverse(&order);
                // Rounds in id order, each attaching the nodes whose parent
                // is attached.
                let mut arena = TreeArena::new(Point2::ORIGIN, n);
                let mut pending: Vec<usize> = (0..n).collect();
                while !pending.is_empty() {
                    pending.retain(|&id| match parent_of(id) {
                        None => {
                            arena.attach_to_source(row[id], pts[id]).unwrap();
                            false
                        }
                        Some(p) if arena.is_attached(row[p]) => {
                            arena
                                .attach(row[id], pts[id], row[p], p as NodeId, pts[p])
                                .unwrap();
                            false
                        }
                        Some(_) => true,
                    });
                }
                let finish = |threads| {
                    arena
                        .clone()
                        .into_tree_staged(order.clone(), threads, || pts.clone(), |_| ())
                        .unwrap()
                };
                let expected = finish(1);
                for id in 0..n {
                    assert!(expected.children(id).windows(2).all(|w| w[0] < w[1]));
                }
                for threads in 2..=4 {
                    assert_eq!(finish(threads), expected, "shape {shape} threads {threads}");
                }
            }
        }
    }

    /// Under a permutation, `NotSpanning::first` names the smallest
    /// unattached *point id*, not the first unattached row.
    #[test]
    fn not_spanning_reports_the_smallest_unattached_point_id() {
        let pts = points(8);
        let [_, order] = orders(8);
        let row = inverse(&order);
        let mut arena = TreeArena::new(Point2::ORIGIN, 8);
        // Leave points 2 and 5 unattached.
        for id in [0, 1, 3, 4, 6, 7] {
            arena.attach_to_source(row[id], pts[id]).unwrap();
        }
        assert!(
            row[5] < row[2],
            "the shuffle puts point 5 in an earlier row"
        );
        assert_eq!(
            arena.into_tree(order, pts),
            Err(TreeError::NotSpanning {
                unattached: 2,
                first: 2
            })
        );
    }

    #[test]
    fn no_per_attachment_allocation_in_node_arrays() {
        let pts = points(32);
        let mut arena = TreeArena::new(Point2::ORIGIN, 32);
        let rows_ptr = arena.rows.as_ptr();
        assert_eq!(core::mem::size_of::<Row>(), 20, "one 20-byte row per node");
        arena.attach_to_source(0, pts[0]).unwrap();
        for i in 1..32 {
            arena
                .attach(i, pts[i], i - 1, (i - 1) as NodeId, pts[i - 1])
                .unwrap();
        }
        assert_eq!(arena.rows.as_ptr(), rows_ptr);
        assert_eq!(arena.rows.capacity(), 32);
        assert_eq!(arena.attached_count(), 32);
    }

    /// The parallel attachment methods, run from actual threads over
    /// disjoint child windows of rows, produce a tree bit-identical to
    /// `TreeBuilder` attaching the same edges by point id — in id row order
    /// and in a shuffled one, with the finish on one thread or several.
    #[test]
    fn parallel_fill_matches_sequential_bit_for_bit() {
        let pts = points(64);
        // 4 source children, each the parent of a window of 15 descendants
        // attached as a chain-of-fans. Windows are ranges of rows.
        let windows: Vec<(usize, Vec<usize>)> = (0..4)
            .map(|w| (w, ((4 + w * 15)..(4 + (w + 1) * 15)).collect()))
            .collect();
        let parent_row = |w: usize, members: &[usize], j: usize| {
            if j == 0 {
                w
            } else {
                members[(j - 1) / 2]
            }
        };
        for order in orders(64) {
            let id = |row: usize| order[row] as usize;
            let mut builder = TreeBuilder::new(Point2::ORIGIN, pts.clone()).max_out_degree(8);
            for w in 0..4 {
                builder.attach_to_source(id(w)).unwrap();
            }
            for (w, members) in &windows {
                for (j, &m) in members.iter().enumerate() {
                    builder
                        .attach(id(m), id(parent_row(*w, members, j)))
                        .unwrap();
                }
            }
            let sequential = builder.finish().unwrap();

            let mut arena = TreeArena::new(Point2::ORIGIN, 64).max_out_degree(8);
            for w in 0..4 {
                arena.attach_to_source(w, pts[id(w)]).unwrap();
            }
            std::thread::scope(|scope| {
                for (w, members) in &windows {
                    let (arena, pts, id) = (&arena, &pts, &id);
                    scope.spawn(move || {
                        for (j, &m) in members.iter().enumerate() {
                            let p = parent_row(*w, members, j);
                            arena
                                .attach_parallel(m, pts[id(m)], p, id(p) as NodeId, pts[id(p)])
                                .unwrap();
                        }
                    });
                }
            });
            arena.add_attached(60);
            assert_eq!(arena.attached_count(), 64);
            for threads in [1, 2, 4] {
                let parallel = arena
                    .clone()
                    .into_tree_staged(order.clone(), threads, || pts.clone(), |_| ())
                    .unwrap();
                assert_eq!(parallel, sequential, "threads {threads}");
                for i in 0..64 {
                    assert_eq!(parallel.depth(i).to_bits(), sequential.depth(i).to_bits());
                }
            }
        }
    }

    #[test]
    fn finish_stages_run_in_order() {
        let pts = points(2);
        let mut arena = TreeArena::new(Point2::ORIGIN, 2);
        arena.attach_to_source(0, pts[1]).unwrap();
        arena.attach(1, pts[0], 0, 1, pts[1]).unwrap();
        let seen = std::cell::RefCell::new(Vec::new());
        let tree = arena
            .into_tree_staged(
                vec![1, 0],
                1,
                || {
                    // The points are taken inside their own stage.
                    assert_eq!(*seen.borrow(), [FinishStage::Permute, FinishStage::Points]);
                    pts.clone()
                },
                |s| seen.borrow_mut().push(s),
            )
            .unwrap();
        assert_eq!(
            seen.into_inner(),
            [FinishStage::Permute, FinishStage::Points, FinishStage::Csr]
        );
        assert_eq!(tree.children(1), &[0]);
    }

    #[test]
    fn capacity_guard_rejects_oversized_inputs() {
        assert_eq!(check_node_capacity(0), Ok(()));
        assert_eq!(check_node_capacity(MAX_NODES), Ok(()));
        // One past the cap, and the sentinel value itself, are both typed
        // errors — never a wrapped id.
        for n in [MAX_NODES + 1, u32::MAX as usize, u32::MAX as usize + 7] {
            assert_eq!(
                check_node_capacity(n),
                Err(TreeError::CapacityExceeded {
                    nodes: n,
                    max: MAX_NODES
                })
            );
        }
    }

    #[test]
    #[should_panic(expected = "one point per row")]
    fn unequal_point_count_rejected() {
        let pts = points(2);
        let mut arena = TreeArena::new(Point2::ORIGIN, 2);
        arena.attach_to_source(0, pts[0]).unwrap();
        arena.attach_to_source(1, pts[1]).unwrap();
        let _ = arena.into_tree(vec![0, 1], pts[..1].to_vec());
    }

    #[test]
    fn empty_arena_finishes_to_empty_tree() {
        let arena = TreeArena::<2>::new(Point2::ORIGIN, 0);
        let tree = arena.into_tree(Vec::new(), Vec::new()).unwrap();
        assert_eq!(tree.len(), 0);
    }
}
