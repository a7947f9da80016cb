//! Arena-style tree construction over borrowed coordinate arrays.
//!
//! [`TreeArena`] is the million-scale twin of [`crate::TreeBuilder`]: instead of
//! owning a `Vec<Point<D>>`, it borrows one flat `f64` slice per coordinate
//! axis (the structure-of-arrays layout of `omt_geom::PointStore2` /
//! `PointStore3`) and preallocates every per-node array —
//! `parent`/`depth`/`hops`/`out_degree` — in one shot from `n`. No
//! allocation happens per attachment, and the only full `Vec<Point<D>>` copy
//! is materialized once, at [`TreeArena::into_tree`] time, when the finished
//! [`MulticastTree`] needs to own its geometry.
//!
//! Every link array holds [`NodeId`](crate::NodeId) (`u32`) values, so the
//! arena carries three 4-byte words plus one 8-byte depth word per node
//! (20 bytes); inputs beyond the `u32` id space are rejected up front by
//! [`check_node_capacity`].
//!
//! # Shared-reference parallel fill
//!
//! The per-node arrays are stored as atomics (`AtomicU32`, plus `AtomicU64`
//! holding `f64` bits for depths) and every access uses `Relaxed` ordering.
//! This is not for synchronization — cross-thread visibility comes entirely
//! from the spawn/join edges of `std::thread::scope` in `omt-par` — but to
//! let disjoint regions of one arena be filled concurrently through `&self`
//! in 100% safe Rust ([`TreeArena::attach_parallel`],
//! [`TreeArena::attach_to_source_parallel`]). On mainstream hardware a
//! relaxed atomic load/store compiles to the same plain move as a
//! non-atomic access, so the sequential path pays nothing. Callers of the
//! parallel methods own the partitioning argument: concurrent attachments
//! must target disjoint child sets and never share a parent row. Getting
//! that wrong produces nondeterministic links — caught by the parity and
//! validation suites — but never undefined behavior, because no `unsafe`
//! is involved (`omt-tree` is `#![forbid(unsafe_code)]`).
//!
//! The attachment semantics — validation order, error variants, degree
//! accounting, and the floating-point expressions for delays — are mirrored
//! from [`crate::TreeBuilder`] operation-for-operation, so a sequence of
//! attachments performed against a `TreeArena` produces a tree bit-identical
//! to the same sequence against a `TreeBuilder` over the same coordinates.
//! The golden construction pins in `omt-core`
//! (`tests/construction_golden.rs`) fix the trees the grid builders make
//! with it, across thread counts.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

use omt_geom::Point;

use crate::error::TreeError;
use crate::tree::{MulticastTree, SOURCE_PARENT};

/// Largest node count a [`TreeArena`] supports: `u32::MAX - 1`.
///
/// Ids live in [`NodeId`](crate::NodeId) (`u32`) with `NodeId::MAX`
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

fn clone_atomic_u32(v: &[AtomicU32]) -> Vec<AtomicU32> {
    v.iter().map(|a| AtomicU32::new(a.load(Relaxed))).collect()
}

/// Preallocated, allocation-free-per-attachment tree builder over borrowed
/// structure-of-arrays coordinates.
///
/// `coords[d][i]` is the `d`-th Cartesian coordinate of receiver `i`; all
/// `D` slices must have equal length. Unlike [`crate::TreeBuilder`] there is no
/// per-node `Point` storage: points are reassembled on demand from the
/// borrowed columns.
///
/// The arena keeps the parent-array bookkeeping of `TreeBuilder` and
/// nothing else: the CSR child layout produced by [`TreeArena::into_tree`]
/// is derived from the parent array alone, exactly like
/// [`crate::TreeBuilder::finish`], so no child list is maintained while
/// the tree grows.
///
/// Disjoint regions of one arena can be filled concurrently through shared
/// references — see the [module docs](crate::arena) for the contract and
/// [`TreeArena::attach_parallel`] for the entry point.
///
/// # Examples
///
/// ```
/// use omt_tree::TreeArena;
/// use omt_geom::Point2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let xs = [1.0, 1.0];
/// let ys = [0.0, 1.0];
/// let mut arena = TreeArena::new(Point2::ORIGIN, [&xs, &ys]).max_out_degree(2);
/// arena.attach_to_source(0)?;
/// arena.attach(1, 0)?;
/// let tree = arena.into_tree()?;
/// assert_eq!(tree.len(), 2);
/// assert_eq!(tree.children(0), &[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TreeArena<'a, const D: usize> {
    source: Point<D>,
    coords: [&'a [f64]; D],
    parent: Vec<AtomicU32>,
    /// Source-to-node delays as `f64` bit patterns (`AtomicU64` so the
    /// parallel fill can write them through `&self`).
    depth_bits: Vec<AtomicU64>,
    hops: Vec<AtomicU32>,
    out_degree: Vec<AtomicU32>,
    source_out_degree: AtomicU32,
    max_out_degree: Option<u32>,
    attached_count: usize,
}

impl<const D: usize> Clone for TreeArena<'_, D> {
    fn clone(&self) -> Self {
        Self {
            source: self.source,
            coords: self.coords,
            parent: clone_atomic_u32(&self.parent),
            depth_bits: self
                .depth_bits
                .iter()
                .map(|a| AtomicU64::new(a.load(Relaxed)))
                .collect(),
            hops: clone_atomic_u32(&self.hops),
            out_degree: clone_atomic_u32(&self.out_degree),
            source_out_degree: AtomicU32::new(self.source_out_degree.load(Relaxed)),
            max_out_degree: self.max_out_degree,
            attached_count: self.attached_count,
        }
    }
}

impl<'a, const D: usize> TreeArena<'a, D> {
    /// Creates an arena for a tree over the borrowed coordinate columns,
    /// rooted at `source`. All per-node arrays are allocated here, sized
    /// exactly for `n = coords[0].len()`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate slices have unequal lengths, or if `n`
    /// exceeds [`MAX_NODES`] (builders that accept untrusted sizes should
    /// call [`check_node_capacity`] first and surface the typed error).
    #[must_use]
    pub fn new(source: Point<D>, coords: [&'a [f64]; D]) -> Self {
        let n = coords[0].len();
        assert!(
            coords.iter().all(|c| c.len() == n),
            "coordinate columns must have equal lengths"
        );
        assert!(
            check_node_capacity(n).is_ok(),
            "node count {n} exceeds the arena's u32 id space (max {MAX_NODES})"
        );
        Self {
            source,
            coords,
            parent: (0..n).map(|_| AtomicU32::new(SOURCE_PARENT)).collect(),
            depth_bits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            hops: (0..n).map(|_| AtomicU32::new(0)).collect(),
            out_degree: (0..n).map(|_| AtomicU32::new(0)).collect(),
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

    /// Number of receiver nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if there are no receiver nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
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

    /// Whether node `i` has been attached.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn is_attached(&self, i: usize) -> bool {
        // hops == 0 exactly for unattached nodes: every attachment sets
        // hops >= 1, so no separate `attached` array is carried.
        self.hops[i].load(Relaxed) > 0
    }

    /// Position of receiver `i`, reassembled from the coordinate columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn point(&self, i: usize) -> Point<D> {
        Point::new(core::array::from_fn(|d| self.coords[d][i]))
    }

    /// The source position.
    #[must_use]
    pub fn source(&self) -> Point<D> {
        self.source
    }

    /// Current delay from the source to node `i`, if attached.
    #[must_use]
    pub fn depth_of(&self, i: usize) -> Option<f64> {
        (self.hops.get(i).map_or(0, |h| h.load(Relaxed)) > 0)
            .then(|| f64::from_bits(self.depth_bits[i].load(Relaxed)))
    }

    fn check_index(&self, i: usize) -> Result<(), TreeError> {
        if i >= self.parent.len() {
            Err(TreeError::NodeOutOfRange {
                index: i,
                len: self.parent.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Attaches node `child` directly to the source.
    ///
    /// # Errors
    ///
    /// Fails if the index is out of range, the child is already attached, or
    /// the source's degree budget is exhausted — the same conditions, checked
    /// in the same order, as [`TreeBuilder::attach_to_source`].
    ///
    /// [`TreeBuilder::attach_to_source`]: crate::TreeBuilder::attach_to_source
    pub fn attach_to_source(&mut self, child: usize) -> Result<(), TreeError> {
        self.attach_to_source_parallel(child)?;
        self.attached_count += 1;
        Ok(())
    }

    /// Attaches node `child` under node `parent`.
    ///
    /// # Errors
    ///
    /// Fails if either index is out of range, `child == parent`, the child
    /// is already attached, the parent is not attached yet, or the parent's
    /// degree budget is exhausted — the same conditions, checked in the same
    /// order, as [`TreeBuilder::attach`].
    ///
    /// [`TreeBuilder::attach`]: crate::TreeBuilder::attach
    pub fn attach(&mut self, child: usize, parent: usize) -> Result<(), TreeError> {
        self.attach_parallel(child, parent)?;
        self.attached_count += 1;
        Ok(())
    }

    /// Attaches node `child` directly to the source through a shared
    /// reference, for use inside a parallel fill.
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
    pub fn attach_to_source_parallel(&self, child: usize) -> Result<(), TreeError> {
        self.check_index(child)?;
        if self.is_attached(child) {
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
        self.parent[child].store(SOURCE_PARENT, Relaxed);
        let d = self.source.distance(&self.point(child));
        self.depth_bits[child].store(d.to_bits(), Relaxed);
        self.hops[child].store(1, Relaxed);
        Ok(())
    }

    /// Attaches node `child` under node `parent` through a shared
    /// reference, for use inside a parallel fill.
    ///
    /// Identical to [`TreeArena::attach`] — same validation order, same
    /// stores, same floating-point expressions — except that
    /// [`TreeArena::attached_count`] is not updated (see
    /// [`TreeArena::add_attached`]). Concurrent callers own the
    /// disjointness argument: no two threads may attach the same child, and
    /// no two threads may concurrently attach children under the same
    /// parent (each attachment reads and writes the parent's degree). The
    /// grid builders satisfy both by construction —
    /// every cell job's write set is its own counting-sort window plus that
    /// window's already-attached representative, and windows are disjoint.
    /// A violated contract yields nondeterministic links (caught by the
    /// parity suites), never undefined behavior.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TreeArena::attach`].
    pub fn attach_parallel(&self, child: usize, parent: usize) -> Result<(), TreeError> {
        self.check_index(child)?;
        self.check_index(parent)?;
        if child == parent {
            return Err(TreeError::SelfLoop { index: child });
        }
        if self.is_attached(child) {
            return Err(TreeError::AlreadyAttached { index: child });
        }
        if !self.is_attached(parent) {
            return Err(TreeError::ParentNotAttached { parent });
        }
        if let Some(bound) = self.max_out_degree {
            if self.out_degree[parent].load(Relaxed) >= bound {
                return Err(TreeError::DegreeExceeded {
                    parent: Some(parent),
                    max_out_degree: bound,
                });
            }
        }
        self.out_degree[parent].store(self.out_degree[parent].load(Relaxed) + 1, Relaxed);
        self.parent[child].store(parent as u32, Relaxed);
        let d = f64::from_bits(self.depth_bits[parent].load(Relaxed))
            + self.point(parent).distance(&self.point(child));
        self.depth_bits[child].store(d.to_bits(), Relaxed);
        self.hops[child].store(self.hops[parent].load(Relaxed) + 1, Relaxed);
        Ok(())
    }

    /// Finalizes the tree, materializing the owned point vector and the CSR
    /// child layout.
    ///
    /// Peak memory at finish time is the binding constraint at n in the
    /// millions, so the conversion is sequenced to keep transients minimal:
    /// the degree counts are folded into the CSR offsets and freed first,
    /// each remaining atomic
    /// array is converted to its plain twin one at a time, and the child
    /// scatter uses the offset array itself as its cursor (restored with a
    /// one-slot shift) instead of a cloned cursor array.
    ///
    /// # Errors
    ///
    /// Fails with [`TreeError::NotSpanning`] if any node is unattached.
    pub fn into_tree(self) -> Result<MulticastTree<D>, TreeError> {
        let Self {
            source,
            coords,
            parent,
            depth_bits,
            hops,
            out_degree,
            source_out_degree,
            attached_count,
            ..
        } = self;
        let n = parent.len();
        if attached_count != n {
            let first = hops
                .iter()
                .position(|h| h.load(Relaxed) == 0)
                .expect("some node is unattached");
            return Err(TreeError::NotSpanning {
                unattached: n - attached_count,
                first,
            });
        }
        // Build the CSR children adjacency with a counting pass. Slot 0 is
        // the source, slot i+1 is node i.
        let mut child_offsets = vec![0u32; n + 2];
        child_offsets[1] = source_out_degree.load(Relaxed);
        for (slot, deg) in child_offsets[2..].iter_mut().zip(&out_degree) {
            *slot = deg.load(Relaxed);
        }
        drop(out_degree);
        for i in 1..child_offsets.len() {
            child_offsets[i] += child_offsets[i - 1];
        }
        let parent_plain: Vec<u32> = parent.iter().map(|a| a.load(Relaxed)).collect();
        drop(parent);
        let depth: Vec<f64> = depth_bits
            .iter()
            .map(|a| f64::from_bits(a.load(Relaxed)))
            .collect();
        drop(depth_bits);
        let hops_plain: Vec<u32> = hops.iter().map(|a| a.load(Relaxed)).collect();
        drop(hops);
        // The one full point copy of the arena path: the finished tree owns
        // its geometry.
        let points: Vec<Point<D>> = (0..n)
            .map(|i| Point::new(core::array::from_fn(|d| coords[d][i])))
            .collect();
        // Scatter children using child_offsets[0..=n] as in-place cursors.
        let mut child_list = vec![0u32; n];
        for child in 0..n {
            let p = parent_plain[child];
            let slot = if p == SOURCE_PARENT {
                0
            } else {
                p as usize + 1
            };
            child_list[child_offsets[slot] as usize] = child as u32;
            child_offsets[slot] += 1;
        }
        // After the scatter, cursor[slot] == original offsets[slot + 1] for
        // every slot in 0..=n, so shifting right by one restores the offset
        // array exactly, without a cloned cursor.
        child_offsets.copy_within(0..n + 1, 1);
        child_offsets[0] = 0;
        Ok(MulticastTree {
            source,
            points,
            parent: parent_plain,
            depth,
            hops: hops_plain,
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

    fn columns(n: usize) -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5) - 1.0).collect();
        (xs, ys)
    }

    fn points(xs: &[f64], ys: &[f64]) -> Vec<Point2> {
        xs.iter()
            .zip(ys)
            .map(|(&x, &y)| Point2::new([x, y]))
            .collect()
    }

    #[test]
    fn mirrors_builder_bit_for_bit() {
        let (xs, ys) = columns(8);
        let mut arena = TreeArena::new(Point2::ORIGIN, [&xs, &ys]).max_out_degree(3);
        let mut builder = TreeBuilder::new(Point2::ORIGIN, points(&xs, &ys)).max_out_degree(3);
        // A mixed attachment schedule: sources, chains, fans.
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
        for &(child, parent) in schedule {
            match parent {
                None => {
                    arena.attach_to_source(child).unwrap();
                    builder.attach_to_source(child).unwrap();
                }
                Some(p) => {
                    arena.attach(child, p).unwrap();
                    builder.attach(child, p).unwrap();
                }
            }
            assert_eq!(
                arena.depth_of(child).map(f64::to_bits),
                builder.depth_of(child).map(f64::to_bits)
            );
        }
        let a = arena.into_tree().unwrap();
        let b = builder.finish().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_parity_with_builder() {
        let (xs, ys) = columns(3);
        let mut arena = TreeArena::new(Point2::ORIGIN, [&xs, &ys]).max_out_degree(1);
        let mut builder = TreeBuilder::new(Point2::ORIGIN, points(&xs, &ys)).max_out_degree(1);
        assert_eq!(arena.attach(0, 0), builder.attach(0, 0)); // self-loop
        assert_eq!(arena.attach(1, 0), builder.attach(1, 0)); // parent not attached
        assert_eq!(arena.attach_to_source(9), builder.attach_to_source(9)); // range
        arena.attach_to_source(0).unwrap();
        builder.attach_to_source(0).unwrap();
        assert_eq!(arena.attach_to_source(1), builder.attach_to_source(1)); // source full
        assert_eq!(arena.attach(0, 1), builder.attach(0, 1)); // already attached
        arena.attach(1, 0).unwrap();
        builder.attach(1, 0).unwrap();
        assert_eq!(arena.attach(2, 0), builder.attach(2, 0)); // parent full
        assert_eq!(
            arena.clone().into_tree().unwrap_err(),
            builder.clone().finish().unwrap_err()
        ); // not spanning
    }

    #[test]
    fn no_per_attachment_allocation_in_node_arrays() {
        let (xs, ys) = columns(32);
        let mut arena = TreeArena::new(Point2::ORIGIN, [&xs, &ys]);
        let parent_ptr = arena.parent.as_ptr();
        let depth_ptr = arena.depth_bits.as_ptr();
        arena.attach_to_source(0).unwrap();
        for i in 1..32 {
            arena.attach(i, i - 1).unwrap();
        }
        assert_eq!(arena.parent.as_ptr(), parent_ptr);
        assert_eq!(arena.depth_bits.as_ptr(), depth_ptr);
        assert_eq!(arena.attached_count(), 32);
    }

    /// The parallel attachment methods, run from actual threads over
    /// disjoint child windows, produce a tree bit-identical to the same
    /// attachments performed sequentially.
    #[test]
    fn parallel_fill_matches_sequential_bit_for_bit() {
        let (xs, ys) = columns(64);
        // Sequential reference: 4 source children, each the parent of a
        // window of 15 descendants attached as a chain-of-fans.
        let windows: Vec<(usize, Vec<usize>)> = (0..4)
            .map(|w| (w, ((4 + w * 15)..(4 + (w + 1) * 15)).collect()))
            .collect();
        let build_sequential = || {
            let mut arena = TreeArena::new(Point2::ORIGIN, [&xs, &ys]).max_out_degree(8);
            for w in 0..4 {
                arena.attach_to_source(w).unwrap();
            }
            for (w, members) in &windows {
                for (j, &m) in members.iter().enumerate() {
                    let parent = if j == 0 { *w } else { members[(j - 1) / 2] };
                    arena.attach(m, parent).unwrap();
                }
            }
            arena.into_tree().unwrap()
        };
        let sequential = build_sequential();

        let mut arena = TreeArena::new(Point2::ORIGIN, [&xs, &ys]).max_out_degree(8);
        for w in 0..4 {
            arena.attach_to_source(w).unwrap();
        }
        std::thread::scope(|scope| {
            for (w, members) in &windows {
                let arena = &arena;
                scope.spawn(move || {
                    for (j, &m) in members.iter().enumerate() {
                        let parent = if j == 0 { *w } else { members[(j - 1) / 2] };
                        arena.attach_parallel(m, parent).unwrap();
                    }
                });
            }
        });
        arena.add_attached(60);
        assert_eq!(arena.attached_count(), 64);
        let parallel = arena.into_tree().unwrap();
        assert_eq!(parallel, sequential);
        for i in 0..64 {
            assert_eq!(parallel.depth(i).to_bits(), sequential.depth(i).to_bits());
        }
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
    #[should_panic(expected = "equal lengths")]
    fn unequal_columns_rejected() {
        let xs = [1.0, 2.0];
        let ys = [1.0];
        let _ = TreeArena::new(Point2::ORIGIN, [&xs[..], &ys[..]]);
    }

    #[test]
    fn empty_arena_finishes_to_empty_tree() {
        let arena: TreeArena<'_, 2> = TreeArena::new(Point2::ORIGIN, [&[], &[]]);
        let tree = arena.into_tree().unwrap();
        assert_eq!(tree.len(), 0);
    }
}
