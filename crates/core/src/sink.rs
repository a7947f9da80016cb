//! Edge sinks: the seam that lets one bisection implementation serve the
//! grid builders' cell fill — on one thread or many — as well as the
//! standalone bisection builders.
//!
//! The bisection subroutines are pure functions of their inputs — they
//! never read back from the tree under construction — so *what* they
//! attach is independent of *where* the attachments go. They name nodes by
//! **row**: a kernel over a window of rows `base..base + len` attaches row
//! `base + local position`. The standalone [`crate::Bisection`] builders
//! pass base 0 and write into a [`TreeBuilder`], whose rows are the point
//! ids. The grid builders' rows are positions of the cell-major
//! counting-sort order, and their sinks translate a row to its point only
//! for the arena's delay arithmetic:
//!
//! * [`RowArena`] (the sequential core pass and the fan-out) looks a row's
//!   point id up in the row → id order and reads the store's coordinate
//!   columns;
//! * [`CellSink`] (one per cell job) first gathers its window's points,
//!   plus its local root's, into worker scratch, so the attachments — which
//!   write the window's own rows of the shared [`TreeArena`] through
//!   `&self` — read them sequentially. Each job's write set is its own
//!   window plus its already-attached root, and windows are disjoint.
//!
//! Either way the edge set is identical, so the finished tree is
//! bit-identical (parent, depth, hop and CSR arrays only depend on the
//! edge set, not on attachment order or row layout).

use omt_geom::Point;
use omt_tree::{NodeId, ParentRef, TreeArena, TreeBuilder, TreeError};

/// Packed parent reference for the cell-job structs: a row as [`NodeId`]
/// with `NodeId::MAX` meaning the source. 4 bytes instead of the 16-byte
/// `ParentRef`, which matters when a million-point build carries a job per
/// occupied cell.
pub(crate) const PACKED_SOURCE: NodeId = NodeId::MAX;

/// Expands a packed parent back into a [`ParentRef`].
#[inline]
pub(crate) fn unpack_parent(p: NodeId) -> ParentRef {
    if p == PACKED_SOURCE {
        ParentRef::Source
    } else {
        ParentRef::Node(p as usize)
    }
}

/// Accepts `child -> parent` attachments, by row, emitted by the
/// bisection subroutines and the grid builders' core pass.
pub(crate) trait AttachSink {
    /// Records (or performs) the attachment of row `child` under `parent`
    /// (a row, or the source).
    fn attach_edge(&mut self, child: u32, parent: ParentRef) -> Result<(), TreeError>;
}

/// Rows are point ids.
impl<const D: usize> AttachSink for TreeBuilder<D> {
    fn attach_edge(&mut self, child: u32, parent: ParentRef) -> Result<(), TreeError> {
        match parent {
            ParentRef::Source => self.attach_to_source(child as usize),
            ParentRef::Node(p) => self.attach(child as usize, p),
        }
    }
}

/// Point `id` of the Cartesian columns `coords`.
#[inline]
fn point_of<const D: usize>(coords: [&[f64]; D], id: u32) -> Point<D> {
    Point::new(core::array::from_fn(|d| coords[d][id as usize]))
}

/// A sequential arena sink: `ids[row]` is the point id of each row and
/// `coords` the store's Cartesian columns by point id.
pub(crate) struct RowArena<'s, const D: usize> {
    pub arena: &'s mut TreeArena<D>,
    pub ids: &'s [u32],
    pub coords: [&'s [f64]; D],
}

impl<const D: usize> AttachSink for RowArena<'_, D> {
    fn attach_edge(&mut self, child: u32, parent: ParentRef) -> Result<(), TreeError> {
        let child_point = point_of(self.coords, self.ids[child as usize]);
        match parent {
            ParentRef::Source => self.arena.attach_to_source(child as usize, child_point),
            ParentRef::Node(p) => {
                let parent_id = self.ids[p];
                let parent_point = point_of(self.coords, parent_id);
                self.arena
                    .attach(child as usize, child_point, p, parent_id, parent_point)
            }
        }
    }
}

/// The sink of one cell job: the window of rows `base..base + ids.len()`
/// below its local root, writing into the shared arena through `&self`
/// (see [`TreeArena::attach_parallel`] for the disjointness contract).
pub(crate) struct CellSink<'s, const D: usize> {
    arena: &'s TreeArena<D>,
    base: usize,
    /// Point ids of the window, by local position.
    ids: &'s [u32],
    /// Points of the window, by local position.
    points: &'s [Point<D>],
    /// The local root's row, point id and point; `None` for the source.
    root: Option<(usize, NodeId, Point<D>)>,
}

impl<'s, const D: usize> CellSink<'s, D> {
    /// The sink of the job over rows `s..e` below the packed root `root`:
    /// gathers the window's points and the root's, by point id
    /// (`order[row]`), from the Cartesian columns `coords` into `points`.
    /// Returns the sink and the root as the kernel's source reference.
    pub fn gather(
        arena: &'s TreeArena<D>,
        order: &'s [u32],
        coords: [&[f64]; D],
        (s, e): (usize, usize),
        root: NodeId,
        points: &'s mut Vec<Point<D>>,
    ) -> (Self, ParentRef) {
        let ids = &order[s..e];
        points.clear();
        points.extend(ids.iter().map(|&id| point_of(coords, id)));
        let root = (root != PACKED_SOURCE).then(|| {
            let id = order[root as usize];
            (root as usize, id, point_of(coords, id))
        });
        let sink = Self {
            arena,
            base: s,
            ids,
            points,
            root,
        };
        (
            sink,
            root.map_or(ParentRef::Source, |r| ParentRef::Node(r.0)),
        )
    }
}

impl<const D: usize> AttachSink for CellSink<'_, D> {
    fn attach_edge(&mut self, child: u32, parent: ParentRef) -> Result<(), TreeError> {
        let child = child as usize;
        let child_point = self.points[child - self.base];
        match parent {
            ParentRef::Source => self.arena.attach_to_source_parallel(child, child_point),
            ParentRef::Node(p) => {
                let (parent_id, parent_point) = match self.root {
                    Some((row, id, point)) if row == p => (id, point),
                    _ => (self.ids[p - self.base], self.points[p - self.base]),
                };
                self.arena
                    .attach_parallel(child, child_point, p, parent_id, parent_point)
            }
        }
    }
}

/// Attaches row `child` under `parent` in any sink (the shared helper the
/// construction code of every dimension calls).
pub(crate) fn attach<S: AttachSink + ?Sized>(
    b: &mut S,
    child: usize,
    parent: ParentRef,
) -> Result<(), TreeError> {
    b.attach_edge(child as u32, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::Point2;

    /// A job's gathered sink writes the same tree as the sequential row
    /// sink, over a shuffled row order.
    #[test]
    fn cell_sink_matches_row_sink() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 0.5, 1.0, -1.0];
        let order = vec![2, 0, 3, 1];
        let coords = [&xs[..], &ys[..]];
        let by_id: Vec<Point2> = xs
            .iter()
            .zip(ys)
            .map(|(&x, y)| Point2::new([x, y]))
            .collect();

        let mut direct = TreeArena::new(Point2::ORIGIN, 4);
        {
            let mut sink = RowArena {
                arena: &mut direct,
                ids: &order,
                coords,
            };
            attach(&mut sink, 0, ParentRef::Source).unwrap();
            attach(&mut sink, 1, ParentRef::Node(0)).unwrap();
            attach(&mut sink, 2, ParentRef::Node(1)).unwrap();
            attach(&mut sink, 3, ParentRef::Node(0)).unwrap();
        }

        let mut shared = TreeArena::new(Point2::ORIGIN, 4);
        RowArena {
            arena: &mut shared,
            ids: &order,
            coords,
        }
        .attach_edge(0, ParentRef::Source)
        .unwrap();
        let mut points = Vec::new();
        {
            // The job over rows 1..4 below row 0.
            let (mut sink, root) =
                CellSink::gather(&shared, &order, coords, (1, 4), 0, &mut points);
            assert_eq!(root, ParentRef::Node(0));
            attach(&mut sink, 1, root).unwrap();
            attach(&mut sink, 2, ParentRef::Node(1)).unwrap();
            attach(&mut sink, 3, root).unwrap();
        }
        shared.add_attached(3);
        assert_eq!(
            direct.into_tree(order.clone(), by_id.clone()).unwrap(),
            shared.into_tree(order, by_id).unwrap(),
            "direct-fill sink must be indistinguishable from &mut attachment"
        );
    }

    #[test]
    fn builder_sink_matches_direct_calls() {
        let pts = vec![Point2::new([1.0, 0.0]), Point2::new([2.0, 0.0])];
        let mut direct = TreeBuilder::new(Point2::ORIGIN, pts.clone());
        direct.attach_to_source(0).unwrap();
        direct.attach(1, 0).unwrap();

        let mut via_sink = TreeBuilder::new(Point2::ORIGIN, pts);
        attach(&mut via_sink, 0, ParentRef::Source).unwrap();
        attach(&mut via_sink, 1, ParentRef::Node(0)).unwrap();

        assert_eq!(direct.finish().unwrap(), via_sink.finish().unwrap());
    }
}
