//! Edge sinks: the seam that lets one bisection implementation serve the
//! sequential and the parallel per-cell fill as well as the standalone
//! bisection builders.
//!
//! The bisection subroutines are pure functions of their inputs — they
//! never read back from the tree under construction — so *what* they
//! attach is independent of *where* the attachments go. The standalone
//! [`crate::Bisection`] builders write into a [`TreeBuilder`]; the grid
//! builders' core pass writes straight into the [`TreeArena`], and their
//! per-cell fill — on one thread or many — writes **directly** into the
//! shared arena through [`SharedArena`], exploiting the disjointness of
//! the counting-sort cell windows (each job's write set is its own window
//! plus its already-attached representative — no two jobs overlap).
//! Either way the edge set is identical, so the finished tree is
//! bit-identical (parent, depth, hop and CSR arrays only depend on the
//! edge set, not on attachment order).

use omt_tree::{NodeId, ParentRef, TreeArena, TreeBuilder, TreeError};

/// Packed parent reference for the cell-job structs: a [`NodeId`] with
/// `NodeId::MAX` meaning the source. 4 bytes instead of the 16-byte
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

/// Accepts `child -> parent` attachments emitted by the bisection
/// subroutines.
pub(crate) trait AttachSink {
    /// Records (or performs) the attachment of `child` under `parent`.
    fn attach_edge(&mut self, child: u32, parent: ParentRef) -> Result<(), TreeError>;
}

impl<const D: usize> AttachSink for TreeBuilder<D> {
    fn attach_edge(&mut self, child: u32, parent: ParentRef) -> Result<(), TreeError> {
        match parent {
            ParentRef::Source => self.attach_to_source(child as usize),
            ParentRef::Node(p) => self.attach(child as usize, p),
        }
    }
}

impl<const D: usize> AttachSink for TreeArena<'_, D> {
    fn attach_edge(&mut self, child: u32, parent: ParentRef) -> Result<(), TreeError> {
        match parent {
            ParentRef::Source => self.attach_to_source(child as usize),
            ParentRef::Node(p) => self.attach(child as usize, p),
        }
    }
}

/// A sink that writes into a shared [`TreeArena`] through `&self`, using
/// the arena's parallel attachment methods.
///
/// This is what each parallel cell job holds: the attachments land in the
/// arena immediately, on the worker thread, with no per-job edge buffer and
/// no sequential replay. The caller owns the disjointness argument (see
/// [`TreeArena::attach_parallel`]); the grid builders satisfy it by giving
/// each job an exclusive counting-sort window.
pub(crate) struct SharedArena<'s, 'a, const D: usize>(pub &'s TreeArena<'a, D>);

impl<const D: usize> AttachSink for SharedArena<'_, '_, D> {
    fn attach_edge(&mut self, child: u32, parent: ParentRef) -> Result<(), TreeError> {
        match parent {
            ParentRef::Source => self.0.attach_to_source_parallel(child as usize),
            ParentRef::Node(p) => self.0.attach_parallel(child as usize, p),
        }
    }
}

/// Attaches `child` under `parent` in any sink (the shared helper the
/// 2-D and 3-D construction code calls).
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

    #[test]
    fn shared_arena_sink_matches_sequential_arena() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [0.0, 0.5, 1.0];
        let mut direct = TreeArena::new(Point2::ORIGIN, [&xs, &ys]);
        attach(&mut direct, 0, ParentRef::Source).unwrap();
        attach(&mut direct, 1, ParentRef::Node(0)).unwrap();
        attach(&mut direct, 2, ParentRef::Node(1)).unwrap();

        let mut shared = TreeArena::new(Point2::ORIGIN, [&xs, &ys]);
        {
            let mut sink = SharedArena(&shared);
            attach(&mut sink, 0, ParentRef::Source).unwrap();
            attach(&mut sink, 1, ParentRef::Node(0)).unwrap();
            attach(&mut sink, 2, ParentRef::Node(1)).unwrap();
        }
        shared.add_attached(3);
        assert_eq!(
            direct.into_tree().unwrap(),
            shared.into_tree().unwrap(),
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
