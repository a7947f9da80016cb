//! Incremental, degree-enforcing tree construction by point id.

use omt_geom::Point;

use crate::arena::TreeArena;
use crate::error::TreeError;
use crate::tree::{MulticastTree, NodeId};

/// Builds a [`MulticastTree`] top-down, enforcing the out-degree budget and
/// acyclicity at every step.
///
/// Attachment must be *top-down*: a node can only become a parent after it
/// has itself been attached. This is how all the algorithms in this
/// workspace naturally operate, and it makes cycles unrepresentable.
///
/// The builder owns its points and one [`TreeArena`] whose rows are the
/// point ids: the arena does the validation, the delay arithmetic and the
/// finish, and [`TreeBuilder::finish`] hands it the identity row order and
/// the points.
///
/// # Examples
///
/// ```
/// use omt_geom::Point2;
/// use omt_tree::TreeBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pts = vec![Point2::new([1.0, 0.0]), Point2::new([1.0, 1.0])];
/// let mut b = TreeBuilder::new(Point2::ORIGIN, pts).max_out_degree(2);
/// b.attach_to_source(0)?;
/// b.attach(1, 0)?;
/// let tree = b.finish()?;
/// assert_eq!(tree.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TreeBuilder<const D: usize> {
    points: Vec<Point<D>>,
    arena: TreeArena<D>,
}

impl<const D: usize> TreeBuilder<D> {
    /// Creates a builder for a tree over `points` rooted at `source`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`crate::MAX_NODES`] points.
    pub fn new(source: Point<D>, points: Vec<Point<D>>) -> Self {
        let arena = TreeArena::new(source, points.len());
        Self { points, arena }
    }

    /// Sets the maximum out-degree enforced on every node including the
    /// source. Unset means unbounded.
    #[must_use]
    pub fn max_out_degree(mut self, bound: u32) -> Self {
        self.arena = self.arena.max_out_degree(bound);
        self
    }

    /// Number of receiver nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if there are no receiver nodes.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// How many nodes have been attached so far.
    pub fn attached_count(&self) -> usize {
        self.arena.attached_count()
    }

    /// Whether node `i` has been attached.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_attached(&self, i: usize) -> bool {
        self.arena.is_attached(i)
    }

    /// Position of receiver `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: usize) -> Point<D> {
        self.points[i]
    }

    /// The source position.
    pub fn source(&self) -> Point<D> {
        self.arena.source()
    }

    /// Current delay from the source to node `i`, if attached.
    pub fn depth_of(&self, i: usize) -> Option<f64> {
        self.arena.depth_of(i)
    }

    /// Remaining out-degree budget of node `i` (`None` if unbounded).
    pub fn remaining_degree(&self, i: usize) -> Option<u32> {
        self.arena.remaining_degree(i)
    }

    /// Remaining out-degree budget of the source (`None` if unbounded).
    pub fn remaining_source_degree(&self) -> Option<u32> {
        self.arena.remaining_source_degree()
    }

    /// The position of node `i` for an attachment; an out-of-range `i`
    /// gets the source's, which is never read: the arena rejects the index
    /// first.
    fn point_or_source(&self, i: usize) -> Point<D> {
        self.points.get(i).copied().unwrap_or(self.source())
    }

    /// Attaches node `child` directly to the source.
    ///
    /// # Errors
    ///
    /// Fails if the index is out of range, the child is already attached, or
    /// the source's degree budget is exhausted.
    pub fn attach_to_source(&mut self, child: usize) -> Result<(), TreeError> {
        let child_point = self.point_or_source(child);
        self.arena.attach_to_source(child, child_point)
    }

    /// Attaches node `child` under node `parent`.
    ///
    /// # Errors
    ///
    /// Fails if either index is out of range, the child is already attached,
    /// the parent is *not* attached yet (construction must be top-down),
    /// `child == parent`, or the parent's degree budget is exhausted.
    pub fn attach(&mut self, child: usize, parent: usize) -> Result<(), TreeError> {
        let (child_point, parent_point) =
            (self.point_or_source(child), self.point_or_source(parent));
        self.arena
            .attach(child, child_point, parent, parent as NodeId, parent_point)
    }

    /// Finalizes the tree.
    ///
    /// # Errors
    ///
    /// Fails with [`TreeError::NotSpanning`] if any node is unattached.
    pub fn finish(self) -> Result<MulticastTree<D>, TreeError> {
        let order = (0..self.points.len() as NodeId).collect();
        self.arena.into_tree(order, self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::Point2;

    fn pts(n: usize) -> Vec<Point2> {
        (0..n).map(|i| Point2::new([i as f64 + 1.0, 0.0])).collect()
    }

    #[test]
    fn top_down_enforced() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(3));
        assert_eq!(
            b.attach(1, 0),
            Err(TreeError::ParentNotAttached { parent: 0 })
        );
        b.attach_to_source(0).unwrap();
        b.attach(1, 0).unwrap();
        assert_eq!(b.attached_count(), 2);
    }

    #[test]
    fn degree_budget_enforced() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(4)).max_out_degree(1);
        b.attach_to_source(0).unwrap();
        assert_eq!(
            b.attach_to_source(1),
            Err(TreeError::DegreeExceeded {
                parent: None,
                max_out_degree: 1
            })
        );
        b.attach(1, 0).unwrap();
        assert_eq!(
            b.attach(2, 0),
            Err(TreeError::DegreeExceeded {
                parent: Some(0),
                max_out_degree: 1
            })
        );
        b.attach(2, 1).unwrap();
        b.attach(3, 2).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.max_out_degree(), 1);
        t.validate(Some(1)).unwrap();
    }

    #[test]
    fn double_attach_rejected() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(2));
        b.attach_to_source(0).unwrap();
        assert_eq!(
            b.attach_to_source(0),
            Err(TreeError::AlreadyAttached { index: 0 })
        );
        b.attach_to_source(1).unwrap();
        assert_eq!(b.attach(1, 0), Err(TreeError::AlreadyAttached { index: 1 }));
    }

    /// An attached child is reported before an unattached parent.
    #[test]
    fn already_attached_checked_before_parent() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(2));
        b.attach_to_source(0).unwrap();
        assert_eq!(b.attach(0, 1), Err(TreeError::AlreadyAttached { index: 0 }));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(1));
        assert_eq!(b.attach(0, 0), Err(TreeError::SelfLoop { index: 0 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(1));
        assert_eq!(
            b.attach_to_source(5),
            Err(TreeError::NodeOutOfRange { index: 5, len: 1 })
        );
        b.attach_to_source(0).unwrap();
        assert_eq!(
            b.attach(9, 0),
            Err(TreeError::NodeOutOfRange { index: 9, len: 1 })
        );
        assert_eq!(
            b.attach(0, 7),
            Err(TreeError::NodeOutOfRange { index: 7, len: 1 })
        );
        // Range comes before the self-loop check, the child's first.
        assert_eq!(
            b.attach(9, 9),
            Err(TreeError::NodeOutOfRange { index: 9, len: 1 })
        );
        assert_eq!(
            b.attach(9, 7),
            Err(TreeError::NodeOutOfRange { index: 9, len: 1 })
        );
    }

    #[test]
    fn unfinished_tree_rejected() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(2));
        b.attach_to_source(1).unwrap();
        assert_eq!(
            b.finish(),
            Err(TreeError::NotSpanning {
                unattached: 1,
                first: 0
            })
        );
        // `first` is the smallest unattached id, wherever it is.
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(5));
        for i in [0, 2, 4] {
            b.attach_to_source(i).unwrap();
        }
        assert_eq!(
            b.finish(),
            Err(TreeError::NotSpanning {
                unattached: 2,
                first: 1
            })
        );
    }

    #[test]
    fn depths_accumulate() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(3));
        b.attach_to_source(0).unwrap(); // at (1, 0), depth 1
        b.attach(1, 0).unwrap(); // at (2, 0), depth 2
        b.attach(2, 1).unwrap(); // at (3, 0), depth 3
        assert_eq!(b.depth_of(2), Some(3.0));
        assert_eq!(b.depth_of(1), Some(2.0));
        let t = b.finish().unwrap();
        assert_eq!(t.depth(2), 3.0);
        assert_eq!(t.hops(2), 3);
        t.validate(None).unwrap();
    }

    #[test]
    fn remaining_budgets() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(2)).max_out_degree(2);
        assert_eq!(b.remaining_source_degree(), Some(2));
        b.attach_to_source(0).unwrap();
        assert_eq!(b.remaining_source_degree(), Some(1));
        assert_eq!(b.remaining_degree(0), Some(2));
        b.attach(1, 0).unwrap();
        assert_eq!(b.remaining_degree(0), Some(1));
        let unbounded = TreeBuilder::new(Point2::ORIGIN, pts(1));
        assert_eq!(unbounded.remaining_source_degree(), None);
    }

    #[test]
    fn csr_layout_matches_parents() {
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts(5));
        b.attach_to_source(2).unwrap();
        b.attach_to_source(4).unwrap();
        b.attach(0, 2).unwrap();
        b.attach(1, 2).unwrap();
        b.attach(3, 4).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.source_children(), &[2, 4]);
        assert_eq!(t.children(2), &[0, 1]);
        assert_eq!(t.children(4), &[3]);
        assert_eq!(t.children(0), &[] as &[u32]);
        t.validate(Some(2)).unwrap();
    }
}
