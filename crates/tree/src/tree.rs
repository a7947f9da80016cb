//! The multicast tree type.

use omt_geom::Point;

use crate::error::ValidationError;
use crate::iter::{Bfs, Dfs, PathToSource};

/// Compact node identifier: the element type of every link array in this
/// crate — parents, CSR offsets and child lists.
///
/// Node ids are `u32` rather than `usize`: a tree over `n` receivers stores
/// several link words per node, so halving the id width halves the
/// dominant memory term at million-scale and doubles the links that fit a
/// cache line. The value `NodeId::MAX` is reserved as the no-node/source
/// sentinel, capping supported inputs at `u32::MAX - 1` nodes — enforced
/// up front by [`check_node_capacity`](crate::check_node_capacity) with a
/// typed [`TreeError::CapacityExceeded`](crate::TreeError) rather than a
/// silent wrap.
pub type NodeId = u32;

/// Sentinel parent index meaning "the source".
pub(crate) const SOURCE_PARENT: NodeId = NodeId::MAX;

/// The parent of a node: either the multicast source or another receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParentRef {
    /// The node is a direct child of the multicast source.
    Source,
    /// The node's parent is the receiver with this index.
    Node(usize),
}

/// A rooted, degree-constrained overlay multicast tree over `n` receivers
/// in `D`-dimensional Euclidean space.
///
/// Receivers are indexed `0..n`; the source is a separate distinguished
/// node. Edge weights are the Euclidean distances between the endpoint
/// positions — the paper's model of unicast delay after embedding.
///
/// Instances are immutable; construct them with
/// [`TreeBuilder`](crate::TreeBuilder), which enforces top-down construction
/// (acyclicity) and the out-degree budget.
///
/// # Examples
///
/// ```
/// use omt_geom::Point2;
/// use omt_tree::{ParentRef, TreeBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pts = vec![Point2::new([1.0, 0.0]), Point2::new([2.0, 0.0])];
/// let mut b = TreeBuilder::new(Point2::ORIGIN, pts).max_out_degree(1);
/// b.attach_to_source(0)?;
/// b.attach(1, 0)?;
/// let tree = b.finish()?;
/// assert_eq!(tree.parent(1), ParentRef::Node(0));
/// assert_eq!(tree.radius(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MulticastTree<const D: usize> {
    pub(crate) source: Point<D>,
    pub(crate) points: Vec<Point<D>>,
    /// Parent of each receiver (`SOURCE_PARENT` = the source).
    pub(crate) parent: Vec<u32>,
    /// Delay (path length) from the source to each receiver.
    pub(crate) depth: Vec<f64>,
    /// Hop count from the source to each receiver.
    pub(crate) hops: Vec<u32>,
    /// Children adjacency in CSR form: children of the source first, then of
    /// node 0, 1, ... `child_offsets` has `n + 2` entries.
    pub(crate) child_offsets: Vec<u32>,
    pub(crate) child_list: Vec<u32>,
}

impl<const D: usize> MulticastTree<D> {
    /// Number of receivers (excluding the source).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the tree has no receivers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Position of the multicast source.
    #[inline]
    pub fn source(&self) -> Point<D> {
        self.source
    }

    /// Position of receiver `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn point(&self, i: usize) -> Point<D> {
        self.points[i]
    }

    /// All receiver positions, indexed by node id.
    #[inline]
    pub fn points(&self) -> &[Point<D>] {
        &self.points
    }

    /// Parent of receiver `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn parent(&self, i: usize) -> ParentRef {
        let p = self.parent[i];
        if p == SOURCE_PARENT {
            ParentRef::Source
        } else {
            ParentRef::Node(p as usize)
        }
    }

    /// Position of the parent of receiver `i`.
    #[inline]
    pub fn parent_point(&self, i: usize) -> Point<D> {
        match self.parent(i) {
            ParentRef::Source => self.source,
            ParentRef::Node(p) => self.points[p],
        }
    }

    /// Length of the edge from `i`'s parent to `i` (the unicast delay of the
    /// last overlay hop).
    #[inline]
    pub fn edge_weight(&self, i: usize) -> f64 {
        self.points[i].distance(&self.parent_point(i))
    }

    /// Delay (sum of edge lengths) from the source to receiver `i`.
    #[inline]
    pub fn depth(&self, i: usize) -> f64 {
        self.depth[i]
    }

    /// Hop count from the source to receiver `i`.
    #[inline]
    pub fn hops(&self, i: usize) -> u32 {
        self.hops[i]
    }

    /// The tree radius: the largest source-to-receiver delay. This is the
    /// objective the paper minimizes ("Delay" in Table I).
    ///
    /// Returns `0.0` for an empty tree.
    pub fn radius(&self) -> f64 {
        self.depth.iter().copied().fold(0.0, f64::max)
    }

    /// The receiver achieving [`MulticastTree::radius`], or `None` if empty.
    pub fn deepest_node(&self) -> Option<usize> {
        (0..self.len()).max_by(|&a, &b| {
            self.depth[a]
                .partial_cmp(&self.depth[b])
                .expect("depths are finite")
        })
    }

    /// Maximum hop count over all receivers.
    pub fn max_hops(&self) -> u32 {
        self.hops.iter().copied().max().unwrap_or(0)
    }

    /// Children of receiver `i`.
    #[inline]
    pub fn children(&self, i: usize) -> &[u32] {
        let lo = self.child_offsets[i + 1] as usize;
        let hi = self.child_offsets[i + 2] as usize;
        &self.child_list[lo..hi]
    }

    /// Children of the source.
    #[inline]
    pub fn source_children(&self) -> &[u32] {
        let hi = self.child_offsets[1] as usize;
        &self.child_list[..hi]
    }

    /// Out-degree of receiver `i`.
    #[inline]
    pub fn out_degree(&self, i: usize) -> u32 {
        self.child_offsets[i + 2] - self.child_offsets[i + 1]
    }

    /// Out-degree of the source.
    #[inline]
    pub fn source_out_degree(&self) -> u32 {
        self.child_offsets[1]
    }

    /// The largest out-degree in the tree, including the source.
    pub fn max_out_degree(&self) -> u32 {
        let node_max = (0..self.len())
            .map(|i| self.out_degree(i))
            .max()
            .unwrap_or(0);
        node_max.max(self.source_out_degree())
    }

    /// Sum of all edge weights (total unicast traffic per multicast packet).
    pub fn total_edge_weight(&self) -> f64 {
        (0..self.len()).map(|i| self.edge_weight(i)).sum()
    }

    /// Iterator over node indices in breadth-first order from the source.
    pub fn iter_bfs(&self) -> Bfs<'_, D> {
        Bfs::new(self)
    }

    /// Iterator over node indices in depth-first (pre-order) order.
    pub fn iter_dfs(&self) -> Dfs<'_, D> {
        Dfs::new(self)
    }

    /// Iterator over the nodes on the path from receiver `i` up to (but not
    /// including) the source, starting at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn path_to_source(&self, i: usize) -> PathToSource<'_, D> {
        assert!(i < self.len(), "node {i} out of range");
        PathToSource::new(self, i)
    }

    /// The tree diameter: the largest delay between **any** pair of nodes
    /// along tree edges (the objective of the minimum-diameter variant the
    /// paper discusses in its conclusion). Computed with the classic
    /// two-sweep algorithm in O(n).
    ///
    /// Returns `0.0` for an empty tree.
    pub fn diameter(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        // Sweep 1: distances from the source; the farthest node is one
        // endpoint of a diameter (true for tree metrics).
        let a = self.deepest_node().expect("nonempty");
        // Sweep 2: distances from `a` over the undirected tree.
        let dist = self.distances_from(a);
        dist.iter().copied().fold(0.0, f64::max)
    }

    /// Delays from node `start` to every node, travelling along tree edges
    /// in either direction. Index `len()` holds the distance to the source.
    pub fn distances_from(&self, start: usize) -> Vec<f64> {
        let n = self.len();
        let mut dist = vec![f64::INFINITY; n + 1];
        dist[start] = 0.0;
        // Iterative DFS over the undirected tree.
        let mut stack = vec![start as u32];
        while let Some(u) = stack.pop() {
            let (u_idx, u_pos, du) = if u == SOURCE_PARENT {
                (n, self.source, dist[n])
            } else {
                (u as usize, self.points[u as usize], dist[u as usize])
            };
            // Neighbors: children plus parent.
            let children = if u == SOURCE_PARENT {
                self.source_children()
            } else {
                self.children(u as usize)
            };
            for &c in children {
                let cd = du + u_pos.distance(&self.points[c as usize]);
                if cd < dist[c as usize] {
                    dist[c as usize] = cd;
                    stack.push(c);
                }
            }
            if u != SOURCE_PARENT {
                let p = self.parent[u_idx];
                let (p_slot, p_pos) = if p == SOURCE_PARENT {
                    (n, self.source)
                } else {
                    (p as usize, self.points[p as usize])
                };
                let pd = du + u_pos.distance(&p_pos);
                if pd < dist[p_slot] {
                    dist[p_slot] = pd;
                    stack.push(p);
                }
            }
        }
        dist
    }

    /// Re-verifies every structural invariant from scratch: parent indices
    /// in range, acyclicity, cached depths/hops, and (optionally) an
    /// out-degree bound.
    ///
    /// Trees built through [`TreeBuilder`](crate::TreeBuilder) satisfy these
    /// by construction; this method exists for tests, fuzzing, and debugging
    /// of algorithm implementations.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, max_out_degree: Option<u32>) -> Result<(), ValidationError> {
        let n = self.len();
        // Parent indices.
        for (child, &p) in self.parent.iter().enumerate() {
            if p != SOURCE_PARENT && p as usize >= n {
                return Err(ValidationError::DanglingParent {
                    child,
                    parent: p as usize,
                });
            }
        }
        // Acyclicity + depth/hop consistency, via memoized walk.
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = in progress, 2 = done
        for start in 0..n {
            if state[start] == 2 {
                continue;
            }
            // Walk up until a resolved node or the source.
            let mut chain = Vec::new();
            let mut u = start;
            loop {
                if state[u] == 1 {
                    return Err(ValidationError::Cycle { start: u });
                }
                if state[u] == 2 {
                    break;
                }
                state[u] = 1;
                chain.push(u);
                match self.parent(u) {
                    ParentRef::Source => break,
                    ParentRef::Node(p) => u = p,
                }
            }
            for &v in chain.iter().rev() {
                let (pd, ph, ppos) = match self.parent(v) {
                    ParentRef::Source => (0.0, 0, self.source),
                    ParentRef::Node(p) => (self.depth[p], self.hops[p], self.points[p]),
                };
                let computed = pd + ppos.distance(&self.points[v]);
                if (computed - self.depth[v]).abs() > 1e-9 * (1.0 + computed.abs()) {
                    return Err(ValidationError::DepthMismatch {
                        node: v,
                        cached: self.depth[v],
                        computed,
                    });
                }
                if ph + 1 != self.hops[v] {
                    return Err(ValidationError::DepthMismatch {
                        node: v,
                        cached: f64::from(self.hops[v]),
                        computed: f64::from(ph + 1),
                    });
                }
                state[v] = 2;
            }
        }
        // Degree bound.
        if let Some(bound) = max_out_degree {
            if self.source_out_degree() > bound {
                return Err(ValidationError::DegreeViolation {
                    node: None,
                    degree: self.source_out_degree(),
                    bound,
                });
            }
            for i in 0..n {
                if self.out_degree(i) > bound {
                    return Err(ValidationError::DegreeViolation {
                        node: Some(i),
                        degree: self.out_degree(i),
                        bound,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;
    use omt_geom::Point2;

    /// A small hand-built tree:
    ///
    /// ```text
    ///        source (0,0)
    ///        /          \
    ///    0 (1,0)       1 (0,1)
    ///      |
    ///    2 (1,1)
    /// ```
    fn sample_tree() -> MulticastTree<2> {
        let pts = vec![
            Point2::new([1.0, 0.0]),
            Point2::new([0.0, 1.0]),
            Point2::new([1.0, 1.0]),
        ];
        let mut b = TreeBuilder::new(Point2::ORIGIN, pts);
        b.attach_to_source(0).unwrap();
        b.attach_to_source(1).unwrap();
        b.attach(2, 0).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let t = sample_tree();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.parent(0), ParentRef::Source);
        assert_eq!(t.parent(2), ParentRef::Node(0));
        assert_eq!(t.edge_weight(2), 1.0);
        assert_eq!(t.depth(2), 2.0);
        assert_eq!(t.hops(2), 2);
        assert_eq!(t.radius(), 2.0);
        assert_eq!(t.deepest_node(), Some(2));
        assert_eq!(t.max_hops(), 2);
    }

    #[test]
    fn children_and_degrees() {
        let t = sample_tree();
        assert_eq!(t.source_children(), &[0, 1]);
        assert_eq!(t.children(0), &[2]);
        assert_eq!(t.children(1), &[] as &[u32]);
        assert_eq!(t.source_out_degree(), 2);
        assert_eq!(t.out_degree(0), 1);
        assert_eq!(t.out_degree(2), 0);
        assert_eq!(t.max_out_degree(), 2);
    }

    #[test]
    fn total_edge_weight() {
        let t = sample_tree();
        assert!((t.total_edge_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn diameter_two_sweep() {
        let t = sample_tree();
        // Longest path: node2 -> node0 -> source -> node1 = 1 + 1 + 1 = 3.
        assert!((t.diameter() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn distances_from_node() {
        let t = sample_tree();
        let d = t.distances_from(2);
        assert_eq!(d[2], 0.0);
        assert_eq!(d[0], 1.0);
        assert_eq!(d[3], 2.0); // source slot
        assert_eq!(d[1], 3.0);
    }

    #[test]
    fn validate_accepts_built_tree() {
        let t = sample_tree();
        t.validate(Some(2)).unwrap();
        t.validate(None).unwrap();
        assert!(matches!(
            t.validate(Some(1)),
            Err(ValidationError::DegreeViolation { node: None, .. })
        ));
    }

    #[test]
    fn validate_detects_corruption() {
        let mut t = sample_tree();
        t.depth[2] = 99.0;
        assert!(matches!(
            t.validate(None),
            Err(ValidationError::DepthMismatch { node: 2, .. })
        ));

        let mut t = sample_tree();
        t.parent[0] = 2;
        t.parent[2] = 0;
        assert!(matches!(
            t.validate(None),
            Err(ValidationError::Cycle { .. })
        ));

        let mut t = sample_tree();
        t.parent[0] = 77;
        assert!(matches!(
            t.validate(None),
            Err(ValidationError::DanglingParent {
                child: 0,
                parent: 77
            })
        ));
    }

    #[test]
    fn empty_tree() {
        let t = TreeBuilder::<2>::new(Point2::ORIGIN, vec![])
            .finish()
            .unwrap();
        assert!(t.is_empty());
        assert_eq!(t.radius(), 0.0);
        assert_eq!(t.diameter(), 0.0);
        assert_eq!(t.max_out_degree(), 0);
        assert_eq!(t.deepest_node(), None);
        t.validate(Some(0)).unwrap();
    }

    #[test]
    fn parent_ref_equality() {
        assert_eq!(ParentRef::Source, ParentRef::Source);
        assert_ne!(ParentRef::Source, ParentRef::Node(0));
    }
}
