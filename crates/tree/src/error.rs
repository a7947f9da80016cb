//! Error types for tree construction and validation.

use core::fmt;

/// Errors raised while building a multicast tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// A node index was out of range for the builder's point set.
    NodeOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of receiver nodes.
        len: usize,
    },
    /// The node is already attached to a parent.
    AlreadyAttached {
        /// The node that was attached twice.
        index: usize,
    },
    /// The designated parent has not been attached yet (construction must be
    /// top-down so the tree is acyclic by construction).
    ParentNotAttached {
        /// The unattached parent.
        parent: usize,
    },
    /// Attaching would exceed the parent's out-degree budget.
    DegreeExceeded {
        /// The parent whose budget is exhausted (`None` = the source).
        parent: Option<usize>,
        /// The configured maximum out-degree.
        max_out_degree: u32,
    },
    /// A node attached to itself.
    SelfLoop {
        /// The offending node.
        index: usize,
    },
    /// `finish` was called while some nodes were still unattached.
    NotSpanning {
        /// How many nodes have no parent.
        unattached: usize,
        /// The first unattached node index, for debugging.
        first: usize,
    },
    /// The requested node count exceeds the arena's `u32` id space.
    ///
    /// [`TreeArena`](crate::TreeArena) stores every link — parents, CSR
    /// offsets, child lists — as [`crate::NodeId`] (`u32`), with
    /// `u32::MAX` reserved as the no-node/source sentinel. Inputs beyond
    /// that are rejected up front with this typed error instead of
    /// wrapping ids.
    CapacityExceeded {
        /// The requested number of nodes.
        nodes: usize,
        /// The largest supported node count.
        max: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NodeOutOfRange { index, len } => {
                write!(f, "node index {index} out of range for {len} nodes")
            }
            Self::AlreadyAttached { index } => {
                write!(f, "node {index} is already attached to a parent")
            }
            Self::ParentNotAttached { parent } => {
                write!(f, "parent {parent} is not attached yet; build top-down")
            }
            Self::DegreeExceeded {
                parent,
                max_out_degree,
            } => match parent {
                Some(p) => write!(f, "out-degree of node {p} would exceed {max_out_degree}"),
                None => write!(f, "out-degree of the source would exceed {max_out_degree}"),
            },
            Self::SelfLoop { index } => write!(f, "node {index} cannot be its own parent"),
            Self::NotSpanning { unattached, first } => write!(
                f,
                "tree is not spanning: {unattached} unattached nodes (first: {first})"
            ),
            Self::CapacityExceeded { nodes, max } => write!(
                f,
                "{nodes} nodes exceed the arena's u32 id space (max {max})"
            ),
        }
    }
}

impl std::error::Error for TreeError {}

/// Errors found by [`crate::MulticastTree::validate`] — a from-scratch
/// re-verification intended for tests and debugging.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// A parent index points outside the node range.
    DanglingParent {
        /// The child with the bad parent pointer.
        child: usize,
        /// The out-of-range parent value.
        parent: usize,
    },
    /// Following parent pointers from `start` does not reach the source
    /// within `n` steps, indicating a cycle.
    Cycle {
        /// A node on or below the cycle.
        start: usize,
    },
    /// A node's out-degree exceeds the stated bound.
    DegreeViolation {
        /// The offending node (`None` = the source).
        node: Option<usize>,
        /// Its actual out-degree.
        degree: u32,
        /// The bound that was checked.
        bound: u32,
    },
    /// A cached depth disagrees with a freshly computed one.
    DepthMismatch {
        /// The node with the inconsistent depth.
        node: usize,
        /// The cached value.
        cached: f64,
        /// The recomputed value.
        computed: f64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DanglingParent { child, parent } => {
                write!(f, "node {child} has dangling parent index {parent}")
            }
            Self::Cycle { start } => write!(f, "cycle detected through node {start}"),
            Self::DegreeViolation {
                node,
                degree,
                bound,
            } => match node {
                Some(n) => write!(f, "node {n} has out-degree {degree} > bound {bound}"),
                None => write!(f, "source has out-degree {degree} > bound {bound}"),
            },
            Self::DepthMismatch {
                node,
                cached,
                computed,
            } => write!(
                f,
                "node {node} cached depth {cached} != recomputed {computed}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let msgs = [
            TreeError::NodeOutOfRange { index: 7, len: 3 }.to_string(),
            TreeError::AlreadyAttached { index: 1 }.to_string(),
            TreeError::ParentNotAttached { parent: 2 }.to_string(),
            TreeError::DegreeExceeded {
                parent: Some(4),
                max_out_degree: 6,
            }
            .to_string(),
            TreeError::DegreeExceeded {
                parent: None,
                max_out_degree: 2,
            }
            .to_string(),
            TreeError::SelfLoop { index: 5 }.to_string(),
            TreeError::NotSpanning {
                unattached: 3,
                first: 0,
            }
            .to_string(),
            TreeError::CapacityExceeded {
                nodes: 1 << 40,
                max: u32::MAX as usize - 1,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
        assert!(TreeError::NodeOutOfRange { index: 7, len: 3 }
            .to_string()
            .contains('7'));
    }

    #[test]
    fn validation_error_display() {
        let e = ValidationError::DegreeViolation {
            node: None,
            degree: 9,
            bound: 6,
        };
        assert!(e.to_string().contains("source"));
        let e = ValidationError::Cycle { start: 3 };
        assert!(e.to_string().contains("cycle"));
    }

    #[test]
    fn errors_implement_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<TreeError>();
        assert_err::<ValidationError>();
    }
}
