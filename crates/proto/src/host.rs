//! Per-host local state — everything a protocol participant is allowed
//! to know.
//!
//! A host holds its own coordinates (true and advertised), the polar cell
//! its advertised coordinate lands in, its parent link, its children with
//! last-heard stamps, and a routing table mapping cells to the hosts
//! covering them. Nothing here references global topology; the driver in
//! [`crate::sim`] only ever mutates a host through messages addressed to
//! it.

use omt_geom::Point2;
use omt_sim::engine::HostId;

/// A polar-grid cell `(ring, seg)` as its heap-order index
/// `2^ring − 1 + seg` ([`cell_index`]): the inner disk is 0, the core
/// tree's parent of cell `f > 0` is `(f − 1) / 2`, and indices sort in
/// `(ring, seg)` order.
pub type Cell = u64;

/// The heap-order index of cell `(ring, seg)` of an
/// [`omt_core::PolarGrid2`].
#[inline]
pub fn cell_index((ring, seg): (u32, u64)) -> Cell {
    (1 << ring) - 1 + seg
}

/// The parent of `cell` in the grid's core tree, or `None` for the inner
/// disk; [`omt_core::PolarGrid2::parent`] on heap-order indices.
#[inline]
pub(crate) fn parent_cell(cell: Cell) -> Option<Cell> {
    cell.checked_sub(1).map(|f| f / 2)
}

/// A host's parent link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parent {
    /// Not attached (joining, or orphaned and rejoining).
    Detached,
    /// Attached under another host (the rendezvous is host
    /// [`crate::SOURCE`]).
    Host(HostId),
}

/// A child link with the last time the child was heard from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChildLink {
    /// The child's id.
    pub id: HostId,
    /// Last time a message from this child arrived.
    pub last_heard: f64,
}

/// The complete local state of one protocol participant.
#[derive(Clone, Debug)]
pub struct HostState {
    /// True position — delays are charged on this.
    pub coord: Point2,
    /// Advertised (possibly stale) position — cells are computed on this.
    pub advertised: Point2,
    /// The polar cell of the advertised position.
    pub cell: Cell,
    /// Whether the host process is running (false after crash/leave).
    pub alive: bool,
    /// Parent link.
    pub parent: Parent,
    /// Last time the parent was heard from (Pong or any parent message).
    pub parent_heard: f64,
    /// Children, in attach order.
    pub children: Vec<ChildLink>,
    /// Cell routing: which host covers the subtree of each known cell,
    /// one entry per cell, sorted by cell so lookups binary-search and
    /// iteration order is deterministic.
    pub(crate) routes: Vec<(Cell, HostId)>,
    /// Hosts that must not accept this host's joins (grown on cycle cuts).
    pub avoid: Vec<HostId>,
    /// Join epoch: bumped on every attach/detach so stale retry timers
    /// can be recognized and dropped.
    pub epoch: u32,
    /// Current retry backoff for this host's join attempts.
    pub backoff: f64,
    /// Whether a root-path probe is outstanding (re-sent each tick until
    /// `ProbeOk` arrives).
    pub probe_pending: bool,
    /// Round-robin cursor for overflow forwarding: rotating the child a
    /// full host hands surplus joiners to keeps in-cell subtrees balanced
    /// instead of degenerating into chains.
    pub rr: usize,
}

impl HostState {
    /// Fresh, detached state for a host at `coord` advertising
    /// `advertised`, assigned to `cell`.
    pub fn new(coord: Point2, advertised: Point2, cell: Cell) -> Self {
        Self {
            coord,
            advertised,
            cell,
            alive: true,
            parent: Parent::Detached,
            parent_heard: 0.0,
            children: Vec::new(),
            routes: Vec::new(),
            avoid: Vec::new(),
            epoch: 0,
            backoff: 0.0,
            probe_pending: false,
            rr: 0,
        }
    }

    /// Whether the host currently has a parent.
    #[inline]
    pub fn attached(&self) -> bool {
        matches!(self.parent, Parent::Host(_))
    }

    /// Index of `id` in the child list, if present.
    pub fn child_index(&self, id: HostId) -> Option<usize> {
        self.children.iter().position(|c| c.id == id)
    }

    /// The host routing `cell`, if any.
    #[inline]
    pub(crate) fn route(&self, cell: Cell) -> Option<HostId> {
        self.routes
            .binary_search_by_key(&cell, |&(c, _)| c)
            .ok()
            .map(|i| self.routes[i].1)
    }

    /// Routes `cell` through `host` unless the cell already has a route.
    pub(crate) fn add_route(&mut self, cell: Cell, host: HostId) {
        if let Err(i) = self.routes.binary_search_by_key(&cell, |&(c, _)| c) {
            self.routes.insert(i, (cell, host));
        }
    }

    /// Removes a child link and every routing entry pointing at it.
    pub fn drop_child(&mut self, id: HostId) {
        self.children.retain(|c| c.id != id);
        self.routes.retain(|&(_, h)| h != id);
    }

    /// Replaces `old` with `new` in the child list and routing table
    /// (graceful-leave successor swap, which preserves the degree count).
    pub fn swap_child(&mut self, old: HostId, new: HostId, now: f64) {
        for c in &mut self.children {
            if c.id == old {
                c.id = new;
                c.last_heard = now;
            }
        }
        for (_, h) in &mut self.routes {
            if *h == old {
                *h = new;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_child_clears_routes() {
        let mut h = HostState::new(Point2::ORIGIN, Point2::ORIGIN, 0);
        h.children.push(ChildLink {
            id: 7,
            last_heard: 0.0,
        });
        h.add_route(5, 9);
        h.add_route(4, 7);
        h.add_route(5, 7); // already routed: kept
        h.drop_child(7);
        assert!(h.child_index(7).is_none());
        assert_eq!(h.routes, [(5, 9)]);
        assert_eq!(h.route(5), Some(9));
        assert_eq!(h.route(4), None);
    }

    #[test]
    fn swap_child_preserves_degree_and_rewires_routes() {
        let mut h = HostState::new(Point2::ORIGIN, Point2::ORIGIN, 0);
        h.children.push(ChildLink {
            id: 4,
            last_heard: 1.0,
        });
        h.add_route(1, 4);
        h.swap_child(4, 11, 5.0);
        assert_eq!(h.children.len(), 1);
        assert_eq!(h.children[0].id, 11);
        assert_eq!(h.children[0].last_heard, 5.0);
        assert_eq!(h.route(1), Some(11));
    }

    #[test]
    fn heap_order_cells_match_the_polar_grid() {
        // Every cell of every grid up to k = 12: the index of the cell
        // `cell_of` finds at the cell's centre, its core-tree parent, and
        // the order — `(ring, seg)` order is 0, 1, 2, … in indices.
        use omt_core::PolarGrid2;
        use omt_geom::PolarPoint;
        for k in 0..=12 {
            let grid = PolarGrid2::new(k, 1.0);
            let mut next = 0;
            for ring in 0..=k {
                let inner = if ring == 0 {
                    0.0
                } else {
                    grid.circle_radius(ring - 1)
                };
                let r = (inner + grid.circle_radius(ring)) / 2.0;
                for seg in 0..grid.segments_on_ring(ring) {
                    let f = cell_index((ring, seg));
                    assert_eq!(f, next, "k {k}: ({ring}, {seg})");
                    next += 1;
                    let angle = (seg as f64 + 0.5) * std::f64::consts::TAU
                        / grid.segments_on_ring(ring) as f64;
                    let at = grid.cell_of(&PolarPoint::new(r, angle));
                    assert_eq!(cell_index(at), f, "k {k}: ({ring}, {seg})");
                    assert_eq!(
                        grid.parent(ring, seg).map(cell_index),
                        parent_cell(f),
                        "k {k}: ({ring}, {seg})"
                    );
                }
            }
            assert_eq!(next, grid.cell_count() as u64);
        }
    }
}
