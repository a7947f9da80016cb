//! Dynamic group membership — the practical extension the paper's
//! conclusion asks for ("in practice, there is interest in a decentralized
//! version of the algorithm").
//!
//! [`DynamicOverlay`] maintains a degree-constrained multicast tree under
//! host joins and leaves:
//!
//! * **join** — the new host is placed in its polar-grid cell and attached
//!   to the best open host of that cell (falling back outward along the
//!   cell's ancestor chain, then to any open host), mirroring how a real
//!   rendezvous service would route a join request down the grid;
//! * **leave** — leaves detach directly; interior departures promote the
//!   closest orphan into the vacated attachment point and re-home the
//!   remaining orphans (their subtrees ride along intact);
//! * **amortized rebuild** — after enough churn the structure rebuilds
//!   itself with the full [`PolarGridBuilder`] (the grid parameters are
//!   only asymptotically right for the membership they were chosen for),
//!   so steady-state quality tracks the static algorithm's.
//!
//! The structure is a faithful *simulation* of the decentralized protocol:
//! all decisions use only cell-local information plus the ancestor chain,
//! which is exactly the state a distributed implementation would replicate.
//!
//! # Incremental maintenance
//!
//! Every quantity a membership event consults is cached and updated in
//! place, so the churn path never rescans the whole membership:
//!
//! * `delay` — the source-to-host delay is stored per host and refreshed
//!   along the affected subtree when a host is attached or re-parented
//!   (`delay(child) = delay(parent) + edge`), so candidate scoring is O(1)
//!   per candidate instead of an O(depth) parent walk;
//! * `cell_open` — each grid cell keeps the list of its *open* hosts
//!   (alive, out-degree below budget), so parent searches walk candidate
//!   sets instead of filtering all cell members;
//! * `source_children` — the live source out-degree is a counter, not an
//!   O(n) scan; it counts **attached** hosts only, so an orphan that is
//!   mid-re-homing no longer inflates the count;
//! * `slot_by_id` — host lookup is a hash-map hit, not a linear search;
//! * departed hosts have their parent pointer and child list cleared and
//!   their slot recycled through a free list, so no search or delay walk
//!   can ever traverse a dead slot and memory is bounded by the peak
//!   membership between rebuilds.
//!
//! A re-homed orphan must not attach inside its own subtree, and the
//! search checks that without flattening the subtree: a candidate is
//! walked up its ancestors only if it would win its cell, and the walk
//! stops at the first ancestor whose cached delay is below the orphan's.
//! Cached delays never decrease along an edge, so the cut-off is exact,
//! and re-homing costs O(probes) plus the O(subtree) delay refresh.
//!
//! Rebuilds assign slots cell-major: sorted by grid cell, in join order
//! within each cell, so a cell's hosts are contiguous in memory and every
//! open, member and child list keeps its join-order sequence (ties break
//! as before). Slot order never shows outside: [`DynamicOverlay::snapshot`]
//! lists hosts by id, which is join order.
//!
//! [`DynamicOverlay::assert_invariants`] re-verifies all of this — plus
//! spanning, acyclicity, and the degree budget *including the source* —
//! from scratch; the churn fuzz suite runs it after every membership event.

use std::cell::Cell;
use std::collections::HashMap;

use omt_geom::{Point2, PolarPoint};
use omt_tree::{validate_parent_forest, MulticastTree, NodeId, ParentRef, TreeBuilder};

use crate::error::BuildError;
use crate::grid2::PolarGrid2;
use crate::kselect::{cell_at_index, cell_index};
use crate::polar_grid::PolarGridBuilder;

/// Identifier of a live host inside a [`DynamicOverlay`]. Stable across
/// joins/leaves of other hosts; invalidated when the host itself leaves.
/// Ids are never reused, so a stale id can never alias a newer host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(u64);

#[derive(Clone, Debug)]
struct Host {
    position: Point2,
    /// Parent slot: `None` = the source (or detached, transiently inside
    /// `leave` while an orphan awaits re-homing). Slots share the arena's
    /// compact [`NodeId`] width, so the overlay's per-host footprint tracks
    /// the static builders'.
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Cached source-to-host delay; refreshed along the subtree whenever
    /// the host is (re-)attached.
    delay: f64,
    /// Flat index of the host's current grid cell.
    cell: u32,
    alive: bool,
    /// Generation counter for id reuse protection.
    id: HostId,
}

/// Counters of parent-search work, in [`Cell`]s because searches are
/// logically read-only (`&self`). `cells_scanned` counts open-list
/// consultations (one per cell whose open list was walked); `cost_probes`
/// counts attach-cost evaluations, one per open host a consultation
/// scores. Both are bumped once per consultation rather than once per
/// candidate.
#[derive(Clone, Debug, Default)]
struct SearchProbes {
    cells_scanned: Cell<u64>,
    cost_probes: Cell<u64>,
}

impl SearchProbes {
    /// Records one open-list consultation that scored `costs` hosts.
    #[inline]
    fn bump(&self, costs: u64) {
        self.cells_scanned.set(self.cells_scanned.get() + 1);
        self.cost_probes.set(self.cost_probes.get() + costs);
    }
}

/// A multicast tree that supports joins and leaves.
///
/// # Examples
///
/// ```
/// use omt_core::DynamicOverlay;
/// use omt_geom::Point2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6)?;
/// let a = overlay.join(Point2::new([1.0, 0.0]));
/// let b = overlay.join(Point2::new([0.5, 0.5]));
/// assert_eq!(overlay.len(), 2);
/// overlay.leave(a)?;
/// assert_eq!(overlay.len(), 1);
/// let tree = overlay.snapshot()?;
/// tree.validate(Some(6))?;
/// # let _ = b;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DynamicOverlay {
    source: Point2,
    max_out_degree: u32,
    hosts: Vec<Host>,
    /// Raw id -> slot of each live host.
    slot_by_id: HashMap<u64, NodeId>,
    /// Recycled slots of departed hosts.
    free_slots: Vec<NodeId>,
    /// Slots of live hosts, bucketed by their current grid cell.
    cell_members: Vec<Vec<NodeId>>,
    /// Slots of *open* live hosts (out-degree below budget), per cell.
    cell_open: Vec<Vec<NodeId>>,
    /// The grid the members are bucketed against (rebuilt on churn).
    grid: Option<PolarGrid2>,
    live: usize,
    /// Number of live hosts attached directly to the source.
    source_children: u32,
    churn_since_rebuild: usize,
    next_id: u64,
    /// Parent-search work counters.
    probes: SearchProbes,
    /// Reused work stack of `refresh_subtree_delays`, so re-homing a
    /// subtree allocates nothing.
    refresh_stack: Vec<u32>,
}

impl DynamicOverlay {
    /// Creates an empty overlay rooted at `source`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DegreeTooSmall`] for budgets below 2 and
    /// [`BuildError::NonFiniteSource`] for bad coordinates.
    pub fn new(source: Point2, max_out_degree: u32) -> Result<Self, BuildError> {
        if max_out_degree < 2 {
            return Err(BuildError::DegreeTooSmall {
                got: max_out_degree,
                min: 2,
            });
        }
        if !source.is_finite() {
            return Err(BuildError::NonFiniteSource);
        }
        Ok(Self {
            source,
            max_out_degree,
            hosts: Vec::new(),
            slot_by_id: HashMap::new(),
            free_slots: Vec::new(),
            cell_members: vec![Vec::new()],
            cell_open: vec![Vec::new()],
            grid: None,
            live: 0,
            source_children: 0,
            churn_since_rebuild: 0,
            next_id: 0,
            probes: SearchProbes::default(),
            refresh_stack: Vec::new(),
        })
    }

    /// The parent-search work counters accumulated since the last
    /// [`reset_search_probes`](Self::reset_search_probes), as
    /// `(cells_scanned, cost_probes)`: open-list consultations, and
    /// attach-cost evaluations with exactly one count per evaluation
    /// (each consultation scores every host on the open list once,
    /// including hosts a re-homing search then rejects as lying inside
    /// the orphan's own subtree).
    pub fn search_probes(&self) -> (u64, u64) {
        (
            self.probes.cells_scanned.get(),
            self.probes.cost_probes.get(),
        )
    }

    /// Zeroes the parent-search work counters.
    pub fn reset_search_probes(&self) {
        self.probes.cells_scanned.set(0);
        self.probes.cost_probes.set(0);
    }

    /// Number of live hosts.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no hosts are present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The source position.
    pub fn source(&self) -> Point2 {
        self.source
    }

    /// The out-degree budget.
    pub fn max_out_degree(&self) -> u32 {
        self.max_out_degree
    }

    /// Position of a live host.
    pub fn position(&self, id: HostId) -> Option<Point2> {
        self.slot_by_id
            .get(&id.0)
            .map(|&s| self.hosts[s as usize].position)
    }

    /// The current worst source-to-host delay.
    pub fn radius(&self) -> f64 {
        self.hosts
            .iter()
            .filter(|h| h.alive)
            .map(|h| h.delay)
            .fold(0.0, f64::max)
    }

    /// The grid cell of a position under the current grid (flat index).
    fn cell_of(&self, p: &Point2) -> usize {
        match &self.grid {
            None => 0,
            Some(grid) => {
                let polar = PolarPoint::from_cartesian(&(*p - self.source));
                let (ring, seg) = grid.cell_of(&polar);
                ((1u64 << ring) - 1 + seg) as usize
            }
        }
    }

    /// Cost of attaching a joiner at `position` under open host `s`.
    fn attach_cost(&self, s: u32, position: &Point2) -> f64 {
        let h = &self.hosts[s as usize];
        h.delay + h.position.distance(position)
    }

    /// Removes `slot` from its cell's open list (order-preserving, so tie
    /// handling stays deterministic).
    fn open_remove(&mut self, slot: u32) {
        let cell = self.hosts[slot as usize].cell;
        self.cell_open[cell as usize].retain(|&s| s != slot);
    }

    /// Adds `slot` back to its cell's open list.
    fn open_push(&mut self, slot: u32) {
        let cell = self.hosts[slot as usize].cell;
        debug_assert!(!self.cell_open[cell as usize].contains(&slot));
        self.cell_open[cell as usize].push(slot);
    }

    /// Recomputes the cached delay of `root` from its parent and propagates
    /// through the whole subtree below it.
    fn refresh_subtree_delays(&mut self, root: u32) {
        let r = root as usize;
        self.hosts[r].delay = match self.hosts[r].parent {
            None => self.hosts[r].position.distance(&self.source),
            Some(p) => {
                let p = p as usize;
                self.hosts[p].delay + self.hosts[r].position.distance(&self.hosts[p].position)
            }
        };
        let mut refreshed = 1u64;
        if self.hosts[r].children.is_empty() {
            omt_obs::obs_observe!("dynamic/refresh_size", refreshed);
            return;
        }
        let mut stack = std::mem::take(&mut self.refresh_stack);
        stack.push(root);
        while let Some(u) = stack.pop() {
            let u = u as usize;
            for i in 0..self.hosts[u].children.len() {
                let c = self.hosts[u].children[i] as usize;
                let d =
                    self.hosts[u].delay + self.hosts[u].position.distance(&self.hosts[c].position);
                self.hosts[c].delay = d;
                refreshed += 1;
                stack.push(c as u32);
            }
        }
        self.refresh_stack = stack;
        omt_obs::obs_observe!("dynamic/refresh_size", refreshed);
    }

    /// Attaches a currently-detached host under `parent` (`None` = the
    /// source), maintaining the child list, the source out-degree counter,
    /// the open-host index, and the subtree's cached delays.
    fn attach(&mut self, child: u32, parent: Option<u32>) {
        debug_assert!(self.hosts[child as usize].parent.is_none());
        self.hosts[child as usize].parent = parent;
        match parent {
            None => {
                self.source_children += 1;
                debug_assert!(
                    self.source_children <= self.max_out_degree,
                    "source out-degree budget exceeded"
                );
            }
            Some(p) => {
                let pu = p as usize;
                debug_assert!(self.hosts[pu].alive, "attaching under a dead host");
                debug_assert!(
                    (self.hosts[pu].children.len() as u32) < self.max_out_degree,
                    "attaching under a full host"
                );
                self.hosts[pu].children.push(child);
                if self.hosts[pu].children.len() as u32 == self.max_out_degree {
                    self.open_remove(p);
                }
            }
        }
        self.refresh_subtree_delays(child);
    }

    /// Detaches a host from its parent, clearing its parent pointer and
    /// reversing everything [`attach`](Self::attach) maintains.
    fn detach(&mut self, slot: u32) {
        match self.hosts[slot as usize].parent.take() {
            None => self.source_children -= 1,
            Some(p) => {
                let pu = p as usize;
                let was_full = self.hosts[pu].children.len() as u32 == self.max_out_degree;
                self.hosts[pu].children.retain(|&c| c != slot);
                if was_full {
                    self.open_push(p);
                }
            }
        }
    }

    /// Adds a host and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the position is not finite (joins are a hot path; callers
    /// own input hygiene, unlike the batch builders which return errors).
    pub fn join(&mut self, position: Point2) -> HostId {
        assert!(position.is_finite(), "host position must be finite");
        let _join_span = omt_obs::obs_span!("dynamic/join");
        // Choose a parent: best open host in the cell, walking up the
        // ancestor-cell chain, else the source if open, else the best open
        // host globally (exists whenever the tree is nonempty and the
        // budget is ≥ 2: leaves are open).
        let parent = self.find_parent_for(&position);
        omt_obs::obs_count!("dynamic/joins");
        let id = HostId(self.next_id);
        self.next_id += 1;
        let cell = self.cell_of(&position) as u32;
        let host = Host {
            position,
            parent: None,
            children: Vec::new(),
            delay: 0.0,
            cell,
            alive: true,
            id,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.hosts[s as usize] = host;
                s
            }
            None => {
                self.hosts.push(host);
                (self.hosts.len() - 1) as u32
            }
        };
        self.slot_by_id.insert(id.0, slot);
        self.cell_members[cell as usize].push(slot);
        self.cell_open[cell as usize].push(slot);
        self.attach(slot, parent);
        self.live += 1;
        self.churn_since_rebuild += 1;
        self.maybe_rebuild();
        id
    }

    /// Chooses the parent slot for a joining position (`None` = source).
    fn find_parent_for(&self, position: &Point2) -> Option<u32> {
        let source_open = self.source_children < self.max_out_degree;
        if let Some((_, p)) = self.chain_candidate(position, None) {
            return Some(p);
        }
        if source_open {
            return None;
        }
        // Global fallback: any open host, preferring small delay.
        let best = self.best_open_excluding(position, None);
        assert!(best.is_some(), "a degree >= 2 tree always has an open host");
        best.map(|(_, s)| s)
    }

    /// The cheapest eligible open host along the ancestor-cell chain of
    /// `position`, with its attach cost: its own cell's open hosts first,
    /// then each ancestor cell's, stopping at the first cell that yields a
    /// candidate. This is the cell-local state a decentralized
    /// implementation replicates.
    fn chain_candidate(&self, position: &Point2, banned: Option<u32>) -> Option<(f64, u32)> {
        let mut cell = self.cell_of(position);
        let mut hops = 0u64;
        loop {
            let best = self.scan_cell_for(cell, position, banned);
            if best.is_some() {
                omt_obs::obs_observe!("dynamic/chain_len", hops);
                return best;
            }
            if cell == 0 {
                omt_obs::obs_observe!("dynamic/chain_len", hops);
                return None;
            }
            hops += 1;
            // Parent cell: flat index arithmetic of the binary layout.
            let (ring, seg) = cell_at_index(cell);
            cell = if ring <= 1 {
                0
            } else {
                cell_index(ring - 1, seg / 2)
            };
        }
    }

    /// The cheapest open host for `position` over the whole open index,
    /// with its attach cost, skipping the subtree rooted at `banned` (the
    /// orphan being re-homed) when given. Deterministic: first minimum
    /// wins — i.e. the winner is the lexicographic minimum of `(cost,
    /// cell, list position)`.
    fn best_open_excluding(&self, position: &Point2, banned: Option<u32>) -> Option<(f64, u32)> {
        let mut best: Option<(f64, u32)> = None;
        for cell in 0..self.cell_open.len() {
            if let Some((cost, s)) = self.scan_cell_for(cell, position, banned) {
                if best.is_none_or(|(bc, _)| cost < bc) {
                    best = Some((cost, s));
                }
            }
        }
        best
    }

    /// Scans one cell's open list for the cheapest host outside the
    /// subtree rooted at `banned`, with its attach cost. Every cost is
    /// evaluated once and the earliest strict minimum wins; the subtree
    /// test runs only for a host that would take the lead, since a host
    /// that does not cannot change the answer either way.
    fn scan_cell_for(
        &self,
        cell: usize,
        position: &Point2,
        banned: Option<u32>,
    ) -> Option<(f64, u32)> {
        let open = &self.cell_open[cell];
        self.probes.bump(open.len() as u64);
        let mut best: Option<(f64, u32)> = None;
        for &s in open {
            let cost = self.attach_cost(s, position);
            if best.is_none_or(|(bc, _)| cost < bc)
                && !banned.is_some_and(|root| self.in_subtree(s, root))
            {
                best = Some((cost, s));
            }
        }
        best
    }

    /// Whether host `s` lies in the subtree rooted at `root`. Walks up
    /// from `s` and gives up at the first ancestor whose cached delay is
    /// below `root`'s: cached delays never decrease along an edge (each is
    /// `fl(delay(parent) + edge)` with `edge ≥ 0`, and `fl(a + d) ≥ a`),
    /// so no such host can lie in the subtree. Equal delays (zero-length
    /// edges) keep walking. The walk also ends at any host without a
    /// parent: a source child, or an orphan awaiting re-homing.
    fn in_subtree(&self, mut s: u32, root: u32) -> bool {
        let floor = self.hosts[root as usize].delay;
        loop {
            if s == root {
                return true;
            }
            let h = &self.hosts[s as usize];
            match h.parent {
                Some(p) if h.delay >= floor => s = p,
                _ => return false,
            }
        }
    }

    /// Removes a host.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownHost`] if the id was never issued by
    /// this overlay or the host has already departed.
    pub fn leave(&mut self, id: HostId) -> Result<(), BuildError> {
        let Some(slot) = self.slot_by_id.remove(&id.0) else {
            return Err(BuildError::UnknownHost { id: id.0 });
        };
        let _leave_span = omt_obs::obs_span!("dynamic/leave");
        omt_obs::obs_count!("dynamic/leaves");
        let su = slot as usize;
        debug_assert!(self.hosts[su].alive && self.hosts[su].id == id);
        let vacated_parent = self.hosts[su].parent;
        self.detach(slot);
        // Remove the departing host from every index before any re-homing
        // decision, so it can never be selected as a parent.
        if (self.hosts[su].children.len() as u32) < self.max_out_degree {
            self.open_remove(slot);
        }
        let cell = self.hosts[su].cell as usize;
        self.cell_members[cell].retain(|&s| s != slot);
        let children = std::mem::take(&mut self.hosts[su].children);
        self.hosts[su].alive = false;
        self.hosts[su].delay = 0.0;
        self.live -= 1;
        if !children.is_empty() {
            // Promote the orphan closest to the departed host into the
            // vacated attachment point (its subtree rides along); the
            // remaining orphans re-join through the normal search, each
            // banned from its own subtree.
            let departed_pos = self.hosts[su].position;
            let promoted = *children
                .iter()
                .min_by(|&&a, &&b| {
                    let da = self.hosts[a as usize].position.distance(&departed_pos);
                    let db = self.hosts[b as usize].position.distance(&departed_pos);
                    da.total_cmp(&db)
                })
                .expect("nonempty");
            // Detach every orphan up front: no orphan may keep a parent
            // pointer into the dead slot. Detached orphans are not source
            // children — the source out-degree counter deliberately counts
            // attached hosts only. Their cached delays (and their
            // subtrees') still describe the pre-departure tree, which is
            // exactly the score the re-homing search should use for them
            // as candidates.
            for &c in &children {
                self.hosts[c as usize].parent = None;
            }
            self.attach(promoted, vacated_parent);
            for &c in &children {
                if c == promoted {
                    continue;
                }
                #[cfg(test)]
                tests::audit_in_subtree(self, c, promoted, &children);
                let pos = self.hosts[c as usize].position;
                let parent = self.find_parent_for_excluding(&pos, c);
                self.attach(c, parent);
            }
        }
        self.free_slots.push(slot);
        self.churn_since_rebuild += 1;
        self.maybe_rebuild();
        Ok(())
    }

    /// Parent search that refuses to attach inside the subtree of `banned`
    /// (which is being re-homed — attaching inside it would create a
    /// cycle). Candidates come from the same ancestor-cell chain the join
    /// path walks (the pre-change code scanned every live host here, which
    /// both made interior leaves O(n·depth) and consulted global state a
    /// decentralized node would not have), with a global scan only as the
    /// last-resort fallback. Subtree membership is asked of would-be
    /// winners only, through [`in_subtree`](Self::in_subtree), so the
    /// search costs O(probes) whatever the size of the orphan's subtree.
    /// Returns `None` (= attach to the source) only when the source has
    /// spare out-degree: the previous implementation silently fell back to
    /// the source when no open candidate survived the subtree filter, which
    /// would break the degree cap whenever the source was already full.
    fn find_parent_for_excluding(&self, position: &Point2, banned: u32) -> Option<u32> {
        let source_open = self.source_children < self.max_out_degree;
        match self
            .chain_candidate(position, Some(banned))
            .or_else(|| self.best_open_excluding(position, Some(banned)))
        {
            Some((via, s)) => {
                if source_open && self.source.distance(position) <= via {
                    return None;
                }
                Some(s)
            }
            None => {
                // No open host outside the orphan's own subtree. Every
                // host outside that subtree descends from a source child,
                // and a finite forest of live hosts always contains an
                // open leaf — so this can only be reached when the source
                // has no children at all, and the source then has room by
                // construction. Enforce that instead of silently
                // over-attaching a full source.
                assert!(
                    source_open,
                    "no open host outside the re-homed subtree and the source is full; \
                     the overlay degree invariant is broken"
                );
                None
            }
        }
    }

    /// Rebuilds with the full static algorithm when churn since the last
    /// rebuild exceeds half the membership.
    fn maybe_rebuild(&mut self) {
        if self.churn_since_rebuild * 2 <= self.live.max(8) {
            return;
        }
        self.rebuild();
    }

    /// Live slots sorted by id — i.e. in join order (ids are monotone and
    /// never reused, while slots are recycled). Sorts `(id, slot)` pairs
    /// gathered in one pass, so no comparison has to chase a slot.
    fn live_slots_in_join_order(&self) -> Vec<u32> {
        let mut keyed: Vec<(HostId, u32)> = self
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.alive)
            .map(|(s, h)| (h.id, s as u32))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, s)| s).collect()
    }

    /// Forces a full rebuild with [`PolarGridBuilder`].
    ///
    /// Slots come out cell-major: sorted by grid cell, and in join order
    /// within each cell, so a cell's hosts sit next to each other in
    /// memory while every open, member and child list keeps the order it
    /// would have in join order.
    pub fn rebuild(&mut self) {
        let _rebuild_span = omt_obs::obs_span!("dynamic/rebuild");
        omt_obs::obs_count!("dynamic/rebuilds");
        self.churn_since_rebuild = 0;
        // The live membership in join order. The old slot array is freed
        // before the build, so the old and new arrays never coexist.
        let mut live: Vec<(HostId, Point2)> = self
            .hosts
            .iter()
            .filter(|h| h.alive)
            .map(|h| (h.id, h.position))
            .collect();
        self.hosts = Vec::new();
        if live.is_empty() {
            self.slot_by_id.clear();
            self.free_slots.clear();
            self.cell_members = vec![Vec::new()];
            self.cell_open = vec![Vec::new()];
            self.grid = None;
            self.source_children = 0;
            return;
        }
        live.sort_unstable_by_key(|&(id, _)| id);
        let (ids, positions): (Vec<HostId>, Vec<Point2>) = live.into_iter().unzip();
        let (tree, report) = PolarGridBuilder::new()
            .max_out_degree(self.max_out_degree)
            .build_with_report(self.source, &positions)
            .expect("live positions are finite");
        let source = self.source;
        let grid = PolarGrid2::new(report.rings, {
            let rho = positions
                .iter()
                .map(|p| p.distance(&source))
                .fold(0.0f64, f64::max);
            if rho > 0.0 {
                rho * (1.0 + 1e-9)
            } else {
                1.0
            }
        });
        // Counting sort by cell, stable in join order: `slot_of[i]` is the
        // new slot of the i-th host in join order, and `cell_end[c]` ends
        // cell c's run of slots.
        let cell_of: Vec<u32> = positions
            .iter()
            .map(|p| {
                let (ring, seg) = grid.cell_of(&PolarPoint::from_cartesian(&(*p - source)));
                ((1u64 << ring) - 1 + seg) as u32
            })
            .collect();
        let mut cell_end = vec![0u32; grid.cell_count()];
        for &c in &cell_of {
            cell_end[c as usize] += 1;
        }
        let mut start = 0u32;
        for next in &mut cell_end {
            (*next, start) = (start, start + *next);
        }
        let slot_of: Vec<u32> = cell_of
            .iter()
            .map(|&c| {
                let slot = cell_end[c as usize];
                cell_end[c as usize] += 1;
                slot
            })
            .collect();
        // Filled in join order, so the tree is read front to back.
        let vacant = Host {
            position: source,
            parent: None,
            children: Vec::new(),
            delay: 0.0,
            cell: 0,
            alive: false,
            id: HostId(0),
        };
        let mut hosts = vec![vacant; positions.len()];
        for (i, &slot) in slot_of.iter().enumerate() {
            hosts[slot as usize] = Host {
                position: positions[i],
                parent: match tree.parent(i) {
                    ParentRef::Source => None,
                    ParentRef::Node(p) => Some(slot_of[p]),
                },
                children: tree
                    .children(i)
                    .iter()
                    .map(|&c| slot_of[c as usize])
                    .collect(),
                delay: tree.depth(i),
                cell: cell_of[i],
                alive: true,
                id: ids[i],
            };
        }
        let max = self.max_out_degree;
        let mut cell_members = Vec::with_capacity(cell_end.len());
        let mut cell_open = Vec::with_capacity(cell_end.len());
        let mut first = 0;
        for &end in &cell_end {
            cell_members.push((first..end).collect::<Vec<NodeId>>());
            cell_open.push(
                (first..end)
                    .filter(|&s| (hosts[s as usize].children.len() as u32) < max)
                    .collect::<Vec<NodeId>>(),
            );
            first = end;
        }
        self.hosts = hosts;
        self.slot_by_id = self
            .hosts
            .iter()
            .enumerate()
            .map(|(s, h)| (h.id.0, s as u32))
            .collect();
        self.free_slots.clear();
        self.source_children = tree.source_out_degree();
        self.grid = Some(grid);
        self.cell_members = cell_members;
        self.cell_open = cell_open;
    }

    /// Materializes the current membership as an immutable
    /// [`MulticastTree`] (host order = join order of live hosts).
    ///
    /// # Errors
    ///
    /// Never fails for a consistent overlay; an [`BuildError::Internal`]
    /// would indicate a bug in the maintenance logic.
    pub fn snapshot(&self) -> Result<MulticastTree<2>, BuildError> {
        let live_slots = self.live_slots_in_join_order();
        let mut slot_to_new = vec![u32::MAX; self.hosts.len()];
        for (new, &old) in live_slots.iter().enumerate() {
            slot_to_new[old as usize] = new as u32;
        }
        let positions: Vec<Point2> = live_slots
            .iter()
            .map(|&s| self.hosts[s as usize].position)
            .collect();
        let mut builder =
            TreeBuilder::new(self.source, positions).max_out_degree(self.max_out_degree);
        // Attach top-down via BFS from the source children.
        let mut queue: std::collections::VecDeque<u32> = live_slots
            .iter()
            .copied()
            .filter(|&s| self.hosts[s as usize].parent.is_none())
            .collect();
        while let Some(slot) = queue.pop_front() {
            let su = slot as usize;
            let new = slot_to_new[su] as usize;
            match self.hosts[su].parent {
                None => builder.attach_to_source(new)?,
                Some(p) => builder.attach(new, slot_to_new[p as usize] as usize)?,
            }
            for &c in &self.hosts[su].children {
                queue.push_back(c);
            }
        }
        Ok(builder.finish()?)
    }

    /// Re-verifies every maintenance invariant from scratch, panicking on
    /// the first violation. Intended for fuzzing and tests (the churn fuzz
    /// suite runs this after **every** membership event); O(n + cells).
    ///
    /// Checked: alive/dead bookkeeping (id map, free list, cleared dead
    /// slots), parent/child mutual consistency, the source out-degree
    /// counter, spanning + acyclicity + the degree budget including the
    /// source (via [`validate_parent_forest`]), cached delays, and the
    /// exactness of the cell-membership and open-host indexes.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_invariants(&self) {
        let n = self.hosts.len();
        let max = self.max_out_degree;
        let mut alive_count = 0usize;
        for (s, h) in self.hosts.iter().enumerate() {
            if !h.alive {
                assert!(
                    h.parent.is_none() && h.children.is_empty(),
                    "dead slot {s} keeps stale topology"
                );
                continue;
            }
            alive_count += 1;
            assert_eq!(
                self.slot_by_id.get(&h.id.0),
                Some(&(s as u32)),
                "live host in slot {s} missing from the id map"
            );
            if let Some(p) = h.parent {
                assert!(
                    (p as usize) < n && self.hosts[p as usize].alive,
                    "host {s} has a dead or dangling parent {p}"
                );
            }
            assert!(
                h.children.len() as u32 <= max,
                "host {s} exceeds the out-degree budget: {} > {max}",
                h.children.len()
            );
            for &c in &h.children {
                assert!((c as usize) < n, "host {s} has dangling child {c}");
                let ch = &self.hosts[c as usize];
                assert!(ch.alive, "host {s} has dead child {c}");
                assert_eq!(
                    ch.parent,
                    Some(s as u32),
                    "child {c} does not point back to parent {s}"
                );
            }
            let expected = match h.parent {
                None => h.position.distance(&self.source),
                Some(p) => {
                    let p = p as usize;
                    self.hosts[p].delay + h.position.distance(&self.hosts[p].position)
                }
            };
            assert!(
                (h.delay - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
                "host {s} cached delay {} disagrees with recomputed {expected}",
                h.delay
            );
            assert_eq!(
                h.cell as usize,
                self.cell_of(&h.position),
                "host {s} is bucketed in a stale cell"
            );
        }
        assert_eq!(alive_count, self.live, "live counter is stale");
        assert_eq!(self.slot_by_id.len(), self.live, "id map size mismatch");
        let mut freed = vec![false; n];
        for &s in &self.free_slots {
            let su = s as usize;
            assert!(
                su < n && !self.hosts[su].alive,
                "free list holds live slot {s}"
            );
            assert!(!freed[su], "slot {s} is on the free list twice");
            freed[su] = true;
        }
        assert_eq!(
            self.free_slots.len(),
            n - self.live,
            "every dead slot must be recyclable exactly once"
        );
        let source_children = self
            .hosts
            .iter()
            .filter(|h| h.alive && h.parent.is_none())
            .count();
        assert_eq!(
            source_children as u32, self.source_children,
            "source out-degree counter is stale"
        );
        assert!(
            self.source_children <= max,
            "source exceeds the out-degree budget: {} > {max}",
            self.source_children
        );
        // Spanning + acyclicity + degree (including the source) on the
        // compacted live topology, via the tree crate's validator.
        let live_slots = self.live_slots_in_join_order();
        let mut slot_to_new = vec![usize::MAX; n];
        for (new, &old) in live_slots.iter().enumerate() {
            slot_to_new[old as usize] = new;
        }
        let parents: Vec<Option<usize>> = live_slots
            .iter()
            .map(|&s| {
                self.hosts[s as usize]
                    .parent
                    .map(|p| slot_to_new[p as usize])
            })
            .collect();
        validate_parent_forest(&parents, Some(max)).expect("overlay topology invariant violated");
        // The cell indexes partition the membership exactly.
        let cells = self.grid.as_ref().map_or(1, PolarGrid2::cell_count);
        assert_eq!(self.cell_members.len(), cells, "cell index has wrong size");
        assert_eq!(self.cell_open.len(), cells, "open index has wrong size");
        let mut in_members = vec![false; n];
        let mut member_total = 0usize;
        for (cell, list) in self.cell_members.iter().enumerate() {
            for &s in list {
                let su = s as usize;
                let h = &self.hosts[su];
                assert!(h.alive, "cell {cell} lists dead slot {s}");
                assert_eq!(
                    h.cell as usize, cell,
                    "slot {s} listed in foreign cell {cell}"
                );
                assert!(!in_members[su], "slot {s} listed in cells twice");
                in_members[su] = true;
                member_total += 1;
            }
        }
        assert_eq!(
            member_total, self.live,
            "cell index does not cover the membership"
        );
        let mut in_open = vec![false; n];
        let mut open_total = 0usize;
        for (cell, list) in self.cell_open.iter().enumerate() {
            for &s in list {
                let su = s as usize;
                let h = &self.hosts[su];
                assert!(h.alive, "open index {cell} lists dead slot {s}");
                assert!(
                    (h.children.len() as u32) < max,
                    "open index lists full host {s}"
                );
                assert_eq!(
                    h.cell as usize, cell,
                    "open slot {s} in foreign cell {cell}"
                );
                assert!(!in_open[su], "slot {s} in the open index twice");
                in_open[su] = true;
                open_total += 1;
            }
        }
        let open_expected = self
            .hosts
            .iter()
            .filter(|h| h.alive && (h.children.len() as u32) < max)
            .count();
        assert_eq!(
            open_total, open_expected,
            "open index does not cover all open hosts"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Disk, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::{RngExt, SeedableRng};
    use std::cell::Cell;

    /// What [`audit_in_subtree`] has covered on this test thread.
    #[derive(Clone, Copy, Default)]
    struct AuditCoverage {
        /// Orphan re-homes audited.
        rehomes: u64,
        /// Open hosts checked that hang under another orphan that is
        /// still detached.
        under_detached: u64,
        /// Open hosts checked, other than the orphan itself, whose cached
        /// delay equals the orphan's, inside and outside its subtree.
        equal_inside: u64,
        equal_outside: u64,
    }

    thread_local! {
        static AUDIT: Cell<AuditCoverage> = Cell::new(AuditCoverage::default());
    }

    /// Called by `leave` before it re-homes orphan `root`, one of the
    /// departed host's `orphans`, which are re-homed in list order after
    /// `promoted` (so the ones after `root` are still detached). Checks
    /// `in_subtree` against an explicitly flattened subtree for every open
    /// host.
    pub(super) fn audit_in_subtree(
        overlay: &DynamicOverlay,
        root: u32,
        promoted: u32,
        orphans: &[u32],
    ) {
        let at = orphans.iter().position(|&o| o == root).expect("an orphan");
        let pending = &orphans[at + 1..];
        let mut flat = vec![false; overlay.hosts.len()];
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            flat[u as usize] = true;
            stack.extend(&overlay.hosts[u as usize].children);
        }
        let mut seen = AUDIT.get();
        seen.rehomes += 1;
        let root_delay = overlay.hosts[root as usize].delay;
        for &s in overlay.cell_open.iter().flatten() {
            assert_eq!(
                overlay.in_subtree(s, root),
                flat[s as usize],
                "in_subtree({s}, {root}) disagrees with the flattened subtree"
            );
            let mut top = s;
            while let Some(p) = overlay.hosts[top as usize].parent {
                top = p;
            }
            if top != promoted && pending.contains(&top) {
                seen.under_detached += 1;
            }
            if s != root && overlay.hosts[s as usize].delay == root_delay {
                if flat[s as usize] {
                    seen.equal_inside += 1;
                } else {
                    seen.equal_outside += 1;
                }
            }
        }
        AUDIT.set(seen);
    }

    /// Differential test of `in_subtree`: a churn campaign with many
    /// interior leaves and duplicate positions (zero-length edges, so
    /// equal delays), audited at every orphan re-home.
    #[test]
    fn in_subtree_matches_flattened_subtree_at_every_rehome() {
        AUDIT.set(AuditCoverage::default());
        for (seed, degree) in [(21u64, 2u32), (22, 3), (23, 6)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut overlay = DynamicOverlay::new(Point2::ORIGIN, degree).unwrap();
            let mut live = Vec::new();
            let mut seen: Vec<Point2> = Vec::new();
            for _ in 0..1500 {
                if live.len() < 8 || rng.random::<f64>() < 0.6 {
                    let p = if !seen.is_empty() && rng.random::<f64>() < 0.25 {
                        seen[rng.random_range(0..seen.len())]
                    } else {
                        Point2::new([rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)])
                    };
                    seen.push(p);
                    live.push(overlay.join(p));
                } else {
                    let i = rng.random_range(0..live.len());
                    overlay.leave(live.swap_remove(i)).unwrap();
                }
            }
            overlay.assert_invariants();
        }
        let got = AUDIT.get();
        assert!(
            got.rehomes >= 100
                && got.under_detached > 0
                && got.equal_inside > 0
                && got.equal_outside > 0,
            "campaign under-exercised: {} re-homes, {} under detached orphans, \
             {} / {} equal delays inside / outside",
            got.rehomes,
            got.under_detached,
            got.equal_inside,
            got.equal_outside
        );
    }

    #[test]
    fn joins_build_valid_trees() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
        for p in Disk::unit().sample_n(&mut rng, 500) {
            overlay.join(p);
        }
        assert_eq!(overlay.len(), 500);
        overlay.assert_invariants();
        let tree = overlay.snapshot().unwrap();
        assert_eq!(tree.len(), 500);
        tree.validate(Some(6)).unwrap();
    }

    #[test]
    fn leaves_remove_and_rewire() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 3).unwrap();
        let ids: Vec<HostId> = Disk::unit()
            .sample_n(&mut rng, 200)
            .into_iter()
            .map(|p| overlay.join(p))
            .collect();
        // Remove every third host, including interior ones.
        for id in ids.iter().step_by(3) {
            overlay.leave(*id).unwrap();
        }
        assert_eq!(overlay.len(), 200 - 67);
        overlay.assert_invariants();
        let tree = overlay.snapshot().unwrap();
        tree.validate(Some(3)).unwrap();
        // Departed ids are gone, with the dedicated error.
        assert!(overlay.position(ids[0]).is_none());
        assert!(matches!(
            overlay.leave(ids[0]),
            Err(BuildError::UnknownHost { .. })
        ));
        // Survivors remain addressable.
        assert!(overlay.position(ids[1]).is_some());
    }

    #[test]
    fn churn_quality_tracks_static_rebuild() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
        let mut live: Vec<HostId> = Vec::new();
        for _ in 0..1500 {
            if live.len() < 50 || rng.random::<f64>() < 0.6 {
                let p = {
                    let r = rng.random::<f64>().sqrt();
                    let t = rng.random_range(0.0..core::f64::consts::TAU);
                    Point2::new([r * t.cos(), r * t.sin()])
                };
                live.push(overlay.join(p));
            } else {
                let i = rng.random_range(0..live.len());
                let id = live.swap_remove(i);
                overlay.leave(id).unwrap();
            }
        }
        let churned = overlay.radius();
        let snapshot = overlay.snapshot().unwrap();
        snapshot.validate(Some(6)).unwrap();
        // Compare against a fresh static build over the same membership.
        let fresh = PolarGridBuilder::new()
            .build(Point2::ORIGIN, snapshot.points())
            .unwrap();
        assert!(
            churned <= fresh.radius() * 2.5 + 0.2,
            "churned {churned} vs fresh {}",
            fresh.radius()
        );
    }

    #[test]
    fn degree_budget_never_violated_under_churn() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 2).unwrap();
        let mut live = Vec::new();
        for step in 0..600 {
            if live.is_empty() || step % 3 != 0 {
                live.push(overlay.join(Point2::new([
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                ])));
            } else {
                let i = rng.random_range(0..live.len());
                overlay.leave(live.swap_remove(i)).unwrap();
            }
            overlay.assert_invariants();
            if step % 97 == 0 {
                overlay.snapshot().unwrap().validate(Some(2)).unwrap();
            }
        }
        overlay.snapshot().unwrap().validate(Some(2)).unwrap();
    }

    /// Regression for the degree-cap hole in the pre-caching `leave`: an
    /// interior departure while the source is at its out-degree budget
    /// must re-home every orphan without over-attaching the source (the
    /// old `find_parent_for_excluding` fell back to "attach to source"
    /// without any capacity check).
    #[test]
    fn interior_leave_with_full_source_respects_cap() {
        let mut exercised = 0;
        for seed in 0..50u64 {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 2).unwrap();
            let mut live = Vec::new();
            for _ in 0..120 {
                if live.len() < 6 || rng.random::<f64>() < 0.7 {
                    live.push(overlay.join(Point2::new([
                        rng.random_range(-1.0..1.0),
                        rng.random_range(-1.0..1.0),
                    ])));
                } else {
                    let i = rng.random_range(0..live.len());
                    overlay.leave(live.swap_remove(i)).unwrap();
                }
            }
            if overlay.source_children < overlay.max_out_degree {
                continue;
            }
            // Pick an interior host (non-source-child with children) and
            // remove it while the source is full.
            let interior = overlay
                .hosts
                .iter()
                .find(|h| h.alive && h.parent.is_some() && h.children.len() >= 2);
            let Some(interior) = interior else { continue };
            let id = interior.id;
            live.retain(|&l| l != id);
            overlay.leave(id).unwrap();
            exercised += 1;
            overlay.assert_invariants();
            overlay.snapshot().unwrap().validate(Some(2)).unwrap();
        }
        assert!(
            exercised >= 5,
            "workload failed to produce interior leaves under a full source ({exercised})"
        );
    }

    /// Departed slots are fully cleared and recycled: no index, parent
    /// pointer, or child list may ever reference a dead slot, and the slot
    /// pool stays bounded by the peak membership between rebuilds.
    #[test]
    fn dead_slots_are_cleared_and_recycled() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 3).unwrap();
        let mut live = Vec::new();
        let mut peak_pool = 0;
        for step in 0..1500 {
            if live.len() < 20 || step % 2 == 0 {
                live.push(overlay.join(Point2::new([
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                ])));
            } else {
                let i = rng.random_range(0..live.len());
                overlay.leave(live.swap_remove(i)).unwrap();
            }
            // assert_invariants covers: dead slots have no parent/children,
            // no live child list or index references a dead slot.
            overlay.assert_invariants();
            peak_pool = peak_pool.max(overlay.hosts.len());
        }
        // Slot recycling keeps the pool at the peak live size (plus the
        // at-most-one slot freed between reuse opportunities), instead of
        // growing with the total number of joins (~1000 here).
        assert!(
            peak_pool <= live.len() + overlay.free_slots.len() + 1,
            "slot pool grew past the live membership: {peak_pool} slots for {} live",
            live.len()
        );
        // Ids are never recycled even though slots are.
        let stale = live[0];
        overlay.leave(stale).unwrap();
        let fresh = overlay.join(Point2::new([0.1, 0.2]));
        assert_ne!(stale, fresh);
        assert!(overlay.position(stale).is_none());
        assert!(matches!(
            overlay.leave(stale),
            Err(BuildError::UnknownHost { .. })
        ));
    }

    #[test]
    fn empty_overlay_behaviour() {
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
        assert!(overlay.is_empty());
        assert_eq!(overlay.radius(), 0.0);
        let t = overlay.snapshot().unwrap();
        assert!(t.is_empty());
        // Drain to empty and come back.
        let id = overlay.join(Point2::new([1.0, 0.0]));
        overlay.leave(id).unwrap();
        assert!(overlay.is_empty());
        overlay.assert_invariants();
        let id2 = overlay.join(Point2::new([0.0, 1.0]));
        assert_eq!(overlay.len(), 1);
        assert!(overlay.position(id2).is_some());
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(
            DynamicOverlay::new(Point2::ORIGIN, 1),
            Err(BuildError::DegreeTooSmall { .. })
        ));
        assert!(matches!(
            DynamicOverlay::new(Point2::new([f64::NAN, 0.0]), 4),
            Err(BuildError::NonFiniteSource)
        ));
    }

    #[test]
    fn explicit_rebuild_preserves_validity_and_bounds() {
        // Points on the unit circle are adversarial for an area-based grid
        // (everything lands in the outermost ring, forcing k = 1), so the
        // rebuild is not guaranteed to beat the greedy join path — but it
        // must stay valid and within the analytic bound of the static
        // algorithm.
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 2).unwrap();
        for i in 0..100 {
            let t = i as f64 * 0.7;
            overlay.join(Point2::new([t.cos(), t.sin()]));
        }
        overlay.rebuild();
        overlay.assert_invariants();
        let snapshot = overlay.snapshot().unwrap();
        snapshot.validate(Some(2)).unwrap();
        let (_, report) = PolarGridBuilder::new()
            .max_out_degree(2)
            .build_with_report(Point2::ORIGIN, snapshot.points())
            .unwrap();
        assert!(overlay.radius() <= report.bound + 1e-9);
        // On a well-behaved area distribution the rebuild must not lose to
        // the incremental tree by much.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6).unwrap();
        for p in Disk::unit().sample_n(&mut rng, 800) {
            overlay.join(p);
        }
        let before = overlay.radius();
        overlay.rebuild();
        assert!(overlay.radius() <= before * 1.25 + 0.1);
        overlay.snapshot().unwrap().validate(Some(6)).unwrap();
    }

    /// The cached radius agrees with the snapshot's from-scratch radius.
    #[test]
    fn cached_radius_matches_snapshot() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
        let mut live = Vec::new();
        for step in 0..400 {
            if live.len() < 10 || step % 3 != 0 {
                live.push(overlay.join(Point2::new([
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                ])));
            } else {
                let i = rng.random_range(0..live.len());
                overlay.leave(live.swap_remove(i)).unwrap();
            }
        }
        let snap = overlay.snapshot().unwrap();
        assert!(
            (overlay.radius() - snap.radius()).abs() <= 1e-9 * (1.0 + snap.radius()),
            "cached radius {} vs snapshot {}",
            overlay.radius(),
            snap.radius()
        );
    }
}
