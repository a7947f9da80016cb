//! Sharded parallel churn — batched joins/leaves fanned across polar
//! sectors with a deterministic merge.
//!
//! [`ShardedOverlay`] wraps a [`DynamicOverlay`] and processes membership
//! events in batches. Each shard owns a contiguous binary sector of the
//! polar grid (the subtree of cells below one ring-`log2(shards)` segment,
//! plus an aligned slice of the coarser inner rings), mirroring how a
//! deployment would partition the rendezvous service. A batch runs in two
//! phases:
//!
//! 1. **Speculation (parallel)** — joins are routed to the shard owning
//!    their cell under the frozen pre-batch grid, and every shard searches
//!    parents for its joins concurrently via `omt-par`, against the frozen
//!    overlay plus shard-local copy-on-write open lists (so a shard's own
//!    earlier joins are visible to its later ones).
//! 2. **Merge (sequential, deterministic)** — events are replayed in
//!    stream order. A speculative proposal is applied directly only when
//!    cell write-ownership tracking proves every cell its parent search
//!    consulted was untouched, or touched only by this shard's own
//!    fast-path joins; otherwise the event is recomputed with the normal
//!    sequential search. Leaves (and their orphan re-homing) always run in
//!    the merge and poison the cells they touch; a mid-batch rebuild
//!    invalidates every remaining proposal.
//!
//! Because the merge replays the full stream in order and only takes the
//! fast path when it provably matches what the sequential search would
//! choose, the final overlay is **bit-identical** to applying the same
//! events one at a time to an unsharded [`DynamicOverlay`] — for any shard
//! count, batch size, or thread count. The churn fuzz suite proves this
//! equivalence across seeds × degrees × shards × batch boundaries.

use std::collections::HashMap;

use omt_geom::Point2;
use omt_tree::NodeId;

use crate::dynamic::{unflatten, DynamicOverlay, HostId};
use crate::error::BuildError;

/// A membership event in a batched churn stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnEvent {
    /// A host joins at the given position.
    Join(Point2),
    /// The host with the given id leaves.
    Leave(HostId),
}

/// How the last [`ShardedOverlay::apply_batch`] resolved its events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Join events in the batch.
    pub joins: u64,
    /// Leave events in the batch.
    pub leaves: u64,
    /// Joins applied via a validated speculative proposal.
    pub fast_path: u64,
    /// Joins recomputed sequentially (invalidated or global-fallback).
    pub recomputed: u64,
    /// Joins whose speculation needed global state (source/global search)
    /// and therefore never produced a proposal.
    pub needs_global: u64,
    /// Full rebuilds triggered inside the merge.
    pub rebuilds: u64,
    /// Events whose writes crossed a sector boundary (a fast join whose
    /// parent lives in a foreign shard's cell, or a leave touching
    /// foreign cells during orphan re-homing).
    pub cross_shard_writes: u64,
    /// Leave events that touched at least one foreign shard's cell.
    pub cross_shard_leaves: u64,
}

/// A parent candidate in a shard's speculative view: either a live host
/// slot of the base overlay or a join earlier in this batch (by stream
/// index) that the shard itself placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum SlotRef {
    Live(NodeId),
    Pending(u32),
}

/// A validated-attachable parent choice for one speculative join.
#[derive(Clone, Copy, Debug)]
struct Attach {
    parent: SlotRef,
    /// The attach cost at speculation time (debug cross-check only).
    cost: f64,
    /// The joiner's own cell under the frozen grid.
    own_cell: u32,
    /// The ancestor-chain cell the parent was found in. The cells the
    /// search consulted are exactly `own_cell..=resolve_cell` along the
    /// parent-cell chain.
    resolve_cell: u32,
}

/// One speculative join outcome, in shard-local stream order. `attach` is
/// `None` when the chain search missed and the sequential path would have
/// consulted global state (source capacity or the global open index).
#[derive(Clone, Copy, Debug)]
struct Proposal {
    stream_idx: u32,
    attach: Option<Attach>,
}

/// Write-ownership of a grid cell during the merge phase. Absent = clean
/// (untouched since the batch began).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Writer {
    /// Written only by validated fast-path joins of this one shard — the
    /// shard's speculation already accounts for every such write.
    Owned(u32),
    /// Written by a leave, a recomputed join, or a second shard; any
    /// proposal whose search consulted this cell must be recomputed.
    Poisoned,
}

/// Per-shard speculation state. Lives across batches so its allocations
/// are reused; the speculative maps are cleared before speculation ends.
#[derive(Debug, Default)]
struct ShardScratch {
    shard: u32,
    /// Routed joins: (stream index, position, cell under the frozen grid).
    joins: Vec<(u32, Point2, u32)>,
    /// One entry per routed join, same order.
    proposals: Vec<Proposal>,
    /// Copy-on-write open lists for cells this shard's speculation has
    /// mutated; untouched cells read the base overlay directly.
    open_cow: HashMap<u32, Vec<SlotRef>>,
    /// Speculatively placed joins: stream index -> (position, delay).
    pending: HashMap<u32, (Point2, f64)>,
    /// Children speculatively added per parent candidate.
    load_over: HashMap<SlotRef, u32>,
}

impl ShardScratch {
    fn reset(&mut self) {
        self.joins.clear();
        self.proposals.clear();
        debug_assert!(self.open_cow.is_empty(), "speculation state leaked");
        debug_assert!(self.pending.is_empty(), "speculation state leaked");
        debug_assert!(self.load_over.is_empty(), "speculation state leaked");
    }

    /// Attach cost of candidate `r` for a joiner at `pos`, bit-identical
    /// to [`DynamicOverlay`]'s sequential scoring.
    fn view_cost(&self, ov: &DynamicOverlay, r: SlotRef, pos: &Point2) -> f64 {
        match r {
            SlotRef::Live(s) => {
                let h = &ov.hosts[s as usize];
                h.delay + h.position.distance(pos)
            }
            SlotRef::Pending(k) => {
                let (p, d) = self.pending[&k];
                d + p.distance(pos)
            }
        }
    }

    /// The copy-on-write open list of `cell`, materialized from the base
    /// overlay on first mutation.
    fn cow_mut(&mut self, ov: &DynamicOverlay, cell: u32) -> &mut Vec<SlotRef> {
        self.open_cow.entry(cell).or_insert_with(|| {
            ov.cell_open[cell as usize]
                .iter()
                .map(|&s| SlotRef::Live(s))
                .collect()
        })
    }

    /// The earliest strict minimum of `candidates` by attach cost, with
    /// its cost: each cost is evaluated once, exactly as the overlay's
    /// per-cell scan does.
    fn first_min(
        &self,
        ov: &DynamicOverlay,
        candidates: impl Iterator<Item = SlotRef>,
        pos: &Point2,
    ) -> Option<(SlotRef, f64)> {
        let mut best: Option<(SlotRef, f64)> = None;
        for r in candidates {
            let cost = self.view_cost(ov, r, pos);
            if best.is_none_or(|(_, bc)| cost < bc) {
                best = Some((r, cost));
            }
        }
        best
    }

    /// Replicates `DynamicOverlay::chain_candidate` over the speculative
    /// view: own cell first, then each ancestor cell, first non-empty
    /// candidate set wins, earliest strict minimum wins inside it.
    fn chain_search(
        &self,
        ov: &DynamicOverlay,
        pos: &Point2,
        own_cell: u32,
    ) -> Option<(SlotRef, f64, u32)> {
        let mut cell = own_cell;
        loop {
            let best = match self.open_cow.get(&cell) {
                Some(list) => self.first_min(ov, list.iter().copied(), pos),
                // Cells the batch has not copied-on-write are exactly the
                // frozen pre-batch state, so the overlay's capacity index
                // (snapshotted before phase A) can rule them out without
                // touching the open list at all.
                None if ov
                    .hgrid_ref()
                    .is_some_and(|hg| hg.cell_total(cell as usize) == 0) =>
                {
                    None
                }
                None => self.first_min(
                    ov,
                    ov.cell_open[cell as usize]
                        .iter()
                        .map(|&s| SlotRef::Live(s)),
                    pos,
                ),
            };
            if let Some((p, cost)) = best {
                return Some((p, cost, cell));
            }
            if cell == 0 {
                return None;
            }
            cell = parent_cell(cell);
        }
    }

    /// Phase-A body: searches a parent for every routed join, in shard
    /// stream order, applying each hit to the shard-local speculative view
    /// so later joins see earlier ones. Leaves the speculative maps empty.
    fn propose_all(&mut self, ov: &DynamicOverlay) {
        let max = ov.max_out_degree();
        for idx in 0..self.joins.len() {
            let (stream_idx, pos, own_cell) = self.joins[idx];
            match self.chain_search(ov, &pos, own_cell) {
                Some((parent, cost, resolve_cell)) => {
                    self.cow_mut(ov, own_cell)
                        .push(SlotRef::Pending(stream_idx));
                    self.pending.insert(stream_idx, (pos, cost));
                    let over = self.load_over.entry(parent).or_insert(0);
                    *over += 1;
                    let used = *over
                        + match parent {
                            SlotRef::Live(s) => ov.hosts[s as usize].children.len() as u32,
                            SlotRef::Pending(_) => 0,
                        };
                    debug_assert!(used <= max, "speculation over-filled a parent");
                    if used == max {
                        // Mirrors the sequential open_remove: the filled
                        // parent drops out of its cell's candidate list,
                        // order preserved.
                        self.cow_mut(ov, resolve_cell).retain(|&r| r != parent);
                    }
                    self.proposals.push(Proposal {
                        stream_idx,
                        attach: Some(Attach {
                            parent,
                            cost,
                            own_cell,
                            resolve_cell,
                        }),
                    });
                }
                None => {
                    // The sequential search would now consult the source
                    // or the global open index — not speculatable from
                    // shard-local state. The merge recomputes this join,
                    // and its writes poison whatever they touch, which
                    // also covers this join's absence from our view.
                    self.proposals.push(Proposal {
                        stream_idx,
                        attach: None,
                    });
                }
            }
        }
        self.open_cow.clear();
        self.pending.clear();
        self.load_over.clear();
    }
}

/// The parent cell along the ancestor chain (flat-index arithmetic of the
/// binary grid layout); cell 0 is its own fixpoint's terminator.
fn parent_cell(cell: u32) -> u32 {
    let (ring, seg) = unflatten(cell as usize);
    if ring <= 1 {
        0
    } else {
        ((1u64 << (ring - 1)) - 1 + seg / 2) as u32
    }
}

/// Interned per-shard observability names, computed once at construction.
#[derive(Debug)]
struct ShardNames {
    joins: &'static str,
    fast: &'static str,
}

/// A [`DynamicOverlay`] processed in batches across polar-sector shards.
///
/// Produces overlays bit-identical to the unsharded per-event path for
/// any shard count, batch size, or thread count — see the module docs for
/// the mechanism and `tests/churn_fuzz.rs` for the proof-by-fuzzing.
///
/// # Examples
///
/// ```
/// use omt_core::{ChurnEvent, ShardedOverlay};
/// use omt_geom::Point2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut overlay = ShardedOverlay::new(Point2::ORIGIN, 4, 4)?;
/// let ids = overlay.apply_batch(&[
///     ChurnEvent::Join(Point2::new([1.0, 0.0])),
///     ChurnEvent::Join(Point2::new([0.0, 1.0])),
/// ])?;
/// let a = ids[0].expect("joins yield ids");
/// overlay.apply_batch(&[ChurnEvent::Leave(a)])?;
/// assert_eq!(overlay.len(), 1);
/// overlay.snapshot()?.validate(Some(4))?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedOverlay {
    inner: DynamicOverlay,
    shards: u32,
    /// `log2(shards)`: the ring whose segments are the sector roots.
    shard_bits: u32,
    scratches: Vec<ShardScratch>,
    /// Worker override for phase A; `None` defers to `OMT_THREADS`.
    threads: Option<usize>,
    stats: BatchStats,
    /// Merge-phase write ownership per cell (cleared per batch).
    writer: HashMap<u32, Writer>,
    /// Reused drain buffer for the per-event write log.
    drained: Vec<u32>,
    names: Vec<ShardNames>,
}

impl ShardedOverlay {
    /// Creates an empty sharded overlay rooted at `source`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::BadShardCount`] unless `shards` is a power of
    /// two in `1..=64`, plus everything [`DynamicOverlay::new`] rejects.
    pub fn new(source: Point2, max_out_degree: u32, shards: u32) -> Result<Self, BuildError> {
        let inner = DynamicOverlay::new(source, max_out_degree)?;
        Self::from_overlay(inner, shards)
    }

    /// Wraps an already-populated [`DynamicOverlay`] (e.g. a prefilled
    /// million-host membership) without replaying its history. Subsequent
    /// batches behave exactly as if every prior event had gone through
    /// [`apply_batch`](Self::apply_batch).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::BadShardCount`] unless `shards` is a power of
    /// two in `1..=64`.
    pub fn from_overlay(overlay: DynamicOverlay, shards: u32) -> Result<Self, BuildError> {
        if !shards.is_power_of_two() || shards > 64 {
            return Err(BuildError::BadShardCount { got: shards });
        }
        let inner = overlay;
        let scratches = (0..shards)
            .map(|shard| ShardScratch {
                shard,
                ..ShardScratch::default()
            })
            .collect();
        let names = (0..shards)
            .map(|s| ShardNames {
                joins: omt_obs::intern(&format!("churn/shard{s}/joins")),
                fast: omt_obs::intern(&format!("churn/shard{s}/fast")),
            })
            .collect();
        Ok(Self {
            inner,
            shards,
            shard_bits: shards.trailing_zeros(),
            scratches,
            threads: None,
            stats: BatchStats::default(),
            writer: HashMap::new(),
            drained: Vec::new(),
            names,
        })
    }

    /// Overrides the phase-A worker count (default: the `OMT_THREADS`
    /// environment knob). Output is identical for every thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of live hosts.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no hosts are present.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The source position.
    pub fn source(&self) -> Point2 {
        self.inner.source()
    }

    /// The out-degree budget.
    pub fn max_out_degree(&self) -> u32 {
        self.inner.max_out_degree()
    }

    /// The current worst source-to-host delay.
    pub fn radius(&self) -> f64 {
        self.inner.radius()
    }

    /// The wrapped sequential overlay (read-only).
    pub fn overlay(&self) -> &DynamicOverlay {
        &self.inner
    }

    /// Counters describing how the most recent batch resolved.
    pub fn last_batch_stats(&self) -> BatchStats {
        self.stats
    }

    /// Materializes the current membership as an immutable tree.
    ///
    /// # Errors
    ///
    /// See [`DynamicOverlay::snapshot`].
    pub fn snapshot(&self) -> Result<omt_tree::MulticastTree<2>, BuildError> {
        self.inner.snapshot()
    }

    /// Forces a full rebuild of the wrapped overlay (between batches).
    pub fn rebuild(&mut self) {
        self.inner.rebuild();
    }

    /// The shard owning `cell` (flat index): sectors are the segments of
    /// ring `log2(shards)`; finer rings map by prefix, coarser inner rings
    /// (including cell 0) map to the first sector they overlap.
    fn shard_of_cell(&self, cell: u32) -> u32 {
        let m = self.shard_bits;
        if m == 0 {
            return 0;
        }
        let (ring, seg) = unflatten(cell as usize);
        if ring >= m {
            (seg >> (ring - m)) as u32
        } else {
            (seg << (m - ring)) as u32
        }
    }

    /// The shard a join at `position` routes to under the current grid.
    pub fn shard_of_position(&self, position: &Point2) -> u32 {
        self.shard_of_cell(self.inner.cell_of(position) as u32)
    }

    /// Marks `cells` as unreconstructable for speculative validation.
    fn poison(&mut self, cells: &[u32]) {
        for &c in cells {
            self.writer.insert(c, Writer::Poisoned);
        }
    }

    /// Checks that a proposal's entire consulted state is still what the
    /// shard speculated against, returning the parent's live slot if so.
    ///
    /// Sound because a fast-path join writes only cells inside its own
    /// consulted chain, never changes an existing host's cached delay, and
    /// every other mutation (leave, recomputed join, rebuild) poisons what
    /// it touches.
    fn validate(
        &self,
        shard: u32,
        at: &Attach,
        pos: &Point2,
        slot_of_stream: &HashMap<u32, (u32, bool)>,
    ) -> Option<u32> {
        // Every cell the chain search consulted must be clean or owned by
        // this shard's own fast-path joins (already in its speculation).
        let mut cell = at.own_cell;
        loop {
            match self.writer.get(&cell) {
                None => {}
                Some(Writer::Owned(o)) if *o == shard => {}
                Some(_) => return None,
            }
            if cell == at.resolve_cell {
                break;
            }
            if cell == 0 {
                debug_assert!(false, "resolve_cell is not on the ancestor chain");
                return None;
            }
            cell = parent_cell(cell);
        }
        let parent = match at.parent {
            SlotRef::Live(s) => s,
            SlotRef::Pending(j) => {
                let &(slot, was_fast) = slot_of_stream.get(&j)?;
                if !was_fast {
                    // The referenced join was recomputed; its actual slot
                    // may differ from the speculated placement.
                    return None;
                }
                slot
            }
        };
        let h = &self.inner.hosts[parent as usize];
        debug_assert!(h.alive, "validated proposal names a dead parent");
        debug_assert!(
            (h.children.len() as u32) < self.inner.max_out_degree(),
            "validated proposal names a full parent"
        );
        debug_assert_eq!(
            (h.delay + h.position.distance(pos)).to_bits(),
            at.cost.to_bits(),
            "validated proposal's cost drifted from the sequential search"
        );
        Some(parent)
    }

    /// Applies a batch of events, returning per-event new host ids
    /// (`Some` for joins, `None` for leaves).
    ///
    /// The result — down to internal slot assignment and id numbering —
    /// is identical to calling [`DynamicOverlay::join`] /
    /// [`DynamicOverlay::leave`] for the same events one at a time.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownHost`] for a leave of a departed or
    /// never-issued id; prior events of the batch remain applied.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite join position, like the sequential join.
    pub fn apply_batch(
        &mut self,
        events: &[ChurnEvent],
    ) -> Result<Vec<Option<HostId>>, BuildError> {
        let _batch_span = omt_obs::obs_span!("churn/batch");
        for sc in &mut self.scratches {
            sc.reset();
        }
        self.stats = BatchStats::default();
        // Route joins to sector owners under the frozen pre-batch grid.
        let mut route = vec![0u32; events.len()];
        for (i, ev) in events.iter().enumerate() {
            if let ChurnEvent::Join(p) = ev {
                assert!(p.is_finite(), "host position must be finite");
                let cell = self.inner.cell_of(p) as u32;
                let shard = self.shard_of_cell(cell);
                route[i] = shard;
                self.scratches[shard as usize]
                    .joins
                    .push((i as u32, *p, cell));
            }
        }
        // Phase A: per-shard speculative parent search, in parallel.
        {
            let _a_span = omt_obs::obs_span!("churn/batch/phase_a");
            let threads = omt_par::resolve_threads(self.threads);
            let inner = &self.inner;
            omt_par::par_map_indexed_mut(&mut self.scratches, threads, |_, sc| {
                sc.propose_all(inner);
            });
        }
        // Merge: replay the stream in order, fast-applying proposals that
        // survive write-ownership validation.
        let _m_span = omt_obs::obs_span!("churn/batch/merge");
        self.inner.set_write_tracking(true);
        self.writer.clear();
        let mut stats = BatchStats::default();
        let mut cursor = vec![0usize; self.shards as usize];
        let mut slot_of_stream: HashMap<u32, (u32, bool)> = HashMap::new();
        let mut fast_by_shard = vec![0u64; self.shards as usize];
        let mut all_invalid = false;
        let mut out = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            match ev {
                ChurnEvent::Join(pos) => {
                    stats.joins += 1;
                    let shard = route[i];
                    let su = shard as usize;
                    let prop = self.scratches[su].proposals[cursor[su]];
                    cursor[su] += 1;
                    debug_assert_eq!(prop.stream_idx, i as u32);
                    if prop.attach.is_none() && !all_invalid {
                        stats.needs_global += 1;
                    }
                    let fast_parent = if all_invalid {
                        None
                    } else {
                        prop.attach
                            .as_ref()
                            .and_then(|at| self.validate(shard, at, pos, &slot_of_stream))
                    };
                    let (id, fast) = match fast_parent {
                        Some(parent) => (self.inner.insert_host(*pos, Some(parent)), true),
                        None => (self.inner.join(*pos), false),
                    };
                    self.drained.clear();
                    let mut drained = std::mem::take(&mut self.drained);
                    let rebuilt = self.inner.drain_writes(&mut drained);
                    if rebuilt {
                        stats.rebuilds += 1;
                        all_invalid = true;
                        self.writer.clear();
                    } else if fast {
                        for &c in &drained {
                            match self.writer.get(&c) {
                                None => {
                                    self.writer.insert(c, Writer::Owned(shard));
                                }
                                Some(Writer::Owned(o)) if *o == shard => {}
                                Some(_) => {
                                    debug_assert!(
                                        false,
                                        "fast join wrote outside its validated chain"
                                    );
                                    self.writer.insert(c, Writer::Poisoned);
                                }
                            }
                        }
                    } else {
                        // Recomputed: poison the actual writes plus the
                        // speculative placement the shard believed in.
                        self.poison(&drained);
                        if let Some(at) = &prop.attach {
                            self.poison(&[at.own_cell, at.resolve_cell]);
                        }
                    }
                    self.drained = drained;
                    if fast {
                        stats.fast_path += 1;
                        fast_by_shard[su] += 1;
                        if let Some(at) = &prop.attach {
                            if self.shard_of_cell(at.resolve_cell) != shard {
                                stats.cross_shard_writes += 1;
                            }
                        }
                    } else {
                        stats.recomputed += 1;
                    }
                    if !all_invalid {
                        let slot = self.inner.slot_of(id).expect("just inserted") as u32;
                        slot_of_stream.insert(i as u32, (slot, fast));
                    }
                    out.push(Some(id));
                }
                ChurnEvent::Leave(id) => {
                    stats.leaves += 1;
                    let ev_shard = self
                        .inner
                        .slot_of(*id)
                        .map(|s| self.shard_of_cell(self.inner.hosts[s].cell));
                    if let Err(e) = self.inner.leave(*id) {
                        self.inner.set_write_tracking(false);
                        self.stats = stats;
                        return Err(e);
                    }
                    self.drained.clear();
                    let mut drained = std::mem::take(&mut self.drained);
                    let rebuilt = self.inner.drain_writes(&mut drained);
                    if rebuilt {
                        stats.rebuilds += 1;
                        all_invalid = true;
                        self.writer.clear();
                    } else {
                        self.poison(&drained);
                        let ev_shard = ev_shard.expect("leave succeeded");
                        let foreign = drained
                            .iter()
                            .filter(|&&c| self.shard_of_cell(c) != ev_shard)
                            .count() as u64;
                        stats.cross_shard_writes += foreign;
                        if foreign > 0 {
                            stats.cross_shard_leaves += 1;
                        }
                    }
                    self.drained = drained;
                    out.push(None);
                }
            }
        }
        self.inner.set_write_tracking(false);
        for (s, names) in self.names.iter().enumerate() {
            let joins = self.scratches[s].joins.len() as u64;
            if joins > 0 {
                omt_obs::counter(names.joins, joins);
            }
            if fast_by_shard[s] > 0 {
                omt_obs::counter(names.fast, fast_by_shard[s]);
            }
        }
        self.stats = stats;
        Ok(out)
    }

    /// Re-verifies the wrapped overlay's invariants plus the sharding
    /// layer's own: every live host maps to a valid shard, the sector
    /// ownership partitions the membership, speculation state is drained,
    /// and the last batch's counters are coherent.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_invariants(&self) {
        self.inner.assert_invariants();
        let mut owned = vec![0usize; self.shards as usize];
        for h in self.inner.hosts.iter().filter(|h| h.alive) {
            let s = self.shard_of_cell(h.cell);
            assert!(s < self.shards, "host cell {} maps to shard {s}", h.cell);
            owned[s as usize] += 1;
        }
        assert_eq!(
            owned.iter().sum::<usize>(),
            self.inner.len(),
            "sector ownership does not partition the membership"
        );
        for sc in &self.scratches {
            assert!(
                sc.open_cow.is_empty(),
                "shard {} leaked cow state",
                sc.shard
            );
            assert!(
                sc.pending.is_empty(),
                "shard {} leaked pending state",
                sc.shard
            );
            assert!(
                sc.load_over.is_empty(),
                "shard {} leaked load state",
                sc.shard
            );
            assert_eq!(
                sc.joins.len(),
                sc.proposals.len(),
                "shard {} has unproposed joins",
                sc.shard
            );
        }
        assert_eq!(
            self.stats.fast_path + self.stats.recomputed,
            self.stats.joins,
            "every join is either fast or recomputed"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omt_geom::{Disk, Region};
    use omt_rng::rngs::SmallRng;
    use omt_rng::{RngExt, SeedableRng};

    fn points(seed: u64, n: usize) -> Vec<Point2> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Disk::unit().sample_n(&mut rng, n)
    }

    #[test]
    fn constructor_validates_shard_count() {
        for bad in [0u32, 3, 5, 65, 128] {
            assert!(matches!(
                ShardedOverlay::new(Point2::ORIGIN, 4, bad),
                Err(BuildError::BadShardCount { got }) if got == bad
            ));
        }
        for ok in [1u32, 2, 4, 8, 16, 32, 64] {
            assert!(ShardedOverlay::new(Point2::ORIGIN, 4, ok).is_ok());
        }
        assert!(matches!(
            ShardedOverlay::new(Point2::ORIGIN, 1, 4),
            Err(BuildError::DegreeTooSmall { .. })
        ));
    }

    #[test]
    fn from_overlay_continues_a_prefilled_membership() {
        // Prefill per-event, wrap, batch more churn: the result must match
        // an unsharded overlay fed the identical stream throughout.
        let mut mirror = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
        let prefill = points(0xF0, 60);
        for p in &prefill {
            mirror.join(*p);
        }
        let mut sharded = ShardedOverlay::from_overlay(mirror.clone(), 4).unwrap();
        let extra = points(0xF1, 40);
        let batch: Vec<ChurnEvent> = extra.iter().map(|&p| ChurnEvent::Join(p)).collect();
        let ids = sharded.apply_batch(&batch).unwrap();
        for (p, id) in extra.iter().zip(ids) {
            assert_eq!(mirror.join(*p), id.unwrap());
        }
        sharded.assert_invariants();
        assert_eq!(sharded.len(), mirror.len());
        let (got, want) = (sharded.snapshot().unwrap(), mirror.snapshot().unwrap());
        assert_eq!(got.points(), want.points());
        for i in 0..got.len() {
            assert_eq!(got.parent(i), want.parent(i));
        }
        assert!(matches!(
            ShardedOverlay::from_overlay(DynamicOverlay::new(Point2::ORIGIN, 4).unwrap(), 6),
            Err(BuildError::BadShardCount { got: 6 })
        ));
    }

    #[test]
    fn shard_of_cell_partitions_every_ring() {
        let ov = ShardedOverlay::new(Point2::ORIGIN, 4, 8).unwrap();
        // Ring >= 3: segments map by prefix; ring < 3: aligned expansion.
        for ring in 0..10u32 {
            for seg in 0..(1u64 << ring) {
                let cell = ((1u64 << ring) - 1 + seg) as u32;
                let s = ov.shard_of_cell(cell);
                assert!(s < 8, "cell {cell} -> shard {s}");
                if ring >= 3 {
                    assert_eq!(u64::from(s), seg >> (ring - 3));
                }
            }
        }
        assert_eq!(ov.shard_of_cell(0), 0);
        // Single shard: everything is shard 0.
        let ov1 = ShardedOverlay::new(Point2::ORIGIN, 4, 1).unwrap();
        for cell in 0..127u32 {
            assert_eq!(ov1.shard_of_cell(cell), 0);
        }
    }

    #[test]
    fn batched_joins_match_sequential() {
        for shards in [1u32, 4] {
            let mut sharded = ShardedOverlay::new(Point2::ORIGIN, 4, shards).unwrap();
            let mut seq = DynamicOverlay::new(Point2::ORIGIN, 4).unwrap();
            let pts = points(42, 300);
            let events: Vec<ChurnEvent> = pts.iter().map(|&p| ChurnEvent::Join(p)).collect();
            let ids = sharded.apply_batch(&events).unwrap();
            let seq_ids: Vec<HostId> = pts.iter().map(|&p| seq.join(p)).collect();
            for (got, want) in ids.iter().zip(&seq_ids) {
                assert_eq!(got.as_ref(), Some(want));
            }
            sharded.assert_invariants();
            let a = sharded.snapshot().unwrap();
            let b = seq.snapshot().unwrap();
            assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                assert_eq!(a.parent(i), b.parent(i), "parent of host {i} differs");
            }
            assert_eq!(a.radius().to_bits(), b.radius().to_bits());
        }
    }

    #[test]
    fn mixed_churn_matches_sequential_and_reports_stats() {
        let mut sharded = ShardedOverlay::new(Point2::ORIGIN, 3, 4).unwrap();
        let mut seq = DynamicOverlay::new(Point2::ORIGIN, 3).unwrap();
        let pts = points(7, 400);
        let mut seq_live: Vec<HostId> = Vec::new();
        let mut it = pts.iter();
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..8 {
            // Build one batch: joins plus leaves of currently-live ids.
            let mut events = Vec::new();
            for _ in 0..40 {
                if seq_live.len() > 10 && rng.random::<f64>() < 0.33 {
                    let i = rng.random_range(0..seq_live.len());
                    events.push(ChurnEvent::Leave(seq_live.swap_remove(i)));
                } else if let Some(&p) = it.next() {
                    events.push(ChurnEvent::Join(p));
                }
            }
            for ev in &events {
                if let ChurnEvent::Join(p) = ev {
                    seq_live.push(seq.join(*p));
                } else if let ChurnEvent::Leave(id) = ev {
                    seq.leave(*id).unwrap();
                }
            }
            sharded.apply_batch(&events).unwrap();
            sharded.assert_invariants();
            let st = sharded.last_batch_stats();
            assert_eq!(st.joins + st.leaves, events.len() as u64);
        }
        assert_eq!(sharded.len(), seq.len());
        let a = sharded.snapshot().unwrap();
        let b = seq.snapshot().unwrap();
        for i in 0..a.len() {
            assert_eq!(a.parent(i), b.parent(i));
        }
        assert_eq!(a.radius().to_bits(), b.radius().to_bits());
    }

    #[test]
    fn leave_of_unknown_id_errors_and_overlay_stays_consistent() {
        let mut sharded = ShardedOverlay::new(Point2::ORIGIN, 4, 2).unwrap();
        let ids = sharded
            .apply_batch(&[ChurnEvent::Join(Point2::new([0.5, 0.1]))])
            .unwrap();
        let id = ids[0].unwrap();
        sharded.apply_batch(&[ChurnEvent::Leave(id)]).unwrap();
        let err = sharded.apply_batch(&[
            ChurnEvent::Join(Point2::new([0.2, 0.2])),
            ChurnEvent::Leave(id),
        ]);
        assert!(matches!(err, Err(BuildError::UnknownHost { .. })));
        // The join before the failing leave stays applied.
        assert_eq!(sharded.len(), 1);
        sharded.overlay().assert_invariants();
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let pts = points(11, 500);
        let events: Vec<ChurnEvent> = pts.iter().map(|&p| ChurnEvent::Join(p)).collect();
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 8] {
            let mut ov = ShardedOverlay::new(Point2::ORIGIN, 4, 8)
                .unwrap()
                .with_threads(threads);
            for chunk in events.chunks(64) {
                ov.apply_batch(chunk).unwrap();
            }
            let snap = ov.snapshot().unwrap();
            let bits: Vec<u64> = (0..snap.len()).map(|i| snap.depth(i).to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "threads={threads} diverged"),
            }
        }
    }
}
