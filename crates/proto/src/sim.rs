//! The protocol driver: hosts exchanging messages over a faulty network.
//!
//! [`ProtoSim`] owns the per-host states and the
//! [`Network`], delivers each mailbox batch to its host,
//! and applies that host's *local* decision rules. The simulator itself is
//! omniscient only where a real deployment's physics would be: it charges
//! propagation delay on true coordinates and delivers messages; every
//! protocol decision reads nothing but the addressed host's own
//! [`HostState`].
//!
//! # Decision rules (summarized; DESIGN.md has the full argument)
//!
//! * **Join**: a joiner computes its polar cell from its advertised
//!   coordinate and sends `JoinReq` to the rendezvous. Each holder
//!   forwards along the deepest routing entry covering an ancestor of the
//!   target cell; with no entry it accepts (capacity permitting) or
//!   forwards to a child chosen round-robin. Accepting a host whose cell
//!   differs from the acceptor's records a routing entry, so the first
//!   host of a cell becomes its representative.
//! * **Liveness**: children ping parents every keepalive; parents answer
//!   `Pong` or `NotChild`. Both sides detach silently-dead peers after
//!   `liveness_timeout` and orphans rejoin through the rendezvous with
//!   their subtrees intact.
//! * **Cycle safety**: a repair re-attach triggers a root-path `Probe`.
//!   A probe revisiting a host on its recorded path has found a cycle;
//!   that host cuts its parent link, blacklists the acceptor, and
//!   rejoins. Once faults cease, probes are reliable, so every cycle is
//!   detected and cut — this is what makes post-heal convergence
//!   testable.
//! * **Leave**: a graceful leaver hands its position to its first child
//!   (`Handoff`), which adopts the remaining siblings up to its capacity
//!   and orphans the rest explicitly.

use std::collections::BTreeMap;

use omt_core::{bounds::min_rings_estimate, CellId, PolarGrid2};
use omt_geom::{Point2, PolarPoint};
use omt_obs::{obs_count, obs_observe, obs_span};
use omt_sim::engine::HostId;
use omt_sim::{Delivery, FaultPlan, NetStats, Network};

use crate::host::{ChildLink, HostState, Parent};
use crate::messages::Msg;

/// The rendezvous host id. Always on side 0 of every
/// [`Partition`](omt_sim::Partition), like the paper's source.
pub const SOURCE: HostId = 0;

/// Deployment parameters and schedules for one protocol run.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtoConfig {
    /// Per-host out-degree cap (≥ 2), including the rendezvous.
    pub max_out_degree: u32,
    /// Advertised ring count `k` of the polar grid.
    pub rings: u32,
    /// Advertised disk radius `ρ`.
    pub rho: f64,
    /// Fixed per-hop latency added to every message.
    pub base_latency: f64,
    /// Keepalive (tick) interval.
    pub keepalive: f64,
    /// Silence threshold after which a peer is presumed dead.
    pub liveness_timeout: f64,
    /// Hosts wake up uniformly over `[0, join_spread)`.
    pub join_spread: f64,
    /// Ticks (keepalives, gossip) stop after this instant so the event
    /// queue can drain; joins and repairs keep retrying.
    pub quiet_after: f64,
    /// Hard stop: deliveries after this instant are discarded.
    pub deadline: f64,
    /// Initial join retry backoff (grows 1.5× per retry).
    pub retry_backoff: f64,
    /// Maximum forwarding hops for one `JoinReq` copy.
    pub max_join_hops: u32,
    /// Routing cells shared per gossip message (besides the own cell).
    pub gossip_fanout: usize,
    /// Network fault schedule.
    pub faults: FaultPlan,
    /// Graceful departures: `(time, host)`.
    pub leaves: Vec<(f64, HostId)>,
    /// Fail-stop crashes: `(time, host)`.
    pub crashes: Vec<(f64, HostId)>,
}

impl ProtoConfig {
    /// Sensible defaults for `n` hosts in the unit disk at the given
    /// degree cap: rings from the paper's `Θ(log n)` estimate, keepalive
    /// cadence comfortably above message latencies, and a quiet window
    /// long enough for a faultless run to converge.
    pub fn for_n(n: usize, max_out_degree: u32) -> Self {
        Self {
            max_out_degree,
            rings: min_rings_estimate(n as u64).max(1),
            rho: 1.0,
            base_latency: 0.02,
            keepalive: 5.0,
            liveness_timeout: 16.0,
            join_spread: 10.0,
            quiet_after: 60.0,
            deadline: 400.0,
            retry_backoff: 3.0,
            max_join_hops: 96,
            gossip_fanout: 8,
            faults: FaultPlan::none(),
            leaves: Vec::new(),
            crashes: Vec::new(),
        }
    }
}

/// The outcome of one protocol run.
#[derive(Clone, Debug)]
pub struct ProtoReport {
    /// Number of participant hosts (the rendezvous excluded).
    pub n: usize,
    /// Hosts still alive at the end.
    pub alive: usize,
    /// Hosts that left gracefully or crashed.
    pub departed: usize,
    /// Alive hosts whose parent chain does not reach the rendezvous.
    pub orphans: usize,
    /// Maximum root-to-host delay over rooted hosts (tree-path distance).
    pub radius: f64,
    /// The star lower bound: the largest direct source–host distance.
    pub star_bound: f64,
    /// `radius / star_bound` (1.0 when both are 0).
    pub stretch: f64,
    /// Largest observed out-degree (rendezvous included).
    pub max_out_degree: u32,
    /// Time of the last topology change (attach/detach/death).
    pub convergence_time: f64,
    /// Time the event queue drained (or the deadline).
    pub end_time: f64,
    /// Network accounting.
    pub net: NetStats,
    /// Messages sent, by kind.
    pub msg_counts: BTreeMap<String, u64>,
    /// For each alive host (ascending id), its parent as an index into
    /// the same alive-host ordering — `None` meaning child of the
    /// rendezvous. Present only when there are no orphans.
    pub forest: Option<Vec<Option<usize>>>,
    /// Ascending ids of the alive hosts `forest` indexes.
    pub alive_ids: Vec<HostId>,
}

/// The message-driven protocol simulator.
pub struct ProtoSim {
    cfg: ProtoConfig,
    grid: PolarGrid2,
    /// Index 0 is the rendezvous; participant `i` of the point set is
    /// host id `i + 1`.
    hosts: Vec<HostState>,
    net: Network<Msg>,
    /// Messages sent, indexed by [`Msg::ordinal`] (network messages
    /// only, not timers).
    counts: [u64; Msg::KINDS.len()],
    last_change: f64,
    end_time: f64,
}

impl ProtoSim {
    /// Sets up a run: `truth[i]` is host `i + 1`'s true position,
    /// `advertised[i]` the (possibly stale) position it announces. The
    /// rendezvous sits at the origin.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or a scheduled
    /// leave/crash names an unknown host id.
    pub fn new(cfg: ProtoConfig, truth: &[Point2], advertised: &[Point2], seed: u64) -> Self {
        assert_eq!(truth.len(), advertised.len(), "coordinate sets differ");
        assert!(!truth.is_empty(), "no hosts");
        let n = truth.len();
        let grid = PolarGrid2::new(cfg.rings, cfg.rho);
        let mut hosts = Vec::with_capacity(n + 1);
        hosts.push(HostState::new(Point2::ORIGIN, Point2::ORIGIN, (0, 0)));
        for (t, a) in truth.iter().zip(advertised) {
            let cell = grid.cell_of(&PolarPoint::from_cartesian(a));
            hosts.push(HostState::new(*t, *a, cell));
        }
        let mut net = Network::new(cfg.faults.clone(), cfg.base_latency, seed);
        // Wake-ups spread deterministically over the join window.
        for i in 0..n {
            let at = (i as f64 + 0.5) * cfg.join_spread / n as f64;
            net.timer(at, (i + 1) as HostId, Msg::JoinNow);
        }
        net.timer(cfg.keepalive, SOURCE, Msg::Tick);
        for &(at, id) in &cfg.leaves {
            assert!((1..=n as u32).contains(&id), "unknown leaver {id}");
            net.timer(at, id, Msg::LeaveNow);
        }
        for &(at, id) in &cfg.crashes {
            assert!((1..=n as u32).contains(&id), "unknown crasher {id}");
            net.timer(at, id, Msg::CrashNow);
        }
        Self {
            cfg,
            grid,
            hosts,
            net,
            counts: [0; Msg::KINDS.len()],
            last_change: 0.0,
            end_time: 0.0,
        }
    }

    /// Runs the protocol to quiescence (or the deadline) and reports.
    pub fn run(&mut self) -> ProtoReport {
        let _g = obs_span!("proto/run");
        let mut batch = Vec::new();
        while let Some((t, dst)) = self.net.pop_mailbox(&mut batch) {
            if t > self.cfg.deadline {
                batch.clear();
                break;
            }
            self.end_time = t;
            for Delivery { msg, .. } in batch.drain(..) {
                self.handle(dst, msg);
            }
        }
        self.report()
    }

    /// The grid every host derives from the advertised `(k, ρ)`.
    pub fn grid(&self) -> &PolarGrid2 {
        &self.grid
    }

    /// Read access to a host's local state (0 is the rendezvous) — for
    /// inspection and tests; the protocol itself never peeks.
    pub fn host(&self, id: HostId) -> &HostState {
        &self.hosts[id as usize]
    }

    /// Checks that both endpoints of every tree edge agree on it: each
    /// attached alive host appears in its parent's child list, and every
    /// child link points at an alive host that names this host as its
    /// parent. A quiescent faultless run must satisfy this exactly; after
    /// fault campaigns it holds once the keepalive sweeps have healed the
    /// last stale link.
    ///
    /// # Errors
    ///
    /// Returns a description of the first disagreement found.
    pub fn check_agreement(&self) -> Result<(), String> {
        for (id, h) in self.hosts.iter().enumerate() {
            if !h.alive {
                continue;
            }
            if let Parent::Host(p) = h.parent {
                let parent = &self.hosts[p as usize];
                if parent.alive && parent.child_index(id as HostId).is_none() {
                    return Err(format!("host {id} claims parent {p}, which disowns it"));
                }
            }
            for c in &h.children {
                let child = &self.hosts[c.id as usize];
                if child.alive && child.parent != Parent::Host(id as HostId) {
                    return Err(format!(
                        "host {id} lists child {}, whose parent is {:?}",
                        c.id, child.parent
                    ));
                }
            }
        }
        Ok(())
    }

    fn cap(&self) -> usize {
        self.cfg.max_out_degree as usize
    }

    fn send(&mut self, src: HostId, dst: HostId, msg: Msg) {
        obs_count!("proto/sent");
        self.counts[msg.ordinal()] += 1;
        let d = self.hosts[src as usize]
            .coord
            .distance(&self.hosts[dst as usize].coord);
        self.net.send(src, dst, d, msg);
    }

    fn handle(&mut self, me: HostId, msg: Msg) {
        if !self.hosts[me as usize].alive {
            return;
        }
        match msg {
            Msg::JoinNow => {
                // Arm the host's keepalive clock, then start joining.
                let now = self.net.now();
                if now + self.cfg.keepalive <= self.cfg.quiet_after {
                    self.net.timer(now + self.cfg.keepalive, me, Msg::Tick);
                }
                self.start_join(me);
            }
            Msg::RetryJoin { epoch } => self.on_retry(me, epoch),
            Msg::Tick => self.on_tick(me),
            Msg::LeaveNow => self.on_leave_now(me),
            Msg::CrashNow => {
                self.hosts[me as usize].alive = false;
                self.last_change = self.net.now();
            }
            Msg::JoinReq {
                joiner,
                cell,
                avoid,
                hops,
            } => self.on_join_req(me, joiner, cell, avoid, hops),
            Msg::Accept { parent } => self.on_accept(me, parent),
            Msg::Redirect => {} // the retry timer re-sends through the rendezvous
            Msg::Ping { from } => self.on_ping(me, from),
            Msg::Pong { from } => {
                let h = &mut self.hosts[me as usize];
                if h.parent == Parent::Host(from) {
                    h.parent_heard = self.net.now();
                }
            }
            Msg::NotChild { from } => self.on_not_child(me, from),
            Msg::Leave { from, successor } => self.on_leave(me, from, successor),
            Msg::Handoff {
                from,
                parent,
                children,
                routes,
            } => self.on_handoff(me, from, parent, children, routes),
            Msg::NewParent { parent } => {
                let now = self.net.now();
                let h = &mut self.hosts[me as usize];
                h.parent = Parent::Host(parent);
                h.parent_heard = now;
                self.last_change = now;
            }
            Msg::Orphaned => {
                self.hosts[me as usize].parent = Parent::Detached;
                self.hosts[me as usize].probe_pending = false;
                self.last_change = self.net.now();
                self.start_join(me);
            }
            Msg::Probe { origin, path } => self.on_probe(me, origin, path),
            Msg::ProbeOk => {
                let h = &mut self.hosts[me as usize];
                h.probe_pending = false;
                h.avoid.clear();
            }
            Msg::Gossip { from, cells } => self.on_gossip(me, from, cells),
        }
    }

    /// (Re)starts the join process: bump the epoch (invalidating older
    /// retry timers), send a fresh `JoinReq` to the rendezvous, arm the
    /// retry timer.
    fn start_join(&mut self, me: HostId) {
        let now = self.net.now();
        let (epoch, backoff, cell, avoid) = {
            let h = &mut self.hosts[me as usize];
            if h.attached() {
                return;
            }
            h.epoch += 1;
            h.backoff = self.cfg.retry_backoff;
            (h.epoch, h.backoff, h.cell, h.avoid.clone())
        };
        obs_count!("proto/joins");
        self.send(
            me,
            SOURCE,
            Msg::JoinReq {
                joiner: me,
                cell,
                avoid,
                hops: 0,
            },
        );
        self.net.timer(now + backoff, me, Msg::RetryJoin { epoch });
    }

    fn on_retry(&mut self, me: HostId, epoch: u32) {
        let now = self.net.now();
        let (backoff, cell, avoid) = {
            let h = &mut self.hosts[me as usize];
            if h.attached() || h.epoch != epoch {
                return;
            }
            h.backoff = (h.backoff * 1.5).min(4.0 * self.cfg.keepalive);
            (h.backoff, h.cell, h.avoid.clone())
        };
        self.send(
            me,
            SOURCE,
            Msg::JoinReq {
                joiner: me,
                cell,
                avoid,
                hops: 0,
            },
        );
        if now + backoff <= self.cfg.deadline {
            self.net.timer(now + backoff, me, Msg::RetryJoin { epoch });
        }
    }

    /// The deepest routing entry covering the target cell or one of its
    /// ancestors — the next hop for a descending `JoinReq`.
    fn route_lookup(
        &self,
        me: HostId,
        target: CellId,
        joiner: HostId,
        avoid: &[HostId],
    ) -> Option<HostId> {
        let h = &self.hosts[me as usize];
        let mut cell = Some(target);
        while let Some(c) = cell {
            if let Some(&hop) = h.routes.get(&c) {
                if hop != joiner && hop != me && !avoid.contains(&hop) {
                    return Some(hop);
                }
            }
            cell = self.grid.parent(c.0, c.1);
        }
        None
    }

    fn on_join_req(
        &mut self,
        me: HostId,
        joiner: HostId,
        cell: CellId,
        avoid: Vec<HostId>,
        hops: u32,
    ) {
        if joiner == me || (me != SOURCE && !self.hosts[me as usize].attached()) {
            return;
        }
        let may_forward = hops < self.cfg.max_join_hops;
        if may_forward {
            if let Some(next) = self.route_lookup(me, cell, joiner, &avoid) {
                self.send(
                    me,
                    next,
                    Msg::JoinReq {
                        joiner,
                        cell,
                        avoid,
                        hops: hops + 1,
                    },
                );
                return;
            }
        }
        let h = &self.hosts[me as usize];
        let full = h.children.len() >= self.cap();
        if !full && !avoid.contains(&me) {
            self.accept(me, joiner, cell);
            return;
        }
        if may_forward {
            // Rotate the overflow target so a full host spreads surplus
            // joiners across its children instead of piling them into the
            // first subtree (which degenerates into a chain).
            let next = {
                let h = &mut self.hosts[me as usize];
                let len = h.children.len();
                let mut pick = None;
                for k in 0..len {
                    let i = (h.rr + k) % len;
                    let c = h.children[i].id;
                    if c != joiner && !avoid.contains(&c) {
                        h.rr = (i + 1) % len;
                        pick = Some(c);
                        break;
                    }
                }
                pick
            };
            if let Some(next) = next {
                self.send(
                    me,
                    next,
                    Msg::JoinReq {
                        joiner,
                        cell,
                        avoid,
                        hops: hops + 1,
                    },
                );
                return;
            }
        }
        self.send(me, joiner, Msg::Redirect);
    }

    fn accept(&mut self, me: HostId, joiner: HostId, cell: CellId) {
        let now = self.net.now();
        let my_cell = self.hosts[me as usize].cell;
        let h = &mut self.hosts[me as usize];
        if let Some(i) = h.child_index(joiner) {
            h.children[i].last_heard = now; // duplicate request: idempotent
        } else {
            h.children.push(ChildLink {
                id: joiner,
                last_heard: now,
            });
            // The first accepted host of a *different* cell becomes that
            // cell's representative: record the route. In-cell members
            // get no entry (the acceptor itself covers the cell).
            if me == SOURCE || cell != my_cell {
                h.routes.entry(cell).or_insert(joiner);
            }
            self.last_change = now;
        }
        obs_count!("proto/accepts");
        self.send(me, joiner, Msg::Accept { parent: me });
    }

    fn on_accept(&mut self, me: HostId, parent: HostId) {
        let now = self.net.now();
        // 0 = duplicate, 1 = redundant acceptor, 2 = fresh, 3 = repair.
        let act = {
            let h = &mut self.hosts[me as usize];
            match h.parent {
                Parent::Host(p) if p == parent => {
                    h.parent_heard = now;
                    0
                }
                Parent::Host(_) => 1,
                Parent::Detached => {
                    h.parent = Parent::Host(parent);
                    h.parent_heard = now;
                    h.backoff = self.cfg.retry_backoff;
                    self.last_change = now;
                    if h.children.is_empty() {
                        h.avoid.clear();
                        2
                    } else {
                        // Repair re-attach with a live subtree: verify
                        // the root path before trusting the position.
                        h.probe_pending = true;
                        3
                    }
                }
            }
        };
        match act {
            1 => self.send(me, parent, Msg::NotChild { from: me }),
            3 => self.send(
                me,
                parent,
                Msg::Probe {
                    origin: me,
                    path: vec![me],
                },
            ),
            _ => {}
        }
    }

    fn on_probe(&mut self, me: HostId, origin: HostId, mut path: Vec<HostId>) {
        if path.contains(&me) {
            // The parent chain loops through this host: cut the link,
            // blacklist the acceptor, rejoin through the rendezvous.
            obs_count!("proto/cycles_cut");
            let cut = {
                let h = &mut self.hosts[me as usize];
                match h.parent {
                    Parent::Host(p) => {
                        h.parent = Parent::Detached;
                        h.probe_pending = false;
                        if !h.avoid.contains(&p) {
                            h.avoid.push(p);
                            if h.avoid.len() > 8 {
                                h.avoid.remove(0);
                            }
                        }
                        Some(p)
                    }
                    Parent::Detached => None,
                }
            };
            if let Some(p) = cut {
                self.last_change = self.net.now();
                self.send(me, p, Msg::NotChild { from: me });
                self.start_join(me);
            }
            return;
        }
        if me == SOURCE {
            self.send(SOURCE, origin, Msg::ProbeOk);
            return;
        }
        if let Parent::Host(p) = self.hosts[me as usize].parent {
            path.push(me);
            self.send(me, p, Msg::Probe { origin, path });
        }
        // Detached: drop; the origin re-probes every tick.
    }

    fn on_tick(&mut self, me: HostId) {
        let now = self.net.now();
        // Parent side: keepalive or declare the parent dead.
        let parent = self.hosts[me as usize].parent;
        if let Parent::Host(p) = parent {
            if now - self.hosts[me as usize].parent_heard > self.cfg.liveness_timeout {
                obs_count!("proto/parent_timeouts");
                let h = &mut self.hosts[me as usize];
                h.parent = Parent::Detached;
                h.probe_pending = false;
                h.avoid.clear();
                self.last_change = now;
                self.start_join(me);
            } else {
                self.send(me, p, Msg::Ping { from: me });
                if self.hosts[me as usize].probe_pending {
                    self.send(
                        me,
                        p,
                        Msg::Probe {
                            origin: me,
                            path: vec![me],
                        },
                    );
                }
                let h = &self.hosts[me as usize];
                let mut cells = Vec::with_capacity(1 + self.cfg.gossip_fanout);
                cells.push(h.cell);
                cells.extend(h.routes.keys().take(self.cfg.gossip_fanout).copied());
                self.send(me, p, Msg::Gossip { from: me, cells });
            }
        }
        // Child side: evict the silently dead.
        let stale: Vec<HostId> = self.hosts[me as usize]
            .children
            .iter()
            .filter(|c| now - c.last_heard > self.cfg.liveness_timeout)
            .map(|c| c.id)
            .collect();
        for c in stale {
            obs_count!("proto/evictions");
            self.hosts[me as usize].drop_child(c);
            self.last_change = now;
        }
        if now + self.cfg.keepalive <= self.cfg.quiet_after {
            self.net.timer(now + self.cfg.keepalive, me, Msg::Tick);
        }
    }

    fn on_ping(&mut self, me: HostId, from: HostId) {
        let now = self.net.now();
        let h = &mut self.hosts[me as usize];
        if let Some(i) = h.child_index(from) {
            h.children[i].last_heard = now;
            self.send(me, from, Msg::Pong { from: me });
        } else {
            self.send(me, from, Msg::NotChild { from: me });
        }
    }

    fn on_not_child(&mut self, me: HostId, from: HostId) {
        let now = self.net.now();
        let h = &mut self.hosts[me as usize];
        if h.parent == Parent::Host(from) {
            // The parent disowned us: rejoin from scratch.
            h.parent = Parent::Detached;
            h.probe_pending = false;
            h.avoid.clear();
            self.last_change = now;
            self.start_join(me);
        } else if h.child_index(from).is_some() {
            h.drop_child(from);
            self.last_change = now;
        }
    }

    fn on_gossip(&mut self, me: HostId, from: HostId, cells: Vec<CellId>) {
        let now = self.net.now();
        let my_cell = self.hosts[me as usize].cell;
        let h = &mut self.hosts[me as usize];
        match h.child_index(from) {
            Some(i) => {
                h.children[i].last_heard = now;
                for cell in cells {
                    if me == SOURCE || cell != my_cell {
                        h.routes.entry(cell).or_insert(from);
                    }
                }
            }
            None => self.send(me, from, Msg::NotChild { from: me }),
        }
    }

    fn on_leave_now(&mut self, me: HostId) {
        let now = self.net.now();
        obs_count!("proto/leaves");
        let (parent, children, routes) = {
            let h = &mut self.hosts[me as usize];
            h.alive = false;
            (
                h.parent,
                h.children.iter().map(|c| c.id).collect::<Vec<_>>(),
                h.routes.iter().map(|(&c, &h)| (c, h)).collect::<Vec<_>>(),
            )
        };
        self.last_change = now;
        let successor = children.first().copied();
        if let Parent::Host(p) = parent {
            self.send(
                me,
                p,
                Msg::Leave {
                    from: me,
                    successor,
                },
            );
        }
        match (successor, parent) {
            (Some(s), Parent::Host(p)) => {
                self.send(
                    me,
                    s,
                    Msg::Handoff {
                        from: me,
                        parent: p,
                        children: children[1..].to_vec(),
                        routes,
                    },
                );
            }
            (Some(_), Parent::Detached) => {
                // Leaving while detached: nobody can inherit the
                // position; the children must rejoin on their own.
                for c in children {
                    self.send(me, c, Msg::Orphaned);
                }
            }
            (None, _) => {}
        }
    }

    fn on_leave(&mut self, me: HostId, from: HostId, successor: Option<HostId>) {
        let now = self.net.now();
        let h = &mut self.hosts[me as usize];
        if h.child_index(from).is_none() {
            return;
        }
        match successor {
            Some(s) if h.child_index(s).is_none() => h.swap_child(from, s, now),
            _ => h.drop_child(from),
        }
        self.last_change = now;
    }

    fn on_handoff(
        &mut self,
        me: HostId,
        from: HostId,
        parent: HostId,
        children: Vec<HostId>,
        routes: Vec<(CellId, HostId)>,
    ) {
        let now = self.net.now();
        let cap = self.cap();
        let (adopted, dropped) = {
            let h = &mut self.hosts[me as usize];
            // Take over the leaver's tree position.
            h.parent = Parent::Host(parent);
            h.parent_heard = now;
            let mut adopted = Vec::new();
            let mut dropped = Vec::new();
            for c in children {
                if c == me || h.child_index(c).is_some() {
                    continue;
                }
                if h.children.len() < cap {
                    h.children.push(ChildLink {
                        id: c,
                        last_heard: now,
                    });
                    adopted.push(c);
                } else {
                    dropped.push(c);
                }
            }
            // Inherit only entries that point at hosts that are now our
            // children — anything else would be an unhealable route.
            for (cell, host) in routes {
                if host != me && h.child_index(host).is_some() {
                    h.routes.entry(cell).or_insert(host);
                }
            }
            let _ = from;
            (adopted, dropped)
        };
        self.last_change = now;
        for c in adopted {
            self.send(me, c, Msg::NewParent { parent: me });
        }
        for c in dropped {
            self.send(me, c, Msg::Orphaned);
        }
    }

    /// Resolves every alive host's parent chain and builds the report.
    fn report(&self) -> ProtoReport {
        let n = self.hosts.len() - 1;
        let alive_ids: Vec<HostId> = (1..=n as HostId)
            .filter(|&id| self.hosts[id as usize].alive)
            .collect();
        let departed = n - alive_ids.len();
        // Rooted-ness: walk parent chains with memoization. 0 = unknown,
        // 1 = on current path, 2 = rooted, 3 = broken (orphaned chain).
        let mut state = vec![0u8; self.hosts.len()];
        state[SOURCE as usize] = 2;
        let mut chain = Vec::new();
        for &id in &alive_ids {
            if state[id as usize] != 0 {
                continue;
            }
            chain.clear();
            let mut u = id;
            let verdict = loop {
                match state[u as usize] {
                    1 => break 3, // cycle
                    2 => break 2,
                    3 => break 3,
                    _ => {}
                }
                state[u as usize] = 1;
                chain.push(u);
                match self.hosts[u as usize].parent {
                    Parent::Host(p) if self.hosts[p as usize].alive => u = p,
                    _ => break 3,
                }
            };
            for &v in &chain {
                state[v as usize] = verdict;
            }
        }
        let orphans = alive_ids
            .iter()
            .filter(|&&id| state[id as usize] != 2)
            .count();
        // Depths along the tree (true-coordinate distances), rooted only.
        let mut depth = vec![f64::NAN; self.hosts.len()];
        depth[SOURCE as usize] = 0.0;
        let mut radius: f64 = 0.0;
        let mut star_bound: f64 = 0.0;
        for &id in &alive_ids {
            star_bound = star_bound.max(self.hosts[id as usize].coord.norm());
            if state[id as usize] != 2 {
                continue;
            }
            chain.clear();
            let mut u = id;
            while depth[u as usize].is_nan() {
                chain.push(u);
                u = match self.hosts[u as usize].parent {
                    Parent::Host(p) => p,
                    Parent::Detached => unreachable!("rooted host with no parent"),
                };
            }
            let mut d = depth[u as usize];
            for &v in chain.iter().rev() {
                let p = match self.hosts[v as usize].parent {
                    Parent::Host(p) => p,
                    Parent::Detached => unreachable!(),
                };
                d += self.hosts[v as usize]
                    .coord
                    .distance(&self.hosts[p as usize].coord);
                depth[v as usize] = d;
            }
            radius = radius.max(depth[id as usize]);
        }
        obs_observe!("proto/orphans", orphans as u64);
        // Forest over alive hosts (compact indices), if orphan-free.
        let forest = if orphans == 0 {
            let mut index_of = vec![usize::MAX; self.hosts.len()];
            for (i, &id) in alive_ids.iter().enumerate() {
                index_of[id as usize] = i;
            }
            Some(
                alive_ids
                    .iter()
                    .map(|&id| match self.hosts[id as usize].parent {
                        Parent::Host(SOURCE) => None,
                        Parent::Host(p) => Some(index_of[p as usize]),
                        Parent::Detached => unreachable!("orphan-free"),
                    })
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        };
        let max_out_degree = forest
            .as_ref()
            .map(|f| {
                let mut deg = vec![0u32; f.len() + 1];
                for &p in f {
                    deg[p.map_or(0, |i| i + 1)] += 1;
                }
                deg.into_iter().max().unwrap_or(0)
            })
            .unwrap_or(0);
        let stretch = if star_bound > 0.0 {
            radius / star_bound
        } else {
            1.0
        };
        ProtoReport {
            n,
            alive: alive_ids.len(),
            departed,
            orphans,
            radius,
            star_bound,
            stretch,
            max_out_degree,
            convergence_time: self.last_change,
            end_time: self.end_time,
            net: self.net.stats(),
            msg_counts: Msg::KINDS
                .iter()
                .zip(self.counts)
                .filter(|&(_, v)| v > 0)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            forest,
            alive_ids,
        }
    }
}
