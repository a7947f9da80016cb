//! The protocol's message grammar.
//!
//! Every state change in the decentralized overlay is driven by one of
//! these messages arriving at a host, either over the faulty network or
//! as a local timer. The grammar mirrors the families named in
//! DESIGN.md: join (`JoinReq`/`Accept`/`Redirect`), liveness
//! (`Ping`/`Pong`/`NotChild`), departure (`Leave`/`Handoff`/`NewParent`/
//! `Orphaned`), cycle safety (`Probe`/`ProbeOk`), cell-state gossip
//! (`Gossip`), and local timers (`Tick`/`RetryJoin`/`JoinNow`/`LeaveNow`/
//! `CrashNow`).

use omt_sim::engine::HostId;

use crate::host::Cell;

/// A protocol message (or local timer event). Every pending delivery
/// holds one, so it stays at 40 bytes: the variable-length fields of the
/// common messages are one pointer and a length, and the rare `Handoff`
/// sits behind one `Box`.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// A host asks to join the tree, targeting the polar cell its
    /// advertised coordinate lands in. Routed downward hop by hop: each
    /// holder either accepts the joiner or forwards the request.
    JoinReq {
        /// The joining host.
        joiner: HostId,
        /// The cell the joiner's advertised coordinate falls in.
        cell: Cell,
        /// Hosts that must not accept (grown after detected cycles);
        /// empty, and so not allocated, in almost every join.
        avoid: Box<[HostId]>,
        /// Forwarding hops consumed so far (loop/staleness bound).
        hops: u32,
    },
    /// A holder accepts the joiner as its child.
    Accept {
        /// The accepting host — the joiner's new parent.
        parent: HostId,
    },
    /// A holder declines to place the joiner; the joiner backs off and
    /// retries through the rendezvous.
    Redirect,
    /// Child-to-parent keepalive.
    Ping {
        /// The pinging child.
        from: HostId,
    },
    /// Parent's keepalive reply.
    Pong {
        /// The replying parent.
        from: HostId,
    },
    /// "You are not my child / I am not your parent" — heals stale child
    /// links and route entries on both sides.
    NotChild {
        /// The host disclaiming the relationship.
        from: HostId,
    },
    /// Graceful departure announcement to the parent, nominating a
    /// successor to inherit the leaver's position (or `None` for a leaf).
    Leave {
        /// The departing host.
        from: HostId,
        /// The child that takes over the leaver's tree position.
        successor: Option<HostId>,
    },
    /// The leaver's state transfer to its successor.
    Handoff(Box<Handoff>),
    /// Tells an adopted host who its new parent is.
    NewParent {
        /// The new parent.
        parent: HostId,
    },
    /// Tells a host its parent could not keep it; it must rejoin through
    /// the rendezvous (its own subtree stays attached to it).
    Orphaned,
    /// Root-path probe sent after any repair re-attach: forwarded up
    /// parent pointers, accumulating the visited hosts. A host that finds
    /// itself already on the path has found a cycle and cuts its parent
    /// link.
    Probe {
        /// The re-attached host that started the probe.
        origin: HostId,
        /// Hosts visited so far, starting with `origin`.
        path: Vec<HostId>,
    },
    /// The rendezvous's confirmation that a probe reached the root.
    ProbeOk,
    /// Upward cell-state gossip: a child tells its parent which cells are
    /// reachable through it (its own cell plus cells it routes for). The
    /// parent records *the child* as the next hop, so every routing entry
    /// a host holds points at one of its own children and is healed by
    /// ordinary child eviction — gossip can never leave a dangling route.
    Gossip {
        /// The gossiping child.
        from: HostId,
        /// Cells whose subtrees are reachable via the child.
        cells: Vec<Cell>,
    },
    /// Local timer: keepalive + liveness sweep.
    Tick,
    /// Local timer: re-send the join request if still detached. The epoch
    /// guards against stale timers from a previous attach cycle.
    RetryJoin {
        /// The join epoch this retry belongs to.
        epoch: u32,
    },
    /// Local timer: the host wakes up and starts joining.
    JoinNow,
    /// Local timer: the host departs gracefully.
    LeaveNow,
    /// Local timer: the host fail-stops silently.
    CrashNow,
}

/// The payload of [`Msg::Handoff`]: the parent to attach under, the
/// siblings to adopt, and the routing entries to inherit.
#[derive(Clone, Debug, PartialEq)]
pub struct Handoff {
    /// The departing host.
    pub from: HostId,
    /// The leaver's parent, which the successor attaches under.
    pub parent: HostId,
    /// The leaver's other children, for the successor to adopt.
    pub children: Vec<HostId>,
    /// The leaver's cell routing entries, sorted by cell.
    pub routes: Vec<(Cell, HostId)>,
}

impl Msg {
    /// Every kind's label, indexed by [`Msg::ordinal`].
    pub(crate) const KINDS: [&'static str; 18] = [
        "join_req",
        "accept",
        "redirect",
        "ping",
        "pong",
        "not_child",
        "leave",
        "handoff",
        "new_parent",
        "orphaned",
        "probe",
        "probe_ok",
        "gossip",
        "tick",
        "retry_join",
        "join_now",
        "leave_now",
        "crash_now",
    ];

    /// Dense index of this message's kind, for per-kind counters.
    #[inline]
    pub(crate) fn ordinal(&self) -> usize {
        match self {
            Msg::JoinReq { .. } => 0,
            Msg::Accept { .. } => 1,
            Msg::Redirect => 2,
            Msg::Ping { .. } => 3,
            Msg::Pong { .. } => 4,
            Msg::NotChild { .. } => 5,
            Msg::Leave { .. } => 6,
            Msg::Handoff(_) => 7,
            Msg::NewParent { .. } => 8,
            Msg::Orphaned => 9,
            Msg::Probe { .. } => 10,
            Msg::ProbeOk => 11,
            Msg::Gossip { .. } => 12,
            Msg::Tick => 13,
            Msg::RetryJoin { .. } => 14,
            Msg::JoinNow => 15,
            Msg::LeaveNow => 16,
            Msg::CrashNow => 17,
        }
    }

    /// Stable short label for per-kind message accounting.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.ordinal()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinals_index_the_kind_labels() {
        let one_of_each = [
            (
                Msg::JoinReq {
                    joiner: 1,
                    cell: 0,
                    avoid: Box::default(),
                    hops: 0,
                },
                "join_req",
            ),
            (Msg::Accept { parent: 0 }, "accept"),
            (Msg::Redirect, "redirect"),
            (Msg::Ping { from: 1 }, "ping"),
            (Msg::Pong { from: 0 }, "pong"),
            (Msg::NotChild { from: 0 }, "not_child"),
            (
                Msg::Leave {
                    from: 1,
                    successor: None,
                },
                "leave",
            ),
            (
                Msg::Handoff(Box::new(Handoff {
                    from: 1,
                    parent: 0,
                    children: Vec::new(),
                    routes: Vec::new(),
                })),
                "handoff",
            ),
            (Msg::NewParent { parent: 0 }, "new_parent"),
            (Msg::Orphaned, "orphaned"),
            (
                Msg::Probe {
                    origin: 1,
                    path: vec![1],
                },
                "probe",
            ),
            (Msg::ProbeOk, "probe_ok"),
            (
                Msg::Gossip {
                    from: 1,
                    cells: Vec::new(),
                },
                "gossip",
            ),
            (Msg::Tick, "tick"),
            (Msg::RetryJoin { epoch: 1 }, "retry_join"),
            (Msg::JoinNow, "join_now"),
            (Msg::LeaveNow, "leave_now"),
            (Msg::CrashNow, "crash_now"),
        ];
        assert_eq!(one_of_each.len(), Msg::KINDS.len());
        for (i, (msg, label)) in one_of_each.iter().enumerate() {
            assert_eq!(msg.ordinal(), i, "{label}");
            assert_eq!(msg.kind(), *label);
        }
    }

    #[test]
    fn messages_stay_within_40_bytes() {
        // The event queue's slab holds one per pending delivery.
        assert!(
            std::mem::size_of::<Msg>() <= 40,
            "{} B",
            std::mem::size_of::<Msg>()
        );
    }
}
