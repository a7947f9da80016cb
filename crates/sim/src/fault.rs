//! Fault injection for the message engine: loss, duplication, reordering
//! jitter, and network partitions, all seeded and deterministic.
//!
//! A [`Network`] wraps an [`EventQueue`] and
//! applies a [`FaultPlan`] to every [`Network::send`]. Local timers
//! ([`Network::timer`]) bypass the fault layer entirely — a host's own
//! clock does not lose ticks. All randomness comes from one RNG seeded at
//! construction, so a run is a pure function of (seed, plan, send
//! sequence): replaying the same inputs is bit-identical.

use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};

use crate::engine::{Delivery, EventQueue, HostId};

/// A network partition window: while `start <= t < end`, messages whose
/// endpoints fall on different sides are dropped. Sides are derived from
/// the host id (`(id >> bit) & 1`), which splits any id space into two
/// deterministic halves; the rendezvous (host 0) is always on side 0.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Partition {
    /// Start of the partition window (inclusive).
    pub start: f64,
    /// End of the partition window (exclusive) — the heal time.
    pub end: f64,
    /// Which bit of the host id selects the side.
    pub bit: u32,
}

impl Partition {
    /// Which side of the split a host falls on.
    #[inline]
    pub fn side(&self, host: HostId) -> u32 {
        (host >> self.bit) & 1
    }

    /// Whether a `src -> dst` message at time `t` is severed by this
    /// partition.
    #[inline]
    pub fn severs(&self, t: f64, src: HostId, dst: HostId) -> bool {
        t >= self.start && t < self.end && self.side(src) != self.side(dst)
    }
}

/// The fault schedule applied to every protocol message.
///
/// Probabilistic faults (loss, duplication) and reordering jitter are
/// active only while `t < fault_until`; partitions carry their own
/// windows. After the last fault window closes the network is perfect,
/// which is what makes "eventual convergence after heal" testable.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Per-message drop probability in `[0, 1)`.
    pub drop_p: f64,
    /// Per-message duplication probability in `[0, 1)` (the duplicate
    /// takes an independently jittered delay).
    pub dup_p: f64,
    /// Extra uniform `[0, jitter)` delay per delivery — at `jitter`
    /// larger than inter-send gaps this reorders messages.
    pub jitter: f64,
    /// Probabilistic faults and jitter apply only before this time.
    pub fault_until: f64,
    /// Partition windows (each with its own `[start, end)`).
    pub partitions: Vec<Partition>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// A perfect network: no loss, duplication, jitter, or partitions.
    pub fn none() -> Self {
        Self {
            drop_p: 0.0,
            dup_p: 0.0,
            jitter: 0.0,
            fault_until: 0.0,
            partitions: Vec::new(),
        }
    }

    /// Whether the plan injects any fault at all.
    pub fn is_none(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0 && self.jitter == 0.0 && self.partitions.is_empty()
    }

    fn validate(&self) {
        for (name, p) in [("drop_p", self.drop_p), ("dup_p", self.dup_p)] {
            assert!((0.0..1.0).contains(&p) && p.is_finite(), "bad {name} {p}");
        }
        assert!(
            self.jitter >= 0.0 && self.jitter.is_finite(),
            "bad jitter {}",
            self.jitter
        );
        assert!(
            self.fault_until >= 0.0 && self.fault_until.is_finite(),
            "bad fault_until {}",
            self.fault_until
        );
        for w in &self.partitions {
            assert!(
                w.start.is_finite() && w.end.is_finite() && w.start <= w.end,
                "bad partition window [{}, {})",
                w.start,
                w.end
            );
        }
    }
}

/// Message-delivery accounting, split by fate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`Network::send`].
    pub sent: u64,
    /// Copies actually scheduled for delivery (≥ sent − dropped; larger
    /// when duplication fires).
    pub delivered: u64,
    /// Messages dropped by loss probability.
    pub dropped: u64,
    /// Messages severed by an active partition.
    pub severed: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Local timer events scheduled (not network traffic).
    pub timers: u64,
}

/// A faulty, delayed message transport over an [`EventQueue`].
pub struct Network<M> {
    queue: EventQueue<M>,
    plan: FaultPlan,
    rng: SmallRng,
    /// Fixed per-hop latency added to every delivery.
    pub base_latency: f64,
    stats: NetStats,
}

impl<M: Clone> Network<M> {
    /// Creates a network with the given fault plan and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the plan contains non-finite or out-of-range values.
    pub fn new(plan: FaultPlan, base_latency: f64, seed: u64) -> Self {
        plan.validate();
        assert!(
            base_latency >= 0.0 && base_latency.is_finite(),
            "bad base latency {base_latency}"
        );
        Self {
            queue: EventQueue::new(),
            plan,
            rng: SmallRng::seed_from_u64(seed),
            base_latency,
            stats: NetStats::default(),
        }
    }

    /// The underlying queue's clock.
    #[inline]
    pub fn now(&self) -> f64 {
        self.queue.now()
    }

    /// Pending deliveries (messages in flight plus timers).
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Delivery accounting so far.
    #[inline]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The fault plan in force.
    #[inline]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Sends `msg` from `src` to `dst` over a link of propagation delay
    /// `distance` (the caller supplies the geometric distance between the
    /// hosts' true positions). Applies partitions, loss, duplication, and
    /// jitter per the plan.
    pub fn send(&mut self, src: HostId, dst: HostId, distance: f64, msg: M) {
        debug_assert!(distance >= 0.0 && distance.is_finite());
        self.stats.sent += 1;
        let now = self.queue.now();
        if self.plan.partitions.iter().any(|p| p.severs(now, src, dst)) {
            self.stats.severed += 1;
            return;
        }
        let faulty = now < self.plan.fault_until;
        if faulty && self.plan.drop_p > 0.0 && self.rng.random_bool(self.plan.drop_p) {
            self.stats.dropped += 1;
            return;
        }
        if faulty && self.plan.dup_p > 0.0 && self.rng.random_bool(self.plan.dup_p) {
            self.stats.duplicated += 1;
            self.deliver(dst, distance, faulty, msg.clone());
        }
        self.deliver(dst, distance, faulty, msg);
    }

    /// Schedules one copy of a sent message: base latency, propagation
    /// delay and, while faults are active, a fresh jitter draw.
    fn deliver(&mut self, dst: HostId, distance: f64, faulty: bool, msg: M) {
        let jitter = if faulty && self.plan.jitter > 0.0 {
            self.rng.random_range(0.0..self.plan.jitter)
        } else {
            0.0
        };
        let at = self.queue.now() + self.base_latency + distance + jitter;
        self.queue.schedule(at, dst, msg);
        self.stats.delivered += 1;
    }

    /// Schedules a local timer at host `dst` firing at absolute time
    /// `at`. Timers bypass the fault layer.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or non-finite.
    pub fn timer(&mut self, at: f64, dst: HostId, msg: M) {
        self.stats.timers += 1;
        self.queue.schedule(at, dst, msg);
    }

    /// Pops the next delivery (message or timer) in deterministic order.
    pub fn pop(&mut self) -> Option<Delivery<M>> {
        self.queue.pop()
    }

    /// Drains the next mailbox; see
    /// [`EventQueue::pop_mailbox`](crate::engine::EventQueue::pop_mailbox).
    pub fn pop_mailbox(&mut self, out: &mut Vec<Delivery<M>>) -> Option<(f64, HostId)> {
        self.queue.pop_mailbox(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_network_delivers_everything_in_order() {
        let mut net: Network<u32> = Network::new(FaultPlan::none(), 0.5, 1);
        net.send(0, 1, 1.0, 10);
        net.send(0, 2, 0.1, 20);
        let first = net.pop().unwrap();
        assert_eq!((first.dst, first.msg), (2, 20));
        assert!((first.time - 0.6).abs() < 1e-12);
        let second = net.pop().unwrap();
        assert_eq!((second.dst, second.msg), (1, 10));
        assert_eq!(net.stats().sent, 2);
        assert_eq!(net.stats().delivered, 2);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn drop_probability_loses_messages_deterministically() {
        let run = |seed: u64| {
            let plan = FaultPlan {
                drop_p: 0.5,
                fault_until: 1e9,
                ..FaultPlan::none()
            };
            let mut net: Network<u32> = Network::new(plan, 0.0, seed);
            for i in 0..1000 {
                net.send(0, 1, 0.001, i);
            }
            net.stats()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same fates");
        assert!(a.dropped > 300 && a.dropped < 700, "{a:?}");
        assert_eq!(a.delivered + a.dropped, a.sent);
        let b = run(8);
        assert_ne!(a.dropped, b.dropped);
    }

    #[test]
    fn duplication_schedules_extra_copies() {
        let plan = FaultPlan {
            dup_p: 0.999,
            fault_until: 1e9,
            ..FaultPlan::none()
        };
        let mut net: Network<u32> = Network::new(plan, 0.0, 3);
        for i in 0..50 {
            net.send(0, 1, 0.001, i);
        }
        let st = net.stats();
        assert!(st.duplicated >= 45, "{st:?}");
        assert_eq!(st.delivered, st.sent + st.duplicated);
    }

    #[test]
    fn partition_severs_cross_side_messages_until_heal() {
        let plan = FaultPlan {
            partitions: vec![Partition {
                start: 0.0,
                end: 10.0,
                bit: 0,
            }],
            ..FaultPlan::none()
        };
        let mut net: Network<&str> = Network::new(plan, 0.0, 1);
        net.send(0, 1, 1.0, "cross"); // sides 0 vs 1: severed
        net.send(0, 2, 1.0, "same"); // sides 0 vs 0: delivered
        assert_eq!(net.stats().severed, 1);
        let d = net.pop().unwrap();
        assert_eq!(d.msg, "same");
        // Advance past the heal time and resend.
        net.timer(11.0, 0, "tick");
        net.pop();
        net.send(0, 1, 1.0, "cross-after-heal");
        assert_eq!(net.pop().unwrap().msg, "cross-after-heal");
        assert_eq!(net.stats().severed, 1);
    }

    #[test]
    fn jitter_stops_at_fault_until() {
        let plan = FaultPlan {
            jitter: 5.0,
            fault_until: 100.0,
            ..FaultPlan::none()
        };
        let mut net: Network<u32> = Network::new(plan, 0.0, 9);
        net.send(0, 1, 1.0, 0);
        let early = net.pop().unwrap();
        assert!(early.time >= 1.0 && early.time < 6.0);
        net.timer(200.0, 0, 0);
        net.pop();
        net.send(0, 1, 1.0, 0);
        let late = net.pop().unwrap();
        assert!((late.time - 201.0).abs() < 1e-12, "no jitter after heal");
    }

    #[test]
    fn timers_bypass_faults() {
        let plan = FaultPlan {
            drop_p: 0.999,
            fault_until: 1e9,
            ..FaultPlan::none()
        };
        let mut net: Network<u32> = Network::new(plan, 0.0, 2);
        for _ in 0..20 {
            net.timer(net.now() + 1.0, 3, 7);
            let d = net.pop().unwrap();
            assert_eq!((d.dst, d.msg), (3, 7));
        }
        assert_eq!(net.stats().timers, 20);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn partitions_count_as_faults() {
        let plan = FaultPlan {
            fault_until: 5.0,
            partitions: vec![
                Partition {
                    start: 0.0,
                    end: 3.0,
                    bit: 1,
                },
                Partition {
                    start: 4.0,
                    end: 9.0,
                    bit: 2,
                },
            ],
            ..FaultPlan::none()
        };
        assert!(FaultPlan::none().is_none());
        assert!(!plan.is_none());
    }
}
