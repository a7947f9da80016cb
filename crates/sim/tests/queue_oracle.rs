//! `EventQueue` against a reference queue: the plain
//! `BinaryHeap<Scheduled>` design ordered by `(time, seq)`, kept here as
//! the oracle for the engine's ordering contract.
//!
//! Both queues are driven by the same seeded random interleavings of
//! `schedule`, `pop` and `pop_mailbox`, over clustered times: many exact
//! ties, same-instant mailboxes spanning several hosts, −0.0 and +0.0 at
//! t = 0, deliveries at exactly `now`, and far keepalive-like timers
//! scheduled in time order. Every popped delivery (its time compared by
//! bits), every mailbox batch boundary, `len()` and `now()` must agree.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use omt_rng::rngs::SmallRng;
use omt_rng::{RngExt, SeedableRng};
use omt_sim::engine::HostId;
use omt_sim::{Delivery, EventQueue};

/// Heap entry of the reference queue, inverted so the max-heap pops the
/// smallest `(time, seq)` first.
struct Scheduled {
    time: f64,
    seq: u64,
    dst: HostId,
    msg: u64,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference queue: one binary heap of whole deliveries.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    now: f64,
}

impl RefQueue {
    fn schedule(&mut self, time: f64, dst: HostId, msg: u64) {
        assert!(time.is_finite() && time >= self.now);
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            dst,
            msg,
        });
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<Delivery<u64>> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some(Delivery {
            time: s.time,
            dst: s.dst,
            msg: s.msg,
        })
    }

    fn pop_mailbox(&mut self, out: &mut Vec<Delivery<u64>>) -> Option<(f64, HostId)> {
        let first = self.pop()?;
        let (time, dst) = (first.time, first.dst);
        out.push(first);
        let mut stash = Vec::new();
        while let Some(head) = self.heap.peek() {
            if head.time != time {
                break;
            }
            let s = self.heap.pop().expect("peeked");
            if s.dst == dst {
                out.push(Delivery {
                    time: s.time,
                    dst: s.dst,
                    msg: s.msg,
                });
            } else {
                stash.push(s);
            }
        }
        self.heap.extend(stash);
        Some((time, dst))
    }
}

/// A delivery with its time as bits, so −0.0 and +0.0 differ.
fn bits(d: &Delivery<u64>) -> (u64, HostId, u64) {
    (d.time.to_bits(), d.dst, d.msg)
}

/// A clustered delivery time at or after `now`; far timers keep a
/// backlog of deliveries pending several time units ahead, and without
/// them most schedules land at exactly `now`.
fn draw_time(rng: &mut SmallRng, now: f64, far_timers: bool) -> f64 {
    match rng.random_range(0..10u32) {
        // Exactly now; at the start, either zero.
        0 | 1 if now == 0.0 => {
            if rng.random_bool(0.5) {
                -0.0
            } else {
                0.0
            }
        }
        0 | 1 => now,
        // A coarse grid ahead of now: many exact ties across hosts.
        2..=6 => now + f64::from(rng.random_range(1..6u32)) * 0.25,
        // Keepalive-like timers far ahead, scheduled in time order.
        7 | 8 if far_timers => now + 5.0,
        7 | 8 => now,
        _ => now + rng.random_range(0.0..2.0),
    }
}

/// Drives both queues through one seeded interleaving of `ops`
/// operations, then drains them by mailboxes.
fn run_case(seed: u64, ops: usize, hosts: u32, far_timers: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut got: EventQueue<u64> = EventQueue::new();
    let mut want = RefQueue::default();
    let mut next_msg = 0u64;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let ctx = |step: usize| format!("seed {seed}, step {step}");
    for step in 0..ops {
        match rng.random_range(0..10u32) {
            0..=4 => {
                // A burst of schedules at clustered times.
                for _ in 0..rng.random_range(1..4u32) {
                    let t = draw_time(&mut rng, want.now, far_timers);
                    let dst = rng.random_range(0..hosts);
                    got.schedule(t, dst, next_msg);
                    want.schedule(t, dst, next_msg);
                    next_msg += 1;
                }
            }
            5 | 6 => {
                let (g, w) = (got.pop(), want.pop());
                assert_eq!(g.as_ref().map(bits), w.as_ref().map(bits), "{}", ctx(step));
            }
            _ => {
                a.clear();
                b.clear();
                let g = got.pop_mailbox(&mut a).map(|(t, h)| (t.to_bits(), h));
                let w = want.pop_mailbox(&mut b).map(|(t, h)| (t.to_bits(), h));
                assert_eq!(g, w, "{}: mailbox head", ctx(step));
                assert_eq!(
                    a.iter().map(bits).collect::<Vec<_>>(),
                    b.iter().map(bits).collect::<Vec<_>>(),
                    "{}: mailbox batch",
                    ctx(step)
                );
            }
        }
        assert_eq!(got.len(), want.heap.len(), "{}: len", ctx(step));
        assert_eq!(got.is_empty(), want.heap.is_empty(), "{}", ctx(step));
        assert_eq!(
            got.now().to_bits(),
            want.now.to_bits(),
            "{}: now",
            ctx(step)
        );
    }
    loop {
        a.clear();
        b.clear();
        let g = got.pop_mailbox(&mut a).map(|(t, h)| (t.to_bits(), h));
        let w = want.pop_mailbox(&mut b).map(|(t, h)| (t.to_bits(), h));
        assert_eq!(g, w, "seed {seed}: drain head");
        assert_eq!(
            a.iter().map(bits).collect::<Vec<_>>(),
            b.iter().map(bits).collect::<Vec<_>>(),
            "seed {seed}: drain batch"
        );
        if g.is_none() {
            break;
        }
    }
    assert!(got.is_empty());
    assert_eq!(got.len(), 0);
}

#[test]
fn matches_the_reference_queue_on_clustered_interleavings() {
    for seed in 0..40 {
        run_case(seed, 1_500, 2 + (seed % 4) as u32, seed % 2 == 0);
    }
}

#[test]
fn matches_the_reference_queue_at_one_host() {
    // One host: every same-instant delivery joins the batch.
    for seed in 100..110 {
        run_case(seed, 1_000, 1, seed % 2 == 0);
    }
}

#[test]
fn signed_zeros_at_the_start_batch_together() {
    // −0.0 == +0.0, so a mailbox opened at −0.0 also takes the host's
    // +0.0 deliveries, each keeping its own time; the clock stays at the
    // batch's first time.
    let mut q = EventQueue::new();
    q.schedule(0.0, 1, 'a');
    q.schedule(-0.0, 1, 'b');
    q.schedule(-0.0, 2, 'c');
    q.schedule(0.0, 1, 'd');
    let mut out = Vec::new();
    let (t, h) = q.pop_mailbox(&mut out).unwrap();
    assert_eq!((t.to_bits(), h), ((-0.0f64).to_bits(), 1));
    let got: Vec<(char, u64)> = out.iter().map(|d| (d.msg, d.time.to_bits())).collect();
    assert_eq!(
        got,
        [('b', (-0.0f64).to_bits()), ('a', 0), ('d', 0)],
        "total_cmp order first, then the f64 == batch"
    );
    assert_eq!(q.now().to_bits(), (-0.0f64).to_bits());
    assert_eq!(q.pop().map(|d| d.msg), Some('c'));
}

#[test]
fn deliveries_at_now_queue_behind_a_pushed_back_instant() {
    // The mailbox pop for host 1 pushes host 2's same-instant delivery
    // back; a delivery scheduled at that instant afterwards has a larger
    // sequence number and must pop after it.
    let mut q = EventQueue::new();
    q.schedule(1.0, 1, 'a');
    q.schedule(1.0, 2, 'b');
    let mut out = Vec::new();
    assert_eq!(q.pop_mailbox(&mut out), Some((1.0, 1)));
    q.schedule(1.0, 2, 'c');
    q.schedule(1.0, 1, 'd');
    let order: String = std::iter::from_fn(|| q.pop()).map(|d| d.msg).collect();
    assert_eq!(order, "bcd");
}
