//! `EventQueue` against a reference queue: the plain
//! `BinaryHeap<Scheduled>` design ordered by `(time, seq)`, kept here as
//! the oracle for the engine's ordering contract.
//!
//! Both queues are driven by the same seeded random interleavings of
//! `schedule`, `pop` and `pop_mailbox`, over clustered times: many exact
//! ties, same-instant mailboxes spanning several hosts, −0.0 and +0.0 at
//! t = 0, deliveries at exactly `now`, and far keepalive-like timers
//! scheduled in time order; one test draws the protocol's latencies,
//! ticks and growing retry backoffs, and one draws times across the
//! whole `f64` range instead. Every popped delivery (its time compared
//! by bits), every mailbox batch boundary, `len()` and `now()` must
//! agree.

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

/// A delivery time at or after `now` drawn across the whole `f64` range:
/// exactly `now`, one to three ulps above it, within two ulps of
/// `f64::MAX`, or a time whose bits first differ from `now`'s at a random
/// bit (clamped to `f64::MAX`). From `now = 0` that reaches every bit
/// position, subnormals included.
fn draw_wide_time(rng: &mut SmallRng, now: f64) -> f64 {
    // `now`'s bits with −0.0 taken as +0.0: every later time is above.
    let nb = if now == 0.0 { 0 } else { now.to_bits() };
    let bits = match rng.random_range(0..8u32) {
        0 if now == 0.0 && rng.random_bool(0.5) => return -0.0,
        0 => return now,
        1..=3 => nb + rng.random_range(1..4u64),
        4 => (f64::MAX.to_bits() - rng.random_range(0..3u64)).max(nb),
        _ => {
            let p = rng.random_range(0..63u32);
            if nb >> p & 1 == 1 {
                return now;
            }
            let low = rng.random::<u64>() & ((1 << p) - 1);
            (nb & !((2 << p) - 1)) | 1 << p | low
        }
    };
    f64::from_bits(bits.min(f64::MAX.to_bits()))
}

/// The highest bit in which `t`'s bits differ from `now`'s, plus one (0
/// if they are equal), with −0.0 taken as +0.0.
fn first_difference(now: f64, t: f64) -> u32 {
    let bits = |x: f64| if x == 0.0 { 0 } else { x.to_bits() };
    u64::BITS - (bits(now) ^ bits(t)).leading_zeros()
}

/// Drives both queues through one seeded interleaving of `ops`
/// operations, then drains them by mailboxes.
fn run_case(seed: u64, ops: usize, hosts: u32, far_timers: bool) {
    run_with(seed, ops, hosts, |rng, now| draw_time(rng, now, far_timers));
}

/// [`run_case`] with the schedules' times drawn by `draw(rng, now)`.
fn run_with(seed: u64, ops: usize, hosts: u32, mut draw: impl FnMut(&mut SmallRng, f64) -> f64) {
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
                    let t = draw(&mut rng, want.now);
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

#[test]
fn matches_the_reference_queue_across_the_whole_time_range() {
    // Times from subnormals to f64::MAX, runs of keys one ulp apart, and
    // keys whose bits first differ from the current instant's at every
    // bit position below the sign, so at every digit level.
    let (mut firsts, mut subnormal, mut max) = (0u64, false, false);
    for seed in 200..240 {
        run_with(seed, 1_500, 1 + (seed % 3) as u32, |rng, now| {
            let t = draw_wide_time(rng, now);
            firsts |= 1 << first_difference(now, t);
            subnormal |= t.is_subnormal();
            max |= t == f64::MAX;
            t
        });
    }
    assert_eq!(firsts, u64::MAX, "a first differing bit was never drawn");
    assert!(subnormal && max);
}

#[test]
fn matches_the_reference_queue_on_protocol_like_times() {
    // The protocol's schedule: message latencies in [0.02, 2.4] after
    // now, keepalive ticks 5 ahead (ties across hosts scheduled at one
    // instant), and join retries whose backoff grows 1.5× from 3 over
    // several binades, up to t ≈ 445. A pending key then differs from
    // the current instant in the exponent as well as the fraction, so
    // keys cross several 4-bit digit levels before they pop.
    let (mut levels, mut latest) = (0u32, 0.0f64);
    for seed in 300..320 {
        run_with(seed, 2_000, 2 + (seed % 5) as u32, |rng, now| {
            let t = match rng.random_range(0..10u32) {
                0..=5 => now + rng.random_range(0.02..2.4),
                6 | 7 => now + 5.0,
                _ => (now + 3.0 * 1.5f64.powi(rng.random_range(0..13))).min(445.0_f64.max(now)),
            };
            if t > now {
                levels |= 1 << ((first_difference(now, t) - 1) / 4);
            }
            latest = latest.max(t);
            t
        });
    }
    assert!(levels.count_ones() >= 4, "digit levels {levels:#b}");
    assert!(latest >= 440.0, "latest time {latest}");
}
