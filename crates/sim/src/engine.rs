//! Deterministic discrete-event message engine with per-host mailboxes.
//!
//! The dissemination simulator in the crate root walks a *finished* tree;
//! this module is the substrate for protocols that must *build* the tree
//! through messages: a priority queue of scheduled deliveries with a total
//! deterministic order, and a mailbox view that hands a host every message
//! arriving at one instant as a single batch.
//!
//! # Ordering contract
//!
//! Deliveries are ordered by `(time, sequence)`, where the sequence number
//! is assigned at scheduling time. Two deliveries at the *same* timestamp
//! therefore pop in the order they were scheduled — FIFO, never heap
//! order. `std::collections::BinaryHeap` alone does **not** provide this
//! (sift-up/sift-down reorder equal keys arbitrarily), which is exactly
//! the instability the ≥64-fan-in stress test in `tests/event_loop.rs`
//! pins down; the explicit sequence tiebreak is the fix. Times compare
//! with [`f64::total_cmp`], so −0.0 sorts before +0.0.
//!
//! # Layout
//!
//! A pending delivery is a 24-byte `Key` plus its payload in a slab
//! slot. Keys carry the time as an order-preserving `u64` image of its
//! bits, so the heap compares and moves two integers and never touches a
//! payload. `tests/queue_oracle.rs` checks the whole contract against a
//! plain `BinaryHeap` of whole deliveries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A host address in the engine. Address 0 is conventionally the protocol
/// rendezvous (the multicast source).
pub type HostId = u32;

/// One delivered message: arrival time, destination, payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery<M> {
    /// Arrival (delivery) time.
    pub time: f64,
    /// Destination host.
    pub dst: HostId,
    /// The payload.
    pub msg: M,
}

/// The image of `time`'s bits under a map that sorts unsigned exactly as
/// [`f64::total_cmp`] sorts the floats: negative values have every bit
/// flipped, the rest only the sign bit.
#[inline]
fn time_key(time: f64) -> u64 {
    let b = time.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// Inverse of [`time_key`].
#[inline]
fn key_time(tk: u64) -> f64 {
    f64::from_bits(if tk >> 63 == 1 { tk & !(1 << 63) } else { !tk })
}

/// A pending delivery without its payload. The derived order is
/// `(tk, seq)`: `seq` is unique, so `dst` and `slot` never decide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    tk: u64,
    seq: u64,
    dst: HostId,
    /// Where the payload waits in [`EventQueue::slab`].
    slot: u32,
}

/// A deterministic future-event queue.
///
/// # Examples
///
/// ```
/// use omt_sim::engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(2.0, 7, "late");
/// q.schedule(1.0, 3, "early");
/// q.schedule(1.0, 3, "early-second"); // same instant: FIFO
/// assert_eq!(q.pop().unwrap().msg, "early");
/// assert_eq!(q.pop().unwrap().msg, "early-second");
/// assert_eq!(q.pop().unwrap().msg, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<M> {
    /// Min-heap of the pending keys.
    heap: BinaryHeap<Reverse<Key>>,
    /// Payloads of the pending keys; `None` slots are listed in `free`.
    slab: Vec<Option<M>>,
    free: Vec<u32>,
    seq: u64,
    now: f64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// The time of the most recently popped delivery (0 before any pop).
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending deliveries.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no deliveries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules a delivery at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN, infinite, or before [`EventQueue::now`]
    /// (the past is immutable).
    pub fn schedule(&mut self, time: f64, dst: HostId, msg: M) {
        assert!(time.is_finite(), "non-finite delivery time {time}");
        assert!(
            time >= self.now,
            "delivery at {time} scheduled before current time {}",
            self.now
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(msg);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("over 2^32 pending deliveries");
                self.slab.push(Some(msg));
                slot
            }
        };
        let key = Key {
            tk: time_key(time),
            seq: self.seq,
            dst,
            slot,
        };
        self.seq += 1;
        self.heap.push(Reverse(key));
    }

    /// Turns a removed key back into a delivery, freeing its slot.
    #[inline]
    fn deliver(&mut self, key: Key) -> Delivery<M> {
        let msg = self.slab[key.slot as usize]
            .take()
            .expect("a pending key owns its slot");
        self.free.push(key.slot);
        Delivery {
            time: key_time(key.tk),
            dst: key.dst,
            msg,
        }
    }

    /// Pops the next delivery in `(time, seq)` order and advances the
    /// clock to it.
    pub fn pop(&mut self) -> Option<Delivery<M>> {
        let Reverse(key) = self.heap.pop()?;
        let d = self.deliver(key);
        self.now = d.time;
        Some(d)
    }

    /// Pops the next delivery **and** every further delivery addressed to
    /// the same host at the same instant — the host's mailbox for that
    /// tick — appending them to `out` in scheduling (FIFO) order. Returns
    /// the `(time, host)` of the batch, or `None` if the queue is empty.
    ///
    /// Deliveries to *other* hosts at the same instant stay queued: each
    /// host drains its own mailbox in the deterministic global order.
    pub fn pop_mailbox(&mut self, out: &mut Vec<Delivery<M>>) -> Option<(f64, HostId)> {
        let first = self.pop()?;
        let (time, dst) = (first.time, first.dst);
        out.push(first);
        // Same-instant deliveries to this host may interleave (in seq
        // order) with deliveries to other hosts; drain the whole instant,
        // keep ours, and push the rest back into the heap (their seq keys
        // restore the original order). "Same instant" is f64 `==`, so a
        // batch opened at −0.0 also takes the host's +0.0 deliveries.
        let mut stash = Vec::new();
        while let Some(&Reverse(head)) = self.heap.peek() {
            if key_time(head.tk) != time {
                break;
            }
            let Reverse(key) = self.heap.pop().expect("peeked");
            if key.dst == dst {
                out.push(self.deliver(key));
            } else {
                stash.push(Reverse(key));
            }
        }
        self.heap.extend(stash);
        Some((time, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 0, 'b');
        q.schedule(0.5, 1, 'a');
        q.schedule(1.0, 0, 'c');
        let popped: String = std::iter::from_fn(|| q.pop()).map(|d| d.msg).collect();
        assert_eq!(popped, "abc");
    }

    #[test]
    fn mailbox_batches_same_instant_same_host_only() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 5, 1);
        q.schedule(1.0, 9, 2); // other host, same instant
        q.schedule(1.0, 5, 3);
        q.schedule(2.0, 5, 4); // same host, later
        let mut box1 = Vec::new();
        assert_eq!(q.pop_mailbox(&mut box1), Some((1.0, 5)));
        assert_eq!(box1.iter().map(|d| d.msg).collect::<Vec<_>>(), [1, 3]);
        let mut box2 = Vec::new();
        assert_eq!(q.pop_mailbox(&mut box2), Some((1.0, 9)));
        assert_eq!(box2[0].msg, 2);
        let mut box3 = Vec::new();
        assert_eq!(q.pop_mailbox(&mut box3), Some((2.0, 5)));
        assert_eq!(box3[0].msg, 4);
        assert!(q.pop_mailbox(&mut Vec::new()).is_none());
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 0, ());
        q.schedule(3.0, 1, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 3.0);
        // Scheduling at the current instant is allowed…
        q.schedule(3.0, 2, ());
        // …but the past is rejected.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.schedule(2.9, 0, ());
        }));
        assert!(err.is_err());
    }

    #[test]
    fn time_key_sorts_like_total_cmp_and_round_trips() {
        let times = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            1.0 + f64::EPSILON,
            5.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in times {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits(), "{a}");
            for b in times {
                assert_eq!(time_key(a).cmp(&time_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn keys_stay_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_time() {
        EventQueue::new().schedule(f64::NAN, 0, ());
    }
}
