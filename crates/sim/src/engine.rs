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
//! bits (`tk`), so the queue compares and moves integers and never
//! touches a payload.
//!
//! The keys sit in a monotone radix queue (the radix heap of Ahuja,
//! Mehlhorn, Orlin & Tarjan, JACM 1990) with 4-bit digits: `schedule`
//! never goes below `now`, so every pending key is at or after the
//! current instant.
//!
//! * **Buckets.** `base` is the `tk` of the current instant; bucket 0
//!   holds the keys at the current instant. Any other key sits in bucket
//!   `1 + 16·level + digit`: `level` is the highest bit in which its `tk`
//!   differs from `base`, divided by 4, and `digit` is the key's own
//!   4-bit digit at that level. Above that digit the key agrees with
//!   `base`, and at it the key's digit is the larger, so the 257 buckets
//!   in index order hold ever larger keys. Every time the queue accepts
//!   is `≥ ±0.0`, so every `tk` has its top bit set and the 16 levels
//!   cover them all.
//! * **Pops** read bucket 0 from the front. When it is empty, a *refill*
//!   takes the lowest non-empty bucket (found in the 256-bit occupancy
//!   mask), makes its minimum `tk` (kept up to date on every push) the
//!   new `base`, and redistributes its keys in one pass into lower
//!   buckets; a bucket holding one key becomes bucket 0 as it is. The
//!   keys of bucket `(level, digit)` share every bit from that digit up
//!   with the new `base`, so each lands on a lower level: a key moves
//!   at most once per level before it pops.
//! * **Signed zeros.** −0.0 is bucketed as +0.0, so bucket 0 is exactly
//!   the f64 `==` instant. Inside bucket 0 keys stay in `(tk, seq)`
//!   order: refills and schedules append in `seq` order, and a −0.0 key,
//!   the one key that can sort below one already there, is inserted
//!   before the +0.0 keys.
//! * **Mailboxes.** `pop_mailbox` takes its host's keys out of bucket 0
//!   and compacts the rest in place.
//! * **Storage.** Buckets are singly linked lists of fixed `CHUNK`-key
//!   chunks taken from one pool with a LIFO free list, and a drained
//!   chunk goes back at once. Beyond the chunks its keys fill, the pool
//!   therefore holds only the partly filled first and last chunks of the
//!   buckets, where buckets that each kept their own `Vec` would keep
//!   the capacity of every bucket's high-water mark. With 257 buckets
//!   more chunks sit partly filled, so chunks are small.
//!
//! `tests/queue_oracle.rs` checks the whole contract against a plain
//! `BinaryHeap` of whole deliveries.

use omt_obs::{obs_count, obs_observe};

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

/// `time_key(0.0)`, the queue's first `base`.
const POS_ZERO_TK: u64 = 1 << 63;
/// `time_key(-0.0)`, the one `tk` below `POS_ZERO_TK` a queue can hold.
const NEG_ZERO_TK: u64 = !(1 << 63);

/// Bits per radix digit.
const DIGIT_BITS: u32 = 4;
/// Digit values per level.
const DIGITS: usize = 1 << DIGIT_BITS;
/// Number of buckets: bucket 0 plus one per digit value at each of the
/// 16 levels of a 64-bit `tk`.
const BUCKETS: usize = 1 + (u64::BITS / DIGIT_BITS) as usize * DIGITS;

/// The bucket of a key whose image `tk` is at or above `base`.
#[inline]
fn bucket_of(tk: u64, base: u64) -> usize {
    let diff = tk ^ base;
    if diff == 0 {
        return 0;
    }
    let level = (u64::BITS - 1 - diff.leading_zeros()) / DIGIT_BITS;
    let digit = (tk >> (level * DIGIT_BITS)) as usize & (DIGITS - 1);
    1 + level as usize * DIGITS + digit
}

/// Keys per storage chunk.
const CHUNK: usize = 64;
/// The null chunk link.
const NIL: u32 = u32::MAX;

/// A pending delivery without its payload. The derived order is
/// `(tk, seq)`: `seq` is unique, so `dst` and `slot` never decide.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    tk: u64,
    seq: u64,
    dst: HostId,
    /// Where the payload waits in [`Slab::slots`].
    slot: u32,
}

/// Fixed-size key chunks shared by every bucket, with a LIFO free list
/// threaded through `next`.
struct Pool {
    /// Each `CHUNK` keys long.
    chunks: Vec<Box<[Key]>>,
    /// The next chunk of the same bucket, or of the free list.
    next: Vec<u32>,
    free: u32,
}

impl Pool {
    fn new() -> Self {
        Self {
            chunks: Vec::new(),
            next: Vec::new(),
            free: NIL,
        }
    }

    /// A chunk with no successor, from the free list if it has one.
    #[inline]
    fn alloc(&mut self) -> u32 {
        let c = if self.free != NIL {
            let c = self.free;
            self.free = self.next[c as usize];
            c
        } else {
            let c = u32::try_from(self.chunks.len()).expect("under 2^32 chunks");
            self.chunks
                .push(vec![Key::default(); CHUNK].into_boxed_slice());
            self.next.push(NIL);
            c
        };
        self.next[c as usize] = NIL;
        c
    }

    #[inline]
    fn release(&mut self, c: u32) {
        self.next[c as usize] = self.free;
        self.free = c;
    }

    /// Releases the chunks from `first` through `last` of one list.
    fn release_chain(&mut self, first: u32, last: u32) {
        let mut c = first;
        loop {
            let next = self.next[c as usize];
            self.release(c);
            if c == last {
                return;
            }
            c = next;
        }
    }
}

/// One bucket: a list of chunks holding `len` keys, the first at
/// `start` in `head` (non-zero only in bucket 0, which pops from the
/// front) and the last at `end - 1` in `tail`.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    start: u32,
    end: u32,
    len: usize,
    /// The smallest `tk` in the bucket (unused in bucket 0).
    min: u64,
}

impl Bucket {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
        start: 0,
        end: 0,
        len: 0,
        min: u64::MAX,
    };

    /// Appends `key`; returns whether the bucket was empty before.
    #[inline]
    fn push(&mut self, pool: &mut Pool, key: Key) -> bool {
        let was_empty = self.len == 0;
        if was_empty {
            let c = pool.alloc();
            *self = Self {
                head: c,
                tail: c,
                start: 0,
                end: 0,
                len: 0,
                min: key.tk,
            };
        } else if self.end as usize == CHUNK {
            let c = pool.alloc();
            pool.next[self.tail as usize] = c;
            self.tail = c;
            self.end = 0;
        }
        pool.chunks[self.tail as usize][self.end as usize] = key;
        self.end += 1;
        self.len += 1;
        self.min = self.min.min(key.tk);
        was_empty
    }

    /// Removes the first key. The bucket must not be empty.
    #[inline]
    fn pop_front(&mut self, pool: &mut Pool) -> Key {
        let key = pool.chunks[self.head as usize][self.start as usize];
        self.start += 1;
        self.len -= 1;
        if self.len == 0 {
            pool.release(self.head);
            *self = Self::EMPTY;
        } else if self.start as usize == CHUNK {
            let c = self.head;
            self.head = pool.next[c as usize];
            pool.release(c);
            self.start = 0;
        }
        key
    }

    /// Calls `f` on every key in order.
    fn for_each_key_mut(&self, pool: &mut Pool, mut f: impl FnMut(&mut Key)) {
        if self.len == 0 {
            return;
        }
        let (mut c, mut j) = (self.head, self.start as usize);
        loop {
            let end = if c == self.tail {
                self.end as usize
            } else {
                CHUNK
            };
            pool.chunks[c as usize][j..end].iter_mut().for_each(&mut f);
            if c == self.tail {
                return;
            }
            c = pool.next[c as usize];
            j = 0;
        }
    }
}

/// Payloads of the pending keys; `None` slots are listed in `free`.
struct Slab<M> {
    slots: Vec<Option<M>>,
    free: Vec<u32>,
}

impl<M> Slab<M> {
    fn put(&mut self, msg: M) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(msg);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("over 2^32 pending deliveries");
                self.slots.push(Some(msg));
                slot
            }
        }
    }

    /// Turns a removed key back into a delivery, freeing its slot.
    #[inline]
    fn deliver(&mut self, key: Key) -> Delivery<M> {
        let msg = self.slots[key.slot as usize]
            .take()
            .expect("a pending key owns its slot");
        self.free.push(key.slot);
        Delivery {
            time: key_time(key.tk),
            dst: key.dst,
            msg,
        }
    }
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
    /// Radix buckets of the pending keys; bucket 0 is the current instant.
    buckets: [Bucket; BUCKETS],
    /// Bit `b - 1` (word `(b - 1) / 64`) is set iff bucket `b ≥ 1` is
    /// non-empty.
    occupied: [u64; (BUCKETS - 1) / 64],
    /// `tk` of the current instant (+0.0's at ±0.0); no pending key but
    /// a −0.0 one is below it.
    base: u64,
    pool: Pool,
    slab: Slab<M>,
    len: usize,
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
            buckets: [Bucket::EMPTY; BUCKETS],
            occupied: [0; (BUCKETS - 1) / 64],
            base: POS_ZERO_TK,
            pool: Pool::new(),
            slab: Slab {
                slots: Vec::new(),
                free: Vec::new(),
            },
            len: 0,
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
        self.len
    }

    /// Whether no deliveries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        let key = Key {
            tk: time_key(time),
            seq: self.seq,
            dst,
            slot: self.slab.put(msg),
        };
        self.seq += 1;
        self.len += 1;
        if key.tk == NEG_ZERO_TK {
            self.insert_neg_zero(key);
            return;
        }
        self.push(key);
    }

    /// Files `key` (at or above `base`) in its bucket.
    #[inline]
    fn push(&mut self, key: Key) {
        let b = bucket_of(key.tk, self.base);
        if self.buckets[b].push(&mut self.pool, key) && b > 0 {
            self.occupied[(b - 1) / 64] |= 1 << ((b - 1) % 64);
        }
    }

    /// Inserts a −0.0 key into bucket 0 ahead of its +0.0 keys, by
    /// swapping it through the sorted bucket. Bucket 0 is the ±0.0
    /// instant: −0.0 is only schedulable while `now` is ±0.0, and `base`
    /// only moves on in the pop that moves `now` on. A −0.0 key is
    /// therefore bucketed as +0.0 and never leaves bucket 0 by a refill.
    #[cold]
    fn insert_neg_zero(&mut self, key: Key) {
        let mut carry = key;
        self.buckets[0].for_each_key_mut(&mut self.pool, |slot| {
            if *slot > carry {
                std::mem::swap(slot, &mut carry);
            }
        });
        self.buckets[0].push(&mut self.pool, carry);
    }

    /// Moves the lowest non-empty bucket down so that bucket 0 holds the
    /// next instant. Bucket 0 must be empty; returns false if every
    /// bucket is.
    fn refill(&mut self) -> bool {
        debug_assert_eq!(self.buckets[0].len, 0);
        let Some(w) = self.occupied.iter().position(|&m| m != 0) else {
            return false;
        };
        let i = 1 + 64 * w + self.occupied[w].trailing_zeros() as usize;
        self.occupied[w] &= self.occupied[w] - 1;
        let src = std::mem::replace(&mut self.buckets[i], Bucket::EMPTY);
        self.base = src.min;
        obs_count!("sim/queue/refills");
        if src.len == 1 {
            self.buckets[0] = src;
            obs_observe!("sim/queue/bucket0", 1);
            return true;
        }
        obs_count!("sim/queue/moves", src.len as u64);
        let mut c = src.head;
        loop {
            let end = if c == src.tail {
                src.end as usize
            } else {
                CHUNK
            };
            for j in 0..end {
                self.push(self.pool.chunks[c as usize][j]);
            }
            let next = self.pool.next[c as usize];
            self.pool.release(c);
            if c == src.tail {
                break;
            }
            c = next;
        }
        obs_observe!("sim/queue/bucket0", self.buckets[0].len as u64);
        true
    }

    /// Pops the next delivery in `(time, seq)` order and advances the
    /// clock to it.
    pub fn pop(&mut self) -> Option<Delivery<M>> {
        if self.buckets[0].len == 0 && !self.refill() {
            return None;
        }
        let key = self.buckets[0].pop_front(&mut self.pool);
        self.len -= 1;
        let d = self.slab.deliver(key);
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
        // Bucket 0 now holds the rest of the instant ("same instant" is
        // f64 `==`, so a batch opened at −0.0 also takes the host's +0.0
        // deliveries) in `(tk, seq)` order. Deliver this host's keys and
        // slide the others forward over them.
        let b0 = &mut self.buckets[0];
        if b0.len == 0 {
            return Some((time, dst));
        }
        let pool = &mut self.pool;
        let (mut wc, mut wj) = (b0.head, b0.start as usize);
        let mut kept = 0;
        let (mut c, mut j) = (b0.head, b0.start as usize);
        loop {
            let end = if c == b0.tail { b0.end as usize } else { CHUNK };
            for i in j..end {
                let key = pool.chunks[c as usize][i];
                if key.dst == dst {
                    out.push(self.slab.deliver(key));
                    continue;
                }
                if wj == CHUNK {
                    wc = pool.next[wc as usize];
                    wj = 0;
                }
                pool.chunks[wc as usize][wj] = key;
                wj += 1;
                kept += 1;
            }
            if c == b0.tail {
                break;
            }
            c = pool.next[c as usize];
            j = 0;
        }
        self.len -= b0.len - kept;
        if kept == 0 {
            pool.release_chain(b0.head, b0.tail);
            *b0 = Bucket::EMPTY;
        } else {
            if wc != b0.tail {
                pool.release_chain(pool.next[wc as usize], b0.tail);
                pool.next[wc as usize] = NIL;
            }
            b0.tail = wc;
            b0.end = wj as u32;
            b0.len = kept;
        }
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
    fn mailboxes_split_an_instant_that_spans_chunks() {
        // 2·CHUNK + 5 keys at +0.0 over three hosts, then one at −0.0:
        // it sorts first, and each host's batch is its keys in FIFO order.
        let mut q = EventQueue::new();
        let n = 2 * CHUNK as u32 + 5;
        for i in 0..n {
            q.schedule(0.0, i % 3, i);
        }
        q.schedule(-0.0, 1, n);
        let (mut heads, mut batches) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        while let Some((t, h)) = q.pop_mailbox(&mut out) {
            heads.push((t.to_bits(), h));
            batches.push(out.drain(..).map(|d| d.msg).collect::<Vec<_>>());
            let popped: usize = batches.iter().map(Vec::len).sum();
            assert_eq!(q.len(), n as usize + 1 - popped);
        }
        assert_eq!(heads, [((-0.0f64).to_bits(), 1), (0, 0), (0, 2)]);
        let host = |h: u32| (0..n).filter(|i| i % 3 == h).collect::<Vec<_>>();
        assert_eq!(batches, [[vec![n], host(1)].concat(), host(0), host(2)]);
        // The instant filled three chunks, and all are free again.
        assert_eq!(q.pool.chunks.len(), 3);
        assert_eq!(free_chunks(&q), 3);
    }

    #[test]
    fn pool_stays_within_64_chunks_of_the_peak() {
        // 10k pending keys over a spread of times with ties; then keep 10k
        // pending through 20k pops and schedules, and drain by mailboxes.
        use omt_rng::{rngs::SmallRng, RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut q = EventQueue::new();
        let peak = 10_000;
        let mut draw = |now: f64| now + f64::from(rng.random_range(0..400u32)) * 0.125;
        for i in 0..peak {
            q.schedule(draw(0.0), i % 17, i);
        }
        for i in peak..3 * peak {
            q.pop().expect("pending");
            q.schedule(draw(q.now()), i % 17, i);
        }
        assert_eq!(q.len(), peak as usize);
        let mut out = Vec::new();
        while q.pop_mailbox(&mut out).is_some() {}
        assert_eq!(out.len(), peak as usize);
        assert!(out.windows(2).all(|w| w[0].time <= w[1].time));
        let chunks = q.pool.chunks.len();
        assert!(
            chunks <= (peak as usize).div_ceil(CHUNK) + 64,
            "{chunks} chunks"
        );
        assert_eq!(free_chunks(&q), chunks);
    }

    /// Length of the pool's free list.
    fn free_chunks<M>(q: &EventQueue<M>) -> usize {
        let (mut free, mut c) = (0, q.pool.free);
        while c != NIL {
            free += 1;
            c = q.pool.next[c as usize];
        }
        free
    }

    #[test]
    fn bucket_index_order_is_key_order() {
        // From several bases, a key at every level and digit above the
        // base (bucket 0 for the base itself): each lands in bucket
        // `1 + 16·level + digit`, and sorting the keys sorts the buckets.
        use omt_rng::{rngs::SmallRng, RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let mut bases = vec![POS_ZERO_TK, time_key(445.0), u64::MAX - 1];
        bases.extend((0..20).map(|_| rng.random::<u64>() | POS_ZERO_TK));
        let mut hit = [false; BUCKETS];
        for base in bases {
            let mut keyed = vec![(base, 0)];
            for level in 0..u64::BITS / DIGIT_BITS {
                let shift = level * DIGIT_BITS;
                let own = (base >> shift) as usize & (DIGITS - 1);
                for digit in own + 1..DIGITS {
                    let above = base >> shift >> DIGIT_BITS << DIGIT_BITS << shift;
                    let low = rng.random::<u64>() & ((1 << shift) - 1);
                    let tk = above | (digit as u64) << shift | low;
                    let b = bucket_of(tk, base);
                    assert_eq!(
                        b,
                        1 + level as usize * DIGITS + digit,
                        "{tk:#x} over {base:#x}"
                    );
                    keyed.push((tk, b));
                }
            }
            keyed.sort_unstable();
            assert!(keyed.windows(2).all(|w| w[0].1 < w[1].1), "{base:#x}");
            for (_, b) in keyed {
                hit[b] = true;
            }
        }
        // Every bucket a key can reach was reached: a key's digit exceeds
        // the base's, so digit 0 never is, nor are the top level's digits
        // 0..=8 (every image has its top bit set).
        for (b, &h) in hit.iter().enumerate() {
            let (level, digit) = ((b.max(1) - 1) / DIGITS, (b.max(1) - 1) % DIGITS);
            let reachable = b == 0 || (digit > 0 && (level < 15 || digit > 8));
            assert_eq!(h, reachable, "bucket {b}");
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
