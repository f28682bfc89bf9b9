//! Deterministic event queue.
//!
//! A binary min-heap that orders events by `(time, seq)` where `seq` is a
//! monotonically increasing insertion counter. Two events scheduled for
//! the same instant therefore pop in insertion order — the property that
//! makes a whole simulation run a *total* order, reproducible from the
//! RNG seed alone regardless of host platform.
//!
//! The heap moves 16-byte integer keys, not events. A key packs `time`
//! (64 bits), `seq` (40 bits) and the index of the payload's slot in an
//! out-of-line slab (24 bits), most significant first, so integer order
//! on keys *is* `(time, seq)` order: sequence numbers are unique, and
//! the slot bits below them never decide a comparison. Payloads stay put
//! in the slab while their keys sift; freed slots are threaded onto a
//! free list inside the slab itself and reused, so a queue in steady
//! state does not allocate. Both packing limits — 2^40 (about
//! 1.1 × 10¹²) events scheduled over a queue's lifetime, and 2^24
//! (about 16.8 million) events pending at once in the heap — are
//! checked in every build and panic when exceeded; nothing wraps.
//!
//! Beside the heap sits a timer wheel: periodic slots of one shared
//! period that fire in rotation (see [`EventQueue::schedule_periodic`]),
//! one per CPU tick in the kernel. Its pending occurrence is one array
//! read, and a run of firings has a closed form
//! ([`EventQueue::advance_periodic`]).
//!
//! Every event carries an [`EventId`], so producers can lazily cancel:
//! rather than removing an entry from the heap (O(n)), callers remember
//! the id of the event they still care about and ignore stale pops. The
//! kernel does this for compute-completion events, which are superseded
//! whenever a task's execution speed changes. An event armed at a lower
//! bound of its instant can be put back at the exact instant under its
//! original sequence number ([`EventQueue::rearm`]), so the total order
//! is the one an exact schedule would have produced, and the id stays
//! the one its producer remembers.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits of a heap key that hold the insertion sequence number.
const SEQ_BITS: u32 = 40;

/// Bits of a heap key that hold the payload's slab slot (zero in a
/// periodic slot's key).
const SLOT_BITS: u32 = 64 - SEQ_BITS;

const MAX_SEQ: u64 = 1 << SEQ_BITS;
const MAX_SLOTS: usize = 1 << SLOT_BITS;

/// Heap key of the occurrence `(time, seq)` whose payload lives in
/// `slot`. Callers guarantee `seq < MAX_SEQ` and `slot < MAX_SLOTS`.
#[inline]
fn pack(time: SimTime, seq: u64, slot: usize) -> u128 {
    debug_assert!(seq < MAX_SEQ && slot < MAX_SLOTS);
    (u128::from(time.as_nanos()) << 64) | u128::from(seq << SLOT_BITS | slot as u64)
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

#[inline]
fn key_seq(key: u128) -> u64 {
    (key as u64) >> SLOT_BITS
}

#[inline]
fn key_slot(key: u128) -> usize {
    (key as u64 & (MAX_SLOTS as u64 - 1)) as usize
}

/// End of the slab's free list.
const NO_SLOT: u32 = u32::MAX;

/// One slab entry: a pending event's payload, or a link in the list of
/// vacant entries.
enum Slot<E> {
    Filled(E),
    Vacant { next: u32 },
}

/// Index for an entry appended to a slab of `len` entries.
#[inline]
fn new_slot(len: usize) -> usize {
    assert!(
        len < MAX_SLOTS,
        "event queue holds {MAX_SLOTS} pending events, its {SLOT_BITS}-bit slot limit"
    );
    len
}

/// Identifier of a scheduled event, unique within one [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

/// A self-re-arming periodic event: one spoke of the timer wheel.
///
/// One slot stands in for an infinite stream of heap entries. Its
/// pending occurrence is `key` = `(time, seq)`; when it pops, the slot
/// re-arms in place one period later with a freshly allocated `seq`.
/// That allocation order is exactly what an explicit handler-side
/// `schedule(now + period, ...)` as the handler's *last* seq allocation
/// would produce, so converting such a self-re-arming event to a
/// periodic slot preserves the queue's total `(time, seq)` order
/// bit-for-bit.
struct PeriodicSlot<E> {
    key: u128,
    payload: E,
}

/// A deterministic min-priority queue of timestamped events.
///
/// Events live in a heap; per-CPU ticks may instead live on a timer
/// wheel of periodic slots, which pop merged with the heap under the
/// same `(time, seq)` order and can also be fired in bulk.
///
/// ```
/// use hpl_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "later");
/// q.schedule(SimTime::from_nanos(10), "sooner");
/// let (t, _, what) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), what), (10, "sooner"));
/// assert_eq!(q.now(), t);
/// ```
pub struct EventQueue<E> {
    /// Min-heap of packed `(time, seq, slab slot)` keys.
    heap: BinaryHeap<Reverse<u128>>,
    /// Payloads of the heap's events, indexed by the key's slot bits.
    slab: Vec<Slot<E>>,
    /// First vacant slab entry (`NO_SLOT` if none): vacant entries are
    /// reused, most recently freed first, before the slab grows.
    free: u32,
    /// Timer wheel: always-armed periodic slots in creation order. Their
    /// pending keys, read from `head` round to `head − 1`, are in
    /// `(time, seq)` order and span at most one `period`.
    periodic: Vec<PeriodicSlot<E>>,
    /// The one period of every periodic slot.
    period: SimDuration,
    /// The slot whose occurrence is the wheel's earliest.
    head: usize,
    /// Whether a periodic slot has fired: the wheel then takes no more.
    rotating: bool,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue positioned at `t = 0`. Allocates nothing.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: NO_SLOT,
            periodic: Vec::new(),
            period: SimDuration::ZERO,
            head: 0,
            rotating: false,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event
    /// (or zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events. Each periodic slot always has exactly one
    /// pending occurrence.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.periodic.len()
    }

    /// True iff no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.periodic.is_empty()
    }

    /// Allocate the next sequence number.
    #[inline]
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(
            seq < MAX_SEQ,
            "event queue exhausted its {SEQ_BITS}-bit sequence numbers"
        );
        self.next_seq = seq + 1;
        seq
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; debug builds panic, release
    /// builds clamp to `now` so the event still fires (never silently lost).
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduling event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.take_seq();
        self.push(at, seq, payload);
        EventId(seq)
    }

    /// Re-insert the event `id`, just popped, at `at` (not before
    /// `now`) under its original sequence number. It then pops exactly
    /// where it would have had it been scheduled at `at` in the first
    /// place: among events at the same instant, by the order in which
    /// they were first scheduled. A producer that cannot yet afford to
    /// compute an event's time arms it at a cheap lower bound instead,
    /// and re-arms it here once the bound fires and the exact time is
    /// worth computing; every pop but that of the bound is unchanged.
    ///
    /// `id` must come from this queue and must not be pending; both are
    /// checked in debug builds only as far as the id is older than any
    /// sequence number not yet drawn.
    pub fn rearm(&mut self, id: EventId, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "re-arming event in the past: at={at} now={}",
            self.now
        );
        debug_assert!(id.0 < self.next_seq, "re-arming an event never scheduled");
        self.push(at.max(self.now), id.0, payload);
    }

    /// Put `payload` into the slab and its `(at, seq)` key into the heap.
    #[inline]
    fn push(&mut self, at: SimTime, seq: u64, payload: E) {
        let slot = if self.free == NO_SLOT {
            let slot = new_slot(self.slab.len());
            self.slab.push(Slot::Filled(payload));
            slot
        } else {
            let slot = self.free as usize;
            match std::mem::replace(&mut self.slab[slot], Slot::Filled(payload)) {
                Slot::Vacant { next } => self.free = next,
                Slot::Filled(_) => unreachable!("free list names a filled slot"),
            }
            slot
        };
        self.heap.push(Reverse(pack(at, seq, slot)));
    }

    /// Create a periodic slot of the timer wheel, firing first at
    /// `first`, then every `period`. Slots are numbered in creation
    /// order from 0.
    ///
    /// The wheel fires its slots in rotation. Every slot has the same
    /// `period`, and all of them are created before any fires, in
    /// non-decreasing `first` order, each at most one period after the
    /// first slot; a violation of any of these panics. A fired slot
    /// re-arms one period later under the newest sequence number, so it
    /// becomes the last of the rotation: the pending keys stay a
    /// rotation of creation order and span at most one period.
    ///
    /// The pending occurrence's seq is allocated here, exactly as
    /// [`schedule`](Self::schedule) would; every subsequent occurrence
    /// allocates its seq when the previous one pops. Slots live for the
    /// queue's whole lifetime (ticks never stop).
    pub fn schedule_periodic(&mut self, first: SimTime, period: SimDuration, payload: E) {
        debug_assert!(
            first >= self.now,
            "scheduling periodic event in the past: first={first} now={}",
            self.now
        );
        let first = first.max(self.now);
        assert!(!period.is_zero(), "periodic event with zero period");
        assert!(!self.rotating, "periodic slot created after a slot fired");
        if let (Some(lead), Some(last)) = (self.periodic.first(), self.periodic.last()) {
            assert_eq!(period, self.period, "periodic slots share one period");
            assert!(
                first >= key_time(last.key),
                "periodic slot created out of time order: first={first}"
            );
            assert!(
                first - key_time(lead.key) <= period,
                "periodic slot more than one period after the first: first={first}"
            );
        }
        self.period = period;
        let key = pack(first, self.take_seq(), 0);
        self.periodic.push(PeriodicSlot { key, payload });
    }

    /// Fire the wheel's pending occurrence, that of slot `head`: advance
    /// `now`, re-arm the slot one period later with a fresh seq, which
    /// makes it the last of the rotation, and move `head` on. Returns
    /// the fired occurrence as `(time, id, slot index)`.
    fn fire_head(&mut self) -> (SimTime, EventId, usize) {
        let seq = self.take_seq();
        let i = self.head;
        let slot = &mut self.periodic[i];
        let (time, id) = (key_time(slot.key), EventId(key_seq(slot.key)));
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        slot.key = pack(time + self.period, seq, 0);
        self.head = if i + 1 == self.periodic.len() {
            0
        } else {
            i + 1
        };
        self.rotating = true;
        (time, id, i)
    }

    /// Pending occurrence time of periodic slot `slot`.
    #[inline]
    pub fn periodic_time(&self, slot: usize) -> SimTime {
        key_time(self.periodic[slot].key)
    }

    /// Pop the next event, advancing `now` to its timestamp.
    ///
    /// Merges the heap with the timer wheel under the same total
    /// `(time, seq)` order — one integer comparison of the heap root's
    /// key with the wheel's head. A popped periodic occurrence re-arms
    /// its slot in place (see `PeriodicSlot` for why that preserves
    /// determinism).
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)>
    where
        E: Clone,
    {
        let take_periodic = match (self.periodic.get(self.head), self.heap.peek()) {
            (Some(p), Some(h)) => p.key < h.0,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_periodic {
            let (time, id, i) = self.fire_head();
            return Some((time, id, self.periodic[i].payload.clone()));
        }
        let Reverse(key) = self.heap.pop()?;
        let (time, slot) = (key_time(key), key_slot(key));
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        let vacant = Slot::Vacant { next: self.free };
        let Slot::Filled(payload) = std::mem::replace(&mut self.slab[slot], vacant) else {
            unreachable!("heap key names a vacant slot")
        };
        self.free = slot as u32;
        Some((time, EventId(key_seq(key)), payload))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|k| k.0);
        let periodic = self.periodic.get(self.head).map(|s| s.key);
        heap.into_iter().chain(periodic).min().map(key_time)
    }

    /// Timestamp of the next pending *heap* event, ignoring periodic
    /// slots. Fast-forward uses this as a batching horizon: everything in
    /// the heap is a real state change, while periodic occurrences below
    /// this time may be provably inert.
    pub fn peek_heap_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| key_time(k.0))
    }

    /// Earliest pending periodic occurrence, ignoring the heap. Lets
    /// fast-forward bail out cheaply when no tick precedes the next real
    /// event.
    pub fn peek_periodic_time(&self) -> Option<SimTime> {
        self.periodic.get(self.head).map(|s| key_time(s.key))
    }

    /// Batch-fire periodic occurrences without popping them one by one.
    ///
    /// Fires every pending periodic occurrence strictly below `horizon`,
    /// leaving the queue as that many [`pop`](Self::pop)s would: the same
    /// pending keys, the same sequence numbers drawn, and `now` at the
    /// last firing. `fired[i]` is incremented per firing of slot `i`;
    /// the total is returned.
    ///
    /// Firings follow the rotation round after round, and their times
    /// never decrease, so the batch is the rotation's first `total`
    /// firings, in closed form and O(slots): the slot at rotation
    /// position `j` (`j = 0` at `head`) with `n_j` firings draws, at its
    /// last re-arm, seq `base + j + (n_j − 1)·slots`.
    pub fn advance_periodic(&mut self, horizon: SimTime, fired: &mut [u64]) -> u64 {
        let (n, head, period) = (self.periodic.len(), self.head, self.period);
        debug_assert_eq!(fired.len(), n);
        // A slot's firings below the horizon: at `t + k·period < horizon`.
        let count = |s: &PeriodicSlot<E>| {
            let t = key_time(s.key);
            if t < horizon {
                (horizon - t).as_nanos().div_ceil(period.as_nanos())
            } else {
                0
            }
        };
        let rotation = || (head..n).chain(0..head);
        let total: u64 = rotation().map(|i| count(&self.periodic[i])).sum();
        if total == 0 {
            return 0;
        }
        let base = self.next_seq;
        assert!(
            total <= MAX_SEQ - base,
            "event queue exhausted its {SEQ_BITS}-bit sequence numbers"
        );
        for (j, i) in rotation().enumerate() {
            let slot = &mut self.periodic[i];
            let k = count(slot);
            if k == 0 {
                break; // so are all later positions
            }
            let seq = base + j as u64 + (k - 1) * n as u64;
            slot.key = pack(key_time(slot.key) + period * k, seq, 0);
            fired[i] += k;
        }
        // Firing `total − 1`, the last, re-armed its slot one period on.
        let last = (head + ((total - 1) % n as u64) as usize) % n;
        self.now = key_time(self.periodic[last].key) - period;
        self.head = (head + (total % n as u64) as usize) % n;
        self.next_seq = base + total;
        self.rotating = true;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(9));
    }

    #[test]
    fn event_ids_are_unique() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), ());
        let b = q.schedule(SimTime::from_nanos(1), ());
        assert_ne!(a, b);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1u32);
        let (t, _, v) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), v), (10, 1));
        // Schedule relative to the new now.
        q.schedule(t + SimDuration::from_nanos(5), 2u32);
        q.schedule(t + SimDuration::from_nanos(3), 3u32);
        assert_eq!(q.pop().unwrap().2, 3);
        assert_eq!(q.pop().unwrap().2, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(4), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
    }

    /// A periodic slot must produce the byte-identical `(time, id, payload)`
    /// stream of a handler that re-schedules itself as its last action.
    #[test]
    fn periodic_matches_self_rescheduling_handler() {
        let period = SimDuration::from_nanos(10);
        let mut fast = EventQueue::new();
        let mut refq = EventQueue::new();
        // Two "CPUs" with staggered phases plus interleaved ad-hoc events.
        fast.schedule_periodic(SimTime::from_nanos(10), period, "t0");
        fast.schedule_periodic(SimTime::from_nanos(15), period, "t1");
        refq.schedule(SimTime::from_nanos(10), "t0");
        refq.schedule(SimTime::from_nanos(15), "t1");
        for q in [&mut fast, &mut refq] {
            q.schedule(SimTime::from_nanos(12), "a");
            q.schedule(SimTime::from_nanos(20), "b");
            q.schedule(SimTime::from_nanos(20), "c");
        }
        for step in 0..50 {
            let f = fast.pop().unwrap();
            let r = refq.pop().unwrap();
            assert_eq!(f, r, "divergence at step {step}");
            // Reference handler: re-arm as the last seq allocation.
            if f.2.starts_with('t') {
                refq.schedule(r.0 + period, r.2);
            }
            // Ad-hoc traffic scheduled mid-handler on both queues.
            if f.2 == "a" {
                fast.schedule(f.0 + SimDuration::from_nanos(7), "d");
                refq.schedule(r.0 + SimDuration::from_nanos(7), "d");
            }
        }
    }

    /// Batch-advancing slots must leave the queue in the same state as
    /// popping each occurrence individually.
    #[test]
    fn advance_periodic_equals_sequential_pops() {
        let period = SimDuration::from_nanos(10);
        let mk = |q: &mut EventQueue<&str>| {
            q.schedule_periodic(SimTime::from_nanos(10), period, "t0");
            q.schedule_periodic(SimTime::from_nanos(15), period, "t1");
            q.schedule(SimTime::from_nanos(47), "stop");
        };
        let mut batched = EventQueue::new();
        let mut popped = EventQueue::new();
        mk(&mut batched);
        mk(&mut popped);

        // Fire everything strictly before t=47.
        let mut fired = [0u64; 2];
        let total = batched.advance_periodic(SimTime::from_nanos(47), &mut fired);
        assert_eq!(fired, [4, 4]); // t0: 10,20,30,40  t1: 15,25,35,45
        assert_eq!(total, 8);

        let mut n = 0;
        while popped.peek_time().unwrap() < SimTime::from_nanos(47) {
            popped.pop().unwrap();
            n += 1;
        }
        assert_eq!(n, total);

        // Identical continuation: same times, same ids, same payloads.
        for _ in 0..20 {
            assert_eq!(batched.pop(), popped.pop());
        }
    }

    /// The closed form leaves the queue byte-identical to popping each
    /// occurrence below the horizon: same firing counts, same clock,
    /// same seq allocation, same continuation stream. A seeded LCG
    /// explores one to six slots, phase ties, spreads of exactly one
    /// period, horizons on a pending occurrence, batches that start
    /// anywhere in the rotation, and clocks near 2^63.
    #[test]
    fn advance_periodic_matches_sequential_pops_at_random() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let t = SimTime::from_nanos;
        for round in 0..400 {
            let nslots = 1 + (rng() % 6) as usize;
            let p = 1 + rng() % 20;
            let start = if round % 4 == 0 {
                (1 << 63) + rng() % 100
            } else {
                rng() % 50
            };
            let mut offsets: Vec<u64> = (0..nslots).map(|_| rng() % (p + 1)).collect();
            offsets.sort_unstable();
            if rng() % 2 == 0 {
                offsets[0] = 0;
                offsets[nslots - 1] = p;
            }
            let mut batched = EventQueue::new();
            let mut popped = EventQueue::new();
            for q in [&mut batched, &mut popped] {
                q.schedule(t(start), usize::MAX);
                q.pop();
                for (i, &o) in offsets.iter().enumerate() {
                    q.schedule_periodic(t(start + o), SimDuration::from_nanos(p), i);
                }
            }
            for batch in 0..4 {
                let ctx = format!("round {round} batch {batch}");
                let h = if rng() % 3 == 0 {
                    batched.periodic_time((rng() % nslots as u64) as usize)
                } else {
                    batched.now() + SimDuration::from_nanos(rng() % (6 * p))
                };
                let mut fired = vec![0u64; nslots];
                let total = batched.advance_periodic(h, &mut fired);
                let mut want = vec![0u64; nslots];
                while popped.peek_time().is_some_and(|due| due < h) {
                    want[popped.pop().unwrap().2] += 1;
                }
                assert_eq!(fired, want, "{ctx}: per-slot counts");
                assert_eq!(total, want.iter().sum::<u64>(), "{ctx}: total");
                assert_eq!(batched.now(), popped.now(), "{ctx}: clock");
                assert_eq!(batched.peek_time(), popped.peek_time(), "{ctx}: next");
                if rng() % 2 == 0 {
                    assert_eq!(batched.pop(), popped.pop(), "{ctx}: single pop");
                }
            }
            for step in 0..3 * nslots {
                assert_eq!(
                    batched.pop(),
                    popped.pop(),
                    "round {round}: continuation diverged at pop {step}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "share one period")]
    fn a_second_period_panics() {
        let mut q = EventQueue::new();
        q.schedule_periodic(SimTime::from_nanos(0), SimDuration::from_nanos(10), 0);
        q.schedule_periodic(SimTime::from_nanos(5), SimDuration::from_nanos(7), 1);
    }

    #[test]
    #[should_panic(expected = "out of time order")]
    fn a_slot_out_of_time_order_panics() {
        let mut q = EventQueue::new();
        q.schedule_periodic(SimTime::from_nanos(5), SimDuration::from_nanos(10), 0);
        q.schedule_periodic(SimTime::from_nanos(4), SimDuration::from_nanos(10), 1);
    }

    #[test]
    #[should_panic(expected = "more than one period after the first")]
    fn a_slot_past_one_period_panics() {
        let mut q = EventQueue::new();
        q.schedule_periodic(SimTime::from_nanos(0), SimDuration::from_nanos(10), 0);
        q.schedule_periodic(SimTime::from_nanos(10), SimDuration::from_nanos(10), 1);
        q.schedule_periodic(SimTime::from_nanos(11), SimDuration::from_nanos(10), 2);
    }

    #[test]
    #[should_panic(expected = "after a slot fired")]
    fn a_slot_after_a_firing_panics() {
        let mut q = EventQueue::new();
        q.schedule_periodic(SimTime::from_nanos(3), SimDuration::from_nanos(10), 0);
        q.pop();
        q.schedule_periodic(SimTime::from_nanos(5), SimDuration::from_nanos(10), 1);
    }

    /// Integer order on packed keys is `(time, seq)` order, at the
    /// edges of every field too.
    #[test]
    fn key_order_is_time_then_seq() {
        let t = |ns| SimTime::from_nanos(ns);
        let top_seq = MAX_SEQ - 1;
        let top_slot = MAX_SLOTS - 1;
        assert!(pack(t(1), top_seq, top_slot) < pack(t(2), 0, 0));
        assert!(pack(t(5), 3, top_slot) < pack(t(5), 4, 0));
        assert!(pack(t(u64::MAX - 1), top_seq, 0) < pack(t(u64::MAX), 0, 0));
        let k = pack(t(u64::MAX), top_seq, top_slot);
        assert_eq!(
            (key_time(k), key_seq(k), key_slot(k)),
            (t(u64::MAX), top_seq, top_slot)
        );
    }

    #[test]
    #[should_panic(expected = "sequence numbers")]
    fn exhausted_sequence_numbers_panic() {
        let mut q = EventQueue::new();
        q.next_seq = MAX_SEQ - 1;
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
    }

    #[test]
    #[should_panic(expected = "slot limit")]
    fn full_slab_panics() {
        assert_eq!(new_slot(MAX_SLOTS - 1), MAX_SLOTS - 1);
        new_slot(MAX_SLOTS);
    }

    /// Popped events free their slab slots for reuse: a queue cycling
    /// through a bounded number of pending events stops growing.
    #[test]
    fn slab_slots_are_reused() {
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        for i in 4..1_000u64 {
            q.pop().unwrap();
            q.schedule(SimTime::from_nanos(i), i);
        }
        assert_eq!(q.slab.len(), 4);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn peek_and_len_cover_periodic() {
        let mut q = EventQueue::new();
        q.schedule_periodic(SimTime::from_nanos(8), SimDuration::from_nanos(4), 0u32);
        q.schedule(SimTime::from_nanos(9), 1u32);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(8)));
        assert_eq!(q.peek_heap_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.periodic_time(0), SimTime::from_nanos(8));
        q.pop();
        // The slot re-armed: still two pending events.
        assert_eq!(q.len(), 2);
        assert_eq!(q.periodic_time(0), SimTime::from_nanos(12));
    }
}
