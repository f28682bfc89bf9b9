//! Deterministic event queue.
//!
//! A thin wrapper over [`BinaryHeap`] that orders events by `(time, seq)`
//! where `seq` is a monotonically increasing insertion counter. Two events
//! scheduled for the same instant therefore pop in insertion order — the
//! property that makes a whole simulation run a *total* order, reproducible
//! from the RNG seed alone regardless of host platform.
//!
//! Events also carry a generation-friendly [`EventId`] so producers can
//! lazily cancel: rather than removing an entry from the heap (O(n)),
//! callers remember the id of the event they still care about and ignore
//! stale pops. The kernel uses this for compute-completion events that are
//! superseded whenever a task's execution speed changes.

use crate::time::{SimDuration, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Identifier of a scheduled event, unique within one [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// A sentinel id that no real event ever receives.
    pub const NONE: EventId = EventId(u64::MAX);
}

/// Handle to a periodic slot created by [`EventQueue::schedule_periodic`].
///
/// Slots are never removed, so the handle indexes a stable internal array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeriodicId(usize);

impl PeriodicId {
    /// The slot's index (slots are numbered in creation order from 0).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A self-re-arming periodic event: the timer-wheel fast path.
///
/// One slot stands in for an infinite stream of heap entries. The pending
/// occurrence is `(time, seq)`; when it pops, the slot re-arms in place at
/// `time + period` with a freshly allocated `seq`. That allocation order is
/// exactly what an explicit handler-side `schedule(now + period, ...)` as
/// the handler's *last* seq allocation would produce, so converting such a
/// self-re-arming event to a periodic slot preserves the queue's total
/// `(time, seq)` order bit-for-bit.
struct PeriodicSlot<E> {
    time: SimTime,
    seq: u64,
    period: SimDuration,
    payload: E,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties deterministically in FIFO order.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
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
    heap: BinaryHeap<Entry<E>>,
    /// Timer wheel: always-armed periodic slots, merged with the heap on
    /// pop by `(time, seq)`. A handful of slots (one per CPU) replaces the
    /// endless schedule/pop churn of tick events through the heap.
    periodic: Vec<PeriodicSlot<E>>,
    /// Mirror min-heap over the slots' pending occurrences, keyed
    /// `(time, seq, slot)`. Every slot has exactly one entry, refreshed
    /// when its occurrence fires, so the earliest pending occurrence is
    /// an O(1) peek instead of an O(slots) scan — the timer-wheel merge
    /// cost a busy `pop`/`peek_time` pays on every call.
    periodic_order: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            periodic: Vec::new(),
            periodic_order: BinaryHeap::new(),
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
        EventId(seq)
    }

    /// Create a periodic slot firing first at `first`, then every `period`.
    ///
    /// The pending occurrence's seq is allocated here, exactly as
    /// [`schedule`](Self::schedule) would; every subsequent occurrence
    /// allocates its seq when the previous one pops. Slots live for the
    /// queue's whole lifetime (ticks never stop).
    pub fn schedule_periodic(
        &mut self,
        first: SimTime,
        period: SimDuration,
        payload: E,
    ) -> PeriodicId {
        debug_assert!(
            first >= self.now,
            "scheduling periodic event in the past: first={first} now={}",
            self.now
        );
        debug_assert!(!period.is_zero(), "periodic event with zero period");
        let first = first.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.periodic.push(PeriodicSlot {
            time: first,
            seq,
            period,
            payload,
        });
        let idx = self.periodic.len() - 1;
        self.periodic_order.push(Reverse((first, seq, idx)));
        PeriodicId(idx)
    }

    /// Fire the pending occurrence of the slot at the mirror heap's
    /// root: advance `now`, re-arm the slot one period later with a
    /// fresh seq, and refresh its mirror entry. Returns the fired
    /// occurrence as `(time, id, slot index)`.
    fn fire_best_periodic(&mut self) -> (SimTime, EventId, usize) {
        let Reverse((time, seq, i)) = self.periodic_order.pop().expect("a pending occurrence");
        let slot = &mut self.periodic[i];
        debug_assert_eq!(
            (slot.time, slot.seq),
            (time, seq),
            "mirror heap out of sync with slot {i}"
        );
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        slot.time += slot.period;
        slot.seq = self.next_seq;
        self.next_seq += 1;
        self.periodic_order.push(Reverse((slot.time, slot.seq, i)));
        (time, EventId(seq), i)
    }

    /// Pending occurrence time of a periodic slot.
    #[inline]
    pub fn periodic_time(&self, id: PeriodicId) -> SimTime {
        self.periodic[id.0].time
    }

    /// Pop the next event, advancing `now` to its timestamp.
    ///
    /// Merges the heap with the periodic slots under the same total
    /// `(time, seq)` order. A popped periodic occurrence re-arms its slot
    /// in place (see `PeriodicSlot` for why that preserves determinism).
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)>
    where
        E: Clone,
    {
        let take_periodic = match (self.periodic_order.peek(), self.heap.peek()) {
            (Some(&Reverse((t, seq, _))), Some(top)) => (t, seq) < (top.time, top.seq),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_periodic {
            let (time, id, i) = self.fire_best_periodic();
            return Some((time, id, self.periodic[i].payload.clone()));
        }
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        Some((entry.time, EventId(entry.seq), entry.payload))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap_t = self.heap.peek().map(|e| e.time);
        let per_t = self.periodic_order.peek().map(|&Reverse((t, _, _))| t);
        match (heap_t, per_t) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (t, None) | (None, t) => t,
        }
    }

    /// Timestamp of the next pending *heap* event, ignoring periodic
    /// slots. Fast-forward uses this as a batching horizon: everything in
    /// the heap is a real state change, while periodic occurrences below
    /// this time may be provably inert.
    pub fn peek_heap_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Earliest pending periodic occurrence, ignoring the heap. Lets
    /// fast-forward bail out cheaply when no tick precedes the next real
    /// event.
    pub fn peek_periodic_time(&self) -> Option<SimTime> {
        self.periodic_order.peek().map(|&Reverse((t, _, _))| t)
    }

    /// Batch-fire periodic occurrences without popping them one by one.
    ///
    /// Slot `i` fires (and re-arms) while its pending time is strictly
    /// below `horizons[i]`; firings are processed in global `(time, seq)`
    /// order across slots so seq allocation matches what sequential
    /// [`pop`](Self::pop) calls would have produced. `fired[i]` is
    /// incremented per firing of slot `i`; the total is returned.
    ///
    /// `now` advances to each fired occurrence's timestamp, exactly as a
    /// sequence of pops would have moved it — so a caller that reads
    /// `now()` after a batch sees the same clock as the unbatched run.
    ///
    /// When every slot shares one period and the pending occurrences all
    /// fit in a single period-wide window — always true for per-CPU
    /// ticks, which start staggered inside one period and each firing
    /// preserves that spread — the whole batch is computed arithmetically
    /// in O(slots²) instead of O(firings · log slots): the global firing
    /// order is then a fixed round-robin over the slots, so each slot's
    /// firing count, final pending time and final seq have closed forms.
    /// Other configurations take the per-firing merge loop.
    pub fn advance_periodic(&mut self, horizons: &[SimTime], fired: &mut [u64]) -> u64 {
        debug_assert_eq!(horizons.len(), self.periodic.len());
        debug_assert_eq!(fired.len(), self.periodic.len());
        if let Some(total) = self.advance_bulk(horizons, fired) {
            return total;
        }
        self.advance_loop(horizons, fired)
    }

    /// Closed-form batch advance. Returns `None` (leaving the queue
    /// untouched) when the preconditions do not hold: uniform period and
    /// pending-time spread of at most one period.
    fn advance_bulk(&mut self, horizons: &[SimTime], fired: &mut [u64]) -> Option<u64> {
        let first = self.periodic.first()?;
        let period = first.period;
        let (mut lo, mut hi) = (first.time, first.time);
        for s in &self.periodic[1..] {
            if s.period != period {
                return None;
            }
            lo = lo.min(s.time);
            hi = hi.max(s.time);
        }
        if hi - lo > period {
            return None;
        }
        let p = period.as_nanos();
        // Firing count: slot fires at `t + k·p < horizon`, k = 0, 1, …
        let count = |t: SimTime, h: SimTime| -> u64 {
            if t >= h {
                0
            } else {
                (h - t).as_nanos().div_ceil(p)
            }
        };
        let mut total = 0u64;
        let mut last_fire = self.now;
        for (i, s) in self.periodic.iter().enumerate() {
            let n = count(s.time, horizons[i]);
            if n > 0 {
                total += n;
                last_fire = last_fire.max(s.time + period * (n - 1));
            }
        }
        if total == 0 {
            return Some(0);
        }
        // Because the spread is within one period, firings round-robin
        // through the slots in their pending `(time, seq)` order (at an
        // exact time tie the later-phased slot still carries the older —
        // smaller — seq, so the round order is stable). Each firing's
        // re-arm draws the next global seq, so slot i's final seq is
        // `base + (firings strictly before its last fire)`: its own
        // `n_i − 1` earlier rounds, plus `min(n_j, n_i)` from every slot
        // ordered before it in the round and `min(n_j, n_i − 1)` from
        // every slot after it.
        let base = self.next_seq;
        self.periodic_order.clear();
        for (i, s) in self.periodic.iter().enumerate() {
            let n_i = count(s.time, horizons[i]);
            if n_i == 0 {
                self.periodic_order.push(Reverse((s.time, s.seq, i)));
                continue;
            }
            let mut before = n_i - 1;
            for (j, o) in self.periodic.iter().enumerate() {
                if j == i {
                    continue;
                }
                let n_j = count(o.time, horizons[j]);
                before += if (o.time, o.seq) < (s.time, s.seq) {
                    n_j.min(n_i)
                } else {
                    n_j.min(n_i - 1)
                };
            }
            self.periodic_order
                .push(Reverse((s.time + period * n_i, base + before, i)));
            fired[i] += n_i;
        }
        // The rebuilt mirror holds every slot's new pending occurrence;
        // write the slots back from it.
        let (order, slots) = (&self.periodic_order, &mut self.periodic);
        for &Reverse((t, seq, i)) in order.iter() {
            slots[i].time = t;
            slots[i].seq = seq;
        }
        self.next_seq = base + total;
        self.now = last_fire;
        Some(total)
    }

    /// Per-firing batch advance: pops the mirror heap one occurrence at
    /// a time, in global `(time, seq)` order, for configurations the
    /// closed form does not cover. A slot whose occurrence fails its
    /// horizon stays failed for the whole call (its pending time only
    /// moves *up* when it fires, which it will not), so it is parked
    /// aside once and restored when the batch is done.
    fn advance_loop(&mut self, horizons: &[SimTime], fired: &mut [u64]) -> u64 {
        let mut total = 0u64;
        let mut parked: Vec<Reverse<(SimTime, u64, usize)>> = Vec::new();
        while let Some(&Reverse((t, _, i))) = self.periodic_order.peek() {
            if t >= horizons[i] {
                parked.push(self.periodic_order.pop().expect("peeked"));
                continue;
            }
            let (_, _, i) = self.fire_best_periodic();
            fired[i] += 1;
            total += 1;
        }
        for entry in parked {
            self.periodic_order.push(entry);
        }
        total
    }

    /// Drop all pending events (used when a run terminates early).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.periodic.clear();
        self.periodic_order.clear();
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
        assert_ne!(a, EventId::NONE);
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

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), ());
        q.clear();
        assert!(q.pop().is_none());
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
        let horizons = [SimTime::from_nanos(47), SimTime::from_nanos(47)];
        let mut fired = [0u64; 2];
        let total = batched.advance_periodic(&horizons, &mut fired);
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

    /// Per-slot horizons cap each slot independently while keeping the
    /// global merge order for seq allocation.
    #[test]
    fn advance_periodic_per_slot_horizons() {
        let period = SimDuration::from_nanos(10);
        let mut q = EventQueue::new();
        q.schedule_periodic(SimTime::from_nanos(10), period, "t0");
        q.schedule_periodic(SimTime::from_nanos(15), period, "t1");
        q.schedule(SimTime::from_nanos(47), "stop");
        let horizons = [SimTime::from_nanos(47), SimTime::from_nanos(40)];
        let mut fired = [0u64; 2];
        let total = q.advance_periodic(&horizons, &mut fired);
        assert_eq!(fired, [4, 3]); // t0: 10,20,30,40  t1: 15,25,35
        assert_eq!(total, 7);
        // t1's pending occurrence at 45 was left for a normal pop; it
        // precedes the heap event at 47 and the re-armed t0 at 50.
        let order: Vec<_> = (0..4).map(|_| q.pop().unwrap()).collect();
        let times: Vec<_> = order.iter().map(|e| e.0.as_nanos()).collect();
        let what: Vec<_> = order.iter().map(|e| e.2).collect();
        assert_eq!(times, vec![45, 47, 50, 55]);
        assert_eq!(what, vec!["t1", "stop", "t0", "t1"]);
    }

    /// The closed-form bulk advance and the per-firing merge loop must
    /// leave byte-identical queues: same firing counts, same clock, same
    /// seq allocation, same continuation stream. A seeded LCG explores
    /// phase ties, full-period spreads and ragged per-slot horizons.
    #[test]
    fn bulk_advance_matches_firing_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let p = 10u64;
        for round in 0..300 {
            let nslots = 1 + (rng() % 6) as usize;
            let mut bulk = EventQueue::new();
            let mut looped = EventQueue::new();
            for i in 0..nslots {
                // Offsets in [0, p] inclusive: phase ties and the exact
                // one-period spread are both legal bulk inputs.
                let first = SimTime::from_nanos(rng() % (p + 1));
                for q in [&mut bulk, &mut looped] {
                    q.schedule_periodic(first, SimDuration::from_nanos(p), i);
                }
            }
            // One shared horizon, sometimes capped at a random subset's
            // pending occurrences — the shape the kernel produces when
            // non-quiescent CPUs freeze their tick slots. (A horizon
            // that fires one slot past another's remaining occurrence
            // would run the queue backwards on the next pop, so fully
            // independent per-slot horizons are not a legal input.)
            let mut h = SimTime::from_nanos(rng() % (6 * p));
            for i in 0..nslots {
                if rng() % 4 == 0 {
                    h = h.min(bulk.periodic_time(PeriodicId(i)));
                }
            }
            let horizons = vec![h; nslots];
            let mut fired_bulk = vec![0u64; nslots];
            let mut fired_loop = vec![0u64; nslots];
            let tb = bulk
                .advance_bulk(&horizons, &mut fired_bulk)
                .expect("uniform period within one spread takes the closed form");
            let tl = looped.advance_loop(&horizons, &mut fired_loop);
            assert_eq!(tb, tl, "round {round}: firing totals diverged");
            assert_eq!(fired_bulk, fired_loop, "round {round}: per-slot counts");
            assert_eq!(bulk.now(), looped.now(), "round {round}: clock");
            for step in 0..4 * nslots {
                assert_eq!(
                    bulk.pop(),
                    looped.pop(),
                    "round {round}: continuation diverged at pop {step}"
                );
            }
        }
    }

    /// Configurations outside the closed form — mixed periods, or slots
    /// drifted more than one period apart — fall back to the firing
    /// loop inside `advance_periodic` and stay exact.
    #[test]
    fn bulk_advance_declines_nonuniform_configurations() {
        let mut q = EventQueue::new();
        q.schedule_periodic(SimTime::from_nanos(0), SimDuration::from_nanos(10), "a");
        q.schedule_periodic(SimTime::from_nanos(25), SimDuration::from_nanos(10), "b");
        let horizons = [SimTime::from_nanos(40); 2];
        let mut fired = [0u64; 2];
        assert!(q.advance_bulk(&horizons, &mut fired).is_none());
        let total = q.advance_periodic(&horizons, &mut fired);
        assert_eq!(fired, [4, 2]); // a: 0,10,20,30  b: 25,35
        assert_eq!(total, 6);

        let mut q = EventQueue::new();
        q.schedule_periodic(SimTime::from_nanos(0), SimDuration::from_nanos(10), "a");
        q.schedule_periodic(SimTime::from_nanos(5), SimDuration::from_nanos(7), "b");
        let mut fired = [0u64; 2];
        assert!(q.advance_bulk(&horizons, &mut fired).is_none());
        let total = q.advance_periodic(&horizons, &mut fired);
        assert_eq!(fired, [4, 5]); // a: 0,10,20,30  b: 5,12,19,26,33
        assert_eq!(total, 9);
    }

    #[test]
    fn peek_and_len_cover_periodic() {
        let mut q = EventQueue::new();
        let id = q.schedule_periodic(SimTime::from_nanos(8), SimDuration::from_nanos(4), 0u32);
        q.schedule(SimTime::from_nanos(9), 1u32);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(8)));
        assert_eq!(q.peek_heap_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.periodic_time(id), SimTime::from_nanos(8));
        q.pop();
        // The slot re-armed: still two pending events.
        assert_eq!(q.len(), 2);
        assert_eq!(q.periodic_time(id), SimTime::from_nanos(12));
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
