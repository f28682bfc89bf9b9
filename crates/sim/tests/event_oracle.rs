//! Differential oracle for [`hpl_sim::EventQueue`].
//!
//! `model` is the straightforward queue the library's fast one must
//! match: a `BinaryHeap` of whole `(time, seq, payload)` entries plus
//! periodic slots merged through a mirror heap of `(time, seq, slot)`
//! tuples, which fires one occurrence at a time, in a batch too. So
//! the library's closed-form batch is checked against firings one by
//! one, not against a copy of itself. Seeded random interleavings drive
//! both with the same operations, and every returned
//! `(time, EventId, payload)`, every peek and every `now()` must agree.
//!
//! A second oracle checks what [`EventQueue::rearm`] is for: a queue
//! that arms events at lower bounds of their instants and re-arms each
//! when its bound pops must pop, bounds aside, exactly the stream of a
//! queue that scheduled every event at its final instant from the start.

use hpl_sim::event::EventId;
use hpl_sim::{EventQueue, SimDuration, SimTime};

mod model {
    use hpl_sim::{SimDuration, SimTime};
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

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
            // Max-heap inverted: the earliest (time, seq) pops first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The reference queue. Event ids are the raw `seq` numbers.
    pub struct Queue<E> {
        heap: BinaryHeap<Entry<E>>,
        periodic: Vec<PeriodicSlot<E>>,
        periodic_order: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
        next_seq: u64,
        now: SimTime,
    }

    impl<E: Clone> Queue<E> {
        pub fn new() -> Self {
            Queue {
                heap: BinaryHeap::new(),
                periodic: Vec::new(),
                periodic_order: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn len(&self) -> usize {
            self.heap.len() + self.periodic.len()
        }

        pub fn is_empty(&self) -> bool {
            self.heap.is_empty() && self.periodic.is_empty()
        }

        pub fn slots(&self) -> usize {
            self.periodic.len()
        }

        pub fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                time: at,
                seq,
                payload,
            });
            seq
        }

        pub fn rearm(&mut self, seq: u64, at: SimTime, payload: E) {
            assert!(at >= self.now && seq < self.next_seq);
            self.heap.push(Entry {
                time: at,
                seq,
                payload,
            });
        }

        pub fn schedule_periodic(
            &mut self,
            first: SimTime,
            period: SimDuration,
            payload: E,
        ) -> usize {
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
            idx
        }

        fn fire_best_periodic(&mut self) -> (SimTime, u64, usize) {
            let Reverse((time, seq, i)) = self.periodic_order.pop().expect("pending");
            let slot = &mut self.periodic[i];
            assert_eq!((slot.time, slot.seq), (time, seq));
            self.now = time;
            slot.time += slot.period;
            slot.seq = self.next_seq;
            self.next_seq += 1;
            self.periodic_order.push(Reverse((slot.time, slot.seq, i)));
            (time, seq, i)
        }

        pub fn periodic_time(&self, i: usize) -> SimTime {
            self.periodic[i].time
        }

        pub fn payload(&self, i: usize) -> &E {
            &self.periodic[i].payload
        }

        pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
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
            self.now = entry.time;
            Some((entry.time, entry.seq, entry.payload))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            let heap_t = self.heap.peek().map(|e| e.time);
            let per_t = self.periodic_order.peek().map(|&Reverse((t, _, _))| t);
            match (heap_t, per_t) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (t, None) | (None, t) => t,
            }
        }

        pub fn peek_heap_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        pub fn peek_periodic_time(&self) -> Option<SimTime> {
            self.periodic_order.peek().map(|&Reverse((t, _, _))| t)
        }

        pub fn advance_periodic(&mut self, horizon: SimTime, fired: &mut [u64]) -> u64 {
            assert_eq!(fired.len(), self.periodic.len());
            let mut total = 0u64;
            while self.peek_periodic_time().is_some_and(|t| t < horizon) {
                let (_, _, i) = self.fire_best_periodic();
                fired[i] += 1;
                total += 1;
            }
            total
        }
    }
}

/// SplitMix64: a self-contained stream so the oracle does not depend
/// on the crate it checks.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const OPS_PER_SEED: usize = 20_000;
const MAX_SLOTS: usize = 8;

fn id_of(id: EventId) -> String {
    format!("{id:?}")
}

fn model_id(seq: u64) -> String {
    format!("EventId({seq})")
}

/// A delay from `now`: exact ties, near-ties, short and long gaps.
fn delay(rng: &mut Mix) -> u64 {
    match rng.below(8) {
        0 | 1 => 0,
        2..=4 => rng.below(20),
        5 | 6 => rng.below(1_000),
        _ => rng.below(10_000_000),
    }
}

/// Create the timer wheel on both queues: one to `MAX_SLOTS` slots of
/// one period, in time order, at offsets in `[0, period]` from a common
/// base, so phase ties and the exact one-period spread both occur.
fn arm_uniform(
    q: &mut EventQueue<u64>,
    m: &mut model::Queue<u64>,
    rng: &mut Mix,
    payload: &mut u64,
) {
    let period = 1 + rng.below(200);
    let base = q.now().as_nanos() + rng.below(50);
    let mut offsets: Vec<u64> = (0..1 + rng.below(MAX_SLOTS as u64))
        .map(|_| rng.below(period + 1))
        .collect();
    offsets.sort_unstable();
    for offset in offsets {
        let first = SimTime::from_nanos(base + offset);
        let p = SimDuration::from_nanos(period);
        *payload += 1;
        q.schedule_periodic(first, p, *payload);
        m.schedule_periodic(first, p, *payload);
    }
}

fn run_seed(seed: u64, start: u64) {
    let mut rng = Mix(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut m: model::Queue<u64> = model::Queue::new();
    let mut payload = 0u64;
    // Move both clocks to `start` so large timestamps are exercised.
    q.schedule(SimTime::from_nanos(start), 0);
    m.schedule(SimTime::from_nanos(start), 0);
    assert_eq!(
        q.pop().map(|(t, id, p)| (t, id_of(id), p)),
        m.pop().map(|(t, s, p)| (t, model_id(s), p))
    );
    arm_uniform(&mut q, &mut m, &mut rng, &mut payload);
    let mut fired_q = Vec::new();
    let mut fired_m = Vec::new();
    // Periodic slots re-arm themselves when they pop.
    let is_periodic = |m: &model::Queue<u64>, p: u64| (0..m.slots()).any(|i| *m.payload(i) == p);
    for op in 0..OPS_PER_SEED {
        let ctx = format!("seed {seed:#x} op {op}");
        match rng.below(100) {
            0..=39 => {
                let at = SimTime::from_nanos(q.now().as_nanos() + delay(&mut rng));
                payload += 1;
                let a = q.schedule(at, payload);
                let b = m.schedule(at, payload);
                assert_eq!(id_of(a), model_id(b), "{ctx}: schedule id");
            }
            40..=79 => {
                let a = q.pop();
                let b = m.pop();
                assert_eq!(
                    a.map(|(t, id, p)| (t, id_of(id), p)),
                    b.map(|(t, s, p)| (t, model_id(s), p)),
                    "{ctx}: pop"
                );
                // Now and then put a popped heap event back, at once or
                // later, under its own sequence number.
                if let (Some((_, id, p)), Some((_, seq, _))) = (a, b) {
                    if rng.below(4) == 0 && !is_periodic(&m, p) {
                        let at = SimTime::from_nanos(q.now().as_nanos() + delay(&mut rng));
                        q.rearm(id, at, p);
                        m.rearm(seq, at, p);
                    }
                }
            }
            80..=94 => {
                // Batch-advance the ticks up to (never past) the next
                // heap event, as the kernel's fast-forward does; the
                // horizon sometimes lands exactly on a pending tick.
                let heap_t = m.peek_heap_time().unwrap_or(SimTime::MAX);
                let mut h =
                    SimTime::from_nanos(q.now().as_nanos().saturating_add(rng.below(5_000)));
                if m.slots() > 0 && rng.below(3) == 0 {
                    let i = rng.below(m.slots() as u64) as usize;
                    h = m.periodic_time(i);
                    assert_eq!(q.periodic_time(i), h, "{ctx}: periodic_time");
                }
                let h = h.min(heap_t);
                fired_q.clear();
                fired_q.resize(m.slots(), 0);
                fired_m.clear();
                fired_m.resize(m.slots(), 0);
                let a = q.advance_periodic(h, &mut fired_q);
                let b = m.advance_periodic(h, &mut fired_m);
                assert_eq!(a, b, "{ctx}: advance total");
                assert_eq!(fired_q, fired_m, "{ctx}: advance per slot");
            }
            _ => {}
        }
        assert_eq!(q.now(), m.now(), "{ctx}: now");
        assert_eq!(q.len(), m.len(), "{ctx}: len");
        assert_eq!(q.is_empty(), m.is_empty(), "{ctx}: is_empty");
        assert_eq!(q.peek_time(), m.peek_time(), "{ctx}: peek_time");
        assert_eq!(
            q.peek_heap_time(),
            m.peek_heap_time(),
            "{ctx}: peek_heap_time"
        );
        assert_eq!(
            q.peek_periodic_time(),
            m.peek_periodic_time(),
            "{ctx}: peek_periodic_time"
        );
    }
    // Drain: the whole remaining stream agrees.
    for step in 0..10_000 {
        let a = q.pop().map(|(t, id, p)| (t, id_of(id), p));
        let b = m.pop().map(|(t, s, p)| (t, model_id(s), p));
        assert_eq!(a, b, "seed {seed:#x}: drain step {step}");
        if b.is_none() {
            break;
        }
    }
}

#[test]
fn uniform_ticks_agree_with_the_model() {
    for seed in 0..16u64 {
        run_seed(0x51AB_0000 + seed, seed * 1_000);
    }
}

/// Clocks far from zero: timestamps near the top of the `u64` range
/// still order exactly as the model does.
#[test]
fn large_timestamps_agree_with_the_model() {
    run_seed(0xB16_71DE, 1 << 62);
    run_seed(0xB16_71DF, (1 << 63) + 12_345);
}

/// Drive two queues through the same handler: `exact` schedules each
/// event at its due instant, `bounded` at a seeded lower bound of it
/// and, when that bound pops early, re-arms the event at its due
/// instant. Handlers run on every pop but a bound's, drawing their
/// choices from the popped event alone, and both queues carry the same
/// periodic ticks, which draw sequence numbers of their own as they
/// fire. Bounds aside, both must pop the same `(time, id, payload)`
/// stream: same-instant ties included, since many delays are zero or a
/// few nanoseconds.
fn bounded_matches_exact(seed: u64) {
    const TICKS: u64 = 3;
    const POPS: usize = 20_000;
    let mut rng = Mix(seed);
    let mut exact: EventQueue<u64> = EventQueue::new();
    let mut bounded: EventQueue<u64> = EventQueue::new();
    // Payloads below `TICKS` are ticks; event `p` is due at `due[p]`.
    let mut due = vec![SimTime::ZERO; TICKS as usize];
    let period = SimDuration::from_nanos(50 + rng.below(100));
    let mut firsts: Vec<u64> = (0..TICKS).map(|_| rng.below(period.as_nanos())).collect();
    firsts.sort_unstable();
    for (tick, first) in (0..TICKS).zip(firsts) {
        let first = SimTime::from_nanos(first);
        exact.schedule_periodic(first, period, tick);
        bounded.schedule_periodic(first, period, tick);
    }
    let handle = |exact: &mut EventQueue<u64>,
                  bounded: &mut EventQueue<u64>,
                  due: &mut Vec<SimTime>,
                  p: u64| {
        let now = exact.now().as_nanos();
        let mut r = Mix(seed ^ p.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ now);
        let spawned = if p < TICKS { r.below(2) } else { r.below(3) };
        for _ in 0..spawned {
            let at = now + delay(&mut r);
            let bound = match r.below(4) {
                0 => at,
                1 => now,
                _ => now + r.below(at - now + 1),
            };
            let payload = due.len() as u64;
            due.push(SimTime::from_nanos(at));
            let a = exact.schedule(SimTime::from_nanos(at), payload);
            let b = bounded.schedule(SimTime::from_nanos(bound), payload);
            assert_eq!(a, b, "seed {seed:#x}: ids drawn apart");
        }
    };
    for _ in 0..4 {
        let now = exact.now();
        handle(&mut exact, &mut bounded, &mut due, TICKS + rng.below(1_000));
        assert_eq!(bounded.now(), now);
    }
    let mut rearmed = 0;
    for step in 0..POPS {
        let want = exact.pop().expect("ticks never run out");
        let got = loop {
            let (t, id, p) = bounded.pop().expect("ticks never run out");
            if p >= TICKS && t < due[p as usize] {
                bounded.rearm(id, due[p as usize], p);
                rearmed += 1;
                continue;
            }
            break (t, id, p);
        };
        assert_eq!(got, want, "seed {seed:#x}: pop {step}");
        assert_eq!(bounded.now(), exact.now(), "seed {seed:#x}: pop {step}");
        handle(&mut exact, &mut bounded, &mut due, want.2);
    }
    assert!(
        rearmed > POPS / 20,
        "seed {seed:#x}: only {rearmed} re-arms"
    );
}

#[test]
fn rearmed_bounds_pop_as_if_scheduled_at_their_due_instants() {
    for seed in 0..8u64 {
        bounded_matches_exact(0x8E_A12D_0000 + seed);
    }
}
