//! Host-speed calibration. A shared host's speed drifts by a third over
//! minutes as its other tenants come and go, which swamps the
//! differences a benchmark should resolve. The benchmark times this
//! fixed kernel next to every repeat of every case and scales each
//! measured time by `REFERENCE_NS / kernel time`, so its times read as
//! host time on the reference machine at its usual speed.
//!
//! The kernel is the benchmark's own code and calls no library crate,
//! so a change to the simulator cannot move it. It does what the
//! simulator's event loop does most: a binary-heap event queue, random
//! reads and writes of a per-entity state table, and small allocations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference machine (2-vCPU x86-64 VM), ns.
pub const REFERENCE_NS: f64 = 580_000.0;

const QUEUE: u64 = 4096;
const ENTITIES: usize = 1 << 15;
const STEPS: u64 = 5_000;

/// Run the kernel once and return its host time in ns.
pub fn kernel_ns() -> u64 {
    let t0 = Instant::now();
    black_box(kernel(black_box(0x9e37_79b9_7f4a_7c15)));
    t0.elapsed().as_nanos() as u64
}

fn kernel(mut x: u64) -> u64 {
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut state = vec![0u64; ENTITIES];
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = (0..QUEUE)
        .map(|id| Reverse((next() % 1_000_000, id)))
        .collect();
    let mut digest = 0u64;
    for step in 0..STEPS {
        let Reverse((at, id)) = queue.pop().unwrap_or(Reverse((0, 0)));
        let r = next();
        let slot = &mut state[(r as usize ^ id as usize) % ENTITIES];
        *slot = slot.wrapping_add(at ^ r);
        digest = digest.rotate_left(5) ^ *slot;
        if step % 8 == 0 {
            let scratch: Vec<u64> = vec![r; 1 + (r % 32) as usize];
            digest ^= black_box(scratch).iter().sum::<u64>();
        }
        queue.push(Reverse((at + 1 + r % 10_000, id)));
    }
    digest
}
