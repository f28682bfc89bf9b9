//! Steady-state event dispatch allocates nothing.
//!
//! A counting global allocator tallies the heap allocations each test
//! thread makes. Each scenario first runs a warm-up window of
//! [`WINDOW`] dispatched events, in which queues, slabs, wake buffers
//! and scratch vectors grow to their working size, and then must
//! dispatch at least as many events again without a single allocation.
//!
//! Release builds only: debug builds re-derive load views and other
//! consistency checks on the hot path, and those allocate.

use hpl::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the only extra
// work is bumping a const-initialised thread-local counter, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Dispatched events per window: the warm-up window and the measured
/// window that follows it.
const WINDOW: u64 = 50_000;

/// Drive `sys` one `step` at a time through a warm-up window of
/// [`WINDOW`] events and a measured window of at least as many more.
/// Returns `(allocations, events)` of the measured window. Panics if
/// the work runs out before both windows are full.
fn measure<T>(sys: &mut T, step: fn(&mut T) -> bool, events: fn(&T) -> u64) -> (u64, u64) {
    let start = events(sys);
    while events(sys) - start < WINDOW {
        assert!(step(sys), "work ran out during the warm-up window");
    }
    let (a0, e0) = (allocs(), events(sys));
    while events(sys) - e0 < WINDOW {
        assert!(step(sys), "work ran out during the measured window");
    }
    (allocs() - a0, events(sys) - e0)
}

/// Two HPL nodes in lockstep running a bulk-synchronous loop: compute
/// phases separated by an 8-byte Allreduce that crosses the fabric.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug hot-path checks allocate")]
fn two_node_allreduce_loop_dispatches_without_allocating() {
    let mut cluster = Cluster::builder()
        .nodes_with(2, |i| {
            hpl_node_builder(Topology::smp(2))
                .with_noise(NoiseProfile::standard(2))
                .with_seed(Rng::for_run(26, i as u64).next_u64())
                .build()
        })
        .fabric(Interconnect::flat(2, NetConfig::default()))
        .cosim(CosimConfig::serial().with_threads(1))
        .build();
    for i in 0..2 {
        cluster.node_mut(i).run_for(SimDuration::from_millis(50));
    }
    let job = JobSpec::new(
        4,
        JobSpec::repeat(
            20_000,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_micros(200),
                },
                MpiOp::Allreduce { bytes: 8 },
            ],
        ),
    )
    .with_nodes(2);
    let handle = cluster.launch(&job, SchedMode::Hpc, Placement::All);
    let (n, events) = measure(
        &mut cluster,
        Cluster::step_window,
        Cluster::events_dispatched,
    );
    assert!(
        !cluster.job_done(&handle),
        "the loop must outlast both windows"
    );
    assert_eq!(n, 0, "{n} allocations over {events} steady-state events");
}

/// NAS cg.A on 8 ranks under the HPL class on the paper's POWER6 node,
/// its iteration body repeated so the run outlasts both windows.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug hot-path checks allocate")]
fn cg_a_8_under_hpl_dispatches_without_allocating() {
    let mut node = hpl_node_builder(Topology::power6_js22())
        .with_noise(NoiseProfile::standard(8))
        .with_seed(26)
        .build();
    node.run_for(SimDuration::from_millis(300));
    let mut job = nas_job(NasBenchmark::Cg, NasClass::A, 8);
    job.ops = JobSpec::repeat(20, &job.ops);
    let handle = launch(&mut node, &job, SchedMode::Hpc);
    let (n, events) = measure(&mut node, Node::step, Node::events_processed);
    assert!(
        handle.try_run_to_completion(&mut node, 100_000_000).is_ok(),
        "the job completes"
    );
    assert_eq!(n, 0, "{n} allocations over {events} steady-state events");
}
