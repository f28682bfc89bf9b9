//! Property tests for the event ring, its Gantt renderer and episode
//! reconstruction: invariants that must hold for arbitrary (well-formed)
//! switch sequences.

use hpl_kernel::analysis::TraceAnalysis;
use hpl_kernel::{Pid, RingSink, SchedEvent, SchedObserver};
use hpl_sim::SimTime;
use hpl_topology::CpuId;
use proptest::prelude::*;

/// Generate a well-formed switch history for one CPU: alternating
/// occupants (None = idle) at strictly increasing times.
fn history_strategy() -> impl Strategy<Value = Vec<(u64, Option<u32>)>> {
    proptest::collection::vec((1u64..50, proptest::option::of(0u32..6)), 0..40).prop_map(|steps| {
        let mut t = 0u64;
        let mut out = Vec::new();
        let mut curr: Option<u32> = None;
        for (dt, next) in steps {
            t += dt;
            if next != curr {
                out.push((t, next));
                curr = next;
            }
        }
        out
    })
}

fn build_trace(history: &[(u64, Option<u32>)]) -> RingSink {
    let mut b = RingSink::new(10_000);
    let mut curr: Option<u32> = None;
    for &(t, next) in history {
        b.observe(
            SimTime::from_nanos(t),
            &SchedEvent::Switch {
                cpu: CpuId(0),
                from: curr.map(Pid),
                to: next.map(Pid),
            },
        );
        curr = next;
    }
    b
}

proptest! {
    /// Every Gantt row has exactly `width` cells regardless of history,
    /// and cells only show glyphs of tasks that appear in the history.
    #[test]
    fn gantt_rows_are_rectangular(history in history_strategy(), width in 1usize..80) {
        let b = build_trace(&history);
        let end = history.last().map(|&(t, _)| t + 10).unwrap_or(100);
        let g = b.gantt(1, SimTime::ZERO, SimTime::from_nanos(end), width, |p| {
            char::from_digit(p.0 % 10, 10).unwrap()
        });
        let row = g.lines().next().unwrap();
        let body = row
            .trim_start_matches("cpu0 |")
            .trim_end_matches('|');
        prop_assert_eq!(body.chars().count(), width, "row: {}", row);
        for ch in body.chars() {
            prop_assert!(ch == '.' || ch.is_ascii_digit());
        }
    }

    /// Episode reconstruction invariants: every preemption's stolen time
    /// is positive and within the window; victims and intruders differ;
    /// total residency never exceeds the window.
    #[test]
    fn analysis_invariants(history in history_strategy()) {
        let b = build_trace(&history);
        let end = history.last().map(|&(t, _)| t + 10).unwrap_or(100);
        let window_end = SimTime::from_nanos(end);
        let a = TraceAnalysis::analyse(b.events(), 1, SimTime::ZERO, window_end);
        for p in &a.preemptions {
            prop_assert!(p.stolen.as_nanos() > 0);
            prop_assert!(p.stolen.as_nanos() <= end);
            prop_assert!(p.victim != p.intruder);
        }
        let total: u64 = a.residency.iter().map(|r| r.running.as_nanos()).sum();
        prop_assert!(total <= end, "residency {total} > window {end}");
        // On one CPU the number of preemption episodes is bounded by the
        // number of switch events.
        prop_assert!(a.preemptions.len() <= history.len());
    }

    /// The ring never exceeds its capacity, keeps the head in order and
    /// counts drops exactly.
    #[test]
    fn ring_respects_capacity(n in 0usize..100, cap in 1usize..50) {
        let mut b = RingSink::new(cap);
        for i in 0..n {
            b.observe(
                SimTime::from_nanos(i as u64),
                &SchedEvent::Wakeup { pid: Pid(i as u32), cpu: CpuId(0) },
            );
        }
        prop_assert_eq!(b.events().len(), n.min(cap));
        for (i, &(at, ev)) in b.events().iter().enumerate() {
            prop_assert_eq!(at, SimTime::from_nanos(i as u64));
            prop_assert_eq!(ev, SchedEvent::Wakeup { pid: Pid(i as u32), cpu: CpuId(0) });
        }
        prop_assert_eq!(b.dropped() as usize, n.saturating_sub(cap));
    }
}
