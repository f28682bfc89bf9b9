//! Property tests for the simulation substrate.

use hpl_sim::stats::Summary;
use hpl_sim::{EventQueue, Rng, SimTime};
use proptest::prelude::*;

proptest! {
    /// The event queue pops a total order: non-decreasing time, and FIFO
    /// among equal timestamps.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, _, seq)) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(seq > lseq, "FIFO among ties");
                }
            }
            last = Some((t, seq));
        }
    }

    /// min <= mean <= max and variation >= 0 for any sample.
    #[test]
    fn summary_ordering(xs in proptest::collection::vec(0.001f64..1e6, 1..100)) {
        let s = Summary::from_slice(&xs);
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.variation_pct() >= 0.0);
    }

    /// range_u64 stays in range; below covers [0, n).
    #[test]
    fn rng_ranges(seed in any::<u64>(), lo in 0u64..1000, width in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let hi = lo + width;
        for _ in 0..50 {
            let x = rng.range_u64(lo, hi);
            prop_assert!((lo..=hi).contains(&x));
        }
    }

    /// Identical seeds produce identical streams (any seed).
    #[test]
    fn rng_deterministic(seed in any::<u64>()) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Bounded Pareto stays within its bounds for any valid parameters.
    #[test]
    fn pareto_bounded_in_bounds(
        seed in any::<u64>(),
        alpha in 0.1f64..5.0,
        lo in 0.001f64..10.0,
        span in 0.001f64..100.0
    ) {
        let mut rng = Rng::new(seed);
        let hi = lo + span;
        for _ in 0..20 {
            let x = rng.pareto_bounded(alpha, lo, hi);
            prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-6, "x={x} not in [{lo}, {hi}]");
        }
    }
}
