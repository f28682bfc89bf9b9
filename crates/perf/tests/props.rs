//! Property tests for the perf metrics primitives.

use hpl_perf::Log2Hist;
use proptest::prelude::*;

proptest! {
    /// Bucket ranges tile the u64 axis: each bucket's hi is the next
    /// bucket's lo, lo < hi everywhere, and every recorded sample lands
    /// in the one bucket whose range contains it.
    #[test]
    fn log2hist_bucket_monotonicity(vs in proptest::collection::vec(0u64..u64::MAX, 1..200)) {
        for i in 0..64 {
            let (lo, hi) = Log2Hist::bucket_range(i);
            let (next_lo, _) = Log2Hist::bucket_range(i + 1);
            prop_assert!(lo < hi, "bucket {} empty: [{}, {})", i, lo, hi);
            prop_assert_eq!(hi, next_lo, "gap between buckets {} and {}", i, i + 1);
        }
        let mut h = Log2Hist::new();
        for &v in &vs {
            h.record(v);
        }
        prop_assert_eq!(h.count(), vs.len() as u64);
        prop_assert_eq!(h.buckets().iter().sum::<u64>(), vs.len() as u64);
        for (i, &c) in h.buckets().iter().enumerate() {
            let (lo, hi) = Log2Hist::bucket_range(i);
            let expect = vs
                .iter()
                .filter(|&&v| v >= lo && (v < hi || (i == 64 && v == u64::MAX)))
                .count() as u64;
            prop_assert_eq!(c, expect, "bucket {} [{}, {})", i, lo, hi);
        }
    }

    /// Merging two histograms is identical to recording the
    /// concatenation of their samples, for every split point.
    #[test]
    fn log2hist_merge_equals_sum(
        vs in proptest::collection::vec(0u64..u64::MAX / 2, 0..200),
        split in 0usize..200
    ) {
        let split = split.min(vs.len());
        let mut bulk = Log2Hist::new();
        for &v in &vs {
            bulk.record(v);
        }
        let mut a = Log2Hist::new();
        for &v in &vs[..split] {
            a.record(v);
        }
        let mut b = Log2Hist::new();
        for &v in &vs[split..] {
            b.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &bulk);
    }
}

/// An empty histogram reports empty everything.
#[test]
fn log2hist_empty() {
    let h = Log2Hist::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.min(), None);
    assert_eq!(h.max(), None);
    assert_eq!(h.mean(), None);
}
