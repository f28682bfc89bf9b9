//! Property tests for [`EmpiricalDist`] construction and invariants.

use hpl_cluster::{DistError, EmpiricalDist};
use proptest::prelude::*;

proptest! {
    /// Any sample vector containing a non-finite value is rejected with
    /// `DistError::NonFinite`, no matter where the poison sits.
    #[test]
    fn try_new_rejects_non_finite(
        xs in proptest::collection::vec(0.001f64..1e6, 0..50),
        pos in 0usize..50,
        kind in 0u8..3
    ) {
        let poison = match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let mut xs = xs;
        let pos = pos.min(xs.len());
        xs.insert(pos, poison);
        prop_assert_eq!(EmpiricalDist::try_new(xs).unwrap_err(), DistError::NonFinite);
    }

    /// Finite samples always construct, and the resulting distribution
    /// is internally consistent: quantiles are monotone in q and bounded
    /// by the sample extremes.
    #[test]
    fn try_new_accepts_finite_and_orders(
        xs in proptest::collection::vec(-1e9f64..1e9, 1..80),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0
    ) {
        let d = EmpiricalDist::try_new(xs.clone()).expect("finite samples");
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(d.min(), lo);
        let (qa, qb) = (q1.min(q2), q1.max(q2));
        prop_assert!(d.quantile(qa) <= d.quantile(qb) + 1e-12);
        prop_assert!(d.quantile(0.0) == lo && d.quantile(1.0) == hi);
    }
}

/// The error paths are exact: empty input is `Empty` (checked before
/// the finiteness scan), and the `Display` messages are stable.
#[test]
fn try_new_error_paths() {
    assert_eq!(
        EmpiricalDist::try_new(vec![]).unwrap_err(),
        DistError::Empty
    );
    // Empty wins even though there is nothing non-finite to find.
    assert_eq!(
        EmpiricalDist::try_new(Vec::new()).unwrap_err().to_string(),
        "empirical distribution needs samples"
    );
    assert_eq!(
        EmpiricalDist::try_new(vec![f64::NAN])
            .unwrap_err()
            .to_string(),
        "non-finite sample in empirical distribution"
    );
    // A lone zero or negative sample is legal — only NaN/inf are not.
    assert!(EmpiricalDist::try_new(vec![0.0]).is_ok());
    assert!(EmpiricalDist::try_new(vec![-1.0]).is_ok());
}
