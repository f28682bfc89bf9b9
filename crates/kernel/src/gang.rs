//! Weighted proportional-share gang slicing — the pure math.
//!
//! PR 9's gang rotation gives every co-resident gang the same
//! whole-epoch slice: `active = sorted_gangs[(t / epoch) % count]`.
//! That realises a DFRS *placement* but not a DFRS *share* — a 750/250
//! milli-CPU split still rotates 500/500. This module generalises the
//! rotation to weighted slices while keeping its two defining
//! properties:
//!
//! 1. **Pure function of the shared virtual clock.** The schedule is
//!    derived from `(t, epoch, sorted gang set, share table)` alone —
//!    no per-node phase state — so lockstep co-simulated nodes that
//!    host the same gangs with the same shares switch the same gang in
//!    the same window without exchanging messages.
//! 2. **Exact integer budgets.** One rotation *period* spans
//!    `count × epoch` nanoseconds (so the mean slice stays one epoch).
//!    Gang `i` gets `floor(period · wᵢ / Σw)` ns; the remainder —
//!    provably `< count` ns — is handed out one nanosecond at a time,
//!    rotating the first recipient by the period index exactly like the
//!    DFRS remainder rotation in `hpl-batch`, so no gang is
//!    systematically favoured and every period conserves the budget
//!    *exactly*: slices always sum to `count × epoch`.
//!
//! With equal shares every slice is exactly `epoch` and the remainder
//! is zero, so slice boundaries land on epoch multiples and the active
//! index degenerates to `(t / epoch) % count` — the equal rotation.
//! `node.rs` has no other rotation: an empty share table weighs every
//! gang 1000, and this identity is what keeps share-free runs on the
//! equal rotation (`equal_shares_degenerate_to_legacy_rotation` pins
//! it).
//!
//! `hpl-coord`'s user-space arbiter reuses these functions for its
//! lease schedule, which is what makes the kernel-weighted and
//! user-space-coordinated backends comparable slice-for-slice.

use std::borrow::Borrow;

/// One gang's slice of a rotation period: `(gang id, slice length ns)`.
pub type GangSlice = (u64, u64);

/// Split one rotation period (`epoch_ns × gangs.len()` nanoseconds)
/// into per-gang slices proportional to the given shares.
///
/// `gangs` must be sorted by gang id (the iteration order of the
/// node's `BTreeMap`) and every share must be non-zero. `period_idx`
/// rotates the remainder distribution. The returned slices are in gang
/// order and sum to the period exactly.
pub fn weighted_slices(epoch_ns: u64, gangs: &[(u64, u32)], period_idx: u64) -> Vec<GangSlice> {
    slices(epoch_ns, gangs.iter().copied(), period_idx).collect()
}

/// [`weighted_slices`] without the vector: the slices in gang order,
/// computed on the fly from three passes over `gangs` (count and total
/// weight, floored slices, then the walk that adds the remainder).
fn slices<I>(epoch_ns: u64, gangs: I, period_idx: u64) -> impl Iterator<Item = GangSlice>
where
    I: Iterator<Item = (u64, u32)> + Clone,
{
    let k = gangs.clone().count() as u64;
    assert!(k > 0, "weighted_slices with no gangs");
    debug_assert!(
        gangs
            .clone()
            .zip(gangs.clone().skip(1))
            .all(|(a, b)| a.0 < b.0),
        "gangs unsorted"
    );
    let period = epoch_ns
        .checked_mul(k)
        .expect("rotation period overflows u64");
    let total: u64 = gangs.clone().map(|(_, s)| u64::from(s.max(1))).sum();
    let floor =
        move |share: u32| ((period as u128 * u128::from(share.max(1))) / u128::from(total)) as u64;
    let used: u64 = gangs.clone().map(|(_, s)| floor(s)).sum();
    // Remainder < k: flooring k terms loses < 1 each. It is handed out
    // one nanosecond per gang to the `rem` gangs starting at a
    // period-rotated index, the same rule Dfrs::shares_for_weighted
    // uses for its milli-CPU remainder.
    let rem = period - used;
    debug_assert!(rem < k);
    let start = period_idx % k;
    gangs.enumerate().map(move |(i, (g, share))| {
        let extra = u64::from((i as u64 + k - start) % k < rem);
        (g, floor(share) + extra)
    })
}

/// The active gang at virtual time `now_ns` and the absolute time of
/// the next slice boundary, under weighted slicing.
///
/// `gangs` lists `(gang id, share)` sorted by gang id, as a slice or any
/// cloneable iterator; nothing is allocated. Walks the current period's
/// slice table; zero-length slices (a share so small it floors to
/// nothing this period) are skipped — their gang waits for a period
/// whose remainder rotation reaches it.
pub fn active_at<I>(now_ns: u64, epoch_ns: u64, gangs: I) -> (u64, u64)
where
    I: IntoIterator,
    I::IntoIter: Clone,
    I::Item: Borrow<(u64, u32)>,
{
    let gangs = gangs.into_iter().map(|g| *g.borrow());
    let k = gangs.clone().count() as u64;
    let period = epoch_ns * k;
    let period_idx = now_ns / period;
    let period_start = period_idx * period;
    let off = now_ns - period_start;
    let mut cum = 0u64;
    for (g, slice) in slices(epoch_ns, gangs, period_idx) {
        if off < cum + slice {
            return (g, period_start + cum + slice);
        }
        cum += slice;
    }
    unreachable!("offset {off} outside period {period}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_shares_degenerate_to_legacy_rotation() {
        let gangs = [(10u64, 500u32), (20, 500), (30, 500)];
        let epoch = 1_000u64;
        for idx in 0..5 {
            let slices = weighted_slices(epoch, &gangs, idx);
            assert_eq!(slices, vec![(10, 1_000), (20, 1_000), (30, 1_000)]);
        }
        for t in [0u64, 999, 1_000, 2_500, 3_000, 5_999] {
            let (active, next) = active_at(t, epoch, gangs);
            let legacy = gangs[((t / epoch) % 3) as usize].0;
            assert_eq!(active, legacy, "t={t}");
            assert_eq!(next, (t / epoch + 1) * epoch, "t={t}");
        }
    }

    #[test]
    fn slices_conserve_the_period_exactly() {
        let gangs = [(1u64, 750u32), (2, 250), (3, 333)];
        for epoch in [1_000u64, 12_345, 500_000] {
            for idx in 0..7 {
                let slices = weighted_slices(epoch, &gangs, idx);
                let sum: u64 = slices.iter().map(|&(_, s)| s).sum();
                assert_eq!(sum, epoch * 3, "epoch={epoch} idx={idx}");
            }
        }
    }

    #[test]
    fn slices_monotone_in_share() {
        let gangs = [(1u64, 750u32), (2, 250)];
        let slices = weighted_slices(500_000, &gangs, 0);
        assert!(slices[0].1 > slices[1].1);
        // 750/250 of a 1 ms period: exactly 3:1.
        assert_eq!(slices[0].1, 750_000);
        assert_eq!(slices[1].1, 250_000);
    }

    #[test]
    fn remainder_rotates_across_periods() {
        // 3 gangs sharing 1000/1000/1000 over an epoch of 1000 ns with
        // shares 1/1/2: period 3000, floor slices 750/750/1500, rem 0.
        // Pick shares that force a remainder instead: 1/1/1 over epoch
        // 334 → period 1002, slices 334 each, rem 0. Use 3/3/4.
        let gangs = [(1u64, 3u32), (2, 3), (3, 4)];
        let epoch = 101u64; // period 303, total 10 → floors 90/90/121, rem 2
        let mut firsts = Vec::new();
        for idx in 0..3 {
            let slices = weighted_slices(epoch, &gangs, idx);
            let sum: u64 = slices.iter().map(|&(_, s)| s).sum();
            assert_eq!(sum, 303);
            firsts.push(slices.iter().map(|&(_, s)| s).collect::<Vec<_>>());
        }
        // The +1 ns recipients shift with the period index.
        assert_ne!(firsts[0], firsts[1]);
    }

    #[test]
    fn active_walk_skips_zero_slices() {
        // Extreme skew: share 1 vs 10_000 over a tiny epoch floors the
        // small gang to zero in most periods.
        let gangs = [(1u64, 1u32), (2, 10_000)];
        let epoch = 1_000u64;
        // Period 2000: floor slices 0/1999, remainder 1 ns to gang 1.
        let (active, next) = active_at(500, epoch, gangs);
        assert_eq!(active, 2);
        assert_eq!(next, 2 * epoch);
    }
}
