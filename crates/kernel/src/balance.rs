//! Load-balance scheduling (when to balance, not how).
//!
//! The *how* of balancing lives in each scheduling class
//! ([`crate::cfs::CfsClass`]'s periodic balance, RT push/pull). This
//! module provides the driver state Linux keeps in `rq->next_balance`:
//! each CPU remembers, per domain level, when it may next attempt a
//! periodic balance; the tick checks those deadlines. New-idle balancing
//! has no timer — it fires whenever a CPU is about to go idle — so only
//! the periodic path needs state.

use hpl_sim::{SimDuration, SimTime};
use hpl_topology::{CpuId, DomainHierarchy};

/// The domain levels whose periodic balance one
/// [`BalanceClock::due_levels`] call found due, as a bit set: iterates
/// them lowest level first, visiting only the set bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueLevels(u64);

impl Iterator for DueLevels {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let level = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(level)
    }
}

/// Per-CPU, per-domain-level periodic balance deadlines.
#[derive(Debug)]
pub struct BalanceClock {
    /// `next[cpu][level]` = earliest time of the next periodic balance.
    next: Vec<Vec<SimTime>>,
}

impl BalanceClock {
    /// Initialise from a domain hierarchy, staggering CPUs so that all
    /// CPUs do not balance in the same tick (Linux staggers with jiffies
    /// offsets for the same reason).
    pub fn new(domains: &DomainHierarchy) -> Self {
        let mut next = Vec::with_capacity(domains.cpus());
        for cpu in 0..domains.cpus() {
            let chain = domains.chain(CpuId(cpu as u32));
            assert!(chain.len() <= 64, "a due-level set holds 64 levels");
            let offsets: Vec<SimTime> = chain
                .iter()
                .map(|d| {
                    SimTime::ZERO
                        + SimDuration::from_nanos(
                            d.balance_interval_ns * (cpu as u64 + 1) / (domains.cpus() as u64 + 1),
                        )
                })
                .collect();
            next.push(offsets);
        }
        BalanceClock { next }
    }

    /// Linux's `sd->busy_factor`: a CPU that is busy running a task
    /// stretches its periodic balance intervals by this factor — load
    /// balancing is chiefly the idle CPUs' job.
    pub const BUSY_FACTOR: u64 = 32;

    /// Domain levels of `cpu` whose periodic balance is due at `now`,
    /// each re-armed before the set is returned. `busy` stretches the
    /// re-arm interval by [`Self::BUSY_FACTOR`].
    pub fn due_levels(
        &mut self,
        cpu: CpuId,
        now: SimTime,
        domains: &DomainHierarchy,
        busy: bool,
    ) -> DueLevels {
        let chain = domains.chain(cpu);
        let slots = &mut self.next[cpu.index()];
        let factor = if busy { Self::BUSY_FACTOR } else { 1 };
        let mut due = 0u64;
        for (level, domain) in chain.iter().enumerate() {
            if now >= slots[level] {
                slots[level] = now + SimDuration::from_nanos(domain.balance_interval_ns * factor);
                due |= 1 << level;
            }
        }
        DueLevels(due)
    }

    /// Arithmetically replay the balance side of `ticks` consecutive
    /// idle ticks of `cpu` at `first`, `first + period`, …, exactly as
    /// per-tick [`due_levels`](Self::due_levels) calls with
    /// `busy = false` would: each due level re-arms to its due tick plus
    /// the level's interval. Returns the total number of due
    /// `(tick, level)` pairs — the tick fast-forward charges one
    /// `LoadBalanceCalls` count and one balance-cost overhead per pair.
    ///
    /// Levels are independent and dues recur with a constant stride on
    /// the tick grid — after a due at tick `t` the next due tick is
    /// exactly `t + ⌈interval/period⌉·period` — so each level is a
    /// closed form, O(1) instead of O(dues), let alone O(ticks).
    pub fn replay_idle_dues(
        &mut self,
        cpu: CpuId,
        domains: &DomainHierarchy,
        first: SimTime,
        ticks: u64,
        period: SimDuration,
    ) -> u64 {
        debug_assert!(ticks > 0);
        let chain = domains.chain(cpu);
        let slots = &mut self.next[cpu.index()];
        let p = period.as_nanos();
        let last = first + SimDuration::from_nanos(p * (ticks - 1));
        let mut calls = 0u64;
        for (level, domain) in chain.iter().enumerate() {
            let due = slots[level];
            if due > last {
                continue;
            }
            // Earliest tick at or after the deadline; it exists because
            // `last` itself is on the tick grid.
            let t0 = if due <= first {
                first
            } else {
                first + SimDuration::from_nanos((due - first).as_nanos().div_ceil(p) * p)
            };
            let interval = SimDuration::from_nanos(domain.balance_interval_ns);
            let stride = SimDuration::from_nanos(domain.balance_interval_ns.div_ceil(p) * p);
            let n = (last - t0).as_nanos() / stride.as_nanos() + 1;
            calls += n;
            slots[level] = t0 + stride * (n - 1) + interval;
        }
        calls
    }

    /// Next deadline of any level on `cpu` (diagnostics).
    pub fn next_deadline(&self, cpu: CpuId) -> Option<SimTime> {
        self.next[cpu.index()].iter().min().copied()
    }

    /// Read-only peek: would [`due_levels`](Self::due_levels) report any
    /// level due for `cpu` at time `t`? Used by the tick fast path to
    /// decide whether a tick can be skipped without touching the clocks.
    pub fn any_due(&self, cpu: CpuId, t: SimTime) -> bool {
        self.next[cpu.index()].iter().any(|&slot| t >= slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_topology::Topology;

    #[test]
    fn levels_become_due_and_rearm() {
        let topo = Topology::power6_js22();
        let domains = DomainHierarchy::build(&topo);
        let mut clock = BalanceClock::new(&domains);
        let cpu = CpuId(0);

        // Nothing due at t=0 (staggered offsets are positive).
        assert_eq!(
            clock
                .due_levels(cpu, SimTime::ZERO, &domains, false)
                .count(),
            0
        );

        // Far in the future everything is due at once.
        let later = SimTime::ZERO + SimDuration::from_secs(1);
        let due: Vec<usize> = clock.due_levels(cpu, later, &domains, false).collect();
        assert_eq!(due, vec![0, 1, 2]);

        // Immediately after, nothing is due again.
        assert_eq!(
            clock
                .due_levels(cpu, later + SimDuration::from_nanos(1), &domains, false)
                .count(),
            0
        );

        // The SMT level (2ms interval) is due again before the PKG level.
        let due: Vec<usize> = clock
            .due_levels(cpu, later + SimDuration::from_millis(3), &domains, false)
            .collect();
        assert!(due.contains(&0));
        assert!(!due.contains(&2));
    }

    #[test]
    fn any_due_agrees_with_due_levels() {
        let topo = Topology::power6_js22();
        let domains = DomainHierarchy::build(&topo);
        let mut clock = BalanceClock::new(&domains);
        let cpu = CpuId(3);
        for ns in [0u64, 500_000, 1_000_000, 2_500_000, 1_000_000_000] {
            let t = SimTime::from_nanos(ns);
            let predicted = clock.any_due(cpu, t);
            // due_levels mutates; probe on a clone of the state by
            // checking prediction first, then advancing.
            let due = clock.due_levels(cpu, t, &domains, false);
            assert_eq!(predicted, due.count() > 0, "at t={t}");
        }
    }

    #[test]
    fn cpus_are_staggered() {
        let topo = Topology::power6_js22();
        let domains = DomainHierarchy::build(&topo);
        let clock = BalanceClock::new(&domains);
        let d0 = clock.next_deadline(CpuId(0)).unwrap();
        let d1 = clock.next_deadline(CpuId(1)).unwrap();
        assert_ne!(d0, d1);
    }

    /// The arithmetic replay must leave the clock byte-identical to
    /// per-tick `due_levels` calls and report the same total dues,
    /// across phases, tick counts and both topologies' interval mixes.
    #[test]
    fn replay_idle_dues_matches_per_tick_calls() {
        for topo in [Topology::power6_js22(), Topology::smp(4)] {
            let domains = DomainHierarchy::build(&topo);
            let period = SimDuration::from_millis(1);
            for cpu in 0..domains.cpus() {
                let cpu = CpuId(cpu as u32);
                for (phase_ns, ticks) in [(1_000_000u64, 1u64), (1_500_000, 7), (3_000_000, 500)] {
                    let mut ticked = BalanceClock::new(&domains);
                    let mut replayed = BalanceClock::new(&domains);
                    let first = SimTime::from_nanos(phase_ns);
                    let mut per_tick = 0u64;
                    for k in 0..ticks {
                        let t = first + period * k;
                        per_tick += ticked.due_levels(cpu, t, &domains, false).count() as u64;
                    }
                    let bulk = replayed.replay_idle_dues(cpu, &domains, first, ticks, period);
                    assert_eq!(per_tick, bulk, "{topo:?} cpu {cpu:?} ticks {ticks}");
                    assert_eq!(
                        ticked.next[cpu.index()],
                        replayed.next[cpu.index()],
                        "{topo:?} cpu {cpu:?} ticks {ticks}: deadlines diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_machine_single_level() {
        let topo = Topology::smp(2);
        let domains = DomainHierarchy::build(&topo);
        let mut clock = BalanceClock::new(&domains);
        let due: Vec<usize> = clock
            .due_levels(
                CpuId(0),
                SimTime::ZERO + SimDuration::from_secs(1),
                &domains,
                false,
            )
            .collect();
        assert_eq!(due, vec![0]);
    }
}
