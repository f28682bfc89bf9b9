//! Dense counter storage.
//!
//! The simulated kernel owns one [`PerCpuCounters`]; every scheduler
//! action bumps the counter on the CPU where it happens, exactly as the
//! real kernel's per-CPU statistics do. Aggregation and snapshot-diffing
//! (for `perf stat`-style windows) happen at read time.

use crate::event::{HwEvent, SwEvent};
use hpl_topology::CpuId;

/// A flat set of all counters (software + hardware).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    sw: [u64; SwEvent::ALL.len()],
    hw: [u64; HwEvent::ALL.len()],
}

impl CounterSet {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a software event by `n`.
    #[inline]
    pub fn add_sw(&mut self, e: SwEvent, n: u64) {
        self.sw[e.index()] += n;
    }

    /// Increment a hardware event by `n`.
    #[inline]
    pub fn add_hw(&mut self, e: HwEvent, n: u64) {
        self.hw[e.index()] += n;
    }

    /// Read a software counter.
    #[inline]
    pub fn sw(&self, e: SwEvent) -> u64 {
        self.sw[e.index()]
    }

    /// Read a hardware counter.
    #[inline]
    pub fn hw(&self, e: HwEvent) -> u64 {
        self.hw[e.index()]
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &CounterSet) {
        for i in 0..self.sw.len() {
            self.sw[i] += other.sw[i];
        }
        for i in 0..self.hw.len() {
            self.hw[i] += other.hw[i];
        }
    }

    /// Element-wise difference (`self - earlier`); counters are monotonic
    /// so the subtraction cannot underflow in correct use (checked in
    /// debug builds).
    pub fn delta_since(&self, earlier: &CounterSet) -> CounterSet {
        let mut out = CounterSet::new();
        for i in 0..self.sw.len() {
            debug_assert!(self.sw[i] >= earlier.sw[i], "sw counter went backwards");
            out.sw[i] = self.sw[i].saturating_sub(earlier.sw[i]);
        }
        for i in 0..self.hw.len() {
            debug_assert!(self.hw[i] >= earlier.hw[i], "hw counter went backwards");
            out.hw[i] = self.hw[i].saturating_sub(earlier.hw[i]);
        }
        out
    }
}

/// One [`CounterSet`] per CPU plus helpers for aggregation.
#[derive(Debug, Clone)]
pub struct PerCpuCounters {
    cpus: Vec<CounterSet>,
}

impl PerCpuCounters {
    /// Create counters for `n` CPUs.
    pub fn new(n: usize) -> Self {
        PerCpuCounters {
            cpus: vec![CounterSet::new(); n],
        }
    }

    /// Number of CPUs.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// True iff there are no CPUs (never in practice).
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// The counter set of one CPU.
    #[inline]
    pub fn cpu(&self, cpu: CpuId) -> &CounterSet {
        &self.cpus[cpu.index()]
    }

    /// Increment a software event on `cpu`.
    #[inline]
    pub fn add_sw(&mut self, cpu: CpuId, e: SwEvent, n: u64) {
        self.cpus[cpu.index()].add_sw(e, n);
    }

    /// Increment a hardware event on `cpu`.
    #[inline]
    pub fn add_hw(&mut self, cpu: CpuId, e: HwEvent, n: u64) {
        self.cpus[cpu.index()].add_hw(e, n);
    }

    /// System-wide totals.
    pub fn total(&self) -> CounterSet {
        let mut out = CounterSet::new();
        for c in &self.cpus {
            out.merge(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read() {
        let mut c = CounterSet::new();
        c.add_sw(SwEvent::ContextSwitches, 3);
        c.add_sw(SwEvent::ContextSwitches, 2);
        c.add_hw(HwEvent::BusyNs, 100);
        assert_eq!(c.sw(SwEvent::ContextSwitches), 5);
        assert_eq!(c.sw(SwEvent::CpuMigrations), 0);
        assert_eq!(c.hw(HwEvent::BusyNs), 100);
    }

    #[test]
    fn merge_sums() {
        let mut a = CounterSet::new();
        a.add_sw(SwEvent::Forks, 1);
        let mut b = CounterSet::new();
        b.add_sw(SwEvent::Forks, 2);
        b.add_hw(HwEvent::TickOverheadNs, 7);
        a.merge(&b);
        assert_eq!(a.sw(SwEvent::Forks), 3);
        assert_eq!(a.hw(HwEvent::TickOverheadNs), 7);
    }

    #[test]
    fn delta_since() {
        let mut early = CounterSet::new();
        early.add_sw(SwEvent::Wakeups, 10);
        let mut late = early.clone();
        late.add_sw(SwEvent::Wakeups, 5);
        late.add_hw(HwEvent::BusyNs, 42);
        let d = late.delta_since(&early);
        assert_eq!(d.sw(SwEvent::Wakeups), 5);
        assert_eq!(d.hw(HwEvent::BusyNs), 42);
    }

    #[test]
    fn per_cpu_totals() {
        let mut p = PerCpuCounters::new(4);
        p.add_sw(CpuId(0), SwEvent::TimerTicks, 2);
        p.add_sw(CpuId(3), SwEvent::TimerTicks, 3);
        p.add_hw(CpuId(1), HwEvent::SmtContentionNs, 9);
        assert_eq!(p.total().sw(SwEvent::TimerTicks), 5);
        assert_eq!(p.total().hw(HwEvent::SmtContentionNs), 9);
        assert_eq!(p.cpu(CpuId(0)).sw(SwEvent::TimerTicks), 2);
        assert_eq!(p.len(), 4);
    }
}
