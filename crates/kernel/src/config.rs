//! Kernel switches.
//!
//! [`KernelConfig`] holds the four choices callers make per node: the
//! balancing mode, gang rotation, NETTICK-style tickless HPC CPUs and
//! the event-loop path. The cost model the paper's POWER6 js22 runs are
//! calibrated to (Linux 2.6.34 defaults) is not configurable: each of
//! its values is a documented constant in the module that reads it —
//! tick and overhead costs in [`crate::node`], the CFS tunables in
//! [`crate::cfs`], the SCHED_RR slice in [`crate::rt`], and the SMT and
//! cache factors in [`crate::cache`].

use hpl_sim::SimDuration;

/// How much load balancing the kernel performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceMode {
    /// Standard Linux: periodic balancing from the tick plus new-idle
    /// balancing whenever a CPU runs out of work.
    Full,
    /// The HPL policy: *no* dynamic balancing for any scheduling class —
    /// the paper disables even CFS balancing while an HPC application
    /// runs, because balancing CFS daemons "introduces some OS noise
    /// [...] although there are no CPU migrations".
    None,
}

/// The per-node kernel switches.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// NETTICK-style mitigation: when a CPU runs exactly one runnable
    /// HPC-class task, the tick handler cost is skipped (tickless
    /// operation). Off by default — the paper measures HPL *without* it.
    pub tickless_single_hpc: bool,
    /// Event-loop fast path: route timer ticks through the event queue's
    /// periodic slots (timer wheel) instead of re-scheduling them through
    /// the binary heap, and batch provably inert ticks (idle CPU, tickless
    /// lone-HPC CPU) arithmetically instead of dispatching them one by
    /// one. Simulation *results* are identical either way — the reference
    /// path exists so regression tests can prove it — but the fast path is
    /// what makes 1000-run sweeps tractable.
    pub fast_event_loop: bool,
    /// Gang co-scheduling epoch (DFRS-style). When set, co-resident
    /// gangs rotate at absolute virtual times `k * gang_epoch`: the
    /// active gang at time `t` is `sorted_gangs[(t / epoch) % count]`,
    /// so every node that shares the epoch length — and, under lockstep
    /// co-simulation, the same virtual clock — switches the same job's
    /// ranks in the same window without exchanging any messages.
    /// Epoch events are armed only while two or more gangs are enrolled;
    /// runs without gang overlap are byte-identical to `None`.
    pub gang_epoch: Option<SimDuration>,
    /// Balancing mode (see [`BalanceMode`]).
    pub balance: BalanceMode,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            tickless_single_hpc: false,
            fast_event_loop: true,
            gang_epoch: None,
            balance: BalanceMode::Full,
        }
    }
}

impl KernelConfig {
    /// Configuration used for HPL runs: identical cost model, but dynamic
    /// load balancing disabled for every class (the paper's §V policy).
    pub fn hpl() -> Self {
        KernelConfig {
            balance: BalanceMode::None,
            ..KernelConfig::default()
        }
    }

    /// Validate invariants; called by the node builder.
    pub fn validate(&self) -> Result<(), String> {
        if self.gang_epoch.is_some_and(|e| e.is_zero()) {
            return Err("gang_epoch must be non-zero when set".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        KernelConfig::default().validate().unwrap();
        KernelConfig::hpl().validate().unwrap();
    }

    #[test]
    fn hpl_disables_balancing() {
        assert_eq!(KernelConfig::hpl().balance, BalanceMode::None);
        assert_eq!(KernelConfig::default().balance, BalanceMode::Full);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_catches_bad_values() {
        let mut c = KernelConfig::default();
        c.gang_epoch = Some(SimDuration::ZERO);
        assert!(c.validate().is_err());
        c.gang_epoch = Some(SimDuration::from_millis(5));
        assert!(c.validate().is_ok());
    }
}
