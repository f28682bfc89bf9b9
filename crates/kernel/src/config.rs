//! Kernel tunables.
//!
//! Each field documents the Linux 2.6.34 mechanism or default it mirrors.
//! The defaults are calibrated for the paper's POWER6 js22 reproduction;
//! the ablation benches sweep several of them.

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

/// All scheduler and cost-model tunables.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    // ---- timer tick --------------------------------------------------
    /// Timer tick period. Linux HZ=1000 → 1 ms, the common distro choice
    /// on the paper's era of POWER hardware.
    pub tick_period: SimDuration,
    /// CPU time consumed by each tick's handler (the "micro-noise" the
    /// paper explicitly leaves to NETTICK). A few microseconds per tick.
    pub tick_cost: SimDuration,
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

    // ---- CFS ---------------------------------------------------------
    /// `sysctl_sched_latency` after the `1+log2(ncpus)` scaling Linux
    /// applies (8 CPUs → factor 4 → 24 ms).
    pub sched_latency: SimDuration,
    /// `sysctl_sched_min_granularity` (scaled: 3 ms).
    pub min_granularity: SimDuration,
    /// `sysctl_sched_wakeup_granularity` (scaled: 4 ms). A waking task
    /// preempts the current one if its vruntime lag exceeds this.
    pub wakeup_granularity: SimDuration,
    /// GENTLE_FAIR_SLEEPERS: a waking sleeper is placed at
    /// `min_vruntime − sched_latency/2`, giving daemons the boost that
    /// defeats `nice`-based protection of HPC tasks.
    pub sleeper_bonus: SimDuration,

    // ---- RT ----------------------------------------------------------
    /// SCHED_RR timeslice (Linux: 100 ms).
    pub rt_rr_timeslice: SimDuration,

    // ---- HPC class ---------------------------------------------------
    /// Round-robin timeslice of the HPL class. The paper uses a simple
    /// round-robin run queue; with one task per CPU it rarely matters.
    pub hpc_rr_timeslice: SimDuration,
    /// Gang co-scheduling epoch (DFRS-style). When set, co-resident
    /// gangs rotate at absolute virtual times `k * gang_epoch`: the
    /// active gang at time `t` is `sorted_gangs[(t / epoch) % count]`,
    /// so every node that shares the epoch length — and, under lockstep
    /// co-simulation, the same virtual clock — switches the same job's
    /// ranks in the same window without exchanging any messages.
    /// Epoch events are armed only while two or more gangs are enrolled;
    /// runs without gang overlap are byte-identical to `None`.
    pub gang_epoch: Option<SimDuration>,

    // ---- balancing ---------------------------------------------------
    /// Balancing mode (see [`BalanceMode`]).
    pub balance: BalanceMode,
    /// Direct CPU cost of one load-balancer invocation (domain scan).
    pub balance_cost: SimDuration,

    // ---- context switches and migrations ------------------------------
    /// Direct cost of a context switch (register/address-space switch,
    /// runqueue bookkeeping).
    pub ctx_switch_cost: SimDuration,
    /// Direct cost of executing one task migration (the migration-thread
    /// work the paper notes runs at high RT priority).
    pub migration_cost: SimDuration,
    /// Steal gate combining `sysctl_sched_migration_cost` (cache-hot
    /// tasks are not stolen) with load-average smoothing (a task queued
    /// only briefly is not a *sustained* imbalance): a task is stealable
    /// once it has been waiting this long.
    pub hot_task_threshold: SimDuration,

    // ---- execution-speed model ----------------------------------------
    /// Per-thread throughput factor when the SMT sibling is busy.
    /// POWER6 SMT2 gives roughly 1.2-1.3× core throughput with two
    /// threads, i.e. ~0.62 per thread.
    pub smt_busy_factor: f64,
    /// Execution-speed factor with a completely cold cache. Speed scales
    /// `cold + (1−cold)·warmth`.
    pub cache_cold_factor: f64,
    /// Time constant for a running task's working set to rewarm.
    pub cache_warm_tau: SimDuration,
    /// Time constant for a non-running task's footprint to be evicted
    /// while another task runs on the core.
    pub cache_evict_tau: SimDuration,
    /// Fraction of warmth retained when migrating between CPUs that share
    /// a cache level (e.g. SMT siblings, or cores under a shared L3).
    /// Migrations without any shared level retain nothing.
    pub shared_cache_retention: f64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            tick_period: SimDuration::from_millis(1),
            tick_cost: SimDuration::from_micros(3),
            tickless_single_hpc: false,
            fast_event_loop: true,

            sched_latency: SimDuration::from_millis(24),
            min_granularity: SimDuration::from_millis(3),
            wakeup_granularity: SimDuration::from_millis(4),
            sleeper_bonus: SimDuration::from_millis(12),

            rt_rr_timeslice: SimDuration::from_millis(100),
            hpc_rr_timeslice: SimDuration::from_millis(100),
            gang_epoch: None,

            balance: BalanceMode::Full,
            balance_cost: SimDuration::from_micros(5),

            ctx_switch_cost: SimDuration::from_micros(4),
            migration_cost: SimDuration::from_micros(12),
            hot_task_threshold: SimDuration::from_millis(3),

            smt_busy_factor: 0.62,
            cache_cold_factor: 0.70,
            cache_warm_tau: SimDuration::from_millis(4),
            cache_evict_tau: SimDuration::from_millis(3),
            shared_cache_retention: 0.8,
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

    /// Per-thread steady-state throughput when both SMT siblings run
    /// distinct tasks continuously: the SMT pipeline factor times the
    /// cache factor at the warm/evict equilibrium
    /// `w* = (1/τ_warm) / (1/τ_warm + 1/τ_evict)`. Workload calibration
    /// divides the paper's clean execution times by this to get per-rank
    /// work.
    pub fn smt_steady_state_thread_factor(&self) -> f64 {
        let rw = 1.0 / self.cache_warm_tau.as_secs_f64();
        let re = 1.0 / self.cache_evict_tau.as_secs_f64();
        let w_eq = rw / (rw + re);
        self.smt_busy_factor * (self.cache_cold_factor + (1.0 - self.cache_cold_factor) * w_eq)
    }

    /// Validate invariants; called by the node builder.
    pub fn validate(&self) -> Result<(), String> {
        if self.tick_period.is_zero() {
            return Err("tick_period must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.smt_busy_factor) || self.smt_busy_factor <= 0.0 {
            return Err(format!(
                "smt_busy_factor {} out of (0,1]",
                self.smt_busy_factor
            ));
        }
        if !(0.0..=1.0).contains(&self.cache_cold_factor) || self.cache_cold_factor <= 0.0 {
            return Err(format!(
                "cache_cold_factor {} out of (0,1]",
                self.cache_cold_factor
            ));
        }
        if !(0.0..=1.0).contains(&self.shared_cache_retention) {
            return Err("shared_cache_retention out of [0,1]".into());
        }
        if self.cache_warm_tau.is_zero() || self.cache_evict_tau.is_zero() {
            return Err("cache time constants must be non-zero".into());
        }
        if self.min_granularity > self.sched_latency {
            return Err("min_granularity exceeds sched_latency".into());
        }
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
        c.smt_busy_factor = 1.5;
        assert!(c.validate().is_err());

        let mut c = KernelConfig::default();
        c.tick_period = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = KernelConfig::default();
        c.min_granularity = SimDuration::from_millis(100);
        assert!(c.validate().is_err());

        let mut c = KernelConfig::default();
        c.cache_cold_factor = 0.0;
        assert!(c.validate().is_err());

        let mut c = KernelConfig::default();
        c.gang_epoch = Some(SimDuration::ZERO);
        assert!(c.validate().is_err());
        c.gang_epoch = Some(SimDuration::from_millis(5));
        assert!(c.validate().is_ok());
    }
}
