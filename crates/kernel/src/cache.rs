//! Per-core cache-warmth model — the *indirect* cost of scheduling.
//!
//! The paper attributes two indirect overheads to the scheduler: "a
//! non-HPC process may evict some of the HPC task's cache lines, causing
//! extra misses when the HPC task restarts", and "when the OS moves a
//! task to another CPU, that task may lose its cache contents and cannot
//! run at full speed until the cache rewarms".
//!
//! Model: each physical core's cache holds a *warmth fraction*
//! `w ∈ [0, 1]` per task. While a task runs on the core its warmth rises
//! exponentially toward 1 with time constant `cache_warm_tau`; every
//! other task's footprint on that core decays with `cache_evict_tau`.
//! Execution speed scales as `cold + (1 − cold) · w`. On migration the
//! task keeps a `shared_cache_retention` fraction of its warmth if source
//! and destination share any cache level (e.g. SMT siblings on POWER6, or
//! cores under a shared L3 on the x86 preset) and loses everything
//! otherwise — the exact mitigation footnote 2 of the paper describes.
//!
//! The model is deliberately capacity-free: warmths of different tasks on
//! one core are independent except for eviction-by-running, which keeps
//! the bookkeeping O(tasks-touched-this-core) and is sufficient to
//! produce the performance asymmetries the paper measures.
//!
//! Each core keeps its footprints as a short unordered list of
//! `(pid, warmth)` pairs, searched linearly: pruning warmths below
//! `PRUNE_THRESHOLD` keeps it to the few tasks that ran there recently,
//! where a scan beats hashing. Every entry's update depends
//! only on its own warmth, so the order of the list never matters.
//!
//! Both exponential rates are memoized on their last `(dt, tau)`: most
//! settle intervals repeat exactly (a tick period minus the tick cost),
//! and `exp` is pure, so a hit returns the very bits a fresh call would.

use crate::config::KernelConfig;
use crate::task::Pid;
use hpl_sim::SimDuration;
use hpl_topology::{CpuId, Topology};

/// Warmth below which a footprint entry is dropped.
const PRUNE_THRESHOLD: f64 = 1e-3;

/// `exp(−dt / tau)`, remembering the last value. Keyed on `tau` as well
/// as `dt`, so a config edited between calls is never served a stale
/// rate.
#[derive(Debug, Default)]
struct RateMemo {
    /// `(dt, tau)` in ns of `rate`; `None` before the first call.
    key: Option<(u64, u64)>,
    rate: f64,
}

impl RateMemo {
    #[inline]
    fn rate(&mut self, dt: SimDuration, tau: SimDuration) -> f64 {
        let key = Some((dt.as_nanos(), tau.as_nanos()));
        if self.key != key {
            self.key = key;
            self.rate = (-dt.as_secs_f64() / tau.as_secs_f64()).exp();
        }
        self.rate
    }
}

/// Cache warmth state for every physical core.
#[derive(Debug)]
pub struct CacheModel {
    /// Per-core footprints: `(task, warmth fraction)`, at most one entry
    /// per task, in no particular order.
    cores: Vec<Vec<(Pid, f64)>>,
    warm: RateMemo,
    evict: RateMemo,
}

impl CacheModel {
    /// Create the model for a machine.
    pub fn new(topo: &Topology) -> Self {
        CacheModel {
            cores: (0..topo.total_cores()).map(|_| Vec::new()).collect(),
            warm: RateMemo::default(),
            evict: RateMemo::default(),
        }
    }

    /// Warmth of `pid` on machine-wide core `core`.
    fn core_warmth(&self, core: usize, pid: Pid) -> f64 {
        self.cores[core]
            .iter()
            .find(|&&(owner, _)| owner == pid)
            .map_or(0.0, |&(_, w)| w)
    }

    /// Current warmth of `pid` on the core of `cpu`.
    pub fn warmth(&self, topo: &Topology, cpu: CpuId, pid: Pid) -> f64 {
        self.core_warmth(topo.core_of(cpu) as usize, pid)
    }

    /// Execution-speed factor from cache state for `pid` running on `cpu`.
    pub fn speed_factor(&self, cfg: &KernelConfig, topo: &Topology, cpu: CpuId, pid: Pid) -> f64 {
        let w = self.warmth(topo, cpu, pid);
        cfg.cache_cold_factor + (1.0 - cfg.cache_cold_factor) * w
    }

    /// Account `dt` of `pid` running on `cpu`: its warmth rises, every
    /// other footprint on the core decays. `warm_rate` is
    /// `exp(−dt / cache_warm_tau)` with `dt` in seconds, which the caller
    /// has already computed for the speed model.
    pub fn run_for(
        &mut self,
        cfg: &KernelConfig,
        topo: &Topology,
        cpu: CpuId,
        pid: Pid,
        dt: SimDuration,
        warm_rate: f64,
    ) {
        if dt.is_zero() {
            return;
        }
        let core = topo.core_of(cpu) as usize;
        let evict_rate = self.evict_rate(cfg, dt);
        let list = &mut self.cores[core];
        let mut found = false;
        for (owner, w) in list.iter_mut() {
            if *owner == pid {
                *w = 1.0 - (1.0 - *w) * warm_rate;
                found = true;
            } else {
                *w *= evict_rate;
            }
        }
        if !found {
            list.push((pid, 1.0 - warm_rate));
        }
        list.retain(|&(_, w)| w > PRUNE_THRESHOLD);
    }

    /// `exp(−dt / cache_warm_tau)`: the fraction of a cold gap that
    /// stays cold after `dt` of running.
    pub fn warm_rate(&mut self, cfg: &KernelConfig, dt: SimDuration) -> f64 {
        self.warm.rate(dt, cfg.cache_warm_tau)
    }

    /// `exp(−dt / cache_evict_tau)`: the fraction of another task's
    /// footprint that survives `dt` of someone else running.
    pub fn evict_rate(&mut self, cfg: &KernelConfig, dt: SimDuration) -> f64 {
        self.evict.rate(dt, cfg.cache_evict_tau)
    }

    /// Account a migration of `pid` from `from` to `to`.
    ///
    /// Within one core (SMT sibling move) the footprint is untouched.
    /// Across cores, the destination starts with `shared_cache_retention ×
    /// warmth` if the CPUs share a cache level, or 0 otherwise; the old
    /// footprint stays behind and decays naturally.
    pub fn migrate(
        &mut self,
        cfg: &KernelConfig,
        topo: &Topology,
        pid: Pid,
        from: CpuId,
        to: CpuId,
    ) {
        let from_core = topo.core_of(from) as usize;
        let to_core = topo.core_of(to) as usize;
        if from_core == to_core {
            return;
        }
        let old = self.core_warmth(from_core, pid);
        let retained = match topo.shared_cache_level(from, to) {
            Some(_) => old * cfg.shared_cache_retention,
            None => 0.0,
        };
        // Whatever the task had built on the destination core previously
        // (e.g. ping-pong migrations) may still be partially there.
        let list = &mut self.cores[to_core];
        let slot = list.iter().position(|&(owner, _)| owner == pid);
        let existing = slot.map_or(0.0, |i| list[i].1);
        let new_w = retained.max(existing);
        match (slot, new_w > PRUNE_THRESHOLD) {
            (Some(i), true) => list[i].1 = new_w,
            (None, true) => list.push((pid, new_w)),
            (Some(i), false) => {
                list.swap_remove(i);
            }
            (None, false) => {}
        }
    }

    /// Remove all footprints of a dead task.
    pub fn forget(&mut self, pid: Pid) {
        for list in &mut self.cores {
            list.retain(|&(owner, _)| owner != pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CacheModel {
        /// `run_for` with the warm rate computed here, as `sync_cpu` does.
        fn run(
            &mut self,
            cfg: &KernelConfig,
            topo: &Topology,
            cpu: CpuId,
            pid: Pid,
            dt: SimDuration,
        ) {
            let warm_rate = self.warm_rate(cfg, dt);
            self.run_for(cfg, topo, cpu, pid, dt, warm_rate);
        }
    }

    fn setup() -> (KernelConfig, Topology, CacheModel) {
        let topo = Topology::power6_js22();
        let model = CacheModel::new(&topo);
        (KernelConfig::default(), topo, model)
    }

    #[test]
    fn warmth_starts_cold() {
        let (cfg, topo, model) = setup();
        assert_eq!(model.warmth(&topo, CpuId(0), Pid(1)), 0.0);
        assert!(
            (model.speed_factor(&cfg, &topo, CpuId(0), Pid(1)) - cfg.cache_cold_factor).abs()
                < 1e-12
        );
    }

    #[test]
    fn running_warms_towards_one() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(1));
        let w1 = model.warmth(&topo, CpuId(0), pid);
        assert!(w1 > 0.0 && w1 < 1.0);
        // After many time constants: essentially warm.
        model.run(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(100));
        let w2 = model.warmth(&topo, CpuId(0), pid);
        assert!(w2 > 0.999, "w2={w2}");
        assert!(model.speed_factor(&cfg, &topo, CpuId(0), pid) > 0.999);
    }

    #[test]
    fn warming_is_monotonic() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        let mut last = 0.0;
        for _ in 0..20 {
            model.run(&cfg, &topo, CpuId(0), pid, SimDuration::from_micros(500));
            let w = model.warmth(&topo, CpuId(0), pid);
            assert!(w >= last);
            last = w;
        }
    }

    #[test]
    fn other_task_evicts() {
        let (cfg, topo, mut model) = setup();
        let hpc = Pid(1);
        let daemon = Pid(2);
        model.run(&cfg, &topo, CpuId(0), hpc, SimDuration::from_millis(50));
        let before = model.warmth(&topo, CpuId(0), hpc);
        // Daemon runs 5ms on the same core.
        model.run(&cfg, &topo, CpuId(0), daemon, SimDuration::from_millis(5));
        let after = model.warmth(&topo, CpuId(0), hpc);
        assert!(
            after < before * 0.5,
            "eviction too weak: {before} -> {after}"
        );
    }

    #[test]
    fn smt_siblings_share_warmth() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(50));
        // CPUs 0 and 1 are the same POWER6 core.
        assert!(model.warmth(&topo, CpuId(1), pid) > 0.99);
        // Migration between siblings keeps everything.
        model.migrate(&cfg, &topo, pid, CpuId(0), CpuId(1));
        assert!(model.warmth(&topo, CpuId(1), pid) > 0.99);
    }

    #[test]
    fn cross_core_migration_loses_everything_on_power6() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(50));
        model.migrate(&cfg, &topo, pid, CpuId(0), CpuId(2));
        // No shared cache between POWER6 cores: cold on arrival.
        assert_eq!(model.warmth(&topo, CpuId(2), pid), 0.0);
        // Old footprint still present on the old core (would be warm if
        // the task ping-pongs straight back).
        assert!(model.warmth(&topo, CpuId(0), pid) > 0.99);
    }

    #[test]
    fn shared_l3_retains_warmth() {
        let topo = Topology::xeon_2s4c2t();
        let cfg = KernelConfig::default();
        let mut model = CacheModel::new(&topo);
        let pid = Pid(1);
        model.run(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(50));
        // cpu0 → cpu2: different core, same socket, shared L3.
        model.migrate(&cfg, &topo, pid, CpuId(0), CpuId(2));
        let w = model.warmth(&topo, CpuId(2), pid);
        assert!((w - cfg.shared_cache_retention).abs() < 0.01, "w={w}");
        // Cross-socket: nothing.
        model.migrate(&cfg, &topo, pid, CpuId(2), CpuId(8));
        assert_eq!(model.warmth(&topo, CpuId(8), pid), 0.0);
    }

    #[test]
    fn ping_pong_return_keeps_residual() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(50));
        model.migrate(&cfg, &topo, pid, CpuId(0), CpuId(2));
        // Return immediately: the old footprint is still on core 0.
        model.migrate(&cfg, &topo, pid, CpuId(2), CpuId(0));
        assert!(model.warmth(&topo, CpuId(0), pid) > 0.99);
    }

    #[test]
    fn forget_clears_footprints() {
        let (cfg, topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&cfg, &topo, CpuId(0), pid, SimDuration::from_millis(10));
        model.forget(pid);
        assert_eq!(model.warmth(&topo, CpuId(0), pid), 0.0);
    }

    /// The map-based model this one replaced, kept as the reference:
    /// same arithmetic, `HashMap` per core, iteration in hash order.
    struct MapModel {
        cores: Vec<std::collections::HashMap<Pid, f64>>,
    }

    impl MapModel {
        fn run_for(
            &mut self,
            cfg: &KernelConfig,
            topo: &Topology,
            cpu: CpuId,
            pid: Pid,
            dt: SimDuration,
        ) {
            if dt.is_zero() {
                return;
            }
            let dt_s = dt.as_secs_f64();
            let warm_rate = (-dt_s / cfg.cache_warm_tau.as_secs_f64()).exp();
            let evict_rate = (-dt_s / cfg.cache_evict_tau.as_secs_f64()).exp();
            let map = &mut self.cores[topo.core_of(cpu) as usize];
            for (&owner, w) in map.iter_mut() {
                if owner == pid {
                    *w = 1.0 - (1.0 - *w) * warm_rate;
                } else {
                    *w *= evict_rate;
                }
            }
            map.entry(pid).or_insert_with(|| 1.0 - warm_rate);
            map.retain(|_, w| *w > PRUNE_THRESHOLD);
        }

        fn migrate(
            &mut self,
            cfg: &KernelConfig,
            topo: &Topology,
            pid: Pid,
            from: CpuId,
            to: CpuId,
        ) {
            let (fc, tc) = (topo.core_of(from) as usize, topo.core_of(to) as usize);
            if fc == tc {
                return;
            }
            let old = self.cores[fc].get(&pid).copied().unwrap_or(0.0);
            let retained = match topo.shared_cache_level(from, to) {
                Some(_) => old * cfg.shared_cache_retention,
                None => 0.0,
            };
            let existing = self.cores[tc].get(&pid).copied().unwrap_or(0.0);
            let new_w = retained.max(existing);
            if new_w > PRUNE_THRESHOLD {
                self.cores[tc].insert(pid, new_w);
            } else {
                self.cores[tc].remove(&pid);
            }
        }

        fn forget(&mut self, pid: Pid) {
            for core in &mut self.cores {
                core.remove(&pid);
            }
        }

        fn warmth(&self, topo: &Topology, cpu: CpuId, pid: Pid) -> f64 {
            self.cores[topo.core_of(cpu) as usize]
                .get(&pid)
                .copied()
                .unwrap_or(0.0)
        }
    }

    #[test]
    fn list_model_matches_map_model_bit_for_bit() {
        let cfg = KernelConfig::default();
        for (topo, seed) in [
            (Topology::power6_js22(), 1u64),
            (Topology::xeon_2s4c2t(), 2),
        ] {
            let mut rng = hpl_sim::Rng::new(0xcac4e ^ seed);
            let ncpus = topo.total_cpus() as u64;
            for _ in 0..50 {
                let mut model = CacheModel::new(&topo);
                let mut reference = MapModel {
                    cores: (0..topo.total_cores())
                        .map(|_| Default::default())
                        .collect(),
                };
                for _ in 0..400 {
                    let pid = Pid(rng.below(12) as u32);
                    let cpu = CpuId(rng.below(ncpus) as u32);
                    match rng.below(10) {
                        0..=6 => {
                            // Durations from 0 ns to ~100 ms, log-spread.
                            let dt = SimDuration::from_nanos(
                                10f64.powf(rng.range_f64(0.0, 8.0)) as u64 - 1,
                            );
                            model.run(&cfg, &topo, cpu, pid, dt);
                            reference.run_for(&cfg, &topo, cpu, pid, dt);
                        }
                        7 | 8 => {
                            let to = CpuId(rng.below(ncpus) as u32);
                            model.migrate(&cfg, &topo, pid, cpu, to);
                            reference.migrate(&cfg, &topo, pid, cpu, to);
                        }
                        _ => {
                            model.forget(pid);
                            reference.forget(pid);
                        }
                    }
                    for c in 0..topo.total_cpus() {
                        for p in 0..12 {
                            let (c, p) = (CpuId(c), Pid(p));
                            assert_eq!(
                                model.warmth(&topo, c, p).to_bits(),
                                reference.warmth(&topo, c, p).to_bits(),
                                "{} cpu {c:?} pid {p:?}",
                                topo.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
