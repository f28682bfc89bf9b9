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
//! exponentially toward 1 with time constant `CACHE_WARM_TAU`; every
//! other task's footprint on that core decays with `CACHE_EVICT_TAU`.
//! Execution speed scales as `cold + (1 − cold) · w`. On migration the
//! task keeps a `SHARED_CACHE_RETENTION` fraction of its warmth if
//! source and destination share any cache level (e.g. SMT siblings on
//! POWER6, or cores under a shared L3 on the x86 preset) and loses
//! everything otherwise — the exact mitigation footnote 2 of the paper
//! describes.
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
//! Both exponential rates are memoized on their last `dt`: most settle
//! intervals repeat exactly (a tick period minus the tick cost), and
//! `exp` is pure, so a hit returns the very bits a fresh call would.
//!
//! The speed model's constants live here too, calibrated for the
//! paper's POWER6 js22; the NAS workloads divide their calibration
//! targets by [`smt_steady_state_thread_factor`], which reads the same
//! constants the speed model does.

use crate::task::Pid;
use hpl_sim::SimDuration;
use hpl_topology::{CpuId, Topology};

/// Per-thread throughput factor when the SMT sibling is busy. POWER6
/// SMT2 gives roughly 1.2-1.3× core throughput with two threads, i.e.
/// ~0.62 per thread.
pub const SMT_BUSY_FACTOR: f64 = 0.62;
/// Execution-speed factor with a completely cold cache. Speed scales
/// `cold + (1−cold)·warmth`.
pub const CACHE_COLD_FACTOR: f64 = 0.70;
/// Time constant for a running task's working set to rewarm.
pub(crate) const CACHE_WARM_TAU: SimDuration = SimDuration::from_millis(4);
/// Time constant for a non-running task's footprint to be evicted while
/// another task runs on the core.
pub(crate) const CACHE_EVICT_TAU: SimDuration = SimDuration::from_millis(3);
/// Fraction of warmth retained when migrating between CPUs that share a
/// cache level (e.g. SMT siblings, or cores under a shared L3).
/// Migrations without any shared level retain nothing.
const SHARED_CACHE_RETENTION: f64 = 0.8;

const _: () = assert!(SMT_BUSY_FACTOR > 0.0 && SMT_BUSY_FACTOR <= 1.0);
const _: () = assert!(CACHE_COLD_FACTOR > 0.0 && CACHE_COLD_FACTOR <= 1.0);
const _: () = assert!(SHARED_CACHE_RETENTION >= 0.0 && SHARED_CACHE_RETENTION <= 1.0);
const _: () = assert!(!CACHE_WARM_TAU.is_zero() && !CACHE_EVICT_TAU.is_zero());

/// Per-thread steady-state throughput when both SMT siblings run
/// distinct tasks continuously: the SMT pipeline factor times the cache
/// factor at the warm/evict equilibrium
/// `w* = (1/τ_warm) / (1/τ_warm + 1/τ_evict)`. Workload calibration
/// divides the paper's clean execution times by this to get per-rank
/// work.
pub fn smt_steady_state_thread_factor() -> f64 {
    let rw = 1.0 / CACHE_WARM_TAU.as_secs_f64();
    let re = 1.0 / CACHE_EVICT_TAU.as_secs_f64();
    let w_eq = rw / (rw + re);
    SMT_BUSY_FACTOR * (CACHE_COLD_FACTOR + (1.0 - CACHE_COLD_FACTOR) * w_eq)
}

/// Warmth below which a footprint entry is dropped.
const PRUNE_THRESHOLD: f64 = 1e-3;

/// `exp(−dt / tau)` for one fixed `tau`, remembering the last value.
#[derive(Debug)]
struct RateMemo {
    tau: SimDuration,
    /// `dt` in ns of `rate`; `None` before the first call.
    key: Option<u64>,
    rate: f64,
}

impl RateMemo {
    fn new(tau: SimDuration) -> Self {
        RateMemo {
            tau,
            key: None,
            rate: 0.0,
        }
    }

    #[inline]
    fn rate(&mut self, dt: SimDuration) -> f64 {
        let key = Some(dt.as_nanos());
        if self.key != key {
            self.key = key;
            self.rate = (-dt.as_secs_f64() / self.tau.as_secs_f64()).exp();
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
            warm: RateMemo::new(CACHE_WARM_TAU),
            evict: RateMemo::new(CACHE_EVICT_TAU),
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

    /// Account `dt` of `pid` running on `cpu`: its warmth rises, every
    /// other footprint on the core decays. `warm_rate` is
    /// `exp(−dt / CACHE_WARM_TAU)` with `dt` in seconds, which the caller
    /// has already computed for the speed model.
    pub fn run_for(
        &mut self,
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
        let evict_rate = self.evict_rate(dt);
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

    /// `exp(−dt / CACHE_WARM_TAU)`: the fraction of a cold gap that
    /// stays cold after `dt` of running.
    pub fn warm_rate(&mut self, dt: SimDuration) -> f64 {
        self.warm.rate(dt)
    }

    /// `exp(−dt / CACHE_EVICT_TAU)`: the fraction of another task's
    /// footprint that survives `dt` of someone else running.
    pub fn evict_rate(&mut self, dt: SimDuration) -> f64 {
        self.evict.rate(dt)
    }

    /// Account a migration of `pid` from `from` to `to`.
    ///
    /// Within one core (SMT sibling move) the footprint is untouched.
    /// Across cores, the destination starts with `SHARED_CACHE_RETENTION ×
    /// warmth` if the CPUs share a cache level, or 0 otherwise; the old
    /// footprint stays behind and decays naturally.
    pub fn migrate(&mut self, topo: &Topology, pid: Pid, from: CpuId, to: CpuId) {
        let from_core = topo.core_of(from) as usize;
        let to_core = topo.core_of(to) as usize;
        if from_core == to_core {
            return;
        }
        let old = self.core_warmth(from_core, pid);
        let retained = match topo.shared_cache_level(from, to) {
            Some(_) => old * SHARED_CACHE_RETENTION,
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
        fn run(&mut self, topo: &Topology, cpu: CpuId, pid: Pid, dt: SimDuration) {
            let warm_rate = self.warm_rate(dt);
            self.run_for(topo, cpu, pid, dt, warm_rate);
        }
    }

    fn setup() -> (Topology, CacheModel) {
        let topo = Topology::power6_js22();
        let model = CacheModel::new(&topo);
        (topo, model)
    }

    #[test]
    fn warmth_starts_cold() {
        let (topo, model) = setup();
        assert_eq!(model.warmth(&topo, CpuId(0), Pid(1)), 0.0);
    }

    #[test]
    fn running_warms_towards_one() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&topo, CpuId(0), pid, SimDuration::from_millis(1));
        let w1 = model.warmth(&topo, CpuId(0), pid);
        assert!(w1 > 0.0 && w1 < 1.0);
        // After many time constants: essentially warm.
        model.run(&topo, CpuId(0), pid, SimDuration::from_millis(100));
        let w2 = model.warmth(&topo, CpuId(0), pid);
        assert!(w2 > 0.999, "w2={w2}");
    }

    #[test]
    fn warming_is_monotonic() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        let mut last = 0.0;
        for _ in 0..20 {
            model.run(&topo, CpuId(0), pid, SimDuration::from_micros(500));
            let w = model.warmth(&topo, CpuId(0), pid);
            assert!(w >= last);
            last = w;
        }
    }

    #[test]
    fn other_task_evicts() {
        let (topo, mut model) = setup();
        let hpc = Pid(1);
        let daemon = Pid(2);
        model.run(&topo, CpuId(0), hpc, SimDuration::from_millis(50));
        let before = model.warmth(&topo, CpuId(0), hpc);
        // Daemon runs 5ms on the same core.
        model.run(&topo, CpuId(0), daemon, SimDuration::from_millis(5));
        let after = model.warmth(&topo, CpuId(0), hpc);
        assert!(
            after < before * 0.5,
            "eviction too weak: {before} -> {after}"
        );
    }

    #[test]
    fn smt_siblings_share_warmth() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&topo, CpuId(0), pid, SimDuration::from_millis(50));
        // CPUs 0 and 1 are the same POWER6 core.
        assert!(model.warmth(&topo, CpuId(1), pid) > 0.99);
        // Migration between siblings keeps everything.
        model.migrate(&topo, pid, CpuId(0), CpuId(1));
        assert!(model.warmth(&topo, CpuId(1), pid) > 0.99);
    }

    #[test]
    fn cross_core_migration_loses_everything_on_power6() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&topo, CpuId(0), pid, SimDuration::from_millis(50));
        model.migrate(&topo, pid, CpuId(0), CpuId(2));
        // No shared cache between POWER6 cores: cold on arrival.
        assert_eq!(model.warmth(&topo, CpuId(2), pid), 0.0);
        // Old footprint still present on the old core (would be warm if
        // the task ping-pongs straight back).
        assert!(model.warmth(&topo, CpuId(0), pid) > 0.99);
    }

    #[test]
    fn shared_l3_retains_warmth() {
        let topo = Topology::xeon_2s4c2t();
        let mut model = CacheModel::new(&topo);
        let pid = Pid(1);
        model.run(&topo, CpuId(0), pid, SimDuration::from_millis(50));
        // cpu0 → cpu2: different core, same socket, shared L3.
        model.migrate(&topo, pid, CpuId(0), CpuId(2));
        let w = model.warmth(&topo, CpuId(2), pid);
        assert!((w - SHARED_CACHE_RETENTION).abs() < 0.01, "w={w}");
        // Cross-socket: nothing.
        model.migrate(&topo, pid, CpuId(2), CpuId(8));
        assert_eq!(model.warmth(&topo, CpuId(8), pid), 0.0);
    }

    #[test]
    fn ping_pong_return_keeps_residual() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&topo, CpuId(0), pid, SimDuration::from_millis(50));
        model.migrate(&topo, pid, CpuId(0), CpuId(2));
        // Return immediately: the old footprint is still on core 0.
        model.migrate(&topo, pid, CpuId(2), CpuId(0));
        assert!(model.warmth(&topo, CpuId(0), pid) > 0.99);
    }

    #[test]
    fn forget_clears_footprints() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        model.run(&topo, CpuId(0), pid, SimDuration::from_millis(10));
        model.forget(pid);
        assert_eq!(model.warmth(&topo, CpuId(0), pid), 0.0);
    }

    /// The map-based model this one replaced, kept as the reference:
    /// same arithmetic, `HashMap` per core, iteration in hash order.
    struct MapModel {
        cores: Vec<std::collections::HashMap<Pid, f64>>,
    }

    impl MapModel {
        fn run_for(&mut self, topo: &Topology, cpu: CpuId, pid: Pid, dt: SimDuration) {
            if dt.is_zero() {
                return;
            }
            let dt_s = dt.as_secs_f64();
            let warm_rate = (-dt_s / CACHE_WARM_TAU.as_secs_f64()).exp();
            let evict_rate = (-dt_s / CACHE_EVICT_TAU.as_secs_f64()).exp();
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

        fn migrate(&mut self, topo: &Topology, pid: Pid, from: CpuId, to: CpuId) {
            let (fc, tc) = (topo.core_of(from) as usize, topo.core_of(to) as usize);
            if fc == tc {
                return;
            }
            let old = self.cores[fc].get(&pid).copied().unwrap_or(0.0);
            let retained = match topo.shared_cache_level(from, to) {
                Some(_) => old * SHARED_CACHE_RETENTION,
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
                            model.run(&topo, cpu, pid, dt);
                            reference.run_for(&topo, cpu, pid, dt);
                        }
                        7 | 8 => {
                            let to = CpuId(rng.below(ncpus) as u32);
                            model.migrate(&topo, pid, cpu, to);
                            reference.migrate(&topo, pid, cpu, to);
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
