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
//! toward 1 at rate `1/CACHE_WARM_TAU`, and every task running on another
//! hardware thread of the core evicts it at rate `1/CACHE_EVICT_TAU`;
//! every other footprint on the core is evicted by each running task at
//! that same rate. Execution speed scales as `cold + (1 − cold) · w`. On
//! migration the task keeps a `SHARED_CACHE_RETENTION` fraction of its
//! warmth if source and destination share any cache level (e.g. SMT
//! siblings on POWER6, or cores under a shared L3 on the x86 preset) and
//! loses everything otherwise — the exact mitigation footnote 2 of the
//! paper describes.
//!
//! The model is deliberately capacity-free: a footprint's rate depends
//! only on its own warmth and on the core's *occupancy* (which of its
//! hardware threads run which task). With `k` other threads of the core
//! running, a running footprint follows `λ = rw + k·re` toward
//! `w∞ = rw/λ`; any other footprint decays at `k_run·re`, where `k_run`
//! counts every running thread of the core. Between occupancy changes
//! each footprint therefore evolves in closed form,
//! `w(t) = w∞ + (w0 − w∞)·e^(−λt)` (`Trajectory`), from a timestamp of
//! its own. Occupancy changes only when a reschedule commits a CPU's
//! task ([`CacheModel::set_running`]), which advances just the
//! footprints whose rate changes. Settling a CPU touches only its own
//! running task's footprint, so the simulated warmth never depends on
//! how often, or in which order, the CPUs of a core are settled.
//!
//! A footprint that does not run decays by the core's *eviction clock*,
//! `∫ k_run·re dt`, which a change of occupancy advances in O(1); so a
//! commit touches only the outgoing and incoming footprints (and, when
//! occupancy changes, the running ones, already settled to that
//! instant).
//!
//! Each core keeps its footprints as a short unordered list searched
//! linearly. A footprint that does not run counts as gone once it decays
//! below `PRUNE_THRESHOLD`; every commit drops those the eviction clock
//! has certainly taken there (`PRUNE_CLOCK`), which keeps the list to the
//! few tasks that ran there recently, where a scan beats hashing, and
//! never changes a result.
//!
//! The speed model's constants live here too, calibrated for the
//! paper's POWER6 js22; the NAS workloads divide their calibration
//! targets by [`smt_steady_state_thread_factor`], which reads the same
//! constants the speed model does.

use crate::node::{CTX_SWITCH_COST, TICK_COST, TICK_PERIOD};
use crate::task::Pid;
use hpl_sim::{SimDuration, SimTime};
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
/// Time constant for a footprint to be evicted by one task running on
/// another hardware thread of its core, or on its core while it does
/// not run.
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
/// factor at the running pair's equilibrium
/// `w* = (1/τ_warm) / (1/τ_warm + 1/τ_evict)`. Workload calibration
/// divides the paper's clean execution times by this to get per-rank
/// work.
pub fn smt_steady_state_thread_factor() -> f64 {
    let rw = 1.0 / CACHE_WARM_TAU.as_secs_f64();
    let re = 1.0 / CACHE_EVICT_TAU.as_secs_f64();
    let w_eq = rw / (rw + re);
    SMT_BUSY_FACTOR * (CACHE_COLD_FACTOR + (1.0 - CACHE_COLD_FACTOR) * w_eq)
}

/// Warmth below which a footprint that does not run counts as gone.
const PRUNE_THRESHOLD: f64 = 1e-3;
/// Eviction-clock advance past which a footprint that does not run is
/// gone whatever its warmth: `e^−7 < PRUNE_THRESHOLD`, so the test needs
/// no exponential.
const PRUNE_CLOCK: f64 = 7.0;

/// The spans a node asks decays over most: settles end a tick period
/// after the last and start behind a tick's or a switch's cost. A
/// running footprint's `e^(−λd)` over each is computed once per
/// occupancy.
const TABLED: [SimDuration; 3] = [TICK_COST, TICK_PERIOD, CTX_SWITCH_COST];
type Tabled = [(SimDuration, f64); 3];

/// How one footprint's warmth evolves while its core's occupancy holds:
/// `w(t) = w∞ + gap·e^(−λt)`, `t` in seconds from the footprint's stamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Trajectory {
    /// `λ`, per second, and its inverse.
    pub lambda: f64,
    pub inv_lambda: f64,
    /// `w∞`, the warmth the footprint tends to.
    pub w_inf: f64,
    /// `w0 − w∞` at the stamp.
    pub gap: f64,
    /// `e^(−λd)` over the spans the model tables.
    tabled: Tabled,
}

impl Trajectory {
    /// `e^(−λt)` for `t` seconds.
    #[inline]
    pub fn decay(&self, t: f64) -> f64 {
        (-self.lambda * t).exp()
    }

    /// `e^(−λd)` over `d`: the same value as [`Self::decay`] of `d` in
    /// seconds, looked up for a tabled span.
    #[inline]
    pub fn decay_over(&self, d: SimDuration) -> f64 {
        match self.tabled.iter().find(|&&(span, _)| span == d) {
            Some(&(_, decay)) => decay,
            None => self.decay(d.as_nanos() as f64 * 1e-9),
        }
    }

    /// The warmth where the decay is `decay`.
    #[inline]
    pub fn warmth(&self, decay: f64) -> f64 {
        self.w_inf + self.gap * decay
    }

    /// Whether the warmth sits at its limit `w∞`: then every exponential
    /// is multiplied by a zero gap, and callers skip them.
    #[inline]
    pub fn flat(&self) -> bool {
        self.gap == 0.0
    }

    /// The cache's speed factor `cold + (1 − cold)·w` where the decay is
    /// `decay`.
    #[inline]
    pub fn speed(&self, decay: f64) -> f64 {
        CACHE_COLD_FACTOR + (1.0 - CACHE_COLD_FACTOR) * self.warmth(decay)
    }

    /// The cache's speed factor integrated over productive windows that
    /// total `p` seconds and over which `∫ e^(−λt) dt` is `x`.
    #[inline]
    pub fn work(&self, p: f64, x: f64) -> f64 {
        let cold = CACHE_COLD_FACTOR;
        (cold + (1.0 - cold) * self.w_inf) * p + (1.0 - cold) * self.gap * x
    }
}

/// One task's warmth on one core. A running footprint holds its warmth
/// as of `stamp`; one that does not run holds it as of the core's
/// eviction clock reading `evicted`.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    pid: Pid,
    warmth: f64,
    stamp: SimTime,
    evicted: f64,
}

/// One physical core's cache.
#[derive(Debug, Default)]
struct Core {
    /// How many of its CPUs run a task.
    busy: u32,
    /// The eviction clock `∫ busy·re dt` as of `clock_at`: a footprint
    /// that does not run keeps `e^(−Δclock)` of its warmth, so no change
    /// of occupancy has to touch it.
    clock: f64,
    clock_at: SimTime,
    /// At most one footprint per task, in no particular order.
    footprints: Vec<Footprint>,
}

/// Cache warmth state for every physical core.
#[derive(Debug)]
pub struct CacheModel {
    threads: usize,
    /// The task each CPU runs as far as warmth is concerned: what the
    /// CPU's last committed reschedule installed.
    running: Vec<Option<Pid>>,
    cores: Vec<Core>,
    /// `(λ, 1/λ, w∞)` of a running footprint by its core's busy count,
    /// and `e^(−λd)` over each tabled span `d`.
    rates: Vec<(f64, f64, f64, Tabled)>,
    /// `1/CACHE_EVICT_TAU`, per second.
    evict_hz: f64,
}

impl CacheModel {
    /// Create the model for a machine, every CPU idle.
    pub fn new(topo: &Topology) -> Self {
        let warm_hz = 1.0 / CACHE_WARM_TAU.as_secs_f64();
        let evict_hz = 1.0 / CACHE_EVICT_TAU.as_secs_f64();
        CacheModel {
            threads: topo.threads_per_core() as usize,
            running: vec![None; topo.total_cpus() as usize],
            cores: (0..topo.total_cores()).map(|_| Core::default()).collect(),
            rates: (0..=topo.threads_per_core())
                .map(|busy| {
                    let lambda = warm_hz + busy.saturating_sub(1) as f64 * evict_hz;
                    let decay = |d: SimDuration| (-lambda * (d.as_nanos() as f64 * 1e-9)).exp();
                    let tabled = TABLED.map(|d| (d, decay(d)));
                    (lambda, 1.0 / lambda, warm_hz / lambda, tabled)
                })
                .collect(),
            evict_hz,
        }
    }

    /// The task `cpu` runs as far as warmth is concerned.
    #[inline]
    pub fn running(&self, cpu: CpuId) -> Option<Pid> {
        self.running[cpu.index()]
    }

    /// How many other CPUs of `cpu`'s core run a task.
    #[inline]
    pub fn co_runners(&self, topo: &Topology, cpu: CpuId) -> u32 {
        self.cores[topo.core_of(cpu) as usize].busy - u32::from(self.running[cpu.index()].is_some())
    }

    /// Whether `pid` runs on a CPU of `core`.
    #[inline]
    fn runs_on(&self, core: usize, pid: Pid) -> bool {
        let first = core * self.threads;
        self.running[first..first + self.threads].contains(&Some(pid))
    }

    /// `(λ, 1/λ, w∞)` of a running footprint on `core`, with its tabled
    /// decays.
    #[inline]
    fn running_rate(&self, core: usize) -> (f64, f64, f64, Tabled) {
        self.rates[self.cores[core].busy as usize]
    }

    /// The eviction clock of `core` at `now`.
    #[inline]
    fn clock(&self, core: usize, now: SimTime) -> f64 {
        let c = &self.cores[core];
        c.clock + c.busy as f64 * self.evict_hz * (now - c.clock_at).as_secs_f64()
    }

    #[inline]
    fn find(&self, core: usize, pid: Pid) -> Option<usize> {
        self.cores[core]
            .footprints
            .iter()
            .position(|f| f.pid == pid)
    }

    /// Warmth of footprint `i` of `core` at `now`.
    fn warmth_of(&self, core: usize, i: usize, now: SimTime) -> f64 {
        self.warmth_at(core, i, now, || self.clock(core, now))
    }

    /// [`Self::warmth_of`] where the core's eviction clock reads `clock()`.
    #[inline]
    fn warmth_at(&self, core: usize, i: usize, now: SimTime, clock: impl FnOnce() -> f64) -> f64 {
        let fp = &self.cores[core].footprints[i];
        if self.runs_on(core, fp.pid) {
            let (lambda, _, w_inf, _) = self.running_rate(core);
            if now == fp.stamp || fp.warmth == w_inf {
                return fp.warmth;
            }
            w_inf + (fp.warmth - w_inf) * (-lambda * (now - fp.stamp).as_secs_f64()).exp()
        } else {
            let clock = clock();
            let w = if clock == fp.evicted {
                fp.warmth
            } else if clock - fp.evicted > PRUNE_CLOCK {
                0.0
            } else {
                fp.warmth * (fp.evicted - clock).exp()
            };
            // Gone once it decays below the threshold, whenever its list
            // drops it.
            if w > PRUNE_THRESHOLD {
                w
            } else {
                0.0
            }
        }
    }

    /// Warmth of `pid` on machine-wide core `core` at `now`.
    fn core_warmth(&self, core: usize, pid: Pid, now: SimTime) -> f64 {
        self.find(core, pid)
            .map_or(0.0, |i| self.warmth_of(core, i, now))
    }

    /// Warmth of `pid` on the core of `cpu` at `now`.
    pub fn warmth(&self, topo: &Topology, cpu: CpuId, pid: Pid, now: SimTime) -> f64 {
        self.core_warmth(topo.core_of(cpu) as usize, pid, now)
    }

    /// The trajectory of `pid`, running on `cpu`, from its footprint's
    /// stamp (`None` without a footprint: it starts cold).
    pub(crate) fn trajectory(
        &self,
        topo: &Topology,
        cpu: CpuId,
        pid: Pid,
    ) -> (Trajectory, Option<SimTime>) {
        debug_assert_eq!(
            self.running[cpu.index()],
            Some(pid),
            "{cpu}: not running {pid:?}"
        );
        let core = topo.core_of(cpu) as usize;
        let (lambda, inv_lambda, w_inf, tabled) = self.running_rate(core);
        let fp = self.cores[core].footprints.iter().find(|f| f.pid == pid);
        let traj = Trajectory {
            lambda,
            inv_lambda,
            w_inf,
            gap: fp.map_or(0.0, |f| f.warmth) - w_inf,
            tabled,
        };
        (traj, fp.map(|f| f.stamp))
    }

    /// Store `warmth` as `pid`'s footprint on `core`, as of `now` if it
    /// runs there and of the eviction clock reading `evicted` if not.
    fn put(&mut self, core: usize, pid: Pid, warmth: f64, now: SimTime, evicted: f64) {
        let fp = Footprint {
            pid,
            warmth,
            stamp: now,
            evicted,
        };
        let list = &mut self.cores[core].footprints;
        match list.iter_mut().find(|f| f.pid == pid) {
            Some(f) => *f = fp,
            None => list.push(fp),
        }
    }

    /// Store `warmth` as the footprint of `pid`, running on `cpu`, at
    /// `now`: the end of a settle that followed its trajectory.
    pub(crate) fn settle_running(
        &mut self,
        topo: &Topology,
        cpu: CpuId,
        pid: Pid,
        warmth: f64,
        now: SimTime,
    ) {
        self.put(topo.core_of(cpu) as usize, pid, warmth, now, 0.0);
    }

    /// Commit `new` as the task `cpu` runs from `now` on. The outgoing
    /// task's footprint starts to decay by the eviction clock and the
    /// incoming one's to follow its running trajectory. When the core's
    /// occupancy changes, the running footprints' rates change too: they
    /// advance to `now` (the caller settles their CPUs first, so they
    /// are there already), and the eviction clock changes pace.
    pub fn set_running(&mut self, topo: &Topology, cpu: CpuId, new: Option<Pid>, now: SimTime) {
        let old = self.running[cpu.index()];
        if old == new {
            return;
        }
        let core = topo.core_of(cpu) as usize;
        if old.is_some() != new.is_some() {
            let first = core * self.threads;
            for c in (first..first + self.threads).filter(|&c| c != cpu.index()) {
                if let Some(pid) = self.running[c] {
                    let w = self.core_warmth(core, pid, now);
                    self.put(core, pid, w, now, 0.0);
                }
            }
        }
        let clock = self.clock(core, now);
        // Both moving footprints' warmth at `now` under the old occupancy.
        let outgoing = old
            .and_then(|p| self.find(core, p))
            .map(|i| (i, self.warmth_at(core, i, now, || clock)));
        let incoming = new.map(|p| {
            let i = self.find(core, p);
            (
                p,
                i,
                i.map_or(0.0, |i| self.warmth_at(core, i, now, || clock)),
            )
        });
        self.running[cpu.index()] = new;
        let c = &mut self.cores[core];
        (c.clock, c.clock_at) = (clock, now);
        c.busy = c.busy + u32::from(new.is_some()) - u32::from(old.is_some());
        // Each footprint takes the form its new occupancy reads: the
        // outgoing one decays by the clock from here, the incoming one
        // follows its running trajectory from here.
        let stamped = |pid, warmth| Footprint {
            pid,
            warmth,
            stamp: now,
            evicted: clock,
        };
        if let (Some(pid), Some((i, warmth))) = (old, outgoing) {
            c.footprints[i] = stamped(pid, warmth);
        }
        match incoming {
            Some((pid, Some(i), warmth)) => c.footprints[i] = stamped(pid, warmth),
            Some((pid, None, _)) => c.footprints.push(stamped(pid, 0.0)),
            None => {}
        }
        // Drop what the clock has certainly taken.
        let first = core * self.threads;
        let running = &self.running[first..first + self.threads];
        let mut i = 0;
        while i < c.footprints.len() {
            let f = &c.footprints[i];
            if clock - f.evicted > PRUNE_CLOCK && !running.contains(&Some(f.pid)) {
                c.footprints.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Account a migration of `pid` from `from` to `to` at `now`.
    ///
    /// Within one core (SMT sibling move) the footprint is untouched.
    /// Across cores, the destination starts with `SHARED_CACHE_RETENTION ×
    /// warmth` if the CPUs share a cache level, or 0 otherwise; the old
    /// footprint stays behind and decays naturally.
    pub fn migrate(&mut self, topo: &Topology, pid: Pid, from: CpuId, to: CpuId, now: SimTime) {
        let from_core = topo.core_of(from) as usize;
        let to_core = topo.core_of(to) as usize;
        if from_core == to_core {
            return;
        }
        let retained = match topo.shared_cache_level(from, to) {
            Some(_) => self.core_warmth(from_core, pid, now) * SHARED_CACHE_RETENTION,
            None => 0.0,
        };
        // Whatever the task had built on the destination core previously
        // (e.g. ping-pong migrations) may still be partially there.
        let warmth = retained.max(self.core_warmth(to_core, pid, now));
        if warmth > PRUNE_THRESHOLD || self.runs_on(to_core, pid) {
            let clock = self.clock(to_core, now);
            self.put(to_core, pid, warmth, now, clock);
        } else if let Some(i) = self.find(to_core, pid) {
            // Gone already: drop it rather than store a cold footprint.
            self.cores[to_core].footprints.swap_remove(i);
        }
    }

    /// Remove all footprints of a dead task.
    pub fn forget(&mut self, pid: Pid) {
        for core in &mut self.cores {
            core.footprints.retain(|f| f.pid != pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integrate `pid`'s running trajectory on `cpu` from its stamp to
    /// `now` without overhead, as a plain settle does, and store the
    /// end warmth. Returns the cache's speed factor integrated over the
    /// interval (seconds of work at full SMT speed).
    fn settle(model: &mut CacheModel, topo: &Topology, cpu: CpuId, pid: Pid, now: SimTime) -> f64 {
        let (traj, stamp) = model.trajectory(topo, cpu, pid);
        let elapsed = now - stamp.expect("running footprint");
        let dt = elapsed.as_secs_f64();
        let end = traj.decay_over(elapsed);
        model.settle_running(topo, cpu, pid, traj.warmth(end), now);
        traj.work(dt, (1.0 - end) * traj.inv_lambda)
    }

    /// Run `pid` alone on `cpu` over `[at, at + dt]`: commit it, settle
    /// it, commit the CPU idle. Returns the end time.
    fn run(
        model: &mut CacheModel,
        topo: &Topology,
        cpu: CpuId,
        pid: Pid,
        at: SimTime,
        dt: SimDuration,
    ) -> SimTime {
        model.set_running(topo, cpu, Some(pid), at);
        let end = at + dt;
        settle(model, topo, cpu, pid, end);
        model.set_running(topo, cpu, None, end);
        end
    }

    fn setup() -> (Topology, CacheModel) {
        let topo = Topology::power6_js22();
        let model = CacheModel::new(&topo);
        (topo, model)
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn warmth_starts_cold() {
        let (topo, model) = setup();
        assert_eq!(model.warmth(&topo, CpuId(0), Pid(1), T0), 0.0);
    }

    #[test]
    fn running_warms_towards_one() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            pid,
            T0,
            SimDuration::from_millis(1),
        );
        let w1 = model.warmth(&topo, CpuId(0), pid, t);
        assert!(w1 > 0.0 && w1 < 1.0);
        // After many time constants: essentially warm.
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            pid,
            t,
            SimDuration::from_millis(100),
        );
        let w2 = model.warmth(&topo, CpuId(0), pid, t);
        assert!(w2 > 0.999, "w2={w2}");
    }

    #[test]
    fn warming_is_monotonic() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        model.set_running(&topo, CpuId(0), Some(pid), T0);
        let mut last = 0.0;
        for i in 1..=20 {
            let now = T0 + SimDuration::from_micros(500 * i);
            settle(&mut model, &topo, CpuId(0), pid, now);
            let w = model.warmth(&topo, CpuId(0), pid, now);
            assert!(w >= last);
            last = w;
        }
    }

    #[test]
    fn idle_core_keeps_warmth() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            pid,
            T0,
            SimDuration::from_millis(10),
        );
        let w = model.warmth(&topo, CpuId(0), pid, t);
        let later = t + SimDuration::from_secs(5);
        assert_eq!(model.warmth(&topo, CpuId(0), pid, later), w);
    }

    #[test]
    fn other_task_evicts() {
        let (topo, mut model) = setup();
        let hpc = Pid(1);
        let daemon = Pid(2);
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            hpc,
            T0,
            SimDuration::from_millis(50),
        );
        let before = model.warmth(&topo, CpuId(0), hpc, t);
        // Daemon runs 5ms on the same core.
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            daemon,
            t,
            SimDuration::from_millis(5),
        );
        let after = model.warmth(&topo, CpuId(0), hpc, t);
        assert!(
            after < before * 0.5,
            "eviction too weak: {before} -> {after}"
        );
    }

    #[test]
    fn running_pair_settles_at_the_calibrated_equilibrium() {
        let (topo, mut model) = setup();
        let (a, b) = (Pid(1), Pid(2));
        model.set_running(&topo, CpuId(0), Some(a), T0);
        model.set_running(&topo, CpuId(1), Some(b), T0);
        assert_eq!(model.co_runners(&topo, CpuId(0)), 1);
        let now = T0 + SimDuration::from_millis(200);
        settle(&mut model, &topo, CpuId(0), a, now);
        let rw = 1.0 / CACHE_WARM_TAU.as_secs_f64();
        let re = 1.0 / CACHE_EVICT_TAU.as_secs_f64();
        let w = model.warmth(&topo, CpuId(0), a, now);
        // The sibling's footprint is the same function, settled or not.
        let wb = model.warmth(&topo, CpuId(1), b, now);
        assert!((w - rw / (rw + re)).abs() < 1e-12, "w={w}");
        assert_eq!(w.to_bits(), wb.to_bits());
    }

    #[test]
    fn smt_siblings_share_warmth() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            pid,
            T0,
            SimDuration::from_millis(50),
        );
        // CPUs 0 and 1 are the same POWER6 core.
        assert!(model.warmth(&topo, CpuId(1), pid, t) > 0.99);
        // Migration between siblings keeps everything.
        model.migrate(&topo, pid, CpuId(0), CpuId(1), t);
        assert!(model.warmth(&topo, CpuId(1), pid, t) > 0.99);
    }

    #[test]
    fn cross_core_migration_loses_everything_on_power6() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            pid,
            T0,
            SimDuration::from_millis(50),
        );
        model.migrate(&topo, pid, CpuId(0), CpuId(2), t);
        // No shared cache between POWER6 cores: cold on arrival.
        assert_eq!(model.warmth(&topo, CpuId(2), pid, t), 0.0);
        // Old footprint still present on the old core (would be warm if
        // the task ping-pongs straight back).
        assert!(model.warmth(&topo, CpuId(0), pid, t) > 0.99);
    }

    #[test]
    fn shared_l3_retains_warmth() {
        let topo = Topology::xeon_2s4c2t();
        let mut model = CacheModel::new(&topo);
        let pid = Pid(1);
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            pid,
            T0,
            SimDuration::from_millis(50),
        );
        // cpu0 → cpu2: different core, same socket, shared L3.
        model.migrate(&topo, pid, CpuId(0), CpuId(2), t);
        let w = model.warmth(&topo, CpuId(2), pid, t);
        assert!((w - SHARED_CACHE_RETENTION).abs() < 0.01, "w={w}");
        // Cross-socket: nothing.
        model.migrate(&topo, pid, CpuId(2), CpuId(8), t);
        assert_eq!(model.warmth(&topo, CpuId(8), pid, t), 0.0);
    }

    #[test]
    fn ping_pong_return_keeps_residual() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            pid,
            T0,
            SimDuration::from_millis(50),
        );
        model.migrate(&topo, pid, CpuId(0), CpuId(2), t);
        // Return immediately: the old footprint is still on core 0.
        model.migrate(&topo, pid, CpuId(2), CpuId(0), t);
        assert!(model.warmth(&topo, CpuId(0), pid, t) > 0.99);
    }

    #[test]
    fn forget_clears_footprints() {
        let (topo, mut model) = setup();
        let pid = Pid(1);
        let t = run(
            &mut model,
            &topo,
            CpuId(0),
            pid,
            T0,
            SimDuration::from_millis(10),
        );
        model.forget(pid);
        assert_eq!(model.warmth(&topo, CpuId(0), pid, t), 0.0);
    }

    #[test]
    fn pruned_footprints_are_below_the_threshold() {
        assert!((-PRUNE_CLOCK).exp() < PRUNE_THRESHOLD);
    }

    fn rel_gap(a: f64, b: f64) -> f64 {
        (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
    }

    /// Advancing a core over `[0, T]` in one step and in N random pieces
    /// agrees to 1e-12 relative, on warmth and on work: for a task alone
    /// on its core (k = 0), for a pair of running SMT siblings (k = 1)
    /// settled in any order, and for a footprint that does not run, read
    /// straight through or advanced by occupancy changes on the way.
    #[test]
    fn splitting_an_interval_anywhere_changes_nothing() {
        let topo = Topology::power6_js22();
        let mut rng = hpl_sim::Rng::new(0x5b117);
        let (a, b, idle) = (Pid(1), Pid(2), Pid(3));
        for case in 0..400 {
            let pair = case % 2 == 1;
            // A common warm-up history: `idle` ran, then `a` (and `b`).
            let build = |rng: &mut hpl_sim::Rng| {
                let mut m = CacheModel::new(&topo);
                let warm = SimDuration::from_nanos(rng.range_u64(1, 20_000_000));
                let t = run(&mut m, &topo, CpuId(0), idle, T0, warm);
                m.set_running(&topo, CpuId(0), Some(a), t);
                if pair {
                    m.set_running(&topo, CpuId(1), Some(b), t);
                }
                (m, t)
            };
            let state = rng.next_u64();
            let (mut whole, t0) = build(&mut hpl_sim::Rng::new(state));
            let (mut split, _) = build(&mut hpl_sim::Rng::new(state));
            let span = rng.range_u64(1, 200_000_000);
            let end = t0 + SimDuration::from_nanos(span);

            let mut work_whole = settle(&mut whole, &topo, CpuId(0), a, end);
            if pair {
                work_whole += settle(&mut whole, &topo, CpuId(1), b, end);
            }
            let mut cuts: Vec<u64> = (0..1 + rng.below(40)).map(|_| rng.below(span)).collect();
            cuts.sort_unstable();
            let mut work_split = 0.0;
            for &cut in cuts.iter().chain(&[span]) {
                let at = t0 + SimDuration::from_nanos(cut);
                // Settle the CPUs in a random order, or only one of them.
                match rng.below(3) {
                    0 => work_split += settle(&mut split, &topo, CpuId(0), a, at),
                    1 if pair => work_split += settle(&mut split, &topo, CpuId(1), b, at),
                    _ => {}
                }
            }
            work_split += settle(&mut split, &topo, CpuId(0), a, end);
            if pair {
                work_split += settle(&mut split, &topo, CpuId(1), b, end);
            }
            let ctx = format!("case {case}: pair {pair} span {span} cuts {}", cuts.len());
            assert!(
                rel_gap(work_whole, work_split) < 1e-12,
                "{ctx}: work {work_whole} vs {work_split}"
            );
            for pid in [a, b, idle] {
                let (w1, w2) = (
                    whole.warmth(&topo, CpuId(0), pid, end),
                    split.warmth(&topo, CpuId(0), pid, end),
                );
                assert!(
                    rel_gap(w1, w2) < 1e-12,
                    "{ctx}: {pid:?} warmth {w1} vs {w2}"
                );
            }
            // A footprint that does not run, advanced across an occupancy
            // change and read later, matches one read straight through.
            let later = end + SimDuration::from_nanos(rng.range_u64(1, 10_000_000));
            let direct = whole.warmth(&topo, CpuId(0), idle, later);
            split.set_running(&topo, CpuId(1), if pair { None } else { Some(b) }, end);
            split.set_running(&topo, CpuId(1), if pair { Some(b) } else { None }, end);
            let stepped = split.warmth(&topo, CpuId(0), idle, later);
            assert!(
                rel_gap(direct, stepped) < 1e-12,
                "{ctx}: idle {direct} vs {stepped}"
            );
        }
    }
}
