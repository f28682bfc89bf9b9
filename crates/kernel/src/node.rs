//! The simulated node: Scheduler Core + event loop.
//!
//! [`Node`] owns everything one cluster node has: the task table, the
//! ordered scheduling-class list, per-CPU state, the cache model, the
//! sync substrate, the perf counters and the event queue. All state
//! transitions — switching, blocking, waking, forking, migrating —
//! funnel through this module, so every `perf` counter is bumped in
//! exactly one place, mirroring how the real scheduler centralises its
//! statistics in `__schedule()` / `set_task_cpu()`.
//!
//! ## Execution-speed model
//!
//! A running task's instantaneous speed is
//! `smt_factor(sibling busy) × (cold + (1−cold)·warmth(t))` where warmth
//! follows the exponential rewarming of [`crate::cache`]. Work progress
//! over an interval is integrated analytically, and segment-completion
//! events are scheduled by inverting that integral (Newton), so no
//! precision is lost to time stepping; the timer tick merely adds its
//! handler cost and drives CFS accounting and periodic balancing, as in
//! the real kernel.

use crate::balance::BalanceClock;
use crate::cache::CacheModel;
use crate::cfs::CfsClass;
use crate::class::{class_of_policy, ClassKind, LoadSnapshot, MigrationPlan, SchedClass, SchedCtx};
use crate::config::{BalanceMode, KernelConfig};
use crate::idle::IdleClass;
use crate::noise::{NoiseProfile, NOISE_TAG};
use crate::observe::{
    BalanceKind, DeactivateReason, MigrateReason, ObserverId, PreemptVerdict, RingSink, SchedEvent,
    SchedObserver, TickOutcome,
};
use crate::program::{ProgCtx, Step, TaskSpec};
use crate::rt::RtClass;
use crate::sync::{ChanId, SyncState, WaitOutcome, Waiting};
use crate::task::{BlockReason, Pid, SpinTarget, Task, TaskState, TaskTable};
use crate::trace::TraceBuffer;
use hpl_perf::{HwEvent, PerCpuCounters, RunOutcome, SwEvent};
use hpl_sim::time::round_to_u64;
use hpl_sim::{EventQueue, Rng, SimDuration, SimTime};
use hpl_topology::{CpuId, CpuMask, DomainHierarchy, Topology};

// `Clone` because periodic timer-wheel slots re-arm by cloning their
// payload on every pop (all variants are tiny Copy-able data).
#[derive(Debug, Clone)]
enum Ev {
    Tick(CpuId),
    SegDone {
        cpu: CpuId,
        gen: u64,
    },
    TimerWake(Pid),
    Irq,
    /// A gang-rotation epoch boundary: re-derive the active gang from
    /// the virtual clock and ask gang-aware classes to reschedule.
    /// Armed only while [`KernelConfig::gang_epoch`] is set and two or
    /// more gangs are enrolled.
    GangEpoch,
    /// A cross-node message arriving from the cluster interconnect:
    /// deposit `tokens` on `chan` at this event's time. `sent_at` and
    /// `queued_ns` ride along purely for observability (latency
    /// breakdown); delivery semantics are exactly a local notify.
    NetDeliver {
        chan: ChanId,
        tokens: u32,
        sent_at: SimTime,
        queued_ns: u64,
    },
}

/// A captured outbound cross-node message: a [`Step::NetSend`] executed
/// on a channel registered via [`Node::register_net_channel`]. The
/// cluster driver collects these with [`Node::take_outbound`], runs them
/// through its interconnect model, and posts the resulting delivery on
/// the destination node with [`Node::post_net_delivery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetMsg {
    /// Send time (the sender executed the step at this instant).
    pub at: SimTime,
    /// Destination channel (lives on the destination node).
    pub chan: ChanId,
    /// Tokens to deposit on delivery.
    pub tokens: u32,
    /// Payload size for the interconnect's alpha/beta cost model.
    pub bytes: u64,
}

#[derive(Debug)]
struct CpuState {
    curr: Option<Pid>,
    last_update: SimTime,
    seg_gen: u64,
    pending_overhead: SimDuration,
}

/// Builder for a [`Node`].
pub struct NodeBuilder {
    topo: Topology,
    cfg: KernelConfig,
    noise: NoiseProfile,
    hpc_class: Option<Box<dyn SchedClass>>,
    seed: u64,
}

fn exp_interval(rate_hz: f64, rng: &mut Rng) -> SimDuration {
    SimDuration::from_secs_f64(rng.exp(1.0 / rate_hz).max(1e-7))
}

impl NodeBuilder {
    /// Start from a topology.
    pub fn new(topo: Topology) -> Self {
        NodeBuilder {
            topo,
            cfg: KernelConfig::default(),
            noise: NoiseProfile::quiet(),
            hpc_class: None,
            seed: 0,
        }
    }

    /// Set the kernel configuration.
    pub fn with_config(mut self, cfg: KernelConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the daemon population.
    pub fn with_noise(mut self, noise: NoiseProfile) -> Self {
        self.noise = noise;
        self
    }

    /// Register an HPC scheduling class between RT and CFS (the paper's
    /// HPL class from the `hpl-core` crate, or any other implementation).
    pub fn with_hpc_class(mut self, class: Box<dyn SchedClass>) -> Self {
        assert_eq!(class.kind(), ClassKind::Hpc, "hpc_class must have kind Hpc");
        self.hpc_class = Some(class);
        self
    }

    /// Seed the node's RNG stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Boot the node: builds domains, registers classes, starts the
    /// daemon population and the per-CPU timer ticks.
    pub fn build(self) -> Node {
        self.cfg.validate().expect("invalid kernel config");
        let domains = DomainHierarchy::build(&self.topo);
        let ncpus = self.topo.total_cpus() as usize;
        let mut classes: Vec<Box<dyn SchedClass>> = Vec::new();
        classes.push(Box::new(RtClass::new()));
        if let Some(hpc) = self.hpc_class {
            classes.push(hpc);
        }
        classes.push(Box::new(CfsClass::new()));
        classes.push(Box::new(IdleClass::new()));
        for c in classes.iter_mut() {
            c.init(ncpus);
        }
        let balance_clock = BalanceClock::new(&domains);
        let initial_shares: std::collections::BTreeMap<u64, u32> =
            self.cfg.gang_shares.iter().copied().collect();
        let mut node = Node {
            cache: CacheModel::new(&self.topo),
            counters: PerCpuCounters::new(ncpus),
            cpus: (0..ncpus)
                .map(|_| CpuState {
                    curr: None,
                    last_update: SimTime::ZERO,
                    seg_gen: 0,
                    pending_overhead: SimDuration::ZERO,
                })
                .collect(),
            queue: EventQueue::new(),
            rng: Rng::new(self.seed),
            sync: SyncState::new(),
            tasks: TaskTable::new(),
            balance_clock,
            classes,
            cfg: self.cfg,
            domains,
            topo: self.topo,
            resched: vec![false; ncpus],
            recomp: vec![false; ncpus],
            advancing: Vec::new(),
            observers: Vec::new(),
            ring: None,
            irq: self.noise.irq.clone(),
            load: LoadSnapshot::empty(ncpus),
            plan_buf: Vec::new(),
            tick_slots: Vec::new(),
            ff_horizons: vec![SimTime::ZERO; ncpus],
            ff_fired: vec![0; ncpus],
            ff_start: vec![SimTime::ZERO; ncpus],
            net_external: std::collections::HashSet::new(),
            outbound: Vec::new(),
            gang_refs: std::collections::BTreeMap::new(),
            gang_active: None,
            gang_armed: None,
            gang_shares: initial_shares,
            gang_slice_mark: None,
            events: 0,
            exits: 0,
        };
        // Stagger per-CPU ticks across the tick period. The fast path
        // routes them through the queue's periodic timer-wheel slots;
        // the reference path schedules plain events that the tick
        // handler re-arms. Both allocate sequence numbers in the same
        // order, so the two paths produce identical event streams.
        let period = node.cfg.tick_period;
        for c in 0..ncpus as u32 {
            let offset = SimDuration::from_nanos(period.as_nanos() * (c as u64) / ncpus as u64);
            let first = SimTime::ZERO + period + offset;
            if node.cfg.fast_event_loop {
                let id = node
                    .queue
                    .schedule_periodic(first, period, Ev::Tick(CpuId(c)));
                debug_assert_eq!(id.index(), c as usize);
                node.tick_slots.push(id);
            } else {
                node.queue.schedule(first, Ev::Tick(CpuId(c)));
            }
        }
        // Boot the daemon population.
        let all = node.topo.all_cpus();
        for spec in self.noise.task_specs(all) {
            node.spawn(spec);
        }
        // Arm the interrupt stream, if configured.
        if let Some(irq) = node.irq.clone() {
            let first = exp_interval(irq.rate_hz, &mut node.rng);
            node.queue.schedule(SimTime::ZERO + first, Ev::Irq);
        }
        node
    }
}

/// A snapshot of one task's scheduler-visible statistics
/// (`/proc/<pid>/sched` flavoured).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReport {
    /// Process id.
    pub pid: Pid,
    /// `comm` name.
    pub name: String,
    /// Scheduling policy.
    pub policy: crate::task::Policy,
    /// Lifecycle state at snapshot time.
    pub state: TaskState,
    /// CPU last assigned.
    pub cpu: CpuId,
    /// Productive CPU time consumed.
    pub total_runtime: SimDuration,
    /// Times switched in.
    pub nr_switches: u64,
    /// Times migrated.
    pub nr_migrations: u64,
    /// Exit time if dead.
    pub exited_at: Option<SimTime>,
}

impl std::fmt::Display for TaskReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}) {:?} cpu{} runtime={} switches={} migrations={}",
            self.pid,
            self.name,
            self.state,
            self.cpu.0,
            self.total_runtime,
            self.nr_switches,
            self.nr_migrations
        )
    }
}

/// One simulated cluster node.
pub struct Node {
    /// Kernel tunables.
    pub cfg: KernelConfig,
    /// Machine topology.
    pub topo: Topology,
    /// Scheduling domains.
    pub domains: DomainHierarchy,
    /// All tasks ever created.
    pub tasks: TaskTable,
    /// Perf counters (per CPU).
    pub counters: PerCpuCounters,
    /// Synchronisation substrate.
    pub sync: SyncState,
    queue: EventQueue<Ev>,
    classes: Vec<Box<dyn SchedClass>>,
    cpus: Vec<CpuState>,
    cache: CacheModel,
    balance_clock: BalanceClock,
    rng: Rng,
    resched: Vec<bool>,
    recomp: Vec<bool>,
    /// Guard against re-entrant program advancement per pid.
    advancing: Vec<Pid>,
    /// Attached observability sinks. Observers receive copies of
    /// decision data and never touch scheduler state, so attaching one
    /// cannot change the simulation; with the vec empty every decision
    /// point reduces to a single is-empty branch.
    observers: Vec<Box<dyn SchedObserver>>,
    /// The sink [`Self::enable_trace`] attached, for [`Self::trace`].
    ring: Option<ObserverId>,
    irq: Option<crate::noise::IrqSpec>,
    /// Incrementally maintained cross-CPU load view handed to class
    /// hooks (debug builds re-derive and compare in `drain`).
    load: LoadSnapshot,
    /// Reused buffer for balance-hook migration plans.
    plan_buf: Vec<MigrationPlan>,
    /// Timer-wheel slot per CPU (`fast_event_loop` only; slot i == cpu i).
    tick_slots: Vec<hpl_sim::PeriodicId>,
    /// Scratch for `fast_forward` (per-slot horizons / fire counts /
    /// pre-batch tick times for all-idle balance replay).
    ff_horizons: Vec<SimTime>,
    ff_fired: Vec<u64>,
    ff_start: Vec<SimTime>,
    /// Channels registered as network endpoints: a [`Step::NetSend`] on
    /// one of these is captured into `outbound` instead of notifying
    /// locally.
    net_external: std::collections::HashSet<ChanId>,
    /// Captured outbound messages awaiting cluster routing.
    outbound: Vec<NetMsg>,
    /// Live gang membership (gang id → enrolled live tasks). `BTreeMap`
    /// so the rotation order is the sorted gang-id order — a pure
    /// function of the co-resident set, identical on every node that
    /// hosts the same gangs.
    gang_refs: std::collections::BTreeMap<u64, u32>,
    /// Gang currently allowed to run (`None` = no rotation in force).
    gang_active: Option<u64>,
    /// Earliest pending [`Ev::GangEpoch`] time in ns, `None` when no
    /// epoch event is armed. Weighted slicing may leave later stale
    /// events in the heap after a share change; they recompute
    /// harmlessly.
    gang_armed: Option<u64>,
    /// Milli-CPU share per gang (see [`Self::gang_set_share`]). Empty
    /// means unweighted: the legacy equal-epoch rotation code path runs
    /// and the node is byte-identical to a build without shares.
    gang_shares: std::collections::BTreeMap<u64, u32>,
    /// Last `(gang, boundary)` published as a [`SchedEvent::GangSlice`]
    /// — dedups re-emission when `gang_recompute` runs mid-slice.
    /// Observer bookkeeping only; never read by scheduling decisions.
    gang_slice_mark: Option<(u64, u64)>,
    /// Events processed (dispatched + batch-fired ticks).
    events: u64,
    /// Tasks that have exited, normally or by [`Self::kill_tree`].
    exits: u64,
}

impl Node {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The CPU's current task, if any.
    pub fn current(&self, cpu: CpuId) -> Option<Pid> {
        self.cpus[cpu.index()].curr
    }

    /// Attach an observability sink. It stays attached for the node's
    /// lifetime and receives every scheduling decision from now on; the
    /// returned id retrieves it through [`Self::observer`].
    pub fn attach_observer(&mut self, obs: Box<dyn SchedObserver>) -> ObserverId {
        self.observers.push(obs);
        ObserverId::new(self.observers.len() - 1)
    }

    /// True iff at least one sink is attached (decision points publish
    /// only then).
    pub fn has_observers(&self) -> bool {
        !self.observers.is_empty()
    }

    /// Downcast an attached observer to its concrete sink type.
    pub fn observer<T: SchedObserver>(&self, id: ObserverId) -> Option<&T> {
        self.observers
            .get(id.index())
            .and_then(|o| o.as_any().downcast_ref::<T>())
    }

    /// Mutable variant of [`Self::observer`].
    pub fn observer_mut<T: SchedObserver>(&mut self, id: ObserverId) -> Option<&mut T> {
        self.observers
            .get_mut(id.index())
            .and_then(|o| o.as_any_mut().downcast_mut::<T>())
    }

    /// Publish one decision to every attached sink. Callers pre-check
    /// [`Self::has_observers`] so the disabled path never constructs the
    /// event; this fans out only when someone is listening.
    #[inline]
    fn emit(&mut self, ev: SchedEvent) {
        let now = self.queue.now();
        for obs in self.observers.iter_mut() {
            obs.observe(now, &ev);
        }
    }

    /// Publish an externally-sourced event to this node's sinks, stamped
    /// with the node's current time. This is how layers *above* the
    /// kernel (the cluster driver, the `hpl-batch` scheduler) thread
    /// their decisions — job submits/starts/ends, queue depths — into
    /// the same observer stream as the kernel's own, so a single Chrome
    /// trace shows both scheduling levels. Observers are pure sinks, so
    /// publishing cannot perturb the simulation.
    pub fn publish(&mut self, ev: SchedEvent) {
        if self.has_observers() {
            self.emit(ev);
        }
    }

    /// Start recording scheduler events (switches, migrations, wakeups)
    /// into a bounded buffer — attaches a [`RingSink`]. Cheap enough for
    /// examples and debugging; leave off for bulk experiments.
    pub fn enable_trace(&mut self, capacity: usize) {
        let id = self.attach_observer(Box::new(RingSink::new(capacity)));
        self.ring = Some(id);
    }

    /// The trace recorded so far, if [`Self::enable_trace`] was called.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.ring
            .and_then(|id| self.observer::<RingSink>(id))
            .map(|s| s.buffer())
    }

    /// Render the Chrome-trace JSON of the [`crate::observe::ChromeTraceSink`]
    /// behind `id`, closing open occupancy slices at the current time and
    /// resolving task names from the task table. `None` if `id` is not a
    /// Chrome-trace sink.
    pub fn export_chrome_trace(&self, id: ObserverId) -> Option<String> {
        let sink = self.observer::<crate::observe::ChromeTraceSink>(id)?;
        Some(sink.to_json(self.now(), |pid| {
            format!("{} {}", self.tasks.get(pid).name, pid)
        }))
    }

    /// Per-task statistics in the shape of `perf stat -p <pid>` plus
    /// `/proc/<pid>/sched`: runtime, switch and migration counts.
    pub fn task_report(&self, pid: Pid) -> TaskReport {
        let t = self.tasks.get(pid);
        TaskReport {
            pid,
            name: t.name.clone(),
            policy: t.policy,
            state: t.state,
            cpu: t.cpu,
            total_runtime: t.total_runtime,
            nr_switches: t.nr_switches,
            nr_migrations: t.nr_migrations,
            exited_at: t.exited_at,
        }
    }

    /// Index into the class list for a policy. Panics if no registered
    /// class accepts the policy (e.g. `SCHED_HPC` without an HPC class).
    fn class_idx(&self, task: &Task) -> usize {
        let kind = class_of_policy(task.policy);
        self.classes
            .iter()
            .position(|c| c.kind() == kind)
            .unwrap_or_else(|| panic!("no scheduling class registered for {:?}", task.policy))
    }

    /// Whether a policy can be used on this node.
    pub fn supports_policy(&self, policy: crate::task::Policy) -> bool {
        let kind = class_of_policy(policy);
        self.classes.iter().any(|c| c.kind() == kind)
    }

    fn sched_ctx<'a>(
        cfg: &'a KernelConfig,
        topo: &'a Topology,
        domains: &'a DomainHierarchy,
        now: SimTime,
    ) -> SchedCtx<'a> {
        SchedCtx {
            now,
            cfg,
            topo,
            domains,
        }
    }

    /// Rebuild the load view from scratch (O(cpus × classes)). The hot
    /// path maintains `self.load` incrementally instead; this is the
    /// ground truth that debug builds check it against.
    #[cfg(debug_assertions)]
    fn snapshot_rebuild(&self) -> LoadSnapshot {
        let n = self.cpus.len();
        let mut snap = LoadSnapshot::empty(n);
        for i in 0..n {
            let cpu = CpuId(i as u32);
            let mut count = 0;
            for c in &self.classes {
                count += c.nr_queued(cpu);
            }
            if let Some(pid) = self.cpus[i].curr {
                count += 1;
                let t = self.tasks.get(pid);
                snap.curr_kind[i] = Some(class_of_policy(t.policy));
                snap.curr_rt_prio[i] = t.policy.rt_prio().unwrap_or(0);
            }
            snap.nr_running[i] = count;
        }
        snap
    }

    #[cfg(debug_assertions)]
    fn assert_load_consistent(&self) {
        debug_assert_eq!(
            self.load,
            self.snapshot_rebuild(),
            "incremental LoadSnapshot diverged from rebuild"
        );
    }

    /// Install `new` as the CPU's current task, keeping the incremental
    /// load view in sync (the curr slot contributes one to `nr_running`
    /// and defines `curr_kind`/`curr_rt_prio`). Every assignment to
    /// `cpus[_].curr` after boot must go through here.
    fn set_curr(&mut self, cpu: CpuId, new: Option<Pid>) {
        let idx = cpu.index();
        if self.cpus[idx].curr.is_some() {
            self.load.nr_running[idx] -= 1;
        }
        self.cpus[idx].curr = new;
        match new {
            Some(pid) => {
                self.load.nr_running[idx] += 1;
                let t = self.tasks.get(pid);
                self.load.curr_kind[idx] = Some(class_of_policy(t.policy));
                self.load.curr_rt_prio[idx] = t.policy.rt_prio().unwrap_or(0);
            }
            None => {
                self.load.curr_kind[idx] = None;
                self.load.curr_rt_prio[idx] = 0;
            }
        }
    }

    // ---------------------------------------------------------------
    // Execution-speed model
    // ---------------------------------------------------------------

    fn sibling_busy(&self, cpu: CpuId) -> bool {
        // The core's hardware threads are numbered consecutively (see
        // `Topology::smt_siblings`); index them directly.
        let tpc = self.topo.threads_per_core();
        let first = self.topo.core_of(cpu) * tpc;
        (first..first + tpc).any(|c| c != cpu.0 && self.cpus[c as usize].curr.is_some())
    }

    fn smt_factor(&self, cpu: CpuId) -> f64 {
        if self.sibling_busy(cpu) {
            self.cfg.smt_busy_factor
        } else {
            1.0
        }
    }

    /// Full-speed work (seconds) done over `dt_s` starting from warmth
    /// `w0`, given the SMT factor. Closed form of
    /// `∫ smt·(cold + (1−cold)·w(t)) dt` with exponential rewarming;
    /// `decay` is `exp(−dt_s / cache_warm_tau)`, which every caller also
    /// needs for something else and so computes once.
    fn work_integral(&self, smt: f64, w0: f64, dt_s: f64, decay: f64) -> f64 {
        let cold = self.cfg.cache_cold_factor;
        let tau = self.cfg.cache_warm_tau.as_secs_f64();
        smt * (dt_s - (1.0 - cold) * (1.0 - w0) * tau * (1.0 - decay))
    }

    /// Inverse of [`Self::work_integral`]: wall time needed to complete
    /// `work_s` of full-speed work. Newton iteration with a bisection
    /// floor; the integrand is positive and increasing so this converges
    /// in a handful of steps. One exponential per step serves both the
    /// integral and its derivative.
    fn time_for_work(&self, smt: f64, w0: f64, work_s: f64) -> f64 {
        let cold = self.cfg.cache_cold_factor;
        let tau = self.cfg.cache_warm_tau.as_secs_f64();
        debug_assert!(work_s >= 0.0);
        if work_s <= 0.0 {
            return 0.0;
        }
        // Start from the optimistic bound (full speed).
        let mut t = work_s / smt;
        for _ in 0..32 {
            let decay = (-t / tau).exp();
            let f = self.work_integral(smt, w0, t, decay) - work_s;
            let speed = smt * (1.0 - (1.0 - cold) * (1.0 - w0) * decay);
            let step = f / speed.max(1e-12);
            t -= step;
            if step.abs() < 0.5e-9 {
                break;
            }
        }
        t.max(0.0)
    }

    /// Settle a CPU's accounting up to `now`: apply progress to the
    /// current task, charge overheads, and update the cache model.
    fn sync_cpu(&mut self, cpu: CpuId, now: SimTime) {
        let idx = cpu.index();
        let last = self.cpus[idx].last_update;
        if now <= last {
            return;
        }
        let elapsed = now - last;
        self.cpus[idx].last_update = now;
        let Some(pid) = self.cpus[idx].curr else {
            // Idle CPU: overheads are absorbed invisibly.
            self.cpus[idx].pending_overhead = SimDuration::ZERO;
            return;
        };
        // Overhead (tick handlers, switch costs) eats wall time first.
        let overhead = self.cpus[idx].pending_overhead.min(elapsed);
        self.cpus[idx].pending_overhead -= overhead;
        let productive = elapsed - overhead;
        if productive.is_zero() {
            return;
        }
        let smt = self.smt_factor(cpu);
        let w0 = self.cache.warmth(&self.topo, cpu, pid);
        let dt_s = productive.as_secs_f64();
        let warm_rate = CacheModel::warm_rate(&self.cfg, productive);
        let work_s = self.work_integral(smt, w0, dt_s, warm_rate);
        let work_ns = round_to_u64(work_s * 1e9);
        // Counter attribution: lost cycles split between SMT contention
        // and cold-cache stall.
        let ideal_ns = productive.as_nanos();
        let smt_progress_ns = round_to_u64(dt_s * smt * 1e9).min(ideal_ns);
        let smt_loss = ideal_ns - smt_progress_ns;
        let cache_loss = ideal_ns.saturating_sub(work_ns).saturating_sub(smt_loss);
        self.counters.add_hw(cpu, HwEvent::BusyNs, ideal_ns);
        self.counters
            .add_hw(cpu, HwEvent::SmtContentionNs, smt_loss);
        self.counters
            .add_hw(cpu, HwEvent::ColdCacheStallNs, cache_loss);

        let task = self.tasks.get_mut(pid);
        task.segment_remaining = task.segment_remaining.saturating_sub(work_ns);
        task.ran_since_pick += productive;
        task.total_runtime += productive;
        let ci = self.class_idx(self.tasks.get(pid));
        // update_curr needs &mut task and &mut class simultaneously:
        // split borrows via direct field access.
        let (classes, tasks) = (&mut self.classes, &mut self.tasks);
        classes[ci].update_curr(cpu, tasks.get_mut(pid), productive);
        self.cache
            .run_for(&self.cfg, &self.topo, cpu, pid, productive, warm_rate);
    }

    /// Re-estimate and schedule the segment-completion event of `cpu`.
    fn schedule_completion(&mut self, cpu: CpuId) {
        let idx = cpu.index();
        self.cpus[idx].seg_gen += 1;
        let gen = self.cpus[idx].seg_gen;
        let Some(pid) = self.cpus[idx].curr else {
            return;
        };
        let remaining = self.tasks.get(pid).segment_remaining;
        if remaining == 0 {
            // The segment completed during accounting (e.g. a tick synced
            // right past the estimated completion); fire immediately so
            // the program advances.
            self.queue.schedule(self.now(), Ev::SegDone { cpu, gen });
            return;
        }
        let smt = self.smt_factor(cpu);
        let w0 = self.cache.warmth(&self.topo, cpu, pid);
        let mut dt_s = self.time_for_work(smt, w0, remaining as f64 / 1e9);
        // Pending overheads delay completion by exactly their length.
        dt_s += self.cpus[idx].pending_overhead.as_secs_f64();
        let dt = SimDuration::from_secs_f64(dt_s).max(SimDuration::from_nanos(1));
        self.queue
            .schedule(self.now() + dt, Ev::SegDone { cpu, gen });
    }

    // ---------------------------------------------------------------
    // State transitions
    // ---------------------------------------------------------------

    fn set_task_cpu(&mut self, pid: Pid, to: CpuId, reason: MigrateReason) {
        let from = self.tasks.get(pid).cpu;
        if from == to {
            return;
        }
        self.cache.migrate(&self.cfg, &self.topo, pid, from, to);
        let task = self.tasks.get_mut(pid);
        task.cpu = to;
        // Fork placement of a never-run task is not a migration in
        // perf's accounting... except that the paper explicitly counts
        // "one migration for each MPI task as it is created", matching
        // perf's sched:sched_migrate_task tracepoint which fires in
        // set_task_cpu() during fork placement. We follow the paper.
        task.nr_migrations += 1;
        self.counters.add_sw(to, SwEvent::CpuMigrations, 1);
        if !self.observers.is_empty() {
            self.emit(SchedEvent::Migrate {
                pid,
                from,
                to,
                reason,
            });
        }
        if reason == MigrateReason::Balance {
            self.counters.add_sw(to, SwEvent::LoadBalanceMigrations, 1);
            // The migration thread runs briefly on both CPUs.
            self.cpus[from.index()].pending_overhead += self.cfg.migration_cost;
            self.cpus[to.index()].pending_overhead += self.cfg.migration_cost;
            self.counters.add_hw(
                to,
                HwEvent::CtxSwitchOverheadNs,
                self.cfg.migration_cost.as_nanos(),
            );
        }
    }

    fn enqueue_task(&mut self, cpu: CpuId, pid: Pid, wakeup: bool) {
        let ci = self.class_idx(self.tasks.get(pid));
        let now = self.now();
        let (classes, tasks, cfg, topo, domains) = (
            &mut self.classes,
            &mut self.tasks,
            &self.cfg,
            &self.topo,
            &self.domains,
        );
        let ctx = Self::sched_ctx(cfg, topo, domains, now);
        classes[ci].enqueue(cpu, tasks.get_mut(pid), &ctx, wakeup);
        self.load.nr_running[cpu.index()] += 1;
    }

    fn dequeue_task(&mut self, cpu: CpuId, pid: Pid) {
        let ci = self.class_idx(self.tasks.get(pid));
        let now = self.now();
        let (classes, tasks, cfg, topo, domains) = (
            &mut self.classes,
            &mut self.tasks,
            &self.cfg,
            &self.topo,
            &self.domains,
        );
        let ctx = Self::sched_ctx(cfg, topo, domains, now);
        classes[ci].dequeue(cpu, tasks.get_mut(pid), &ctx);
        self.load.nr_running[cpu.index()] -= 1;
    }

    /// Preemption check after `woken` was enqueued on `cpu`.
    fn check_preempt(&mut self, cpu: CpuId, woken: Pid) {
        let curr = self.cpus[cpu.index()].curr;
        let verdict = match curr {
            None => PreemptVerdict::IdleCpu,
            Some(curr) => {
                let ci_w = self.class_idx(self.tasks.get(woken));
                let ci_c = self.class_idx(self.tasks.get(curr));
                match ci_w.cmp(&ci_c) {
                    std::cmp::Ordering::Less => PreemptVerdict::HigherClass,
                    std::cmp::Ordering::Greater => PreemptVerdict::LowerClass,
                    std::cmp::Ordering::Equal => {
                        let now = self.now();
                        let ctx = Self::sched_ctx(&self.cfg, &self.topo, &self.domains, now);
                        if self.classes[ci_w].wakeup_preempt(
                            cpu,
                            self.tasks.get(curr),
                            self.tasks.get(woken),
                            &ctx,
                        ) {
                            PreemptVerdict::Granted
                        } else {
                            PreemptVerdict::Denied
                        }
                    }
                }
            }
        };
        if verdict.preempts() {
            self.resched[cpu.index()] = true;
        }
        if !self.observers.is_empty() {
            self.emit(SchedEvent::PreemptCheck {
                cpu,
                curr,
                woken,
                verdict,
            });
        }
    }

    /// Wake a blocked task: placement, enqueue, preemption, RT push.
    fn wake_task(&mut self, pid: Pid) {
        let state = self.tasks.get(pid).state;
        if !matches!(state, TaskState::Blocked(_)) {
            return; // stale timer, task died, or already woken
        }
        let now = self.now();
        {
            let t = self.tasks.get_mut(pid);
            t.state = TaskState::Runnable;
            t.last_wakeup = now;
        }
        let ci = self.class_idx(self.tasks.get(pid));
        let target = {
            let (classes, tasks, cfg, topo, domains, load) = (
                &mut self.classes,
                &self.tasks,
                &self.cfg,
                &self.topo,
                &self.domains,
                &self.load,
            );
            let ctx = Self::sched_ctx(cfg, topo, domains, now);
            classes[ci].select_cpu_wakeup(tasks.get(pid), &ctx, load, tasks)
        };
        if std::env::var_os("HPL_TRACE_WAKE").is_some() {
            eprintln!(
                "[{}] wake {} ({}) prev=cpu{} -> cpu{} nr_running={:?}",
                self.now(),
                pid,
                self.tasks.get(pid).name,
                self.tasks.get(pid).cpu.0,
                target.0,
                self.load.nr_running
            );
        }
        self.counters.add_sw(target, SwEvent::Wakeups, 1);
        if !self.observers.is_empty() {
            self.emit(SchedEvent::Wakeup { pid, cpu: target });
            if self.tasks.get(pid).tag == Some(NOISE_TAG) {
                self.emit(SchedEvent::NoiseArrival { pid, cpu: target });
            }
        }
        self.set_task_cpu(pid, target, MigrateReason::Wakeup);
        self.enqueue_task(target, pid, true);
        self.check_preempt(target, pid);
        // RT overload push.
        if self.cfg.balance == BalanceMode::Full && self.classes[ci].kind() == ClassKind::RealTime {
            let mut plans = std::mem::take(&mut self.plan_buf);
            plans.clear();
            {
                let (classes, tasks, cfg, topo, domains, load) = (
                    &mut self.classes,
                    &self.tasks,
                    &self.cfg,
                    &self.topo,
                    &self.domains,
                    &self.load,
                );
                let ctx = Self::sched_ctx(cfg, topo, domains, now);
                classes[ci].push_overload(target, &ctx, load, tasks, &mut plans);
            }
            let applied = self.apply_migrations(&plans);
            if !self.observers.is_empty() {
                self.emit(SchedEvent::Balance {
                    cpu: target,
                    kind: BalanceKind::RtPush,
                    migrations: applied,
                });
            }
            plans.clear();
            self.plan_buf = plans;
        }
    }

    /// Apply balance-produced migrations after validation.
    fn apply_migrations(&mut self, plans: &[MigrationPlan]) -> u32 {
        let mut applied = 0;
        for &plan in plans {
            let t = self.tasks.get(plan.pid);
            let running_here = t.state == TaskState::Running
                && self.cpus[plan.from.index()].curr == Some(plan.pid);
            let queued_here = t.state == TaskState::Runnable
                && t.cpu == plan.from
                && self.cpus[plan.from.index()].curr != Some(plan.pid);
            if !(queued_here || (plan.active && running_here))
                || !t.can_run_on(plan.to)
                || plan.from == plan.to
            {
                continue;
            }
            if running_here {
                // Active balance: the migration thread preempts the
                // running task and carries it over — a forced context
                // switch on the source CPU.
                let now = self.now();
                self.sync_cpu(plan.from, now);
                let t = self.tasks.get_mut(plan.pid);
                t.state = TaskState::Runnable;
                t.last_descheduled = now;
                self.set_curr(plan.from, None);
                self.counters.add_sw(plan.from, SwEvent::ContextSwitches, 1);
                self.counters
                    .add_sw(plan.from, SwEvent::InvoluntaryPreemptions, 1);
                self.resched[plan.from.index()] = true;
                // Running tasks are not in any class queue: skip dequeue.
                self.set_task_cpu(plan.pid, plan.to, MigrateReason::Balance);
                self.tasks.get_mut(plan.pid).last_wakeup = self.now();
                self.enqueue_task(plan.to, plan.pid, false);
                self.check_preempt(plan.to, plan.pid);
                self.recomp[plan.from.index()] = true;
                self.recomp[plan.to.index()] = true;
                applied += 1;
                continue;
            }
            self.dequeue_task(plan.from, plan.pid);
            self.set_task_cpu(plan.pid, plan.to, MigrateReason::Balance);
            // A freshly moved task restarts its sustained-wait clock, so
            // competing balance passes do not ping-pong it.
            self.tasks.get_mut(plan.pid).last_wakeup = self.now();
            self.enqueue_task(plan.to, plan.pid, false);
            self.check_preempt(plan.to, plan.pid);
            self.recomp[plan.from.index()] = true;
            self.recomp[plan.to.index()] = true;
            applied += 1;
        }
        applied
    }

    /// Create and place a task. `parent` is `None` for boot/harness
    /// spawns.
    fn create_task(&mut self, parent: Option<Pid>, spec: TaskSpec) -> Pid {
        let now = self.now();
        let affinity = if spec.affinity.is_empty() {
            self.topo.all_cpus()
        } else {
            spec.affinity
        };
        let parent_cpu = parent.map_or(CpuId(0), |p| self.tasks.get(p).cpu);
        let parent_vruntime = parent.map_or(0, |p| self.tasks.get(p).vruntime);
        let parent_gang = parent.and_then(|p| self.tasks.get(p).gang);
        let pid = self.tasks.alloc(|pid| {
            let mut t = Task::new(pid, spec.name.clone(), spec.policy, affinity);
            t.program = Some(spec.program);
            t.parent = parent;
            t.tag = spec.tag;
            t.cpu = parent_cpu;
            t.vruntime = parent_vruntime;
            t.gang = parent_gang;
            t
        });
        if let Some(p) = parent {
            self.tasks.get_mut(p).alive_children += 1;
        }
        if let Some(g) = parent_gang {
            // The parent holds a reference, so the gang set (and with it
            // the rotation) is unchanged: bump the count only.
            *self.gang_refs.entry(g).or_insert(0) += 1;
        }
        self.counters.add_sw(parent_cpu, SwEvent::Forks, 1);
        // Fork placement through the class's fork balancer.
        let ci = self.class_idx(self.tasks.get(pid));
        let target = {
            let (classes, tasks, cfg, topo, domains, load) = (
                &mut self.classes,
                &self.tasks,
                &self.cfg,
                &self.topo,
                &self.domains,
                &self.load,
            );
            let ctx = Self::sched_ctx(cfg, topo, domains, now);
            classes[ci].select_cpu_fork(tasks.get(pid), parent_cpu, &ctx, load, tasks)
        };
        if !self.observers.is_empty() {
            self.emit(SchedEvent::SetSched {
                pid,
                from: None,
                to: spec.policy,
            });
            self.emit(SchedEvent::ForkPlaced {
                pid,
                parent,
                cpu: target,
            });
        }
        self.set_task_cpu(pid, target, MigrateReason::Fork);
        self.enqueue_task(target, pid, false);
        self.check_preempt(target, pid);
        pid
    }

    /// Spawn a task from outside the simulation (harness API). Drains
    /// pending reschedules so the task may start immediately.
    pub fn spawn(&mut self, spec: TaskSpec) -> Pid {
        let pid = self.create_task(None, spec);
        self.drain();
        pid
    }

    /// Forcibly terminate `root` and every live descendant (harness
    /// API) — the kernel half of a runtime-level job abort: when a peer
    /// node crashes, surviving nodes reap the job's local task tree so
    /// orphaned ranks cannot keep spinning on (and distorting placement
    /// across) this node's CPUs. Each member gets ordinary — if abrupt
    /// — exit accounting: `exited_at` stamped, sync waits forgotten,
    /// child bookkeeping propagated to parents outside the tree.
    /// Returns the number of tasks killed. Must be called between
    /// events (a window boundary), like every harness API.
    pub fn kill_tree(&mut self, root: Pid) -> usize {
        // Parent-before-child order, so an in-tree parent is already
        // dead when its child's exit bookkeeping runs and is never
        // spuriously woken from a `Children` wait.
        let mut members = vec![root];
        let mut i = 0;
        while i < members.len() {
            let p = members[i];
            members.extend(
                self.tasks
                    .iter()
                    .filter(|t| t.parent == Some(p) && t.state != TaskState::Dead)
                    .map(|t| t.pid),
            );
            i += 1;
        }
        let now = self.now();
        let mut killed = 0;
        for &pid in &members {
            let (state, cpu) = {
                let t = self.tasks.get(pid);
                (t.state, t.cpu)
            };
            match state {
                TaskState::Dead => continue,
                TaskState::Running => {
                    // Yank it off its CPU mid-segment (the affinity
                    // path's forced-migration dance, minus the requeue).
                    self.sync_cpu(cpu, now);
                    self.set_curr(cpu, None);
                    self.counters.add_sw(cpu, SwEvent::ContextSwitches, 1);
                    self.resched[cpu.index()] = true;
                    self.recomp[cpu.index()] = true;
                }
                TaskState::Runnable => {
                    debug_assert_ne!(
                        self.cpus[cpu.index()].curr,
                        Some(pid),
                        "between events a CPU's current task is Running"
                    );
                    self.dequeue_task(cpu, pid);
                }
                TaskState::Blocked(_) => {}
            }
            {
                let t = self.tasks.get_mut(pid);
                t.state = TaskState::Dead;
                t.exited_at = Some(now);
                t.spin = None;
            }
            if !self.observers.is_empty() {
                self.emit(SchedEvent::Deactivate {
                    pid,
                    cpu,
                    reason: DeactivateReason::Exit,
                });
            }
            self.sync.forget(pid);
            self.cache.forget(pid);
            self.gang_release(pid);
            if let Some(pp) = self.tasks.get(pid).parent {
                let p = self.tasks.get_mut(pp);
                p.alive_children = p.alive_children.saturating_sub(1);
                if p.alive_children == 0 && p.state == TaskState::Blocked(BlockReason::Children) {
                    self.wake_task(pp);
                }
            }
            killed += 1;
        }
        self.exits += killed as u64;
        self.drain();
        killed
    }

    /// Exit the current task `pid`.
    fn do_exit(&mut self, pid: Pid) {
        let now = self.now();
        {
            let t = self.tasks.get_mut(pid);
            debug_assert_eq!(t.state, TaskState::Running, "only the current task exits");
            t.state = TaskState::Dead;
            t.exited_at = Some(now);
        }
        self.exits += 1;
        if !self.observers.is_empty() {
            let cpu = self.tasks.get(pid).cpu;
            self.emit(SchedEvent::Deactivate {
                pid,
                cpu,
                reason: DeactivateReason::Exit,
            });
        }
        self.sync.forget(pid);
        self.cache.forget(pid);
        self.gang_release(pid);
        let parent = self.tasks.get(pid).parent;
        if let Some(pp) = parent {
            let p = self.tasks.get_mut(pp);
            p.alive_children = p.alive_children.saturating_sub(1);
            if p.alive_children == 0 && p.state == TaskState::Blocked(BlockReason::Children) {
                self.wake_task(pp);
            }
        }
        let cpu = self.tasks.get(pid).cpu;
        self.resched[cpu.index()] = true;
    }

    /// Block the current task of `cpu` for `reason`.
    fn block_curr(&mut self, cpu: CpuId, pid: Pid, reason: BlockReason) {
        debug_assert_eq!(self.cpus[cpu.index()].curr, Some(pid));
        self.tasks.get_mut(pid).state = TaskState::Blocked(reason);
        if !self.observers.is_empty() {
            self.emit(SchedEvent::Deactivate {
                pid,
                cpu,
                reason: DeactivateReason::Block,
            });
        }
        self.resched[cpu.index()] = true;
    }

    /// Deliver a satisfied wait to `pid` (woken from block, or spin
    /// cancelled).
    fn deliver(&mut self, pid: Pid, how: Waiting) {
        match how {
            Waiting::Blocked => self.wake_task(pid),
            Waiting::Spinning => {
                let t = self.tasks.get_mut(pid);
                debug_assert!(t.spin.is_some(), "{pid} delivered spin it doesn't hold");
                t.spin = None;
                t.segment_remaining = 0;
                let cpu = t.cpu;
                if self.cpus[cpu.index()].curr == Some(pid) {
                    // Spinning right now: settle accounting then advance.
                    self.sync_cpu(cpu, self.now());
                    self.tasks.get_mut(pid).segment_remaining = 0;
                    self.advance_program(pid, cpu);
                    self.recomp[cpu.index()] = true;
                } else {
                    // Preempted mid-spin and now satisfied: its wait is
                    // over, so route it through wakeup placement exactly
                    // like a blocked waiter. Leaving it queued where it
                    // was preempted could strand it behind the current
                    // task — fatal under FIFO, which never timeslices.
                    debug_assert_eq!(self.tasks.get(pid).state, TaskState::Runnable);
                    self.dequeue_task(cpu, pid);
                    self.tasks.get_mut(pid).state = TaskState::Blocked(BlockReason::Timer);
                    if !self.observers.is_empty() {
                        // The transient block must be visible to
                        // observers, or the Wakeup below would arrive
                        // for a task they believe is still runnable.
                        self.emit(SchedEvent::Deactivate {
                            pid,
                            cpu,
                            reason: DeactivateReason::Block,
                        });
                    }
                    self.wake_task(pid);
                }
            }
        }
    }

    /// Run the program of the current task `pid` on `cpu` until it
    /// produces a segment, blocks, or exits.
    fn advance_program(&mut self, pid: Pid, cpu: CpuId) {
        debug_assert!(
            !self.advancing.contains(&pid),
            "re-entrant advance of {pid}"
        );
        self.advancing.push(pid);
        loop {
            debug_assert_eq!(self.tasks.get(pid).state, TaskState::Running);
            let mut program = self
                .tasks
                .get_mut(pid)
                .program
                .take()
                .expect("running task has a program");
            let step = {
                let mut ctx = ProgCtx {
                    pid,
                    now: self.now(),
                    rng: &mut self.rng,
                };
                program.next_step(&mut ctx)
            };
            self.tasks.get_mut(pid).program = Some(program);
            match step {
                Step::Compute(work) => {
                    self.tasks.get_mut(pid).segment_remaining = work.as_nanos().max(1);
                    self.recomp[cpu.index()] = true;
                    break;
                }
                Step::Sleep(dur) => {
                    self.block_curr(cpu, pid, BlockReason::Timer);
                    self.queue.schedule(self.now() + dur, Ev::TimerWake(pid));
                    break;
                }
                Step::WaitChan(chan) => match self.sync.wait(chan, pid) {
                    WaitOutcome::Proceed => continue,
                    WaitOutcome::Wait => {
                        self.block_curr(cpu, pid, BlockReason::Chan(chan));
                        break;
                    }
                },
                Step::WaitChanSpin { chan, spin_limit } => match self.sync.spin_wait(chan, pid) {
                    WaitOutcome::Proceed => continue,
                    WaitOutcome::Wait => {
                        let t = self.tasks.get_mut(pid);
                        t.spin = Some(SpinTarget::Chan(chan));
                        t.segment_remaining = spin_limit.as_nanos().max(1);
                        self.recomp[cpu.index()] = true;
                        break;
                    }
                },
                Step::Notify { chan, tokens } => {
                    let satisfied = self.sync.notify(chan, tokens);
                    for (p, how) in satisfied {
                        self.deliver(p, how);
                    }
                    continue;
                }
                Step::NetSend {
                    chan,
                    tokens,
                    bytes,
                } => {
                    if self.net_external.contains(&chan) {
                        self.outbound.push(NetMsg {
                            at: self.now(),
                            chan,
                            tokens,
                            bytes,
                        });
                        if !self.observers.is_empty() {
                            self.emit(SchedEvent::NetSend {
                                pid,
                                cpu,
                                chan,
                                tokens,
                                bytes,
                            });
                        }
                    } else {
                        // Same-node consumer: shared-memory fast path,
                        // identical to a plain notify.
                        let satisfied = self.sync.notify(chan, tokens);
                        for (p, how) in satisfied {
                            self.deliver(p, how);
                        }
                    }
                    continue;
                }
                Step::Barrier { id, parties } => {
                    match self.sync.barrier_arrive(id, parties, pid, false) {
                        Some(released) => {
                            for (p, how) in released {
                                self.deliver(p, how);
                            }
                            continue;
                        }
                        None => {
                            self.block_curr(cpu, pid, BlockReason::Barrier(id));
                            break;
                        }
                    }
                }
                Step::BarrierSpin {
                    id,
                    parties,
                    spin_limit,
                } => match self.sync.barrier_arrive(id, parties, pid, true) {
                    Some(released) => {
                        for (p, how) in released {
                            self.deliver(p, how);
                        }
                        continue;
                    }
                    None => {
                        let t = self.tasks.get_mut(pid);
                        t.spin = Some(SpinTarget::Barrier(id));
                        t.segment_remaining = spin_limit.as_nanos().max(1);
                        self.recomp[cpu.index()] = true;
                        break;
                    }
                },
                Step::Fork(spec) => {
                    self.create_task(Some(pid), spec);
                    continue;
                }
                Step::SetPolicy { target, policy } => {
                    let target = target.unwrap_or(pid);
                    self.set_policy(target, policy);
                    continue;
                }
                Step::SetAffinity { target, mask } => {
                    let target = target.unwrap_or(pid);
                    self.set_affinity(target, mask);
                    continue;
                }
                Step::WaitChildren => {
                    if self.tasks.get(pid).alive_children == 0 {
                        continue;
                    }
                    self.block_curr(cpu, pid, BlockReason::Children);
                    break;
                }
                Step::Exit => {
                    self.do_exit(pid);
                    break;
                }
                Step::Emit(ev) => {
                    // Observability annotation from user-space (the
                    // coord arbiter's lease grants). Observers are pure
                    // sinks, so this cannot perturb the simulation; it
                    // costs nothing when no sink is attached.
                    if !self.observers.is_empty() {
                        self.emit(ev);
                    }
                    continue;
                }
            }
        }
        let popped = self.advancing.pop();
        debug_assert_eq!(popped, Some(pid));
    }

    /// `sched_setscheduler`: move a task between scheduling classes.
    pub fn set_policy(&mut self, pid: Pid, policy: crate::task::Policy) {
        assert!(
            self.supports_policy(policy),
            "no scheduling class registered for {policy:?}"
        );
        let state = self.tasks.get(pid).state;
        if !self.observers.is_empty() {
            let from = self.tasks.get(pid).policy;
            self.emit(SchedEvent::SetSched {
                pid,
                from: Some(from),
                to: policy,
            });
        }
        match state {
            TaskState::Runnable => {
                // Dequeue under the old class, switch, re-enqueue.
                let cpu = self.tasks.get(pid).cpu;
                self.dequeue_task(cpu, pid);
                self.tasks.get_mut(pid).set_policy(policy);
                self.enqueue_task(cpu, pid, false);
                self.check_preempt(cpu, pid);
            }
            TaskState::Running => {
                // Takes effect at the next reschedule: put_prev will file
                // the task under its new class.
                let cpu = self.tasks.get(pid).cpu;
                self.tasks.get_mut(pid).set_policy(policy);
                self.resched[cpu.index()] = true;
            }
            TaskState::Blocked(_) | TaskState::Dead => {
                self.tasks.get_mut(pid).set_policy(policy);
            }
        }
        // If the task is some CPU's current, the load view's class/prio
        // of that CPU just changed in place.
        let cpu = self.tasks.get(pid).cpu;
        if self.cpus[cpu.index()].curr == Some(pid) {
            self.load.curr_kind[cpu.index()] = Some(class_of_policy(policy));
            self.load.curr_rt_prio[cpu.index()] = policy.rt_prio().unwrap_or(0);
        }
    }

    /// `sched_setaffinity`: restrict a task to a CPU mask.
    pub fn set_affinity(&mut self, pid: Pid, mask: CpuMask) {
        assert!(!mask.is_empty(), "affinity mask must be non-empty");
        let state = self.tasks.get(pid).state;
        let cpu = self.tasks.get(pid).cpu;
        self.tasks.get_mut(pid).affinity = mask;
        if mask.contains(cpu) {
            return;
        }
        let dest = mask.first().expect("non-empty mask");
        match state {
            TaskState::Runnable => {
                if self.cpus[cpu.index()].curr == Some(pid) {
                    unreachable!("runnable-but-current handled in Running arm");
                }
                self.dequeue_task(cpu, pid);
                self.set_task_cpu(pid, dest, MigrateReason::Affinity);
                self.enqueue_task(dest, pid, false);
                self.check_preempt(dest, pid);
            }
            TaskState::Running => {
                // Force off this CPU at the next reschedule point: mark
                // and move immediately (the migration thread would do
                // this synchronously in Linux).
                self.sync_cpu(cpu, self.now());
                self.tasks.get_mut(pid).state = TaskState::Runnable;
                self.set_curr(cpu, None);
                self.counters.add_sw(cpu, SwEvent::ContextSwitches, 1);
                self.set_task_cpu(pid, dest, MigrateReason::Affinity);
                self.enqueue_task(dest, pid, false);
                self.check_preempt(dest, pid);
                self.resched[cpu.index()] = true;
                self.recomp[cpu.index()] = true;
            }
            TaskState::Blocked(_) => {
                // Placement fixed at wakeup; just update the stored CPU
                // so select_cpu_wakeup starts from a legal one.
                self.set_task_cpu(pid, dest, MigrateReason::Affinity);
            }
            TaskState::Dead => {}
        }
    }

    // ---------------------------------------------------------------
    // Gang co-scheduling
    // ---------------------------------------------------------------

    /// Enroll `pid` — and, through fork inheritance, every descendant
    /// it creates from now on — in gang `gang`. Harness API, called
    /// between events: the cluster driver enrolls each job's local
    /// root when [`KernelConfig::gang_epoch`] is set, so all of a
    /// job's ranks on a node share one gang id (the job id). Without
    /// the config knob the tag is inert bookkeeping.
    pub fn gang_enroll(&mut self, pid: Pid, gang: u64) {
        if self.tasks.get(pid).gang == Some(gang) {
            return;
        }
        self.gang_release(pid);
        self.tasks.get_mut(pid).gang = Some(gang);
        *self.gang_refs.entry(gang).or_insert(0) += 1;
        self.gang_recompute();
        self.drain();
    }

    /// Enroll `pid` in gang `gang` with an explicit milli-CPU share —
    /// [`Self::gang_enroll`] followed by [`Self::gang_set_share`] in
    /// one call (the form the coord runtime uses at job launch).
    pub fn gang_enroll_shared(&mut self, pid: Pid, gang: u64, share_milli: u32) {
        self.gang_enroll(pid, gang);
        self.gang_set_share(gang, share_milli);
    }

    /// Set gang `gang`'s milli-CPU share for weighted slicing. While
    /// any share is set, each gang's slice of the rotation period is
    /// proportional to its share (gangs without an entry weigh the
    /// default 1000), computed by [`crate::gang::weighted_slices`] —
    /// still a pure function of the shared virtual clock, so lockstep
    /// nodes with the same gangs and shares stay aligned without
    /// messages. Equal shares reproduce the unweighted rotation's
    /// boundaries exactly; an empty table takes the legacy code path
    /// byte for byte. Shares of gangs whose last member exits are
    /// pruned automatically.
    pub fn gang_set_share(&mut self, gang: u64, share_milli: u32) {
        assert!(share_milli > 0, "gang share must be non-zero");
        if self.gang_shares.insert(gang, share_milli) == Some(share_milli) {
            return;
        }
        self.gang_recompute();
        self.drain();
    }

    /// The milli-CPU share of `gang` (1000 when unset — the weighted
    /// slicer's default weight).
    pub fn gang_share(&self, gang: u64) -> u32 {
        self.gang_shares.get(&gang).copied().unwrap_or(1000)
    }

    /// The gang currently allowed to run (`None` = no rotation in
    /// force: fewer than two gangs live, or no epoch configured).
    pub fn gang_active(&self) -> Option<u64> {
        self.gang_active
    }

    /// Number of live gangs enrolled on this node.
    pub fn gang_count(&self) -> usize {
        self.gang_refs.len()
    }

    /// Drop `pid`'s gang membership (exit/kill path). When the last
    /// member of a gang leaves, the gang disappears from the rotation
    /// immediately: the survivors re-derive the active slot from the
    /// clock, so a dead job cannot hold its timeslice until the next
    /// epoch boundary.
    fn gang_release(&mut self, pid: Pid) {
        let Some(g) = self.tasks.get(pid).gang else {
            return;
        };
        self.tasks.get_mut(pid).gang = None;
        let n = self
            .gang_refs
            .get_mut(&g)
            .expect("released gang is enrolled");
        *n -= 1;
        if *n == 0 {
            self.gang_refs.remove(&g);
            // A dead gang's share must not keep skewing the rotation
            // (job ids are never recycled, so the entry is garbage).
            self.gang_shares.remove(&g);
        }
        self.gang_recompute();
    }

    /// Re-derive the active gang from the clock and the live gang set,
    /// notify classes and observers on a change, and keep the epoch
    /// event armed. The active gang is a pure function of virtual
    /// time, the gang set and the epoch length —
    /// `sorted_gangs[(t / epoch) % count]` — with no per-node phase
    /// state, so every node that shares the virtual clock (lockstep
    /// co-simulation) and the co-resident set switches the same gang
    /// in the same window without exchanging any messages.
    fn gang_recompute(&mut self) {
        let epoch = self.cfg.gang_epoch;
        // (desired active gang, next boundary in ns if rotation is in
        // force). The weighted path runs only while a share is set, so
        // share-free nodes execute exactly the legacy computation.
        let (desired, boundary) = match epoch {
            Some(len) if self.gang_refs.len() >= 2 => {
                if self.gang_shares.is_empty() {
                    let k = self.now().as_nanos() / len.as_nanos();
                    let idx = (k % self.gang_refs.len() as u64) as usize;
                    (
                        self.gang_refs.keys().nth(idx).copied(),
                        Some((k + 1) * len.as_nanos()),
                    )
                } else {
                    let gangs: Vec<(u64, u32)> = self
                        .gang_refs
                        .keys()
                        .map(|&g| (g, self.gang_shares.get(&g).copied().unwrap_or(1000)))
                        .collect();
                    let (active, next) =
                        crate::gang::active_at(self.now().as_nanos(), len.as_nanos(), &gangs);
                    (Some(active), Some(next))
                }
            }
            _ => (None, None),
        };
        if desired != self.gang_active {
            self.gang_active = desired;
            let mut affects_pick = false;
            for c in self.classes.iter_mut() {
                affects_pick |= c.gang_epoch(desired);
            }
            if affects_pick {
                for r in self.resched.iter_mut() {
                    *r = true;
                }
            }
            if !self.observers.is_empty() {
                self.emit(SchedEvent::GangEpoch {
                    active: desired,
                    gangs: self.gang_refs.len() as u32,
                });
            }
        }
        // Weighted slicing publishes one GangSlice per slice — keyed on
        // (gang, boundary) so mid-slice recomputes don't re-emit, and a
        // share change that *moves* the boundary emits the corrected
        // remainder. Absent in the unweighted path, so share-free runs
        // keep their observer streams bit-identical.
        if !self.gang_shares.is_empty() && !self.observers.is_empty() {
            if let (Some(g), Some(b)) = (desired, boundary) {
                if self.gang_slice_mark != Some((g, b)) {
                    self.gang_slice_mark = Some((g, b));
                    self.emit(SchedEvent::GangSlice {
                        gang: g,
                        share_milli: self.gang_shares.get(&g).copied().unwrap_or(1000),
                        slice_ns: b - self.now().as_nanos(),
                        gangs: self.gang_refs.len() as u32,
                    });
                }
            }
        }
        if let Some(next_ns) = boundary {
            // Arm the next slice boundary. The legacy path arms only
            // when nothing is pending (one outstanding event, exactly
            // as before); the weighted path additionally arms when a
            // share change moved the boundary *earlier* than the
            // pending event — the stale later event recomputes
            // harmlessly when it fires.
            if self.gang_armed.is_none_or(|armed| next_ns < armed) {
                self.queue.schedule(
                    SimTime::ZERO + SimDuration::from_nanos(next_ns),
                    Ev::GangEpoch,
                );
                self.gang_armed = Some(next_ns);
            }
        }
    }

    fn on_gang_epoch(&mut self) {
        self.gang_armed = None;
        self.gang_recompute();
    }

    // ---------------------------------------------------------------
    // Scheduler core
    // ---------------------------------------------------------------

    /// `__schedule()`: put back the previous task, pick the next one
    /// (with new-idle balancing if all classes are empty), account the
    /// context switch, and start the program if needed.
    fn schedule(&mut self, cpu: CpuId) {
        let now = self.now();
        self.sync_cpu(cpu, now);
        let idx = cpu.index();
        let mut prev = self.cpus[idx].curr;
        if let Some(p) = prev {
            // A prev that blocked here may have been woken and placed on
            // another CPU before this reschedule ran — it may even be
            // running there already. It is no longer this CPU's task:
            // requeueing it here would run it on two CPUs at once (and
            // exit it twice).
            if self.tasks.get(p).cpu != cpu {
                prev = None;
            }
        }
        let prev_occupied = prev.is_some();

        if let Some(p) = prev {
            self.tasks.get_mut(p).last_descheduled = now;
            if self.tasks.get(p).state == TaskState::Running {
                self.tasks.get_mut(p).state = TaskState::Runnable;
                let ci = self.class_idx(self.tasks.get(p));
                let (classes, tasks, cfg, topo, domains) = (
                    &mut self.classes,
                    &mut self.tasks,
                    &self.cfg,
                    &self.topo,
                    &self.domains,
                );
                let ctx = Self::sched_ctx(cfg, topo, domains, now);
                classes[ci].put_prev(cpu, tasks.get_mut(p), &ctx);
                // put_prev re-inserted the (runnable) task into its
                // class queue: the queue side of the load view grows.
                self.load.nr_running[idx] += 1;
            }
        }
        self.set_curr(cpu, None);

        let mut picked = self.pick_from_classes(cpu);
        let mut via_idle_balance = false;
        if picked.is_none() && self.cfg.balance == BalanceMode::Full {
            // New-idle balance: classes in priority order.
            self.counters.add_sw(cpu, SwEvent::LoadBalanceCalls, 1);
            self.cpus[idx].pending_overhead += self.cfg.balance_cost;
            let mut plans = std::mem::take(&mut self.plan_buf);
            let mut pulled = 0;
            for ci in 0..self.classes.len() {
                plans.clear();
                {
                    let (classes, tasks, cfg, topo, domains, load) = (
                        &mut self.classes,
                        &self.tasks,
                        &self.cfg,
                        &self.topo,
                        &self.domains,
                        &self.load,
                    );
                    let ctx = Self::sched_ctx(cfg, topo, domains, now);
                    classes[ci].idle_balance(cpu, &ctx, load, tasks, &mut plans);
                }
                let applied = self.apply_migrations(&plans);
                pulled += applied;
                if applied > 0 {
                    picked = self.pick_from_classes(cpu);
                    if picked.is_some() {
                        via_idle_balance = true;
                        break;
                    }
                }
            }
            plans.clear();
            self.plan_buf = plans;
            if !self.observers.is_empty() {
                self.emit(SchedEvent::Balance {
                    cpu,
                    kind: BalanceKind::NewIdle,
                    migrations: pulled,
                });
            }
        }

        if let Some(pid) = picked {
            self.tasks.get_mut(pid).state = TaskState::Running;
            self.set_curr(cpu, Some(pid));
        }
        if !self.observers.is_empty() {
            let class = picked.map(|p| class_of_policy(self.tasks.get(p).policy));
            let prev_vruntime = prev.and_then(|p| {
                let t = self.tasks.get(p);
                (class_of_policy(t.policy) == ClassKind::Fair).then_some(t.vruntime)
            });
            self.emit(SchedEvent::Pick {
                cpu,
                prev,
                picked,
                class,
                via_idle_balance,
                prev_vruntime,
            });
        }

        let new = self.cpus[idx].curr;
        if prev != new {
            if !self.observers.is_empty() {
                self.emit(SchedEvent::Switch {
                    cpu,
                    from: prev,
                    to: new,
                });
                // Per-gang CPU-time attribution: while any gang is
                // live, tag each switch with the incoming task's gang
                // so MetricsSink can integrate busy time per gang.
                // Gang-free runs emit nothing — their observer streams
                // stay bit-identical.
                if !self.gang_refs.is_empty() {
                    let gang = new.and_then(|p| self.tasks.get(p).gang);
                    self.emit(SchedEvent::GangRun { cpu, gang });
                }
            }
            self.counters.add_sw(cpu, SwEvent::ContextSwitches, 1);
            self.cpus[idx].pending_overhead += self.cfg.ctx_switch_cost;
            self.counters.add_hw(
                cpu,
                HwEvent::CtxSwitchOverheadNs,
                self.cfg.ctx_switch_cost.as_nanos(),
            );
            if let Some(p) = prev {
                match self.tasks.get(p).state {
                    TaskState::Blocked(_) | TaskState::Dead => {
                        self.counters.add_sw(cpu, SwEvent::VoluntarySwitches, 1)
                    }
                    _ => self
                        .counters
                        .add_sw(cpu, SwEvent::InvoluntaryPreemptions, 1),
                }
            }
            if let Some(n) = new {
                let t = self.tasks.get_mut(n);
                t.ran_since_pick = SimDuration::ZERO;
                t.nr_switches += 1;
            }
        }

        // Occupancy transitions change the SMT speed of siblings.
        if prev_occupied != new.is_some() {
            for sib in self.topo.smt_siblings(cpu).iter() {
                if sib != cpu {
                    self.sync_cpu(sib, now);
                    self.recomp[sib.index()] = true;
                }
            }
        }
        self.recomp[idx] = true;

        if let Some(pid) = new {
            let t = self.tasks.get(pid);
            if t.segment_remaining == 0 && t.spin.is_none() {
                self.advance_program(pid, cpu);
            }
        }
    }

    fn pick_from_classes(&mut self, cpu: CpuId) -> Option<Pid> {
        for c in self.classes.iter_mut() {
            if let Some(pid) = c.pick_next(cpu, &self.tasks) {
                // pick_next removed the pid from its class queue; the
                // caller re-adds it through set_curr when it installs
                // the task as current.
                self.load.nr_running[cpu.index()] -= 1;
                return Some(pid);
            }
        }
        None
    }

    /// Drain pending reschedules and completion re-estimates.
    fn drain(&mut self) {
        while let Some(idx) = self.resched.iter().position(|&r| r) {
            self.resched[idx] = false;
            self.schedule(CpuId(idx as u32));
        }
        for idx in 0..self.recomp.len() {
            if self.recomp[idx] {
                self.recomp[idx] = false;
                self.schedule_completion(CpuId(idx as u32));
            }
        }
        #[cfg(debug_assertions)]
        self.assert_load_consistent();
    }

    /// Would this CPU's timer tick, fired at `now`, be a provable no-op
    /// (beyond counting itself)? True for an idle CPU and — under
    /// `tickless_single_hpc` — for a CPU whose lone HPC task's class
    /// says the tick is skippable; in both cases only when no periodic
    /// balance level is due, since balancing observes and mutates
    /// cross-CPU state.
    fn tick_is_quiescent(&self, cpu: CpuId, now: SimTime) -> bool {
        if self.cfg.balance == BalanceMode::Full && self.balance_clock.any_due(cpu, now) {
            return false;
        }
        // The incremental load view answers "is anything queued?" in
        // O(1): `nr_running` counts the current task plus every queued
        // task across classes (debug builds cross-check it in `drain`).
        let idx = cpu.index();
        match self.cpus[idx].curr {
            // NOHZ idle: the tick only settles an idle clock.
            None => self.load.nr_running[idx] == 0,
            Some(pid) => {
                if !self.cfg.tickless_single_hpc || self.load.nr_running[idx] != 1 {
                    return false;
                }
                let t = self.tasks.get(pid);
                t.policy == crate::task::Policy::Hpc
                    && self.classes[self.class_idx(t)].tick_skippable(cpu, t)
            }
        }
    }

    // ---------------------------------------------------------------
    // Event handlers
    // ---------------------------------------------------------------

    fn on_tick(&mut self, cpu: CpuId) {
        let now = self.now();
        let idx = cpu.index();

        // Quiescent fast path: the tick is a provable no-op, so count it
        // and return. An idle CPU's skipped sync_cpu is exact (its
        // pending overhead is absorbed at the next sync-before-pick); a
        // lone tickless-HPC task's accounting is settled in one lump at
        // its next real event instead of per tick. Shared by both event
        // paths so fast and reference runs stay byte-identical.
        if self.tick_is_quiescent(cpu, now) {
            self.counters.add_sw(cpu, SwEvent::TimerTicks, 1);
            if !self.observers.is_empty() {
                self.emit(SchedEvent::Tick {
                    cpu,
                    outcome: TickOutcome::Quiescent,
                });
            }
            if !self.cfg.fast_event_loop {
                self.queue
                    .schedule(now + self.cfg.tick_period, Ev::Tick(cpu));
            }
            return;
        }

        self.sync_cpu(cpu, now);
        self.counters.add_sw(cpu, SwEvent::TimerTicks, 1);

        // Tick handler cost (micro-noise). Idle CPUs are always tickless
        // (NOHZ idle, standard since well before 2.6.34); the
        // NETTICK-style option extends that to CPUs running exactly one
        // HPC task.
        let tickless = self.cpus[idx].curr.is_none()
            || (self.cfg.tickless_single_hpc
                && self.cpus[idx]
                    .curr
                    .is_some_and(|pid| self.tasks.get(pid).policy == crate::task::Policy::Hpc)
                && self.classes.iter().map(|c| c.nr_queued(cpu)).sum::<u32>() == 0);
        if !tickless {
            self.cpus[idx].pending_overhead += self.cfg.tick_cost;
            self.counters
                .add_hw(cpu, HwEvent::TickOverheadNs, self.cfg.tick_cost.as_nanos());
            self.recomp[idx] = true;
        }

        // Scheduler-class tick (slice expiry etc.).
        let mut tick_resched = false;
        if let Some(pid) = self.cpus[idx].curr {
            let ci = self.class_idx(self.tasks.get(pid));
            let need = {
                let (classes, tasks, cfg, topo, domains) = (
                    &mut self.classes,
                    &mut self.tasks,
                    &self.cfg,
                    &self.topo,
                    &self.domains,
                );
                let ctx = Self::sched_ctx(cfg, topo, domains, now);
                classes[ci].task_tick(cpu, tasks.get_mut(pid), &ctx)
            };
            if need {
                self.resched[idx] = true;
                tick_resched = true;
            }
        }
        if !self.observers.is_empty() {
            let outcome = if tickless {
                TickOutcome::Skipped
            } else {
                TickOutcome::Accounted {
                    resched: tick_resched,
                }
            };
            self.emit(SchedEvent::Tick { cpu, outcome });
        }

        // Periodic load balancing. Busy CPUs balance far less often
        // (sd->busy_factor), so steady-state 2-vs-1 blips rarely trigger
        // steals; a CPU left idle re-arms quickly.
        if self.cfg.balance == BalanceMode::Full {
            let busy = self.cpus[idx].curr.is_some();
            let due = self.balance_clock.due_levels(cpu, now, &self.domains, busy);
            let mut plans = std::mem::take(&mut self.plan_buf);
            for level in due {
                self.counters.add_sw(cpu, SwEvent::LoadBalanceCalls, 1);
                self.cpus[idx].pending_overhead += self.cfg.balance_cost;
                let mut moved = 0;
                for ci in 0..self.classes.len() {
                    plans.clear();
                    {
                        let (classes, tasks, cfg, topo, domains, load) = (
                            &mut self.classes,
                            &self.tasks,
                            &self.cfg,
                            &self.topo,
                            &self.domains,
                            &self.load,
                        );
                        let ctx = Self::sched_ctx(cfg, topo, domains, now);
                        classes[ci].periodic_balance(cpu, level, &ctx, load, tasks, &mut plans);
                    }
                    moved += self.apply_migrations(&plans);
                }
                if !self.observers.is_empty() {
                    self.emit(SchedEvent::Balance {
                        cpu,
                        kind: BalanceKind::Periodic { level },
                        migrations: moved,
                    });
                }
            }
            plans.clear();
            self.plan_buf = plans;
        }

        // Fast path: the periodic slot re-armed itself when this tick
        // was popped (with the same sequence number this `schedule`
        // would have drawn — the handler allocates no other events).
        if !self.cfg.fast_event_loop {
            self.queue
                .schedule(now + self.cfg.tick_period, Ev::Tick(cpu));
        }
    }

    fn on_seg_done(&mut self, cpu: CpuId, gen: u64) {
        let idx = cpu.index();
        if gen != self.cpus[idx].seg_gen {
            return; // superseded estimate
        }
        let now = self.now();
        self.sync_cpu(cpu, now);
        let Some(pid) = self.cpus[idx].curr else {
            return;
        };
        let t = self.tasks.get(pid);
        if t.segment_remaining > 0 {
            // Overheads or speed changes pushed completion out; refine.
            self.recomp[idx] = true;
            return;
        }
        match t.spin {
            None => self.advance_program(pid, cpu),
            Some(SpinTarget::Chan(chan)) => {
                // Spin expired: become a proper blocked waiter.
                self.sync.chan_spin_to_block(chan, pid);
                self.tasks.get_mut(pid).spin = None;
                self.block_curr(cpu, pid, BlockReason::Chan(chan));
            }
            Some(SpinTarget::Barrier(id)) => {
                self.sync.barrier_spin_to_block(id, pid);
                self.tasks.get_mut(pid).spin = None;
                self.block_curr(cpu, pid, BlockReason::Barrier(id));
            }
        }
    }

    fn on_irq(&mut self) {
        let Some(irq) = self.irq.clone() else { return };
        // Uniformly choose a servicing CPU from the affinity mask
        // (k-th set bit; no allocation — this runs at kHz rates).
        let k = self.rng.below(irq.affinity.count() as u64) as usize;
        let cpu = irq
            .affinity
            .iter()
            .nth(k)
            .expect("with_irq asserts a non-empty affinity");
        let now = self.now();
        self.sync_cpu(cpu, now);
        // The handler steals wall time from whatever runs there — task,
        // HPC rank, RT thread alike. Interrupts outrank every scheduler.
        self.cpus[cpu.index()].pending_overhead += irq.cost;
        self.counters.add_sw(cpu, SwEvent::Irqs, 1);
        self.counters
            .add_hw(cpu, HwEvent::IrqOverheadNs, irq.cost.as_nanos());
        if !self.observers.is_empty() {
            self.emit(SchedEvent::Irq {
                cpu,
                cost: irq.cost,
            });
        }
        self.recomp[cpu.index()] = true;
        let next = exp_interval(irq.rate_hz, &mut self.rng);
        self.queue.schedule(now + next, Ev::Irq);
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Tick(cpu) => self.on_tick(cpu),
            Ev::SegDone { cpu, gen } => self.on_seg_done(cpu, gen),
            Ev::TimerWake(pid) => {
                if self.tasks.get(pid).state == TaskState::Blocked(BlockReason::Timer) {
                    self.wake_task(pid);
                }
            }
            Ev::Irq => self.on_irq(),
            Ev::GangEpoch => self.on_gang_epoch(),
            Ev::NetDeliver {
                chan,
                tokens,
                sent_at,
                queued_ns,
            } => {
                if !self.observers.is_empty() {
                    self.emit(SchedEvent::NetDeliver {
                        chan,
                        tokens,
                        latency: self.now().since(sent_at),
                        queued: SimDuration::from_nanos(queued_ns),
                    });
                }
                let satisfied = self.sync.notify(chan, tokens);
                for (p, how) in satisfied {
                    self.deliver(p, how);
                }
            }
        }
    }

    /// Register `chan` as a network endpoint: from now on a
    /// [`Step::NetSend`] targeting it is captured into the outbound
    /// queue (for the cluster driver) instead of notifying locally.
    /// Registration is append-only for a node's lifetime — the channel
    /// id namespace is owned by the job layout, which never reuses a
    /// cross-node id for a local channel.
    pub fn register_net_channel(&mut self, chan: ChanId) {
        self.net_external.insert(chan);
    }

    /// Drain the captured outbound messages (cluster driver API). Order
    /// is capture order, which is simulation order.
    pub fn take_outbound(&mut self) -> Vec<NetMsg> {
        std::mem::take(&mut self.outbound)
    }

    /// Drain the captured outbound messages into `buf` (cleared first),
    /// handing the node `buf`'s old allocation as its next capture
    /// buffer. A driver that routes every window through the same
    /// scratch vector therefore recycles capacity in both directions and
    /// the per-window hot path stops allocating. Order is capture order,
    /// exactly as [`Self::take_outbound`].
    pub fn drain_outbound_into(&mut self, buf: &mut Vec<NetMsg>) {
        buf.clear();
        std::mem::swap(buf, &mut self.outbound);
    }

    /// True iff at least one captured outbound message is waiting.
    pub fn has_outbound(&self) -> bool {
        !self.outbound.is_empty()
    }

    /// Schedule a cross-node delivery: at time `at` (≥ now), deposit
    /// `tokens` on `chan`, waking waiters exactly like a local notify.
    /// `sent_at`/`queued` feed the observability latency breakdown.
    pub fn post_net_delivery(
        &mut self,
        at: SimTime,
        chan: ChanId,
        tokens: u32,
        sent_at: SimTime,
        queued: SimDuration,
    ) {
        debug_assert!(at >= self.now(), "delivery scheduled in the past");
        self.queue.schedule(
            at,
            Ev::NetDeliver {
                chan,
                tokens,
                sent_at,
                queued_ns: queued.as_nanos(),
            },
        );
    }

    /// Time of this node's next pending event, if any (cluster lockstep
    /// uses the minimum over nodes to pick the next window).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Run one event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((_, _, ev)) = self.queue.pop() else {
            return false;
        };
        self.events += 1;
        self.dispatch(ev);
        self.drain();
        true
    }

    /// Total events processed so far (dispatched plus batch-fired
    /// quiescent ticks). The perf-regression bench divides this by wall
    /// time to get simulated events/second.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Tasks that have exited so far, normally or by
    /// [`Self::kill_tree`]. Monotone: a driver comparing it between
    /// steps learns whether any task died without reading the task
    /// table.
    pub fn exits(&self) -> u64 {
        self.exits
    }

    /// Quiescence fast-forward: batch-fire timer ticks that
    /// [`Self::tick_is_quiescent`] proves are no-ops, advancing their
    /// wheel slots arithmetically instead of popping one event each.
    ///
    /// The batch window `[now, H)` is chosen so that it contains *no*
    /// state-changing event: `H` stops at the next heap event, at any
    /// non-quiescent CPU's next tick, and at `bound` (exclusive). Within
    /// the window quiescence therefore cannot change, and each skipped
    /// tick only counts itself and advances the clock — exactly what
    /// dispatching it would have done.
    ///
    /// Balance deadlines get one of two treatments. When *every* CPU is
    /// idle (no current task, nothing queued anywhere), a due periodic
    /// balance provably moves nothing — there is no task to steal,
    /// queued or running, so CFS finds no busiest queue and active
    /// balance finds no victim — and its entire effect is a
    /// `LoadBalanceCalls` bump plus a clock re-arm. Those are *replayed*
    /// arithmetically per batched tick. Otherwise a quiescent CPU's next
    /// due balance caps the horizon so the balance tick runs normally.
    /// Returns the number of ticks batched.
    ///
    /// Batched ticks are *not* published to observers: they are provably
    /// inert, so no switch, wakeup, migration or preemption decision can
    /// occur inside the window, and replaying millions of
    /// `Tick(Quiescent)` events would defeat the fast path. Ticks that
    /// dispatch normally (including quiescent ones on the reference
    /// path) are always published.
    fn fast_forward(&mut self, bound: Option<SimTime>) -> u64 {
        if !self.cfg.fast_event_loop {
            return 0;
        }
        // O(1) bail-out first: nothing can batch unless a tick precedes
        // the next heap event (and the bound). This is the merge cost a
        // busy node pays per dispatched event, so it runs before the
        // per-CPU scans below.
        let Some(per_t) = self.queue.peek_periodic_time() else {
            return 0;
        };
        let mut horizon = match (self.queue.peek_heap_time(), bound) {
            (Some(h), Some(b)) => h.min(b),
            (Some(h), None) => h,
            (None, Some(b)) => b,
            // Only ticks left and no bound: let the caller's normal
            // stepping (and its hang guard) take over.
            (None, None) => return 0,
        };
        if per_t >= horizon {
            return 0;
        }
        // Profitability gate: a window under two tick periods cannot
        // fire enough ticks to pay for the per-CPU quiescence scan
        // below. Dispatching those ticks normally is exact — the
        // quiescent tick handler is itself O(1) — so skipping the batch
        // only trades wall time, never behaviour.
        if horizon - per_t < self.cfg.tick_period * 2 {
            return 0;
        }
        // A pending reschedule/re-estimate (e.g. set_affinity called
        // between runs) must be handled in event order by the next
        // step()'s drain — batching ahead of it would reorder.
        if self.resched.iter().any(|&r| r) || self.recomp.iter().any(|&r| r) {
            return 0;
        }
        // Without tickless-HPC, only an empty CPU can be quiescent; a
        // fully loaded node (every CPU running or queueing something)
        // has nothing to batch. This is the hot bail-out while a job
        // occupies the whole machine.
        if !self.cfg.tickless_single_hpc && self.load.nr_running.iter().all(|&n| n > 0) {
            return 0;
        }
        let now = self.now();
        let all_idle = self.load.nr_running.iter().all(|&n| n == 0);
        let replay_balance = self.cfg.balance == BalanceMode::Full && all_idle;
        if !all_idle {
            let balance_caps = self.cfg.balance == BalanceMode::Full;
            let mut any_quiescent = false;
            for i in 0..self.cpus.len() {
                let cpu = CpuId(i as u32);
                if self.tick_is_quiescent(cpu, now) {
                    any_quiescent = true;
                    if balance_caps {
                        if let Some(d) = self.balance_clock.next_deadline(cpu) {
                            horizon = horizon.min(d);
                        }
                    }
                } else {
                    horizon = horizon.min(self.queue.periodic_time(self.tick_slots[i]));
                }
            }
            // Fully busy node: no tick can batch, skip the buffer setup.
            if !any_quiescent {
                return 0;
            }
        }
        if horizon <= now {
            return 0;
        }
        for h in self.ff_horizons.iter_mut() {
            *h = horizon;
        }
        for f in self.ff_fired.iter_mut() {
            *f = 0;
        }
        // Pre-advance pending tick times: the balance replay below needs
        // each slot's first batched fire time.
        if replay_balance {
            for i in 0..self.ff_start.len() {
                self.ff_start[i] = self.queue.periodic_time(self.tick_slots[i]);
            }
        }
        let mut fired = std::mem::take(&mut self.ff_fired);
        let horizons = std::mem::take(&mut self.ff_horizons);
        let total = self.queue.advance_periodic(&horizons, &mut fired);
        if replay_balance {
            // Replay each batched tick's balance pass arithmetically:
            // re-arm due levels and charge the calls, exactly as
            // `on_tick` would have. CPUs are independent here — a due
            // level only touches its own clock slot and counters (no
            // migration plans can exist in an all-idle window), so
            // per-CPU jump-from-due-to-due replay gives the same state
            // as the global per-tick order. `pending_overhead` on an
            // idle CPU is absorbed at its next sync anyway — the charge
            // mirrors `on_tick`'s for strict parity.
            let period = self.cfg.tick_period;
            let cost = self.cfg.balance_cost;
            for (i, &n) in fired.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let cpu = CpuId(i as u32);
                let calls = self.balance_clock.replay_idle_dues(
                    cpu,
                    &self.domains,
                    self.ff_start[i],
                    n,
                    period,
                );
                if calls > 0 {
                    self.counters.add_sw(cpu, SwEvent::LoadBalanceCalls, calls);
                    self.cpus[i].pending_overhead += cost * calls;
                }
            }
        }
        for (i, &n) in fired.iter().enumerate() {
            if n > 0 {
                self.counters
                    .add_sw(CpuId(i as u32), SwEvent::TimerTicks, n);
            }
        }
        self.ff_fired = fired;
        self.ff_horizons = horizons;
        self.events += total;
        total
    }

    /// Run until `deadline`.
    pub fn run_until_time(&mut self, deadline: SimTime) {
        let bound = deadline + SimDuration::from_nanos(1);
        loop {
            self.fast_forward(Some(bound));
            if self.queue.peek_time().is_none_or(|t| t > deadline) {
                break;
            }
            if !self.step() {
                break;
            }
        }
    }

    /// Run for a duration from now.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.now() + dur;
        self.run_until_time(deadline);
    }

    /// Run until `pid` has exited, or until the run can provably not
    /// finish: [`RunOutcome::Deadlock`] when the event queue drains with
    /// the task still alive (a lost wakeup or blocked dependency),
    /// [`RunOutcome::BudgetExhausted`] after `max_events` dispatched
    /// events (hang guard; batched quiescent ticks do not count).
    ///
    /// The node is left exactly where the run stopped — callers can
    /// inspect tasks, counters and observers in all three cases.
    pub fn run_until_exit(&mut self, pid: Pid, max_events: u64) -> RunOutcome {
        let mut budget = max_events;
        while self.tasks.get(pid).state != TaskState::Dead {
            self.fast_forward(None);
            if !self.step() {
                return RunOutcome::Deadlock;
            }
            match budget.checked_sub(1) {
                Some(b) => budget = b,
                None => return RunOutcome::BudgetExhausted,
            }
        }
        RunOutcome::Completed
    }

    /// Immutable access to the RNG-derived seed-sensitive state is not
    /// exposed; this hash of scheduler-visible state supports determinism
    /// tests.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(self.now().as_nanos());
        for t in self.tasks.iter() {
            mix(t.pid.0 as u64);
            mix(t.cpu.0 as u64);
            mix(t.nr_switches);
            mix(t.nr_migrations);
            mix(t.total_runtime.as_nanos());
            mix(match t.state {
                TaskState::Runnable => 1,
                TaskState::Running => 2,
                TaskState::Blocked(_) => 3,
                TaskState::Dead => 4,
            });
        }
        h
    }
}

// A whole node must be movable to another host thread: the cluster's
// parallel co-simulation steps disjoint nodes on a worker pool. This
// is what the `Send` supertraits on `Program`, `SchedClass` and
// `SchedObserver` buy; a non-`Send` field regression fails right here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Node>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptProgram;
    use crate::task::Policy;

    fn quiet_node() -> Node {
        NodeBuilder::new(Topology::power6_js22())
            .with_seed(1)
            .build()
    }

    fn compute_spec(name: &str, ms: u64) -> TaskSpec {
        TaskSpec::new(
            name,
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed(name, vec![Step::Compute(SimDuration::from_millis(ms))]),
        )
    }

    #[test]
    fn single_task_runs_to_completion() {
        let mut node = quiet_node();
        let pid = node.spawn(compute_spec("job", 10));
        assert!(node.run_until_exit(pid, 1_000_000).is_complete());
        let t = node.tasks.get(pid);
        assert_eq!(t.state, TaskState::Dead);
        // Cold start + SMT-free: at least 10ms of wall time.
        assert!(node.now().as_secs_f64() >= 0.010);
        assert!(t.exited_at.is_some());
    }

    #[test]
    fn cold_cache_stretches_execution() {
        let mut node = quiet_node();
        let pid = node.spawn(compute_spec("job", 10));
        let start = node.now();
        assert!(node.run_until_exit(pid, 1_000_000).is_complete());
        let elapsed = (node.now() - start).as_secs_f64();
        // 10ms of work at cold-start speed (0.7 rising to 1.0, tau=4ms):
        // must take more than 10ms but less than 10/0.7 ms.
        assert!(elapsed > 0.010, "elapsed {elapsed}");
        assert!(elapsed < 0.0143, "elapsed {elapsed}");
    }

    /// The speed-model inverse as written with one exponential for the
    /// integral and another for its derivative.
    fn time_for_work_two_exps(cfg: &KernelConfig, smt: f64, w0: f64, work_s: f64) -> f64 {
        let cold = cfg.cache_cold_factor;
        let tau = cfg.cache_warm_tau.as_secs_f64();
        let integral =
            |t: f64| smt * (t - (1.0 - cold) * (1.0 - w0) * tau * (1.0 - (-t / tau).exp()));
        if work_s <= 0.0 {
            return 0.0;
        }
        let mut t = work_s / smt;
        for _ in 0..32 {
            let f = integral(t) - work_s;
            let speed = smt * (1.0 - (1.0 - cold) * (1.0 - w0) * (-t / tau).exp());
            let step = f / speed.max(1e-12);
            t -= step;
            if step.abs() < 0.5e-9 {
                break;
            }
        }
        t.max(0.0)
    }

    #[test]
    fn one_exponential_newton_step_matches_two() {
        for cfg in [KernelConfig::default(), KernelConfig::hpl()] {
            let node = NodeBuilder::new(Topology::power6_js22())
                .with_config(cfg.clone())
                .build();
            let mut rng = Rng::new(0xe4b0);
            for i in 0..20_000 {
                let smt = match i % 3 {
                    0 => 1.0,
                    1 => cfg.smt_busy_factor,
                    _ => rng.range_f64(0.3, 1.0),
                };
                let w0 = match i % 5 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.f64(),
                };
                // Work from 1 ns to 10 s, log-spread.
                let work_s = 10f64.powf(rng.range_f64(-9.0, 1.0));
                let got = node.time_for_work(smt, w0, work_s);
                let want = time_for_work_two_exps(&cfg, smt, w0, work_s);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "smt {smt} w0 {w0} work {work_s}"
                );
                // `sync_cpu`'s integral, fed the cache model's warm rate.
                let dt = SimDuration::from_nanos(rng.range_u64(1, 10_000_000_000));
                let dt_s = dt.as_secs_f64();
                let (cold, tau) = (cfg.cache_cold_factor, cfg.cache_warm_tau.as_secs_f64());
                let want =
                    smt * (dt_s - (1.0 - cold) * (1.0 - w0) * tau * (1.0 - (-dt_s / tau).exp()));
                let got = node.work_integral(smt, w0, dt_s, CacheModel::warm_rate(&cfg, dt));
                assert_eq!(got.to_bits(), want.to_bits(), "smt {smt} w0 {w0} dt {dt:?}");
            }
        }
    }

    #[test]
    fn two_tasks_on_one_cpu_share() {
        let mut node = NodeBuilder::new(Topology::smp(1)).with_seed(2).build();
        let a = node.spawn(compute_spec("a", 50));
        let b = node.spawn(compute_spec("b", 50));
        assert!(node.run_until_exit(a, 10_000_000).is_complete());
        assert!(node.run_until_exit(b, 10_000_000).is_complete());
        // Serialized on one CPU: at least 100ms.
        assert!(node.now().as_secs_f64() >= 0.100);
        let switches = node.counters.total().sw(SwEvent::ContextSwitches);
        assert!(switches >= 2, "switches={switches}");
    }

    #[test]
    fn eight_tasks_fill_eight_cpus() {
        let mut node = quiet_node();
        let pids: Vec<Pid> = (0..8)
            .map(|i| node.spawn(compute_spec(&format!("t{i}"), 20)))
            .collect();
        node.run_for(SimDuration::from_millis(1));
        // All eight should be running on distinct CPUs.
        let cpus: std::collections::HashSet<u32> =
            pids.iter().map(|&p| node.tasks.get(p).cpu.0).collect();
        assert_eq!(cpus.len(), 8, "tasks spread across all CPUs");
        for &p in &pids {
            assert_eq!(node.tasks.get(p).state, TaskState::Running);
        }
    }

    #[test]
    fn smt_contention_slows_execution() {
        // Two tasks pinned to the same core (both SMT threads) take
        // longer than two tasks on different cores.
        let run_pair = |cpu_a: u32, cpu_b: u32| -> f64 {
            let mut node = quiet_node();
            let a = node.spawn(compute_spec("a", 20).with_affinity(CpuMask::single(CpuId(cpu_a))));
            let b = node.spawn(compute_spec("b", 20).with_affinity(CpuMask::single(CpuId(cpu_b))));
            assert!(node.run_until_exit(a, 10_000_000).is_complete());
            assert!(node.run_until_exit(b, 10_000_000).is_complete());
            node.now().as_secs_f64()
        };
        let same_core = run_pair(0, 1);
        let diff_core = run_pair(0, 2);
        assert!(
            same_core > diff_core * 1.3,
            "same-core {same_core} vs diff-core {diff_core}"
        );
    }

    #[test]
    fn kill_tree_reaps_running_and_blocked_descendants() {
        let mut node = quiet_node();
        let parent = node.spawn(TaskSpec::new(
            "root",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed(
                "root",
                vec![
                    Step::Fork(compute_spec("kid-a", 200)),
                    Step::Fork(compute_spec("kid-b", 200)),
                    Step::WaitChildren,
                ],
            ),
        ));
        node.run_for(SimDuration::from_millis(2));
        let kids: Vec<Pid> = node
            .tasks
            .iter()
            .filter(|t| t.parent == Some(parent))
            .map(|t| t.pid)
            .collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(
            node.tasks.get(parent).state,
            TaskState::Blocked(BlockReason::Children)
        );
        for &k in &kids {
            assert_eq!(node.tasks.get(k).state, TaskState::Running);
        }
        let when = node.now();
        assert_eq!(node.kill_tree(parent), 3, "root and both kids reaped");
        for &p in [parent].iter().chain(&kids) {
            let t = node.tasks.get(p);
            assert_eq!(t.state, TaskState::Dead);
            assert_eq!(t.exited_at, Some(when));
        }
        // The CPUs are genuinely free again: a fresh 10 ms job finishes
        // promptly instead of contending with 200 ms zombies.
        let start = node.now();
        let fresh = node.spawn(compute_spec("after", 10));
        assert!(node.run_until_exit(fresh, 1_000_000).is_complete());
        assert!((node.now() - start).as_secs_f64() < 0.016);
        // Killing an already-dead tree is a no-op.
        assert_eq!(node.kill_tree(parent), 0);
    }

    #[test]
    fn sleep_blocks_and_wakes() {
        let mut node = quiet_node();
        let pid = node.spawn(TaskSpec::new(
            "sleeper",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed(
                "sleeper",
                vec![
                    Step::Sleep(SimDuration::from_millis(5)),
                    Step::Compute(SimDuration::from_millis(1)),
                ],
            ),
        ));
        assert!(node.run_until_exit(pid, 1_000_000).is_complete());
        assert!(node.now().as_secs_f64() >= 0.006);
        let total = node.counters.total();
        assert!(total.sw(SwEvent::Wakeups) >= 1);
        assert!(total.sw(SwEvent::VoluntarySwitches) >= 1);
    }

    #[test]
    fn barrier_synchronises_tasks() {
        let mut node = quiet_node();
        let bar = crate::sync::BarrierId(1);
        let mk = |ms: u64| {
            vec![
                Step::Compute(SimDuration::from_millis(ms)),
                Step::Barrier {
                    id: bar,
                    parties: 2,
                },
                Step::Compute(SimDuration::from_millis(1)),
            ]
        };
        let fast = node.spawn(TaskSpec::new(
            "fast",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed("fast", mk(1)),
        ));
        let slow = node.spawn(TaskSpec::new(
            "slow",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed("slow", mk(20)),
        ));
        assert!(node.run_until_exit(fast, 10_000_000).is_complete());
        assert!(node.run_until_exit(slow, 10_000_000).is_complete());
        let f = node.tasks.get(fast).exited_at.unwrap();
        let s = node.tasks.get(slow).exited_at.unwrap();
        // Fast exits only marginally before slow: it waited at the barrier.
        assert!(f.as_secs_f64() > 0.020, "fast waited: {f}");
        assert!((s.as_secs_f64() - f.as_secs_f64()).abs() < 0.005);
    }

    #[test]
    fn fork_and_waitchildren() {
        let mut node = quiet_node();
        let child = compute_spec("child", 5);
        let parent = node.spawn(TaskSpec::new(
            "parent",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed("parent", vec![Step::Fork(child), Step::WaitChildren]),
        ));
        assert!(node.run_until_exit(parent, 1_000_000).is_complete());
        assert!(node.counters.total().sw(SwEvent::Forks) >= 1);
        // Parent outlives child.
        let child_pid = Pid(parent.0 + 1);
        let c = node.tasks.get(child_pid);
        assert_eq!(c.state, TaskState::Dead);
        assert!(c.exited_at.unwrap() <= node.tasks.get(parent).exited_at.unwrap());
    }

    #[test]
    fn rt_task_preempts_cfs_task() {
        let mut node = NodeBuilder::new(Topology::smp(1)).with_seed(3).build();
        let cfs = node.spawn(compute_spec("cfs", 100));
        node.run_for(SimDuration::from_millis(2));
        assert_eq!(node.tasks.get(cfs).state, TaskState::Running);
        let rt = node.spawn(TaskSpec::new(
            "rt",
            Policy::Fifo(50),
            ScriptProgram::boxed("rt", vec![Step::Compute(SimDuration::from_millis(5))]),
        ));
        node.run_for(SimDuration::from_micros(100));
        assert_eq!(node.tasks.get(rt).state, TaskState::Running);
        assert_eq!(node.tasks.get(cfs).state, TaskState::Runnable);
        assert!(node.run_until_exit(rt, 1_000_000).is_complete());
        assert!(node.run_until_exit(cfs, 10_000_000).is_complete());
    }

    #[test]
    fn spin_wait_satisfied_without_blocking() {
        let mut node = quiet_node();
        let ch = crate::sync::ChanId(7);
        let waiter = node.spawn(TaskSpec::new(
            "waiter",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed(
                "waiter",
                vec![
                    Step::WaitChanSpin {
                        chan: ch,
                        spin_limit: SimDuration::from_millis(50),
                    },
                    Step::Compute(SimDuration::from_millis(1)),
                ],
            ),
        ));
        let _notifier = node.spawn(TaskSpec::new(
            "notifier",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed(
                "notifier",
                vec![
                    Step::Compute(SimDuration::from_millis(2)),
                    Step::Notify {
                        chan: ch,
                        tokens: 1,
                    },
                ],
            ),
        ));
        assert!(node.run_until_exit(waiter, 1_000_000).is_complete());
        let t = node.tasks.get(waiter);
        // The waiter spun (busy) rather than blocking: its runtime
        // includes the ~2ms spin.
        assert!(t.total_runtime.as_secs_f64() > 0.002);
        // Finished shortly after the notify, not after the 50ms limit.
        assert!(node.now().as_secs_f64() < 0.010);
    }

    #[test]
    fn spin_expiry_falls_back_to_blocking() {
        let mut node = quiet_node();
        let ch = crate::sync::ChanId(8);
        let waiter = node.spawn(TaskSpec::new(
            "waiter",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed(
                "waiter",
                vec![
                    Step::WaitChanSpin {
                        chan: ch,
                        spin_limit: SimDuration::from_millis(1),
                    },
                    Step::Compute(SimDuration::from_millis(1)),
                ],
            ),
        ));
        let _notifier = node.spawn(TaskSpec::new(
            "notifier",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed(
                "notifier",
                vec![
                    Step::Sleep(SimDuration::from_millis(20)),
                    Step::Notify {
                        chan: ch,
                        tokens: 1,
                    },
                ],
            ),
        ));
        assert!(node.run_until_exit(waiter, 1_000_000).is_complete());
        let t = node.tasks.get(waiter);
        // Spun ~1ms then blocked ~19ms: runtime far below wall time.
        assert!(t.total_runtime.as_secs_f64() < 0.005);
        assert!(node.now().as_secs_f64() >= 0.020);
    }

    #[test]
    fn set_policy_moves_between_classes() {
        let mut node = NodeBuilder::new(Topology::smp(2)).with_seed(5).build();
        let a = node.spawn(compute_spec("a", 30));
        node.run_for(SimDuration::from_millis(1));
        node.set_policy(a, Policy::Fifo(10));
        node.drain();
        assert_eq!(node.tasks.get(a).policy, Policy::Fifo(10));
        assert!(node.run_until_exit(a, 10_000_000).is_complete());
    }

    #[test]
    fn affinity_forces_migration() {
        let mut node = quiet_node();
        let a = node.spawn(compute_spec("a", 30));
        node.run_for(SimDuration::from_millis(1));
        let old_cpu = node.tasks.get(a).cpu;
        let new_cpu = CpuId((old_cpu.0 + 2) % 8);
        let before = node.counters.total().sw(SwEvent::CpuMigrations);
        node.set_affinity(a, CpuMask::single(new_cpu));
        node.drain();
        assert_eq!(node.tasks.get(a).cpu, new_cpu);
        assert!(node.counters.total().sw(SwEvent::CpuMigrations) > before);
        assert!(node.run_until_exit(a, 10_000_000).is_complete());
        assert_eq!(node.tasks.get(a).cpu, new_cpu);
    }

    #[test]
    fn determinism_same_seed_same_fingerprint() {
        let run = |seed: u64| -> u64 {
            let mut node = NodeBuilder::new(Topology::power6_js22())
                .with_seed(seed)
                .with_noise(NoiseProfile::standard(8))
                .build();
            let pid = node.spawn(compute_spec("probe", 50));
            assert!(node.run_until_exit(pid, 50_000_000).is_complete());
            node.state_fingerprint()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn task_report_snapshots_stats() {
        let mut node = quiet_node();
        let pid = node.spawn(compute_spec("job", 5));
        assert!(node.run_until_exit(pid, 1_000_000).is_complete());
        let r = node.task_report(pid);
        assert_eq!(r.name, "job");
        assert_eq!(r.state, TaskState::Dead);
        assert!(r.total_runtime >= SimDuration::from_millis(5));
        assert!(r.nr_switches >= 1);
        assert!(format!("{r}").contains("job"));
    }

    #[test]
    fn ticks_are_counted() {
        let mut node = quiet_node();
        node.run_for(SimDuration::from_millis(100));
        let ticks = node.counters.total().sw(SwEvent::TimerTicks);
        // 8 CPUs x ~100 ticks.
        assert!((700..=900).contains(&ticks), "ticks={ticks}");
    }

    #[test]
    fn tickless_skips_tick_cost_for_lone_hpc() {
        // Two nodes, same HPC workload; the tickless one charges no tick
        // overhead while a lone HPC task runs. The builder asserts the
        // class kind, so wrap CFS mechanics in an Hpc-kind shim.
        struct Shim(crate::cfs::CfsClass);
        impl SchedClass for Shim {
            fn kind(&self) -> ClassKind {
                ClassKind::Hpc
            }
            fn init(&mut self, n: usize) {
                self.0.init(n)
            }
            fn enqueue(&mut self, c: CpuId, t: &mut Task, x: &SchedCtx<'_>, w: bool) {
                self.0.enqueue(c, t, x, w)
            }
            fn dequeue(&mut self, c: CpuId, t: &mut Task, x: &SchedCtx<'_>) {
                self.0.dequeue(c, t, x)
            }
            fn pick_next(&mut self, c: CpuId, tt: &TaskTable) -> Option<Pid> {
                self.0.pick_next(c, tt)
            }
            fn put_prev(&mut self, c: CpuId, t: &mut Task, x: &SchedCtx<'_>) {
                self.0.put_prev(c, t, x)
            }
            fn update_curr(&mut self, c: CpuId, t: &mut Task, r: SimDuration) {
                self.0.update_curr(c, t, r)
            }
            fn task_tick(&mut self, c: CpuId, t: &mut Task, x: &SchedCtx<'_>) -> bool {
                self.0.task_tick(c, t, x)
            }
            fn wakeup_preempt(&self, c: CpuId, a: &Task, b: &Task, x: &SchedCtx<'_>) -> bool {
                self.0.wakeup_preempt(c, a, b, x)
            }
            fn nr_queued(&self, c: CpuId) -> u32 {
                self.0.nr_queued(c)
            }
            fn queued_pids(&self, c: CpuId) -> Vec<Pid> {
                self.0.queued_pids(c)
            }
            fn select_cpu_fork(
                &mut self,
                t: &Task,
                p: CpuId,
                x: &SchedCtx<'_>,
                s: &LoadSnapshot,
                tt: &TaskTable,
            ) -> CpuId {
                self.0.select_cpu_fork(t, p, x, s, tt)
            }
        }
        let measure = |tickless: bool| -> u64 {
            let mut kc = KernelConfig::hpl();
            kc.tickless_single_hpc = tickless;
            let mut node = NodeBuilder::new(Topology::power6_js22())
                .with_config(kc)
                .with_hpc_class(Box::new(Shim(crate::cfs::CfsClass::new())))
                .with_seed(1)
                .build();
            let pid = node.spawn(TaskSpec::new(
                "hpc",
                crate::task::Policy::Hpc,
                crate::program::ScriptProgram::boxed(
                    "hpc",
                    vec![Step::Compute(SimDuration::from_millis(50))],
                ),
            ));
            assert!(node.run_until_exit(pid, 10_000_000).is_complete());
            node.counters.total().hw(HwEvent::TickOverheadNs)
        };
        let with_tick = measure(false);
        let without = measure(true);
        assert!(
            without < with_tick / 2,
            "tickless {without} should slash tick overhead {with_tick}"
        );
    }

    #[test]
    fn set_policy_on_blocked_task_applies_at_wakeup() {
        let mut node = quiet_node();
        let pid = node.spawn(TaskSpec::new(
            "sleeper",
            Policy::Normal { nice: 0 },
            crate::program::ScriptProgram::boxed(
                "s",
                vec![
                    Step::Sleep(SimDuration::from_millis(5)),
                    Step::Compute(SimDuration::from_millis(2)),
                ],
            ),
        ));
        node.run_for(SimDuration::from_millis(1));
        assert!(matches!(node.tasks.get(pid).state, TaskState::Blocked(_)));
        node.set_policy(pid, Policy::Fifo(30));
        assert!(node.run_until_exit(pid, 10_000_000).is_complete());
        assert_eq!(node.tasks.get(pid).policy, Policy::Fifo(30));
    }

    #[test]
    fn migration_counter_attribution() {
        // Balance migrations are a subset of all migrations.
        let mut node = NodeBuilder::new(Topology::power6_js22())
            .with_seed(13)
            .with_noise(NoiseProfile::standard(8))
            .build();
        node.run_for(SimDuration::from_secs(2));
        let total = node.counters.total();
        assert!(
            total.sw(SwEvent::LoadBalanceMigrations) <= total.sw(SwEvent::CpuMigrations),
            "balance migrations exceed total migrations"
        );
    }

    #[test]
    fn irq_stream_steals_time_from_everyone() {
        use crate::noise::IrqSpec;
        // A heavy IRQ load pinned to cpu0: a task pinned there slows
        // down; the same task on cpu4 does not.
        let run_on = |cpu: u32| -> f64 {
            let noise = NoiseProfile::quiet().with_irq(IrqSpec {
                rate_hz: 20_000.0,
                cost: SimDuration::from_micros(10),
                affinity: CpuMask::single(CpuId(0)),
            });
            let mut node = NodeBuilder::new(Topology::power6_js22())
                .with_noise(noise)
                .with_seed(5)
                .build();
            let start = node.now();
            let pid =
                node.spawn(compute_spec("victim", 50).with_affinity(CpuMask::single(CpuId(cpu))));
            assert!(node.run_until_exit(pid, 50_000_000).is_complete());
            node.tasks
                .get(pid)
                .exited_at
                .unwrap()
                .since(start)
                .as_secs_f64()
        };
        let on_irq_cpu = run_on(0);
        let elsewhere = run_on(4);
        // 20 kHz x 10 us = 20% steal.
        assert!(
            on_irq_cpu > elsewhere * 1.15,
            "irq victim {on_irq_cpu} vs bystander {elsewhere}"
        );
        // Counters recorded the interrupts.
        let noise = NoiseProfile::quiet().with_irq(IrqSpec {
            rate_hz: 1000.0,
            cost: SimDuration::from_micros(5),
            affinity: CpuMask::first_n(8),
        });
        let mut node = NodeBuilder::new(Topology::power6_js22())
            .with_noise(noise)
            .with_seed(6)
            .build();
        node.run_for(SimDuration::from_secs(1));
        let irqs = node.counters.total().sw(SwEvent::Irqs);
        assert!((700..=1300).contains(&irqs), "irqs={irqs}");
    }

    #[test]
    fn daemons_generate_noise() {
        let mut node = NodeBuilder::new(Topology::power6_js22())
            .with_seed(7)
            .with_noise(NoiseProfile::standard(8))
            .build();
        node.run_for(SimDuration::from_secs(5));
        let total = node.counters.total();
        assert!(total.sw(SwEvent::ContextSwitches) > 100);
        assert!(total.sw(SwEvent::Wakeups) > 50);
    }
}
