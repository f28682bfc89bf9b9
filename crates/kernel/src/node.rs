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
//! follows the closed-form trajectory of [`crate::cache`] in wall time.
//! Overheads (tick handlers, switches) only remove productive time.
//! Work progress over an interval is integrated analytically, and
//! segment-completion events are scheduled by inverting that integral
//! (Newton), so no precision is lost to time stepping; the timer tick
//! merely adds its handler cost and drives CFS accounting and periodic
//! balancing, as in the real kernel. An HPC task meets the tick only as
//! that cost and a timeslice refresh, so its ticks *fold* (the
//! `Folds` class of `Node::tick_class`): each counts itself, and the
//! next settle and the completion solve account for all of them
//! arithmetically.

use crate::balance::BalanceClock;
use crate::cache::{CacheModel, Trajectory, SMT_BUSY_FACTOR};
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
use crate::sync::{BarrierId, ChanId, SyncState, WaitOutcome, Waiting};
use crate::task::{BlockReason, Pid, SpinTarget, Task, TaskState, TaskTable};
use hpl_perf::{HwEvent, PerCpuCounters, RunOutcome, SwEvent};
use hpl_sim::time::round_to_u64;
use hpl_sim::{EventQueue, Rng, SimDuration, SimTime};
use hpl_topology::{CpuId, CpuMask, DomainHierarchy, Topology};

/// Rounding slack of the late-completion oracle ([`Node::late_completion`]).
const COMPLETION_SLACK: SimDuration = SimDuration::from_micros(1);

/// Timer tick period. Linux HZ=1000 → 1 ms, the common distro choice on
/// the paper's era of POWER hardware.
pub(crate) const TICK_PERIOD: SimDuration = SimDuration::from_millis(1);
/// CPU time consumed by each tick's handler (the "micro-noise" the paper
/// explicitly leaves to NETTICK). A few microseconds per tick.
pub(crate) const TICK_COST: SimDuration = SimDuration::from_micros(3);
/// Direct cost of a context switch (register/address-space switch,
/// runqueue bookkeeping).
pub(crate) const CTX_SWITCH_COST: SimDuration = SimDuration::from_micros(4);
/// Direct cost of executing one task migration (the migration-thread
/// work the paper notes runs at high RT priority), charged to both CPUs.
const MIGRATION_COST: SimDuration = SimDuration::from_micros(12);
/// Direct CPU cost of one load-balancer invocation (domain scan).
const BALANCE_COST: SimDuration = SimDuration::from_micros(5);

const _: () = assert!(!TICK_PERIOD.is_zero());
// A folded tick's cost ends before the next tick fires (see `Windows`).
const _: () = assert!(TICK_COST.as_nanos() < TICK_PERIOD.as_nanos());

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

/// What a CPU's timer tick has to do (see `Node::tick_class`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TickClass {
    /// A provable no-op beyond counting itself.
    Quiescent,
    /// Counts itself; the CPU's next settle accounts its cost and
    /// class tick.
    Folds,
    /// Handled in full; `free` of the handler cost on a tickless CPU.
    Dispatch { free: bool },
}

/// A captured outbound cross-node message: a [`Step::NetSend`] executed
/// on a channel a registered [`NetSpan`] classifies as external. The
/// cluster driver collects these with [`Node::drain_outbound_into`],
/// runs them through its interconnect model, and posts the resulting
/// delivery on the destination node with [`Node::post_net_delivery`].
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

/// The cross-node channels of one job on one node, as a rule rather
/// than a list. A job's pairwise channel `src → dst` has id
/// `first + src·nprocs + dst`; it is external on this node iff its
/// sender rank is local and its receiver rank is not. Registered with
/// [`Node::register_net_span`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSpan {
    /// Id of the job's first pairwise channel (`0 → 0`).
    pub first: u64,
    /// Ranks in the job.
    pub nprocs: u32,
    /// Ranks hosted on this node.
    pub local: std::ops::Range<u32>,
}

impl NetSpan {
    /// `None` if `chan` is not one of this job's pairwise channels;
    /// otherwise whether it leaves the node (local sender, remote
    /// receiver).
    pub fn classify(&self, chan: ChanId) -> Option<bool> {
        let n = self.nprocs as u64;
        let off = chan.0.checked_sub(self.first).filter(|&o| o < n * n)?;
        let (src, dst) = ((off / n) as u32, (off % n) as u32);
        Some(self.local.contains(&src) && !self.local.contains(&dst))
    }
}

#[derive(Debug)]
struct CpuState {
    curr: Option<Pid>,
    last_update: SimTime,
    seg_gen: u64,
    /// Due time of the live `SegDone` (generation `seg_gen`), read only
    /// by the debug oracle [`Node::late_completion`].
    seg_due: SimTime,
    pending_overhead: SimDuration,
    /// Busy ticks folded since the last settle (see
    /// [`TickClass::Folds`]): counted, their cost not yet placed. They
    /// are consecutive, the first at `fold_first`.
    folded: u64,
    fold_first: SimTime,
    /// When this CPU's next timer tick fires.
    next_tick: SimTime,
    /// Whether the live `SegDone` counted the cost of the ticks due
    /// before it (solved while the CPU's ticks fold, across a tick).
    seg_ticks: bool,
}

/// Where productive time falls in a stretch of a CPU that starts at a
/// settle: behind the overhead `carried` then, and around the cost of
/// `n` periodic ticks, placed as per-tick settling places it: each
/// tick's `TICK_COST` occupies `[τ, τ + TICK_COST)` behind any overhead
/// still carried, and productive time runs in between. Ticks are
/// periodic and each cost is shorter than the period, so once the
/// carried overhead is worked off every tick interval holds exactly
/// `TICK_PERIOD − TICK_COST` of productive time, and the stretch has a
/// closed form. A plain settle has no ticks; a settle over folded ticks
/// has their count; a completion solve on a CPU whose ticks fold takes
/// every tick ahead.
#[derive(Debug, Clone, Copy)]
struct Windows {
    /// Overhead carried at the start, ns.
    carried: u64,
    /// Ticks.
    n: u64,
    /// Productive time before the first tick, ns: the first tick's
    /// offset from the start minus the carried overhead. Negative
    /// while ticks land inside the carried overhead.
    lead: i64,
}

impl Windows {
    /// Productive time between two ticks once the carried overhead is
    /// worked off.
    const GAP: u64 = TICK_PERIOD.as_nanos() - TICK_COST.as_nanos();

    /// No ticks: productive time follows the carried overhead.
    fn plain(carried: SimDuration) -> Self {
        Windows {
            carried: carried.as_nanos(),
            n: 0,
            lead: 0,
        }
    }

    /// Every tick ahead, the first `first` after the start.
    fn ticking(carried: SimDuration, first: SimDuration) -> Self {
        Windows {
            carried: carried.as_nanos(),
            n: u64::MAX,
            lead: first.as_nanos() as i64 - carried.as_nanos() as i64,
        }
    }

    /// Place `n` folded ticks, the first at `first`, in `[last, now]`,
    /// with `carried` overhead pending at `last`. Also returns the
    /// overhead still carried at `now`.
    fn place(
        last: SimTime,
        now: SimTime,
        carried: SimDuration,
        first: SimTime,
        n: u64,
    ) -> (Self, SimDuration) {
        let (t, c) = (TICK_PERIOD.as_nanos(), TICK_COST.as_nanos());
        let (last_ns, p0) = (last.as_nanos(), carried.as_nanos());
        let lead = first.as_nanos() as i64 - last_ns as i64 - p0 as i64;
        // Ticks that land while the carried overhead (grown by the
        // ticks before them) is still being worked off extend it.
        let absorbed = if lead >= 0 {
            0
        } else {
            lead.unsigned_abs().div_ceil(Self::GAP).min(n)
        };
        let busy_end = last_ns + p0 + absorbed * c;
        let mut consumed = busy_end.min(now.as_nanos()) - last_ns;
        if n > absorbed {
            let last_tick = first.as_nanos() + (n - 1) * t;
            consumed += (n - absorbed - 1) * c + c.min(now.as_nanos() - last_tick);
        }
        let windows = Windows {
            carried: p0,
            n,
            lead,
        };
        (windows, SimDuration::from_nanos(p0 + n * c - consumed))
    }

    /// Productive time from the start of the stretch to tick `k` (from
    /// 0).
    fn productive_before(&self, k: u64) -> u64 {
        (self.lead + (k * Self::GAP) as i64).max(0) as u64
    }

    /// The first tick before which at least `work` ns of productive time
    /// has passed since the start of the stretch.
    fn first_tick_after(&self, work: u64) -> u64 {
        let need = work as i64 - self.lead;
        if work == 0 || need <= 0 {
            0
        } else {
            (need as u64).div_ceil(Self::GAP)
        }
    }

    /// Ticks whose cost falls before productive time `p` ns, `p > 0`.
    fn ticks_before(&self, p: f64) -> u64 {
        let need = p - self.lead as f64;
        if need <= 0.0 {
            0
        } else {
            ((need / Self::GAP as f64).ceil() as u64).min(self.n)
        }
    }

    /// Wall time from the start of the stretch at which `p` ns of
    /// productive time are done.
    fn wall(&self, p: u64) -> SimDuration {
        let ticks = if p == 0 || self.n == 0 {
            0
        } else {
            self.ticks_before(p as f64)
        };
        SimDuration::from_nanos(self.carried + p + TICK_COST.as_nanos() * ticks)
    }

    /// The exponentials of `traj` over these windows that do not depend
    /// on how far the productive time reaches; none for a flat one.
    fn decays(&self, traj: &Trajectory) -> Decays {
        let mut decays = Decays {
            windows: *self,
            traj: *traj,
            head: 0,
            start: 1.0,
            at_tick: 0.0,
            after_tick: 0.0,
            between: 0.0,
        };
        if traj.flat() {
            return decays;
        }
        let (t, c) = (TICK_PERIOD.as_nanos(), TICK_COST.as_nanos());
        // Ticks whose cost precedes the first productive instant.
        let head = if self.n == 0 || self.lead > 0 {
            0
        } else {
            (self.lead.unsigned_abs() / Self::GAP + 1).min(self.n)
        };
        let start = self.carried + c * head;
        decays.head = head;
        let d = |ns: u64| traj.decay_over(SimDuration::from_nanos(ns));
        if start > 0 {
            decays.start = d(start);
        }
        if head < self.n {
            let tick = (self.lead + self.carried as i64) as u64 + t * head;
            let (cost, period) = (d(c), d(t));
            decays.at_tick = d(tick);
            decays.after_tick = decays.at_tick * cost;
            // Each window between ticks: `D(τ + c) − D(τ + T)`.
            decays.between = decays.after_tick * (1.0 - period / cost) / (1.0 - period);
        }
        decays
    }
}

/// [`Windows`] with one trajectory's fixed exponentials taken: with
/// `D(u) = e^(−λu)`, `u` in wall time from the start of the stretch,
/// `start` is `D` at the first productive instant, `at_tick` and
/// `after_tick` are `D` at the first tick after it and at the end of
/// that tick's cost, and `between · (1 − D(TICK_PERIOD)^m)` sums the `m`
/// whole windows between the ticks that follow. A flat trajectory needs
/// none of them.
struct Decays {
    windows: Windows,
    traj: Trajectory,
    head: u64,
    start: f64,
    at_tick: f64,
    after_tick: f64,
    between: f64,
}

impl Decays {
    /// `∫ e^(−λu) du` over the productive windows up to productive time
    /// `p` ns (`u` in seconds), and `e^(−λu)` where `p` is done. The
    /// windows between ticks are `D(TICK_PERIOD)` apart, so their sum is
    /// geometric. A flat trajectory takes no exponential: its gap of zero
    /// cancels whatever this returns.
    fn integral(&self, p: f64) -> (f64, f64) {
        if self.traj.flat() {
            return (0.0, 1.0);
        }
        let w = &self.windows;
        let d = |ns: f64| self.traj.decay(ns * 1e-9);
        let ticks = if self.head == w.n {
            self.head
        } else {
            w.ticks_before(p).max(self.head)
        };
        if ticks == self.head {
            // Before the first tick ahead: one window.
            let end = self.start * d(p);
            return ((self.start - end) * self.traj.inv_lambda, end);
        }
        // Up to the first tick, whole windows between ticks, then from
        // the end of the last tick's cost on.
        let m = ticks - 1 - self.head;
        let rest = self.traj.decay_over(TICK_PERIOD * m);
        let after_last = self.after_tick * rest;
        let since = p - (w.lead + ((ticks - 1) * Windows::GAP) as i64) as f64;
        let end = after_last * d(since);
        let sum = self.start - self.at_tick + self.between * (1.0 - rest) + after_last - end;
        (sum * self.traj.inv_lambda, end)
    }
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
        let mut class_of_kind = [None; 4];
        for (i, c) in classes.iter_mut().enumerate() {
            c.init(ncpus);
            class_of_kind[c.kind() as usize].get_or_insert(i);
        }
        let balance_clock = BalanceClock::new(&domains);
        let mut node = Node {
            cache: CacheModel::new(&self.topo),
            counters: PerCpuCounters::new(ncpus),
            cpus: (0..ncpus)
                .map(|_| CpuState {
                    curr: None,
                    last_update: SimTime::ZERO,
                    seg_gen: 0,
                    seg_due: SimTime::ZERO,
                    pending_overhead: SimDuration::ZERO,
                    folded: 0,
                    fold_first: SimTime::ZERO,
                    next_tick: SimTime::ZERO,
                    seg_ticks: false,
                })
                .collect(),
            queue: EventQueue::new(),
            rng: Rng::new(self.seed),
            sync: SyncState::new(),
            tasks: TaskTable::new(),
            balance_clock,
            classes,
            class_of_kind,
            cfg: self.cfg,
            domains,
            topo: self.topo,
            resched: CpuMask::EMPTY,
            recomp: CpuMask::EMPTY,
            advancing: Vec::new(),
            wake_bufs: Vec::new(),
            observers: Vec::new(),
            ring: None,
            irq: self.noise.irq.clone(),
            load: LoadSnapshot::empty(ncpus),
            plan_buf: Vec::new(),
            tick_slots: Vec::new(),
            ff_fired: vec![0; ncpus],
            ff_start: vec![SimTime::ZERO; ncpus],
            net_spans: Vec::new(),
            outbound: Vec::new(),
            gang_refs: std::collections::BTreeMap::new(),
            gang_active: None,
            gang_armed: None,
            gang_shares: std::collections::BTreeMap::new(),
            gang_slice_mark: None,
            events: 0,
            exits: 0,
        };
        // Stagger per-CPU ticks across the tick period. The fast path
        // routes them through the queue's periodic timer-wheel slots;
        // the reference path schedules plain events that the tick
        // handler re-arms. Both allocate sequence numbers in the same
        // order, so the two paths produce identical event streams.
        let period = TICK_PERIOD;
        for c in 0..ncpus as u32 {
            let offset = SimDuration::from_nanos(period.as_nanos() * (c as u64) / ncpus as u64);
            let first = SimTime::ZERO + period + offset;
            node.cpus[c as usize].next_tick = first;
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
    /// Index into `classes` of the first class of each [`ClassKind`]
    /// (indexed by discriminant; one slot per variant), `None` for a
    /// kind no registered class has.
    class_of_kind: [Option<usize>; 4],
    cpus: Vec<CpuState>,
    cache: CacheModel,
    balance_clock: BalanceClock,
    rng: Rng,
    /// CPUs awaiting a reschedule / a completion re-estimate, drained
    /// lowest CPU first by [`Self::drain`].
    resched: CpuMask,
    recomp: CpuMask,
    /// Guard against re-entrant program advancement per pid.
    advancing: Vec<Pid>,
    /// Reusable buffers for the waiters one notify or barrier release
    /// satisfies. Delivery nests (a satisfied spinner's program runs
    /// and may notify again), so each level takes its own buffer from
    /// this stack and returns it emptied: steady state never allocates.
    wake_bufs: Vec<Vec<(Pid, Waiting)>>,
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
    /// Scratch for `fast_forward` (per-slot fire counts / pre-batch
    /// tick times for all-idle balance replay).
    ff_fired: Vec<u64>,
    ff_start: Vec<SimTime>,
    /// Registered cross-node channel spans, in registration order: a
    /// [`Step::NetSend`] on a channel the newest matching span calls
    /// external is captured into `outbound` instead of notifying
    /// locally.
    net_spans: Vec<NetSpan>,
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
    /// means equal shares: the plain `(t / epoch) % count` rotation,
    /// with no [`SchedEvent::GangSlice`] published.
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

    /// Start recording every scheduler event into a bounded log —
    /// attaches a [`RingSink`]. Cheap enough for examples and debugging;
    /// leave off for bulk experiments.
    pub fn enable_trace(&mut self, capacity: usize) {
        let id = self.attach_observer(Box::new(RingSink::new(capacity)));
        self.ring = Some(id);
    }

    /// The trace recorded so far, if [`Self::enable_trace`] was called.
    pub fn trace(&self) -> Option<&RingSink> {
        self.observer::<RingSink>(self.ring?)
    }

    /// Render the trace recorded so far as Chrome-trace JSON (see
    /// [`crate::observe::chrome_trace_json`]), closing open occupancy
    /// slices at the current time and naming tasks `"{name} {pid}"`
    /// from the task table. `None` if tracing is off.
    pub fn export_chrome_trace(&self) -> Option<String> {
        let ring = self.trace()?;
        Some(crate::observe::chrome_trace_json(
            &[(ring, self.now())],
            |_, pid| format!("{} {}", self.tasks.get(pid).name, pid),
        ))
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
    #[inline]
    fn class_idx(&self, task: &Task) -> usize {
        self.class_of_kind[class_of_policy(task.policy) as usize]
            .unwrap_or_else(|| panic!("no scheduling class registered for {:?}", task.policy))
    }

    /// Whether a policy can be used on this node.
    pub fn supports_policy(&self, policy: crate::task::Policy) -> bool {
        self.class_of_kind[class_of_policy(policy) as usize].is_some()
    }

    fn sched_ctx<'a>(
        topo: &'a Topology,
        domains: &'a DomainHierarchy,
        now: SimTime,
    ) -> SchedCtx<'a> {
        SchedCtx { now, topo, domains }
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

    /// The SMT factor of `cpu` under its siblings' current tasks. A
    /// sibling's occupancy change reaches a CPU at its next settle (which
    /// the change forces) and counts from the CPU's previous one: ticks
    /// settle every millisecond, so the change takes effect at tick
    /// granularity.
    fn smt_factor(&self, cpu: CpuId) -> f64 {
        // The core's hardware threads are numbered consecutively (see
        // `Topology::smt_siblings`); index them directly.
        let tpc = self.topo.threads_per_core();
        let first = self.topo.core_of(cpu) * tpc;
        if (first..first + tpc).any(|c| c != cpu.0 && self.cpus[c as usize].curr.is_some()) {
            SMT_BUSY_FACTOR
        } else {
            1.0
        }
    }

    /// Full-speed work (seconds) that `pid`, current on `cpu`, does from
    /// the CPU's last settle over `elapsed` of wall time, of which
    /// `productive` falls in `folded`'s windows or, without folded
    /// ticks, after the overhead; the productive time scaled by the SMT
    /// factor (ns); and its trajectory with the decay at the end. Closed
    /// form of `∫ smt·(cold + (1−cold)·w(t)) dt` over the productive
    /// time, with warmth evolving in wall time.
    ///
    /// A settle over folded ticks that a sibling's occupancy change
    /// forces runs the windows before the last folded tick at the old
    /// SMT factor, which the cache model still holds: per-tick settling
    /// met the change at that tick.
    fn stretch_work(
        &self,
        cpu: CpuId,
        pid: Pid,
        elapsed: SimDuration,
        productive: SimDuration,
        folded: Option<&Windows>,
    ) -> (f64, f64, Trajectory, f64) {
        let (traj, stamp) = self.cache.trajectory(&self.topo, cpu, pid);
        debug_assert!(
            stamp.is_none_or(|s| s == self.cpus[cpu.index()].last_update),
            "{cpu}: footprint stamp {stamp:?} is not the last settle"
        );
        // A flat trajectory's decays only ever meet its zero gap.
        let flat = traj.flat();
        let end = if flat { 1.0 } else { traj.decay_over(elapsed) };
        if productive.is_zero() {
            return (0.0, 0.0, traj, end);
        }
        let smt = self.smt_factor(cpu);
        let p = productive.as_nanos() as f64;
        let Some(w) = folded else {
            let overhead = elapsed - productive;
            let start = if overhead.is_zero() || flat {
                1.0
            } else {
                traj.decay_over(overhead)
            };
            let x = (start - end) * traj.inv_lambda;
            return (smt * traj.work(p * 1e-9, x), smt * p, traj, end);
        };
        let decays = w.decays(&traj);
        let all = traj.work(p * 1e-9, decays.integral(p).0);
        let then = if self.cache.co_runners(&self.topo, cpu) > 0 {
            SMT_BUSY_FACTOR
        } else {
            1.0
        };
        if then == smt {
            return (smt * all, smt * p, traj, end);
        }
        let before = (w.productive_before(w.n - 1) as f64).min(p);
        let early = traj.work(before * 1e-9, decays.integral(before).0);
        let work = then * early + smt * (all - early);
        (work, then * before + smt * (p - before), traj, end)
    }

    /// Wall time from now until `pid`, current on `cpu` and settled, has
    /// done `work_s` of full-speed work, with its productive time in
    /// `windows`. Newton iteration on the productive time: the speed
    /// only rises while the task warms and only falls while it cools,
    /// across tick windows too, so the work is convex or concave in it.
    fn time_for_work(&self, cpu: CpuId, pid: Pid, work_s: f64, windows: &Windows) -> SimDuration {
        debug_assert!(work_s >= 0.0);
        if work_s <= 0.0 {
            return windows.wall(0);
        }
        let (traj, _) = self.cache.trajectory(&self.topo, cpu, pid);
        let decays = windows.decays(&traj);
        let smt = self.smt_factor(cpu);
        // Start at the speed of the first productive instant: the work
        // is then on the side of the root from which the iteration
        // converges monotonically.
        let mut p = work_s / (smt * traj.speed(decays.start));
        for _ in 0..32 {
            let (x, end) = decays.integral(p * 1e9);
            let f = smt * traj.work(p, x) - work_s;
            let step = f / (smt * traj.speed(end)).max(1e-12);
            p -= step;
            if step.abs() < 0.5e-9 {
                break;
            }
        }
        windows.wall(round_to_u64(p.max(0.0) * 1e9))
    }

    /// Settle a CPU's accounting up to `now`: apply progress to the
    /// current task, charge overheads, and update the cache model.
    fn sync_cpu(&mut self, cpu: CpuId, now: SimTime) {
        if self.cpus[cpu.index()].folded > 0 {
            self.sync_folded(cpu, now);
        } else {
            self.settle(cpu, now, None);
        }
    }

    /// `sync_cpu` over ticks folded since the last settle, accounted
    /// exactly as settling at each of them would have: [`Windows`]
    /// places their cost, the settle works off just the overhead that
    /// placement consumes and integrates over the windows in between,
    /// and [`Self::replay_folded`] runs the class accounting with the
    /// slice refreshes the ticks would have made.
    fn sync_folded(&mut self, cpu: CpuId, now: SimTime) {
        let c = &mut self.cpus[cpu.index()];
        let (last, folded) = (c.last_update, c.folded);
        let pid = c.curr.expect("a CPU with folded ticks runs a task");
        let (windows, pending) =
            Windows::place(last, now, c.pending_overhead, c.fold_first, folded);
        let consumed = c.pending_overhead + TICK_COST * folded - pending;
        (c.pending_overhead, c.folded) = (consumed, 0);
        self.replay_folded(cpu, pid, &windows, (now - last) - consumed);
        self.settle(cpu, now, Some(&windows));
        self.cpus[cpu.index()].pending_overhead = pending;
    }

    /// The settle itself. Without `folded` windows it also runs the
    /// class's `update_curr` on the productive time.
    #[inline(always)]
    fn settle(&mut self, cpu: CpuId, now: SimTime, folded: Option<&Windows>) {
        let idx = cpu.index();
        let last = self.cpus[idx].last_update;
        if now <= last {
            return;
        }
        let elapsed = now - last;
        let Some(pid) = self.cpus[idx].curr else {
            // Idle CPU: overheads are absorbed invisibly.
            self.cpus[idx].last_update = now;
            self.cpus[idx].pending_overhead = SimDuration::ZERO;
            return;
        };
        // Overhead (tick handlers, switch costs) eats wall time first;
        // warmth evolves through it all the same.
        let overhead = self.cpus[idx].pending_overhead.min(elapsed);
        self.cpus[idx].pending_overhead -= overhead;
        let productive = elapsed - overhead;
        let (work_s, smt_ns, traj, end) = self.stretch_work(cpu, pid, elapsed, productive, folded);
        self.cpus[idx].last_update = now;
        self.cache
            .settle_running(&self.topo, cpu, pid, traj.warmth(end), now);
        if productive.is_zero() {
            return;
        }
        let work_ns = round_to_u64(work_s * 1e9);
        // Counter attribution: lost cycles split between SMT contention
        // and cold-cache stall.
        let ideal_ns = productive.as_nanos();
        let smt_progress_ns = round_to_u64(smt_ns).min(ideal_ns);
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
        if folded.is_none() {
            let ci = self.class_idx(self.tasks.get(pid));
            // update_curr needs &mut task and &mut class simultaneously:
            // split borrows via direct field access.
            let (classes, tasks) = (&mut self.classes, &mut self.tasks);
            classes[ci].update_curr(cpu, tasks.get_mut(pid), productive);
        }
    }

    /// The class accounting of a settle over folded ticks: `update_curr`
    /// with the span's `productive` time, cut at the ticks where a
    /// per-tick settle would have found the timeslice run out and
    /// `task_tick` refreshed it. A folding class's tick does nothing
    /// else ([`SchedClass::tick_skippable`]), and after the first
    /// refresh the slice runs out every `⌈slice / (TICK_PERIOD −
    /// TICK_COST)⌉` ticks, so at most two refreshes are replayed: the
    /// first and the last.
    fn replay_folded(&mut self, cpu: CpuId, pid: Pid, span: &Windows, productive: SimDuration) {
        let ci = self.class_idx(self.tasks.get(pid));
        let (classes, tasks) = (&mut self.classes, &mut self.tasks);
        let (class, task) = (&mut classes[ci], tasks.get_mut(pid));
        let mut done = 0;
        let mut run_to = |class: &mut Box<dyn SchedClass>, task: &mut Task, to: u64| {
            if to > done {
                class.update_curr(cpu, task, SimDuration::from_nanos(to - done));
                done = to;
            }
        };
        let first = span.first_tick_after(task.time_slice.as_nanos());
        if first < span.n {
            let at = span.productive_before(first);
            run_to(class, task, at);
            let resched = class.task_tick(cpu, task);
            debug_assert!(!resched, "{cpu}: a folded tick asked to preempt");
            let slice = task.time_slice.as_nanos();
            let next = span.first_tick_after(at + slice);
            if slice > 0 && next < span.n {
                let period = slice.div_ceil(Windows::GAP);
                let last = next + (span.n - 1 - next) / period * period;
                run_to(class, task, span.productive_before(last));
                class.task_tick(cpu, task);
            }
        }
        run_to(class, task, productive.as_nanos());
    }

    /// Wall time from now until `pid`, current on `cpu`, finishes its
    /// segment at the CPU's present speed, behind its pending overhead
    /// and, with `ticks`, the cost of every tick of the CPU due before
    /// then: the instant per-tick settling runs out of work. Zero when
    /// the segment completed during accounting (e.g. a sync landed right
    /// past the estimate), so the program advances at once.
    fn completion_delay(&self, cpu: CpuId, pid: Pid, ticks: bool) -> SimDuration {
        let remaining = self.tasks.get(pid).segment_remaining;
        if remaining == 0 {
            return SimDuration::ZERO;
        }
        let c = &self.cpus[cpu.index()];
        let windows = if ticks {
            Windows::ticking(c.pending_overhead, c.next_tick - self.now())
        } else {
            Windows::plain(c.pending_overhead)
        };
        self.time_for_work(cpu, pid, remaining as f64 * 1e-9, &windows)
            .max(SimDuration::from_nanos(1))
    }

    /// Re-estimate and schedule the segment-completion event of `cpu`.
    ///
    /// Only a change of the CPU's speed or of its task's remaining work
    /// flags a re-estimate (`recomp`). Overhead charged later (ticks,
    /// IRQs, balance passes) only delays the productive time, and so
    /// the end, so the live event stays and fires early; `on_seg_done`
    /// then finds work left and re-solves once. On a CPU whose ticks
    /// fold the solve includes the ticks ahead, so only IRQs leave a
    /// re-solve. Under `tickless_single_hpc` it does not: a queued
    /// daemon leaving would make those ticks free and the event late.
    fn schedule_completion(&mut self, cpu: CpuId) {
        let idx = cpu.index();
        self.cpus[idx].seg_gen += 1;
        let gen = self.cpus[idx].seg_gen;
        let Some(pid) = self.cpus[idx].curr else {
            return;
        };
        debug_assert_eq!(
            self.cpus[idx].last_update,
            self.now(),
            "{cpu}: re-estimate from unsettled accounting"
        );
        // A segment that ends before the CPU's next tick needs no fold
        // test. One that reaches past it even at full speed crosses it;
        // otherwise the tick-free solve tells.
        let c = &self.cpus[idx];
        let (fastest, to_tick) = (
            c.pending_overhead.as_nanos() as f64
                + self.tasks.get(pid).segment_remaining as f64 / self.smt_factor(cpu),
            (c.next_tick - self.now()).as_nanos() as f64,
        );
        let mut plain = None;
        let crosses = fastest > to_tick || {
            let delay = self.completion_delay(cpu, pid, false);
            plain = Some(delay);
            self.now() + delay > self.cpus[idx].next_tick
        };
        let ticks = crosses
            && !self.cfg.tickless_single_hpc
            && self.tick_class(cpu, self.now()) == TickClass::Folds;
        let delay = match plain {
            Some(delay) if !ticks => delay,
            _ => self.completion_delay(cpu, pid, ticks),
        };
        let due = self.now() + delay;
        self.cpus[idx].seg_due = due;
        self.cpus[idx].seg_ticks = ticks;
        self.queue.schedule(due, Ev::SegDone { cpu, gen });
    }

    /// Debug oracle of the lazy rule in [`Self::schedule_completion`]:
    /// `Some((live due time, fresh solve))` when `cpu`'s live `SegDone`
    /// is later than a fresh solve allows. A late event means a speed-up
    /// or new work skipped `recomp`. Call it right after a sync.
    ///
    /// The slack is [`COMPLETION_SLACK`]: each sync rounds work to whole
    /// ns (at most 1.2 ns of wall time at the slowest speed, SMT × cold
    /// cache), and each solve converges within 0.5 ns and rounds once.
    /// Every tick and IRQ adds microseconds of overhead the live event
    /// does not include, which only widens the margin: warmth follows
    /// wall time, so overhead only removes work. A live event that
    /// included the ticks ahead is checked against a solve that does
    /// too.
    fn late_completion(&self, cpu: CpuId) -> Option<(SimTime, SimTime)> {
        let pid = self.cpus[cpu.index()].curr?;
        if self.resched.contains(cpu) || self.recomp.contains(cpu) {
            return None; // a re-estimate is already due
        }
        let due = self.cpus[cpu.index()].seg_due;
        let fresh = self.now() + self.completion_delay(cpu, pid, self.cpus[cpu.index()].seg_ticks);
        (due > fresh + COMPLETION_SLACK).then_some((due, fresh))
    }

    // ---------------------------------------------------------------
    // State transitions
    // ---------------------------------------------------------------

    fn set_task_cpu(&mut self, pid: Pid, to: CpuId, reason: MigrateReason) {
        let from = self.tasks.get(pid).cpu;
        if from == to {
            return;
        }
        self.cache.migrate(&self.topo, pid, from, to, self.now());
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
            self.cpus[from.index()].pending_overhead += MIGRATION_COST;
            self.cpus[to.index()].pending_overhead += MIGRATION_COST;
            self.counters
                .add_hw(to, HwEvent::CtxSwitchOverheadNs, MIGRATION_COST.as_nanos());
        }
    }

    fn enqueue_task(&mut self, cpu: CpuId, pid: Pid, wakeup: bool) {
        let ci = self.class_idx(self.tasks.get(pid));
        // A task queued behind a folding CPU's current task, in its
        // class, ends the folding: settle first, so the replayed ticks
        // see the queue they fired on.
        let curr = self.cpus[cpu.index()].curr;
        if self.cpus[cpu.index()].folded > 0
            && curr.is_some_and(|c| self.class_idx(self.tasks.get(c)) == ci)
        {
            self.sync_cpu(cpu, self.now());
        }
        self.classes[ci].enqueue(cpu, self.tasks.get_mut(pid), wakeup);
        self.load.nr_running[cpu.index()] += 1;
    }

    fn dequeue_task(&mut self, cpu: CpuId, pid: Pid) {
        // Under `tickless_single_hpc` a dequeue can leave a folding
        // CPU's task alone, whose ticks then stop costing: settle first,
        // so folded ticks stay consecutive.
        self.settle_folded(cpu);
        let ci = self.class_idx(self.tasks.get(pid));
        self.classes[ci].dequeue(cpu, self.tasks.get_mut(pid));
        self.load.nr_running[cpu.index()] -= 1;
    }

    /// Settle `cpu` if it has ticks folded: the step before any change
    /// that may end its folding without passing through a settle.
    fn settle_folded(&mut self, cpu: CpuId) {
        if self.cpus[cpu.index()].folded > 0 {
            self.sync_cpu(cpu, self.now());
        }
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
                        if self.classes[ci_w].wakeup_preempt(
                            cpu,
                            self.tasks.get(curr),
                            self.tasks.get(woken),
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
            self.resched.set(cpu);
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
            let (classes, tasks, topo, domains, load) = (
                &mut self.classes,
                &self.tasks,
                &self.topo,
                &self.domains,
                &self.load,
            );
            let ctx = Self::sched_ctx(topo, domains, now);
            classes[ci].select_cpu_wakeup(tasks.get(pid), &ctx, load, tasks)
        };
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
                let (classes, tasks, topo, domains, load) = (
                    &mut self.classes,
                    &self.tasks,
                    &self.topo,
                    &self.domains,
                    &self.load,
                );
                let ctx = Self::sched_ctx(topo, domains, now);
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
                // running task and carries it over.
                self.counters
                    .add_sw(plan.from, SwEvent::InvoluntaryPreemptions, 1);
            }
            // A freshly moved task restarts its sustained-wait clock, so
            // competing balance passes do not ping-pong it. That clock is
            // the later of this and its last deschedule, so a running
            // task's deschedule now need not be recorded.
            self.tasks.get_mut(plan.pid).last_wakeup = self.now();
            self.move_task(plan.pid, plan.from, plan.to, MigrateReason::Balance);
            applied += 1;
        }
        applied
    }

    /// Move `pid`, queued or running on `from`, to `to`'s queue: a running
    /// task is descheduled ([`Self::deschedule`]), a queued one dequeued;
    /// the move counts as a migration for `reason`, and `to` checks
    /// preemption.
    fn move_task(&mut self, pid: Pid, from: CpuId, to: CpuId, reason: MigrateReason) {
        if self.tasks.get(pid).state == TaskState::Running {
            self.deschedule(from, pid);
        } else {
            self.dequeue_task(from, pid);
        }
        self.set_task_cpu(pid, to, reason);
        self.enqueue_task(to, pid, false);
        self.check_preempt(to, pid);
    }

    /// Take `pid`, current on `cpu`, off it mid-segment — a forced
    /// context switch, as the migration thread makes in Linux: settle the
    /// CPU, leave `pid` runnable and in no class queue, and reschedule
    /// the CPU, which also re-solves its completion.
    fn deschedule(&mut self, cpu: CpuId, pid: Pid) {
        debug_assert_eq!(self.cpus[cpu.index()].curr, Some(pid));
        self.sync_cpu(cpu, self.now());
        self.tasks.get_mut(pid).state = TaskState::Runnable;
        self.set_curr(cpu, None);
        self.counters.add_sw(cpu, SwEvent::ContextSwitches, 1);
        self.resched.set(cpu);
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
            let (classes, tasks, topo, domains, load) = (
                &mut self.classes,
                &self.tasks,
                &self.topo,
                &self.domains,
                &self.load,
            );
            let ctx = Self::sched_ctx(topo, domains, now);
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
                    .iter_live()
                    .filter(|t| t.parent == Some(p) && t.state != TaskState::Dead)
                    .map(|t| t.pid),
            );
            i += 1;
        }
        let mut killed = 0;
        for &pid in &members {
            let (state, cpu) = {
                let t = self.tasks.get(pid);
                (t.state, t.cpu)
            };
            match state {
                TaskState::Dead => continue,
                TaskState::Running => self.deschedule(cpu, pid),
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
            self.exit_task(pid);
            killed += 1;
        }
        self.drain();
        killed
    }

    /// The bookkeeping of `pid`'s exit, once it is on no CPU and in no
    /// class queue: sync waits forgotten, `exited_at` stamped, its cache
    /// footprints and gang membership dropped, and its parent told (and
    /// woken from a `Children` wait by its last child).
    fn exit_task(&mut self, pid: Pid) {
        self.sync.forget(self.tasks.get(pid));
        self.tasks.exit(pid, self.now());
        self.exits += 1;
        if !self.observers.is_empty() {
            let cpu = self.tasks.get(pid).cpu;
            self.emit(SchedEvent::Deactivate {
                pid,
                cpu,
                reason: DeactivateReason::Exit,
            });
        }
        self.cache.forget(pid);
        self.gang_release(pid);
        if let Some(pp) = self.tasks.get(pid).parent {
            let p = self.tasks.get_mut(pp);
            p.alive_children = p.alive_children.saturating_sub(1);
            if p.alive_children == 0 && p.state == TaskState::Blocked(BlockReason::Children) {
                self.wake_task(pp);
            }
        }
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
        self.resched.set(cpu);
    }

    /// Deposit `tokens` on the node-local channel `chan` and deliver
    /// every waiter it satisfies.
    fn notify_local(&mut self, chan: ChanId, tokens: u32) {
        let mut woken = self.wake_bufs.pop().unwrap_or_default();
        self.sync.notify(chan, tokens, &mut woken);
        self.deliver_all(woken);
    }

    /// Arrive at barrier `id` on behalf of `pid` and deliver everyone
    /// the arrival releases.
    fn arrive_barrier(&mut self, id: BarrierId, parties: u32, pid: Pid, spin: bool) -> WaitOutcome {
        let mut woken = self.wake_bufs.pop().unwrap_or_default();
        let outcome = self.sync.barrier_arrive(id, parties, pid, spin, &mut woken);
        self.deliver_all(woken);
        outcome
    }

    /// Deliver each satisfied waiter in `woken`, in order, then return
    /// the emptied buffer to the stack.
    fn deliver_all(&mut self, mut woken: Vec<(Pid, Waiting)>) {
        for &(p, how) in &woken {
            self.deliver(p, how);
        }
        woken.clear();
        self.wake_bufs.push(woken);
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
                    self.recomp.set(cpu);
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
                    self.recomp.set(cpu);
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
                        self.recomp.set(cpu);
                        break;
                    }
                },
                Step::Notify { chan, tokens } => {
                    self.notify_local(chan, tokens);
                    continue;
                }
                Step::NetSend {
                    chan,
                    tokens,
                    bytes,
                } => {
                    if self.net_external(chan) {
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
                        self.notify_local(chan, tokens);
                    }
                    continue;
                }
                Step::Barrier { id, parties } => match self.arrive_barrier(id, parties, pid, false)
                {
                    WaitOutcome::Proceed => continue,
                    WaitOutcome::Wait => {
                        self.block_curr(cpu, pid, BlockReason::Barrier(id));
                        break;
                    }
                },
                Step::BarrierSpin {
                    id,
                    parties,
                    spin_limit,
                } => match self.arrive_barrier(id, parties, pid, true) {
                    WaitOutcome::Proceed => continue,
                    WaitOutcome::Wait => {
                        let t = self.tasks.get_mut(pid);
                        t.spin = Some(SpinTarget::Barrier(id));
                        t.segment_remaining = spin_limit.as_nanos().max(1);
                        self.recomp.set(cpu);
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
                    // Only the current task exits: it leaves its CPU at
                    // the reschedule.
                    self.exit_task(pid);
                    self.resched.set(self.tasks.get(pid).cpu);
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
                // the task under its new class. Folded ticks replay
                // under the class they fired in.
                let cpu = self.tasks.get(pid).cpu;
                self.settle_folded(cpu);
                self.tasks.get_mut(pid).set_policy(policy);
                self.resched.set(cpu);
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
            // A running task moves at once, as the migration thread
            // would carry it in Linux.
            TaskState::Runnable | TaskState::Running => {
                self.move_task(pid, cpu, dest, MigrateReason::Affinity)
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

    /// Set gang `gang`'s milli-CPU share for weighted slicing. While
    /// any share is set, each gang's slice of the rotation period is
    /// proportional to its share (gangs without an entry weigh the
    /// default 1000), computed by [`crate::gang::weighted_slices`] —
    /// still a pure function of the shared virtual clock, so lockstep
    /// nodes with the same gangs and shares stay aligned without
    /// messages. Equal shares, and an empty table, give the plain
    /// `(t / epoch) % count` rotation. Shares of gangs whose last member
    /// exits are pruned automatically.
    pub fn gang_set_share(&mut self, gang: u64, share_milli: u32) {
        assert!(share_milli > 0, "gang share must be non-zero");
        if self.gang_shares.insert(gang, share_milli) == Some(share_milli) {
            return;
        }
        self.gang_recompute();
        self.drain();
    }

    /// The gang currently allowed to run (`None` = no rotation in
    /// force: fewer than two gangs live, or no epoch configured).
    pub fn gang_active(&self) -> Option<u64> {
        self.gang_active
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
        // force). Gangs without a share weigh the default 1000, so an
        // empty table is equal shares: `(t / epoch) % count`, switching
        // at epoch multiples.
        let (desired, boundary) = match epoch {
            Some(len) if self.gang_refs.len() >= 2 => {
                let shares = &self.gang_shares;
                let gangs = self
                    .gang_refs
                    .keys()
                    .map(|&g| (g, shares.get(&g).copied().unwrap_or(1000)));
                let (active, next) =
                    crate::gang::active_at(self.now().as_nanos(), len.as_nanos(), gangs);
                (Some(active), Some(next))
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
                self.resched = self.topo.all_cpus();
            }
            if !self.observers.is_empty() {
                self.emit(SchedEvent::GangEpoch {
                    active: desired,
                    gangs: self.gang_refs.len() as u32,
                });
            }
        }
        // While a share is set, publish one GangSlice per slice — keyed
        // on (gang, boundary) so mid-slice recomputes don't re-emit, and
        // a share change that *moves* the boundary emits the corrected
        // remainder. Share-free runs emit none, so their observer
        // streams are those of the plain rotation.
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
            // Arm the next slice boundary when nothing is pending, or
            // when a share change moved the boundary *earlier* than the
            // pending event — the stale later event recomputes
            // harmlessly when it fires. Without shares the boundary is
            // the next epoch multiple, never earlier than a pending one.
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

        if let Some(p) = prev {
            self.tasks.get_mut(p).last_descheduled = now;
            if self.tasks.get(p).state == TaskState::Running {
                self.tasks.get_mut(p).state = TaskState::Runnable;
                let ci = self.class_idx(self.tasks.get(p));
                self.classes[ci].put_prev(cpu, self.tasks.get_mut(p));
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
            self.cpus[idx].pending_overhead += BALANCE_COST;
            let mut plans = std::mem::take(&mut self.plan_buf);
            let mut pulled = 0;
            for ci in 0..self.classes.len() {
                plans.clear();
                {
                    let (classes, tasks, topo, domains, load) = (
                        &mut self.classes,
                        &self.tasks,
                        &self.topo,
                        &self.domains,
                        &self.load,
                    );
                    let ctx = Self::sched_ctx(topo, domains, now);
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
            self.cpus[idx].pending_overhead += CTX_SWITCH_COST;
            self.counters.add_hw(
                cpu,
                HwEvent::CtxSwitchOverheadNs,
                CTX_SWITCH_COST.as_nanos(),
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

        // Commit the CPU's task to the cache model, which the speed model
        // reads, so siblings re-solve even when the task left before the
        // reschedule ran (yanked by a migration, or woken and placed
        // elsewhere). A change of the core's occupancy changes the
        // siblings' SMT speed and their footprints' rates: they settle
        // under the old occupancy first.
        let was = self.cache.running(cpu);
        if was != new {
            if was.is_some() != new.is_some() {
                for sib in self.topo.smt_siblings(cpu).iter() {
                    if sib != cpu {
                        self.sync_cpu(sib, now);
                        self.recomp.set(sib);
                    }
                }
            }
            self.cache.set_running(&self.topo, cpu, new, now);
        }
        self.recomp.set(cpu);

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
        // `schedule` may flag any CPU, a lower one included: each pop
        // takes the lowest flag set at that moment. Re-estimates flag
        // nothing, so one ascending pass drains them.
        while let Some(cpu) = self.resched.pop_first() {
            self.schedule(cpu);
        }
        while let Some(cpu) = self.recomp.pop_first() {
            self.schedule_completion(cpu);
        }
        #[cfg(debug_assertions)]
        self.assert_load_consistent();
    }

    /// What this CPU's timer tick, fired at `now`, has to do: the one
    /// test the tick handler, the fast-forward and the completion solve
    /// all read.
    ///
    /// - [`TickClass::Quiescent`]: a provable no-op beyond counting
    ///   itself. An idle CPU with nothing queued (NOHZ idle) or, under
    ///   `tickless_single_hpc`, a lone HPC task whose class says its
    ///   tick is skippable; in both cases only when no periodic balance
    ///   level is due, since balancing observes and mutates cross-CPU
    ///   state.
    /// - [`TickClass::Folds`]: counts itself, its cost and class tick
    ///   left to the CPU's next settle ([`Self::sync_cpu`]). An HPC task
    ///   runs whose class says its tick is skippable, with balancing off.
    ///   Per-tick settling then composes exactly: the CPU's speed
    ///   follows one closed form between settles, since a sibling's
    ///   occupancy change settles it, and no other CPU's settle touches
    ///   its footprint. The answer changes only at a settle: every
    ///   change to an input (the current task or its policy, the current
    ///   class's queue) settles the CPU first.
    /// - [`TickClass::Dispatch`]: everything else, handled in full; free
    ///   of the handler cost on an idle CPU (always tickless) and on a
    ///   lone HPC task under `tickless_single_hpc`.
    ///
    /// Cheapest tests first: this runs on every tick, in every
    /// fast-forward scan and in completion solves. The incremental load
    /// view answers "is anything queued?" in O(1): `nr_running` counts
    /// the current task plus every queued task across classes, so a lone
    /// task is `nr_running == 1`; its class of the current task is `Hpc`
    /// exactly when the task's policy is.
    #[inline]
    fn tick_class(&self, cpu: CpuId, now: SimTime) -> TickClass {
        let idx = cpu.index();
        let full = self.cfg.balance == BalanceMode::Full;
        let Some(pid) = self.cpus[idx].curr else {
            return if self.load.nr_running[idx] == 0
                && !(full && self.balance_clock.any_due(cpu, now))
            {
                TickClass::Quiescent
            } else {
                TickClass::Dispatch { free: true }
            };
        };
        let lone = self.cfg.tickless_single_hpc && self.load.nr_running[idx] == 1;
        if self.load.curr_kind[idx] != Some(ClassKind::Hpc) || (full && !lone) {
            return TickClass::Dispatch { free: false };
        }
        let t = self.tasks.get(pid);
        if !self.classes[self.class_idx(t)].tick_skippable(cpu, t) {
            TickClass::Dispatch { free: lone }
        } else if !lone {
            TickClass::Folds
        } else if full && self.balance_clock.any_due(cpu, now) {
            TickClass::Dispatch { free: true }
        } else {
            TickClass::Quiescent
        }
    }

    /// Count `n` consecutive busy ticks of a folding CPU, the first at
    /// `first`: each still counts in `TimerTicks` and charges
    /// `TICK_COST` to `TickOverheadNs`; `sync_cpu` places the cost.
    fn fold_ticks(&mut self, cpu: CpuId, first: SimTime, n: u64) {
        let c = &mut self.cpus[cpu.index()];
        if c.folded == 0 {
            c.fold_first = first;
        }
        debug_assert_eq!(
            c.fold_first + TICK_PERIOD * c.folded,
            first,
            "{cpu}: folded ticks must be consecutive"
        );
        c.folded += n;
        self.counters.add_sw(cpu, SwEvent::TimerTicks, n);
        self.counters
            .add_hw(cpu, HwEvent::TickOverheadNs, TICK_COST.as_nanos() * n);
    }

    // ---------------------------------------------------------------
    // Event handlers
    // ---------------------------------------------------------------

    /// The timer tick. A quiescent tick only counts itself: an idle
    /// CPU's skipped settle is exact (its pending overhead is absorbed
    /// at the next sync-before-pick), and a lone tickless-HPC task's
    /// accounting is settled in one lump at its next real event. A
    /// folding tick counts itself; the CPU's next settle accounts it.
    /// Both event paths run this, so fast and reference runs stay
    /// byte-identical; it re-arms the reference path's next tick, its
    /// one re-arm site.
    fn on_tick(&mut self, cpu: CpuId) {
        let now = self.now();
        let idx = cpu.index();
        let class = self.tick_class(cpu, now);
        debug_assert!(
            self.cpus[idx].folded == 0 || class == TickClass::Folds,
            "{cpu}: tick folding ended without a settle"
        );
        let outcome = match class {
            TickClass::Quiescent => {
                self.counters.add_sw(cpu, SwEvent::TimerTicks, 1);
                TickOutcome::Quiescent
            }
            TickClass::Folds => {
                self.fold_ticks(cpu, now, 1);
                TickOutcome::Folded
            }
            TickClass::Dispatch { free } => self.dispatch_tick(cpu, now, free),
        };
        if !self.observers.is_empty() {
            self.emit(SchedEvent::Tick { cpu, outcome });
        }
        if matches!(class, TickClass::Dispatch { .. }) && self.cfg.balance == BalanceMode::Full {
            self.periodic_balance(cpu, now);
        }
        // Last: the late-completion check above still counts this tick
        // among those ahead. The fast path's periodic slot re-armed
        // itself when this tick was popped, with the sequence number
        // this `schedule` draws: the handler allocates no other event.
        let next = now + TICK_PERIOD;
        self.cpus[idx].next_tick = next;
        if !self.cfg.fast_event_loop {
            self.queue.schedule(next, Ev::Tick(cpu));
        }
    }

    /// A tick handled in full: settle, charge the handler cost (the
    /// micro-noise) unless the tick is `free`, and run the scheduler
    /// class's tick (slice expiry etc.).
    fn dispatch_tick(&mut self, cpu: CpuId, now: SimTime, free: bool) -> TickOutcome {
        let idx = cpu.index();
        self.sync_cpu(cpu, now);
        debug_assert_eq!(self.late_completion(cpu), None, "{cpu}: late SegDone");
        self.counters.add_sw(cpu, SwEvent::TimerTicks, 1);
        if !free {
            self.cpus[idx].pending_overhead += TICK_COST;
            self.counters
                .add_hw(cpu, HwEvent::TickOverheadNs, TICK_COST.as_nanos());
        }
        let mut resched = false;
        if let Some(pid) = self.cpus[idx].curr {
            let ci = self.class_idx(self.tasks.get(pid));
            if self.classes[ci].task_tick(cpu, self.tasks.get_mut(pid)) {
                self.resched.set(cpu);
                resched = true;
            }
        }
        if free {
            TickOutcome::Skipped
        } else {
            TickOutcome::Accounted { resched }
        }
    }

    /// Periodic load balancing at a dispatched tick. Busy CPUs balance
    /// far less often (sd->busy_factor), so steady-state 2-vs-1 blips
    /// rarely trigger steals; a CPU left idle re-arms quickly.
    fn periodic_balance(&mut self, cpu: CpuId, now: SimTime) {
        let idx = cpu.index();
        let busy = self.cpus[idx].curr.is_some();
        let due = self.balance_clock.due_levels(cpu, now, &self.domains, busy);
        let mut plans = std::mem::take(&mut self.plan_buf);
        for level in due {
            self.counters.add_sw(cpu, SwEvent::LoadBalanceCalls, 1);
            self.cpus[idx].pending_overhead += BALANCE_COST;
            let mut moved = 0;
            for ci in 0..self.classes.len() {
                plans.clear();
                {
                    let (classes, tasks, topo, domains, load) = (
                        &mut self.classes,
                        &self.tasks,
                        &self.topo,
                        &self.domains,
                        &self.load,
                    );
                    let ctx = Self::sched_ctx(topo, domains, now);
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
            self.recomp.set(cpu);
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
        debug_assert_eq!(self.late_completion(cpu), None, "{cpu}: late SegDone");
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
                self.notify_local(chan, tokens);
            }
        }
    }

    /// Register one job's cross-node channels on this node: from now on
    /// a [`Step::NetSend`] on a channel `span` classifies as external
    /// is captured into the outbound queue (for the cluster driver)
    /// instead of notifying locally. Registration is append-only for a
    /// node's lifetime. Jobs sharing a node own disjoint id ranges, so
    /// at most one span matches a channel; the scan runs newest first
    /// because the sender is almost always a recent launch.
    pub fn register_net_span(&mut self, span: NetSpan) {
        self.net_spans.push(span);
    }

    fn net_external(&self, chan: ChanId) -> bool {
        self.net_spans
            .iter()
            .rev()
            .find_map(|s| s.classify(chan))
            .unwrap_or(false)
    }

    /// Drain the captured outbound messages into `buf` (cleared first),
    /// handing the node `buf`'s old allocation as its next capture
    /// buffer. A driver that routes every window through the same
    /// scratch vector therefore recycles capacity in both directions and
    /// the per-window hot path stops allocating. Order is capture order,
    /// which is simulation order.
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

    /// Time of this node's next pending event, if any. Cluster lockstep
    /// picks the next window from the minimum over nodes; it caches
    /// this value per node and re-reads it only after something that
    /// can move it (stepping, a delivery, a spawn, a kill, a share
    /// change).
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
    /// [`Self::tick_class`] proves are no-ops, or that fold, advancing
    /// their wheel slots
    /// arithmetically instead of popping one event each. Folded ticks
    /// are credited to their CPU's fold count, as dispatching them
    /// would.
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
        if horizon - per_t < TICK_PERIOD * 2 {
            return 0;
        }
        // A pending reschedule/re-estimate (e.g. set_affinity called
        // between runs) must be handled in event order by the next
        // step()'s drain — batching ahead of it would reorder.
        if !self.resched.is_empty() || !self.recomp.is_empty() {
            return 0;
        }
        // Without tickless-HPC, a fully loaded node (every CPU running
        // or queueing something) has no quiescent tick, and a folding
        // one only if balancing is off. This is the hot bail-out while
        // a job occupies the whole machine under a balancing kernel.
        if !self.cfg.tickless_single_hpc
            && self.cfg.balance == BalanceMode::Full
            && self.load.nr_running.iter().all(|&n| n > 0)
        {
            return 0;
        }
        let now = self.now();
        let all_idle = self.load.nr_running.iter().all(|&n| n == 0);
        let replay_balance = self.cfg.balance == BalanceMode::Full && all_idle;
        let mut folding = CpuMask::EMPTY;
        if !all_idle {
            let balance_caps = self.cfg.balance == BalanceMode::Full;
            let mut any_batched = false;
            for i in 0..self.cpus.len() {
                let cpu = CpuId(i as u32);
                match self.tick_class(cpu, now) {
                    TickClass::Quiescent => {
                        any_batched = true;
                        if balance_caps {
                            if let Some(d) = self.balance_clock.next_deadline(cpu) {
                                horizon = horizon.min(d);
                            }
                        }
                    }
                    TickClass::Folds => {
                        any_batched = true;
                        folding.set(cpu);
                    }
                    TickClass::Dispatch { .. } => {
                        horizon = horizon.min(self.queue.periodic_time(self.tick_slots[i]));
                    }
                }
            }
            // Fully busy node: no tick can batch, skip the buffer setup.
            if !any_batched {
                return 0;
            }
        }
        if horizon <= now {
            return 0;
        }
        for f in self.ff_fired.iter_mut() {
            *f = 0;
        }
        // Pre-advance pending tick times: the balance replay and the
        // fold count below need each slot's first batched fire time.
        if replay_balance {
            for i in 0..self.ff_start.len() {
                self.ff_start[i] = self.queue.periodic_time(self.tick_slots[i]);
            }
        }
        for cpu in folding.iter() {
            self.ff_start[cpu.index()] = self.queue.periodic_time(self.tick_slots[cpu.index()]);
        }
        let mut fired = std::mem::take(&mut self.ff_fired);
        let total = self.queue.advance_periodic(horizon, &mut fired);
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
                    TICK_PERIOD,
                );
                if calls > 0 {
                    self.counters.add_sw(cpu, SwEvent::LoadBalanceCalls, calls);
                    self.cpus[i].pending_overhead += BALANCE_COST * calls;
                }
            }
        }
        for (i, &n) in fired.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let cpu = CpuId(i as u32);
            if folding.contains(cpu) {
                self.fold_ticks(cpu, self.ff_start[i], n);
            } else {
                self.counters.add_sw(cpu, SwEvent::TimerTicks, n);
            }
            self.cpus[i].next_tick = self.queue.periodic_time(self.tick_slots[i]);
        }
        self.ff_fired = fired;
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

    #[test]
    fn overhead_only_ticks_leave_the_live_completion_alone() {
        // One 2 s compute segment on an otherwise quiet node. Each busy
        // tick charges `TICK_COST` but re-solves nothing: beside the
        // ticks, only the segment's first estimate and the few re-solves
        // after it fires early by the accumulated overhead dispatch.
        let mut node = quiet_node();
        let pid = node.spawn(compute_spec("job", 2000));
        assert!(node.run_until_exit(pid, 10_000_000).is_complete());
        let ticks = node.counters.total().sw(SwEvent::TimerTicks);
        let others = node.events_processed() - ticks;
        let busy_ticks = node.counters.total().hw(HwEvent::TickOverheadNs) / TICK_COST.as_nanos();
        assert!(busy_ticks >= 2000, "{busy_ticks} busy ticks");
        assert!(others <= 8, "{others} non-tick events beside {ticks} ticks");
    }

    /// The completion solve inverts the settle: on a lone and on an SMT
    /// pair of ranks, for warm and cold caches, with and without carried
    /// overhead, settling at the solved instant leaves at most a
    /// nanosecond of the work, and settling two nanoseconds earlier
    /// leaves some.
    #[test]
    fn time_for_work_inverts_the_settle_integral() {
        let mut rng = Rng::new(0xe4b0);
        for case in 0..200 {
            let smt = case % 2 == 1;
            let carried = SimDuration::from_nanos(match case % 3 {
                0 => 0,
                1 => rng.below(TICK_COST.as_nanos()),
                _ => rng.below(4 * TICK_PERIOD.as_nanos()),
            });
            // Work from 1 ns to 1 s, log-spread.
            let work = 10f64.powf(rng.range_f64(0.0, 9.0)) as u64;
            let seed = rng.next_u64();
            let (node, pid) = folding_node(seed, carried, RoundRobin::SLICE, work, smt);
            let delay = node.completion_delay(CpuId(0), pid, false);
            let done = |at: SimDuration| {
                let productive = at - carried.min(at);
                let (work_s, ..) = node.stretch_work(CpuId(0), pid, at, productive, None);
                round_to_u64(work_s * 1e9)
            };
            let ctx = format!("case {case}: smt {smt} carried {carried} work {work}");
            assert!(
                done(delay) + 1 >= work,
                "{ctx}: {} left at {delay}",
                work - done(delay)
            );
            let early = delay.saturating_sub(SimDuration::from_nanos(2));
            assert!(
                early <= carried || done(early) < work,
                "{ctx}: done before {delay}"
            );
        }
    }

    /// `drain` reschedules CPUs lowest first, whatever order their flags
    /// were set in, and rescans from the bottom after each `schedule`:
    /// a lower CPU flagged by a reschedule runs before higher ones.
    #[test]
    fn drain_reschedules_lowest_cpu_first_with_rescan() {
        let mut node = quiet_node();
        let on = |cpu: u32, spec: TaskSpec| spec.with_affinity(CpuMask::single(CpuId(cpu)));
        let chan = ChanId(7);
        let script = |name: &str, steps: Vec<Step>| {
            TaskSpec::new(
                name,
                Policy::Normal { nice: 0 },
                ScriptProgram::boxed(name, steps),
            )
        };
        let work = || Step::Compute(SimDuration::from_millis(1));
        // The waiter blocks on cpu0 at once, leaving it idle.
        let waiter = node.spawn(on(0, script("waiter", vec![Step::WaitChan(chan), work()])));
        assert!(matches!(
            node.tasks.get(waiter).state,
            TaskState::Blocked(_)
        ));
        node.enable_trace(64);
        // Forks without a drain: flags set on cpu3, cpu2, cpu1 in turn.
        node.create_task(None, on(3, script("c3", vec![work()])));
        let notify = Step::Notify { chan, tokens: 1 };
        node.create_task(None, on(2, script("notify", vec![notify, work()])));
        node.create_task(None, on(1, script("c1", vec![work()])));
        assert_eq!(node.resched.bits(), 0b1110);
        node.drain();
        // cpu2's new task wakes the waiter onto cpu0, which is served
        // before cpu3.
        let picks: Vec<u32> = node
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter_map(|(_, ev)| match ev {
                SchedEvent::Pick { cpu, .. } => Some(cpu.0),
                _ => None,
            })
            .collect();
        assert_eq!(picks, [1, 2, 0, 3]);
        assert_eq!(node.current(CpuId(0)), Some(waiter));
        assert!(node.resched.is_empty() && node.recomp.is_empty());
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
            fn enqueue(&mut self, c: CpuId, t: &mut Task, w: bool) {
                self.0.enqueue(c, t, w)
            }
            fn dequeue(&mut self, c: CpuId, t: &mut Task) {
                self.0.dequeue(c, t)
            }
            fn pick_next(&mut self, c: CpuId, tt: &TaskTable) -> Option<Pid> {
                self.0.pick_next(c, tt)
            }
            fn put_prev(&mut self, c: CpuId, t: &mut Task) {
                self.0.put_prev(c, t)
            }
            fn update_curr(&mut self, c: CpuId, t: &mut Task, r: SimDuration) {
                self.0.update_curr(c, t, r)
            }
            fn task_tick(&mut self, c: CpuId, t: &mut Task) -> bool {
                self.0.task_tick(c, t)
            }
            fn wakeup_preempt(&self, c: CpuId, a: &Task, b: &Task) -> bool {
                self.0.wakeup_preempt(c, a, b)
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

    /// Round-robin HPC class with the tick contract of the HPL class
    /// (which lives above this crate): a lone task's tick only refreshes
    /// its slice once the slice has run out. The slice is short, so a
    /// few hundred ticks see many refreshes.
    #[derive(Default)]
    struct RoundRobin {
        rqs: Vec<std::collections::VecDeque<Pid>>,
    }

    impl RoundRobin {
        const SLICE: SimDuration = SimDuration::from_millis(5);
    }

    impl SchedClass for RoundRobin {
        fn kind(&self) -> ClassKind {
            ClassKind::Hpc
        }
        fn init(&mut self, n: usize) {
            self.rqs = (0..n).map(|_| Default::default()).collect();
        }
        fn enqueue(&mut self, c: CpuId, t: &mut Task, _w: bool) {
            if t.time_slice.is_zero() {
                t.time_slice = Self::SLICE;
            }
            self.rqs[c.index()].push_back(t.pid);
        }
        fn dequeue(&mut self, c: CpuId, t: &mut Task) {
            self.rqs[c.index()].retain(|&p| p != t.pid);
        }
        fn pick_next(&mut self, c: CpuId, _tt: &TaskTable) -> Option<Pid> {
            self.rqs[c.index()].pop_front()
        }
        fn put_prev(&mut self, c: CpuId, t: &mut Task) {
            if t.time_slice.is_zero() {
                t.time_slice = Self::SLICE;
                self.rqs[c.index()].push_back(t.pid);
            } else {
                self.rqs[c.index()].push_front(t.pid);
            }
        }
        fn update_curr(&mut self, _c: CpuId, t: &mut Task, r: SimDuration) {
            t.time_slice = t.time_slice.saturating_sub(r);
        }
        fn task_tick(&mut self, c: CpuId, t: &mut Task) -> bool {
            if t.time_slice.is_zero() {
                if !self.rqs[c.index()].is_empty() {
                    return true;
                }
                t.time_slice = Self::SLICE;
            }
            false
        }
        fn tick_skippable(&self, c: CpuId, _t: &Task) -> bool {
            self.rqs[c.index()].is_empty()
        }
        fn wakeup_preempt(&self, _c: CpuId, _a: &Task, _b: &Task) -> bool {
            false
        }
        fn nr_queued(&self, c: CpuId) -> u32 {
            self.rqs[c.index()].len() as u32
        }
        fn queued_pids(&self, c: CpuId) -> Vec<Pid> {
            self.rqs[c.index()].iter().copied().collect()
        }
        fn select_cpu_fork(
            &mut self,
            t: &Task,
            p: CpuId,
            _x: &SchedCtx<'_>,
            _s: &LoadSnapshot,
            _tt: &TaskTable,
        ) -> CpuId {
            if t.affinity.contains(p) {
                p
            } else {
                t.affinity.first().expect("non-empty affinity")
            }
        }
    }

    /// A node whose CPU 0 runs one long HPC task, settled at `now` after
    /// a seeded warm-up, with the case's carried overhead, timeslice and
    /// remaining work installed. On `smp(2)` the task has its core to
    /// itself; with `smt`, on POWER6, a second rank runs on its SMT
    /// sibling, unsettled.
    fn folding_node(
        seed: u64,
        carried: SimDuration,
        slice: SimDuration,
        work_ns: u64,
        smt: bool,
    ) -> (Node, Pid) {
        let topo = if smt {
            Topology::power6_js22()
        } else {
            Topology::smp(2)
        };
        let mut node = NodeBuilder::new(topo)
            .with_config(KernelConfig::hpl())
            .with_hpc_class(Box::new(RoundRobin::default()))
            .with_seed(seed)
            .build();
        let rank = |name: &str, cpu: u32| {
            TaskSpec::new(
                name,
                Policy::Hpc,
                ScriptProgram::boxed(name, vec![Step::Compute(SimDuration::from_secs(100))]),
            )
            .with_affinity(CpuMask::single(CpuId(cpu)))
        };
        let pid = node.spawn(rank("rank", 0));
        if smt {
            node.spawn(rank("sibling", 1));
        }
        node.run_for(SimDuration::from_micros(5_000 + seed % 7_000));
        let cpu = CpuId(0);
        assert_eq!(node.current(cpu), Some(pid));
        assert_eq!(node.tick_class(cpu, node.now()), TickClass::Folds);
        assert_eq!(node.smt_factor(cpu) < 1.0, smt);
        let now = node.now();
        node.sync_cpu(cpu, now);
        node.cpus[0].pending_overhead = carried;
        let t = node.tasks.get_mut(pid);
        t.time_slice = slice;
        t.segment_remaining = work_ns;
        (node, pid)
    }

    /// What `on_tick` did per busy tick before folding: settle, charge
    /// the handler cost, run the class tick.
    fn settle_tick(node: &mut Node, pid: Pid, at: SimTime) {
        let cpu = CpuId(0);
        node.sync_cpu(cpu, at);
        node.cpus[0].pending_overhead += TICK_COST;
        let ci = node.class_idx(node.tasks.get(pid));
        let (classes, tasks) = (&mut node.classes, &mut node.tasks);
        assert!(!classes[ci].task_tick(cpu, tasks.get_mut(pid)));
    }

    /// Seeded case parameters: carried overhead (none, inside one tick
    /// cost, or spanning several ticks), timeslice (expired, or due to
    /// expire in the span), the number of ticks, and the span's end
    /// relative to its last tick (on the tick, at the edges of its cost
    /// window, or anywhere).
    fn fold_case(rng: &mut Rng) -> (SimDuration, SimDuration, u64, u64) {
        let c = TICK_COST.as_nanos();
        let carried = match rng.below(3) {
            0 => 0,
            1 => rng.below(c),
            _ => rng.below(4 * TICK_PERIOD.as_nanos()),
        };
        let slice = match rng.below(3) {
            0 => 0,
            _ => 1 + rng.below(RoundRobin::SLICE.as_nanos()),
        };
        // Few ticks: the span can end inside the carried overhead.
        let most = if rng.below(2) == 0 { 6 } else { 300 };
        let n = 1 + rng.below(most);
        let tail = match rng.below(5) {
            0 => 0,
            1 => c - 1,
            2 => c,
            3 => c + 1,
            _ => rng.below(TICK_PERIOD.as_nanos()),
        };
        (
            SimDuration::from_nanos(carried),
            SimDuration::from_nanos(slice),
            n,
            tail,
        )
    }

    /// Both fold oracles run every case on a core of its own and beside
    /// a running SMT sibling.
    const TOPOLOGIES: [bool; 2] = [false, true];

    /// Settle `n` ticks folded and tick by tick on a folding node, the
    /// span ending `tail` after its last tick, and compare: counters,
    /// carried overhead and slice exact, work, cache stall and SMT loss
    /// within 1 ns a tick. With `leaves`, the SMT sibling leaves at the
    /// end of the span, which settles CPU 0 before the cache model
    /// commits it.
    fn check_fold(
        seed: u64,
        carried: SimDuration,
        slice: SimDuration,
        n: u64,
        tail: u64,
        (smt, leaves): (bool, bool),
        case: usize,
    ) {
        let work = 1_000_000_000;
        let (mut folded, pid) = folding_node(seed, carried, slice, work, smt);
        let (mut ticked, _) = folding_node(seed, carried, slice, work, smt);
        let first = folded.cpus[0].next_tick;
        let last_tick = first + TICK_PERIOD * (n - 1);
        let end = last_tick + SimDuration::from_nanos(tail);
        folded.cpus[0].folded = n;
        folded.cpus[0].fold_first = first;
        for k in 0..n {
            settle_tick(&mut ticked, pid, first + TICK_PERIOD * k);
        }
        if leaves {
            folded.cpus[1].curr = None;
            ticked.cpus[1].curr = None;
        }
        folded.sync_cpu(CpuId(0), end);
        ticked.sync_cpu(CpuId(0), end);

        let ctx = format!(
            "case {case} smt {smt} leaves {leaves}: carried {carried} slice {slice} n {n} tail {tail}"
        );
        let (a, b) = (folded.tasks.get(pid), ticked.tasks.get(pid));
        assert_eq!(a.time_slice, b.time_slice, "{ctx}: slice");
        assert_eq!(a.total_runtime, b.total_runtime, "{ctx}: runtime");
        assert_eq!(
            folded.cpus[0].pending_overhead, ticked.cpus[0].pending_overhead,
            "{ctx}: carried overhead"
        );
        let (ca, cb) = (folded.counters.total(), ticked.counters.total());
        assert_eq!(
            ca.hw(HwEvent::BusyNs),
            cb.hw(HwEvent::BusyNs),
            "{ctx}: busy"
        );
        // Alone on its core a task has no SMT loss, folded or not. Beside
        // a running sibling the loss, like the cache stall, is rounded at
        // every settle.
        let (la, lb) = (
            ca.hw(HwEvent::SmtContentionNs),
            cb.hw(HwEvent::SmtContentionNs),
        );
        if smt {
            assert!(la > 0, "{ctx}: SMT loss {la}");
            assert!(la.abs_diff(lb) <= n, "{ctx}: SMT loss {la} vs {lb}");
        } else {
            assert_eq!(la, lb, "{ctx}: SMT loss");
            assert_eq!(la, 0, "{ctx}: SMT loss");
        }
        let (wa, wb) = (a.segment_remaining, b.segment_remaining);
        assert!(wa.abs_diff(wb) <= n, "{ctx}: remaining {wa} vs {wb}");
        let (sa, sb) = (
            ca.hw(HwEvent::ColdCacheStallNs),
            cb.hw(HwEvent::ColdCacheStallNs),
        );
        assert!(sa.abs_diff(sb) <= n, "{ctx}: cache stall {sa} vs {sb}");
    }

    /// The three placements `check_fold` runs: alone on a core, beside a
    /// running SMT sibling, and with that sibling leaving at the end.
    const FOLD_PLACEMENTS: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

    #[test]
    fn folded_settle_matches_per_tick_settling() {
        let mut rng = Rng::new(0xF01D);
        for case in 0..96 {
            let (carried, slice, n, tail) = fold_case(&mut rng);
            let seed = rng.next_u64();
            for placement in FOLD_PLACEMENTS {
                check_fold(seed, carried, slice, n, tail, placement, case);
            }
        }
    }

    /// Every folded tick lands inside the carried overhead and the span
    /// runs on past it: the ticks' cost is all paid up front.
    #[test]
    fn folded_settle_with_every_tick_absorbed_matches_per_tick_settling() {
        let mut rng = Rng::new(0xAB50);
        let (t, c) = (TICK_PERIOD.as_nanos(), TICK_COST.as_nanos());
        for case in 0..32 {
            let seed = rng.next_u64();
            let n = 1 + rng.below(5);
            // The first tick lands within a period of the settle, so
            // overhead to `n·T` covers every tick; the span ends up to a
            // period after the busy block.
            let carried = n * t + rng.below(t / 2);
            let slice = SimDuration::from_nanos(rng.below(RoundRobin::SLICE.as_nanos()));
            let tail = carried - (n - 1) * t + n * c + 1 + rng.below(t);
            for placement in FOLD_PLACEMENTS {
                check_fold(
                    seed,
                    SimDuration::from_nanos(carried),
                    slice,
                    n,
                    tail,
                    placement,
                    case,
                );
            }
        }
    }

    #[test]
    fn completion_fixed_point_is_where_per_tick_settling_runs_out() {
        let mut rng = Rng::new(0xD0E);
        let cpu = CpuId(0);
        for case in 0..96 {
            let (carried, _, _, _) = fold_case(&mut rng);
            let work = 1 + rng.below(400_000_000);
            let seed = rng.next_u64();
            for smt in TOPOLOGIES {
                let (folded, pid) = folding_node(seed, carried, RoundRobin::SLICE, work, smt);
                let (mut ticked, _) = folding_node(seed, carried, RoundRobin::SLICE, work, smt);
                let due = folded.now() + folded.completion_delay(cpu, pid, true);
                // Settle tick by tick until a plain solve from the settled
                // state ends before the next tick. Warmth runs on through
                // each tick's cost, so what is left is tracked as work,
                // unrounded: every settle rounds the task's own count.
                let mut left = work as f64 * 1e-9;
                let mut at = ticked.cpus[0].last_update;
                let mut tick = ticked.cpus[0].next_tick;
                let done = loop {
                    let pending = ticked.cpus[0].pending_overhead;
                    let end = at + ticked.time_for_work(cpu, pid, left, &Windows::plain(pending));
                    if end <= tick {
                        break end;
                    }
                    let elapsed = tick - at;
                    let productive = elapsed - pending.min(elapsed);
                    left -= ticked.stretch_work(cpu, pid, elapsed, productive, None).0;
                    settle_tick(&mut ticked, pid, tick);
                    (at, tick) = (tick, tick + TICK_PERIOD);
                };
                let gap = due.as_nanos().abs_diff(done.as_nanos());
                assert!(
                    gap <= 2,
                    "case {case} smt {smt}: carried {carried} work {work}: {due} vs {done}"
                );
            }
        }
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
