//! The Completely Fair Scheduler class.
//!
//! Models the CFS mechanisms the paper's analysis hinges on:
//!
//! * **vruntime fairness** — each task accumulates virtual runtime
//!   inversely proportional to its nice-derived weight; the leftmost
//!   (smallest-vruntime) task runs next.
//! * **sleeper fairness** — a task that wakes from sleep is placed at
//!   `min_vruntime − SLEEPER_BONUS`, so daemons that sleep most of the
//!   time *always* look underserved. This is precisely why raising an HPC
//!   task's static priority (nice) cannot prevent preemption: "a user
//!   daemon that has been sleeping for enough time [...] can preempt a
//!   process with a high static priority" (§IV).
//! * **wakeup preemption** — the woken task preempts the current one if
//!   its vruntime lag exceeds `WAKEUP_GRANULARITY`.
//! * **load balancing** — periodic, domain-driven balancing plus new-idle
//!   pulls, both operating on runnable-task counts (the paper: "the Linux
//!   load balancer does not distinguish between the parallel application
//!   and the rest of the user and kernel daemons").
//!
//! Simplifications relative to `fair.c`, documented in DESIGN.md: no task
//! groups (no cgroup hierarchies exist in these experiments), integer
//! task counts instead of weighted load in the balancer, and a vruntime
//! clamp on enqueue standing in for `migrate_task_rq_fair`'s
//! renormalisation.

use crate::class::{ClassKind, LoadSnapshot, MigrationPlan, SchedClass, SchedCtx};
use crate::task::{Pid, Policy, Task, TaskTable, NICE_0_WEIGHT};
use hpl_sim::SimDuration;
use hpl_topology::CpuId;

/// `sysctl_sched_latency` after the `1+log2(ncpus)` scaling Linux
/// applies (8 CPUs → factor 4 → 24 ms).
const SCHED_LATENCY: SimDuration = SimDuration::from_millis(24);
/// `sysctl_sched_min_granularity` (scaled: 3 ms).
const MIN_GRANULARITY: SimDuration = SimDuration::from_millis(3);
/// `sysctl_sched_wakeup_granularity` (scaled: 4 ms). A waking task
/// preempts the current one if its vruntime lag exceeds this.
const WAKEUP_GRANULARITY: SimDuration = SimDuration::from_millis(4);
/// GENTLE_FAIR_SLEEPERS: a waking sleeper is placed at
/// `min_vruntime − SCHED_LATENCY/2`, giving daemons the boost that
/// defeats `nice`-based protection of HPC tasks.
const SLEEPER_BONUS: SimDuration = SimDuration::from_millis(12);
/// Steal gate combining `sysctl_sched_migration_cost` (cache-hot tasks
/// are not stolen) with load-average smoothing (a task queued only
/// briefly is not a *sustained* imbalance): a task is stealable once it
/// has been waiting this long.
const HOT_TASK_THRESHOLD: SimDuration = SimDuration::from_millis(3);

const _: () = assert!(MIN_GRANULARITY.as_nanos() <= SCHED_LATENCY.as_nanos());

/// Queued tasks each runqueue has room for from boot: more than a
/// node's daemons and launcher tasks ever stack on one CPU, so the hot
/// path does not regrow the timeline (a longer queue grows it once, as
/// any `Vec`).
const RQ_RESERVE: usize = 32;

/// Per-CPU CFS runqueue.
#[derive(Debug, Default)]
struct CfsRq {
    /// Queued tasks as a sorted, duplicate-free `(vruntime, pid)`
    /// list — Linux's red-black tree as a flat vector: runqueues hold a
    /// handful of tasks, and the vector keeps its capacity where a
    /// B-tree frees and reallocates nodes as the queue shrinks and
    /// regrows. The running task is *not* queued, as in Linux.
    timeline: Vec<(u64, Pid)>,
    /// Monotonic floor of vruntime on this CPU.
    min_vruntime: u64,
    /// Sum of queued task weights.
    queued_weight: u64,
}

impl CfsRq {
    /// Queue `key`; false if it was already queued.
    fn insert(&mut self, key: (u64, Pid)) -> bool {
        match self.timeline.binary_search(&key) {
            Ok(_) => false,
            Err(i) => {
                self.timeline.insert(i, key);
                true
            }
        }
    }

    /// Unqueue `key`; false if it was not queued.
    fn remove(&mut self, key: (u64, Pid)) -> bool {
        match self.timeline.binary_search(&key) {
            Ok(i) => {
                self.timeline.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    fn advance_min_vruntime(&mut self, candidate: u64) {
        if candidate > self.min_vruntime {
            self.min_vruntime = candidate;
        }
    }
}

/// The CFS scheduling class.
#[derive(Debug, Default)]
pub struct CfsClass {
    rqs: Vec<CfsRq>,
    /// Reused candidate buffer for `idle_balance` (new-idle fires on every
    /// transition to idle; allocating a Vec per call shows up in profiles).
    idle_scratch: Vec<CpuId>,
}

impl CfsClass {
    /// New, uninitialised class (the node calls [`SchedClass::init`]).
    pub fn new() -> Self {
        CfsClass::default()
    }

    fn rq(&self, cpu: CpuId) -> &CfsRq {
        &self.rqs[cpu.index()]
    }

    fn rq_mut(&mut self, cpu: CpuId) -> &mut CfsRq {
        &mut self.rqs[cpu.index()]
    }

    /// Count of this class's active tasks on `cpu`: queued plus the
    /// current task if it is a CFS task.
    fn active_on(&self, cpu: CpuId, snap: &LoadSnapshot) -> u32 {
        let running = (snap.curr_kind[cpu.index()] == Some(ClassKind::Fair)) as u32;
        self.rq(cpu).timeline.len() as u32 + running
    }

    /// Pick a steal victim on `from` that may run on `to`: the leftmost
    /// queued task whose affinity admits the destination and that
    /// represents a *sustained* imbalance. Two Linux mechanisms are
    /// folded into one test: `task_hot()` (don't move a task that ran
    /// within `sched_migration_cost` — its cache is warm) and the load
    /// tracking that makes balancing respond to time-averaged load rather
    /// than instantaneous runqueue blips (a daemon queued for the few
    /// microseconds before its sleeper-fairness preemption fires never
    /// shows up in `load_avg`, so it is never worth stealing). A task is
    /// stealable only when it has been waiting — neither run nor woken
    /// nor moved — for at least [`HOT_TASK_THRESHOLD`].
    fn steal_candidate(
        &self,
        from: CpuId,
        to: CpuId,
        ctx: &SchedCtx<'_>,
        tasks: &TaskTable,
    ) -> Option<Pid> {
        self.rq(from)
            .timeline
            .iter()
            .map(|&(_, pid)| pid)
            .find(|&pid| {
                let t = tasks.get(pid);
                let waited_since = t.last_descheduled.max(t.last_wakeup);
                let sustained = ctx.now.since(waited_since) >= HOT_TASK_THRESHOLD;
                t.can_run_on(to) && sustained
            })
    }

    /// `active_load_balance`: when an SMT core runs two CFS tasks while
    /// the balancing CPU's whole core is idle, nothing is queued to
    /// steal — the overload consists of *running* tasks. The migration
    /// thread then carries one running task over. Without this, a
    /// 2-tasks-on-one-core / 0-on-another layout is stable forever.
    fn active_balance(
        &mut self,
        cpu: CpuId,
        domain: &hpl_topology::SchedDomain,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tasks: &TaskTable,
        plans: &mut Vec<MigrationPlan>,
    ) {
        let core_active = |c: CpuId| -> u32 {
            ctx.topo
                .smt_siblings(c)
                .iter()
                .map(|s| self.active_on(s, snap))
                .sum()
        };
        // Only a CPU on a completely idle core relieves others.
        if core_active(cpu) != 0 {
            return;
        }
        for victim_cpu in domain.span.iter() {
            if ctx.topo.core_of(victim_cpu) == ctx.topo.core_of(cpu) {
                continue;
            }
            if core_active(victim_cpu) < 2 {
                continue;
            }
            let Some(pid) = snap.curr_kind[victim_cpu.index()]
                .filter(|&k| k == ClassKind::Fair)
                .and_then(|_| self.running_victim(victim_cpu, cpu, tasks))
            else {
                continue;
            };
            plans.push(MigrationPlan::active(pid, victim_cpu, cpu));
            return;
        }
    }

    /// The running task on `victim_cpu` if it is migratable: allowed on
    /// the destination and on-CPU long enough to be a sustained overload
    /// rather than a blip (Linux gates active balance behind repeated
    /// failed passive attempts).
    fn running_victim(&self, victim_cpu: CpuId, to: CpuId, tasks: &TaskTable) -> Option<Pid> {
        tasks
            .iter()
            .find(|t| {
                t.state == crate::task::TaskState::Running
                    && t.cpu == victim_cpu
                    && t.can_run_on(to)
                    && t.ran_since_pick >= HOT_TASK_THRESHOLD
            })
            .map(|t| t.pid)
    }
}

impl SchedClass for CfsClass {
    fn kind(&self) -> ClassKind {
        ClassKind::Fair
    }

    fn init(&mut self, ncpus: usize) {
        self.rqs = (0..ncpus)
            .map(|_| CfsRq {
                timeline: Vec::with_capacity(RQ_RESERVE),
                ..CfsRq::default()
            })
            .collect();
    }

    fn enqueue(&mut self, cpu: CpuId, task: &mut Task, wakeup: bool) {
        let latency = SCHED_LATENCY.as_nanos();
        let bonus = SLEEPER_BONUS.as_nanos();
        let rq = self.rq_mut(cpu);
        if wakeup {
            // place_entity: sleepers resume at min_vruntime − bonus
            // (GENTLE_FAIR_SLEEPERS), never *ahead* of where they slept.
            // SCHED_BATCH receives no sleeper credit.
            let credit = match task.policy {
                Policy::Batch { .. } => 0,
                _ => bonus,
            };
            let floor = rq.min_vruntime.saturating_sub(credit);
            task.vruntime = task.vruntime.max(floor);
        }
        // Cross-CPU renormalisation stand-in: keep vruntime within a
        // window of this runqueue's min_vruntime so a task migrated from
        // a CPU with wildly different vruntime neither starves nor hogs.
        let lo = rq.min_vruntime.saturating_sub(latency);
        let hi = rq.min_vruntime.saturating_add(4 * latency);
        task.vruntime = task.vruntime.clamp(lo, hi);
        let inserted = rq.insert((task.vruntime, task.pid));
        debug_assert!(inserted, "{} double-enqueued on {}", task.pid, cpu);
        rq.queued_weight += task.weight;
    }

    fn dequeue(&mut self, cpu: CpuId, task: &mut Task) {
        let rq = self.rq_mut(cpu);
        let removed = rq.remove((task.vruntime, task.pid));
        debug_assert!(removed, "{} not queued on {}", task.pid, cpu);
        rq.queued_weight = rq.queued_weight.saturating_sub(task.weight);
    }

    fn pick_next(&mut self, cpu: CpuId, tasks: &TaskTable) -> Option<Pid> {
        let rq = self.rq_mut(cpu);
        if rq.timeline.is_empty() {
            return None;
        }
        let (vruntime, pid) = rq.timeline.remove(0);
        rq.queued_weight = rq.queued_weight.saturating_sub(tasks.get(pid).weight);
        // min_vruntime tracks the leftmost entity.
        rq.advance_min_vruntime(vruntime);
        Some(pid)
    }

    fn put_prev(&mut self, cpu: CpuId, task: &mut Task) {
        let rq = self.rq_mut(cpu);
        let inserted = rq.insert((task.vruntime, task.pid));
        debug_assert!(inserted);
        rq.queued_weight += task.weight;
    }

    fn update_curr(&mut self, cpu: CpuId, task: &mut Task, ran: SimDuration) {
        if ran.is_zero() {
            return;
        }
        let delta_v = ran.as_nanos().saturating_mul(NICE_0_WEIGHT) / task.weight.max(1);
        task.vruntime = task.vruntime.saturating_add(delta_v);
        let rq = self.rq_mut(cpu);
        // min_vruntime = max(min_vruntime, min(curr, leftmost)).
        let leftmost = rq.timeline.first().map(|&(v, _)| v);
        let cand = match leftmost {
            Some(l) => l.min(task.vruntime),
            None => task.vruntime,
        };
        rq.advance_min_vruntime(cand);
    }

    fn task_tick(&mut self, cpu: CpuId, task: &mut Task) -> bool {
        let rq = self.rq(cpu);
        if rq.timeline.is_empty() {
            return false;
        }
        // Ideal slice: latency share proportional to weight, floored at
        // min_granularity.
        let total_weight = rq.queued_weight + task.weight;
        let slice_ns = SCHED_LATENCY.as_nanos().saturating_mul(task.weight) / total_weight.max(1);
        let slice = SimDuration::from_nanos(slice_ns).max(MIN_GRANULARITY);
        if task.ran_since_pick >= slice {
            return true;
        }
        // Also resched if the leftmost queued task is far behind us.
        if let Some(&(leftmost, _)) = rq.timeline.first() {
            if task.vruntime > leftmost && task.vruntime - leftmost > SCHED_LATENCY.as_nanos() {
                return true;
            }
        }
        false
    }

    fn tick_skippable(&self, cpu: CpuId, _task: &Task) -> bool {
        // Nothing queued to be fair to: `task_tick` returns at once.
        self.rq(cpu).timeline.is_empty()
    }

    fn wakeup_preempt(&self, _cpu: CpuId, curr: &Task, woken: &Task) -> bool {
        // SCHED_BATCH tasks neither preempt nor get preempted on wakeup.
        if matches!(woken.policy, Policy::Batch { .. })
            || matches!(curr.policy, Policy::Batch { .. })
        {
            return false;
        }
        if woken.vruntime >= curr.vruntime {
            return false;
        }
        // Scale granularity by the woken task's weight, as wakeup_gran does.
        let gran =
            WAKEUP_GRANULARITY.as_nanos().saturating_mul(NICE_0_WEIGHT) / woken.weight.max(1);
        curr.vruntime - woken.vruntime > gran
    }

    fn nr_queued(&self, cpu: CpuId) -> u32 {
        self.rq(cpu).timeline.len() as u32
    }

    fn queued_pids(&self, cpu: CpuId) -> Vec<Pid> {
        self.rq(cpu).timeline.iter().map(|&(_, p)| p).collect()
    }

    fn select_cpu_fork(
        &mut self,
        task: &Task,
        parent_cpu: CpuId,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        _tasks: &TaskTable,
    ) -> CpuId {
        // SD_BALANCE_FORK walks the domains top-down: idlest socket
        // group, then idlest core within it, then idlest thread — so
        // successive forks spread across packages before doubling up
        // SMT siblings. Ties prefer the parent's CPU, then lowest id.
        let socket_load = |cpu: CpuId| -> u32 {
            ctx.topo
                .socket_cpus(cpu)
                .iter()
                .map(|c| snap.nr_running[c.index()])
                .sum()
        };
        let core_load = |cpu: CpuId| -> u32 {
            ctx.topo
                .smt_siblings(cpu)
                .iter()
                .map(|c| snap.nr_running[c.index()])
                .sum()
        };
        let mut best: Option<((u32, u32, u32), CpuId)> = None;
        for idx in 0..snap.nr_running.len() {
            let cpu = CpuId(idx as u32);
            if !task.can_run_on(cpu) {
                continue;
            }
            let key = (socket_load(cpu), core_load(cpu), snap.nr_running[idx]);
            let better = match best {
                None => true,
                Some((bk, bc)) => key < bk || (key == bk && cpu == parent_cpu && bc != parent_cpu),
            };
            if better {
                best = Some((key, cpu));
            }
        }
        best.map_or(parent_cpu, |(_, c)| c)
    }

    fn select_cpu_wakeup(
        &mut self,
        task: &Task,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        _tasks: &TaskTable,
    ) -> CpuId {
        let prev = task.cpu;
        // "Free" means nothing running or queued — counting queued tasks
        // prevents a burst of simultaneous wakeups (e.g. a barrier
        // release) from piling onto the first idle CPU.
        let free = |c: CpuId| snap.nr_running[c.index()] == 0;
        // Prev CPU free: stay (cache affinity).
        if task.can_run_on(prev) && free(prev) {
            return prev;
        }
        // Otherwise find a nearby free CPU: SMT siblings, same socket,
        // then anywhere — Linux's wake-affine + select_idle_sibling shape.
        let tiers = [
            ctx.topo.smt_siblings(prev),
            ctx.topo.socket_cpus(prev),
            ctx.topo.all_cpus(),
        ];
        for tier in tiers {
            if let Some(idle) = tier.iter().find(|&c| task.can_run_on(c) && free(c)) {
                return idle;
            }
        }
        // Nothing idle anywhere: remain on prev (no migration).
        if task.can_run_on(prev) {
            prev
        } else {
            task.affinity.first().unwrap_or(prev)
        }
    }

    fn periodic_balance(
        &mut self,
        cpu: CpuId,
        level_idx: usize,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tasks: &TaskTable,
        plans: &mut Vec<MigrationPlan>,
    ) {
        let chain = ctx.domains.chain(cpu);
        let Some(domain) = chain.get(level_idx) else {
            return;
        };
        let local = self.active_on(cpu, snap);
        // Find the busiest CPU in the domain span with something to steal.
        let mut busiest: Option<(CpuId, u32)> = None;
        for other in domain.span.iter() {
            if other == cpu {
                continue;
            }
            let load = self.active_on(other, snap);
            if self.nr_queued(other) >= 1 && busiest.is_none_or(|(_, b)| load > b) {
                busiest = Some((other, load));
            }
        }
        let Some((victim_cpu, victim_load)) = busiest else {
            return self.active_balance(cpu, domain, ctx, snap, tasks, plans);
        };
        // Move one task whenever the victim is strictly busier — the
        // fair.c small-imbalance behaviour (imbalance_pct 125: 2 tasks vs
        // 1 is already a 200% imbalance). This is deliberately faithful
        // to Linux's eagerness, ping-pong included: the paper's point is
        // precisely that this eagerness moves HPC ranks around.
        if victim_load < local + 1 {
            return self.active_balance(cpu, domain, ctx, snap, tasks, plans);
        }
        if let Some(pid) = self.steal_candidate(victim_cpu, cpu, ctx, tasks) {
            plans.push(MigrationPlan::pull(pid, victim_cpu, cpu));
        }
    }

    fn idle_balance(
        &mut self,
        cpu: CpuId,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tasks: &TaskTable,
        plans: &mut Vec<MigrationPlan>,
    ) {
        // newidle: walk domains inner→outer, pull one task from the first
        // CPU found with more than one active task.
        let mut candidates = std::mem::take(&mut self.idle_scratch);
        for domain in ctx.domains.chain(cpu) {
            candidates.clear();
            candidates.extend(
                domain
                    .span
                    .iter()
                    .filter(|&c| c != cpu)
                    .filter(|&c| self.active_on(c, snap) >= 2 && self.nr_queued(c) >= 1),
            );
            // Deterministic order: busiest first, then id.
            candidates.sort_by_key(|&c| (std::cmp::Reverse(self.active_on(c, snap)), c.0));
            for &victim_cpu in &candidates {
                if let Some(pid) = self.steal_candidate(victim_cpu, cpu, ctx, tasks) {
                    plans.push(MigrationPlan::pull(pid, victim_cpu, cpu));
                    self.idle_scratch = candidates;
                    return;
                }
            }
        }
        self.idle_scratch = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_sim::SimTime;
    use hpl_topology::{CpuMask, DomainHierarchy, Topology};

    struct Fixture {
        topo: Topology,
        domains: DomainHierarchy,
    }

    impl Fixture {
        fn new() -> Self {
            let topo = Topology::power6_js22();
            let domains = DomainHierarchy::build(&topo);
            Fixture { topo, domains }
        }

        fn ctx(&self) -> SchedCtx<'_> {
            SchedCtx {
                // Far enough from t=0 that fresh tasks (last activity at
                // the epoch) count as sustained-queued for steal tests.
                now: SimTime::from_nanos(1_000_000_000),
                topo: &self.topo,
                domains: &self.domains,
            }
        }
    }

    fn mk_task(tt: &mut TaskTable, name: &str, nice: i8) -> Pid {
        tt.alloc(|p| Task::new(p, name, Policy::Normal { nice }, CpuMask::first_n(8)))
    }

    fn snapshot(n: usize) -> LoadSnapshot {
        LoadSnapshot::empty(n)
    }

    fn idle_plans(
        cfs: &mut CfsClass,
        cpu: CpuId,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tt: &TaskTable,
    ) -> Vec<MigrationPlan> {
        let mut plans = Vec::new();
        cfs.idle_balance(cpu, ctx, snap, tt, &mut plans);
        plans
    }

    fn periodic_plans(
        cfs: &mut CfsClass,
        cpu: CpuId,
        level: usize,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tt: &TaskTable,
    ) -> Vec<MigrationPlan> {
        let mut plans = Vec::new();
        cfs.periodic_balance(cpu, level, ctx, snap, tt, &mut plans);
        plans
    }

    #[test]
    fn picks_smallest_vruntime() {
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let a = mk_task(&mut tt, "a", 0);
        let b = mk_task(&mut tt, "b", 0);
        tt.get_mut(a).vruntime = 100;
        tt.get_mut(b).vruntime = 50;
        cfs.enqueue(CpuId(0), tt.get_mut(a), false);
        cfs.enqueue(CpuId(0), tt.get_mut(b), false);
        assert_eq!(cfs.pick_next(CpuId(0), &tt), Some(b));
        assert_eq!(cfs.pick_next(CpuId(0), &tt), Some(a));
        assert_eq!(cfs.pick_next(CpuId(0), &tt), None);
    }

    #[test]
    fn sleeper_gets_bonus_placement() {
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let hpc = mk_task(&mut tt, "rank", 0);
        let daemon = mk_task(&mut tt, "daemon", 0);

        // The HPC task runs for 10 s; min_vruntime follows it up.
        cfs.enqueue(CpuId(0), tt.get_mut(hpc), false);
        cfs.pick_next(CpuId(0), &tt);
        cfs.update_curr(CpuId(0), tt.get_mut(hpc), SimDuration::from_secs(10));
        assert_eq!(cfs.rq(CpuId(0)).min_vruntime, 10_000_000_000);

        // A daemon that slept for ages wakes with vruntime 0 → placed at
        // min_vruntime − bonus, not at 0 and not at min_vruntime.
        cfs.enqueue(CpuId(0), tt.get_mut(daemon), true);
        let expected = 10_000_000_000 - SLEEPER_BONUS.as_nanos();
        assert_eq!(tt.get(daemon).vruntime, expected);
    }

    #[test]
    fn woken_sleeper_preempts_current() {
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let hpc = mk_task(&mut tt, "rank", 0);
        let daemon = mk_task(&mut tt, "daemon", 0);
        tt.get_mut(hpc).vruntime = 10_000_000_000;
        // Daemon placed with sleeper bonus 12ms behind -> lag > 4ms gran.
        tt.get_mut(daemon).vruntime = 10_000_000_000 - SLEEPER_BONUS.as_nanos();
        assert!(cfs.wakeup_preempt(CpuId(0), tt.get(hpc), tt.get(daemon)));
        // A task barely behind does not preempt.
        tt.get_mut(daemon).vruntime = 10_000_000_000 - 1_000_000;
        assert!(!cfs.wakeup_preempt(CpuId(0), tt.get(hpc), tt.get(daemon)));
    }

    #[test]
    fn nice_does_not_prevent_sleeper_preemption() {
        // The paper's §IV point: an HPC task with nice -19 is still
        // preempted by a waking daemon.
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let hpc = mk_task(&mut tt, "rank", -19);
        let daemon = mk_task(&mut tt, "daemon", 0);
        tt.get_mut(hpc).vruntime = 5_000_000_000;
        cfs.enqueue(CpuId(0), tt.get_mut(hpc), false);
        cfs.pick_next(CpuId(0), &tt);
        cfs.enqueue(CpuId(0), tt.get_mut(daemon), true);
        cfs.dequeue(CpuId(0), tt.get_mut(daemon));
        assert!(
            cfs.wakeup_preempt(CpuId(0), tt.get(hpc), tt.get(daemon)),
            "sleeper bonus defeats static priority"
        );
    }

    #[test]
    fn batch_tasks_get_no_bonus_and_no_preempt() {
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let hpc = mk_task(&mut tt, "rank", 0);
        let batch =
            tt.alloc(|p| Task::new(p, "batch", Policy::Batch { nice: 0 }, CpuMask::first_n(8)));
        cfs.enqueue(CpuId(0), tt.get_mut(hpc), false);
        cfs.pick_next(CpuId(0), &tt);
        cfs.update_curr(CpuId(0), tt.get_mut(hpc), SimDuration::from_secs(10));
        cfs.enqueue(CpuId(0), tt.get_mut(batch), true);
        // No sleeper credit for batch: placed at min_vruntime, not below.
        assert_eq!(tt.get(batch).vruntime, 10_000_000_000);
        assert!(!cfs.wakeup_preempt(CpuId(0), tt.get(hpc), tt.get(batch)));
    }

    #[test]
    fn update_curr_scales_with_weight() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let normal = mk_task(&mut tt, "n", 0);
        let heavy = mk_task(&mut tt, "h", -10);
        let _ctx = fx.ctx();
        cfs.update_curr(CpuId(0), tt.get_mut(normal), SimDuration::from_millis(1));
        cfs.update_curr(CpuId(0), tt.get_mut(heavy), SimDuration::from_millis(1));
        assert_eq!(tt.get(normal).vruntime, 1_000_000);
        // nice -10 weight 9548: vruntime grows ~9.3x slower.
        let expected = 1_000_000u64 * 1024 / 9548;
        assert_eq!(tt.get(heavy).vruntime, expected);
    }

    #[test]
    fn tick_expires_slice_only_with_competition() {
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let a = mk_task(&mut tt, "a", 0);
        let b = mk_task(&mut tt, "b", 0);
        // Alone: never resched regardless of runtime.
        tt.get_mut(a).ran_since_pick = SimDuration::from_secs(10);
        assert!(!cfs.task_tick(CpuId(0), tt.get_mut(a)));
        // With a competitor queued: slice = latency/2 = 12ms.
        cfs.enqueue(CpuId(0), tt.get_mut(b), false);
        tt.get_mut(a).ran_since_pick = SimDuration::from_millis(13);
        assert!(cfs.task_tick(CpuId(0), tt.get_mut(a)));
        tt.get_mut(a).ran_since_pick = SimDuration::from_millis(5);
        tt.get_mut(a).vruntime = 0;
        assert!(!cfs.task_tick(CpuId(0), tt.get_mut(a)));
    }

    #[test]
    fn tick_skippable_iff_runqueue_empty() {
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let a = mk_task(&mut tt, "a", 0);
        let b = mk_task(&mut tt, "b", 0);
        assert!(cfs.tick_skippable(CpuId(0), tt.get(a)));
        cfs.enqueue(CpuId(0), tt.get_mut(b), false);
        assert!(!cfs.tick_skippable(CpuId(0), tt.get(a)));
        assert!(cfs.tick_skippable(CpuId(1), tt.get(a)));
    }

    #[test]
    fn fork_placement_prefers_idlest() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let t = mk_task(&mut tt, "child", 0);
        let mut snap = snapshot(8);
        snap.nr_running = vec![2, 1, 0, 1, 3, 0, 1, 1];
        let ctx = fx.ctx();
        // Socket0 is less loaded (4 vs 5); its emptiest core is core1
        // (cpus 2,3) and cpu2 is idle.
        let got = cfs.select_cpu_fork(tt.get(t), CpuId(0), &ctx, &snap, &tt);
        assert_eq!(got, CpuId(2));
        // On a fully tied machine the parent's CPU wins.
        snap.nr_running = vec![0; 8];
        let got = cfs.select_cpu_fork(tt.get(t), CpuId(5), &ctx, &snap, &tt);
        assert_eq!(got, CpuId(5));
        // Successive placements on an empty machine spread across
        // sockets then cores before touching SMT siblings.
        snap.nr_running = vec![0; 8];
        let mut placed = Vec::new();
        for _ in 0..4 {
            let cpu = cfs.select_cpu_fork(tt.get(t), CpuId(0), &ctx, &snap, &tt);
            snap.nr_running[cpu.index()] += 1;
            placed.push(cpu);
        }
        let cores: std::collections::HashSet<u32> = placed.iter().map(|c| c.0 / 2).collect();
        assert_eq!(cores.len(), 4, "one per core first: {placed:?}");
    }

    #[test]
    fn wakeup_placement_stays_when_no_idle() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let t = mk_task(&mut tt, "d", 0);
        tt.get_mut(t).cpu = CpuId(3);
        let mut snap = snapshot(8);
        snap.curr_kind = vec![Some(ClassKind::Fair); 8];
        let ctx = fx.ctx();
        assert_eq!(cfs.select_cpu_wakeup(tt.get(t), &ctx, &snap, &tt), CpuId(3));
    }

    #[test]
    fn wakeup_placement_finds_nearby_idle() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let t = mk_task(&mut tt, "d", 0);
        tt.get_mut(t).cpu = CpuId(2);
        let mut snap = snapshot(8);
        snap.curr_kind = vec![Some(ClassKind::Fair); 8];
        snap.nr_running = vec![1; 8];
        // cpu3 = SMT sibling of cpu2, free; cpu7 free on other socket.
        snap.curr_kind[3] = None;
        snap.nr_running[3] = 0;
        snap.curr_kind[7] = None;
        snap.nr_running[7] = 0;
        let ctx = fx.ctx();
        assert_eq!(cfs.select_cpu_wakeup(tt.get(t), &ctx, &snap, &tt), CpuId(3));
        // Sibling busy again: with only cpu7 free, the "anywhere" tier
        // finds it.
        snap.curr_kind[3] = Some(ClassKind::Fair);
        snap.nr_running[3] = 1;
        assert_eq!(cfs.select_cpu_wakeup(tt.get(t), &ctx, &snap, &tt), CpuId(7));
        // A CPU that is idle but already has a queued wakee is not free.
        snap.nr_running[7] = 1;
        snap.curr_kind[7] = None;
        assert_eq!(cfs.select_cpu_wakeup(tt.get(t), &ctx, &snap, &tt), CpuId(2));
    }

    #[test]
    fn idle_balance_pulls_from_overloaded() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let running = mk_task(&mut tt, "r", 0);
        let queued = mk_task(&mut tt, "q", 0);
        let ctx = fx.ctx();
        // CPU 4 runs `running` and also has `queued` waiting.
        tt.get_mut(queued).cpu = CpuId(4);
        cfs.enqueue(CpuId(4), tt.get_mut(queued), false);
        let mut snap = snapshot(8);
        snap.curr_kind[4] = Some(ClassKind::Fair);
        snap.nr_running[4] = 2;
        let _ = running;
        let plans = idle_plans(&mut cfs, CpuId(0), &ctx, &snap, &tt);
        assert_eq!(plans, vec![MigrationPlan::pull(queued, CpuId(4), CpuId(0))]);
    }

    #[test]
    fn idle_balance_ignores_single_task_cpus() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let tt = TaskTable::new();
        let mut snap = snapshot(8);
        // Everyone runs exactly one task; nothing queued anywhere.
        snap.curr_kind = vec![Some(ClassKind::Fair); 8];
        snap.nr_running = vec![1; 8];
        let ctx = fx.ctx();
        assert!(idle_plans(&mut cfs, CpuId(2), &ctx, &snap, &tt).is_empty());
    }

    #[test]
    fn periodic_balance_moves_on_small_imbalance() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let q1 = mk_task(&mut tt, "q1", 0);
        let ctx = fx.ctx();
        tt.get_mut(q1).cpu = CpuId(1);
        cfs.enqueue(CpuId(1), tt.get_mut(q1), false);
        let mut snap = snapshot(8);
        snap.curr_kind[1] = Some(ClassKind::Fair);
        // cpu1 active=2 (1 running + 1 queued), cpu0 active=0 → steal.
        let plans = periodic_plans(&mut cfs, CpuId(0), 0, &ctx, &snap, &tt);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].from, CpuId(1));
        // cpu0 also busy with one: 2-vs-1 still steals (fair.c small
        // imbalance behaviour).
        snap.curr_kind[0] = Some(ClassKind::Fair);
        let plans = periodic_plans(&mut cfs, CpuId(0), 0, &ctx, &snap, &tt);
        assert_eq!(plans.len(), 1);
        // Equal load: no move.
        snap.nr_running[0] = 2;
        let q0 = mk_task(&mut tt, "q0", 0);
        cfs.enqueue(CpuId(0), tt.get_mut(q0), false);
        let plans = periodic_plans(&mut cfs, CpuId(0), 0, &ctx, &snap, &tt);
        assert!(plans.is_empty());
    }

    #[test]
    fn active_balance_moves_running_task_off_doubled_core() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let a = mk_task(&mut tt, "a", 0);
        let b = mk_task(&mut tt, "b", 0);
        // cpus 0 and 1 (one core) both run CFS tasks; core of cpu4 idle.
        tt.get_mut(a).cpu = CpuId(0);
        tt.get_mut(a).state = crate::task::TaskState::Running;
        tt.get_mut(a).ran_since_pick = SimDuration::from_millis(50);
        tt.get_mut(b).cpu = CpuId(1);
        tt.get_mut(b).state = crate::task::TaskState::Running;
        let mut snap = snapshot(8);
        snap.curr_kind[0] = Some(ClassKind::Fair);
        snap.curr_kind[1] = Some(ClassKind::Fair);
        snap.nr_running[0] = 1;
        snap.nr_running[1] = 1;
        let ctx = fx.ctx();
        // cpu4 balances at the package level (level 2 on the js22).
        let plans = periodic_plans(&mut cfs, CpuId(4), 2, &ctx, &snap, &tt);
        assert_eq!(plans.len(), 1, "active balance fires");
        assert!(plans[0].active);
        assert_eq!(plans[0].to, CpuId(4));
        assert_eq!(plans[0].pid, a, "the sustained runner is carried");
    }

    #[test]
    fn active_balance_needs_fully_idle_core() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let a = mk_task(&mut tt, "a", 0);
        let b = mk_task(&mut tt, "b", 0);
        tt.get_mut(a).cpu = CpuId(0);
        tt.get_mut(a).state = crate::task::TaskState::Running;
        tt.get_mut(a).ran_since_pick = SimDuration::from_millis(50);
        tt.get_mut(b).cpu = CpuId(1);
        tt.get_mut(b).state = crate::task::TaskState::Running;
        let mut snap = snapshot(8);
        snap.curr_kind[0] = Some(ClassKind::Fair);
        snap.curr_kind[1] = Some(ClassKind::Fair);
        snap.nr_running[0] = 1;
        snap.nr_running[1] = 1;
        // cpu5's sibling cpu4 is busy: its core is not idle → no active
        // balance from cpu5.
        snap.curr_kind[4] = Some(ClassKind::Fair);
        snap.nr_running[4] = 1;
        let ctx = fx.ctx();
        let plans = periodic_plans(&mut cfs, CpuId(5), 2, &ctx, &snap, &tt);
        assert!(plans.is_empty());
    }

    #[test]
    fn active_balance_respects_sustain_gate() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let a = mk_task(&mut tt, "a", 0);
        let b = mk_task(&mut tt, "b", 0);
        tt.get_mut(a).cpu = CpuId(0);
        tt.get_mut(a).state = crate::task::TaskState::Running;
        // Just started running: not a sustained overload yet.
        tt.get_mut(a).ran_since_pick = SimDuration::from_micros(100);
        tt.get_mut(b).cpu = CpuId(1);
        tt.get_mut(b).state = crate::task::TaskState::Running;
        tt.get_mut(b).ran_since_pick = SimDuration::from_micros(100);
        let mut snap = snapshot(8);
        snap.curr_kind[0] = Some(ClassKind::Fair);
        snap.curr_kind[1] = Some(ClassKind::Fair);
        snap.nr_running[0] = 1;
        snap.nr_running[1] = 1;
        let ctx = fx.ctx();
        assert!(periodic_plans(&mut cfs, CpuId(4), 2, &ctx, &snap, &tt).is_empty());
    }

    #[test]
    fn steal_respects_affinity() {
        let fx = Fixture::new();
        let mut cfs = CfsClass::new();
        cfs.init(8);
        let mut tt = TaskTable::new();
        let pinned = tt.alloc(|p| {
            Task::new(
                p,
                "pinned",
                Policy::Normal { nice: 0 },
                CpuMask::single(CpuId(4)),
            )
        });
        let ctx = fx.ctx();
        tt.get_mut(pinned).cpu = CpuId(4);
        cfs.enqueue(CpuId(4), tt.get_mut(pinned), false);
        let mut snap = snapshot(8);
        snap.curr_kind[4] = Some(ClassKind::Fair);
        snap.nr_running[4] = 2;
        // Task is pinned to cpu4: idle cpu0 cannot steal it.
        assert!(idle_plans(&mut cfs, CpuId(0), &ctx, &snap, &tt).is_empty());
    }
}
