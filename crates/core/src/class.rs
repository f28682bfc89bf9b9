//! The `SCHED_HPC` scheduling class.
//!
//! Registered between RT and CFS. Mechanically the class is deliberately
//! minimal — a per-CPU round-robin queue — because the policy work
//! happens elsewhere: placement at fork ([`crate::placement`]) and the
//! suppression of all dynamic balancing (kernel config). Its position in
//! the class list does the heavy lifting: while any HPC task is runnable
//! on a CPU, `pick_next` never reaches CFS, so daemons simply cannot
//! preempt or even run — they execute only "when there are no HPC tasks
//! running on a CPU" (§V).

use crate::placement::hpl_fork_placement;
use hpl_kernel::{ClassKind, LoadSnapshot, SchedClass, SchedCtx};
use hpl_kernel::{Pid, Task, TaskTable};
use hpl_sim::SimDuration;
use hpl_topology::CpuId;
use std::collections::VecDeque;

/// The HPL scheduling class: per-CPU round-robin of HPC tasks.
#[derive(Debug, Default)]
pub struct HplClass {
    rqs: Vec<VecDeque<Pid>>,
    fault_wakeup_migrate: bool,
    /// Gang rotation state pushed by the node's gang controller. While
    /// `Some(g)`, only tasks of gang `g` (or gangless tasks) may be
    /// picked; everyone else waits queued for their epoch. `None` (the
    /// default, and the permanent state when `gang_epoch` is unset)
    /// restores plain round-robin and its exact pick order.
    gang_active: Option<u64>,
    /// Reused output of [`Self::hpc_load`].
    load_buf: Vec<u32>,
}

impl HplClass {
    /// Round-robin timeslice of the HPL class. The paper uses a simple
    /// round-robin run queue; with one task per CPU it rarely matters.
    pub const RR_TIMESLICE: SimDuration = SimDuration::from_millis(100);

    /// New, uninitialised class (the node calls [`SchedClass::init`]).
    pub fn new() -> Self {
        HplClass::default()
    }

    /// Deliberately broken wake placement for the `hpl-torture`
    /// self-test: every wakeup rotates the task to the next allowed CPU,
    /// violating the paper's "HPC tasks migrate only at fork" invariant.
    /// The torture harness injects this to prove its oracle catches a
    /// real scheduler bug and shrinks it to a replayable seed.
    pub fn with_fault_wakeup_migrate(mut self) -> Self {
        self.fault_wakeup_migrate = true;
        self
    }

    /// HPC tasks per CPU for placement: running, queued **and blocked**
    /// tasks all count toward their home CPU. Counting blocked tasks is
    /// what lets fork placement during MPI_Init (when earlier ranks are
    /// briefly asleep in connection setup) still reserve one hardware
    /// thread per rank — the paper's "one process per core" discipline.
    fn hpc_load(&mut self, tasks: &TaskTable, exclude: Pid) -> &[u32] {
        use hpl_kernel::task::BlockReason;
        use hpl_kernel::TaskState;
        let load = &mut self.load_buf;
        load.clear();
        load.resize(self.rqs.len(), 0);
        for t in tasks.iter_live() {
            // A task blocked waiting for its children (mpiexec in
            // waitpid) is passive for the rest of the job's life; its
            // CPU is fair game. Everything else — running, queued, or
            // briefly asleep in MPI_Init — keeps its reservation.
            let passive = matches!(
                t.state,
                TaskState::Dead | TaskState::Blocked(BlockReason::Children)
            );
            if t.pid != exclude && t.policy == hpl_kernel::Policy::Hpc && !passive {
                load[t.cpu.index()] += 1;
            }
        }
        load
    }

    /// May `task` run under the current gang rotation? Gangless tasks
    /// (mpiexec trees launched without enrollment) always may.
    fn gang_eligible(&self, task: &Task) -> bool {
        match self.gang_active {
            None => true,
            Some(g) => task.gang.is_none() || task.gang == Some(g),
        }
    }
}

impl SchedClass for HplClass {
    fn kind(&self) -> ClassKind {
        ClassKind::Hpc
    }

    fn init(&mut self, ncpus: usize) {
        self.rqs = (0..ncpus).map(|_| VecDeque::new()).collect();
    }

    fn enqueue(&mut self, cpu: CpuId, task: &mut Task, _wakeup: bool) {
        if task.time_slice.is_zero() {
            task.time_slice = Self::RR_TIMESLICE;
        }
        debug_assert!(!self.rqs[cpu.index()].contains(&task.pid));
        self.rqs[cpu.index()].push_back(task.pid);
    }

    fn dequeue(&mut self, cpu: CpuId, task: &mut Task) {
        let rq = &mut self.rqs[cpu.index()];
        let before = rq.len();
        rq.retain(|&p| p != task.pid);
        debug_assert_eq!(rq.len() + 1, before, "{} not queued on {cpu}", task.pid);
    }

    fn pick_next(&mut self, cpu: CpuId, tasks: &TaskTable) -> Option<Pid> {
        if self.gang_active.is_none() {
            // No rotation: the exact historical pop-front path.
            return self.rqs[cpu.index()].pop_front();
        }
        let idx = self.rqs[cpu.index()]
            .iter()
            .position(|&p| self.gang_eligible(tasks.get(p)))?;
        self.rqs[cpu.index()].remove(idx)
    }

    fn put_prev(&mut self, cpu: CpuId, task: &mut Task) {
        let rq = &mut self.rqs[cpu.index()];
        if task.time_slice.is_zero() {
            // Round-robin expiry: tail, fresh slice.
            task.time_slice = Self::RR_TIMESLICE;
            rq.push_back(task.pid);
        } else {
            // Preempted by a higher class (RT): resume first.
            rq.push_front(task.pid);
        }
    }

    fn update_curr(&mut self, _cpu: CpuId, task: &mut Task, ran: SimDuration) {
        task.time_slice = task.time_slice.saturating_sub(ran);
    }

    fn task_tick(&mut self, cpu: CpuId, task: &mut Task) -> bool {
        if task.time_slice.is_zero() {
            if !self.rqs[cpu.index()].is_empty() {
                return true;
            }
            // Alone on the CPU (the expected case): just refresh.
            task.time_slice = Self::RR_TIMESLICE;
        }
        false
    }

    fn tick_skippable(&self, cpu: CpuId, _task: &Task) -> bool {
        // With an empty runqueue the tick can only refresh the lone
        // rank's timeslice — never request preemption — and the slice is
        // refreshed again on enqueue/put_prev anyway. This is the steady
        // state HPL is designed to reach (one rank per hardware thread),
        // so under `tickless_single_hpc` the node may batch these ticks.
        self.rqs[cpu.index()].is_empty()
    }

    fn wakeup_preempt(&self, _cpu: CpuId, _curr: &Task, _woken: &Task) -> bool {
        // HPC tasks are peers: a waking rank never preempts another rank
        // (round-robin order decides).
        false
    }

    fn nr_queued(&self, cpu: CpuId) -> u32 {
        self.rqs[cpu.index()].len() as u32
    }

    fn queued_pids(&self, cpu: CpuId) -> Vec<Pid> {
        self.rqs[cpu.index()].iter().copied().collect()
    }

    fn select_cpu_fork(
        &mut self,
        task: &Task,
        _parent_cpu: CpuId,
        ctx: &SchedCtx<'_>,
        _snap: &LoadSnapshot,
        tasks: &TaskTable,
    ) -> CpuId {
        let load = self.hpc_load(tasks, task.pid);
        hpl_fork_placement(ctx.topo, task, load)
    }

    fn select_cpu_wakeup(
        &mut self,
        task: &Task,
        ctx: &SchedCtx<'_>,
        _snap: &LoadSnapshot,
        tasks: &TaskTable,
    ) -> CpuId {
        // "Stay out of the way": a waking HPC task normally returns to
        // the CPU fork placement gave it, preserving its cache footprint.
        // The one exception is the paper's "initialization and
        // finalization" special case (§IV: "maybe two or three [HPC
        // tasks per CPU] in special cases such as initialization"): if
        // this task would wake onto a CPU already occupied by another
        // HPC task while some CPU has none — e.g. mpiexec's thread after
        // it blocked in waitpid — re-run the topology-aware placement.
        // Without this, the transient 9-tasks-on-8-threads layout of the
        // launch phase would persist for the whole run, because HPL
        // performs no dynamic balancing that could ever repair it.
        if self.fault_wakeup_migrate {
            // Injected bug (see `with_fault_wakeup_migrate`): bounce to
            // the next CPU in the affinity mask on every wakeup.
            let n = ctx.topo.total_cpus();
            for off in 1..=n {
                let cand = CpuId((task.cpu.0 + off) % n);
                if task.can_run_on(cand) {
                    return cand;
                }
            }
        }
        let load = self.hpc_load(tasks, task.pid);
        let prev = task.cpu;
        let core_load = |cpu: CpuId| -> u32 {
            ctx.topo
                .smt_siblings(cpu)
                .iter()
                .map(|c| load[c.index()])
                .sum()
        };
        // Contended: another HPC task shares this hardware thread, or —
        // while whole cores are still free — this core. "One process per
        // core when the number of HPC tasks is less than or equal to the
        // number of cores" (§IV).
        let free_core_exists = ctx
            .topo
            .all_cpus()
            .iter()
            .any(|c| task.can_run_on(c) && core_load(c) == 0);
        let contended = load[prev.index()] >= 1 || (free_core_exists && core_load(prev) >= 1);
        let free_exists = free_core_exists
            || (0..load.len()).any(|i| load[i] == 0 && task.can_run_on(CpuId(i as u32)));
        if contended && free_exists {
            crate::placement::hpl_fork_placement(ctx.topo, task, load)
        } else {
            prev
        }
    }

    fn gang_epoch(&mut self, active: Option<u64>) -> bool {
        let changed = self.gang_active != active;
        self.gang_active = active;
        // Any switch can change which queued task is eligible (and can
        // strand the running task outside its epoch), so ask for a
        // reschedule whenever the value moved.
        changed
    }

    // No periodic_balance, idle_balance, or push_overload overrides: the
    // defaults return nothing, which *is* the HPL policy.
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_kernel::{Policy, TaskState};
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
                now: SimTime::ZERO,
                topo: &self.topo,
                domains: &self.domains,
            }
        }
    }

    fn hpc_task(tt: &mut TaskTable, name: &str) -> Pid {
        tt.alloc(|p| Task::new(p, name, Policy::Hpc, CpuMask::first_n(8)))
    }

    fn snapshot(n: usize) -> LoadSnapshot {
        LoadSnapshot {
            nr_running: vec![0; n],
            curr_kind: vec![None; n],
            curr_rt_prio: vec![0; n],
        }
    }

    /// `hpc_load` over live tasks equals the count over every task ever
    /// created, on a table whose history is mostly dead.
    #[test]
    fn hpc_load_of_live_tasks_matches_a_full_scan() {
        use hpl_kernel::task::BlockReason;
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        for i in 0..40u32 {
            let pid = hpc_task(&mut tt, "t");
            let t = tt.get_mut(pid);
            t.cpu = CpuId(i * 3 % 8);
            match i % 5 {
                0 => t.state = TaskState::Running,
                1 => t.state = TaskState::Blocked(BlockReason::Children),
                2 => t.state = TaskState::Blocked(BlockReason::Timer),
                3 => t.set_policy(Policy::Normal { nice: 0 }),
                _ => tt.exit(pid, SimTime::ZERO),
            }
            if i % 7 == 0 {
                tt.exit(pid, SimTime::ZERO);
            }
        }
        for exclude in [Pid(0), Pid(4), Pid(12), Pid(99)] {
            let mut scan = vec![0u32; 8];
            for t in tt.iter() {
                let passive = matches!(
                    t.state,
                    TaskState::Dead | TaskState::Blocked(BlockReason::Children)
                );
                if t.pid != exclude && t.policy == Policy::Hpc && !passive {
                    scan[t.cpu.index()] += 1;
                }
            }
            assert_eq!(hpl.hpc_load(&tt, exclude), scan, "exclude {exclude}");
        }
        assert!(tt.iter_live().count() < tt.len());
    }

    #[test]
    fn round_robin_order() {
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        let a = hpc_task(&mut tt, "a");
        let b = hpc_task(&mut tt, "b");
        hpl.enqueue(CpuId(0), tt.get_mut(a), false);
        hpl.enqueue(CpuId(0), tt.get_mut(b), false);
        assert_eq!(hpl.pick_next(CpuId(0), &tt), Some(a));
        // Slice expired: goes to the tail.
        tt.get_mut(a).time_slice = SimDuration::ZERO;
        hpl.put_prev(CpuId(0), tt.get_mut(a));
        assert_eq!(hpl.pick_next(CpuId(0), &tt), Some(b));
    }

    #[test]
    fn preempted_task_resumes_first() {
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        let a = hpc_task(&mut tt, "a");
        let b = hpc_task(&mut tt, "b");
        hpl.enqueue(CpuId(0), tt.get_mut(a), false);
        hpl.enqueue(CpuId(0), tt.get_mut(b), false);
        let first = hpl.pick_next(CpuId(0), &tt).unwrap();
        // Preempted by RT with slice remaining: back to the head.
        hpl.put_prev(CpuId(0), tt.get_mut(first));
        assert_eq!(hpl.pick_next(CpuId(0), &tt), Some(first));
    }

    #[test]
    fn tick_reschedules_only_with_competition() {
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        let a = hpc_task(&mut tt, "a");
        let b = hpc_task(&mut tt, "b");
        tt.get_mut(a).time_slice = SimDuration::ZERO;
        // Alone: refreshed, no resched.
        assert!(!hpl.task_tick(CpuId(0), tt.get_mut(a)));
        assert_eq!(tt.get(a).time_slice, HplClass::RR_TIMESLICE);
        // With a peer queued: resched.
        hpl.enqueue(CpuId(0), tt.get_mut(b), false);
        tt.get_mut(a).time_slice = SimDuration::ZERO;
        assert!(hpl.task_tick(CpuId(0), tt.get_mut(a)));
    }

    #[test]
    fn no_wakeup_preemption_between_ranks() {
        let hpl = HplClass::new();
        let mut tt = TaskTable::new();
        let a = hpc_task(&mut tt, "a");
        let b = hpc_task(&mut tt, "b");
        assert!(!hpl.wakeup_preempt(CpuId(0), tt.get(a), tt.get(b)));
    }

    #[test]
    fn fork_placement_is_topology_aware() {
        let fx = Fixture::new();
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        let ctx = fx.ctx();
        let mut snap = snapshot(8);
        let mut placed = Vec::new();
        for i in 0..8 {
            let p = hpc_task(&mut tt, &format!("r{i}"));
            let cpu = hpl.select_cpu_fork(tt.get(p), CpuId(0), &ctx, &snap, &tt);
            placed.push(cpu.0);
            // Mark as running there so the next placement sees it.
            snap.curr_kind[cpu.index()] = Some(ClassKind::Hpc);
            snap.nr_running[cpu.index()] += 1;
            tt.get_mut(p).cpu = cpu;
            tt.get_mut(p).state = TaskState::Running;
        }
        // One per core before any second thread, spreading chips first.
        assert_eq!(placed[..4], [0, 4, 2, 6]);
        let threads: std::collections::HashSet<u32> = placed.iter().copied().collect();
        assert_eq!(threads.len(), 8);
    }

    #[test]
    fn wakeup_keeps_cpu() {
        let fx = Fixture::new();
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        let a = hpc_task(&mut tt, "a");
        tt.get_mut(a).cpu = CpuId(5);
        let snap = snapshot(8);
        let ctx = fx.ctx();
        assert_eq!(hpl.select_cpu_wakeup(tt.get(a), &ctx, &snap, &tt), CpuId(5));
    }

    #[test]
    fn balance_hooks_do_nothing() {
        let fx = Fixture::new();
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        let a = hpc_task(&mut tt, "a");
        let ctx = fx.ctx();
        tt.get_mut(a).cpu = CpuId(2);
        hpl.enqueue(CpuId(2), tt.get_mut(a), false);
        let mut snap = snapshot(8);
        snap.nr_running[2] = 1;
        let mut plans = Vec::new();
        hpl.idle_balance(CpuId(0), &ctx, &snap, &tt, &mut plans);
        hpl.periodic_balance(CpuId(0), 0, &ctx, &snap, &tt, &mut plans);
        hpl.push_overload(CpuId(2), &ctx, &snap, &tt, &mut plans);
        assert!(plans.is_empty());
    }

    #[test]
    fn tick_skippable_iff_alone() {
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        let a = hpc_task(&mut tt, "a");
        let b = hpc_task(&mut tt, "b");
        assert!(hpl.tick_skippable(CpuId(0), tt.get(a)));
        hpl.enqueue(CpuId(0), tt.get_mut(b), false);
        assert!(!hpl.tick_skippable(CpuId(0), tt.get(a)));
    }

    #[test]
    fn gang_rotation_filters_picks() {
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        let a = hpc_task(&mut tt, "a");
        let b = hpc_task(&mut tt, "b");
        let m = hpc_task(&mut tt, "m"); // gangless (mpiexec-style)
        tt.get_mut(a).gang = Some(1);
        tt.get_mut(b).gang = Some(2);
        hpl.enqueue(CpuId(0), tt.get_mut(a), false);
        hpl.enqueue(CpuId(0), tt.get_mut(b), false);
        hpl.enqueue(CpuId(0), tt.get_mut(m), false);
        // Rotation announcing a change requests a reschedule; repeating
        // the same active gang does not.
        assert!(hpl.gang_epoch(Some(2)));
        assert!(!hpl.gang_epoch(Some(2)));
        // Gang 2's epoch: a (gang 1) is passed over, b runs first, and
        // the gangless task is always eligible.
        assert_eq!(hpl.pick_next(CpuId(0), &tt), Some(b));
        assert_eq!(hpl.pick_next(CpuId(0), &tt), Some(m));
        assert_eq!(hpl.pick_next(CpuId(0), &tt), None);
        assert_eq!(hpl.nr_queued(CpuId(0)), 1, "a stays queued for its turn");
        // Gang 1's epoch: a becomes pickable again.
        assert!(hpl.gang_epoch(Some(1)));
        assert_eq!(hpl.pick_next(CpuId(0), &tt), Some(a));
        // Rotation over: plain pop-front order.
        assert!(hpl.gang_epoch(None));
        hpl.enqueue(CpuId(0), tt.get_mut(b), false);
        hpl.enqueue(CpuId(0), tt.get_mut(a), false);
        assert_eq!(hpl.pick_next(CpuId(0), &tt), Some(b));
        assert_eq!(hpl.pick_next(CpuId(0), &tt), Some(a));
    }

    #[test]
    fn dequeue_removes() {
        let mut hpl = HplClass::new();
        hpl.init(8);
        let mut tt = TaskTable::new();
        let a = hpc_task(&mut tt, "a");
        hpl.enqueue(CpuId(1), tt.get_mut(a), false);
        assert_eq!(hpl.nr_queued(CpuId(1)), 1);
        assert_eq!(hpl.queued_pids(CpuId(1)), vec![a]);
        hpl.dequeue(CpuId(1), tt.get_mut(a));
        assert_eq!(hpl.nr_queued(CpuId(1)), 0);
    }
}
