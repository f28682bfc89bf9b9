//! The Real-Time scheduling class (SCHED_FIFO / SCHED_RR).
//!
//! Models the parts of `rt.c` the paper's Fig. 4 experiment exercises:
//! priority arrays (higher `rt_priority` always wins), FIFO semantics
//! (run until block or preemption), RR timeslices (100 ms), and —
//! crucially — **overload push/pull balancing**. The paper observes that
//! "load balancing is a bigger problem for the Real-Time scheduler than
//! for the CFS scheduler": whenever a CPU's RT task blocks, the newly
//! idle CPU pulls a waiting RT task from any overloaded CPU, and when an
//! RT task wakes onto a busy CPU it is pushed to any CPU running lower
//! priority work. With one RT rank per CPU plus a launcher, every blip
//! triggers "any sort of task migration" — reproduced here.

use crate::class::{ClassKind, LoadSnapshot, MigrationPlan, SchedClass, SchedCtx};
use crate::task::{Pid, Policy, Task, TaskTable};
use hpl_sim::SimDuration;
use hpl_topology::CpuId;
use std::collections::VecDeque;

const RT_PRIOS: usize = 100;

/// SCHED_RR timeslice (Linux: 100 ms).
const RT_RR_TIMESLICE: SimDuration = SimDuration::from_millis(100);

/// Per-CPU RT runqueue: one FIFO per priority level.
#[derive(Debug)]
struct RtRq {
    queues: Vec<VecDeque<Pid>>,
    nr_queued: u32,
}

impl Default for RtRq {
    fn default() -> Self {
        RtRq {
            queues: (0..RT_PRIOS).map(|_| VecDeque::new()).collect(),
            nr_queued: 0,
        }
    }
}

impl RtRq {
    fn highest(&self) -> Option<u8> {
        if self.nr_queued == 0 {
            return None;
        }
        (0..RT_PRIOS)
            .rev()
            .find(|&p| !self.queues[p].is_empty())
            .map(|p| p as u8)
    }
}

/// The RT scheduling class.
#[derive(Debug, Default)]
pub struct RtClass {
    rqs: Vec<RtRq>,
}

impl RtClass {
    /// New, uninitialised class.
    pub fn new() -> Self {
        RtClass::default()
    }

    fn rq(&self, cpu: CpuId) -> &RtRq {
        &self.rqs[cpu.index()]
    }

    fn rq_mut(&mut self, cpu: CpuId) -> &mut RtRq {
        &mut self.rqs[cpu.index()]
    }

    fn prio_of(task: &Task) -> u8 {
        task.policy.rt_prio().unwrap_or(0)
    }

    /// Can a task of priority `prio` run immediately on `cpu` given the
    /// snapshot? True when the CPU is idle, runs a lower class, or runs a
    /// lower-priority RT task.
    fn beats_current(prio: u8, cpu: CpuId, snap: &LoadSnapshot) -> bool {
        match snap.curr_kind[cpu.index()] {
            None => true,
            Some(ClassKind::RealTime) => snap.curr_rt_prio[cpu.index()] < prio,
            Some(_) => true,
        }
    }
}

impl SchedClass for RtClass {
    fn kind(&self) -> ClassKind {
        ClassKind::RealTime
    }

    fn init(&mut self, ncpus: usize) {
        self.rqs = (0..ncpus).map(|_| RtRq::default()).collect();
    }

    fn enqueue(&mut self, cpu: CpuId, task: &mut Task, _wakeup: bool) {
        if task.time_slice.is_zero() {
            task.time_slice = RT_RR_TIMESLICE;
        }
        let prio = Self::prio_of(task) as usize;
        let rq = self.rq_mut(cpu);
        debug_assert!(!rq.queues[prio].contains(&task.pid));
        rq.queues[prio].push_back(task.pid);
        rq.nr_queued += 1;
    }

    fn dequeue(&mut self, cpu: CpuId, task: &mut Task) {
        let prio = Self::prio_of(task) as usize;
        let rq = self.rq_mut(cpu);
        let before = rq.queues[prio].len();
        rq.queues[prio].retain(|&p| p != task.pid);
        debug_assert_eq!(rq.queues[prio].len() + 1, before, "{} not queued", task.pid);
        rq.nr_queued -= 1;
    }

    fn pick_next(&mut self, cpu: CpuId, _tasks: &TaskTable) -> Option<Pid> {
        let rq = self.rq_mut(cpu);
        let prio = rq.highest()? as usize;
        let pid = rq.queues[prio]
            .pop_front()
            .expect("highest() said non-empty");
        rq.nr_queued -= 1;
        Some(pid)
    }

    fn put_prev(&mut self, cpu: CpuId, task: &mut Task) {
        let prio = Self::prio_of(task) as usize;
        let expired = task.time_slice.is_zero() && matches!(task.policy, Policy::Rr(_));
        let rq = self.rq_mut(cpu);
        if expired {
            // RR slice expiry: back of the line, fresh slice.
            task.time_slice = RT_RR_TIMESLICE;
            rq.queues[prio].push_back(task.pid);
        } else {
            // Preempted: stays at the head of its priority level.
            rq.queues[prio].push_front(task.pid);
        }
        rq.nr_queued += 1;
    }

    fn update_curr(&mut self, _cpu: CpuId, task: &mut Task, ran: SimDuration) {
        if matches!(task.policy, Policy::Rr(_)) {
            task.time_slice = task.time_slice.saturating_sub(ran);
        }
    }

    fn task_tick(&mut self, cpu: CpuId, task: &mut Task) -> bool {
        match task.policy {
            Policy::Rr(p) => {
                if task.time_slice.is_zero() {
                    let has_peer = !self.rq(cpu).queues[p as usize].is_empty();
                    if has_peer {
                        return true;
                    }
                    // No competitor at this level: just refresh the slice.
                    task.time_slice = RT_RR_TIMESLICE;
                }
                false
            }
            _ => false,
        }
    }

    fn tick_skippable(&self, cpu: CpuId, task: &Task) -> bool {
        // FIFO ignores the tick; RR only refreshes an expired slice
        // while no peer waits at its priority.
        match task.policy {
            Policy::Rr(p) => self.rq(cpu).queues[p as usize].is_empty(),
            _ => true,
        }
    }

    fn wakeup_preempt(&self, _cpu: CpuId, curr: &Task, woken: &Task) -> bool {
        Self::prio_of(woken) > Self::prio_of(curr)
    }

    fn nr_queued(&self, cpu: CpuId) -> u32 {
        self.rq(cpu).nr_queued
    }

    fn queued_pids(&self, cpu: CpuId) -> Vec<Pid> {
        let rq = self.rq(cpu);
        (0..RT_PRIOS)
            .rev()
            .flat_map(|p| rq.queues[p].iter().copied())
            .collect()
    }

    fn select_cpu_fork(
        &mut self,
        task: &Task,
        parent_cpu: CpuId,
        _ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        _tasks: &TaskTable,
    ) -> CpuId {
        // find_lowest_rq: prefer an idle CPU, then one running a lower
        // class, then the lowest-priority RT CPU. Parent wins ties.
        let prio = Self::prio_of(task);
        let mut best: Option<(u8, CpuId)> = None; // (badness, cpu)
        for idx in 0..snap.nr_running.len() {
            let cpu = CpuId(idx as u32);
            if !task.can_run_on(cpu) {
                continue;
            }
            let badness = match snap.curr_kind[idx] {
                None => 0,
                Some(ClassKind::RealTime) => {
                    if snap.curr_rt_prio[idx] < prio {
                        2 + snap.curr_rt_prio[idx]
                    } else {
                        u8::MAX
                    }
                }
                Some(_) => 1,
            };
            let better = match best {
                None => true,
                Some((b, bc)) => {
                    badness < b || (badness == b && cpu == parent_cpu && bc != parent_cpu)
                }
            };
            if better {
                best = Some((badness, cpu));
            }
        }
        best.map_or(parent_cpu, |(_, c)| c)
    }

    fn select_cpu_wakeup(
        &mut self,
        task: &Task,
        _ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        _tasks: &TaskTable,
    ) -> CpuId {
        let prev = task.cpu;
        let prio = Self::prio_of(task);
        // Prev is fine when we'd run immediately there and nothing else
        // is already queued waiting for it.
        if task.can_run_on(prev)
            && Self::beats_current(prio, prev, snap)
            && snap.nr_running[prev.index()] == 0
        {
            return prev;
        }
        // Otherwise the least-loaded CPU we beat; counting queued tasks
        // prevents simultaneous wakeups from piling onto one idle CPU
        // (FIFO tasks never timeslice, so a pileup would serialise).
        let mut best: Option<(u32, CpuId)> = None;
        for idx in 0..snap.nr_running.len() {
            let cpu = CpuId(idx as u32);
            if !task.can_run_on(cpu) || !Self::beats_current(prio, cpu, snap) {
                continue;
            }
            let load = snap.nr_running[idx];
            let better = match best {
                None => true,
                Some((bl, bc)) => load < bl || (load == bl && cpu == prev && bc != prev),
            };
            if better {
                best = Some((load, cpu));
            }
        }
        best.map_or(prev, |(_, c)| c)
    }

    fn idle_balance(
        &mut self,
        cpu: CpuId,
        _ctx: &SchedCtx<'_>,
        _snap: &LoadSnapshot,
        tasks: &TaskTable,
        plans: &mut Vec<MigrationPlan>,
    ) {
        // pull_rt_task: a CPU dropping to non-RT work pulls the highest
        // queued RT task from any overloaded CPU. Walk each source's
        // priority levels directly (top-down) instead of materialising a
        // `queued_pids` Vec per CPU — this runs on every new-idle event.
        let mut best: Option<(u8, Pid, CpuId)> = None;
        for idx in 0..self.rqs.len() {
            let from = CpuId(idx as u32);
            if from == cpu {
                continue;
            }
            let rq = self.rq(from);
            if rq.nr_queued == 0 {
                continue;
            }
            let head = (0..RT_PRIOS)
                .rev()
                .flat_map(|p| rq.queues[p].iter().copied())
                .map(|pid| tasks.get(pid))
                .find(|t| t.can_run_on(cpu));
            if let Some(t) = head {
                let prio = Self::prio_of(t);
                if best.as_ref().is_none_or(|&(bp, _, _)| prio > bp) {
                    best = Some((prio, t.pid, from));
                }
            }
        }
        if let Some((_, pid, from)) = best {
            plans.push(MigrationPlan::pull(pid, from, cpu));
        }
    }

    fn push_overload(
        &mut self,
        cpu: CpuId,
        _ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tasks: &TaskTable,
        plans: &mut Vec<MigrationPlan>,
    ) {
        // push_rt_task: only an *overloaded* runqueue pushes (Linux sets
        // the overload flag at rt_nr_running > 1). A single task queued
        // on a CPU that is not running RT work will simply start there at
        // the next reschedule — pushing it would create pileups, not
        // balance.
        let busy_rt = snap.curr_kind[cpu.index()] == Some(ClassKind::RealTime);
        let queued = self.nr_queued(cpu);
        if queued == 0 || (queued == 1 && !busy_rt) {
            return;
        }
        let start = plans.len();
        // Without a running RT task, the head waiter will run here; only
        // the tasks behind it are pushable.
        let skip = usize::from(!busy_rt);
        for pid in self.queued_pids(cpu).into_iter().skip(skip) {
            let t = tasks.get(pid);
            let prio = Self::prio_of(t);
            let dest = (0..snap.nr_running.len())
                .map(|i| CpuId(i as u32))
                .filter(|&c| c != cpu && t.can_run_on(c))
                .find(|&c| {
                    let free_for_us = match snap.curr_kind[c.index()] {
                        // Idle CPU: only if nothing is queued there either.
                        None => snap.nr_running[c.index()] == 0,
                        _ => Self::beats_current(prio, c, snap),
                    };
                    free_for_us && !plans[start..].iter().any(|p| p.to == c)
                });
            if let Some(to) = dest {
                plans.push(MigrationPlan::pull(pid, cpu, to));
            }
        }
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
                now: SimTime::ZERO,
                topo: &self.topo,
                domains: &self.domains,
            }
        }
    }

    fn fifo(tt: &mut TaskTable, name: &str, prio: u8) -> Pid {
        tt.alloc(|p| Task::new(p, name, Policy::Fifo(prio), CpuMask::first_n(8)))
    }

    fn rr(tt: &mut TaskTable, name: &str, prio: u8) -> Pid {
        tt.alloc(|p| Task::new(p, name, Policy::Rr(prio), CpuMask::first_n(8)))
    }

    fn snapshot(n: usize) -> LoadSnapshot {
        LoadSnapshot::empty(n)
    }

    fn idle_plans(
        rt: &mut RtClass,
        cpu: CpuId,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tt: &TaskTable,
    ) -> Vec<MigrationPlan> {
        let mut plans = Vec::new();
        rt.idle_balance(cpu, ctx, snap, tt, &mut plans);
        plans
    }

    fn push_plans(
        rt: &mut RtClass,
        cpu: CpuId,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tt: &TaskTable,
    ) -> Vec<MigrationPlan> {
        let mut plans = Vec::new();
        rt.push_overload(cpu, ctx, snap, tt, &mut plans);
        plans
    }

    #[test]
    fn highest_priority_picked_first() {
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let lo = fifo(&mut tt, "lo", 10);
        let hi = fifo(&mut tt, "hi", 90);
        rt.enqueue(CpuId(0), tt.get_mut(lo), true);
        rt.enqueue(CpuId(0), tt.get_mut(hi), true);
        assert_eq!(rt.pick_next(CpuId(0), &tt), Some(hi));
        assert_eq!(rt.pick_next(CpuId(0), &tt), Some(lo));
        assert_eq!(rt.pick_next(CpuId(0), &tt), None);
    }

    #[test]
    fn same_priority_is_fifo() {
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let a = fifo(&mut tt, "a", 50);
        let b = fifo(&mut tt, "b", 50);
        rt.enqueue(CpuId(0), tt.get_mut(a), true);
        rt.enqueue(CpuId(0), tt.get_mut(b), true);
        assert_eq!(rt.pick_next(CpuId(0), &tt), Some(a));
    }

    #[test]
    fn preempted_task_returns_to_head() {
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let a = fifo(&mut tt, "a", 50);
        let b = fifo(&mut tt, "b", 50);
        rt.enqueue(CpuId(0), tt.get_mut(a), true);
        rt.enqueue(CpuId(0), tt.get_mut(b), true);
        let picked = rt.pick_next(CpuId(0), &tt).unwrap();
        assert_eq!(picked, a);
        // a preempted by something higher-class: put_prev puts it at head.
        rt.put_prev(CpuId(0), tt.get_mut(a));
        assert_eq!(rt.pick_next(CpuId(0), &tt), Some(a));
    }

    #[test]
    fn rr_slice_expiry_requeues_to_tail() {
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let a = rr(&mut tt, "a", 50);
        let b = rr(&mut tt, "b", 50);
        rt.enqueue(CpuId(0), tt.get_mut(a), true);
        rt.enqueue(CpuId(0), tt.get_mut(b), true);
        assert_eq!(rt.pick_next(CpuId(0), &tt), Some(a));
        // Burn the whole slice.
        let slice = RT_RR_TIMESLICE;
        rt.update_curr(CpuId(0), tt.get_mut(a), slice);
        assert!(rt.task_tick(CpuId(0), tt.get_mut(a)), "slice expired");
        rt.put_prev(CpuId(0), tt.get_mut(a));
        // Tail: b now runs first.
        assert_eq!(rt.pick_next(CpuId(0), &tt), Some(b));
        // Fresh slice granted on requeue.
        assert_eq!(tt.get(a).time_slice, RT_RR_TIMESLICE);
    }

    #[test]
    fn rr_alone_never_reschedules() {
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let a = rr(&mut tt, "a", 50);
        tt.get_mut(a).time_slice = SimDuration::ZERO;
        assert!(!rt.task_tick(CpuId(0), tt.get_mut(a)));
        assert_eq!(tt.get(a).time_slice, RT_RR_TIMESLICE);
    }

    #[test]
    fn tick_skippable_unless_an_rr_peer_waits_at_its_priority() {
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let a = rr(&mut tt, "a", 50);
        let f = fifo(&mut tt, "f", 50);
        let lower = rr(&mut tt, "lower", 10);
        let peer = rr(&mut tt, "peer", 50);
        let cpu = CpuId(0);
        assert!(rt.tick_skippable(cpu, tt.get(a)));
        rt.enqueue(cpu, tt.get_mut(lower), true);
        assert!(rt.tick_skippable(cpu, tt.get(a)));
        rt.enqueue(cpu, tt.get_mut(peer), true);
        assert!(!rt.tick_skippable(cpu, tt.get(a)));
        assert!(rt.tick_skippable(cpu, tt.get(f)));
    }

    #[test]
    fn fifo_ignores_slices() {
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let a = fifo(&mut tt, "a", 50);
        let b = fifo(&mut tt, "b", 50);
        rt.enqueue(CpuId(0), tt.get_mut(b), true);
        rt.pick_next(CpuId(0), &tt);
        tt.get_mut(a).time_slice = SimDuration::ZERO;
        assert!(!rt.task_tick(CpuId(0), tt.get_mut(a)));
        let _ = b;
    }

    #[test]
    fn wakeup_preempt_by_priority_only() {
        let rt = RtClass::new();
        let mut tt = TaskTable::new();
        let lo = fifo(&mut tt, "lo", 10);
        let hi = fifo(&mut tt, "hi", 90);
        assert!(rt.wakeup_preempt(CpuId(0), tt.get(lo), tt.get(hi)));
        assert!(!rt.wakeup_preempt(CpuId(0), tt.get(hi), tt.get(lo)));
        assert!(!rt.wakeup_preempt(CpuId(0), tt.get(lo), tt.get(lo)));
    }

    #[test]
    fn fork_placement_prefers_idle_then_lower_class() {
        let fx = Fixture::new();
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let t = fifo(&mut tt, "t", 50);
        let ctx = fx.ctx();
        let mut snap = snapshot(8);
        snap.curr_kind = vec![Some(ClassKind::RealTime); 8];
        snap.curr_rt_prio = vec![60; 8];
        // All CPUs run higher-prio RT except cpu5 (CFS) and cpu6 (idle).
        snap.curr_kind[5] = Some(ClassKind::Fair);
        snap.curr_kind[6] = None;
        assert_eq!(
            rt.select_cpu_fork(tt.get(t), CpuId(0), &ctx, &snap, &tt),
            CpuId(6)
        );
        snap.curr_kind[6] = Some(ClassKind::RealTime);
        snap.curr_rt_prio[6] = 70;
        assert_eq!(
            rt.select_cpu_fork(tt.get(t), CpuId(0), &ctx, &snap, &tt),
            CpuId(5)
        );
    }

    #[test]
    fn idle_pull_takes_highest_waiting() {
        let fx = Fixture::new();
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let lo = fifo(&mut tt, "lo", 10);
        let hi = fifo(&mut tt, "hi", 90);
        let ctx = fx.ctx();
        tt.get_mut(lo).cpu = CpuId(2);
        tt.get_mut(hi).cpu = CpuId(3);
        rt.enqueue(CpuId(2), tt.get_mut(lo), true);
        rt.enqueue(CpuId(3), tt.get_mut(hi), true);
        let snap = snapshot(8);
        let plans = idle_plans(&mut rt, CpuId(0), &ctx, &snap, &tt);
        assert_eq!(plans, vec![MigrationPlan::pull(hi, CpuId(3), CpuId(0))]);
    }

    #[test]
    fn push_moves_waiters_to_beatable_cpus() {
        let fx = Fixture::new();
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let w = fifo(&mut tt, "w", 50);
        let ctx = fx.ctx();
        tt.get_mut(w).cpu = CpuId(0);
        rt.enqueue(CpuId(0), tt.get_mut(w), true);
        let mut snap = snapshot(8);
        // cpu0 runs a prio-60 RT task (so w waits); cpu1 runs prio-70;
        // cpu2 runs CFS → w beats cpu2.
        snap.curr_kind = vec![
            Some(ClassKind::RealTime),
            Some(ClassKind::RealTime),
            Some(ClassKind::Fair),
            Some(ClassKind::RealTime),
            Some(ClassKind::RealTime),
            Some(ClassKind::RealTime),
            Some(ClassKind::RealTime),
            Some(ClassKind::RealTime),
        ];
        snap.curr_rt_prio = vec![60, 70, 0, 70, 70, 70, 70, 70];
        let plans = push_plans(&mut rt, CpuId(0), &ctx, &snap, &tt);
        assert_eq!(plans, vec![MigrationPlan::pull(w, CpuId(0), CpuId(2))]);
    }

    #[test]
    fn no_push_when_nothing_beatable() {
        let fx = Fixture::new();
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let w = fifo(&mut tt, "w", 50);
        let ctx = fx.ctx();
        rt.enqueue(CpuId(0), tt.get_mut(w), true);
        let mut snap = snapshot(8);
        snap.curr_kind = vec![Some(ClassKind::RealTime); 8];
        snap.curr_rt_prio = vec![99; 8];
        assert!(push_plans(&mut rt, CpuId(0), &ctx, &snap, &tt).is_empty());
    }

    #[test]
    fn queued_pids_priority_ordered() {
        let mut rt = RtClass::new();
        rt.init(8);
        let mut tt = TaskTable::new();
        let lo = fifo(&mut tt, "lo", 10);
        let hi = fifo(&mut tt, "hi", 90);
        rt.enqueue(CpuId(0), tt.get_mut(lo), true);
        rt.enqueue(CpuId(0), tt.get_mut(hi), true);
        assert_eq!(rt.queued_pids(CpuId(0)), vec![hi, lo]);
        assert_eq!(rt.nr_queued(CpuId(0)), 2);
    }
}
