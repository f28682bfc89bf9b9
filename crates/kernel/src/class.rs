//! The Scheduling Class framework.
//!
//! Linux 2.6.23+ structures its scheduler as an ordered list of
//! *scheduling classes*; the Scheduler Core walks the list from highest
//! priority down and runs the first task any class offers. "The ordering
//! of the Scheduling Classes introduces an implicit level of
//! prioritization: no processes from a lower priority class will be
//! selected as long as there are available processes in a higher priority
//! class" — the property HPL exploits by registering between RT and CFS.
//!
//! [`SchedClass`] is that plug-in interface. The kernel crate provides the
//! RT, CFS and Idle implementations; the `hpl-core` crate provides the HPC
//! class. The node's Scheduler Core (`node.rs`) owns the ordered class
//! list and performs every state transition (blocking, waking, switching,
//! migrating) so that counters are bumped in exactly one place.

use crate::task::{Pid, Policy, Task, TaskTable};
use hpl_sim::{SimDuration, SimTime};
use hpl_topology::{CpuId, DomainHierarchy, Topology};

/// Which class a policy maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassKind {
    /// SCHED_FIFO / SCHED_RR.
    RealTime,
    /// The paper's HPC class.
    Hpc,
    /// CFS (SCHED_NORMAL / SCHED_BATCH).
    Fair,
    /// The idle class (always last, never empty conceptually).
    Idle,
}

/// Class kind a policy belongs to.
pub fn class_of_policy(policy: Policy) -> ClassKind {
    match policy {
        Policy::Fifo(_) | Policy::Rr(_) => ClassKind::RealTime,
        Policy::Hpc => ClassKind::Hpc,
        Policy::Normal { .. } | Policy::Batch { .. } => ClassKind::Fair,
    }
}

/// Read-only context handed to class hooks.
pub struct SchedCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Machine topology.
    pub topo: &'a Topology,
    /// Scheduling domains.
    pub domains: &'a DomainHierarchy,
}

/// A cross-CPU load view handed to placement/balance hooks.
///
/// The node maintains this *incrementally*: enqueue/dequeue/pick/put-prev
/// adjust the counts in O(1) rather than rebuilding O(cpus × classes)
/// vectors before every hook call (debug builds re-derive and compare).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSnapshot {
    /// Per-CPU count of active tasks (running + queued), all classes.
    pub nr_running: Vec<u32>,
    /// Per-CPU class of the currently running task (`None` = idle).
    pub curr_kind: Vec<Option<ClassKind>>,
    /// Per-CPU RT priority of the current task (0 when not RT).
    pub curr_rt_prio: Vec<u8>,
}

impl LoadSnapshot {
    /// An all-idle snapshot for `ncpus` CPUs.
    pub fn empty(ncpus: usize) -> Self {
        LoadSnapshot {
            nr_running: vec![0; ncpus],
            curr_kind: vec![None; ncpus],
            curr_rt_prio: vec![0; ncpus],
        }
    }
}

/// A migration proposed by a balance hook; the node validates and applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Task to move.
    pub pid: Pid,
    /// Expected source CPU.
    pub from: CpuId,
    /// Destination CPU.
    pub to: CpuId,
    /// Active balance: the task may be *running*; the migration thread
    /// preempts it and carries it over (Linux's `active_load_balance`).
    /// Passive plans only move queued tasks.
    pub active: bool,
}

impl MigrationPlan {
    /// A passive pull of a queued task.
    pub fn pull(pid: Pid, from: CpuId, to: CpuId) -> Self {
        MigrationPlan {
            pid,
            from,
            to,
            active: false,
        }
    }

    /// An active balance of a possibly-running task.
    pub fn active(pid: Pid, from: CpuId, to: CpuId) -> Self {
        MigrationPlan {
            pid,
            from,
            to,
            active: true,
        }
    }
}

/// A scheduling class: per-CPU runqueues plus policy hooks.
///
/// Invariants the node relies on:
/// * a pid is in at most one class's queues, on at most one CPU;
/// * `pick_next` removes the returned pid from the queue (the node tracks
///   it as the CPU's current task);
/// * `put_prev` re-inserts a still-runnable previous task.
///
/// `Send` because whole [`crate::Node`]s move between host threads in
/// the cluster's parallel co-simulation; class state is plain data.
pub trait SchedClass: Send {
    /// Which kind of class this is.
    fn kind(&self) -> ClassKind;

    /// Allocate per-CPU state.
    fn init(&mut self, ncpus: usize);

    /// Add a runnable task to `cpu`'s queue. `wakeup` distinguishes a
    /// sleeper waking (CFS grants the sleeper bonus) from a requeue.
    fn enqueue(&mut self, cpu: CpuId, task: &mut Task, wakeup: bool);

    /// Remove a queued task (it blocked, died, migrated or changed class).
    fn dequeue(&mut self, cpu: CpuId, task: &mut Task);

    /// Choose the next task to run on `cpu`, removing it from the queue.
    fn pick_next(&mut self, cpu: CpuId, tasks: &TaskTable) -> Option<Pid>;

    /// The previous current task of this class leaves the CPU; re-insert
    /// it if still runnable.
    fn put_prev(&mut self, cpu: CpuId, task: &mut Task);

    /// Account `ran` of productive runtime to the running task.
    fn update_curr(&mut self, cpu: CpuId, task: &mut Task, ran: SimDuration);

    /// Per-tick hook for the running task; returns true if it should be
    /// preempted (timeslice/fairness expiry).
    fn task_tick(&mut self, cpu: CpuId, task: &mut Task) -> bool;

    /// True when [`task_tick`](Self::task_tick) for `task`, current on
    /// `cpu`, never requests preemption and does nothing but refresh
    /// the task's timeslice once [`update_curr`](Self::update_curr) has
    /// run it down to zero — whatever other classes have queued. The
    /// answer may depend only on this class's queue on `cpu` and on the
    /// task's policy: the node settles the CPU before either changes.
    /// The node then folds such ticks, whatever the class, between
    /// periodic balance deadlines: it counts them at once and replays
    /// the refreshes when the CPU next settles. Under
    /// `tickless_single_hpc` the ticks of a lone HPC task (nothing
    /// queued in any class) cost nothing at all. Default: false (ticks
    /// always dispatched).
    fn tick_skippable(&self, cpu: CpuId, task: &Task) -> bool {
        let _ = (cpu, task);
        false
    }

    /// Should `woken` (same class) preempt `curr` right now?
    fn wakeup_preempt(&self, cpu: CpuId, curr: &Task, woken: &Task) -> bool;

    /// Number of tasks queued (excluding any running task).
    fn nr_queued(&self, cpu: CpuId) -> u32;

    /// Queued pids on `cpu` (for balance planning).
    fn queued_pids(&self, cpu: CpuId) -> Vec<Pid>;

    /// Placement of a newly forked task. `tasks` allows policies to
    /// consider blocked tasks' home CPUs (HPL does; CFS does not).
    fn select_cpu_fork(
        &mut self,
        task: &Task,
        parent_cpu: CpuId,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tasks: &TaskTable,
    ) -> CpuId;

    /// Placement of a waking task (default: stay where it last ran).
    fn select_cpu_wakeup(
        &mut self,
        task: &Task,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tasks: &TaskTable,
    ) -> CpuId {
        let _ = (ctx, snap, tasks);
        task.cpu
    }

    /// Periodic (tick-driven) balance at one domain level of `cpu`.
    /// Proposed migrations are appended to `plans` — an out-parameter so
    /// the node can reuse one buffer across every balance call instead of
    /// allocating a fresh `Vec` per hook on the tick hot path. Default:
    /// propose nothing.
    fn periodic_balance(
        &mut self,
        cpu: CpuId,
        level_idx: usize,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tasks: &TaskTable,
        plans: &mut Vec<MigrationPlan>,
    ) {
        let _ = (cpu, level_idx, ctx, snap, tasks, plans);
    }

    /// Balance attempt when `cpu` is about to go idle, appending to
    /// `plans`. Default: propose nothing.
    fn idle_balance(
        &mut self,
        cpu: CpuId,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tasks: &TaskTable,
        plans: &mut Vec<MigrationPlan>,
    ) {
        let _ = (cpu, ctx, snap, tasks, plans);
    }

    /// Push overloaded tasks away after an enqueue (RT push), appending
    /// to `plans`. Default: propose nothing.
    fn push_overload(
        &mut self,
        cpu: CpuId,
        ctx: &SchedCtx<'_>,
        snap: &LoadSnapshot,
        tasks: &TaskTable,
        plans: &mut Vec<MigrationPlan>,
    ) {
        let _ = (cpu, ctx, snap, tasks, plans);
    }

    /// The node's gang controller changed the active gang (`None` =
    /// rotation ended). A class that restricts eligibility by gang
    /// records the new value here; returns true if the change can
    /// affect which task this class would pick (the node then requests
    /// a reschedule on every CPU). Default: ignore gangs.
    fn gang_epoch(&mut self, active: Option<u64>) -> bool {
        let _ = active;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_to_class_mapping() {
        assert_eq!(class_of_policy(Policy::Fifo(1)), ClassKind::RealTime);
        assert_eq!(class_of_policy(Policy::Rr(99)), ClassKind::RealTime);
        assert_eq!(class_of_policy(Policy::Hpc), ClassKind::Hpc);
        assert_eq!(class_of_policy(Policy::Normal { nice: 0 }), ClassKind::Fair);
        assert_eq!(class_of_policy(Policy::Batch { nice: 5 }), ClassKind::Fair);
    }
}
