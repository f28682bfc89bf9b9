//! Tasks and scheduling policies.
//!
//! A [`Task`] is the kernel's unit of scheduling — one process or kernel
//! thread. Its [`Policy`] selects the scheduling class: `SCHED_FIFO`/
//! `SCHED_RR` → RT class, `SCHED_HPC` → the paper's HPL class,
//! `SCHED_NORMAL`/`SCHED_BATCH` → CFS. The per-task scheduling-entity
//! fields (vruntime, weight, timeslice) live inline.

use crate::program::Program;
use crate::sync::{BarrierId, ChanId};
use hpl_sim::{SimDuration, SimTime};
use hpl_topology::{CpuId, CpuMask};
use std::fmt;

/// Process identifier. Dense, never reused within one simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl Pid {
    /// Index for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Scheduling policy, mapping a task to its scheduling class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// `SCHED_FIFO` with RT priority 1-99 (higher wins).
    Fifo(u8),
    /// `SCHED_RR` with RT priority 1-99.
    Rr(u8),
    /// `SCHED_HPC` — the HPL class the paper adds between RT and CFS.
    Hpc,
    /// `SCHED_NORMAL` (CFS) with a nice level in −20..=19.
    Normal {
        /// Nice value; lower = heavier CFS weight.
        nice: i8,
    },
    /// `SCHED_BATCH`: CFS without wakeup preemption credit.
    Batch {
        /// Nice value.
        nice: i8,
    },
}

impl Policy {
    /// RT priority if this is an RT policy.
    pub fn rt_prio(self) -> Option<u8> {
        match self {
            Policy::Fifo(p) | Policy::Rr(p) => Some(p),
            _ => None,
        }
    }

    /// Nice level for CFS policies (0 otherwise).
    pub fn nice(self) -> i8 {
        match self {
            Policy::Normal { nice } | Policy::Batch { nice } => nice,
            _ => 0,
        }
    }
}

/// Why a blocked task is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for a token on a channel.
    Chan(ChanId),
    /// Waiting at a barrier.
    Barrier(BarrierId),
    /// Timed sleep.
    Timer,
    /// `waitpid`-style wait for all children to exit.
    Children,
}

/// What a spinning task is spinning on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinTarget {
    /// Busy-waiting for a channel token.
    Chan(ChanId),
    /// Busy-waiting at a barrier (with its party count, needed to
    /// re-register on conversion to a blocked wait).
    Barrier(BarrierId),
}

/// Task lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// On a runqueue, not currently on a CPU.
    Runnable,
    /// Currently executing on its CPU.
    Running,
    /// Blocked, off all runqueues.
    Blocked(BlockReason),
    /// Exited.
    Dead,
}

/// Linux's nice→weight table (`prio_to_weight`): nice 0 = 1024, each nice
/// step ≈ ±10 % CPU.
pub const NICE_0_WEIGHT: u64 = 1024;
const PRIO_TO_WEIGHT: [u64; 40] = [
    88761, 71755, 56483, 46273, 36291, // -20 .. -16
    29154, 23254, 18705, 14949, 11916, // -15 .. -11
    9548, 7620, 6100, 4904, 3906, // -10 .. -6
    3121, 2501, 1991, 1586, 1277, // -5 .. -1
    1024, 820, 655, 526, 423, // 0 .. 4
    335, 272, 215, 172, 137, // 5 .. 9
    110, 87, 70, 56, 45, // 10 .. 14
    36, 29, 23, 18, 15, // 15 .. 19
];

/// CFS load weight for a nice level.
pub fn weight_of_nice(nice: i8) -> u64 {
    let idx = (nice as i16 + 20).clamp(0, 39) as usize;
    PRIO_TO_WEIGHT[idx]
}

/// One task.
pub struct Task {
    /// Process id.
    pub pid: Pid,
    /// Human-readable name (`comm`).
    pub name: String,
    /// Scheduling policy.
    pub policy: Policy,
    /// Lifecycle state.
    pub state: TaskState,
    /// CPU the task is on (last ran on, or is queued on).
    pub cpu: CpuId,
    /// Affinity mask (`sched_setaffinity`).
    pub affinity: CpuMask,
    /// Parent task, if forked.
    pub parent: Option<Pid>,
    /// Number of live children (for `Children` waits).
    pub alive_children: u32,

    /// CFS virtual runtime in weighted nanoseconds.
    pub vruntime: u64,
    /// CFS load weight derived from nice.
    pub weight: u64,
    /// Remaining RR/HPC timeslice.
    pub time_slice: SimDuration,
    /// Productive time since last being picked (CFS slice check).
    pub ran_since_pick: SimDuration,

    /// Remaining full-speed work of the current compute segment (ns).
    pub segment_remaining: u64,
    /// Set while the current segment is a busy-wait rather than real
    /// work; on segment expiry the task blocks instead of advancing.
    pub spin: Option<SpinTarget>,
    /// The task's behaviour; `None` while the kernel is stepping it.
    pub program: Option<Box<dyn Program>>,

    /// Total productive CPU time consumed.
    pub total_runtime: SimDuration,
    /// Per-task migration count (perf's per-task `cpu-migrations`).
    pub nr_migrations: u64,
    /// Per-task context-switch-in count.
    pub nr_switches: u64,
    /// Time the task last became runnable (for wakeup bookkeeping).
    pub last_wakeup: SimTime,
    /// Time the task last came off a CPU (for the cache-hot check that
    /// gates load-balancer steals, as `task_hot()` does in fair.c).
    pub last_descheduled: SimTime,
    /// Simulated time of exit, once dead.
    pub exited_at: Option<SimTime>,
    /// Group tag used by harnesses to identify application tasks.
    pub tag: Option<u32>,
    /// Gang co-scheduling group. Inherited across fork; a gang-tagged
    /// HPC task is eligible to run only while its gang is the node's
    /// active gang (or no gang rotation is in force).
    pub gang: Option<u64>,
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("state", &self.state)
            .field("cpu", &self.cpu)
            .field("vruntime", &self.vruntime)
            .field("segment_remaining", &self.segment_remaining)
            .field("spin", &self.spin)
            .finish_non_exhaustive()
    }
}

impl Task {
    /// Create a task; used by the node's fork path.
    pub fn new(pid: Pid, name: impl Into<String>, policy: Policy, affinity: CpuMask) -> Self {
        Task {
            pid,
            name: name.into(),
            policy,
            state: TaskState::Runnable,
            cpu: CpuId(0),
            affinity,
            parent: None,
            alive_children: 0,
            vruntime: 0,
            weight: weight_of_nice(policy.nice()),
            time_slice: SimDuration::ZERO,
            ran_since_pick: SimDuration::ZERO,
            segment_remaining: 0,
            spin: None,
            program: None,
            total_runtime: SimDuration::ZERO,
            nr_migrations: 0,
            nr_switches: 0,
            last_wakeup: SimTime::ZERO,
            last_descheduled: SimTime::ZERO,
            exited_at: None,
            tag: None,
            gang: None,
        }
    }

    /// True iff the task can be placed on `cpu`.
    #[inline]
    pub fn can_run_on(&self, cpu: CpuId) -> bool {
        self.affinity.contains(cpu)
    }

    /// Change policy (the `sched_setscheduler` core), refreshing weight.
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
        self.weight = weight_of_nice(policy.nice());
    }
}

/// Dense task table indexed by [`Pid`].
#[derive(Default)]
pub struct TaskTable {
    slots: Vec<Task>,
    /// Pids not yet passed to [`Self::exit`], ascending.
    live: Vec<Pid>,
}

impl TaskTable {
    /// Empty table.
    pub fn new() -> Self {
        TaskTable::default()
    }

    /// Allocate the next pid and insert a task built by `f`.
    pub fn alloc(&mut self, f: impl FnOnce(Pid) -> Task) -> Pid {
        let pid = Pid(self.slots.len() as u32);
        let task = f(pid);
        debug_assert_eq!(task.pid, pid);
        self.slots.push(task);
        self.live.push(pid);
        pid
    }

    /// Mark `pid` dead at `now`, ending any spin, and drop it from
    /// [`Self::iter_live`].
    pub fn exit(&mut self, pid: Pid, now: SimTime) {
        let t = &mut self.slots[pid.index()];
        t.state = TaskState::Dead;
        t.exited_at = Some(now);
        t.spin = None;
        if let Ok(i) = self.live.binary_search(&pid) {
            self.live.remove(i);
        }
    }

    /// Shared access.
    #[inline]
    pub fn get(&self, pid: Pid) -> &Task {
        &self.slots[pid.index()]
    }

    /// Mutable access.
    #[inline]
    pub fn get_mut(&mut self, pid: Pid) -> &mut Task {
        &mut self.slots[pid.index()]
    }

    /// Number of tasks ever created.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff no tasks exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate over all tasks.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.slots.iter()
    }

    /// Iterate in pid order over the tasks not yet passed to
    /// [`Self::exit`]: O(live tasks), not O(every task ever created).
    /// A task whose state was set to `Dead` directly still shows up.
    pub fn iter_live(&self) -> impl Iterator<Item = &Task> {
        self.live.iter().map(|p| &self.slots[p.index()])
    }

    /// Iterate mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Task> {
        self.slots.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_table_spot_checks() {
        assert_eq!(weight_of_nice(0), 1024);
        assert_eq!(weight_of_nice(-20), 88761);
        assert_eq!(weight_of_nice(19), 15);
        assert_eq!(weight_of_nice(5), 335);
        // Out-of-range clamps.
        assert_eq!(weight_of_nice(-128), 88761);
        assert_eq!(weight_of_nice(127), 15);
    }

    #[test]
    fn nice_steps_are_about_25_percent() {
        // Linux's table is built so each nice step changes CPU share ~10%,
        // which makes adjacent weights differ by ~25%.
        for n in -20..19i8 {
            let ratio = weight_of_nice(n) as f64 / weight_of_nice(n + 1) as f64;
            assert!((1.18..1.32).contains(&ratio), "nice {n} ratio {ratio}");
        }
    }

    #[test]
    fn policy_accessors() {
        assert_eq!(Policy::Fifo(50).rt_prio(), Some(50));
        assert_eq!(Policy::Rr(99).rt_prio(), Some(99));
        assert_eq!(Policy::Hpc.rt_prio(), None);
        assert_eq!(Policy::Normal { nice: -5 }.nice(), -5);
        assert_eq!(Policy::Hpc.nice(), 0);
    }

    #[test]
    fn task_creation_defaults() {
        let t = Task::new(
            Pid(3),
            "rank0",
            Policy::Normal { nice: 0 },
            CpuMask::first_n(8),
        );
        assert_eq!(t.weight, NICE_0_WEIGHT);
        assert_eq!(t.state, TaskState::Runnable);
        assert!(t.can_run_on(CpuId(7)));
        assert!(!t.can_run_on(CpuId(8)));
    }

    #[test]
    fn set_policy_updates_weight() {
        let mut t = Task::new(Pid(0), "d", Policy::Normal { nice: 0 }, CpuMask::first_n(1));
        t.set_policy(Policy::Normal { nice: 10 });
        assert_eq!(t.weight, 110);
        t.set_policy(Policy::Hpc);
        assert_eq!(t.weight, NICE_0_WEIGHT);
        assert_eq!(t.policy, Policy::Hpc);
    }

    #[test]
    fn table_alloc_dense_pids() {
        let mut tt = TaskTable::new();
        let a = tt.alloc(|p| Task::new(p, "a", Policy::Hpc, CpuMask::first_n(1)));
        let b = tt.alloc(|p| Task::new(p, "b", Policy::Hpc, CpuMask::first_n(1)));
        assert_eq!(a, Pid(0));
        assert_eq!(b, Pid(1));
        assert_eq!(tt.len(), 2);
        assert_eq!(tt.get(b).name, "b");
        tt.get_mut(a).name.push('!');
        assert_eq!(tt.get(a).name, "a!");
        tt.exit(a, SimTime::from_nanos(5));
        assert_eq!(tt.get(a).state, TaskState::Dead);
        assert_eq!(tt.get(a).exited_at, Some(SimTime::from_nanos(5)));
        let live: Vec<Pid> = tt.iter_live().map(|t| t.pid).collect();
        assert_eq!((live, tt.len()), (vec![b], 2));
    }
}
