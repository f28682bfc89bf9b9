//! The idle scheduling class.
//!
//! Always last in the class list. In Linux it contains exactly the
//! per-CPU idle task, so "the scheduler's search cannot fail". Here the
//! node represents the idle task implicitly (a CPU with no current task
//! is idle), so this class never offers a pid — reaching it is the
//! signal to the Scheduler Core that the CPU should enter idle, which is
//! also the moment new-idle balancing fires.

use crate::class::{ClassKind, SchedClass, SchedCtx};
use crate::task::{Pid, Task, TaskTable};
use hpl_sim::SimDuration;
use hpl_topology::CpuId;

/// The idle class: empty by construction.
#[derive(Debug, Default)]
pub struct IdleClass;

impl IdleClass {
    /// Create the idle class.
    pub fn new() -> Self {
        IdleClass
    }
}

impl SchedClass for IdleClass {
    fn kind(&self) -> ClassKind {
        ClassKind::Idle
    }

    fn init(&mut self, _ncpus: usize) {}

    fn enqueue(&mut self, _cpu: CpuId, task: &mut Task, _wakeup: bool) {
        unreachable!("no task maps to the idle class: {}", task.pid);
    }

    fn dequeue(&mut self, _cpu: CpuId, task: &mut Task) {
        unreachable!("no task maps to the idle class: {}", task.pid);
    }

    fn pick_next(&mut self, _cpu: CpuId, _tasks: &TaskTable) -> Option<Pid> {
        None
    }

    fn put_prev(&mut self, _cpu: CpuId, _task: &mut Task) {}

    fn update_curr(&mut self, _cpu: CpuId, _task: &mut Task, _ran: SimDuration) {}

    fn task_tick(&mut self, _cpu: CpuId, _task: &mut Task) -> bool {
        false
    }

    fn wakeup_preempt(&self, _cpu: CpuId, _curr: &Task, _woken: &Task) -> bool {
        false
    }

    fn nr_queued(&self, _cpu: CpuId) -> u32 {
        0
    }

    fn queued_pids(&self, _cpu: CpuId) -> Vec<Pid> {
        Vec::new()
    }

    fn select_cpu_fork(
        &mut self,
        _task: &Task,
        parent_cpu: CpuId,
        _ctx: &SchedCtx<'_>,
        _snap: &crate::class::LoadSnapshot,
        _tasks: &TaskTable,
    ) -> CpuId {
        parent_cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_class_is_always_empty() {
        let mut idle = IdleClass::new();
        idle.init(8);
        let tt = TaskTable::new();
        assert_eq!(idle.pick_next(CpuId(0), &tt), None);
        assert_eq!(idle.nr_queued(CpuId(0)), 0);
        assert!(idle.queued_pids(CpuId(0)).is_empty());
        assert_eq!(idle.kind(), ClassKind::Idle);
    }
}
