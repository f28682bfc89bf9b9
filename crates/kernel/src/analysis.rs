//! Trace analysis: turning a scheduler event log (the
//! [`crate::observe::RingSink`] contents) into the paper's §III
//! evidence.
//!
//! The paper identifies the scheduler as the dominant noise source by
//! correlating counters with execution time. Given an event trace this
//! module reconstructs the *episodes* behind those counters: who
//! preempted whom and for how long, how long each migration's victim had
//! been running (cache warmth lost), and per-task residency. This is the
//! analysis a kernel developer would do with `perf sched` on the real
//! machine.

use crate::observe::{DeactivateReason, SchedEvent};
use crate::task::Pid;
use hpl_sim::{SimDuration, SimTime};
use hpl_topology::CpuId;
use std::collections::{HashMap, HashSet};

/// One preemption episode: `victim` lost its CPU to `intruder` and got it
/// back (or moved elsewhere) after `stolen`.
#[derive(Debug, Clone, PartialEq)]
pub struct Preemption {
    /// When the victim was displaced.
    pub at: SimTime,
    /// CPU where it happened.
    pub cpu: CpuId,
    /// The displaced task.
    pub victim: Pid,
    /// The task that took over.
    pub intruder: Pid,
    /// Time until the victim next ran anywhere.
    pub stolen: SimDuration,
}

/// Per-task residency: how much trace-window time the task spent as some
/// CPU's current task.
#[derive(Debug, Clone, PartialEq)]
pub struct Residency {
    /// Task.
    pub pid: Pid,
    /// Total time as a CPU's current task within the window.
    pub running: SimDuration,
    /// Number of distinct CPUs the task ran on.
    pub cpus_used: u32,
}

/// The full analysis of one trace window.
#[derive(Debug)]
pub struct TraceAnalysis {
    /// All reconstructed preemption episodes, in time order.
    pub preemptions: Vec<Preemption>,
    /// Residency per task seen running in the window.
    pub residency: Vec<Residency>,
    /// Migration count per task.
    pub migrations: HashMap<Pid, u32>,
}

impl TraceAnalysis {
    /// Analyse an event log (as recorded by [`crate::observe::RingSink`])
    /// over `[start, end)` on an `ncpus` machine.
    ///
    /// A *preemption* is a switch away from a task that was still
    /// runnable, resolved when that task runs again. A switch-out that
    /// follows the task's own [`SchedEvent::Deactivate`] with
    /// [`DeactivateReason::Block`] is voluntary — a rank waiting at a
    /// collective, a daemon going back to sleep — and opens no episode,
    /// unless the task was woken again before it left the CPU. Switches
    /// whose outgoing task never reappears in the window (it blocked
    /// for good or exited) are not counted either.
    pub fn analyse(
        events: &[(SimTime, SchedEvent)],
        ncpus: usize,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        let mut running_since: HashMap<Pid, (SimTime, CpuId)> = HashMap::new();
        let mut displaced_at: HashMap<Pid, (SimTime, CpuId, Pid)> = HashMap::new();
        let mut running_total: HashMap<Pid, SimDuration> = HashMap::new();
        let mut cpus_used: HashMap<Pid, HashSet<u32>> = HashMap::new();
        // Tasks that blocked and have not yet left the CPU or been woken.
        let mut blocking: HashSet<Pid> = HashSet::new();
        let mut migrations: HashMap<Pid, u32> = HashMap::new();
        let mut preemptions = Vec::new();

        for &(t, ev) in events {
            if t < start || t >= end {
                continue;
            }
            match ev {
                SchedEvent::Switch { cpu, from, to } => {
                    if cpu.index() >= ncpus {
                        continue;
                    }
                    if let Some(prev) = from {
                        if let Some((since, _)) = running_since.remove(&prev) {
                            *running_total.entry(prev).or_default() += t.since(since.max(start));
                        }
                        let voluntary = blocking.remove(&prev);
                        if let Some(next) = to.filter(|_| !voluntary) {
                            // Candidate preemption: resolved when (if)
                            // the victim runs again.
                            displaced_at.insert(prev, (t, cpu, next));
                        }
                    }
                    if let Some(next) = to {
                        running_since.insert(next, (t, cpu));
                        cpus_used.entry(next).or_default().insert(cpu.0);
                        if let Some((when, where_, intruder)) = displaced_at.remove(&next) {
                            preemptions.push(Preemption {
                                at: when,
                                cpu: where_,
                                victim: next,
                                intruder,
                                stolen: t.since(when),
                            });
                        }
                    }
                }
                SchedEvent::Migrate { pid, .. } => {
                    *migrations.entry(pid).or_default() += 1;
                }
                SchedEvent::Deactivate {
                    pid,
                    reason: DeactivateReason::Block,
                    ..
                } => {
                    blocking.insert(pid);
                }
                SchedEvent::Wakeup { pid, .. } => {
                    blocking.remove(&pid);
                }
                _ => {}
            }
        }
        // Close out tasks still running at window end.
        for (pid, (since, _)) in running_since {
            *running_total.entry(pid).or_default() += end.since(since.max(start));
        }

        preemptions.sort_by_key(|p| p.at);
        let mut residency: Vec<Residency> = running_total
            .into_iter()
            .map(|(pid, running)| Residency {
                pid,
                running,
                cpus_used: cpus_used.get(&pid).map_or(0, |s| s.len() as u32),
            })
            .collect();
        residency.sort_by_key(|r| r.pid);
        TraceAnalysis {
            preemptions,
            residency,
            migrations,
        }
    }

    /// Preemption episodes suffered by one task.
    pub fn preemptions_of(&self, pid: Pid) -> impl Iterator<Item = &Preemption> {
        self.preemptions.iter().filter(move |p| p.victim == pid)
    }

    /// Total time stolen from a set of tasks (e.g. the application's
    /// ranks) — the direct overhead of preemption noise.
    pub fn total_stolen_from(&self, pids: &[Pid]) -> SimDuration {
        self.preemptions
            .iter()
            .filter(|p| pids.contains(&p.victim))
            .fold(SimDuration::ZERO, |acc, p| acc + p.stolen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    type Log = Vec<(SimTime, SchedEvent)>;

    fn switch(b: &mut Log, at: u64, cpu: u32, from: Option<u32>, to: Option<u32>) {
        b.push((
            t(at),
            SchedEvent::Switch {
                cpu: CpuId(cpu),
                from: from.map(Pid),
                to: to.map(Pid),
            },
        ));
    }

    #[test]
    fn reconstructs_simple_preemption() {
        let mut b = Log::new();
        // Task 1 runs from 0; daemon 2 preempts at 100; task 1 back at 250.
        switch(&mut b, 0, 0, None, Some(1));
        switch(&mut b, 100, 0, Some(1), Some(2));
        switch(&mut b, 250, 0, Some(2), Some(1));
        let a = TraceAnalysis::analyse(&b, 1, t(0), t(1000));
        assert_eq!(a.preemptions.len(), 1);
        let p = &a.preemptions[0];
        assert_eq!(p.victim, Pid(1));
        assert_eq!(p.intruder, Pid(2));
        assert_eq!(p.stolen, SimDuration::from_nanos(150));
    }

    #[test]
    fn victim_resuming_on_other_cpu_counts() {
        let mut b = Log::new();
        switch(&mut b, 0, 0, None, Some(1));
        switch(&mut b, 100, 0, Some(1), Some(2));
        // Task 1 resumes on cpu1 after a migration.
        switch(&mut b, 300, 1, None, Some(1));
        b.push((
            t(299),
            SchedEvent::Migrate {
                pid: Pid(1),
                from: CpuId(0),
                to: CpuId(1),
                reason: crate::observe::MigrateReason::Balance,
            },
        ));
        let a = TraceAnalysis::analyse(&b, 2, t(0), t(1000));
        assert_eq!(a.preemptions.len(), 1);
        assert_eq!(a.preemptions[0].stolen, SimDuration::from_nanos(200));
        assert_eq!(a.migrations.get(&Pid(1)), Some(&1));
    }

    #[test]
    fn voluntary_final_block_is_not_a_preemption() {
        let mut b = Log::new();
        switch(&mut b, 0, 0, None, Some(1));
        // Task 1 blocks; cpu goes idle; task never runs again.
        switch(&mut b, 100, 0, Some(1), None);
        let a = TraceAnalysis::analyse(&b, 1, t(0), t(1000));
        assert!(a.preemptions.is_empty());
        // Residency is the 100ns it ran.
        assert_eq!(a.residency.len(), 1);
        assert_eq!(a.residency[0].running, SimDuration::from_nanos(100));
    }

    fn deactivate(b: &mut Log, at: u64, pid: u32) {
        b.push((
            t(at),
            SchedEvent::Deactivate {
                pid: Pid(pid),
                cpu: CpuId(0),
                reason: DeactivateReason::Block,
            },
        ));
    }

    fn wakeup(b: &mut Log, at: u64, pid: u32) {
        b.push((
            t(at),
            SchedEvent::Wakeup {
                pid: Pid(pid),
                cpu: CpuId(0),
            },
        ));
    }

    #[test]
    fn blocking_is_not_a_preemption() {
        let mut b = Log::new();
        // Task 1 blocks at 100 and task 2 takes the CPU; task 1 is woken
        // at 200 and runs again at 250.
        switch(&mut b, 0, 0, None, Some(1));
        deactivate(&mut b, 100, 1);
        switch(&mut b, 100, 0, Some(1), Some(2));
        wakeup(&mut b, 200, 1);
        switch(&mut b, 250, 0, Some(2), Some(1));
        let a = TraceAnalysis::analyse(&b, 1, t(0), t(1000));
        assert!(a.preemptions.is_empty(), "{:?}", a.preemptions);
        assert_eq!(a.total_stolen_from(&[Pid(1)]), SimDuration::ZERO);
        // A later switch-out while runnable is a preemption again.
        switch(&mut b, 400, 0, Some(1), Some(3));
        switch(&mut b, 450, 0, Some(3), Some(1));
        let a = TraceAnalysis::analyse(&b, 1, t(0), t(1000));
        assert_eq!(a.preemptions.len(), 1);
        assert_eq!(a.preemptions[0].at, t(400));
        assert_eq!(a.preemptions[0].intruder, Pid(3));
    }

    #[test]
    fn a_wakeup_clears_the_block_mark() {
        let mut b = Log::new();
        // Task 1 is preempted by task 2 at 100. While it waits for the
        // CPU its wait is satisfied: a transient block and wakeup off
        // the CPU. It runs again at 200, and its next switch-out, at
        // 300, is a preemption too.
        switch(&mut b, 0, 0, None, Some(1));
        switch(&mut b, 100, 0, Some(1), Some(2));
        deactivate(&mut b, 150, 1);
        wakeup(&mut b, 150, 1);
        switch(&mut b, 200, 0, Some(2), Some(1));
        switch(&mut b, 300, 0, Some(1), Some(3));
        switch(&mut b, 350, 0, Some(3), Some(1));
        let a = TraceAnalysis::analyse(&b, 1, t(0), t(1000));
        let stolen: Vec<u64> = a.preemptions.iter().map(|p| p.stolen.as_nanos()).collect();
        assert_eq!(stolen, [100, 50]);
    }

    #[test]
    fn residency_spans_window_end() {
        let mut b = Log::new();
        switch(&mut b, 0, 0, None, Some(1));
        let a = TraceAnalysis::analyse(&b, 1, t(0), t(500));
        assert_eq!(a.residency[0].running, SimDuration::from_nanos(500));
        assert_eq!(a.residency[0].cpus_used, 1);
    }

    #[test]
    fn stolen_time_and_filters() {
        let mut b = Log::new();
        switch(&mut b, 0, 0, None, Some(1));
        switch(&mut b, 100, 0, Some(1), Some(2));
        switch(&mut b, 200, 0, Some(2), Some(1));
        switch(&mut b, 400, 0, Some(1), Some(3));
        switch(&mut b, 700, 0, Some(3), Some(1));
        let a = TraceAnalysis::analyse(&b, 1, t(0), t(1000));
        assert_eq!(a.preemptions.len(), 2);
        assert_eq!(a.preemptions_of(Pid(1)).count(), 2);
        assert_eq!(
            a.total_stolen_from(&[Pid(1)]),
            SimDuration::from_nanos(100 + 300)
        );
        assert_eq!(a.total_stolen_from(&[Pid(9)]), SimDuration::ZERO);
    }

    #[test]
    fn events_outside_window_ignored() {
        let mut b = Log::new();
        switch(&mut b, 0, 0, None, Some(1));
        switch(&mut b, 2000, 0, Some(1), Some(2));
        let a = TraceAnalysis::analyse(&b, 1, t(0), t(1000));
        assert!(a.preemptions.is_empty());
    }
}
