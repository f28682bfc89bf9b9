//! Task behaviours.
//!
//! A [`Program`] is what a task *does*: every time the previous step
//! completes (a compute segment finishes, a wait is satisfied, a sleep
//! expires), the kernel asks the program for its next [`Step`]. MPI ranks,
//! user daemons, kernel threads, `mpiexec`, `chrt` and `perf` are all
//! programs — the same abstraction at every level, mirroring how the real
//! kernel is oblivious to what user code computes and only sees the
//! block/wake/fork pattern.

use crate::sync::{BarrierId, ChanId};
use crate::task::{Pid, Policy};
use hpl_sim::{Rng, SimDuration, SimTime};
use hpl_topology::CpuMask;
use std::fmt;

/// One step of task behaviour, executed by the kernel.
pub enum Step {
    /// Execute `work` of computation, expressed as the wall-clock time it
    /// would take on a dedicated CPU with a warm cache and an idle SMT
    /// sibling. The scheduler's decisions stretch this.
    Compute(SimDuration),
    /// Sleep for a duration (timer wait).
    Sleep(SimDuration),
    /// Consume one token from a channel, blocking if none is available.
    WaitChan(ChanId),
    /// Consume one token from a channel, busy-waiting (spinning on the
    /// CPU) for up to `spin_limit` before blocking — the MPI-library
    /// progress-engine behaviour.
    WaitChanSpin {
        /// Channel to wait on.
        chan: ChanId,
        /// Maximum busy-wait before yielding the CPU.
        spin_limit: SimDuration,
    },
    /// Deposit tokens on a channel, waking waiters.
    Notify {
        /// Channel to notify.
        chan: ChanId,
        /// Number of tokens to deposit.
        tokens: u32,
    },
    /// Deposit tokens on a channel whose consumer may live on another
    /// node. If a registered span classifies the channel as external
    /// ([`crate::Node::register_net_span`]) the message is captured
    /// into the node's outbound queue — `bytes` sizes it for the
    /// cluster interconnect's cost model — and a cluster driver routes
    /// it to the destination node, where the delivery event deposits
    /// the tokens. On any other channel it degrades to exactly
    /// [`Step::Notify`] (the same-node shared-memory fast path), so
    /// programs can emit it unconditionally.
    NetSend {
        /// Destination channel (its waiters live on the destination
        /// node when registered as a network endpoint).
        chan: ChanId,
        /// Number of tokens to deposit on delivery.
        tokens: u32,
        /// Payload size, for the interconnect alpha/beta model.
        bytes: u64,
    },
    /// Arrive at a barrier of `parties` participants; blocks unless this
    /// arrival completes the barrier.
    Barrier {
        /// Barrier identity.
        id: BarrierId,
        /// Number of participants.
        parties: u32,
    },
    /// Arrive at a barrier, busy-waiting up to `spin_limit` before
    /// blocking.
    BarrierSpin {
        /// Barrier identity.
        id: BarrierId,
        /// Number of participants.
        parties: u32,
        /// Maximum busy-wait before yielding the CPU.
        spin_limit: SimDuration,
    },
    /// Fork a child task.
    Fork(TaskSpec),
    /// Change a task's scheduling policy (`sched_setscheduler`). `None`
    /// targets the caller.
    SetPolicy {
        /// Target task; `None` = self.
        target: Option<Pid>,
        /// New policy.
        policy: Policy,
    },
    /// Change a task's affinity (`sched_setaffinity`). `None` = self.
    SetAffinity {
        /// Target task; `None` = self.
        target: Option<Pid>,
        /// New mask.
        mask: CpuMask,
    },
    /// Block until every forked child has exited (`waitpid` loop).
    WaitChildren,
    /// Terminate.
    Exit,
    /// Publish an observability annotation into the node's
    /// [`crate::observe::SchedObserver`] stream — how user-space
    /// runtimes (the `hpl-coord` arbiter's lease grants) thread their
    /// decisions into the same trace as the kernel's own. Observers are
    /// pure sinks, so this never perturbs the simulation; with no sink
    /// attached it costs nothing.
    Emit(crate::observe::SchedEvent),
}

impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Compute(d) => write!(f, "Compute({d})"),
            Step::Sleep(d) => write!(f, "Sleep({d})"),
            Step::WaitChan(c) => write!(f, "WaitChan({c})"),
            Step::WaitChanSpin { chan, spin_limit } => {
                write!(f, "WaitChanSpin({chan}, {spin_limit})")
            }
            Step::Notify { chan, tokens } => write!(f, "Notify({chan}, {tokens})"),
            Step::NetSend {
                chan,
                tokens,
                bytes,
            } => write!(f, "NetSend({chan}, {tokens}, {bytes}B)"),
            Step::Barrier { id, parties } => write!(f, "Barrier({id}, {parties})"),
            Step::BarrierSpin {
                id,
                parties,
                spin_limit,
            } => write!(f, "BarrierSpin({id}, {parties}, {spin_limit})"),
            Step::Fork(spec) => write!(f, "Fork({})", spec.name),
            Step::SetPolicy { target, policy } => write!(f, "SetPolicy({target:?}, {policy:?})"),
            Step::SetAffinity { target, mask } => write!(f, "SetAffinity({target:?}, {mask})"),
            Step::WaitChildren => write!(f, "WaitChildren"),
            Step::Exit => write!(f, "Exit"),
            Step::Emit(ev) => write!(f, "Emit({ev:?})"),
        }
    }
}

/// Context handed to a program when it is asked for its next step.
pub struct ProgCtx<'a> {
    /// The task's pid.
    pub pid: Pid,
    /// Current simulated time.
    pub now: SimTime,
    /// Deterministic randomness (the node's stream).
    pub rng: &'a mut Rng,
}

/// A task behaviour. Implementations must be deterministic given the
/// `ProgCtx` RNG stream, and `Send` because whole [`crate::Node`]s move
/// between host threads in the cluster's parallel co-simulation.
pub trait Program: Send {
    /// Produce the next step. Called again only after the previous step
    /// has fully completed.
    fn next_step(&mut self, ctx: &mut ProgCtx<'_>) -> Step;

    /// Short label for traces.
    fn describe(&self) -> &str {
        "program"
    }
}

/// Specification of a task to create (initial spawn or fork).
pub struct TaskSpec {
    /// `comm` name.
    pub name: String,
    /// Scheduling policy at birth.
    pub policy: Policy,
    /// Affinity mask at birth (empty = inherit all CPUs).
    pub affinity: CpuMask,
    /// Behaviour.
    pub program: Box<dyn Program>,
    /// Harness tag (e.g. "application task") copied to the task.
    pub tag: Option<u32>,
}

impl TaskSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, policy: Policy, program: Box<dyn Program>) -> Self {
        TaskSpec {
            name: name.into(),
            policy,
            affinity: CpuMask::EMPTY,
            program,
            tag: None,
        }
    }

    /// Set an affinity mask.
    pub fn with_affinity(mut self, mask: CpuMask) -> Self {
        self.affinity = mask;
        self
    }

    /// Set a harness tag.
    pub fn with_tag(mut self, tag: u32) -> Self {
        self.tag = Some(tag);
        self
    }
}

impl fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskSpec")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("affinity", &self.affinity)
            .finish_non_exhaustive()
    }
}

/// A program from a closure: each call yields the next step. The simplest
/// way to write daemons and synthetic workloads.
pub struct FnProgram<F: FnMut(&mut ProgCtx<'_>) -> Step> {
    f: F,
    label: String,
}

impl<F: FnMut(&mut ProgCtx<'_>) -> Step> FnProgram<F> {
    /// Wrap a closure.
    pub fn new(label: impl Into<String>, f: F) -> Self {
        FnProgram {
            f,
            label: label.into(),
        }
    }

    /// Boxed, for direct use in a [`TaskSpec`].
    pub fn boxed(label: impl Into<String>, f: F) -> Box<dyn Program>
    where
        F: 'static + Send,
    {
        Box::new(FnProgram::new(label, f))
    }
}

impl<F: FnMut(&mut ProgCtx<'_>) -> Step + Send> Program for FnProgram<F> {
    fn next_step(&mut self, ctx: &mut ProgCtx<'_>) -> Step {
        (self.f)(ctx)
    }

    fn describe(&self) -> &str {
        &self.label
    }
}

/// A program that runs a fixed list of steps, then exits.
pub struct ScriptProgram {
    steps: std::vec::IntoIter<Step>,
    label: String,
}

impl ScriptProgram {
    /// Build from a step list. An `Exit` is appended implicitly when the
    /// script runs out.
    pub fn new(label: impl Into<String>, steps: Vec<Step>) -> Self {
        ScriptProgram {
            steps: steps.into_iter(),
            label: label.into(),
        }
    }

    /// Boxed, for direct use in a [`TaskSpec`].
    pub fn boxed(label: impl Into<String>, steps: Vec<Step>) -> Box<dyn Program> {
        Box::new(ScriptProgram::new(label, steps))
    }
}

impl Program for ScriptProgram {
    fn next_step(&mut self, _ctx: &mut ProgCtx<'_>) -> Step {
        self.steps.next().unwrap_or(Step::Exit)
    }

    fn describe(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with<'a>(rng: &'a mut Rng) -> ProgCtx<'a> {
        ProgCtx {
            pid: Pid(0),
            now: SimTime::ZERO,
            rng,
        }
    }

    #[test]
    fn script_yields_steps_then_exit() {
        let mut rng = Rng::new(1);
        let mut p = ScriptProgram::new(
            "s",
            vec![
                Step::Compute(SimDuration::from_millis(1)),
                Step::Sleep(SimDuration::from_millis(2)),
            ],
        );
        let mut ctx = ctx_with(&mut rng);
        assert!(matches!(p.next_step(&mut ctx), Step::Compute(_)));
        assert!(matches!(p.next_step(&mut ctx), Step::Sleep(_)));
        assert!(matches!(p.next_step(&mut ctx), Step::Exit));
        assert!(matches!(p.next_step(&mut ctx), Step::Exit));
    }

    #[test]
    fn fn_program_uses_rng_deterministically() {
        let make = || {
            FnProgram::new("d", |ctx: &mut ProgCtx<'_>| {
                Step::Compute(SimDuration::from_nanos(ctx.rng.range_u64(1, 100)))
            })
        };
        let mut r1 = Rng::new(7);
        let mut r2 = Rng::new(7);
        let mut p1 = make();
        let mut p2 = make();
        for _ in 0..10 {
            let s1 = {
                let mut c = ctx_with(&mut r1);
                p1.next_step(&mut c)
            };
            let s2 = {
                let mut c = ctx_with(&mut r2);
                p2.next_step(&mut c)
            };
            match (s1, s2) {
                (Step::Compute(a), Step::Compute(b)) => assert_eq!(a, b),
                _ => panic!("unexpected steps"),
            }
        }
    }

    #[test]
    fn task_spec_builders() {
        let spec = TaskSpec::new("rank0", Policy::Hpc, ScriptProgram::boxed("r", vec![]))
            .with_affinity(CpuMask::first_n(2))
            .with_tag(7);
        assert_eq!(spec.name, "rank0");
        assert_eq!(spec.tag, Some(7));
        assert_eq!(spec.affinity.count(), 2);
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("rank0"));
    }

    #[test]
    fn step_debug_formats() {
        let s = Step::Barrier {
            id: BarrierId(3),
            parties: 8,
        };
        assert_eq!(format!("{s:?}"), "Barrier(barrier3, 8)");
        assert!(format!("{:?}", Step::WaitChildren).contains("WaitChildren"));
    }
}
