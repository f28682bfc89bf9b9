//! # hpl-kernel — a discrete-event model of a cluster node's kernel
//!
//! This crate is the substrate the whole reproduction stands on: an
//! event-level simulation of the parts of Linux 2.6.34 that the paper
//! identifies as the sources of OS noise for HPC applications — the task
//! scheduler and its load balancer — together with the execution-cost
//! model (cache warmth, SMT contention, context-switch and tick overhead)
//! that turns scheduler decisions into execution-time effects.
//!
//! ## Structure (mirrors the kernel the paper modifies)
//!
//! * [`task`] — tasks, scheduling policies, the per-task scheduling entity.
//! * [`program`] — what a task *does*: a [`program::Program`] yields steps
//!   (compute, sleep, wait, notify, barrier, fork, setscheduler, exit)
//!   that the kernel executes; MPI ranks, daemons and launchers are all
//!   programs.
//! * [`sync`] — wait channels and barriers (the futex-level substrate the
//!   simulated MPI runtime is built on).
//! * [`class`] — the **Scheduling Class** framework: an ordered list of
//!   classes per CPU; the Scheduler Core asks each class in priority order
//!   for a task, exactly the structure HPL plugs into.
//! * [`cfs`] — the Completely Fair Scheduler class: vruntime, nice-level
//!   weights, sleeper fairness and wakeup preemption (the mechanism that
//!   lets a long-sleeping daemon preempt an HPC task regardless of nice).
//! * [`rt`] — the Real-Time class (SCHED_FIFO/SCHED_RR) with priority
//!   arrays and overload push/pull — the comparison point of Fig. 4.
//! * [`balance`] — scheduling-domain load balancing: periodic and
//!   new-idle balancing for CFS, the machinery whose "idle CPUs
//!   immediately try to pull tasks" behaviour the paper blames for
//!   migration noise.
//! * [`cache`] — per-core cache-warmth model giving migrations and
//!   preemptions their *indirect* cost.
//! * [`noise`] — the daemon population (per-CPU kthreads + global user
//!   daemons + rare housekeeping bursts) that generates the OS noise.
//! * [`node`] — [`node::Node`]: the event loop tying it all together, plus
//!   counter accounting compatible with `perf stat`.
//! * [`config`] — every tunable in one place, documented with the Linux
//!   default it mirrors.
//! * [`power`] — per-CPU energy accounting (the paper's power-dimension
//!   future work) derived from the busy-time counters.
//! * [`observe`] — the unified observability subsystem: the
//!   [`observe::SchedObserver`] sink trait wired into every kernel
//!   decision point, with the bounded event ring (and its ASCII Gantt
//!   renderer), Chrome-trace and metrics sinks.
//! * [`analysis`] — reconstruct preemption episodes and residency from a
//!   trace (`perf sched`-style noise attribution).
//!
//! The HPL scheduling class itself lives in the `hpl-core` crate and
//! registers into this framework through [`class::SchedClass`], just as
//! the paper's class slots between RT and CFS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod balance;
pub mod cache;
pub mod cfs;
pub mod class;
pub mod config;
pub mod gang;
pub mod idle;
pub mod node;
pub mod noise;
pub mod observe;
pub mod power;
pub mod program;
pub mod rt;
pub mod sync;
pub mod task;

pub use class::{class_of_policy, ClassKind, LoadSnapshot, MigrationPlan, SchedClass, SchedCtx};
pub use config::{BalanceMode, KernelConfig};
pub use hpl_perf::RunOutcome;
pub use node::{NetMsg, NetSpan, Node, NodeBuilder};
pub use observe::{
    BalanceKind, DeactivateReason, MetricsSink, MigrateReason, ObserverId, PreemptVerdict,
    RingSink, SchedEvent, SchedObserver, TickOutcome,
};
pub use program::{FnProgram, ProgCtx, Program, Step, TaskSpec};
pub use sync::{BarrierId, ChanId};
pub use task::{Pid, Policy, Task, TaskState, TaskTable};
