//! # hpl-torture — seeded scheduler fuzzing with invariant oracles
//!
//! The torture harness closes the gap between "the curated tests pass"
//! and "the scheduler is correct": it generates random-but-live
//! scenarios ([`Scenario::sample`]) spanning topology shapes, program
//! soups (fork/sleep/barrier/channel ops under mixed CFS/RT/HPC
//! policies), MPI jobs, batch-scheduled multi-job streams (FCFS or
//! EASY through `hpl-batch`, audited for occupancy-limit and
//! reservation breaches), noise intensities and 1–4-node LogGP fabrics,
//! then runs each one with an online [`InvariantOracle`] attached — a
//! [`hpl_kernel::observe::SchedObserver`] sink that replays the
//! kernel's decision stream against the paper's invariants (class
//! shielding, HPC-migrates-only-at-fork, RR rotation fairness,
//! vruntime monotonicity, no lost wakeups, task conservation,
//! virtual-time monotonicity).
//!
//! Two differential oracles back the invariant checks:
//!
//! * every scenario runs on **both** event-loop flavours (reference
//!   and timer-wheel fast path) and the end states must be bit-equal
//!   ([`check_scenario`]);
//! * a canonical bulk-synchronous job on the mechanistic cluster must
//!   agree with the analytic resonance model within tolerance
//!   ([`analytic_differential`]).
//!
//! On failure the harness greedily shrinks the scenario ([`shrink()`])
//! and writes a replayable seed artifact plus a Chrome trace
//! ([`artifact::write_failure`]). The `torture` binary drives it all;
//! `torture --smoke` is wired into `scripts/check.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use oracle::{InvariantOracle, Violation};
pub use runner::{analytic_differential, check_scenario, run_scenario, Failure, RunReport};
pub use scenario::{
    BatchPolicyKind, BatchSpec, Fault, MpiSpec, OpKind, Scenario, SoupSpec, SoupStep, SoupTask,
    TopoKind, Workload,
};
pub use shrink::{shrink, Shrunk};
