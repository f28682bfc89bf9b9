//! # hpl-mpi — a simulated MPI runtime
//!
//! Models the layer between the NAS workloads and the simulated kernel:
//! ranks as kernel tasks, collectives and point-to-point exchanges built
//! on the kernel's channel/barrier substrate, and the launcher stack the
//! paper actually measures (`perf` wrapping `chrt` wrapping `mpiexec`
//! wrapping the ranks — the accounting behind Table Ib's "exactly ~10
//! migrations").
//!
//! Two modelling choices matter for fidelity:
//!
//! * **Spin-then-block waits.** MPI progress engines busy-poll before
//!   yielding. Ranks therefore *occupy their CPUs* while waiting briefly,
//!   which keeps baseline context-switch counts low and —
//!   crucially — keeps CPUs non-idle so the load balancer has no idle
//!   target, unless noise makes a rank late enough for spins to expire.
//!   That is exactly the regime in which the paper's migration storms
//!   ignite.
//! * **LogP-flavoured collective costs.** Each collective charges
//!   `O(log p)` (tree) or `O(p)` (all-to-all) per-message latencies as
//!   compute before synchronising, so communication-bound codes (cg, is)
//!   stay communication-bound in the simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod launcher;
pub mod runtime;

pub use launcher::{
    find_mpiexec, launch, spawn_job_tree, spawn_job_tree_with, LaunchHandle, RankWrap, SchedMode,
};
pub use runtime::{JobSpec, MpiConfig, MpiOp, RankProgram, MSG_ALPHA, MSG_BETA_NS_PER_BYTE};
