//! # hpl-workloads — NAS-like benchmark models and noise microbenchmarks
//!
//! The paper evaluates the MPI NAS Parallel Benchmarks 3.3 (classes A
//! and B, 8 ranks) on the js22 node. What the *scheduler* sees of each
//! benchmark is its compute/synchronise cycle: how much local work
//! between synchronisation points, and what shape the synchronisation
//! takes. [`nas`] captures exactly that structure per benchmark —
//! embarrassingly parallel (ep), fine-grained allreduce + halo exchange
//! (cg), transpose-dominated alltoall (ft), bucketed alltoall (is),
//! ring neighbour exchanges (lu), and multigrid V-cycles (mg) —
//! with per-rank work calibrated so the clean-machine (HPL minimum)
//! execution times land on the paper's Table II values.
//!
//! [`micro`] adds the methodology microbenchmarks of the noise
//! literature: a fixed-work-quantum probe and a configurable
//! noise-injection study (Ferreira et al. style). [`paper`] transcribes
//! the paper's published Tables Ia/Ib/II as data, so comparisons and
//! reproduction-quality gates never hand-copy numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod nas;
pub mod paper;

pub use nas::{nas_job, NasBenchmark, NasClass};
