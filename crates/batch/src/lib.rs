//! # hpl-batch — two-level scheduling: a cluster batch scheduler above
//! the co-simulated kernel nodes
//!
//! The paper isolates OS-level scheduling noise on a single dedicated
//! job, but real HPC nodes receive their jobs from a *cluster-level*
//! scheduler, and the interaction between the two levels is what the
//! related work (dynamic fractional resource scheduling vs. batch
//! scheduling; two-level scheduling studies) attacks directly. This
//! crate turns the mechanistic cluster of `hpl-cluster` into a two-level
//! scheduling laboratory:
//!
//! * [`BatchTrace`] — replayable job streams: seeded synthetic arrival
//!   processes and Standard Workload Format logs ([`SwfTrace`]);
//! * [`AllocPolicy`] — the pluggable allocation policy trait, with
//!   [`Fcfs`], [`EasyBackfill`] (head-job reservation + audited shadow-
//!   window backfilling), [`Oversubscribed`] (two jobs per node, the
//!   anti-dedicated-node contrast) and [`Dfrs`] (fractional shares with
//!   audited periodic reallocation, realised at the OS level by gang
//!   rotation) implementations;
//! * [`BatchRun`] — the job lifecycle engine (submit → queued →
//!   allocated → running → completed, or failed → requeued) advanced
//!   inside the cosim event loop, so arrivals, allocation decisions,
//!   completions and crash-triggered requeues are deterministic
//!   virtual-time events; it fills a [`BatchReport`] with per-job wait,
//!   bounded slowdown, makespan, utilization and requeue counts.
//!   [`CheckpointSpec`] adds periodic checkpoint/restart so requeued
//!   jobs resume from their last committed checkpoint.
//!
//! Batch-level lifecycle events (`JobSubmit`/`JobStart`/`JobEnd`, queue
//! depth) are published through the node-0 [`hpl_kernel::SchedObserver`]
//! stream, so a single Chrome trace shows the batch scheduler's
//! decisions above the kernel's.
//!
//! ```
//! use hpl_batch::{BatchRun, BatchTrace, Fcfs};
//! use hpl_cluster::{Cluster, Interconnect, NetConfig};
//! use hpl_core::hpl_node_builder;
//! use hpl_sim::{Rng, SimDuration};
//! use hpl_topology::Topology;
//!
//! let mut cluster = Cluster::builder()
//!     .nodes_with(2, |i| {
//!         hpl_node_builder(Topology::smp(2))
//!             .with_seed(Rng::for_run(42, i as u64).next_u64())
//!             .build()
//!     })
//!     .fabric(Interconnect::flat(2, NetConfig::default()))
//!     .build();
//! for i in 0..2 {
//!     cluster.node_mut(i).run_for(SimDuration::from_millis(100));
//! }
//! let trace = BatchTrace::synthetic(7, 3, 2);
//! let report = BatchRun::new(&trace)
//!     .run(&mut cluster, &mut Fcfs)
//!     .expect("batch run completes");
//! assert_eq!(report.outcomes.len(), 3);
//! assert_eq!(report.occupancy_violations, 0);
//! assert_eq!(report.requeues, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod policy;
pub mod swf;
pub mod trace;

pub use engine::{BatchReport, BatchRun, CheckpointSpec, JobOutcome, UserStats};
pub use policy::{
    AllocPolicy, Allocation, AuditSummary, Audited, BackfillDecision, ClusterView,
    ConservativeBackfill, Dfrs, DfrsDecision, EasyBackfill, FairShare, FairShareDispatch, Fcfs,
    MultiQueue, Oversubscribed, QueuedJob, ReservationDecision, RunningJob,
};
pub use swf::{SwfJob, SwfMap, SwfTrace, TraceTransform};
pub use trace::{BatchJob, BatchTrace};
