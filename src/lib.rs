//! # hpl — the HPL scheduler study, end to end
//!
//! A discrete-event reproduction of *"Designing OS for HPC Applications:
//! Scheduling"* (Gioiosa, McKee, Valero — IEEE CLUSTER 2010): the **HPL**
//! scheduling class for HPC tasks, the Linux scheduler it competes with,
//! the machine and noise models that make the comparison meaningful, and
//! the experiment harness that regenerates every table and figure of the
//! paper.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ## Quick start
//!
//! ```
//! use hpl::prelude::*;
//!
//! // A node with the paper's machine, daemons, and the HPL scheduler.
//! let mut node = hpl_node_builder(Topology::power6_js22())
//!     .with_noise(NoiseProfile::standard(8))
//!     .with_seed(42)
//!     .build();
//! node.run_for(SimDuration::from_millis(400));
//!
//! // Launch a small MPI job in the HPC class and measure it.
//! let job = JobSpec::new(8, JobSpec::repeat(3, &[
//!     MpiOp::Compute { mean: SimDuration::from_millis(2) },
//!     MpiOp::Allreduce { bytes: 64 },
//! ]));
//! let mut perf = PerfSession::open(&node.counters, node.now());
//! let handle = launch(&mut node, &job, SchedMode::Hpc);
//! let exec = handle.run_to_completion(&mut node, 100_000_000);
//! perf.close(&node.counters, node.now());
//!
//! assert!(exec.as_secs_f64() > 0.006);
//! println!("{}", perf.report());
//! ```
//!
//! ## Multi-node quick start
//!
//! Clusters are described with [`Cluster::builder`](cluster::Cluster::builder):
//! node factory, fabric, co-sim driver and (optionally) a deterministic
//! [`FaultPlan`](cluster::FaultPlan), then `build()`. Jobs launch with
//! an explicit [`Placement`](cluster::Placement).
//!
//! ```
//! use hpl::prelude::*;
//!
//! let mut cluster = Cluster::builder()
//!     .nodes_with(2, |i| {
//!         hpl_node_builder(Topology::smp(2))
//!             .with_noise(NoiseProfile::standard(2))
//!             .with_seed(Rng::for_run(7, i as u64).next_u64())
//!             .build()
//!     })
//!     .fabric(Interconnect::flat(2, NetConfig::default()))
//!     .cosim(CosimConfig::serial())
//!     .faults(FaultPlan::none()) // or .with_loss(...)/.crash(...)/.restart(...)
//!     .build();
//! for i in 0..2 {
//!     cluster.node_mut(i).run_for(SimDuration::from_millis(50));
//! }
//!
//! let job = JobSpec::new(4, JobSpec::repeat(2, &[
//!     MpiOp::Compute { mean: SimDuration::from_micros(500) },
//!     MpiOp::Allreduce { bytes: 64 },
//! ])).with_nodes(2);
//! let handle = cluster.launch(&job, SchedMode::Hpc, Placement::All);
//! let exec = cluster.run_to_completion(&handle, 50_000_000);
//! assert!(exec.as_nanos() > 0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | event queue, deterministic RNG, statistics, ASCII plots |
//! | [`topology`] | sockets/cores/SMT, caches, scheduling domains |
//! | [`perf`] | software/hardware counters, `perf stat` sessions |
//! | [`kernel`] | the simulated node: scheduler core, CFS, RT, balancer, noise |
//! | [`core`] | **the paper's contribution**: the HPL scheduling class |
//! | [`mpi`] | simulated MPI runtime and the perf/chrt/mpiexec launcher |
//! | [`workloads`] | NAS benchmark models, noise microbenchmarks |
//! | [`cluster`] | multi-node layer: analytic noise-resonance projection **and** mechanistic lockstep co-simulation of kernel nodes over a LogGP interconnect, with deterministic fault injection (`FaultPlan`: message loss, link degradation, node crash/drain/restart) |
//! | [`coord`] | realizing fractional CPU shares inside a node: weighted kernel gang slicing and a user-space lease-arbiter runtime (`CoordRuntime`), both driving the same clock-derived slice schedule |
//! | [`batch`] | two-level scheduling: cluster batch queue, the allocation-policy zoo (FCFS, EASY and conservative backfilling, multi-queue with aging, fair share, oversubscribed, weighted DFRS), SWF production-trace ingestion (`SwfTrace`/`SwfMap`/`TraceTransform`), multi-job lifecycle engine (`BatchRun`) with walltime enforcement, checkpoint/restart, crash requeue and coordinated runs (`run_coordinated`) |
//! | [`bench`](mod@bench) | run harness, `RunConfig`/`RunTable` plumbing, the `repro` binary |
//! | [`torture`] | seeded scheduler fuzzing: random scenarios, online invariant oracle, differential event-loop checks, failure shrinking (`torture` binary) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hpl_batch as batch;
pub use hpl_bench as bench;
pub use hpl_cluster as cluster;
pub use hpl_coord as coord;
pub use hpl_core as core;
pub use hpl_kernel as kernel;
pub use hpl_mpi as mpi;
pub use hpl_perf as perf;
pub use hpl_sim as sim;
pub use hpl_topology as topology;
pub use hpl_torture as torture;
pub use hpl_workloads as workloads;

/// The names almost every user of this library needs.
pub mod prelude {
    pub use hpl_batch::{
        AllocPolicy, AuditSummary, Audited, BatchJob, BatchReport, BatchRun, BatchTrace,
        CheckpointSpec, ConservativeBackfill, Dfrs, DfrsDecision, EasyBackfill, FairShare, Fcfs,
        JobOutcome, MultiQueue, Oversubscribed, SwfMap, SwfTrace, TraceTransform, UserStats,
    };
    pub use hpl_bench::{run_many, run_once, NoiseKind, RunConfig, Scheduler};
    pub use hpl_cluster::{
        Cluster, ClusterBuilder, ClusterJobHandle, CosimConfig, DegradeWindow, DistError,
        EmpiricalDist, Fabric, FaultPlan, FlatFabric, Interconnect, JobCoordinator, LossSpec,
        NetConfig, NodeEvent, NodeFault, Placement, ResonanceModel, SwitchedFabric, Window,
    };
    pub use hpl_coord::{CoordBackend, CoordRuntime, CoordStats};
    pub use hpl_core::{chrt_spec, hpl_node_builder, HplClass};
    pub use hpl_kernel::noise::{NoiseProfile, NOISE_TAG};
    pub use hpl_kernel::observe::{validate_chrome_trace, ChromeTraceStats};
    pub use hpl_kernel::{
        BalanceKind, BalanceMode, KernelConfig, MetricsSink, MigrateReason, Node, NodeBuilder,
        ObserverId, Pid, Policy, PreemptVerdict, RingSink, RunOutcome, SchedEvent, SchedObserver,
        Step, TaskSpec, TaskState, TickOutcome,
    };
    pub use hpl_mpi::{launch, JobSpec, MpiConfig, MpiOp, SchedMode};
    pub use hpl_perf::{
        CounterSet, HwEvent, Log2Hist, PerCpuCounters, PerfSession, RunRecord, RunTable,
        SchedMetrics, SwEvent,
    };
    pub use hpl_sim::{Rng, SimDuration, SimTime};
    pub use hpl_topology::{CpuId, CpuMask, Topology};
    pub use hpl_torture::{check_scenario, InvariantOracle, Scenario, Violation};
    pub use hpl_workloads::{nas_job, NasBenchmark, NasClass};
}
