//! Random scheduler scenarios and their replayable text form.
//!
//! A [`Scenario`] is an explicit, fully serialisable description of one
//! torture case: machine shape, kernel flavour, noise level, fabric,
//! fault injection, and a workload — an MPI job, a "soup" of
//! interacting tasks (computes, sleeps, channels, barriers, forks,
//! policy changes), or a batch-scheduled multi-job stream.
//! Scenarios are *sampled* from a seed but *stored* as
//! plain data, so the shrinker can mutate them structurally and a
//! failure can be replayed from its artifact file byte-for-byte.
//!
//! Liveness by construction: soup channel waits only reference
//! lower-indexed tasks, every notify precedes every wait in a task's
//! step order, barrier members all pass the same number of rounds
//! between their notifies and their waits, and forking tasks always
//! reap their children. An acyclic wait graph cannot deadlock, so any
//! `Deadlock` outcome a scenario produces is the scheduler's fault, not
//! the generator's.

use hpl_batch::BatchJob;
use hpl_cluster::{DegradeWindow, FaultPlan, LossSpec, NodeEvent, NodeFault};
use hpl_kernel::Policy;
use hpl_mpi::SchedMode;
use hpl_sim::time::{SimDuration, SimTime};
use hpl_sim::Rng;

/// Machine shape of every node in the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// Flat SMP with `n` identical CPUs.
    Smp(u32),
    /// The paper's POWER6 JS22 blade: 2 sockets x 2 cores x SMT2.
    Power6,
}

/// Deliberate scheduler bug to inject (oracle self-test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the scheduler under test is the real one.
    None,
    /// `HplClass` wake placement bounces to the next CPU on every
    /// wakeup, violating "HPC migrates only at fork".
    HpcWakeupMigrate,
}

/// One MPI collective/compute op (mirrors [`hpl_mpi::MpiOp`], with
/// durations in nanoseconds so it serialises as integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Local compute with the given mean (ns).
    Compute(u64),
    /// Global barrier.
    Barrier,
    /// Allreduce of `bytes`.
    Allreduce(u64),
    /// Alltoall of `bytes` per pair.
    Alltoall(u64),
    /// Nearest-neighbour exchange of `bytes`.
    NeighborExchange(u64),
    /// Broadcast of `bytes`.
    Bcast(u64),
    /// Reduce of `bytes`.
    Reduce(u64),
}

/// An MPI-job workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiSpec {
    /// Ranks per node (`nprocs = ranks_per_node * nodes`).
    pub ranks_per_node: u32,
    /// Launch mode.
    pub mode: SchedMode,
    /// Op sequence each rank executes.
    pub ops: Vec<OpKind>,
}

/// One step of a soup task. Durations are nanoseconds; channel
/// references are *task indices* (the builder maps them to channel ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoupStep {
    /// Compute for `ns`.
    Compute(u64),
    /// Sleep for `ns`.
    Sleep(u64),
    /// Deposit a token for task `to` (must be a *higher* index).
    Notify {
        /// Receiving task index.
        to: u32,
    },
    /// Consume one token from task `from` (must be a *lower* index).
    Wait {
        /// Sending task index.
        from: u32,
    },
    /// Like [`SoupStep::Wait`] but busy-waits up to `spin_ns` first.
    SpinWait {
        /// Sending task index.
        from: u32,
        /// Spin budget before blocking (ns).
        spin_ns: u64,
    },
    /// Arrive at the soup-wide barrier (members only).
    Barrier,
    /// Fork a CFS child that computes `ns` and exits.
    ForkChild {
        /// Child compute length (ns).
        ns: u64,
    },
    /// Reap all forked children.
    WaitChildren,
    /// `sched_setscheduler(self, policy)`.
    SetPolicy(Policy),
}

/// One task in a soup workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoupTask {
    /// Policy at birth.
    pub policy: Policy,
    /// Pin to one CPU (index), or run unpinned.
    pub pin: Option<u32>,
    /// Behaviour (executed in order, then exit).
    pub steps: Vec<SoupStep>,
}

/// A single-node soup of interacting tasks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SoupSpec {
    /// The tasks, forked together by a driver that then reaps them.
    pub tasks: Vec<SoupTask>,
}

impl SoupSpec {
    /// Number of tasks whose step list contains a barrier arrival — the
    /// barrier's party count. Recomputed from structure so shrinking a
    /// member out keeps the barrier consistent.
    pub fn barrier_parties(&self) -> u32 {
        self.tasks
            .iter()
            .filter(|t| t.steps.iter().any(|s| matches!(s, SoupStep::Barrier)))
            .count() as u32
    }
}

/// Allocation policy of a batch workload (mirrors the `hpl-batch`
/// policies the torture harness exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicyKind {
    /// Strict first-come-first-served.
    Fcfs,
    /// EASY backfilling with a head-job reservation.
    Easy,
    /// Conservative backfilling: every queued job holds a reservation.
    Conservative,
    /// Priority classes with aging.
    MultiQueue,
    /// Per-user decayed-usage fair share.
    FairShare,
    /// Dynamic fractional resource scheduling: two jobs per node with
    /// audited periodic share reallocation, realised at the OS level by
    /// gang rotation ([`BatchSpec::gang_epoch_us`]).
    Dfrs,
}

/// Coordination runtime interposed on a batch workload (mirrors
/// `hpl_coord::CoordRuntime`'s two backends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordKind {
    /// No coordinator: policy shares stay advisory (`JobShare` events
    /// only), byte-identical to the pre-coordination behaviour.
    Off,
    /// Kernel-weighted backend: shares are realised as weighted gang
    /// slices (`Node::gang_set_share`), so `GangSlice` events flow.
    Kernel,
    /// User-space backend: a per-node arbiter daemon grants CPU leases
    /// to cooperating rank shims, so `Lease` events flow.
    User,
}

/// A two-level batch-scheduling workload: a small job stream pushed
/// through `hpl_batch::BatchRun` on the scenario's cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSpec {
    /// Allocation policy under test.
    pub policy: BatchPolicyKind,
    /// Enforce walltime limits (kill at 1.0 × estimate). Sampled
    /// scenarios with this on may include a deliberately under-
    /// estimated job so the kill path actually fires.
    pub walltime: bool,
    /// Gang-rotation epoch in µs (`KernelConfig::gang_epoch`); 0 = off.
    /// Always set for [`BatchPolicyKind::Dfrs`] scenarios so
    /// co-resident jobs rotate; occasionally set under dedicated
    /// policies, where rotation can never engage and the knob must be
    /// observably inert.
    pub gang_epoch_us: u64,
    /// Coordination runtime interposed on the run ([`CoordKind::Off`]
    /// = shares stay advisory). Only sampled for
    /// [`BatchPolicyKind::Dfrs`] — the one share-managing policy — and
    /// only on churn-free fault plans: a crashed node takes its arbiter
    /// daemon and kernel share table with it, so a coordinated job
    /// would hang on a lease no one can grant, which would read as a
    /// liveness failure the scheduler didn't cause.
    pub coord: CoordKind,
    /// Per-job DFRS weights `(job id, weight)` for uneven fractional
    /// splits; empty = even split (bit-identical to the unweighted
    /// policy). Weights only bite under [`BatchPolicyKind::Dfrs`].
    pub job_weights: Vec<(u32, u32)>,
    /// The job stream (ids are trace-local; widths never exceed the
    /// scenario's node count).
    pub jobs: Vec<BatchJob>,
}

/// The workload a scenario runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// An MPI job through the real launcher stack.
    Mpi(MpiSpec),
    /// A single-node task soup.
    Soup(SoupSpec),
    /// A batch-scheduled multi-job stream on the cluster.
    Batch(BatchSpec),
}

/// One complete torture case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Seed: drives node RNGs and all program-level jitter.
    pub seed: u64,
    /// Cluster size (1 = single node, no interconnect).
    pub nodes: u32,
    /// Per-node machine shape.
    pub topo: TopoKind,
    /// Switched (shared downlink) fabric instead of flat.
    pub switched: bool,
    /// HPL kernel config + `SCHED_HPC` class registered.
    pub hpl: bool,
    /// Tickless lone-HPC-task optimisation on.
    pub tickless: bool,
    /// Noise daemon intensity in percent of the standard profile
    /// (0 = quiet).
    pub noise_pct: u32,
    /// Add a timer-interrupt source.
    pub irq: bool,
    /// Step co-simulation windows on a host thread pool (multi-node
    /// scenarios only; must be invisible in every observable output —
    /// the differential oracle checks exactly that).
    pub parallel: bool,
    /// Injected scheduler bug.
    pub fault: Fault,
    /// Node/link fault schedule — crashes, drains, restarts, message
    /// loss, degrade windows (empty = healthy run).
    pub faults: FaultPlan,
    /// What runs.
    pub workload: Workload,
}

impl Scenario {
    /// CPUs per node.
    pub fn ncpus(&self) -> u32 {
        match self.topo {
            TopoKind::Smp(n) => n,
            TopoKind::Power6 => 8,
        }
    }

    /// Sample scenario `index` of the stream identified by `base_seed`.
    /// Deterministic: the same `(base_seed, index)` always yields the
    /// same scenario.
    pub fn sample(base_seed: u64, index: u64) -> Scenario {
        let mut rng = Rng::for_run(base_seed ^ 0x7047_u64, index);
        let nodes = if rng.chance(0.35) {
            *rng.choose(&[2u32, 3, 4])
        } else {
            1
        };
        let topo = *rng.choose(&[
            TopoKind::Smp(2),
            TopoKind::Smp(4),
            TopoKind::Power6,
            TopoKind::Power6,
        ]);
        let hpl = rng.chance(0.55);
        let workload = if nodes > 1 && rng.chance(0.25) {
            Workload::Batch(Self::sample_batch(&mut rng, nodes, topo))
        } else if nodes > 1 || rng.chance(0.5) {
            Workload::Mpi(Self::sample_mpi(&mut rng, topo, hpl))
        } else {
            Workload::Soup(Self::sample_soup(&mut rng, topo, hpl))
        };
        let mut sc = Scenario {
            seed: rng.next_u64(),
            nodes,
            topo,
            switched: nodes > 1 && rng.chance(0.4),
            hpl,
            tickless: hpl && rng.chance(0.5),
            noise_pct: *rng.choose(&[0u32, 0, 25, 100, 100]),
            irq: rng.chance(0.2),
            parallel: nodes > 1 && rng.chance(0.35),
            fault: Fault::None,
            faults: FaultPlan::none(),
            workload,
        };
        // Fault plans are drawn last, so scenario streams sampled before
        // the fault layer existed keep every other field unchanged.
        // Crash/restart churn rides only on batch workloads — a
        // fixed-width MPI job that loses a node can never complete,
        // which would read as a liveness failure, not a scheduler bug.
        if sc.nodes > 1 && rng.chance(0.3) {
            sc.install_fault_plan(rng.next_u64());
        }
        sc
    }

    /// Install a sampled [`FaultPlan`] appropriate for this scenario's
    /// workload: full churn (crash + restart) for batch workloads,
    /// link-only faults (loss, degrade) for everything else. No-op when
    /// the draw schedules nothing.
    pub fn install_fault_plan(&mut self, seed: u64) {
        let churn = matches!(self.workload, Workload::Batch(_));
        let plan = FaultPlan::sample(seed, if churn { self.nodes as usize } else { 1 });
        if !plan.is_none() {
            self.faults = plan;
            // Node churn and a coordination runtime cannot coexist: a
            // crash or drain takes the node's arbiter daemon (and its
            // kernel share table) with it, and the restarted node comes
            // back uncoordinated. Churny plans run with shares advisory.
            if !self.faults.events.is_empty() {
                if let Workload::Batch(b) = &mut self.workload {
                    b.coord = CoordKind::Off;
                }
            }
        }
    }

    fn sample_mpi(rng: &mut Rng, topo: TopoKind, hpl: bool) -> MpiSpec {
        let ncpus = match topo {
            TopoKind::Smp(n) => n,
            TopoKind::Power6 => 8,
        };
        let ranks_per_node = rng.range_u64(1, ncpus.min(8) as u64) as u32;
        let mode = if hpl && rng.chance(0.5) {
            SchedMode::Hpc
        } else {
            match rng.below(4) {
                0 => SchedMode::Cfs,
                1 => SchedMode::CfsNice {
                    nice: rng.range_u64(0, 10) as i8 - 5,
                },
                2 => SchedMode::Rt {
                    prio: rng.range_u64(40, 60) as u8,
                },
                _ => SchedMode::CfsPinned,
            }
        };
        let iters = rng.range_u64(1, 3);
        let mut inner = Vec::new();
        for _ in 0..rng.range_u64(1, 3) {
            inner.push(match rng.below(7) {
                0 | 1 => OpKind::Compute(rng.range_u64(300_000, 3_000_000)),
                2 => OpKind::Barrier,
                3 => OpKind::Allreduce(rng.range_u64(8, 4096)),
                4 => OpKind::Bcast(rng.range_u64(8, 4096)),
                5 => OpKind::Reduce(rng.range_u64(8, 4096)),
                _ => {
                    if rng.chance(0.5) {
                        OpKind::Alltoall(rng.range_u64(8, 1024))
                    } else {
                        OpKind::NeighborExchange(rng.range_u64(8, 1024))
                    }
                }
            });
        }
        let mut ops = Vec::new();
        for _ in 0..iters {
            ops.extend_from_slice(&inner);
        }
        MpiSpec {
            ranks_per_node,
            mode,
            ops,
        }
    }

    /// 2–4 jobs with staggered arrivals, widths within the cluster and
    /// ranks within the node (CPU oversubscription makes runtimes
    /// unboundable by honest estimates, which would turn EASY's
    /// reservation promise into noise), under FCFS or EASY. Estimates
    /// use the same generous max-of-exponentials bracket as
    /// `hpl_batch::BatchTrace::synthetic`.
    fn sample_batch(rng: &mut Rng, nodes: u32, topo: TopoKind) -> BatchSpec {
        let ncpus = match topo {
            TopoKind::Smp(n) => n,
            TopoKind::Power6 => 8,
        };
        let policy = *rng.choose(&[
            BatchPolicyKind::Fcfs,
            BatchPolicyKind::Easy,
            BatchPolicyKind::Conservative,
            BatchPolicyKind::MultiQueue,
            BatchPolicyKind::FairShare,
        ]);
        let walltime = rng.chance(0.3);
        let njobs = rng.range_u64(2, 4) as u32;
        let mut submit_ns = 0u64;
        let jobs: Vec<BatchJob> = (0..njobs)
            .map(|id| {
                submit_ns += (rng.exp(3.0e6) as u64).min(20_000_000);
                let width = rng.range_u64(1, nodes as u64) as u32;
                let ranks_per_node = rng.range_u64(1, ncpus.min(2) as u64) as u32;
                let iters = rng.range_u64(1, 3) as u32;
                let compute_ns = rng.range_u64(500_000, 2_000_000);
                let nominal = iters as u64 * compute_ns;
                let nprocs = (width * ranks_per_node) as u64;
                let est_factor = 2 + (u64::BITS - nprocs.leading_zeros()) as u64;
                // Under walltime enforcement, some jobs under-estimate
                // (half their nominal compute) so the kill path fires;
                // the occupancy-leak oracle then has something to bite.
                let doomed = walltime && rng.chance(0.4);
                BatchJob {
                    id,
                    submit_ns,
                    nodes: width,
                    ranks_per_node,
                    iters,
                    compute_ns,
                    bytes: if rng.chance(0.5) { 64 } else { 1024 },
                    est_runtime_ns: if doomed {
                        (nominal / 2).max(1_000_000)
                    } else {
                        est_factor * nominal + 50_000_000
                    },
                    user: rng.below(3) as u32,
                    class: rng.below(2) as u32,
                }
            })
            .collect();
        // Drawn after every pre-existing field (the fault-plan
        // discipline): scenario streams sampled before DFRS existed
        // keep all earlier draws unchanged.
        let (policy, gang_epoch_us) = if rng.chance(0.25) {
            (BatchPolicyKind::Dfrs, *rng.choose(&[200u64, 500, 1000]))
        } else if rng.chance(0.15) {
            // Gang epoch armed under a dedicated policy: rotation can
            // never engage (occupancy 1), so the knob must be inert.
            (policy, 500)
        } else {
            (policy, 0)
        };
        // Coordination draws come last (the fault-plan discipline
        // again): scenario streams sampled before the coord layer
        // existed keep every earlier draw unchanged. Only DFRS manages
        // shares, so only DFRS scenarios ever interpose a coordinator
        // or skew the split.
        let mut coord = CoordKind::Off;
        let mut job_weights = Vec::new();
        if matches!(policy, BatchPolicyKind::Dfrs) {
            coord = *rng.choose(&[
                CoordKind::Off,
                CoordKind::Kernel,
                CoordKind::Kernel,
                CoordKind::User,
            ]);
            if rng.chance(0.5) {
                for j in &jobs {
                    if rng.chance(0.7) {
                        job_weights.push((j.id, rng.range_u64(1, 4) as u32));
                    }
                }
            }
        }
        BatchSpec {
            policy,
            walltime,
            gang_epoch_us,
            coord,
            job_weights,
            jobs,
        }
    }

    fn sample_soup(rng: &mut Rng, topo: TopoKind, hpl: bool) -> SoupSpec {
        let ncpus = match topo {
            TopoKind::Smp(n) => n,
            TopoKind::Power6 => 8,
        };
        let ntasks = rng.range_u64(2, 8) as usize;
        let barrier_members: Vec<bool> = if ntasks >= 2 && rng.chance(0.5) {
            let mut m: Vec<bool> = (0..ntasks).map(|_| rng.chance(0.6)).collect();
            // A one-party barrier is legal but inert; force >= 2.
            while m.iter().filter(|&&b| b).count() < 2 {
                let i = rng.below(ntasks as u64) as usize;
                m[i] = true;
            }
            m
        } else {
            vec![false; ntasks]
        };
        let rounds = rng.range_u64(1, 3) as usize;
        let mut tasks = Vec::with_capacity(ntasks);
        for (i, &in_barrier) in barrier_members.iter().enumerate() {
            let policy = Self::sample_policy(rng, hpl);
            let pin = rng.chance(0.4).then(|| rng.below(ncpus as u64) as u32);
            // Phase 1: computes/sleeps/notifies (to higher indices).
            let mut steps = Vec::new();
            for _ in 0..rng.range_u64(0, 2) {
                steps.push(Self::sample_busy(rng));
            }
            for to in (i + 1)..ntasks {
                if rng.chance(0.4) {
                    steps.push(SoupStep::Notify { to: to as u32 });
                }
            }
            // Phase 2: barrier rounds (members only).
            if in_barrier {
                for _ in 0..rounds {
                    steps.push(SoupStep::Barrier);
                }
            }
            // Phase 3: waits (on lower indices) and more busy work.
            for _ in 0..rng.range_u64(0, 2) {
                steps.push(Self::sample_busy(rng));
            }
            if rng.chance(0.3) {
                steps.push(SoupStep::SetPolicy(Self::sample_policy(rng, hpl)));
            }
            if rng.chance(0.3) {
                steps.push(SoupStep::ForkChild {
                    ns: rng.range_u64(100_000, 1_000_000),
                });
                steps.push(SoupStep::WaitChildren);
            }
            tasks.push(SoupTask { policy, pin, steps });
        }
        // Wire the waits to match phase-1 notifies exactly: the notify
        // side was already generated, so walk it and append one wait per
        // token on the receiving side.
        let notifies: Vec<(usize, usize)> = tasks
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.steps
                    .iter()
                    .filter_map(move |s| match s {
                        SoupStep::Notify { to } => Some((i, *to as usize)),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        for (from, to) in notifies {
            let spin = rng.chance(0.5);
            let step = if spin {
                SoupStep::SpinWait {
                    from: from as u32,
                    spin_ns: rng.range_u64(50_000, 1_000_000),
                }
            } else {
                SoupStep::Wait { from: from as u32 }
            };
            // Waits go after any barrier and existing waits; inserting
            // before a trailing fork/reap pair keeps children last.
            let t = &mut tasks[to];
            let at = t
                .steps
                .iter()
                .position(|s| matches!(s, SoupStep::ForkChild { .. }))
                .unwrap_or(t.steps.len());
            t.steps.insert(at, step);
        }
        // Sometimes add a same-priority RR pair pinned to CPU 0 with
        // computes long enough to expire slices — exercises the
        // round-robin rotation invariant.
        if rng.chance(0.35) {
            let prio = rng.range_u64(30, 70) as u8;
            for _ in 0..2 {
                tasks.push(SoupTask {
                    policy: Policy::Rr(prio),
                    pin: Some(0),
                    steps: vec![
                        SoupStep::Compute(rng.range_u64(150_000_000, 300_000_000)),
                        SoupStep::Compute(rng.range_u64(150_000_000, 300_000_000)),
                    ],
                });
            }
        }
        SoupSpec { tasks }
    }

    fn sample_busy(rng: &mut Rng) -> SoupStep {
        if rng.chance(0.7) {
            SoupStep::Compute(rng.range_u64(50_000, 3_000_000))
        } else {
            SoupStep::Sleep(rng.range_u64(10_000, 2_000_000))
        }
    }

    fn sample_policy(rng: &mut Rng, hpl: bool) -> Policy {
        if hpl && rng.chance(0.3) {
            return Policy::Hpc;
        }
        match rng.below(4) {
            0 => Policy::Normal {
                nice: rng.range_u64(0, 10) as i8 - 5,
            },
            1 => Policy::Batch {
                nice: rng.range_u64(0, 6) as i8,
            },
            2 => Policy::Fifo(rng.range_u64(10, 90) as u8),
            _ => Policy::Rr(rng.range_u64(10, 90) as u8),
        }
    }

    // -----------------------------------------------------------------
    // Replayable text form
    // -----------------------------------------------------------------

    /// Serialise to the replay artifact format: a line-based
    /// `key value` text document (`torture-scenario v1` header).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("torture-scenario v1\n");
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "nodes {}", self.nodes);
        let topo = match self.topo {
            TopoKind::Smp(n) => format!("smp{n}"),
            TopoKind::Power6 => "power6".into(),
        };
        let _ = writeln!(s, "topo {topo}");
        let _ = writeln!(s, "switched {}", self.switched);
        let _ = writeln!(s, "hpl {}", self.hpl);
        let _ = writeln!(s, "tickless {}", self.tickless);
        let _ = writeln!(s, "noise_pct {}", self.noise_pct);
        let _ = writeln!(s, "irq {}", self.irq);
        let _ = writeln!(s, "parallel {}", self.parallel);
        let fault = match self.fault {
            Fault::None => "none",
            Fault::HpcWakeupMigrate => "hpc-wakeup-migrate",
        };
        let _ = writeln!(s, "fault {fault}");
        if !self.faults.is_none() {
            let _ = writeln!(s, "fault_seed {}", self.faults.seed);
            if let Some(l) = &self.faults.loss {
                let _ = writeln!(
                    s,
                    "fault_loss {} {} {}",
                    l.ppm,
                    l.rto.as_nanos(),
                    l.max_retries
                );
            }
            for w in &self.faults.degrade {
                let _ = writeln!(
                    s,
                    "fault_degrade {} {} {}",
                    w.from.as_nanos(),
                    w.to.as_nanos(),
                    w.factor
                );
            }
            for e in &self.faults.events {
                let kind = match e.kind {
                    NodeFault::Crash => "crash",
                    NodeFault::Drain => "drain",
                    NodeFault::Restart => "restart",
                };
                let _ = writeln!(s, "fault_node {kind} {} {}", e.node, e.at.as_nanos());
            }
        }
        match &self.workload {
            Workload::Mpi(m) => {
                let _ = writeln!(s, "workload mpi");
                let _ = writeln!(s, "ranks_per_node {}", m.ranks_per_node);
                let mode = match m.mode {
                    SchedMode::Cfs => "cfs".into(),
                    SchedMode::CfsNice { nice } => format!("cfs-nice:{nice}"),
                    SchedMode::Rt { prio } => format!("rt:{prio}"),
                    SchedMode::Hpc => "hpc".into(),
                    SchedMode::CfsPinned => "cfs-pinned".into(),
                };
                let _ = writeln!(s, "mode {mode}");
                for op in &m.ops {
                    let _ = writeln!(s, "op {}", op_to_text(op));
                }
            }
            Workload::Soup(soup) => {
                let _ = writeln!(s, "workload soup");
                for t in &soup.tasks {
                    let pol = policy_to_text(t.policy);
                    let pin = t.pin.map_or("-".into(), |c| c.to_string());
                    let steps: Vec<String> = t.steps.iter().map(step_to_text).collect();
                    let _ = writeln!(s, "task {pol} {pin} {}", steps.join(" "));
                }
            }
            Workload::Batch(b) => {
                let _ = writeln!(s, "workload batch");
                let policy = match b.policy {
                    BatchPolicyKind::Fcfs => "fcfs",
                    BatchPolicyKind::Easy => "easy",
                    BatchPolicyKind::Conservative => "conservative",
                    BatchPolicyKind::MultiQueue => "multiq",
                    BatchPolicyKind::FairShare => "fairshare",
                    BatchPolicyKind::Dfrs => "dfrs",
                };
                let _ = writeln!(s, "policy {policy}");
                if b.walltime {
                    let _ = writeln!(s, "walltime true");
                }
                if b.gang_epoch_us > 0 {
                    let _ = writeln!(s, "gang_epoch_us {}", b.gang_epoch_us);
                }
                match b.coord {
                    CoordKind::Off => {}
                    CoordKind::Kernel => {
                        let _ = writeln!(s, "coord kernel");
                    }
                    CoordKind::User => {
                        let _ = writeln!(s, "coord user");
                    }
                }
                for (j, w) in &b.job_weights {
                    let _ = writeln!(s, "jweight {j} {w}");
                }
                for j in &b.jobs {
                    let _ = writeln!(
                        s,
                        "bjob {} {} {} {} {} {} {} {} {} {}",
                        j.id,
                        j.submit_ns,
                        j.nodes,
                        j.ranks_per_node,
                        j.iters,
                        j.compute_ns,
                        j.bytes,
                        j.est_runtime_ns,
                        j.user,
                        j.class
                    );
                }
            }
        }
        s
    }

    /// Parse the replay artifact format. Returns a description of the
    /// first malformed line on error.
    pub fn from_text(text: &str) -> Result<Scenario, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some("torture-scenario v1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let mut sc = Scenario {
            seed: 0,
            nodes: 1,
            topo: TopoKind::Power6,
            switched: false,
            hpl: false,
            tickless: false,
            noise_pct: 0,
            irq: false,
            // Absent in pre-parallel artifacts; defaults to the
            // behaviour those artifacts were recorded under.
            parallel: false,
            fault: Fault::None,
            // Absent in pre-fault-layer artifacts; a healthy cluster.
            faults: FaultPlan::none(),
            workload: Workload::Soup(SoupSpec::default()),
        };
        let mut mpi: Option<MpiSpec> = None;
        let mut soup: Option<SoupSpec> = None;
        let mut batch: Option<BatchSpec> = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "seed" => sc.seed = parse_num(rest)?,
                "nodes" => sc.nodes = parse_num(rest)? as u32,
                "topo" => {
                    sc.topo = match rest {
                        "power6" => TopoKind::Power6,
                        s if s.starts_with("smp") => TopoKind::Smp(parse_num(&s[3..])? as u32),
                        s => return Err(format!("bad topo {s:?}")),
                    }
                }
                "switched" => sc.switched = parse_bool(rest)?,
                "hpl" => sc.hpl = parse_bool(rest)?,
                "tickless" => sc.tickless = parse_bool(rest)?,
                "noise_pct" => sc.noise_pct = parse_num(rest)? as u32,
                "irq" => sc.irq = parse_bool(rest)?,
                "parallel" => sc.parallel = parse_bool(rest)?,
                "fault" => {
                    sc.fault = match rest {
                        "none" => Fault::None,
                        "hpc-wakeup-migrate" => Fault::HpcWakeupMigrate,
                        s => return Err(format!("bad fault {s:?}")),
                    }
                }
                "fault_seed" => sc.faults.seed = parse_num(rest)?,
                "fault_loss" => {
                    let nums = rest
                        .split_whitespace()
                        .map(parse_num)
                        .collect::<Result<Vec<_>, _>>()?;
                    let [ppm, rto_ns, max_retries]: [u64; 3] = nums
                        .try_into()
                        .map_err(|_| format!("fault_loss needs 3 fields: {rest:?}"))?;
                    if ppm > 1_000_000 {
                        return Err(format!("fault_loss ppm {ppm} > 1000000"));
                    }
                    sc.faults.loss = Some(LossSpec {
                        ppm: ppm as u32,
                        rto: SimDuration::from_nanos(rto_ns),
                        max_retries: max_retries as u32,
                    });
                }
                "fault_degrade" => {
                    let nums = rest
                        .split_whitespace()
                        .map(parse_num)
                        .collect::<Result<Vec<_>, _>>()?;
                    let [from, to, factor]: [u64; 3] = nums
                        .try_into()
                        .map_err(|_| format!("fault_degrade needs 3 fields: {rest:?}"))?;
                    if from >= to || factor < 1 {
                        return Err(format!("fault_degrade: bad window {rest:?}"));
                    }
                    sc.faults.degrade.push(DegradeWindow {
                        from: SimTime::from_nanos(from),
                        to: SimTime::from_nanos(to),
                        factor: factor as u32,
                    });
                }
                "fault_node" => {
                    let mut parts = rest.split_whitespace();
                    let kind = match parts.next().ok_or("fault_node missing kind")? {
                        "crash" => NodeFault::Crash,
                        "drain" => NodeFault::Drain,
                        "restart" => NodeFault::Restart,
                        s => return Err(format!("bad fault_node kind {s:?}")),
                    };
                    let node = parse_num(parts.next().ok_or("fault_node missing node")?)? as usize;
                    let at = SimTime::from_nanos(parse_num(
                        parts.next().ok_or("fault_node missing time")?,
                    )?);
                    if parts.next().is_some() {
                        return Err(format!("fault_node: trailing tokens in {rest:?}"));
                    }
                    sc.faults.events.push(NodeEvent { at, node, kind });
                }
                "workload" => match rest {
                    "mpi" => {
                        mpi = Some(MpiSpec {
                            ranks_per_node: 1,
                            mode: SchedMode::Cfs,
                            ops: Vec::new(),
                        })
                    }
                    "soup" => soup = Some(SoupSpec::default()),
                    "batch" => {
                        batch = Some(BatchSpec {
                            policy: BatchPolicyKind::Fcfs,
                            walltime: false,
                            // Absent in pre-DFRS artifacts; gang off.
                            gang_epoch_us: 0,
                            // Absent in pre-coord artifacts; shares
                            // stay advisory and splits stay even.
                            coord: CoordKind::Off,
                            job_weights: Vec::new(),
                            jobs: Vec::new(),
                        })
                    }
                    s => return Err(format!("bad workload {s:?}")),
                },
                "policy" => {
                    batch
                        .as_mut()
                        .ok_or("policy outside batch workload")?
                        .policy = match rest {
                        "fcfs" => BatchPolicyKind::Fcfs,
                        "easy" => BatchPolicyKind::Easy,
                        "conservative" => BatchPolicyKind::Conservative,
                        "multiq" => BatchPolicyKind::MultiQueue,
                        "fairshare" => BatchPolicyKind::FairShare,
                        "dfrs" => BatchPolicyKind::Dfrs,
                        s => return Err(format!("bad batch policy {s:?}")),
                    };
                }
                "gang_epoch_us" => {
                    batch
                        .as_mut()
                        .ok_or("gang_epoch_us outside batch workload")?
                        .gang_epoch_us = parse_num(rest)?;
                }
                "coord" => {
                    batch.as_mut().ok_or("coord outside batch workload")?.coord = match rest {
                        "off" => CoordKind::Off,
                        "kernel" => CoordKind::Kernel,
                        "user" => CoordKind::User,
                        s => return Err(format!("bad coord {s:?}")),
                    };
                }
                "jweight" => {
                    let batch = batch.as_mut().ok_or("jweight outside batch workload")?;
                    let nums = rest
                        .split_whitespace()
                        .map(parse_num)
                        .collect::<Result<Vec<_>, _>>()?;
                    let [job, weight]: [u64; 2] = nums
                        .try_into()
                        .map_err(|_| format!("jweight needs 2 fields: {rest:?}"))?;
                    if weight == 0 {
                        return Err(format!("jweight for job {job} is zero"));
                    }
                    batch.job_weights.push((job as u32, weight as u32));
                }
                "walltime" => {
                    batch
                        .as_mut()
                        .ok_or("walltime outside batch workload")?
                        .walltime = match rest {
                        "true" => true,
                        "false" => false,
                        s => return Err(format!("bad walltime {s:?}")),
                    };
                }
                "bjob" => {
                    let batch = batch.as_mut().ok_or("bjob outside batch workload")?;
                    let mut nums = rest
                        .split_whitespace()
                        .map(parse_num)
                        .collect::<Result<Vec<_>, _>>()?;
                    // Pre-policy-zoo scenarios lack the trailing
                    // user/class pair; both default to 0.
                    if nums.len() == 8 {
                        nums.extend([0, 0]);
                    }
                    let [id, submit_ns, nodes, rpn, iters, compute_ns, bytes, est, user, class]:
                        [u64; 10] = nums
                        .try_into()
                        .map_err(|_| format!("bjob needs 8 or 10 fields: {rest:?}"))?;
                    if nodes == 0 || rpn == 0 || iters == 0 {
                        return Err(format!("bjob {id} has a zero dimension"));
                    }
                    batch.jobs.push(BatchJob {
                        id: id as u32,
                        submit_ns,
                        nodes: nodes as u32,
                        ranks_per_node: rpn as u32,
                        iters: iters as u32,
                        compute_ns,
                        bytes,
                        est_runtime_ns: est,
                        user: user as u32,
                        class: class as u32,
                    });
                }
                "ranks_per_node" => {
                    mpi.as_mut()
                        .ok_or("ranks_per_node outside mpi workload")?
                        .ranks_per_node = parse_num(rest)? as u32;
                }
                "mode" => {
                    mpi.as_mut().ok_or("mode outside mpi workload")?.mode = match rest {
                        "cfs" => SchedMode::Cfs,
                        "hpc" => SchedMode::Hpc,
                        "cfs-pinned" => SchedMode::CfsPinned,
                        s if s.starts_with("cfs-nice:") => SchedMode::CfsNice {
                            nice: parse_i8(&s[9..])?,
                        },
                        s if s.starts_with("rt:") => SchedMode::Rt {
                            prio: parse_num(&s[3..])? as u8,
                        },
                        s => return Err(format!("bad mode {s:?}")),
                    };
                }
                "op" => mpi
                    .as_mut()
                    .ok_or("op outside mpi workload")?
                    .ops
                    .push(op_from_text(rest)?),
                "task" => {
                    let soup = soup.as_mut().ok_or("task outside soup workload")?;
                    let mut parts = rest.split_whitespace();
                    let pol = policy_from_text(parts.next().ok_or("task missing policy")?)?;
                    let pin = match parts.next().ok_or("task missing pin")? {
                        "-" => None,
                        s => Some(parse_num(s)? as u32),
                    };
                    let steps = parts.map(step_from_text).collect::<Result<Vec<_>, _>>()?;
                    soup.tasks.push(SoupTask {
                        policy: pol,
                        pin,
                        steps,
                    });
                }
                k => return Err(format!("unknown key {k:?}")),
            }
        }
        sc.workload = match (mpi, soup, batch) {
            (Some(m), None, None) => Workload::Mpi(m),
            (None, Some(s), None) => Workload::Soup(s),
            (None, None, Some(b)) => Workload::Batch(b),
            _ => return Err("exactly one workload section required".into()),
        };
        Ok(sc)
    }
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

fn parse_i8(s: &str) -> Result<i8, String> {
    s.parse().map_err(|_| format!("bad i8 {s:?}"))
}

fn parse_bool(s: &str) -> Result<bool, String> {
    match s {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(format!("bad bool {s:?}")),
    }
}

fn op_to_text(op: &OpKind) -> String {
    match op {
        OpKind::Compute(ns) => format!("compute:{ns}"),
        OpKind::Barrier => "barrier".into(),
        OpKind::Allreduce(b) => format!("allreduce:{b}"),
        OpKind::Alltoall(b) => format!("alltoall:{b}"),
        OpKind::NeighborExchange(b) => format!("neighbor:{b}"),
        OpKind::Bcast(b) => format!("bcast:{b}"),
        OpKind::Reduce(b) => format!("reduce:{b}"),
    }
}

fn op_from_text(s: &str) -> Result<OpKind, String> {
    if s == "barrier" {
        return Ok(OpKind::Barrier);
    }
    let (kind, arg) = s.split_once(':').ok_or(format!("bad op {s:?}"))?;
    let n = parse_num(arg)?;
    Ok(match kind {
        "compute" => OpKind::Compute(n),
        "allreduce" => OpKind::Allreduce(n),
        "alltoall" => OpKind::Alltoall(n),
        "neighbor" => OpKind::NeighborExchange(n),
        "bcast" => OpKind::Bcast(n),
        "reduce" => OpKind::Reduce(n),
        k => return Err(format!("bad op kind {k:?}")),
    })
}

fn policy_to_text(p: Policy) -> String {
    match p {
        Policy::Normal { nice } => format!("normal:{nice}"),
        Policy::Batch { nice } => format!("batch:{nice}"),
        Policy::Fifo(p) => format!("fifo:{p}"),
        Policy::Rr(p) => format!("rr:{p}"),
        Policy::Hpc => "hpc".into(),
    }
}

fn policy_from_text(s: &str) -> Result<Policy, String> {
    if s == "hpc" {
        return Ok(Policy::Hpc);
    }
    let (kind, arg) = s.split_once(':').ok_or(format!("bad policy {s:?}"))?;
    Ok(match kind {
        "normal" => Policy::Normal {
            nice: parse_i8(arg)?,
        },
        "batch" => Policy::Batch {
            nice: parse_i8(arg)?,
        },
        "fifo" => Policy::Fifo(parse_num(arg)? as u8),
        "rr" => Policy::Rr(parse_num(arg)? as u8),
        k => return Err(format!("bad policy kind {k:?}")),
    })
}

fn step_to_text(s: &SoupStep) -> String {
    match s {
        SoupStep::Compute(ns) => format!("c:{ns}"),
        SoupStep::Sleep(ns) => format!("s:{ns}"),
        SoupStep::Notify { to } => format!("n:{to}"),
        SoupStep::Wait { from } => format!("w:{from}"),
        SoupStep::SpinWait { from, spin_ns } => format!("sw:{from}:{spin_ns}"),
        SoupStep::Barrier => "b".into(),
        SoupStep::ForkChild { ns } => format!("f:{ns}"),
        SoupStep::WaitChildren => "wc".into(),
        SoupStep::SetPolicy(p) => format!("sp:{}", policy_to_text(*p)),
    }
}

fn step_from_text(s: &str) -> Result<SoupStep, String> {
    match s {
        "b" => return Ok(SoupStep::Barrier),
        "wc" => return Ok(SoupStep::WaitChildren),
        _ => {}
    }
    let (kind, arg) = s.split_once(':').ok_or(format!("bad step {s:?}"))?;
    Ok(match kind {
        "c" => SoupStep::Compute(parse_num(arg)?),
        "s" => SoupStep::Sleep(parse_num(arg)?),
        "n" => SoupStep::Notify {
            to: parse_num(arg)? as u32,
        },
        "w" => SoupStep::Wait {
            from: parse_num(arg)? as u32,
        },
        "sw" => {
            let (from, spin) = arg.split_once(':').ok_or(format!("bad step {s:?}"))?;
            SoupStep::SpinWait {
                from: parse_num(from)? as u32,
                spin_ns: parse_num(spin)?,
            }
        }
        "f" => SoupStep::ForkChild {
            ns: parse_num(arg)?,
        },
        "sp" => SoupStep::SetPolicy(policy_from_text(arg)?),
        k => return Err(format!("bad step kind {k:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        for i in 0..20 {
            assert_eq!(Scenario::sample(0xABCD, i), Scenario::sample(0xABCD, i));
        }
    }

    /// Pins the sampler across builds: an FNV-1a digest of the text of
    /// the first 512 scenarios of two base seeds. A moved digest means
    /// the sampler (or the text form) changed, so old seeds no longer
    /// name the scenarios they named before.
    #[test]
    fn sampled_scenario_text_is_pinned() {
        for (base, want) in [
            (0xABCD_u64, 0x7fe4_c550_582d_472f_u64),
            (0x5EED, 0x7614_e01a_502e_f847),
        ] {
            let mut h: u64 = 0xcbf29ce484222325;
            for i in 0..512 {
                for b in Scenario::sample(base, i).to_text().bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
                }
            }
            assert_eq!(
                h, want,
                "sampler digest moved for base seed {base:#x}: {h:#018x}"
            );
        }
    }

    #[test]
    fn text_round_trips() {
        for i in 0..50 {
            let sc = Scenario::sample(0x5EED, i);
            let text = sc.to_text();
            let back = Scenario::from_text(&text)
                .unwrap_or_else(|e| panic!("scenario {i} failed to parse: {e}\n{text}"));
            assert_eq!(sc, back, "round-trip mismatch for scenario {i}");
        }
    }

    #[test]
    fn pre_parallel_artifacts_parse_with_parallel_off() {
        // Artifacts written before the `parallel` key existed must keep
        // replaying under the serial driver they were recorded with.
        let sc = Scenario::from_text("torture-scenario v1\nseed 3\nnodes 2\nworkload soup\n")
            .expect("legacy artifact parses");
        assert!(!sc.parallel);
    }

    #[test]
    fn parallel_is_sampled_only_on_multi_node_scenarios() {
        let mut seen_parallel = false;
        for i in 0..300 {
            let sc = Scenario::sample(0xBEEF, i);
            if sc.parallel {
                assert!(sc.nodes > 1, "parallel stepping needs a cluster");
                seen_parallel = true;
            }
        }
        assert!(seen_parallel, "sampler never exercises the parallel driver");
    }

    #[test]
    fn fault_plans_sample_only_where_they_are_survivable() {
        let mut seen_plan = false;
        let mut seen_crash = false;
        for i in 0..600 {
            let sc = Scenario::sample(0xFA17, i);
            if sc.faults.is_none() {
                continue;
            }
            seen_plan = true;
            assert!(sc.nodes > 1, "fault plans need a cluster");
            let crashes = sc
                .faults
                .events
                .iter()
                .any(|e| matches!(e.kind, NodeFault::Crash));
            if crashes {
                seen_crash = true;
                assert!(
                    matches!(sc.workload, Workload::Batch(_)),
                    "crash churn must ride on a batch workload"
                );
                assert!(sc.faults.has_restarts(), "every sampled crash is paired");
            }
        }
        assert!(seen_plan, "sampler never draws a fault plan");
        assert!(seen_crash, "sampler never draws crash churn");
    }

    #[test]
    fn fault_plan_keys_round_trip() {
        let mut sc = Scenario::sample(0x5EED, 0);
        sc.nodes = 3;
        sc.faults = FaultPlan::none()
            .with_seed(77)
            .with_loss(5_000, SimDuration::from_micros(40), 3)
            .degrade(SimTime::from_nanos(1_000), SimTime::from_nanos(9_000), 4)
            .crash(2, SimTime::from_nanos(5_000))
            .drain(1, SimTime::from_nanos(6_000))
            .restart(2, SimTime::from_nanos(7_000));
        let text = sc.to_text();
        let back = Scenario::from_text(&text).expect("faulted scenario parses");
        assert_eq!(back, sc);
        assert_eq!(back.to_text(), text);
        // Every sampled plan survives the keys byte-exactly (all fields
        // are integers, so no rounding). A plan that schedules nothing
        // writes no keys and reads back as the healthy default.
        for seed in 0..200u64 {
            for nodes in [1usize, 2, 4, 9] {
                sc.faults = FaultPlan::sample(seed, nodes);
                let text = sc.to_text();
                let back = Scenario::from_text(&text).unwrap_or_else(|e| {
                    panic!("seed {seed}: plan keys did not parse: {e}\n{text}")
                });
                if sc.faults.is_none() {
                    assert!(back.faults.is_none(), "seed {seed}: empty plan grew faults");
                    sc.faults = FaultPlan::none();
                }
                assert_eq!(back, sc, "seed {seed}: round-trip changed the plan");
                assert_eq!(
                    back.to_text(),
                    text,
                    "seed {seed}: re-serialisation differs"
                );
            }
        }
    }

    #[test]
    fn legacy_artifacts_default_to_a_healthy_cluster() {
        let sc = Scenario::from_text("torture-scenario v1\nseed 3\nnodes 2\nworkload soup\n")
            .expect("legacy artifact parses");
        assert!(sc.faults.is_none());
    }

    #[test]
    fn pre_coord_artifacts_default_to_advisory_shares() {
        // Artifacts written before the coordination keys existed must
        // replay with the advisory-share behaviour they were recorded
        // under: no coordinator, even splits.
        let sc = Scenario::from_text(
            "torture-scenario v1\nseed 3\nnodes 2\nworkload batch\n\
             policy dfrs\ngang_epoch_us 500\nbjob 0 0 1 1 1 500000 64 50000000 0 0\n",
        )
        .expect("legacy batch artifact parses");
        let Workload::Batch(b) = &sc.workload else {
            panic!("batch workload expected");
        };
        assert_eq!(b.coord, CoordKind::Off);
        assert!(b.job_weights.is_empty());
    }

    #[test]
    fn coord_keys_round_trip() {
        let mut sc = Scenario::sample(0x5EED, 0);
        sc.nodes = 2;
        sc.workload = Workload::Batch(BatchSpec {
            policy: BatchPolicyKind::Dfrs,
            walltime: false,
            gang_epoch_us: 500,
            coord: CoordKind::User,
            job_weights: vec![(0, 3), (1, 1)],
            jobs: vec![BatchJob {
                id: 0,
                submit_ns: 0,
                nodes: 1,
                ranks_per_node: 1,
                iters: 1,
                compute_ns: 500_000,
                bytes: 64,
                est_runtime_ns: 50_000_000,
                user: 0,
                class: 0,
            }],
        });
        let text = sc.to_text();
        let back = Scenario::from_text(&text).expect("coordinated scenario parses");
        assert_eq!(back, sc);
        assert_eq!(back.to_text(), text);
        assert!(Scenario::from_text(&text.replace("coord user", "coord bogus")).is_err());
        assert!(Scenario::from_text(&text.replace("jweight 0 3", "jweight 0 0")).is_err());
    }

    #[test]
    fn coordinators_ride_only_on_churn_free_dfrs_scenarios() {
        let (mut seen_kernel, mut seen_user, mut seen_weights) = (false, false, false);
        for i in 0..600 {
            let sc = Scenario::sample(0xC00D, i);
            let Workload::Batch(b) = &sc.workload else {
                continue;
            };
            if b.coord != CoordKind::Off || !b.job_weights.is_empty() {
                assert_eq!(
                    b.policy,
                    BatchPolicyKind::Dfrs,
                    "coordination rides only on the share-managing policy"
                );
            }
            if b.coord != CoordKind::Off {
                assert!(
                    sc.faults.events.is_empty(),
                    "node churn would orphan the coordinator"
                );
            }
            seen_kernel |= b.coord == CoordKind::Kernel;
            seen_user |= b.coord == CoordKind::User;
            seen_weights |= !b.job_weights.is_empty();
        }
        assert!(seen_kernel, "sampler never draws the kernel backend");
        assert!(seen_user, "sampler never draws the user-space backend");
        assert!(seen_weights, "sampler never skews the split");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Scenario::from_text("not a scenario").is_err());
        assert!(Scenario::from_text("torture-scenario v1\nbogus 1").is_err());
        assert!(Scenario::from_text("torture-scenario v1\nseed 1").is_err());
        // Fault keys: out-of-range and malformed plans, each next to a
        // well-formed neighbour so the rejection is the field's.
        let base = "torture-scenario v1\nseed 3\nnodes 2\nworkload soup\n";
        let parse = |line: &str| Scenario::from_text(&format!("{base}{line}\n"));
        assert!(parse("fault_loss 1000000 10 1").is_ok());
        assert!(parse("fault_loss 2000000 10 1").is_err(), "ppm above 10^6");
        assert!(parse("fault_degrade 1 10 2").is_ok());
        assert!(parse("fault_degrade 10 5 2").is_err(), "from after to");
        assert!(parse("fault_degrade 10 10 2").is_err(), "empty window");
        assert!(parse("fault_degrade 1 10 0").is_err(), "factor 0");
        assert!(parse("fault_node crash 1 5").is_ok());
        assert!(parse("fault_node crash 0 5 9").is_err(), "trailing tokens");
        assert!(parse("fault_node reboot 1 5").is_err(), "unknown kind");
    }

    #[test]
    fn soup_waits_reference_lower_indices() {
        for i in 0..200 {
            let sc = Scenario::sample(0xF00D, i);
            if let Workload::Soup(soup) = &sc.workload {
                for (ti, t) in soup.tasks.iter().enumerate() {
                    for s in &t.steps {
                        match s {
                            SoupStep::Wait { from } | SoupStep::SpinWait { from, .. } => {
                                assert!((*from as usize) < ti, "wait on higher index")
                            }
                            SoupStep::Notify { to } => {
                                assert!((*to as usize) > ti, "notify to lower index")
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }
}
