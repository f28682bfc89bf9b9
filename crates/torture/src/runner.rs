//! Scenario execution and the differential oracles.
//!
//! [`run_scenario`] materialises a [`Scenario`] into real kernel nodes
//! (or a lockstep [`Cluster`]), attaches one [`InvariantOracle`] per
//! node, runs the workload to completion and returns a [`RunReport`].
//! [`check_scenario`] is the full torture check: the scenario runs on
//! **both** event-loop flavours and the two runs must be bit-equal
//! (outcome, execution time, state fingerprint) on top of both being
//! invariant-clean and live. [`analytic_differential`] cross-checks the
//! mechanistic cluster against the analytic [`ResonanceModel`] on a
//! bulk-synchronous job where the model's assumptions hold.

use crate::oracle::{InvariantOracle, Violation};
use crate::scenario::{
    BatchPolicyKind, BatchSpec, CoordKind, Fault, OpKind, Scenario, SoupSpec, SoupStep, TopoKind,
    Workload,
};
use hpl_batch::{
    AllocPolicy, BatchRun, BatchTrace, CheckpointSpec, ConservativeBackfill, Dfrs, EasyBackfill,
    FairShare, Fcfs, MultiQueue,
};
use hpl_cluster::{
    Cluster, CosimConfig, EmpiricalDist, Interconnect, NetConfig, NodeFault, Placement,
    ResonanceModel,
};
use hpl_coord::CoordRuntime;
use hpl_core::HplClass;
use hpl_kernel::noise::{IrqSpec, NoiseProfile};
use hpl_kernel::program::ScriptProgram;
use hpl_kernel::{
    BarrierId, ChanId, KernelConfig, Node, NodeBuilder, ObserverId, Policy, RunOutcome, Step,
    TaskSpec, TaskState,
};
use hpl_mpi::launcher::APP_TAG;
use hpl_mpi::{launch, JobSpec, MpiOp, SchedMode};
use hpl_sim::{Rng, SimDuration, SimTime};
use hpl_topology::{CpuId, CpuMask, Topology};

/// Tag on all torture-soup tasks.
pub const TORTURE_TAG: u32 = 0x7047;

const CHAN_BASE: u64 = 8_000;
const BARRIER_ID: u64 = 9_000;
/// Per-node event budget; exceeding it is a liveness failure.
const EVENT_BUDGET: u64 = 60_000_000;
/// Noise warmup before the workload starts.
const WARMUP: SimDuration = SimDuration::from_millis(300);

/// Outcome of one scenario run on one event-loop flavour.
#[derive(Debug)]
pub struct RunReport {
    /// Did the workload complete within budget?
    pub outcome: RunOutcome,
    /// Workload execution time (ns); 0 when it never completed.
    pub exec_ns: u64,
    /// Scheduler-state hash at the end.
    pub fingerprint: u64,
    /// Events dispatched (loop-flavour dependent; not compared).
    pub events: u64,
    /// Invariant violations from every node's oracle, including the
    /// end-of-run conservation check.
    pub violations: Vec<Violation>,
    /// Chrome trace JSON, when requested.
    pub trace: Option<String>,
}

fn topology(kind: TopoKind) -> Topology {
    match kind {
        TopoKind::Smp(n) => Topology::smp(n),
        TopoKind::Power6 => Topology::power6_js22(),
    }
}

fn mpi_op(op: &OpKind) -> MpiOp {
    match *op {
        OpKind::Compute(ns) => MpiOp::Compute {
            mean: SimDuration::from_nanos(ns),
        },
        OpKind::Barrier => MpiOp::Barrier,
        OpKind::Allreduce(bytes) => MpiOp::Allreduce { bytes },
        OpKind::Alltoall(bytes) => MpiOp::Alltoall { bytes },
        OpKind::NeighborExchange(bytes) => MpiOp::NeighborExchange { bytes },
        OpKind::Bcast(bytes) => MpiOp::Bcast { bytes },
        OpKind::Reduce(bytes) => MpiOp::Reduce { bytes },
    }
}

fn build_node(sc: &Scenario, node_idx: u64, fast: bool) -> Node {
    let mut cfg = if sc.hpl {
        KernelConfig::hpl()
    } else {
        KernelConfig::default()
    };
    cfg.fast_event_loop = fast;
    cfg.tickless_single_hpc = sc.hpl && sc.tickless;
    // Batch scenarios may arm gang rotation; the cluster driver then
    // enrolls each job's local roots so co-resident jobs timeslice in
    // lockstep epochs instead of serialising under HPL run-to-block.
    if let Workload::Batch(b) = &sc.workload {
        if b.gang_epoch_us > 0 {
            cfg.gang_epoch = Some(SimDuration::from_micros(b.gang_epoch_us));
        }
    }
    let mut noise = if sc.noise_pct == 0 {
        NoiseProfile::quiet()
    } else {
        NoiseProfile::standard(sc.ncpus()).scaled(sc.noise_pct as f64 / 100.0)
    };
    if sc.irq {
        noise = noise.with_irq(IrqSpec {
            rate_hz: 250.0,
            cost: SimDuration::from_micros(5),
            affinity: CpuMask::single(CpuId(0)),
        });
    }
    let mut b = NodeBuilder::new(topology(sc.topo))
        .with_config(cfg)
        .with_noise(noise)
        .with_seed(Rng::for_run(sc.seed, node_idx).next_u64());
    if sc.hpl {
        let class = match sc.fault {
            Fault::None => HplClass::new(),
            Fault::HpcWakeupMigrate => HplClass::new().with_fault_wakeup_migrate(),
        };
        b = b.with_hpc_class(Box::new(class));
    }
    b.build()
}

/// Chan id carrying tokens from soup task `from` to soup task `to`.
fn soup_chan(from: u32, to: u32) -> ChanId {
    ChanId(CHAN_BASE + from as u64 * 64 + to as u64)
}

fn soup_driver_spec(soup: &SoupSpec) -> TaskSpec {
    let parties = soup.barrier_parties();
    let mut forks = Vec::new();
    for (i, t) in soup.tasks.iter().enumerate() {
        let mut steps = Vec::new();
        for s in &t.steps {
            steps.push(match *s {
                SoupStep::Compute(ns) => Step::Compute(SimDuration::from_nanos(ns)),
                SoupStep::Sleep(ns) => Step::Sleep(SimDuration::from_nanos(ns)),
                SoupStep::Notify { to } => Step::Notify {
                    chan: soup_chan(i as u32, to),
                    tokens: 1,
                },
                SoupStep::Wait { from } => Step::WaitChan(soup_chan(from, i as u32)),
                SoupStep::SpinWait { from, spin_ns } => Step::WaitChanSpin {
                    chan: soup_chan(from, i as u32),
                    spin_limit: SimDuration::from_nanos(spin_ns),
                },
                SoupStep::Barrier => Step::Barrier {
                    id: BarrierId(BARRIER_ID),
                    parties,
                },
                SoupStep::ForkChild { ns } => Step::Fork(
                    TaskSpec::new(
                        format!("soup{i}-child"),
                        Policy::Normal { nice: 0 },
                        ScriptProgram::boxed(
                            "soup-child",
                            vec![Step::Compute(SimDuration::from_nanos(ns)), Step::Exit],
                        ),
                    )
                    .with_tag(TORTURE_TAG),
                ),
                SoupStep::WaitChildren => Step::WaitChildren,
                SoupStep::SetPolicy(p) => Step::SetPolicy {
                    target: None,
                    policy: p,
                },
            });
        }
        steps.push(Step::Exit);
        let mut spec = TaskSpec::new(
            format!("soup{i}"),
            t.policy,
            ScriptProgram::boxed(format!("soup{i}"), steps),
        )
        .with_tag(TORTURE_TAG);
        if let Some(pin) = t.pin {
            spec = spec.with_affinity(CpuMask::single(CpuId(pin)));
        }
        forks.push(Step::Fork(spec));
    }
    forks.push(Step::WaitChildren);
    forks.push(Step::Exit);
    TaskSpec::new(
        "torture-driver",
        Policy::Normal { nice: 0 },
        ScriptProgram::boxed("torture-driver", forks),
    )
    .with_tag(TORTURE_TAG)
}

fn job_spec(sc: &Scenario) -> JobSpec {
    let Workload::Mpi(m) = &sc.workload else {
        panic!("job_spec on a soup scenario");
    };
    let ops: Vec<MpiOp> = m.ops.iter().map(mpi_op).collect();
    JobSpec::new(m.ranks_per_node * sc.nodes, ops).with_nodes(sc.nodes)
}

/// The `hpl-batch` policy a batch scenario names.
fn batch_policy(b: &BatchSpec, seed: u64) -> Box<dyn AllocPolicy> {
    match b.policy {
        BatchPolicyKind::Fcfs => Box::new(Fcfs),
        BatchPolicyKind::Easy => Box::new(EasyBackfill::new()),
        BatchPolicyKind::Conservative => Box::new(ConservativeBackfill::new()),
        BatchPolicyKind::MultiQueue => Box::new(MultiQueue::default()),
        BatchPolicyKind::FairShare => Box::new(FairShare::new()),
        BatchPolicyKind::Dfrs => Box::new(b.job_weights.iter().fold(
            Dfrs::new(SimDuration::from_millis(1), seed),
            |p, &(job, w)| p.with_job_weight(job, w),
        )),
    }
}

/// Drive a batch workload on the already-built cluster and translate
/// batch-level invariant breaches into oracle-style violations: node
/// occupancy above the policy's limit; any audited decision that broke
/// its policy's promise ([`AllocPolicy::audit`]: EASY backfills that
/// intrude on the head's reservation, conservative admissions that
/// delay an earlier reservation, fair-share dispatches that skip a
/// poorer user, DFRS reallocations that hand a node more than one CPU);
/// and, when walltime kills fired or the policy reallocates shares
/// (DFRS), any node still occupied after every job completed (a kill or
/// reallocation that leaked its nodes).
fn run_batch_workload(
    sc: &Scenario,
    b: &BatchSpec,
    cluster: &mut Cluster,
    budget: u64,
    violations: &mut Vec<Violation>,
) -> (RunOutcome, u64) {
    let trace = BatchTrace {
        jobs: b.jobs.clone(),
    };
    // Coordination runtime, when the scenario asks for one: the kernel
    // backend realises policy shares as weighted gang slices, the
    // user-space backend interposes a per-node arbiter daemon and rank
    // shims. Installed before any launch, like a real deployment.
    let mut coord = match b.coord {
        CoordKind::Off => None,
        CoordKind::Kernel | CoordKind::User => {
            // Slices are cut in units of the armed gang epoch; a
            // hand-edited artifact may leave the epoch off, so fall
            // back to the sampler's middle draw rather than divide a
            // zero-length period.
            let epoch = SimDuration::from_micros(if b.gang_epoch_us > 0 {
                b.gang_epoch_us
            } else {
                500
            });
            let mut c = if b.coord == CoordKind::Kernel {
                CoordRuntime::kernel_weighted(epoch)
            } else {
                CoordRuntime::user_space(epoch)
            };
            c.install(cluster);
            Some(c)
        }
    };
    let mode = if sc.hpl {
        SchedMode::Hpc
    } else {
        SchedMode::Cfs
    };
    let mut run = BatchRun::new(&trace).mode(mode).max_events(budget);
    // Under crash churn, give jobs a checkpoint cadence so a requeued
    // job resumes instead of recomputing — exercising the full
    // crash/requeue/restore path, not just the requeue.
    let crashes = sc
        .faults
        .events
        .iter()
        .any(|e| matches!(e.kind, NodeFault::Crash));
    if crashes {
        run = run.checkpoint(CheckpointSpec {
            every_iters: 1,
            cost: SimDuration::from_micros(200),
            restore: SimDuration::from_micros(500),
        });
    }
    if b.walltime {
        run = run.walltime(1.0);
    }
    let mut policy = batch_policy(b, sc.seed);
    let result = match &mut coord {
        Some(c) => run.run_coordinated(cluster, policy.as_mut(), c),
        None => run.run(cluster, policy.as_mut()),
    };
    // One audit contract for every policy; the tally covers decisions
    // the policy's audit ring has since dropped.
    let audit = policy.audit();
    if audit.violations > 0 {
        violations.push(Violation {
            at: cluster.node(0).now(),
            rule: "batch-audit",
            detail: format!(
                "{}: {} of {} audited decisions broke the policy's promise; first: {}",
                policy.name(),
                audit.violations,
                audit.checked,
                audit.first.unwrap_or_default()
            ),
        });
    }
    match result {
        Ok(report) => {
            if report.jobs_lost > 0 {
                violations.push(Violation {
                    at: cluster.node(0).now(),
                    rule: "batch-lost-job",
                    detail: format!(
                        "{} of {} jobs never completed ({} requeues) — a crash may \
                         delay a job, never lose it",
                        report.jobs_lost,
                        trace.jobs.len(),
                        report.requeues
                    ),
                });
            }
            if report.occupancy_violations > 0 {
                violations.push(Violation {
                    at: cluster.node(0).now(),
                    rule: "batch-occupancy",
                    detail: format!(
                        "{} allocation rounds exceeded the policy occupancy limit (peak {})",
                        report.occupancy_violations, report.max_node_occupancy
                    ),
                });
            }
            if report.jobs_killed > 0 || matches!(b.policy, BatchPolicyKind::Dfrs) {
                // A walltime kill — or a DFRS share reallocation over a
                // finished run — must fully release its nodes: with
                // every job completed or killed, no up node may still
                // hold a live task of any launched tree. Read from the
                // task tables, not the cluster's own occupancy record,
                // so the rule stays independent of the code it checks.
                for n in (0..cluster.len()).filter(|&n| !cluster.node_down(n)) {
                    let live = cluster
                        .node(n)
                        .tasks
                        .iter_live()
                        .filter(|t| t.state != TaskState::Dead)
                        .filter(|t| t.name == "perf" || t.tag == Some(APP_TAG))
                        .count();
                    if live > 0 {
                        violations.push(Violation {
                            at: cluster.node(0).now(),
                            rule: "batch-occupancy-leak",
                            detail: format!(
                                "node {n} still runs {live} job task(s) after all \
                                 {} jobs ended ({} killed)",
                                trace.jobs.len(),
                                report.jobs_killed
                            ),
                        });
                    }
                }
            }
            (RunOutcome::Completed, report.makespan.as_nanos())
        }
        Err(o) => (o, 0),
    }
}

/// Cross-node gang rules over the oracles' recorded switch streams.
/// With rotation unarmed the streams must be empty; under a dedicated
/// (one-job-per-node) policy an armed epoch must stay observably inert
/// — occupancy one means a node never hosts two gangs, so rotation can
/// never engage; and nodes that hosted the same gang set with the same
/// switch times (an identical co-resident history) must have switched
/// the same gang in every window, because the active gang is a pure
/// function of virtual time and the sorted gang set. Nodes whose
/// histories differ — a release landing on different sides of an epoch
/// boundary on different nodes is legal noise skew — fall into
/// different groups and are not compared.
fn check_gang_logs(b: &BatchSpec, logs: &[&[(u64, Option<u64>)]], violations: &mut Vec<Violation>) {
    if b.gang_epoch_us == 0 {
        for (n, log) in logs.iter().enumerate() {
            if let Some(&(at, active)) = log.first() {
                violations.push(Violation {
                    at: SimTime::from_nanos(at),
                    rule: "gang-unarmed",
                    detail: format!("node {n} switched gang {active:?} with no epoch configured"),
                });
            }
        }
        return;
    }
    if !matches!(b.policy, BatchPolicyKind::Dfrs) {
        for (n, log) in logs.iter().enumerate() {
            if let Some(&(at, active)) = log.iter().find(|(_, a)| a.is_some()) {
                violations.push(Violation {
                    at: SimTime::from_nanos(at),
                    rule: "gang-inert",
                    detail: format!(
                        "node {n} activated gang {active:?} under a one-job-per-node policy"
                    ),
                });
            }
        }
        return;
    }
    let mut groups: std::collections::BTreeMap<(Vec<u64>, Vec<u64>), Vec<usize>> =
        std::collections::BTreeMap::new();
    for (n, log) in logs.iter().enumerate() {
        let mut ids: Vec<u64> = log.iter().filter_map(|&(_, a)| a).collect();
        ids.sort_unstable();
        ids.dedup();
        let times: Vec<u64> = log.iter().map(|&(t, _)| t).collect();
        groups.entry((ids, times)).or_default().push(n);
    }
    for nodes in groups.values() {
        let first = &logs[nodes[0]];
        for &n in &nodes[1..] {
            if &logs[n] != first {
                let at = logs[n]
                    .iter()
                    .zip(first.iter())
                    .find(|(a, b)| a != b)
                    .map_or(0, |(a, _)| a.0);
                violations.push(Violation {
                    at: SimTime::from_nanos(at),
                    rule: "gang-alignment",
                    detail: format!(
                        "nodes {} and {n} host the same gang set with the same switch \
                         times but rotate different gangs",
                        nodes[0]
                    ),
                });
            }
        }
    }
}

/// Coordination rules over the oracles' weighted-slice and lease
/// streams.
///
/// Inertness first: weighted kernel slices exist only under a kernel
/// coordinator on the share-managing (DFRS) policy with rotation armed
/// — any other configuration must keep every node's slice stream
/// empty, and leases flow only from a user-space arbiter. Where slices
/// do flow, three geometric rules apply:
///
/// - **Epoch conservation**: a periodic pair of a steady two-gang
///   rotation (two full back-to-back periods with contiguous slices,
///   unchanged shares and repeating lengths) tiles the rotation period
///   exactly — `2 × epoch` for the two co-residents the DFRS occupancy
///   limit allows, to within the single nanosecond the rotated
///   remainder may move across period boundaries.
/// - **Monotonicity**: within such a pair, the larger share never gets
///   the shorter slice (beyond the remainder nanosecond).
/// - **Cross-node alignment**: nodes hosting the same gang set with
///   the same emission times must record identical streams — the slice
///   schedule is a pure function of the shared virtual clock and the
///   share table, so identical histories must yield identical cuts.
///
/// Engagement partials (rotation arming mid-period) and share-change
/// corrections break the periodicity guard — a one-off partial cannot
/// repeat at the same length one period later — and are skipped, not
/// excused: every steady interior pair is checked.
fn check_coord_logs(
    b: &BatchSpec,
    slice_logs: &[&[(u64, u64, u32, u64)]],
    leases: &[u64],
    violations: &mut Vec<Violation>,
) {
    let slices_armed = b.coord == CoordKind::Kernel
        && matches!(b.policy, BatchPolicyKind::Dfrs)
        && b.gang_epoch_us > 0;
    // Inertness only for leases: no positive "leases must flow" rule
    // here. Leases are demand-driven — a shim yields only while a
    // second gang is co-resident on its node, and whether two jobs ever
    // overlap is a scheduling outcome the spec cannot predict. Positive
    // lease coverage lives in the coord crate tests and the coord
    // bench, which construct guaranteed co-residency.
    for (n, &log) in slice_logs.iter().enumerate() {
        let slices = if slices_armed { &[][..] } else { log };
        let leases = if b.coord == CoordKind::User {
            0
        } else {
            leases[n]
        };
        check_uncoordinated(n, slices, leases, SimTime::ZERO, violations);
    }
    if !slices_armed {
        return;
    }
    let epoch_ns = b.gang_epoch_us * 1_000;
    let period = 2 * epoch_ns;
    for (n, log) in slice_logs.iter().enumerate() {
        for w in log.windows(2) {
            if w[1].0 < w[0].0 {
                violations.push(Violation {
                    at: SimTime::from_nanos(w[1].0),
                    rule: "slice-order",
                    detail: format!(
                        "node {n}: slice emissions regress in time ({} after {})",
                        w[1].0, w[0].0
                    ),
                });
            }
        }
        for w in log.windows(4) {
            let (a0, g0, s0, l0) = w[0];
            let (a1, g1, s1, l1) = w[1];
            let (a2, g2, s2, l2) = w[2];
            let (a3, g3, s3, l3) = w[3];
            // Steady two-gang rotation: two back-to-back periods with
            // contiguous slices, the same gang pair, unchanged shares
            // and repeating lengths. Anything else (engagement
            // partial, share-change correction, rotation teardown)
            // fails the guard — a correction's partial slice is
            // contiguous and may even carry an unchanged share value,
            // but it cannot repeat at the same length one period
            // later.
            let steady = a1 == a0 + l0
                && a2 == a1 + l1
                && a3 == a2 + l2
                && g0 != g1
                && (g2, g3) == (g0, g1)
                && (s2, s3) == (s0, s1)
                && (l2, l3) == (l0, l1);
            if !steady {
                continue;
            }
            if (l0 + l1).abs_diff(period) > 1 {
                violations.push(Violation {
                    at: SimTime::from_nanos(a0),
                    rule: "slice-conservation",
                    detail: format!(
                        "node {n}: slices {l0}ns + {l1}ns of gangs {g0}/{g1} do not tile \
                         the {period}ns rotation period"
                    ),
                });
            }
            if (s0 >= s1 && l0 + 1 < l1) || (s1 >= s0 && l1 + 1 < l0) {
                violations.push(Violation {
                    at: SimTime::from_nanos(a0),
                    rule: "slice-monotone",
                    detail: format!(
                        "node {n}: share {s0} got {l0}ns but share {s1} got {l1}ns \
                         (gangs {g0}/{g1})"
                    ),
                });
            }
        }
    }
    // Cross-node alignment, exactly as for the gang switch streams:
    // nodes with an identical (gang set, emission times) history must
    // have cut identical slices.
    let mut groups: std::collections::BTreeMap<(Vec<u64>, Vec<u64>), Vec<usize>> =
        std::collections::BTreeMap::new();
    for (n, log) in slice_logs.iter().enumerate() {
        let mut ids: Vec<u64> = log.iter().map(|&(_, g, _, _)| g).collect();
        ids.sort_unstable();
        ids.dedup();
        let times: Vec<u64> = log.iter().map(|&(t, _, _, _)| t).collect();
        groups.entry((ids, times)).or_default().push(n);
    }
    for nodes in groups.values() {
        let first = &slice_logs[nodes[0]];
        for &n in &nodes[1..] {
            if &slice_logs[n] != first {
                let at = slice_logs[n]
                    .iter()
                    .zip(first.iter())
                    .find(|(a, b)| a != b)
                    .map_or(0, |(a, _)| a.0);
                violations.push(Violation {
                    at: SimTime::from_nanos(at),
                    rule: "slice-alignment",
                    detail: format!(
                        "nodes {} and {n} host the same gang set with the same emission \
                         times but cut different slices",
                        nodes[0]
                    ),
                });
            }
        }
    }
}

/// Run `sc` once on the given event-loop flavour, invariant oracles
/// attached to every node. `with_trace` additionally captures a Chrome
/// trace of the run (for failure artifacts).
pub fn run_scenario(sc: &Scenario, fast: bool, with_trace: bool) -> RunReport {
    // Batch workloads always go through the cluster path: the batch
    // engine drives a `Cluster` even when it has a single node.
    if sc.nodes == 1 && !matches!(sc.workload, Workload::Batch(_)) {
        run_single(sc, fast, with_trace)
    } else {
        run_cluster(sc, fast, with_trace)
    }
}

fn attach_oracle(node: &mut Node, min_alpha: Option<SimDuration>) -> ObserverId {
    let mut oracle = InvariantOracle::for_node(node);
    if let Some(a) = min_alpha {
        oracle = oracle.with_min_net_latency(a);
    }
    node.attach_observer(Box::new(oracle))
}

/// Detach the oracle [`attach_oracle`] put on `node` and run its
/// end-of-run checks. `None` when the node no longer carries it: a
/// crashed node restarts from its recipe, without the oracle.
fn harvest(node: &mut Node, id: ObserverId) -> Option<InvariantOracle> {
    // Split borrow: `finish` reads the node, so the oracle leaves it
    // first, a blank one taking its slot.
    let mut oracle = node
        .observer_mut::<InvariantOracle>(id)
        .map(|o| std::mem::replace(o, InvariantOracle::for_node_empty()))?;
    oracle.finish(node);
    Some(oracle)
}

/// Where no coordinator of the kind runs, node `n`'s weighted slices
/// (kernel coordinator) and arbiter leases (user-space arbiter) must
/// both be wholly absent: `slices` is its slice stream and `leases` its
/// lease count, a lease violation reported at `now`.
fn check_uncoordinated(
    n: usize,
    slices: &[(u64, u64, u32, u64)],
    leases: u64,
    now: SimTime,
    violations: &mut Vec<Violation>,
) {
    if let Some(&(at, gang, ..)) = slices.first() {
        violations.push(Violation {
            at: SimTime::from_nanos(at),
            rule: "slice-inert",
            detail: format!("node {n} sliced gang {gang} with no coordinator"),
        });
    }
    if leases > 0 {
        violations.push(Violation {
            at: now,
            rule: "lease-inert",
            detail: format!("node {n} granted {leases} lease(s) with no arbiter"),
        });
    }
}

fn run_single(sc: &Scenario, fast: bool, with_trace: bool) -> RunReport {
    let mut node = build_node(sc, 0, fast);
    let oracle_id = attach_oracle(&mut node, None);
    if with_trace {
        node.enable_trace(200_000);
    }
    node.run_for(WARMUP);
    let (outcome, exec_ns) = match &sc.workload {
        Workload::Soup(soup) => {
            let started = node.now();
            let driver = node.spawn(soup_driver_spec(soup));
            let outcome = node.run_until_exit(driver, EVENT_BUDGET);
            let exec = if outcome.is_complete() {
                node.now().since(started).as_nanos()
            } else {
                0
            };
            (outcome, exec)
        }
        Workload::Mpi(m) => {
            let handle = launch(&mut node, &job_spec(sc), m.mode);
            match handle.try_run_to_completion(&mut node, EVENT_BUDGET) {
                Ok(exec) => (RunOutcome::Completed, exec.as_nanos()),
                Err(outcome) => (outcome, 0),
            }
        }
        Workload::Batch(_) => unreachable!("batch workloads run on the cluster path"),
    };
    // No coordinator exists on the single-node path.
    let mut violations = Vec::new();
    if let Some(oracle) = harvest(&mut node, oracle_id) {
        violations.extend_from_slice(oracle.violations());
        let now = node.now();
        check_uncoordinated(0, oracle.slice_log(), oracle.leases(), now, &mut violations);
    }
    let trace = node.export_chrome_trace();
    RunReport {
        outcome,
        exec_ns,
        fingerprint: node.state_fingerprint(),
        events: node.events_processed(),
        violations,
        trace,
    }
}

fn run_cluster(sc: &Scenario, fast: bool, with_trace: bool) -> RunReport {
    let net_cfg = NetConfig::default();
    let alpha = net_cfg.alpha;
    let fabric = if sc.switched {
        Interconnect::switched(sc.nodes as usize, net_cfg)
    } else {
        Interconnect::flat(sc.nodes as usize, net_cfg)
    };
    // Parallel scenarios force at least two stepping threads and a
    // minimal density threshold, so the pool genuinely crosses host
    // threads even on small clusters and single-core CI hosts — the
    // point is torturing the parallel driver, not going fast.
    let cosim = if sc.parallel {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        CosimConfig::parallel()
            .with_threads(host.max(2))
            .with_min_active(2)
    } else {
        CosimConfig::serial()
    };
    // Nodes come from a factory (not a pre-built Vec) so a fault plan's
    // restart events can rebuild a crashed node from the same recipe.
    let factory_sc = sc.clone();
    let mut cluster = Cluster::builder()
        .nodes_with(sc.nodes as usize, move |i| {
            build_node(&factory_sc, i as u64, fast)
        })
        .fabric(fabric)
        .cosim(cosim)
        .faults(sc.faults.clone())
        .build();
    let mut oracle_ids = Vec::new();
    for i in 0..sc.nodes as usize {
        let node = cluster.node_mut(i);
        oracle_ids.push(attach_oracle(node, Some(alpha)));
        if with_trace {
            node.enable_trace(200_000);
        }
        node.run_for(WARMUP);
    }
    let budget = EVENT_BUDGET * sc.nodes as u64;
    let mut batch_violations = Vec::new();
    let (outcome, exec_ns) = match &sc.workload {
        Workload::Mpi(m) => {
            let handle = cluster.launch(&job_spec(sc), m.mode, Placement::All);
            match cluster.try_run_to_completion(&handle, budget) {
                Ok(exec) => (RunOutcome::Completed, exec.as_nanos()),
                Err(o) => (o, 0),
            }
        }
        Workload::Batch(b) => {
            run_batch_workload(sc, b, &mut cluster, budget, &mut batch_violations)
        }
        Workload::Soup(_) => panic!("multi-node scenarios cannot run a soup"),
    };
    let mut violations = batch_violations;
    let mut oracles = Vec::new();
    for (i, &id) in oracle_ids.iter().enumerate() {
        let oracle = harvest(cluster.node_mut(i), id);
        for v in oracle.iter().flat_map(|o| o.violations()) {
            violations.push(Violation {
                at: v.at,
                rule: v.rule,
                detail: format!("node{i}: {}", v.detail),
            });
        }
        oracles.push(oracle);
    }
    match &sc.workload {
        Workload::Batch(b) => {
            let gang_logs: Vec<&[_]> = oracles
                .iter()
                .map(|o| o.as_ref().map_or(&[][..], |o| o.gang_log()))
                .collect();
            let slice_logs: Vec<&[_]> = oracles
                .iter()
                .map(|o| o.as_ref().map_or(&[][..], |o| o.slice_log()))
                .collect();
            let leases: Vec<u64> = oracles
                .iter()
                .map(|o| o.as_ref().map_or(0, |o| o.leases()))
                .collect();
            check_gang_logs(b, &gang_logs, &mut violations);
            check_coord_logs(b, &slice_logs, &leases, &mut violations);
        }
        // No coordinator outside batch workloads.
        _ => {
            let now = cluster.node(0).now();
            for (n, o) in oracles.iter().enumerate() {
                if let Some(o) = o {
                    check_uncoordinated(n, o.slice_log(), o.leases(), now, &mut violations);
                }
            }
        }
    }
    let trace = cluster.export_chrome_trace();
    RunReport {
        outcome,
        exec_ns,
        fingerprint: cluster.state_fingerprint(),
        events: cluster.events_processed(),
        violations,
        trace,
    }
}

/// One reason a scenario failed its checks.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Stable category: `invariant`, `liveness` or `divergence`.
    pub kind: &'static str,
    /// Specifics.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// The full torture check for one scenario: run it on the reference and
/// fast event loops, demand zero invariant violations, completion on
/// both, and bit-equal end states across the two flavours.
pub fn check_scenario(sc: &Scenario) -> Vec<Failure> {
    let mut failures = Vec::new();
    let r = run_scenario(sc, false, false);
    let f = run_scenario(sc, true, false);
    for (label, rep) in [("ref", &r), ("fast", &f)] {
        for v in &rep.violations {
            failures.push(Failure {
                kind: "invariant",
                detail: format!("[{label}] {v}"),
            });
        }
        if !rep.outcome.is_complete() {
            failures.push(Failure {
                kind: "liveness",
                detail: format!("[{label}] workload ended {}", rep.outcome.label()),
            });
        }
    }
    if r.outcome.is_complete() && f.outcome.is_complete() {
        if r.fingerprint != f.fingerprint {
            failures.push(Failure {
                kind: "divergence",
                detail: format!(
                    "state fingerprint ref {:#x} vs fast {:#x}",
                    r.fingerprint, f.fingerprint
                ),
            });
        }
        if r.exec_ns != f.exec_ns {
            failures.push(Failure {
                kind: "divergence",
                detail: format!("exec time ref {}ns vs fast {}ns", r.exec_ns, f.exec_ns),
            });
        }
    }
    // Third leg for parallel scenarios: the same scenario under the
    // serial driver must be bit-equal to the pooled run — host-thread
    // scheduling is not allowed to leak into simulated state.
    if sc.parallel {
        let mut serial_sc = sc.clone();
        serial_sc.parallel = false;
        let s = run_scenario(&serial_sc, true, false);
        if !s.outcome.is_complete() {
            failures.push(Failure {
                kind: "liveness",
                detail: format!("[serial] workload ended {}", s.outcome.label()),
            });
        }
        if s.outcome.is_complete() && f.outcome.is_complete() {
            if s.fingerprint != f.fingerprint {
                failures.push(Failure {
                    kind: "divergence",
                    detail: format!(
                        "state fingerprint serial {:#x} vs parallel {:#x}",
                        s.fingerprint, f.fingerprint
                    ),
                });
            }
            if s.exec_ns != f.exec_ns {
                failures.push(Failure {
                    kind: "divergence",
                    detail: format!(
                        "exec time serial {}ns vs parallel {}ns",
                        s.exec_ns, f.exec_ns
                    ),
                });
            }
        }
    }
    failures
}

// ---------------------------------------------------------------------
// Analytic differential
// ---------------------------------------------------------------------

const AN_RANKS: u32 = 4;
const AN_ITERS: u32 = 8;

fn analytic_job(nodes: u32) -> JobSpec {
    JobSpec::new(
        nodes * AN_RANKS,
        JobSpec::repeat(
            AN_ITERS,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(2),
                },
                MpiOp::Allreduce { bytes: 8 },
            ],
        ),
    )
    .with_nodes(nodes)
}

fn analytic_cluster(nodes: u32, seed: u64, fast: bool) -> Cluster {
    let sc = Scenario {
        seed,
        nodes,
        topo: TopoKind::Power6,
        switched: false,
        hpl: true,
        tickless: false,
        noise_pct: 100,
        irq: false,
        parallel: false,
        fault: Fault::None,
        faults: hpl_cluster::FaultPlan::none(),
        workload: Workload::Soup(SoupSpec::default()), // unused
    };
    let cfg = NetConfig {
        alpha: SimDuration::from_micros(1),
        beta_ns_per_byte: 0.1,
    };
    Cluster::builder()
        .nodes_with(nodes as usize, move |i| build_node(&sc, i as u64, fast))
        .fabric(Interconnect::flat(nodes as usize, cfg))
        .build()
}

/// Per-phase durations on an N-node mechanistic run under the HPL
/// scheduler, watched on node 0's per-phase barrier. First iteration
/// (launch skew) and the finalize sample are dropped, mirroring
/// `tests/cluster.rs`.
fn mechanistic_phases(nodes: u32, seed: u64, reps: u64, fast: bool) -> Result<Vec<f64>, Failure> {
    let mut samples = Vec::new();
    for rep in 0..reps {
        let mut cluster = analytic_cluster(nodes, seed ^ (rep << 24), fast);
        for i in 0..nodes as usize {
            cluster.node_mut(i).run_for(WARMUP);
        }
        let job = analytic_job(nodes);
        let barrier = if nodes == 1 {
            job.barrier_id()
        } else {
            job.local_barrier_id(0)
        };
        let handle = cluster.launch(&job, SchedMode::Hpc, Placement::All);
        let mut rep_samples = Vec::new();
        let mut last_gen = cluster.node(0).sync.barrier_generation(barrier);
        let mut last_t = cluster.node(0).now();
        let mut guard = 0u64;
        while !cluster.job_done(&handle) {
            if !cluster.step_window() || guard > EVENT_BUDGET {
                return Err(Failure {
                    kind: "liveness",
                    detail: format!("analytic probe deadlocked at N={nodes}"),
                });
            }
            guard += 1;
            let gen = cluster.node(0).sync.barrier_generation(barrier);
            if gen > last_gen {
                if last_gen > 0 {
                    rep_samples.push(cluster.node(0).now().since(last_t).as_secs_f64());
                }
                last_gen = gen;
                last_t = cluster.node(0).now();
            }
        }
        rep_samples.truncate(AN_ITERS as usize);
        if !rep_samples.is_empty() {
            rep_samples.remove(0);
        }
        samples.extend(rep_samples);
    }
    Ok(samples)
}

/// Differential oracle 2: the mechanistic co-simulation must land on
/// the analytic resonance model's expected-max prediction within
/// `tol` at small N, where the model's independence assumptions hold
/// (HPL scheduling, tiny flat-fabric messages). Returns the failures
/// found (empty = agreement).
pub fn analytic_differential(seed: u64, tol: f64) -> Vec<Failure> {
    let mut failures = Vec::new();
    let base = match mechanistic_phases(1, seed, 4, false) {
        Ok(b) => b,
        Err(f) => return vec![f],
    };
    let Ok(dist) = EmpiricalDist::try_new(base.clone()) else {
        return vec![Failure {
            kind: "divergence",
            detail: "single-node probe produced no phase samples".into(),
        }];
    };
    let model = ResonanceModel::new(dist, AN_ITERS);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    for nodes in [2u32, 4] {
        let mech = match mechanistic_phases(nodes, seed, 2, true) {
            Ok(p) if !p.is_empty() => mean(&p),
            Ok(_) => {
                failures.push(Failure {
                    kind: "divergence",
                    detail: format!("no mechanistic phases at N={nodes}"),
                });
                continue;
            }
            Err(f) => {
                failures.push(f);
                continue;
            }
        };
        let analytic = model.expected_time_analytic(nodes) / AN_ITERS as f64;
        let rel = (mech - analytic).abs() / analytic;
        if rel > tol {
            failures.push(Failure {
                kind: "divergence",
                detail: format!(
                    "N={nodes}: mechanistic phase {mech:.6}s vs analytic {analytic:.6}s (rel {rel:.3} > {tol})"
                ),
            });
        }
    }
    failures
}

/// Debug aid: run a single-node scenario with an extra observer
/// attached before the oracle (event-dump sinks, ad-hoc probes).
#[doc(hidden)]
pub fn debug_run_single(sc: &Scenario, fast: bool, extra: Box<dyn hpl_kernel::SchedObserver>) {
    assert_eq!(sc.nodes, 1, "debug_run_single is single-node only");
    let mut node = build_node(sc, 0, fast);
    node.attach_observer(extra);
    let oracle_id = attach_oracle(&mut node, None);
    node.run_for(WARMUP);
    match &sc.workload {
        Workload::Soup(soup) => {
            let driver = node.spawn(soup_driver_spec(soup));
            let _ = node.run_until_exit(driver, EVENT_BUDGET);
        }
        Workload::Mpi(m) => {
            let handle = launch(&mut node, &job_spec(sc), m.mode);
            let _ = handle.try_run_to_completion(&mut node, EVENT_BUDGET);
        }
        Workload::Batch(_) => panic!("debug_run_single cannot run batch workloads"),
    }
    for v in harvest(&mut node, oracle_id)
        .iter()
        .flat_map(|o| o.violations())
    {
        eprintln!("violation: {v}");
    }
}
