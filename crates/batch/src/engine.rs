//! The job lifecycle engine: submit → queued → allocated → running →
//! completed (or failed → requeued), advanced inside the cosim event
//! loop.
//!
//! [`BatchRun`] owns the whole run: it replays a [`BatchTrace`] against
//! a [`Cluster`], stepping it one lockstep window at a time and running
//! a decision pass — walltime kills, harvest, admission, the
//! [`AllocPolicy::select`] loop, [`AllocPolicy::share_update`] and the
//! occupancy audit — only at **decision points**: the first window
//! boundary at or after
//!
//! * an arrival comes due,
//! * a job's launcher tree exits on any node (a multi-node job frees
//!   its nodes one tree at a time, and a narrow job may start on the
//!   first freed node in that same window),
//! * a walltime deadline passes,
//! * a node fault (crash, drain, restart) is applied, or
//! * the policy's own time trigger fires ([`AllocPolicy::next_decision`]).
//!
//! The cluster publishes monotone tree-exit and fault counters
//! ([`Cluster::tree_exits`], [`Cluster::faults_applied`]) that the engine
//! compares once per window; these, the clock ([`Cluster::clock`]) and
//! the hang budget's event count ([`Cluster::events_dispatched`]) are
//! kept by the cluster as it steps, so a window costs the engine no pass
//! over the nodes. At every window in between, a pass would
//! find nothing to do — that is the `next_decision` contract — so the
//! report is bit-identical to deciding at every window. Arrivals,
//! allocation decisions, completions and fault handling are all
//! functions of virtual time and seeded state, so a batch run is exactly
//! as deterministic as the underlying co-simulation — the same
//! `(cluster seed, fault plan, trace, policy)` tuple produces the same
//! [`BatchReport`] bit for bit, on both event-loop flavours.
//!
//! Decision points are quantised to lockstep windows (a few µs, the
//! interconnect lookahead), the cluster-level analogue of a real batch
//! scheduler's event granularity.
//!
//! ## Failure semantics
//!
//! When a node crash (see `hpl_cluster::FaultPlan`) kills a running
//! job, the engine requeues it at the tail of the queue — the job loses
//! its position, the standard cluster-manager default — keeping its
//! original submit time so wait and slowdown measure the full sojourn.
//! With [`BatchRun::checkpoint`] set, jobs write periodic
//! checkpoints and a requeued job restarts from the last checkpoint
//! every surviving node committed (plus a restore penalty) instead of
//! from scratch.

use crate::policy::{AllocPolicy, ClusterView, QueuedJob, RunningJob};
use crate::trace::{BatchJob, BatchTrace};
use hpl_cluster::{Cluster, ClusterJobHandle, JobCoordinator, Placement};
use hpl_kernel::{RunOutcome, SchedEvent};
use hpl_mpi::{JobSpec, MpiOp, SchedMode};
use hpl_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Periodic checkpointing for batch jobs (see [`BatchRun::checkpoint`]).
///
/// Every `every_iters` iterations each rank quiesces, writes its state
/// (`cost` of compute per rank) and commits at a per-node checkpoint
/// barrier. A job requeued after a crash restarts from the last
/// checkpoint committed by **every surviving node** (the consistent
/// cut), paying `restore` once, instead of recomputing from iteration
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint interval in job iterations (≥ 1).
    pub every_iters: u32,
    /// Per-rank cost of writing one checkpoint.
    pub cost: SimDuration,
    /// One-time per-rank cost of restoring from a checkpoint on
    /// restart.
    pub restore: SimDuration,
}

/// Bounded-slowdown runtime floor τ: slowdown =
/// max((wait + run) / max(run, τ), 1). The standard guard against tiny
/// jobs dominating the mean; τ = 1 ms suits ms-scale jobs.
const SLOWDOWN_TAU: SimDuration = SimDuration::from_millis(1);

/// Engine knobs, set through [`BatchRun`]'s builder methods.
#[derive(Debug)]
pub(crate) struct BatchConfig {
    /// OS-level scheduling mode every job launches under (the CFS-vs-HPL
    /// axis of the two-level study).
    mode: SchedMode,
    /// Cluster-wide dispatched-event budget (hang guard).
    max_events: u64,
    /// Periodic checkpoint/restart for every job; `None` (the default)
    /// means failed jobs recompute from scratch.
    checkpoint: Option<CheckpointSpec>,
    /// Walltime kill factor ([`BatchRun::walltime`]); `None` (the
    /// default) never kills, which preserves every pre-existing run bit
    /// for bit.
    walltime_factor: Option<f64>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            mode: SchedMode::Hpc,
            max_events: 600_000_000,
            checkpoint: None,
            walltime_factor: None,
        }
    }
}

/// Per-job result row.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Trace id.
    pub id: u32,
    /// Nodes it ran on.
    pub nodes: u32,
    /// Submission time (batch epoch + trace offset).
    pub submitted: SimTime,
    /// Launch time.
    pub started: SimTime,
    /// Time the last launcher tree exited (nodes released).
    pub ended: SimTime,
    /// Queue wait (`started - submitted`).
    pub wait: SimDuration,
    /// Node-occupancy time (`ended - started`).
    pub run: SimDuration,
    /// Bounded slowdown `max((wait + run) / max(run, 1 ms), 1)`.
    pub bounded_slowdown: f64,
    /// Times this job was requeued after a node crash before it
    /// finally completed.
    pub requeues: u32,
    /// Submitting user (trace field; fair-share key).
    pub user: u32,
    /// True iff the job was killed at its walltime limit
    /// ([`BatchRun::walltime`]) instead of completing.
    pub killed: bool,
}

/// Everything a batch run produced. `PartialEq` so determinism tests
/// can demand bit-identical reports across repeated runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Policy name.
    pub policy: &'static str,
    /// Per-job rows, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// First submit → last completion.
    pub makespan: SimDuration,
    /// Busy-node time over capacity: the union of each node's job-
    /// occupancy intervals, summed over nodes, divided by
    /// (cluster nodes × makespan). A node hosting two co-resident jobs
    /// (Oversubscribed/DFRS) counts its wall-clock time once, so the
    /// figure never exceeds 1.0 by double-counting node-seconds.
    pub utilization: f64,
    /// Mean queue wait over all jobs.
    pub mean_wait: SimDuration,
    /// Mean bounded slowdown over all jobs.
    pub mean_bounded_slowdown: f64,
    /// Deepest the queue ever got.
    pub max_queue_depth: u32,
    /// Highest concurrent-job count observed on any node.
    pub max_node_occupancy: u32,
    /// Decision points at which some node exceeded the policy's
    /// occupancy limit (must be 0; the torture oracle checks it).
    /// Occupancy only rises at a launch, and launches happen only at
    /// decision points, so auditing there sees every peak; a violation
    /// is counted once per decision point it persists through, not per
    /// window.
    pub occupancy_violations: u64,
    /// Total crash-triggered requeues across all jobs.
    pub requeues: u64,
    /// Jobs that never completed (must be 0 on an `Ok` report: every
    /// submitted job either finishes or is requeued until it does; the
    /// torture oracle checks it).
    pub jobs_lost: u64,
    /// Jobs killed at their walltime limit (0 unless
    /// [`BatchRun::walltime`] is set).
    pub jobs_killed: u64,
    /// Per-user wait/slowdown breakdown, ascending by user id. Empty
    /// only if the trace was empty.
    pub user_stats: Vec<UserStats>,
    /// Cluster scheduler-state fingerprint at completion, for
    /// cross-event-loop differential checks.
    pub fingerprint: u64,
}

/// Per-user aggregate over a report's outcomes — the fairness lens:
/// fair-share should narrow the spread of `mean_bounded_slowdown`
/// across users relative to FCFS on the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct UserStats {
    /// User id (trace field).
    pub user: u32,
    /// Jobs this user completed (killed ones included).
    pub jobs: u32,
    /// Of those, jobs killed at their walltime limit.
    pub killed: u32,
    /// Mean queue wait over the user's jobs.
    pub mean_wait: SimDuration,
    /// Mean bounded slowdown over the user's jobs.
    pub mean_bounded_slowdown: f64,
}

impl BatchReport {
    /// Max per-job bounded slowdown.
    pub fn max_bounded_slowdown(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.bounded_slowdown)
            .fold(1.0, f64::max)
    }
}

/// Reserved ids below the first job's channel range (keeps clear of the
/// default `id_base = 0` used by standalone launches during warmup).
const ID_BASE_START: u64 = 10_000;
/// Safety gap between consecutive jobs' id ranges.
const ID_GAP: u64 = 16;

/// A queued job plus its crash-recovery state: how many leading
/// iterations the next launch may skip (covered by committed
/// checkpoints) and how often it has been requeued.
struct Queued {
    job: BatchJob,
    submitted: SimTime,
    skip_iters: u32,
    requeues: u32,
}

impl Queued {
    fn view(&self) -> QueuedJob {
        QueuedJob {
            id: self.job.id,
            nodes: self.job.nodes,
            submitted: self.submitted,
            est_runtime: self.job.est_runtime(),
            user: self.job.user,
            class: self.job.class,
        }
    }
}

struct Running {
    job: BatchJob,
    spec: JobSpec,
    handle: ClusterJobHandle,
    submitted: SimTime,
    started: SimTime,
    skip_iters: u32,
    requeues: u32,
    killed: bool,
}

/// Build the MPI program for one launch attempt. With `ckpt` set, a
/// checkpoint op follows every `every_iters`-th iteration except the
/// last (finishing *is* the commit); `skip_iters` leading iterations
/// are replaced by a single restore compute when recovering. With
/// `ckpt = None` and `skip_iters = 0` this emits exactly the
/// pre-fault-era op list, so existing runs are untouched bit for bit.
fn job_spec(j: &BatchJob, id_base: u64, ckpt: Option<&CheckpointSpec>, skip_iters: u32) -> JobSpec {
    let mut ops = Vec::new();
    if skip_iters > 0 {
        let c = ckpt.expect("skipping iterations requires a checkpoint spec");
        ops.push(MpiOp::Compute { mean: c.restore });
    }
    for it in skip_iters..j.iters {
        ops.push(MpiOp::Compute {
            mean: SimDuration::from_nanos(j.compute_ns),
        });
        ops.push(MpiOp::Allreduce { bytes: j.bytes });
        if let Some(c) = ckpt {
            if (it + 1) % c.every_iters == 0 && it + 1 < j.iters {
                ops.push(MpiOp::Checkpoint { cost: c.cost });
            }
        }
    }
    JobSpec::new(j.nprocs(), ops)
        .with_nodes(j.nodes)
        .with_id_base(id_base)
}

/// One job attempt's node occupancy: the nodes it held and the interval
/// it held them for. Collected for every attempt — completed, killed,
/// or crashed-and-requeued — so utilization can integrate true busy
/// time per node.
struct BusySpan {
    placement: Vec<usize>,
    from: SimTime,
    until: SimTime,
}

/// Busy node-seconds: per node, the measure of the union of its
/// occupancy intervals (co-resident jobs overlap instead of adding), of
/// the first `nnodes` node indices, summed over nodes. This is the
/// utilization numerator — with dedicated nodes it equals
/// Σ(nodes × run), under oversubscription it is strictly smaller than
/// that double-counting sum and can never exceed `nnodes × makespan`.
fn busy_node_seconds(spans: &[BusySpan], nnodes: usize) -> f64 {
    let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); nnodes];
    for s in spans {
        for &n in &s.placement {
            per_node[n].push((s.from, s.until));
        }
    }
    let mut total = 0.0f64;
    for spans in per_node.iter_mut() {
        spans.sort();
        let mut cur: Option<(SimTime, SimTime)> = None;
        for &(from, until) in spans.iter() {
            match cur {
                Some((cs, ce)) if from <= ce => cur = Some((cs, ce.max(until))),
                Some((cs, ce)) => {
                    total += ce.since(cs).as_secs_f64();
                    cur = Some((from, until));
                }
                None => cur = Some((from, until)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce.since(cs).as_secs_f64();
        }
    }
    total
}

/// Builder for one batch run — the construction-API counterpart of
/// `hpl_cluster::ClusterBuilder`.
///
/// ```ignore
/// let report = BatchRun::new(&trace)
///     .mode(SchedMode::Hpc)
///     .checkpoint(CheckpointSpec { every_iters: 2, cost, restore })
///     .run(&mut cluster, &mut policy)?;
/// ```
#[derive(Debug)]
pub struct BatchRun<'a> {
    trace: &'a BatchTrace,
    cfg: BatchConfig,
}

impl<'a> BatchRun<'a> {
    /// Start describing a run of `trace`: HPC mode, a 600M-event budget,
    /// no checkpoints and no walltime kills.
    pub fn new(trace: &'a BatchTrace) -> Self {
        BatchRun {
            trace,
            cfg: BatchConfig::default(),
        }
    }

    /// OS-level scheduling mode for every job.
    pub fn mode(mut self, mode: SchedMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Cluster-wide dispatched-event budget.
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.cfg.max_events = max_events;
        self
    }

    /// Enable periodic checkpoint/restart for every job.
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        assert!(spec.every_iters >= 1, "checkpoint interval must be >= 1");
        self.cfg.checkpoint = Some(spec);
        self
    }

    /// Enforce walltime limits: kill jobs at `factor ×` their runtime
    /// estimate (`1.0` = kill exactly at estimate expiry, the production
    /// default on most clusters). Killed jobs are not requeued — they end
    /// at the kill, flagged [`JobOutcome::killed`] and counted in
    /// [`BatchReport::jobs_killed`]. Without this call no job is killed.
    pub fn walltime(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "walltime factor below 1.0 kills on launch");
        self.cfg.walltime_factor = Some(factor);
        self
    }

    /// Execute the run. The cluster should be pre-warmed (daemon
    /// populations settled) and idle; the batch epoch is the latest
    /// node clock at entry. Returns the filled [`BatchReport`], or the
    /// failing [`RunOutcome`] if the co-simulation deadlocks or the
    /// event budget runs out. Batch-level lifecycle events are
    /// published to node 0's observers ([`hpl_kernel::Node::publish`]).
    pub fn run(
        self,
        cluster: &mut Cluster,
        policy: &mut dyn AllocPolicy,
    ) -> Result<BatchReport, RunOutcome> {
        run_batch_inner(cluster, self.trace, policy, &self.cfg, None)
    }

    /// Execute the run with a coordination runtime interposed: every
    /// launch goes through `coord` (so it can shim ranks), and every
    /// fractional share the policy hands out is *realized* on the nodes
    /// via [`JobCoordinator::set_share`] — in addition to being
    /// published as the advisory [`SchedEvent::JobShare`] it always
    /// was. [`Self::run`] is this with no coordinator, byte for byte.
    pub fn run_coordinated(
        self,
        cluster: &mut Cluster,
        policy: &mut dyn AllocPolicy,
        coord: &mut dyn JobCoordinator,
    ) -> Result<BatchReport, RunOutcome> {
        run_batch_inner(cluster, self.trace, policy, &self.cfg, Some(coord))
    }
}

/// Mutable state of one batch run, advanced one decision point at a
/// time by [`Engine::decide`].
struct Engine<'r> {
    cfg: &'r BatchConfig,
    /// Not yet submitted, in arrival order.
    pending: VecDeque<(SimTime, BatchJob)>,
    queue: Vec<Queued>,
    running: Vec<Running>,
    outcomes: Vec<JobOutcome>,
    busy_spans: Vec<BusySpan>,
    next_id_base: u64,
    max_queue_depth: u32,
    max_node_occupancy: u32,
    occupancy_violations: u64,
    requeues: u64,
    /// The policy's per-node occupancy promise.
    limit: u32,
    /// The policy's views, kept between decision passes so that a pass
    /// refills them instead of allocating.
    view: ClusterView,
    pview: Vec<QueuedJob>,
}

impl Engine<'_> {
    /// One decision pass at `now`: walltime kills, harvest, admission,
    /// allocation, share reallocation and the occupancy audit, in that
    /// order.
    fn decide(
        &mut self,
        cluster: &mut Cluster,
        policy: &mut dyn AllocPolicy,
        coordinator: &mut Option<&mut dyn JobCoordinator>,
        now: SimTime,
    ) {
        self.kill_overdue(cluster, now);
        self.harvest(cluster, now);
        self.admit(cluster, now);
        let mut view = std::mem::take(&mut self.view);
        self.fill_view(&mut view, cluster, now);
        self.allocate(cluster, policy, coordinator, &mut view);
        self.reallocate_shares(cluster, policy, coordinator, &view);
        self.view = view;
        self.audit(cluster);
    }

    /// Refill `view` for a pass at `now`, in place: its vectors, the
    /// running jobs' placements included, keep their capacity from
    /// pass to pass.
    fn fill_view(&self, view: &mut ClusterView, cluster: &Cluster, now: SimTime) {
        view.now = now;
        view.occupancy.clear();
        view.occupancy
            .extend((0..cluster.len()).map(|n| cluster.active_jobs_on(n) as u32));
        view.down.clear();
        view.down
            .extend((0..cluster.len()).map(|n| !cluster.node_available(n)));
        view.running.truncate(self.running.len());
        for (i, r) in self.running.iter().enumerate() {
            let (id, est_end) = (r.job.id, r.started + r.job.est_runtime());
            match view.running.get_mut(i) {
                Some(v) => {
                    v.id = id;
                    v.placement.clone_from(&r.handle.placement);
                    v.est_end = est_end;
                }
                None => view.running.push(RunningJob {
                    id,
                    placement: r.handle.placement.clone(),
                    est_end,
                }),
            }
        }
    }

    /// Enforce walltime limits: a live job whose occupancy has reached
    /// `factor ×` its estimate is killed on the spot (its launcher trees
    /// die with node-local exit stamps, so the harvest that follows
    /// collects it at this same decision point and its nodes free
    /// immediately). Crashed jobs are left to the requeue path; a job
    /// that finished inside the window reaps zero tasks and completes
    /// normally.
    fn kill_overdue(&mut self, cluster: &mut Cluster, now: SimTime) {
        let Some(factor) = self.cfg.walltime_factor else {
            return;
        };
        for r in self.running.iter_mut() {
            if r.killed || cluster.job_failed(&r.handle) {
                continue;
            }
            let limit = r.job.est_runtime().mul_f64(factor);
            if now.since(r.started) >= limit && cluster.cancel_job(&r.handle) > 0 {
                r.killed = true;
            }
        }
    }

    /// Harvest completions and crash casualties. A job ends when the
    /// cluster has recorded its last launcher tree's exit
    /// ([`Cluster::job_end`]); a failed job never does and is requeued.
    fn harvest(&mut self, cluster: &mut Cluster, now: SimTime) {
        let mut i = 0;
        while i < self.running.len() {
            if cluster.job_failed(&self.running[i].handle) {
                let r = self.running.swap_remove(i);
                self.requeue(cluster, r, now);
                continue;
            }
            let Some(ended) = cluster.job_end(&self.running[i].handle) else {
                i += 1;
                continue;
            };
            let r = self.running.swap_remove(i);
            self.busy_spans.push(BusySpan {
                placement: r.handle.placement.clone(),
                from: r.started,
                until: ended,
            });
            let wait = r.started.since(r.submitted);
            let run = ended.since(r.started);
            let floor = run.max(SLOWDOWN_TAU);
            let slowdown = ((wait + run).as_secs_f64() / floor.as_secs_f64()).max(1.0);
            self.outcomes.push(JobOutcome {
                id: r.job.id,
                nodes: r.job.nodes,
                submitted: r.submitted,
                started: r.started,
                ended,
                wait,
                run,
                bounded_slowdown: slowdown,
                requeues: r.requeues,
                user: r.job.user,
                killed: r.killed,
            });
            cluster.node_mut(0).publish(SchedEvent::JobEnd {
                job: r.job.id,
                queue_depth: self.queue.len() as u32,
            });
        }
    }

    /// Requeue a crash casualty at the tail of the queue, restarting
    /// from the last checkpoint every surviving node committed.
    fn requeue(&mut self, cluster: &mut Cluster, r: Running, now: SimTime) {
        // The attempt occupied its nodes until this decision point (the
        // crash landed inside the last window).
        self.busy_spans.push(BusySpan {
            placement: r.handle.placement.clone(),
            from: r.started,
            until: now,
        });
        // Generations count commits *in this attempt*, on top of
        // whatever the attempt already skipped.
        let mut skip = 0;
        if let Some(c) = &self.cfg.checkpoint {
            let committed = cluster
                .job_survivors(&r.handle)
                .iter()
                .map(|&j| {
                    cluster
                        .node(r.handle.placement[j])
                        .sync
                        .barrier_generation(r.spec.ckpt_barrier_id(j as u32))
                })
                .min()
                .unwrap_or(0);
            skip = (r.skip_iters + committed as u32 * c.every_iters)
                .min(r.job.iters.saturating_sub(1));
        }
        self.requeues += 1;
        cluster.node_mut(0).publish(SchedEvent::JobSubmit {
            job: r.job.id,
            queue_depth: self.queue.len() as u32 + 1,
        });
        self.queue.push(Queued {
            job: r.job,
            submitted: r.submitted,
            skip_iters: skip,
            requeues: r.requeues + 1,
        });
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len() as u32);
    }

    /// Admit arrivals that have come due.
    fn admit(&mut self, cluster: &mut Cluster, now: SimTime) {
        while self.pending.front().is_some_and(|(at, _)| *at <= now) {
            let (submitted, job) = self.pending.pop_front().expect("checked front");
            let id = job.id;
            self.queue.push(Queued {
                job,
                submitted,
                skip_iters: 0,
                requeues: 0,
            });
            self.max_queue_depth = self.max_queue_depth.max(self.queue.len() as u32);
            cluster.node_mut(0).publish(SchedEvent::JobSubmit {
                job: id,
                queue_depth: self.queue.len() as u32,
            });
        }
    }

    /// Launch until the policy passes, keeping `view` and the policy's
    /// queue view current in place after each launch.
    fn allocate(
        &mut self,
        cluster: &mut Cluster,
        policy: &mut dyn AllocPolicy,
        coordinator: &mut Option<&mut dyn JobCoordinator>,
        view: &mut ClusterView,
    ) {
        let mut pview = std::mem::take(&mut self.pview);
        pview.clear();
        pview.extend(self.queue.iter().map(Queued::view));
        while !pview.is_empty() {
            let Some(alloc) = policy.select(&pview, view) else {
                break;
            };
            pview.remove(alloc.queue_idx);
            let q = self.queue.remove(alloc.queue_idx);
            let ckpt = self.cfg.checkpoint.as_ref();
            let spec = job_spec(&q.job, self.next_id_base, ckpt, q.skip_iters);
            self.next_id_base = *spec.id_range().end() + 1 + ID_GAP;
            let (mode, placement) = (self.cfg.mode, Placement::on(&alloc.placement));
            let handle = match coordinator {
                Some(c) => c.launch(cluster, &spec, mode, placement),
                None => cluster.launch(&spec, mode, placement),
            };
            // Batch-level start stamp: the decision-point clock (node
            // clocks inside one lockstep window can lag it by less than
            // the lookahead, and `submitted <= now` must hold).
            let started = view.now;
            cluster.node_mut(0).publish(SchedEvent::JobStart {
                job: q.job.id,
                queue_depth: self.queue.len() as u32,
                waited: started.since(q.submitted),
            });
            for &n in &alloc.placement {
                view.occupancy[n] += 1;
                debug_assert_eq!(view.occupancy[n], cluster.active_jobs_on(n) as u32);
            }
            view.running.push(RunningJob {
                id: q.job.id,
                placement: alloc.placement,
                est_end: started + q.job.est_runtime(),
            });
            self.running.push(Running {
                job: q.job,
                spec,
                handle,
                submitted: q.submitted,
                started,
                skip_iters: q.skip_iters,
                requeues: q.requeues,
                killed: false,
            });
        }
        self.pview = pview;
    }

    /// Fractional-share reallocation (DFRS): the policy may recompute
    /// per-job CPU shares at its own period; each share is published so
    /// observers and the torture oracle can audit conservation.
    /// Slot-based policies return nothing here and stay untouched bit
    /// for bit.
    fn reallocate_shares(
        &mut self,
        cluster: &mut Cluster,
        policy: &mut dyn AllocPolicy,
        coordinator: &mut Option<&mut dyn JobCoordinator>,
        view: &ClusterView,
    ) {
        for (node, job, share_milli) in policy.share_update(view) {
            cluster.node_mut(0).publish(SchedEvent::JobShare {
                job,
                node: node as u32,
                share_milli,
            });
            // With a coordinator installed the share stops being
            // advisory: realize it on the node, addressed by the job's
            // gang id (its id base — unique among co-residents by the
            // launch-time disjointness rule).
            if let Some(c) = coordinator {
                if let Some(r) = self.running.iter().find(|r| r.job.id == job) {
                    c.set_share(cluster, node, r.spec.id_base, share_milli);
                }
            }
        }
    }

    /// Occupancy audit against the policy's promise. Occupancy only
    /// rises at a launch, so auditing once per decision point, after
    /// the launches, sees every peak.
    fn audit(&mut self, cluster: &Cluster) {
        let mut over = false;
        for n in 0..cluster.len() {
            let occ = cluster.active_jobs_on(n) as u32;
            self.max_node_occupancy = self.max_node_occupancy.max(occ);
            over |= occ > self.limit;
        }
        if over {
            self.occupancy_violations += 1;
        }
    }

    /// The earliest clock value at which a decision pass is due even if
    /// no tree exits and no fault lands: the next arrival, the next
    /// walltime deadline, or the policy's own trigger.
    fn next_wake(&self, policy: &dyn AllocPolicy, now: SimTime) -> Option<SimTime> {
        let arrival = self.pending.front().map(|(at, _)| *at);
        let deadline = self.cfg.walltime_factor.and_then(|factor| {
            self.running
                .iter()
                .filter(|r| !r.killed)
                .map(|r| r.started + r.job.est_runtime().mul_f64(factor))
                .min()
        });
        [arrival, deadline, policy.next_decision(now)]
            .into_iter()
            .flatten()
            .min()
    }
}

fn run_batch_inner(
    cluster: &mut Cluster,
    trace: &BatchTrace,
    policy: &mut dyn AllocPolicy,
    cfg: &BatchConfig,
    mut coordinator: Option<&mut dyn JobCoordinator>,
) -> Result<BatchReport, RunOutcome> {
    let nnodes = cluster.len();
    for j in &trace.jobs {
        assert!(
            (j.nodes as usize) <= nnodes,
            "job {} wants {} nodes but the cluster has {nnodes}",
            j.id,
            j.nodes
        );
    }
    let epoch = cluster.clock();
    let start_events = cluster.events_dispatched();

    // Trace order in, arrival order out (stable on ties by trace order).
    let mut pending: Vec<(SimTime, BatchJob)> = trace
        .jobs
        .iter()
        .map(|j| (epoch + SimDuration::from_nanos(j.submit_ns), j.clone()))
        .collect();
    pending.sort_by_key(|(at, j)| (*at, j.id));

    let mut e = Engine {
        cfg,
        pending: pending.into(),
        queue: Vec::new(),
        running: Vec::new(),
        outcomes: Vec::new(),
        busy_spans: Vec::new(),
        next_id_base: ID_BASE_START,
        max_queue_depth: 0,
        max_node_occupancy: 0,
        occupancy_violations: 0,
        requeues: 0,
        limit: policy.occupancy_limit(),
        view: ClusterView::default(),
        pview: Vec::new(),
    };
    let total_jobs = trace.jobs.len();

    // What the last pass saw: the cluster's change counters (`None`
    // forces a pass) and the clock value that makes the next one due
    // regardless.
    let mut seen: Option<(u64, u64)> = None;
    let mut wake: Option<SimTime> = None;
    while e.outcomes.len() < total_jobs {
        let now = cluster.clock();
        let changes = (cluster.tree_exits(), cluster.faults_applied());
        if seen != Some(changes) || wake.is_some_and(|t| t <= now) {
            e.decide(cluster, policy, &mut coordinator, now);
            if e.outcomes.len() == total_jobs {
                break;
            }
            seen = Some((cluster.tree_exits(), cluster.faults_applied()));
            wake = e.next_wake(policy, now);
        }

        // Advance virtual time one lockstep window.
        if !cluster.step_window() {
            if e.running.is_empty() && !e.pending.is_empty() {
                // Every queue drained while waiting for the next arrival
                // (possible only on fully tickless idle clusters): jump
                // the clocks to the arrival.
                let jump_to = e.pending.front().expect("non-empty").0;
                for n in 0..nnodes {
                    // Crashed nodes stay frozen — a restart event will
                    // re-clock them when (if) it lands.
                    if cluster.node_down(n) {
                        continue;
                    }
                    cluster.node_mut(n).run_until_time(jump_to);
                }
                seen = None;
                continue;
            }
            return Err(RunOutcome::Deadlock);
        }
        if cluster.events_dispatched() - start_events > cfg.max_events {
            return Err(RunOutcome::BudgetExhausted);
        }
    }

    let Engine {
        outcomes,
        busy_spans,
        max_queue_depth,
        max_node_occupancy,
        occupancy_violations,
        requeues,
        ..
    } = e;

    let first_submit = outcomes.iter().map(|o| o.submitted).min().unwrap_or(epoch);
    let last_end = outcomes.iter().map(|o| o.ended).max().unwrap_or(epoch);
    let makespan = last_end.since(first_submit);
    let node_seconds = busy_node_seconds(&busy_spans, nnodes);
    let denom = nnodes as f64 * makespan.as_secs_f64();
    let utilization = if denom > 0.0 {
        node_seconds / denom
    } else {
        0.0
    };
    let n = outcomes.len().max(1) as f64;
    let mean_wait = SimDuration::from_nanos(
        (outcomes.iter().map(|o| o.wait.as_nanos()).sum::<u64>() as f64 / n) as u64,
    );
    let mean_bounded_slowdown = outcomes.iter().map(|o| o.bounded_slowdown).sum::<f64>() / n;
    let jobs_lost = (total_jobs - outcomes.len()) as u64;
    let jobs_killed = outcomes.iter().filter(|o| o.killed).count() as u64;

    // Per-user breakdown, ascending by user id (BTreeMap order) so the
    // report stays bit-comparable across runs.
    let mut by_user: std::collections::BTreeMap<u32, Vec<&JobOutcome>> =
        std::collections::BTreeMap::new();
    for o in &outcomes {
        by_user.entry(o.user).or_default().push(o);
    }
    let user_stats: Vec<UserStats> = by_user
        .into_iter()
        .map(|(user, rows)| {
            let n = rows.len() as f64;
            UserStats {
                user,
                jobs: rows.len() as u32,
                killed: rows.iter().filter(|o| o.killed).count() as u32,
                mean_wait: SimDuration::from_nanos(
                    (rows.iter().map(|o| o.wait.as_nanos()).sum::<u64>() as f64 / n) as u64,
                ),
                mean_bounded_slowdown: rows.iter().map(|o| o.bounded_slowdown).sum::<f64>() / n,
            }
        })
        .collect();

    Ok(BatchReport {
        policy: policy.name(),
        outcomes,
        makespan,
        utilization,
        mean_wait,
        mean_bounded_slowdown,
        max_queue_depth,
        max_node_occupancy,
        occupancy_violations,
        requeues,
        jobs_lost,
        jobs_killed,
        user_stats,
        fingerprint: cluster.state_fingerprint(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(placement: &[usize], from_ns: u64, until_ns: u64) -> BusySpan {
        BusySpan {
            placement: placement.to_vec(),
            from: SimTime::from_nanos(from_ns),
            until: SimTime::from_nanos(until_ns),
        }
    }

    #[test]
    fn busy_seconds_count_coresident_jobs_once() {
        // Two jobs fully overlapping on node 0 (oversubscription): the
        // node was busy 1 s, not 2 s.
        let spans = [span(&[0], 0, 1_000_000_000), span(&[0], 0, 1_000_000_000)];
        assert_eq!(busy_node_seconds(&spans, 2), 1.0);
        // Partial overlap merges into one interval per node.
        let spans = [
            span(&[0], 0, 600_000_000),
            span(&[0], 400_000_000, 1_000_000_000),
        ];
        assert_eq!(busy_node_seconds(&spans, 1), 1.0);
        // Disjoint intervals add; a multi-node span counts every node.
        let spans = [
            span(&[0, 1], 0, 500_000_000),
            span(&[0], 700_000_000, 900_000_000),
        ];
        assert_eq!(busy_node_seconds(&spans, 2), 1.2);
        assert_eq!(busy_node_seconds(&[], 4), 0.0);
    }

    #[test]
    #[should_panic(expected = "walltime factor below 1.0")]
    fn walltime_factor_below_one_is_rejected() {
        let trace = BatchTrace { jobs: Vec::new() };
        let _ = BatchRun::new(&trace).walltime(0.5);
    }

    #[test]
    #[should_panic(expected = "checkpoint interval must be >= 1")]
    fn zero_checkpoint_interval_is_rejected() {
        let trace = BatchTrace { jobs: Vec::new() };
        let _ = BatchRun::new(&trace).checkpoint(CheckpointSpec {
            every_iters: 0,
            cost: SimDuration::from_micros(100),
            restore: SimDuration::from_micros(300),
        });
    }

    #[test]
    fn busy_seconds_bound_oversubscribed_utilization() {
        // The old Σ(nodes × run) numerator would report 2.0 node-
        // seconds here against 1.0 of capacity (utilization 2.0); the
        // interval union caps at the node's wall-clock time.
        let spans = [span(&[0], 0, 1_000_000_000), span(&[0], 0, 1_000_000_000)];
        let capacity = 1.0 * 1.0; // 1 node × 1 s makespan
        assert!(busy_node_seconds(&spans, 1) <= capacity);
    }
}
