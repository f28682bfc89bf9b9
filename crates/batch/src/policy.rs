//! Pluggable allocation policies for the batch scheduler.
//!
//! A policy sees the queue (in arrival order) and a [`ClusterView`] —
//! per-node occupancy plus the estimated end times of running jobs —
//! and picks the next job to launch together with its node placement.
//! The engine calls [`AllocPolicy::select`] repeatedly at every decision
//! point until it returns `None`, so a policy that can start several
//! jobs in one window simply yields them one at a time.
//!
//! Decision points are event-driven: the engine runs a pass only at a
//! window where something the policy decides on may have changed — an
//! arrival, a launcher tree exiting on some node, a walltime deadline, a
//! node fault — or where the policy itself asked to be consulted
//! ([`AllocPolicy::next_decision`]).
//!
//! The policy zoo (the scheduler-taxonomy axis of the related work):
//!
//! * [`Fcfs`] — strict arrival order; the head job blocks everything
//!   behind it until enough free nodes exist.
//! * [`EasyBackfill`] — EASY backfilling: the head job gets a
//!   *reservation* (a concrete node set and a shadow time computed from
//!   the running jobs' runtime estimates) and a younger job may jump the
//!   queue only if it cannot delay that reservation — either it finishes
//!   before the shadow time or it runs entirely on nodes the head will
//!   not need. Audited per backfill ([`BackfillDecision`]).
//! * [`ConservativeBackfill`] — *every* queued job (up to a reservation
//!   depth) holds a reservation, not just the head; a job starts out of
//!   order only into a genuine hole in that schedule, so no admission
//!   ever delays an earlier-queued job's promised start. Audited per
//!   admission ([`ReservationDecision`]).
//! * [`MultiQueue`] — priority classes with aging: dispatch from the
//!   best effective class (job class minus levels earned by waiting),
//!   FCFS within a class, so low-priority jobs cannot starve.
//! * [`FairShare`] — per-user decayed usage accounting and
//!   usage-ordered dispatch: among jobs that fit, the user with the
//!   lowest decayed usage goes first. Audited per dispatch
//!   ([`FairShareDispatch`]).
//! * [`Oversubscribed`] — the fractional/co-scheduling contrast: up to
//!   two jobs share a node (occupancy limit 2), allocation is FCFS onto
//!   the least-occupied nodes. This deliberately breaks the paper's
//!   dedicated-node assumption to measure what OS-level scheduling does
//!   when the batch level stops protecting it.
//! * [`Dfrs`] — dynamic fractional resource scheduling: the same
//!   oversubscribed FCFS packing plus *periodic reallocation* of per-job
//!   fractional CPU shares, the batch-vs-fractional comparison of
//!   Casanova/Stillwell/Vivien. Audited per reallocation
//!   ([`DfrsDecision`]). The OS level realises the shares through gang
//!   rotation (`KernelConfig::gang_epoch`).
//!
//! One audit contract covers the zoo. Each audited decision record
//! states its policy's promise as [`Audited::holds`]; the policy pushes
//! every record into a bounded [`AuditLog`] ring (newest kept) that
//! counts decisions and violations and keeps the first violating record
//! even after the ring drops it, so thousand-job SWF runs neither grow
//! memory linearly nor lose a violation. [`AllocPolicy::audit`] reports
//! that tally as an [`AuditSummary`]; policies that promise nothing
//! beyond their occupancy limit return the empty summary. The typed
//! `decisions()` iterators expose the retained records themselves.

use hpl_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;

/// A queued job as the policy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJob {
    /// Trace id.
    pub id: u32,
    /// Nodes requested.
    pub nodes: u32,
    /// Submission time (batch epoch + trace offset).
    pub submitted: SimTime,
    /// User runtime estimate.
    pub est_runtime: SimDuration,
    /// Submitting user (fair-share key).
    pub user: u32,
    /// Priority class (0 = highest; multi-queue key).
    pub class: u32,
}

/// Default capacity of a policy's bounded audit ring.
pub const AUDIT_LOG_CAP: usize = 4096;

/// An audited decision record: one policy decision together with the
/// state its promise was made against.
pub trait Audited {
    /// Whether the decision kept its policy's promise.
    fn holds(&self) -> bool;
}

/// A policy's audit tally over a whole run (see [`AllocPolicy::audit`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditSummary {
    /// Decisions audited, including ones the ring has since dropped.
    pub checked: u64,
    /// Audited decisions that broke the promise. Must be 0.
    pub violations: u64,
    /// `Debug` text of the first violating decision, if any.
    pub first: Option<String>,
}

/// A bounded decision log: keeps the newest `cap` entries and tallies
/// every entry ever pushed, violations included, so the invariant stays
/// checkable after the ring wraps.
#[derive(Debug, Clone)]
pub struct AuditLog<T> {
    recent: VecDeque<T>,
    cap: usize,
    summary: AuditSummary,
}

impl<T: Audited + Debug> AuditLog<T> {
    /// An empty log keeping at most `cap` recent entries.
    pub fn with_cap(cap: usize) -> Self {
        AuditLog {
            recent: VecDeque::new(),
            cap: cap.max(1),
            summary: AuditSummary::default(),
        }
    }

    fn push(&mut self, entry: T) {
        if !entry.holds() {
            self.summary.violations += 1;
            if self.summary.first.is_none() {
                self.summary.first = Some(format!("{entry:?}"));
            }
        }
        if self.recent.len() == self.cap {
            self.recent.pop_front();
        }
        self.recent.push_back(entry);
        self.summary.checked += 1;
    }

    /// The retained (newest) entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.recent.iter()
    }

    /// The tally over every entry ever pushed.
    pub fn summary(&self) -> AuditSummary {
        self.summary.clone()
    }
}

impl<T: Audited + Debug> Default for AuditLog<T> {
    fn default() -> Self {
        Self::with_cap(AUDIT_LOG_CAP)
    }
}

/// A running job as the policy sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningJob {
    /// Trace id.
    pub id: u32,
    /// Cluster nodes it occupies.
    pub placement: Vec<usize>,
    /// Estimated end time (start + user estimate).
    pub est_end: SimTime,
}

/// Snapshot of cluster state at a decision point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterView {
    /// Decision time.
    pub now: SimTime,
    /// Jobs currently occupying each node, indexed by cluster node.
    pub occupancy: Vec<u32>,
    /// Jobs launched and not yet completed.
    pub running: Vec<RunningJob>,
    /// Nodes that are crashed or drained, indexed by cluster node.
    /// Policies never place work on these.
    pub down: Vec<bool>,
}

impl ClusterView {
    /// Node indices with occupancy strictly below `limit`, ascending.
    /// Down or drained nodes are never eligible. An iterator, so a
    /// decision pass that places nothing allocates nothing.
    fn nodes_below(&self, limit: u32) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.occupancy.len()).filter(move |&n| self.occupancy[n] < limit && !self.down[n])
    }
}

/// A policy decision: launch `queue_idx` on `placement`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Index into the queue slice passed to `select`.
    pub queue_idx: usize,
    /// Cluster nodes to run it on (one job node per entry).
    pub placement: Vec<usize>,
}

/// A cluster-level allocation policy.
///
/// The engine consults a policy only at decision points (see
/// [`AllocPolicy::next_decision`] for the contract that lets it skip the
/// windows in between). Within one decision point it calls
/// [`Self::select`] until it returns `None`, then
/// [`Self::share_update`] once; occupancy can only rise at a launch, so
/// the engine audits it against [`Self::occupancy_limit`] once per
/// decision point, after both.
pub trait AllocPolicy {
    /// Short name for reports and bench output.
    fn name(&self) -> &'static str;

    /// Maximum concurrent jobs per node this policy may create (1 =
    /// dedicated nodes). The engine cross-checks the cluster against
    /// this bound at every decision point.
    fn occupancy_limit(&self) -> u32 {
        1
    }

    /// Pick the next job to launch, or `None` when nothing (more) can
    /// start right now. `queue` is in arrival order and non-empty
    /// entries are never reordered by the engine.
    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation>;

    /// Recompute per-job fractional CPU shares, if this policy manages
    /// any. Called once per decision point, after allocation; every
    /// returned `(node, job, share_milli)` triple is published by the
    /// engine as a `SchedEvent::JobShare` so observers and the torture
    /// oracle can audit conservation. Slot-based policies (everything
    /// except [`Dfrs`]) keep the default empty answer, which publishes
    /// nothing and leaves their runs untouched bit for bit.
    fn share_update(&mut self, view: &ClusterView) -> Vec<(usize, u32, u32)> {
        let _ = view;
        Vec::new()
    }

    /// The earliest time at which this policy must be consulted again
    /// even if nothing else changes, asked after each decision point at
    /// `now`. The engine runs its next pass at the first window boundary
    /// at or after the returned time, or earlier if a job arrives, a
    /// launcher tree exits, a walltime deadline passes or a node fault
    /// lands; `None` means only those events matter.
    ///
    /// The contract: a policy may name a time later than `now` only if,
    /// with the queue and cluster view unchanged apart from the clock,
    /// [`Self::select`] would return `None` and [`Self::share_update`]
    /// would return nothing at every skipped window — and both would
    /// mutate nothing. The default, `Some(now)`, asks for every window
    /// and is always safe.
    fn next_decision(&self, now: SimTime) -> Option<SimTime> {
        Some(now)
    }

    /// The audit tally of every decision this policy has taken. Policies
    /// whose only promise is the occupancy limit (which the engine
    /// audits itself) keep the default empty summary.
    fn audit(&self) -> AuditSummary {
        AuditSummary::default()
    }
}

/// First-come-first-served on dedicated nodes.
#[derive(Debug, Default)]
pub struct Fcfs;

impl AllocPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
        let head = queue.first()?;
        let free = view.nodes_below(1);
        if free.clone().count() < head.nodes as usize {
            return None;
        }
        Some(Allocation {
            queue_idx: 0,
            placement: free.take(head.nodes as usize).collect(),
        })
    }

    /// The clock never enters the decision.
    fn next_decision(&self, _now: SimTime) -> Option<SimTime> {
        None
    }
}

/// One audited backfill decision (see [`EasyBackfill::decisions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackfillDecision {
    /// The job that jumped the queue.
    pub job: u32,
    /// The head job whose reservation it had to respect.
    pub head: u32,
    /// The shadow time promised to the head at this decision: the head
    /// can start no later than this, assuming estimates hold.
    pub shadow: SimTime,
    /// The backfilled job's estimated end (`now + est_runtime`).
    pub est_end: SimTime,
    /// Nodes reserved for the head at this decision.
    pub reserved: Vec<usize>,
    /// Nodes the backfilled job was placed on.
    pub placement: Vec<usize>,
}

impl Audited for BackfillDecision {
    /// The EASY invariant for this decision: the backfilled job either
    /// ends (by estimate) before the head's shadow time, or it runs
    /// entirely on nodes outside the head's reservation.
    fn holds(&self) -> bool {
        self.est_end <= self.shadow || self.placement.iter().all(|n| !self.reserved.contains(n))
    }
}

/// EASY backfilling on dedicated nodes.
#[derive(Debug, Default)]
pub struct EasyBackfill {
    decisions: AuditLog<BackfillDecision>,
}

impl EasyBackfill {
    /// Fresh policy with an empty audit log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The retained backfill decisions, oldest first — the audit trail
    /// for the reservation-safety property tests. Bounded to the newest
    /// [`AUDIT_LOG_CAP`] entries; [`AllocPolicy::audit`] sees every
    /// decision ever taken.
    pub fn decisions(&self) -> impl Iterator<Item = &BackfillDecision> {
        self.decisions.iter()
    }

    /// The head job's reservation given `view`: the concrete node set
    /// the head will run on and the shadow time at which the last of
    /// those nodes frees up (estimates permitting). Currently-free nodes
    /// are taken first, then nodes of running jobs in estimated-end
    /// order. `None` if the head fits right now (no reservation needed).
    fn reservation(head: &QueuedJob, view: &ClusterView) -> Option<(Vec<usize>, SimTime)> {
        let free = view.nodes_below(1);
        let need = head.nodes as usize;
        if free.clone().count() >= need {
            return None;
        }
        let mut reserved: Vec<usize> = free.collect();
        let mut running: Vec<&RunningJob> = view.running.iter().collect();
        running.sort_by_key(|r| (r.est_end, r.id));
        let mut shadow = view.now;
        for r in &running {
            for &n in &r.placement {
                if reserved.len() == need {
                    break;
                }
                if !reserved.contains(&n) {
                    reserved.push(n);
                    shadow = r.est_end;
                }
            }
            if reserved.len() == need {
                break;
            }
        }
        // A job wider than the cluster can never be satisfied; the
        // engine rejects those at submit time, so with every node up the
        // walk always completes the set. Crashed/drained nodes can shrink
        // the pool below the head's width until a restart lands — then
        // the head's start time is unknowable, so the shadow moves to the
        // far future and backfill can proceed without breaking a promise.
        if reserved.len() < need {
            shadow = SimTime::from_nanos(u64::MAX);
        }
        reserved.sort_unstable();
        Some((reserved, shadow))
    }
}

impl AllocPolicy for EasyBackfill {
    fn name(&self) -> &'static str {
        "easy"
    }

    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
        let head = queue.first()?;
        let free = view.nodes_below(1);
        let Some((reserved, shadow)) = Self::reservation(head, view) else {
            // Head fits now: start it (this is also the backfill of
            // width-compatible heads — FCFS order preserved).
            return Some(Allocation {
                queue_idx: 0,
                placement: free.take(head.nodes as usize).collect(),
            });
        };
        let nfree = free.clone().count();
        // Head blocked: try to backfill the first younger job that
        // cannot delay the reservation.
        for (qi, cand) in queue.iter().enumerate().skip(1) {
            let want = cand.nodes as usize;
            if want > nfree {
                continue;
            }
            let est_end = view.now + cand.est_runtime;
            let placement: Vec<usize> = if est_end <= shadow {
                // Finishes before the head needs its nodes: any free
                // nodes do, reserved ones included.
                free.clone().take(want).collect()
            } else {
                // Outlives the shadow window: only nodes the head will
                // never touch are safe.
                let outside = free.clone().filter(|n| !reserved.contains(n));
                if outside.clone().count() < want {
                    continue;
                }
                outside.take(want).collect()
            };
            let d = BackfillDecision {
                job: cand.id,
                head: head.id,
                shadow,
                est_end,
                reserved: reserved.clone(),
                placement: placement.clone(),
            };
            self.decisions.push(d);
            return Some(Allocation {
                queue_idx: qi,
                placement,
            });
        }
        None
    }

    /// The shadow time depends on running estimates, not the clock, and
    /// a candidate's estimated end only moves later as the clock
    /// advances: a view that admitted nothing admits nothing later.
    fn next_decision(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    fn audit(&self) -> AuditSummary {
        self.decisions.summary()
    }
}

/// One audited conservative-backfill admission (see
/// [`ConservativeBackfill::decisions`]): the admitted job plus every
/// earlier-queued job's reservation as it stood at that moment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservationDecision {
    /// The admitted job.
    pub job: u32,
    /// Nodes it was placed on.
    pub placement: Vec<usize>,
    /// Its estimated end (`now + est_runtime`).
    pub est_end: SimTime,
    /// Earlier-queued jobs' reservations at admission: `(job id,
    /// promised start, reserved nodes)`. Jobs the scheduler could not
    /// reserve for (cluster shrunk below their width by faults) are
    /// absent — they hold no promise to delay.
    pub earlier: Vec<(u32, SimTime, Vec<usize>)>,
}

impl Audited for ReservationDecision {
    /// The conservative invariant: the admitted job delays no earlier
    /// reservation — for every earlier job it either ends (by estimate)
    /// before that job's promised start, or it touches none of that
    /// job's reserved nodes.
    fn holds(&self) -> bool {
        self.earlier.iter().all(|(_, start, nodes)| {
            self.est_end <= *start || self.placement.iter().all(|n| !nodes.contains(n))
        })
    }
}

/// A reservation in the conservative schedule: when and where a queued
/// job is promised to run.
#[derive(Debug, Clone)]
struct PlannedStart {
    start: SimTime,
    nodes: Vec<usize>,
}

/// How many queued jobs hold reservations (and are candidates for
/// admission) per [`ConservativeBackfill`] decision. Real conservative
/// schedulers cap this too; jobs beyond the horizon simply wait their
/// turn.
const CONSERVATIVE_DEPTH: usize = 32;

/// Conservative backfilling on dedicated nodes: every queued job (up to
/// the first 32) holds a concrete reservation — a node set and
/// a promised start computed from running jobs' estimates and all
/// earlier reservations — and a job is admitted out of arrival order
/// only when its own reservation starts *now*, i.e. it fits into a hole
/// that delays nobody ahead of it. The contrast with EASY is the
/// classic one: EASY protects only the head job's start time,
/// conservative protects every queued job's.
///
/// Reservation planning is O(queue × nodes × profile events) and runs
/// on every `select`; the engine calls `select` only when the queue,
/// occupancy or node health changed, or when the clock reaches
/// [`AllocPolicy::next_decision`] — the next running job's estimated
/// end after a pass that admitted nothing (an estimate crossing can
/// reorder the availability profile).
#[derive(Debug, Default)]
pub struct ConservativeBackfill {
    decisions: AuditLog<ReservationDecision>,
    /// After a pass that admitted nothing, the next running job's
    /// estimated end; `None` after an admission or with nothing running.
    horizon: Option<SimTime>,
}

impl ConservativeBackfill {
    /// Fresh policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The retained admission audits, oldest first (bounded ring; see
    /// [`AllocPolicy::audit`] for the whole-run tally).
    pub fn decisions(&self) -> impl Iterator<Item = &ReservationDecision> {
        self.decisions.iter()
    }

    /// Plan reservations for the first `CONSERVATIVE_DEPTH` queued jobs, in order.
    /// Returns each job's promised `(start, nodes)`; `None` entries are
    /// jobs the current up-node pool cannot ever satisfy (their promise
    /// is vacuous until a restart widens the pool).
    fn plan(&self, queue: &[QueuedJob], view: &ClusterView) -> Vec<Option<PlannedStart>> {
        let now = view.now;
        let n_nodes = view.occupancy.len();
        let eps = SimDuration::from_nanos(1);
        // Availability: node n is busy until `until[n]`. An occupied
        // node whose job overran its estimate is busy until "just after
        // now" — unknowable, but certainly not free this instant.
        let until: Vec<SimTime> = (0..n_nodes)
            .map(|n| {
                if view.down[n] {
                    SimTime::MAX
                } else if view.occupancy[n] > 0 {
                    let est = view
                        .running
                        .iter()
                        .filter(|r| r.placement.contains(&n))
                        .map(|r| r.est_end)
                        .max()
                        .unwrap_or(now);
                    est.max(now + eps)
                } else {
                    now
                }
            })
            .collect();
        // Future reserved intervals per node, appended as we plan.
        let mut reserved: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); n_nodes];
        let mut plans = Vec::with_capacity(queue.len().min(CONSERVATIVE_DEPTH));
        for q in queue.iter().take(CONSERVATIVE_DEPTH) {
            let need = q.nodes as usize;
            let dur = q.est_runtime.max(eps);
            // Candidate start times: now, every busy-until, every
            // reservation end. The earliest feasible one wins.
            let mut cands: Vec<SimTime> = Vec::with_capacity(n_nodes + 8);
            cands.push(now);
            for n in 0..n_nodes {
                if until[n] > now && until[n] < SimTime::MAX {
                    cands.push(until[n]);
                }
                for &(_, e) in &reserved[n] {
                    cands.push(e);
                }
            }
            cands.sort_unstable();
            cands.dedup();
            let mut plan: Option<PlannedStart> = None;
            for &t in &cands {
                let end = t + dur;
                let free: Vec<usize> = (0..n_nodes)
                    .filter(|&n| {
                        until[n] <= t && reserved[n].iter().all(|&(s, e)| e <= t || s >= end)
                    })
                    .take(need)
                    .collect();
                if free.len() == need {
                    plan = Some(PlannedStart {
                        start: t,
                        nodes: free,
                    });
                    break;
                }
            }
            if let Some(p) = &plan {
                let end = p.start + dur;
                for &n in &p.nodes {
                    reserved[n].push((p.start, end));
                }
            }
            plans.push(plan);
        }
        plans
    }
}

impl AllocPolicy for ConservativeBackfill {
    fn name(&self) -> &'static str {
        "conservative"
    }

    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
        if queue.is_empty() {
            return None;
        }
        let plans = self.plan(queue, view);
        for (qi, plan) in plans.iter().enumerate() {
            let Some(p) = plan else { continue };
            if p.start > view.now {
                continue;
            }
            // Admission: this job's reservation starts now. Audit it
            // against every earlier reservation.
            let d = ReservationDecision {
                job: queue[qi].id,
                placement: p.nodes.clone(),
                est_end: view.now + queue[qi].est_runtime,
                earlier: plans[..qi]
                    .iter()
                    .zip(queue)
                    .filter_map(|(e, q)| e.as_ref().map(|e| (q.id, e.start, e.nodes.clone())))
                    .collect(),
            };
            self.decisions.push(d);
            self.horizon = None;
            return Some(Allocation {
                queue_idx: qi,
                placement: p.nodes.clone(),
            });
        }
        // Nothing admissible: replan when the clock crosses the next
        // running estimate.
        self.horizon = view
            .running
            .iter()
            .map(|r| r.est_end)
            .filter(|&e| e > view.now)
            .min();
        None
    }

    /// The horizon of the last pass that admitted nothing: the next
    /// running estimate it could cross. After an admission the queue
    /// changed, which triggers a pass of its own.
    fn next_decision(&self, _now: SimTime) -> Option<SimTime> {
        self.horizon
    }

    fn audit(&self) -> AuditSummary {
        self.decisions.summary()
    }
}

/// Priority classes with aging on dedicated nodes. A job's *effective*
/// class is its trace class (clamped to `levels`) minus one level per
/// `age_step` spent waiting, floored at 0 — so every job eventually
/// reaches the top class and FCFS order within it, which is the
/// classic starvation guard. Dispatch is head-of-best-class blocking
/// (no backfill): the highest-priority oldest job waits for its nodes.
#[derive(Debug)]
pub struct MultiQueue {
    levels: u32,
    age_step: SimDuration,
    dispatches: u64,
    /// The next aging boundary of the queue the last blocked `select`
    /// saw; `None` after a dispatch (see [`AllocPolicy::next_decision`]).
    promotion_due: Option<SimTime>,
}

impl Default for MultiQueue {
    fn default() -> Self {
        MultiQueue {
            levels: 3,
            age_step: SimDuration::from_millis(20),
            dispatches: 0,
            promotion_due: None,
        }
    }
}

impl MultiQueue {
    /// `levels` priority classes (trace classes clamp into
    /// `0..levels`), one promotion per `age_step` of queue wait.
    pub fn new(levels: u32, age_step: SimDuration) -> Self {
        assert!(levels >= 1, "need at least one class");
        assert!(age_step > SimDuration::ZERO, "aging needs a step");
        MultiQueue {
            levels,
            age_step,
            dispatches: 0,
            promotion_due: None,
        }
    }

    /// Jobs dispatched so far.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// The effective class of `q` at `now`: clamped class minus earned
    /// promotions.
    pub fn effective_class(&self, q: &QueuedJob, now: SimTime) -> u32 {
        let class = q.class.min(self.levels - 1);
        class.saturating_sub(self.promotions(q, now))
    }

    fn promotions(&self, q: &QueuedJob, now: SimTime) -> u32 {
        (now.since(q.submitted).as_nanos() / self.age_step.as_nanos()) as u32
    }

    /// The next aging-step boundary at which some job in `queue` still
    /// above the top class gets promoted.
    fn next_promotion(&self, queue: &[QueuedJob], now: SimTime) -> Option<SimTime> {
        queue
            .iter()
            .filter(|q| self.effective_class(q, now) > 0)
            .map(|q| q.submitted + self.age_step * u64::from(self.promotions(q, now) + 1))
            .min()
    }
}

impl AllocPolicy for MultiQueue {
    fn name(&self) -> &'static str {
        "multiq"
    }

    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
        let head = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (self.effective_class(q, view.now), q.submitted, q.id))?;
        let free = view.nodes_below(1);
        if free.clone().count() < head.1.nodes as usize {
            self.promotion_due = self.next_promotion(queue, view.now);
            return None;
        }
        self.dispatches += 1;
        self.promotion_due = None;
        Some(Allocation {
            queue_idx: head.0,
            placement: free.take(head.1.nodes as usize).collect(),
        })
    }

    /// Between aging boundaries effective classes, and so the blocked
    /// head, stay fixed.
    fn next_decision(&self, _now: SimTime) -> Option<SimTime> {
        self.promotion_due
    }
}

/// One audited fair-share dispatch (see [`FairShare::decisions`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FairShareDispatch {
    /// The dispatched job.
    pub job: u32,
    /// Its user.
    pub user: u32,
    /// The user's decayed usage at dispatch (node-seconds), the key
    /// dispatch orders by.
    pub usage: f64,
    /// The minimum usage over all queued jobs that *fit* the free
    /// nodes at this decision (the dispatched job included).
    pub min_fittable_usage: f64,
}

impl Audited for FairShareDispatch {
    /// The fair-share invariant: the dispatched job's user had the
    /// lowest decayed usage among all queued jobs that could have
    /// started instead (ties broken by arrival order).
    fn holds(&self) -> bool {
        self.usage <= self.min_fittable_usage + 1e-9
    }
}

/// Fair-share dispatch on dedicated nodes: per-user usage accumulates
/// at launch (nodes × estimated runtime), decays exponentially with a
/// configurable half-life, and dispatch order among jobs that fit the
/// free nodes is lowest decayed usage first (then arrival
/// order). Work-conserving: if the poorest user's job doesn't fit, the
/// next-poorest fittable job runs — the skip is what the audit records.
#[derive(Debug)]
pub struct FairShare {
    half_life: SimDuration,
    usage: BTreeMap<u32, f64>,
    last_decay: Option<SimTime>,
    decisions: AuditLog<FairShareDispatch>,
}

impl Default for FairShare {
    fn default() -> Self {
        FairShare {
            half_life: SimDuration::from_millis(50),
            usage: BTreeMap::new(),
            last_decay: None,
            decisions: AuditLog::default(),
        }
    }
}

impl FairShare {
    /// Fresh policy: 50 ms usage half-life (virtual
    /// milliseconds — the traces here run jobs in the ms range).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the usage half-life.
    pub fn with_half_life(mut self, half_life: SimDuration) -> Self {
        assert!(half_life > SimDuration::ZERO, "half-life must be positive");
        self.half_life = half_life;
        self
    }

    /// The user's current decayed usage, node-seconds.
    pub fn usage(&self, user: u32) -> f64 {
        self.usage.get(&user).copied().unwrap_or(0.0)
    }

    /// The retained dispatch audits, oldest first (bounded ring; see
    /// [`AllocPolicy::audit`] for the whole-run tally).
    pub fn decisions(&self) -> impl Iterator<Item = &FairShareDispatch> {
        self.decisions.iter()
    }

    fn decay_to(&mut self, now: SimTime) {
        let Some(last) = self.last_decay else {
            self.last_decay = Some(now);
            return;
        };
        if now <= last {
            return;
        }
        let dt = now.since(last).as_secs_f64();
        // `exp2` rather than `0.5.powf`: optimised builds rewrite the
        // power of a constant base into `exp2`, which rounds differently
        // from `pow`, so debug and release builds would disagree.
        let factor = (-(dt / self.half_life.as_secs_f64())).exp2();
        for u in self.usage.values_mut() {
            *u *= factor;
        }
        self.last_decay = Some(now);
    }
}

impl AllocPolicy for FairShare {
    fn name(&self) -> &'static str {
        "fairshare"
    }

    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
        if queue.is_empty() {
            return None;
        }
        self.decay_to(view.now);
        let free = view.nodes_below(1);
        let nfree = free.clone().count();
        // Among fittable jobs, lowest decayed usage first; ties by
        // arrival then id so the order is total and deterministic.
        let pick = queue
            .iter()
            .enumerate()
            .filter(|(_, q)| q.nodes as usize <= nfree)
            .min_by(|(_, a), (_, b)| {
                self.usage(a.user)
                    .total_cmp(&self.usage(b.user))
                    .then(a.submitted.cmp(&b.submitted))
                    .then(a.id.cmp(&b.id))
            })?;
        let (qi, q) = pick;
        let min_fittable_usage = queue
            .iter()
            .filter(|c| c.nodes as usize <= nfree)
            .map(|c| self.usage(c.user))
            .fold(f64::INFINITY, f64::min);
        let d = FairShareDispatch {
            job: q.id,
            user: q.user,
            usage: self.usage(q.user),
            min_fittable_usage,
        };
        self.decisions.push(d);
        *self.usage.entry(q.user).or_insert(0.0) += q.nodes as f64 * q.est_runtime.as_secs_f64();
        Some(Allocation {
            queue_idx: qi,
            placement: free.take(q.nodes as usize).collect(),
        })
    }

    fn audit(&self) -> AuditSummary {
        self.decisions.summary()
    }
}

/// FCFS with up to two jobs per node: the head job goes to the
/// least-occupied open nodes (spread before stacking), ties by index.
/// Shared by [`Oversubscribed`] and [`Dfrs`]; under the occupancy-2
/// limit an open node holds 0 or 1 jobs, so least-occupied is also
/// most-unpromised-fraction first.
fn pack_two_per_node(queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
    let head = queue.first()?;
    let need = head.nodes as usize;
    if view.nodes_below(2).count() < need {
        return None;
    }
    // Open nodes hold 0 or 1 jobs: empty ones first, then shared ones,
    // each ascending by index.
    let shared = view.nodes_below(2).filter(|&n| view.occupancy[n] == 1);
    let mut placement: Vec<usize> = view.nodes_below(1).chain(shared).take(need).collect();
    placement.sort_unstable();
    Some(Allocation {
        queue_idx: 0,
        placement,
    })
}

/// FCFS with two jobs per node (fractional/oversubscribed allocation).
#[derive(Debug, Default)]
pub struct Oversubscribed;

impl AllocPolicy for Oversubscribed {
    fn name(&self) -> &'static str {
        "oversub"
    }

    fn occupancy_limit(&self) -> u32 {
        2
    }

    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
        pack_two_per_node(queue, view)
    }

    /// The clock never enters the decision.
    fn next_decision(&self, _now: SimTime) -> Option<SimTime> {
        None
    }
}

/// One audited DFRS reallocation (see [`Dfrs::decisions`]).
///
/// At every reallocation epoch the policy recomputes each running job's
/// fractional CPU share on every node it occupies, in milli-units
/// (1000 = one full node). The record keeps the complete share vector
/// so property tests and the torture runner can check conservation
/// after the fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfrsDecision {
    /// Decision time (the epoch boundary that triggered it).
    pub at: SimTime,
    /// Reallocation epoch index (`now / period`).
    pub epoch: u64,
    /// `(node, job, share_milli)` triples, ascending by node then job
    /// id.
    pub shares: Vec<(usize, u32, u32)>,
}

impl Audited for DfrsDecision {
    /// The DFRS conservation invariant for this decision: on every node
    /// the shares handed out sum to at most 1000 milli — no node ever
    /// promises more than one CPU's worth of fractional capacity.
    fn holds(&self) -> bool {
        let mut per_node: BTreeMap<usize, u32> = BTreeMap::new();
        for &(node, _, share) in &self.shares {
            *per_node.entry(node).or_insert(0) += share;
        }
        per_node.values().all(|&sum| sum <= 1000)
    }
}

/// Dynamic fractional resource scheduling (DFRS) — the fractional side
/// of the Casanova/Stillwell/Vivien batch-vs-fractional comparison.
///
/// Allocation is exactly [`Oversubscribed`]'s: FCFS with up to two
/// jobs per node, the head job on the least-occupied nodes — which under
/// that limit are the nodes with the most unpromised fractional
/// capacity — ties broken by node index. On top of allocation the
/// policy *reallocates* at a fixed period: each epoch every node's
/// capacity is split evenly among its co-resident jobs
/// (the yield-maximising split for symmetric CPU-bound jobs), with any
/// remainder milli rotated by `(seed, epoch)` so no job is
/// systematically favoured. Reallocations are pure functions of the
/// cluster view ([`Dfrs::shares_for_weighted`]), audited ([`DfrsDecision`]) and
/// handed to the engine through [`AllocPolicy::share_update`]; the OS
/// level realises the shares via gang rotation
/// (`KernelConfig::gang_epoch`).
#[derive(Debug)]
pub struct Dfrs {
    period: SimDuration,
    seed: u64,
    /// Per-job weights for uneven splits (see [`Self::with_job_weight`]);
    /// jobs without an entry weigh 1.
    weights: BTreeMap<u32, u32>,
    last_epoch: Option<u64>,
    decisions: AuditLog<DfrsDecision>,
}

impl Dfrs {
    /// Fresh policy reallocating every `period` (must be non-zero) with
    /// remainder rotation keyed by `seed`.
    pub fn new(period: SimDuration, seed: u64) -> Self {
        assert!(
            period > SimDuration::ZERO,
            "DFRS reallocation period must be non-zero"
        );
        Dfrs {
            period,
            seed,
            weights: BTreeMap::new(),
            last_epoch: None,
            decisions: AuditLog::default(),
        }
    }

    /// Give `job` weight `weight` in every future split: a node's 1000
    /// milli are divided proportionally to the residents' weights
    /// (floor, remainder rotated exactly as in the even split). All
    /// weights equal — including the all-default case — reproduces
    /// [`Self::new`]'s even split bit for bit, so weighting is inert
    /// until someone actually asks for skew.
    pub fn with_job_weight(mut self, job: u32, weight: u32) -> Self {
        assert!(weight > 0, "DFRS job weight must be non-zero");
        self.weights.insert(job, weight);
        self
    }

    /// The retained reallocation decisions, oldest first — the audit
    /// trail for the share-conservation property tests. Bounded to the
    /// newest [`AUDIT_LOG_CAP`] entries; [`AllocPolicy::audit`] sees
    /// every decision ever taken.
    pub fn decisions(&self) -> impl Iterator<Item = &DfrsDecision> {
        self.decisions.iter()
    }

    /// The share vector for one epoch — a *pure* function of
    /// `(seed, epoch, view, weights)`, shared by the live policy and the
    /// property tests that replay it: same inputs, same shares, bit for
    /// bit. Per node the `k` residents split capacity
    /// `floor(1000·wᵢ/Σw)` milli each (absent jobs weigh 1), with the
    /// remainder milli assigned round-robin starting at job index
    /// `(seed ^ epoch) % k`, so shares sum to exactly 1000 on every
    /// occupied node. An empty weight map gives the even split: every
    /// floor is `1000 / k` and the remainder `1000 % k`.
    pub fn shares_for_weighted(
        seed: u64,
        epoch: u64,
        view: &ClusterView,
        weights: &BTreeMap<u32, u32>,
    ) -> Vec<(usize, u32, u32)> {
        let mut shares = Vec::new();
        for node in 0..view.occupancy.len() {
            let mut jobs: Vec<u32> = view
                .running
                .iter()
                .filter(|r| r.placement.contains(&node))
                .map(|r| r.id)
                .collect();
            if jobs.is_empty() {
                continue;
            }
            jobs.sort_unstable();
            let k = jobs.len();
            let w: Vec<u64> = jobs
                .iter()
                .map(|j| u64::from(weights.get(j).copied().unwrap_or(1)))
                .collect();
            let total: u64 = w.iter().sum();
            let floors: Vec<u32> = w.iter().map(|&wi| (1000 * wi / total) as u32).collect();
            let rem = 1000 - floors.iter().sum::<u32>();
            let start = ((seed ^ epoch) % k as u64) as usize;
            for (i, &job) in jobs.iter().enumerate() {
                let extra = (((i + k - start) % k) as u32) < rem;
                shares.push((node, job, floors[i] + u32::from(extra)));
            }
        }
        shares
    }
}

impl AllocPolicy for Dfrs {
    fn name(&self) -> &'static str {
        "dfrs"
    }

    fn occupancy_limit(&self) -> u32 {
        2
    }

    fn select(&mut self, queue: &[QueuedJob], view: &ClusterView) -> Option<Allocation> {
        pack_two_per_node(queue, view)
    }

    fn share_update(&mut self, view: &ClusterView) -> Vec<(usize, u32, u32)> {
        let epoch = view.now.as_nanos() / self.period.as_nanos();
        if self.last_epoch == Some(epoch) {
            return Vec::new();
        }
        self.last_epoch = Some(epoch);
        let shares = Self::shares_for_weighted(self.seed, epoch, view, &self.weights);
        if shares.is_empty() {
            // Idle cluster: nothing to reallocate, nothing to audit.
            return shares;
        }
        let d = DfrsDecision {
            at: view.now,
            epoch,
            shares: shares.clone(),
        };
        self.decisions.push(d);
        shares
    }

    /// Allocation ignores the clock; reallocation happens once per
    /// epoch, so the next epoch boundary is the only time trigger.
    fn next_decision(&self, now: SimTime) -> Option<SimTime> {
        match self.last_epoch {
            Some(e) => Some(SimTime::from_nanos((e + 1) * self.period.as_nanos())),
            None => Some(now),
        }
    }

    fn audit(&self) -> AuditSummary {
        self.decisions.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn qj(id: u32, nodes: u32, est_ns: u64) -> QueuedJob {
        QueuedJob {
            id,
            nodes,
            submitted: t(0),
            est_runtime: SimDuration::from_nanos(est_ns),
            user: 0,
            class: 0,
        }
    }

    fn view(occ: &[u32], running: Vec<RunningJob>) -> ClusterView {
        ClusterView {
            now: t(1_000),
            occupancy: occ.to_vec(),
            running,
            down: vec![false; occ.len()],
        }
    }

    #[test]
    fn fcfs_blocks_behind_wide_head() {
        let mut p = Fcfs;
        let queue = [qj(0, 4, 100), qj(1, 1, 100)];
        // Only 2 free nodes: head (4-wide) blocks, and FCFS never skips.
        let v = view(&[0, 0, 1, 1], vec![]);
        assert!(p.select(&queue, &v).is_none());
        let v = view(&[0, 0, 0, 0], vec![]);
        let a = p.select(&queue, &v).unwrap();
        assert_eq!(a.queue_idx, 0);
        assert_eq!(a.placement, vec![0, 1, 2, 3]);
    }

    #[test]
    fn easy_backfills_short_job_into_shadow_window() {
        let mut p = EasyBackfill::new();
        // Node 0,1 busy with job 9 until t=10_000; head wants 4 nodes,
        // so nodes 2,3 are free but reserved, shadow = 10_000.
        let running = vec![RunningJob {
            id: 9,
            placement: vec![0, 1],
            est_end: t(10_000),
        }];
        let queue = [qj(0, 4, 1), qj(1, 2, 5_000), qj(2, 2, 100_000)];
        let v = view(&[1, 1, 0, 0], running);
        // Job 1 (est end 6_000 <= shadow 10_000) backfills onto the free
        // nodes; job 2 would outlive the shadow and both free nodes are
        // reserved, so it must wait.
        let a = p.select(&queue, &v).unwrap();
        assert_eq!(a.queue_idx, 1);
        assert_eq!(a.placement, vec![2, 3]);
        let d = p.decisions().next().unwrap();
        assert_eq!(d.job, 1);
        assert_eq!(d.head, 0);
        assert_eq!(d.reserved, vec![0, 1, 2, 3]);
        assert!(d.holds());
    }

    #[test]
    fn easy_backfill_avoids_reserved_nodes_for_long_jobs() {
        let mut p = EasyBackfill::new();
        // Head wants 2; node 0 busy until 10_000, nodes 1..4 free. The
        // reservation is {0 free? no}: free = [1,2,3], head needs 2 →
        // fits immediately. Make head want 4 instead: free 3 of 4.
        let running = vec![RunningJob {
            id: 9,
            placement: vec![0],
            est_end: t(10_000),
        }];
        // Head wants 2 but cluster view shows free = [2,3] with node 1
        // also busy; reserved = [2,3]... use a case where reserved is a
        // strict subset of free: head wants 2, free = [1,2,3]: fits now.
        // So: head wants 3, free = [1,2], reserved = [1,2,0], shadow
        // 10_000. A long 1-node job cannot use 1 or 2 (reserved), none
        // outside → blocked; a short one can.
        let queue = [qj(0, 3, 1), qj(1, 1, 100_000)];
        let v = view(&[1, 0, 0, 1], running.clone());
        assert!(
            p.select(&queue, &v).is_none(),
            "long job must not take a reserved free node"
        );
        let queue = [qj(0, 3, 1), qj(1, 1, 2_000)];
        let a = p.select(&queue, &v).unwrap();
        assert_eq!(a.queue_idx, 1);
        assert!(p.decisions().next().unwrap().holds());
    }

    #[test]
    fn down_nodes_are_never_allocated() {
        let mut p = Fcfs;
        let queue = [qj(0, 2, 100)];
        let mut v = view(&[0, 0, 0, 0], vec![]);
        v.down = vec![false, true, true, false];
        let a = p.select(&queue, &v).unwrap();
        assert_eq!(a.placement, vec![0, 3], "placement skips down nodes");
        v.down = vec![true, true, true, false];
        assert!(
            p.select(&queue, &v).is_none(),
            "too few up nodes blocks the head"
        );
        // Oversubscription does not rescue a down node either.
        let mut o = Oversubscribed;
        let mut v = view(&[0, 1, 0, 0], vec![]);
        v.down = vec![false, false, true, true];
        let a = o.select(&queue, &v).unwrap();
        assert_eq!(a.placement, vec![0, 1]);
    }

    /// Test records: even numbers keep the promise, odd ones break it.
    impl Audited for u32 {
        fn holds(&self) -> bool {
            self.is_multiple_of(2)
        }
    }

    /// Push `bad` then `good` into a one-entry ring: the ring keeps only
    /// `good`, yet the tally still counts and names the dropped `bad`.
    fn assert_dropped_violation_survives<T: Audited + Debug>(bad: T, good: T) {
        let first = format!("{bad:?}");
        let mut log = AuditLog::with_cap(1);
        log.push(bad);
        log.push(good);
        assert!(
            log.iter().all(Audited::holds),
            "only the clean record is retained"
        );
        let s = log.summary();
        assert_eq!((s.checked, s.violations), (2, 1));
        assert_eq!(s.first, Some(first));
    }

    #[test]
    fn audit_log_ring_keeps_newest_and_counts_all() {
        let mut log: AuditLog<u32> = AuditLog::with_cap(3);
        for i in 0..5 {
            log.push(i);
        }
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        let s = log.summary();
        assert_eq!((s.checked, s.violations), (5, 2));
        assert_eq!(
            s.first.as_deref(),
            Some("1"),
            "first violation, since dropped"
        );

        // Every audited record type: a violation the ring has dropped is
        // still counted and reported.
        let backfill = |est_end| BackfillDecision {
            job: 1,
            head: 0,
            shadow: t(10),
            est_end: t(est_end),
            reserved: vec![0],
            placement: vec![0],
        };
        assert_dropped_violation_survives(backfill(20), backfill(5));
        let admission = |start| ReservationDecision {
            job: 1,
            placement: vec![0],
            est_end: t(20),
            earlier: vec![(0, t(start), vec![0])],
        };
        assert_dropped_violation_survives(admission(10), admission(30));
        let dispatch = |usage| FairShareDispatch {
            job: 1,
            user: 1,
            usage,
            min_fittable_usage: 1.0,
        };
        assert_dropped_violation_survives(dispatch(2.0), dispatch(1.0));
        let realloc = |share| DfrsDecision {
            at: t(0),
            epoch: 0,
            shares: vec![(0, 1, share), (0, 2, 500)],
        };
        assert_dropped_violation_survives(realloc(600), realloc(500));
    }

    #[test]
    fn conservative_backfills_only_into_true_holes() {
        // Job 9 runs on nodes 0,1 until 10_000. Queue: head wants 4
        // nodes (must wait for 0,1), then a 2-node job ending after the
        // head's promised start, then a 2-node job ending before it.
        let running = vec![RunningJob {
            id: 9,
            placement: vec![0, 1],
            est_end: t(10_000),
        }];
        let v = view(&[1, 1, 0, 0], running);
        // Long filler would push the head's reservation (its nodes 2,3
        // are exactly where the head must run at 10_000): blocked.
        let mut p = ConservativeBackfill::new();
        let queue = [qj(0, 4, 1_000), qj(1, 2, 100_000)];
        assert!(p.select(&queue, &v).is_none());
        assert_eq!(p.audit().checked, 0);
        // Short filler (ends 6_000 <= 10_000) fits the hole: admitted,
        // and the audit shows the head's reservation intact.
        let queue = [qj(0, 4, 1_000), qj(1, 2, 5_000)];
        let a = p.select(&queue, &v).unwrap();
        assert_eq!(a.queue_idx, 1);
        assert_eq!(a.placement, vec![2, 3]);
        let d = p.decisions().next().unwrap();
        assert_eq!(d.job, 1);
        assert_eq!(d.earlier.len(), 1);
        assert_eq!(d.earlier[0].0, 0);
        assert_eq!(d.earlier[0].1, t(10_000));
        assert!(d.holds());
        assert_eq!(p.audit().violations, 0);
    }

    #[test]
    fn conservative_protects_second_queued_job_where_easy_does_not() {
        // The canonical EASY-vs-conservative divergence: job 9 holds
        // nodes 0,1 until 10_000; queue = [4-wide head, 2-wide mid
        // (est 20_000), 2-wide tail (est 9_000)]. EASY reserves only
        // for the head (shadow 10_000, reserved all 4 nodes), so the
        // tail (ends 10_000 <= shadow... est 9_000 ends exactly at
        // 10_000) backfills — delaying the mid job, which EASY never
        // promised anything. Conservative reserves for the mid job at
        // 10_000 too, so the tail (which would end at 10_000 on nodes
        // 2,3 that the *head* needs) still fits, but a tail that ends
        // later than 10_000 cannot start even though EASY's shadow
        // check on the head alone might allow it on non-reserved nodes.
        let running = vec![RunningJob {
            id: 9,
            placement: vec![0, 1],
            est_end: t(10_000),
        }];
        let v = view(&[1, 1, 0, 0], running);
        let queue = [qj(0, 2, 1_000), qj(1, 2, 20_000), qj(2, 2, 9_000)];
        // Head (2-wide) fits now on 2,3 for both policies; admit it
        // conceptually by checking queue_idx 0 first.
        let mut c = ConservativeBackfill::new();
        let a = c.select(&queue, &v).unwrap();
        assert_eq!(a.queue_idx, 0, "head fits immediately");
        // Now the interesting shape: head 4-wide waits at 10_000, mid
        // 2-wide would be planned at 10_000 + 1_000 on freed nodes; a
        // tail ending past the head's start but on nodes the *mid* job
        // will need must wait under conservative.
        let queue = [qj(0, 4, 1_000), qj(1, 2, 20_000), qj(2, 2, 9_500)];
        let mut c = ConservativeBackfill::new();
        assert!(
            c.select(&queue, &v).is_none(),
            "tail ends at 10_500 > head start 10_000 on reserved nodes"
        );
        assert_eq!(c.audit().violations, 0);
    }

    #[test]
    fn conservative_replans_on_view_change_and_estimate_crossing() {
        let running = vec![RunningJob {
            id: 9,
            placement: vec![0, 1],
            est_end: t(10_000),
        }];
        let v = view(&[1, 1, 0, 0], running.clone());
        let queue = [qj(0, 4, 1_000), qj(1, 2, 100_000)];
        let mut p = ConservativeBackfill::new();
        assert!(p.select(&queue, &v).is_none());
        // Nothing admitted: the next decision is job 9's estimated end.
        assert_eq!(p.next_decision(v.now), Some(t(10_000)));
        // Same view again: the replan still admits nothing.
        assert!(p.select(&queue, &v).is_none());
        // Running job finished early: nodes free, head admissible.
        let v2 = view(&[0, 0, 0, 0], vec![]);
        let a = p.select(&queue, &v2).unwrap();
        assert_eq!(a.queue_idx, 0);
        assert_eq!(p.next_decision(v2.now), None);
        // Clock past the estimate with the view otherwise unchanged.
        let mut p = ConservativeBackfill::new();
        assert!(p.select(&queue, &v).is_none());
        let mut v3 = view(&[1, 1, 0, 0], running);
        v3.now = t(10_001);
        // Job 9 overran its estimate; occupied nodes are busy until
        // "just after now", so the 4-wide head still can't start (no
        // false admit). The observable: still None, and a subsequent
        // free view admits.
        assert!(p.select(&queue, &v3).is_none());
        let a = p.select(&queue, &v2).unwrap();
        assert_eq!(a.queue_idx, 0);
    }

    #[test]
    fn multiqueue_prefers_better_class_and_ages() {
        let mut p = MultiQueue::new(3, SimDuration::from_nanos(10_000));
        let mut lo = qj(0, 1, 100);
        lo.class = 2;
        let mut hi = qj(1, 1, 100);
        hi.class = 0;
        hi.submitted = t(500);
        // Both fit; class 0 wins despite arriving later.
        let v = view(&[0, 0], vec![]);
        let a = p.select(&[lo, hi], &v).unwrap();
        assert_eq!(a.queue_idx, 1);
        // After 2 age steps the class-2 job is effectively class 0 and
        // its earlier submit time breaks the tie.
        let mut v = view(&[0, 0], vec![]);
        v.now = t(20_000);
        assert_eq!(p.effective_class(&lo, v.now), 0);
        let a = p.select(&[lo, hi], &v).unwrap();
        assert_eq!(a.queue_idx, 0);
        assert_eq!(p.dispatches(), 2);
    }

    #[test]
    fn multiqueue_head_blocks_like_fcfs_within_class() {
        let mut p = MultiQueue::default();
        let wide = qj(0, 4, 100);
        let narrow = qj(1, 1, 100);
        // Same class: the wide head blocks the narrow job (no backfill
        // in the multi-queue policy).
        let v = view(&[0, 0, 1, 1], vec![]);
        assert!(p.select(&[wide, narrow], &v).is_none());
    }

    #[test]
    fn fairshare_orders_by_usage_ratio_and_audits() {
        let mut p = FairShare::new();
        let mut a0 = qj(0, 1, 1_000_000);
        a0.user = 0;
        let mut b0 = qj(1, 1, 1_000_000);
        b0.user = 1;
        b0.submitted = t(500);
        let v = view(&[0, 0], vec![]);
        // Fresh users: arrival order breaks the 0-0 ratio tie.
        let a = p.select(&[a0, b0], &v).unwrap();
        assert_eq!(a.queue_idx, 0);
        assert!(p.usage(0) > 0.0);
        // User 0 now has usage; user 1's job goes first even though a
        // second user-0 job arrived earlier.
        let mut a1 = qj(2, 1, 1_000_000);
        a1.user = 0;
        let sel = p.select(&[a1, b0], &v).unwrap();
        assert_eq!(sel.queue_idx, 1, "poorer user wins");
        assert_eq!(
            p.audit(),
            AuditSummary {
                checked: 2,
                violations: 0,
                first: None
            }
        );
        assert!(p.decisions().all(Audited::holds));
    }

    #[test]
    fn fairshare_is_work_conserving_and_decays() {
        let mut p = FairShare::new().with_half_life(SimDuration::from_nanos(1_000));
        let mut wide = qj(0, 4, 1_000);
        wide.user = 0;
        let mut narrow = qj(1, 1, 1_000);
        narrow.user = 1;
        // Only 1 free node: user 0's wide job can't fit, user 1 runs.
        let v = view(&[1, 1, 1, 0], vec![]);
        let a = p.select(&[wide, narrow], &v).unwrap();
        assert_eq!(a.queue_idx, 1);
        let u1 = p.usage(1);
        assert!(u1 > 0.0);
        // 10 half-lives later the usage has decayed ~1000x.
        let mut v2 = view(&[0, 0, 0, 0], vec![]);
        v2.now = t(11_000);
        let _ = p.select(&[wide], &v2);
        assert!(p.usage(1) < u1 / 500.0, "usage decays with half-life");
    }

    #[test]
    fn oversubscribed_stacks_two_jobs_per_node() {
        let mut p = Oversubscribed;
        let queue = [qj(0, 2, 100)];
        let v = view(&[1, 1, 2, 2], vec![]);
        let a = p.select(&queue, &v).unwrap();
        assert_eq!(a.placement, vec![0, 1], "least-occupied under the cap");
        let v = view(&[2, 2, 2, 2], vec![]);
        assert!(p.select(&queue, &v).is_none(), "cap 2 is a hard limit");
        assert_eq!(p.occupancy_limit(), 2);
    }

    fn rj(id: u32, placement: &[usize]) -> RunningJob {
        RunningJob {
            id,
            placement: placement.to_vec(),
            est_end: t(1_000_000),
        }
    }

    #[test]
    fn dfrs_packs_by_remaining_fraction() {
        let mut p = Dfrs::new(SimDuration::from_millis(1), 7);
        let queue = [qj(0, 2, 100)];
        // Node 2 is full; nodes 1 and 3 have a whole node unpromised.
        let v = view(&[1, 0, 2, 0], vec![]);
        let a = p.select(&queue, &v).unwrap();
        assert_eq!(a.placement, vec![1, 3], "most remaining fraction first");
        let v = view(&[2, 2, 2, 2], vec![]);
        assert!(p.select(&queue, &v).is_none(), "cap 2 is a hard limit");
        assert_eq!(p.occupancy_limit(), 2);
    }

    #[test]
    fn dfrs_shares_conserve_on_every_node() {
        // Three co-residents force a remainder: 1000 = 3 × 333 + 1.
        let running = vec![rj(10, &[0, 1]), rj(11, &[0]), rj(12, &[0])];
        for epoch in 0..8u64 {
            for seed in 0..8u64 {
                let v = view(&[3, 1, 0], running.clone());
                let shares = Dfrs::shares_for_weighted(seed, epoch, &v, &BTreeMap::new());
                let mut per_node = BTreeMap::new();
                for &(n, _, s) in &shares {
                    *per_node.entry(n).or_insert(0u32) += s;
                }
                assert_eq!(per_node.get(&0), Some(&1000), "fractions conserve");
                assert_eq!(per_node.get(&1), Some(&1000));
                assert_eq!(per_node.get(&2), None, "idle node promises nothing");
            }
        }
        // The remainder milli rotates with the epoch: job 10 doesn't
        // absorb it every time.
        let v = view(&[3, 1, 0], running);
        let who_extra = |epoch| {
            Dfrs::shares_for_weighted(0, epoch, &v, &BTreeMap::new())
                .iter()
                .find(|&&(n, _, s)| n == 0 && s == 334)
                .map(|&(_, j, _)| j)
                .unwrap()
        };
        assert_ne!(who_extra(0), who_extra(1), "remainder rotates by epoch");
    }

    #[test]
    fn dfrs_weighted_shares_skew_and_conserve() {
        let running = vec![rj(10, &[0]), rj(11, &[0])];
        let v = view(&[2], running);
        // 3:1 weights → 750/250, no remainder to rotate.
        let mut w = BTreeMap::new();
        w.insert(10u32, 3u32);
        w.insert(11u32, 1u32);
        for epoch in 0..8u64 {
            let shares = Dfrs::shares_for_weighted(9, epoch, &v, &w);
            assert_eq!(shares, vec![(0, 10, 750), (0, 11, 250)]);
        }
        // Skewed weights with a remainder still conserve exactly.
        w.insert(11u32, 2u32); // 3:2 → 600/400
        let shares = Dfrs::shares_for_weighted(9, 0, &v, &w);
        assert_eq!(shares.iter().map(|&(_, _, s)| s).sum::<u32>(), 1000);
        assert_eq!(shares[0].2, 600);
        // Uniform weights are byte-identical to the unweighted split.
        let mut u = BTreeMap::new();
        u.insert(10u32, 7u32);
        u.insert(11u32, 7u32);
        for (epoch, seed) in [(0u64, 0u64), (3, 9), (17, 5)] {
            assert_eq!(
                Dfrs::shares_for_weighted(seed, epoch, &v, &u),
                Dfrs::shares_for_weighted(seed, epoch, &v, &BTreeMap::new()),
                "equal weights degenerate to the even split"
            );
        }
    }

    #[test]
    fn dfrs_with_job_weight_feeds_share_update() {
        let mut p = Dfrs::new(SimDuration::from_nanos(1_000), 3)
            .with_job_weight(1, 3)
            .with_job_weight(2, 1);
        let running = vec![rj(1, &[0]), rj(2, &[0])];
        let mut v = view(&[2], running);
        v.now = t(1_500);
        assert_eq!(p.share_update(&v), vec![(0, 1, 750), (0, 2, 250)]);
        assert_eq!(p.audit().violations, 0);
    }

    #[test]
    fn dfrs_reallocation_is_pure_and_periodic() {
        let mut a = Dfrs::new(SimDuration::from_nanos(1_000), 42);
        let mut b = Dfrs::new(SimDuration::from_nanos(1_000), 42);
        let running = vec![rj(1, &[0]), rj(2, &[0])];
        let mut v = view(&[2, 0], running);
        v.now = t(1_500);
        let sa = a.share_update(&v);
        assert!(!sa.is_empty(), "first epoch crossing reallocates");
        assert_eq!(sa, b.share_update(&v), "same seed + view, same shares");
        v.now = t(1_900);
        assert!(
            a.share_update(&v).is_empty(),
            "no reallocation within an epoch"
        );
        v.now = t(2_100);
        assert!(!a.share_update(&v).is_empty(), "next epoch reallocates");
        assert_eq!(
            a.audit(),
            AuditSummary {
                checked: 2,
                violations: 0,
                first: None
            }
        );
        assert!(a.decisions().all(Audited::holds));
    }
}
