//! Unified scheduler observability: the [`SchedObserver`] sink API.
//!
//! Every decision the kernel makes — which class supplied the next task,
//! whether a wakeup preempted, where a fork landed, what a balance pass
//! moved, why a tick was skipped — is published as a [`SchedEvent`] to
//! the observers attached to the node. Observers are pure sinks: they
//! receive copies of decision data and may never touch the RNG, the
//! event queue or any task state, so attaching one cannot perturb the
//! simulation (the differential tests in `tests/observability.rs` hold
//! the kernel to that: byte-identical `state_fingerprint()`, counters
//! and execution times with observers on and off).
//!
//! With no observer attached the cost is a single is-empty branch per
//! decision point; the event payloads are plain `Copy` data already at
//! hand, so nothing is formatted or allocated on the disabled path.
//!
//! Two sinks ship with the kernel:
//!
//! * [`RingSink`] — a bounded, head-kept log of every [`SchedEvent`]
//!   with its timestamp, plus the ASCII Gantt renderer over its
//!   switches. It is what [`crate::Node::enable_trace`] attaches, what
//!   [`crate::analysis::TraceAnalysis`] reads, and the one trace store:
//!   [`chrome_trace_json`] renders a Chrome-trace (a.k.a. Trace Event
//!   Format / Perfetto JSON) document from it at export time — one "X"
//!   complete event per occupancy slice per CPU plus "i" instants for
//!   migrations, wakeups, network messages and batch job lifecycle.
//!   The output loads directly in `chrome://tracing` or
//!   <https://ui.perfetto.dev>.
//! * [`MetricsSink`] — fills an [`hpl_perf::SchedMetrics`] registry:
//!   decision counters, per-CPU switch counts and log2 histograms of
//!   timeslice length, off-CPU latency and migration inter-arrival.
//!
//! One caveat, by design: ticks batched by the quiescence fast-forward
//! (see `node.rs`) are *not* replayed through observers — they are
//! provably inert, so no switch, wakeup or migration can hide inside a
//! batched window (folded ticks batched there included) — and
//! dispatched quiescent ticks still arrive as [`TickOutcome::Quiescent`]. Observer streams are therefore compared
//! within one event-loop flavour, while simulation state is identical
//! across both.

use crate::class::ClassKind;
use crate::sync::ChanId;
use crate::task::{Pid, Policy};
use hpl_perf::SchedMetrics;
use hpl_sim::{json, SimDuration, SimTime};
use hpl_topology::CpuId;
use std::any::Any;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Why a task's CPU assignment changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateReason {
    /// Fork-time placement of a new task.
    Fork,
    /// Wakeup placement of a blocked task.
    Wakeup,
    /// Load balancer (periodic, new-idle or RT push) moved it.
    Balance,
    /// `sched_setaffinity` forced it off an excluded CPU.
    Affinity,
}

/// Why a task left the runnable population ([`SchedEvent::Deactivate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeactivateReason {
    /// Blocked: sleep, channel/barrier wait, or `waitpid`.
    Block,
    /// Exited for good.
    Exit,
}

/// Verdict of a wakeup-preemption check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptVerdict {
    /// The CPU was idle; the woken task takes it without a contest.
    IdleCpu,
    /// The woken task's class outranks the running task's class.
    HigherClass,
    /// The woken task's class is outranked; no preemption possible.
    LowerClass,
    /// Same class, and the class's `wakeup_preempt` said yes.
    Granted,
    /// Same class, and the class's `wakeup_preempt` said no.
    Denied,
}

impl PreemptVerdict {
    /// True iff the verdict displaced (or immediately dispatched onto)
    /// the CPU — i.e. a reschedule was requested.
    pub fn preempts(self) -> bool {
        matches!(
            self,
            PreemptVerdict::IdleCpu | PreemptVerdict::HigherClass | PreemptVerdict::Granted
        )
    }
}

/// What a dispatched timer tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// Provably inert (idle CPU or lone tickless-HPC task, no balance
    /// due): counted and dropped without touching any state.
    Quiescent,
    /// Handler ran but charged no tick cost (NOHZ idle / tickless-HPC).
    Skipped,
    /// Busy tick on a CPU whose ticks fold (the running task's class
    /// says its tick is skippable, no balance level is due): counted;
    /// its cost and the class tick are accounted when the CPU next
    /// settles.
    Folded,
    /// Full tick: cost charged, class `task_tick` ran.
    Accounted {
        /// Whether the class requested a reschedule (slice expiry).
        resched: bool,
    },
}

/// Which balancer produced a [`SchedEvent::Balance`] decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceKind {
    /// New-idle balance: a CPU found all class queues empty in
    /// `schedule()` and tried to pull work.
    NewIdle,
    /// Periodic balance at one scheduling-domain level.
    Periodic {
        /// Domain level (0 = innermost).
        level: usize,
    },
    /// RT overload push after an RT wakeup.
    RtPush,
}

/// One kernel scheduling decision, published to every attached observer.
///
/// All payloads are small `Copy` data that the decision point already
/// holds; constructing one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// `__schedule()` picked (or failed to pick) a next task.
    Pick {
        /// CPU that rescheduled.
        cpu: CpuId,
        /// Task that was current when `schedule()` entered.
        prev: Option<Pid>,
        /// Task picked to run next (`None` = idle).
        picked: Option<Pid>,
        /// Class that supplied the pick.
        class: Option<ClassKind>,
        /// Whether the pick only succeeded after a new-idle balance
        /// pulled work over.
        via_idle_balance: bool,
        /// `prev`'s CFS virtual runtime *after* deschedule accounting
        /// and any re-enqueue renormalisation, `None` when the CPU was
        /// idle or `prev` is not a fair-class task. Lets an external
        /// oracle check vruntime monotonicity across consecutive
        /// descheduls without reaching into the task table.
        prev_vruntime: Option<u64>,
    },
    /// `sched_switch`: the CPU's current task changed.
    Switch {
        /// CPU where the switch happened.
        cpu: CpuId,
        /// Previous current (`None` = was idle).
        from: Option<Pid>,
        /// New current (`None` = going idle).
        to: Option<Pid>,
    },
    /// A wakeup-preemption check ran after `woken` was enqueued.
    PreemptCheck {
        /// CPU checked.
        cpu: CpuId,
        /// Its current task at check time.
        curr: Option<Pid>,
        /// The task just enqueued.
        woken: Pid,
        /// The decision and its rationale.
        verdict: PreemptVerdict,
    },
    /// `sched_wakeup`: a blocked task became runnable.
    Wakeup {
        /// Task woken.
        pid: Pid,
        /// CPU it was enqueued on.
        cpu: CpuId,
    },
    /// The current task left the runnable population: it blocked or
    /// exited. Emitted at the deactivation point itself, *before* the
    /// reschedule it triggers, so a following [`SchedEvent::Pick`] that
    /// names the pid as `prev` refers to an already-departed task.
    Deactivate {
        /// Task leaving the CPU.
        pid: Pid,
        /// CPU it was current on.
        cpu: CpuId,
        /// Block or exit.
        reason: DeactivateReason,
    },
    /// A task's scheduling policy was established: `from` is `None` at
    /// creation time and `Some` on a `sched_setscheduler` call.
    SetSched {
        /// Task whose policy changed.
        pid: Pid,
        /// Previous policy (`None`: task creation).
        from: Option<Policy>,
        /// New policy.
        to: Policy,
    },
    /// A noise-daemon activation: the woken task belongs to the node's
    /// daemon population (fires alongside [`SchedEvent::Wakeup`]).
    NoiseArrival {
        /// The daemon (or daemon burst child).
        pid: Pid,
        /// CPU it landed on.
        cpu: CpuId,
    },
    /// A new task was created and placed by its class's fork balancer.
    ForkPlaced {
        /// The new task.
        pid: Pid,
        /// Its parent (`None` for harness spawns).
        parent: Option<Pid>,
        /// Chosen CPU.
        cpu: CpuId,
    },
    /// `sched_migrate_task`: a task changed CPUs.
    Migrate {
        /// Task moved.
        pid: Pid,
        /// Source CPU.
        from: CpuId,
        /// Destination CPU.
        to: CpuId,
        /// Why it moved.
        reason: MigrateReason,
    },
    /// A balance pass completed.
    Balance {
        /// CPU that ran the balancer.
        cpu: CpuId,
        /// Which balancer.
        kind: BalanceKind,
        /// Migrations actually applied.
        migrations: u32,
    },
    /// A cross-node message left this node: a [`crate::Step::NetSend`]
    /// hit a channel registered as a network endpoint and was captured
    /// for the cluster interconnect to route.
    NetSend {
        /// Sending task.
        pid: Pid,
        /// CPU it ran on.
        cpu: CpuId,
        /// Destination channel (lives on the destination node).
        chan: ChanId,
        /// Tokens carried.
        tokens: u32,
        /// Payload size.
        bytes: u64,
    },
    /// A cross-node message arrived: the cluster driver's delivery
    /// event deposited tokens into the local channel, waking any waiter
    /// exactly as a local notify would.
    NetDeliver {
        /// Channel delivered to.
        chan: ChanId,
        /// Tokens deposited.
        tokens: u32,
        /// Send-to-delivery time (wire latency + serialisation +
        /// contention queueing).
        latency: SimDuration,
        /// Portion of `latency` spent queued behind earlier messages on
        /// the same link (zero on an uncontended link).
        queued: SimDuration,
    },
    /// A device interrupt was delivered.
    Irq {
        /// Servicing CPU.
        cpu: CpuId,
        /// Handler cost charged.
        cost: SimDuration,
    },
    /// A timer tick was dispatched.
    Tick {
        /// Ticked CPU.
        cpu: CpuId,
        /// What the tick did.
        outcome: TickOutcome,
    },
    /// A batch-level job entered the cluster queue. Batch events are
    /// published by the cluster-level scheduler (`hpl-batch`) through
    /// [`crate::Node::publish`] on its head node, so one observer stream
    /// carries both scheduling levels.
    JobSubmit {
        /// Batch job id (trace order).
        job: u32,
        /// Queue depth after the submit.
        queue_depth: u32,
    },
    /// A batch-level job was allocated nodes and launched.
    JobStart {
        /// Batch job id.
        job: u32,
        /// Queue depth after the job left the queue.
        queue_depth: u32,
        /// Time the job spent queued (submit → start).
        waited: SimDuration,
    },
    /// A batch-level job's launcher trees all exited.
    JobEnd {
        /// Batch job id.
        job: u32,
        /// Queue depth at completion time.
        queue_depth: u32,
    },
    /// The node's gang controller switched the active gang — an epoch
    /// boundary fired or the live gang set changed. `None` means
    /// rotation ended (fewer than two gangs remain).
    GangEpoch {
        /// Gang whose tasks are now eligible (`None`: no rotation).
        active: Option<u64>,
        /// Live gang count after the switch.
        gangs: u32,
    },
    /// A DFRS reallocation assigned a job a fractional CPU share on a
    /// node. Published by the batch scheduler through
    /// [`crate::Node::publish`], like the job lifecycle events.
    JobShare {
        /// Batch job id.
        job: u32,
        /// Node index hosting the share.
        node: u32,
        /// Share in milli-units (1000 = the node's full CPU capacity).
        share_milli: u32,
    },
    /// Weighted gang slicing started a slice: `gang` owns the CPU until
    /// the slice boundary `slice_ns` from now. Emitted only while a
    /// share table is set (see [`crate::Node::gang_set_share`]), once
    /// per slice; a mid-slice share change re-emits with the corrected
    /// remainder. Unweighted rotation emits only [`Self::GangEpoch`].
    GangSlice {
        /// Gang that owns the starting slice.
        gang: u64,
        /// The gang's milli-CPU share (default weight 1000).
        share_milli: u32,
        /// Slice length — time until the next boundary, in ns.
        slice_ns: u64,
        /// Live gang count (the rotation period spans `gangs` epochs).
        gangs: u32,
    },
    /// A CPU's running task changed gang context (emitted alongside
    /// [`Self::Switch`] while any gang is enrolled): the incoming
    /// task's gang, `None` for gangless tasks or an idling CPU. This is
    /// what lets [`MetricsSink`] integrate per-gang busy time so share
    /// skew is *observable*, not just scheduled.
    GangRun {
        /// The switching CPU.
        cpu: CpuId,
        /// Gang of the task now running (`None`: idle or gangless).
        gang: Option<u64>,
    },
    /// The user-space coordination arbiter granted a CPU lease
    /// (`hpl-coord`'s cooperative backend; published from the arbiter
    /// task through [`crate::Step::Emit`]).
    Lease {
        /// Gang (job) receiving the lease.
        gang: u64,
        /// The gang's registered milli-CPU share.
        share_milli: u32,
        /// Blocked ranks released by this grant.
        granted: u32,
        /// Registered co-resident jobs at grant time.
        jobs: u32,
    },
}

/// A sink for kernel scheduling decisions.
///
/// Implementations must be pure consumers: `observe` may only mutate
/// the sink itself. The kernel guarantees events arrive in simulation
/// order with non-decreasing timestamps. `Send` because whole
/// [`crate::Node`]s move between host threads in the cluster's parallel
/// co-simulation.
pub trait SchedObserver: Any + Send {
    /// Receive one decision, stamped with the simulation time at which
    /// it was made.
    fn observe(&mut self, at: SimTime, ev: &SchedEvent);

    /// Downcast support (`Node::observer::<T>()`).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Handle to an observer attached to a node (index into its sink list;
/// observers live as long as the node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverId(usize);

impl ObserverId {
    pub(crate) fn new(index: usize) -> Self {
        ObserverId(index)
    }

    pub(crate) fn index(self) -> usize {
        self.0
    }
}

// ---------------------------------------------------------------------
// Sink 1: the bounded ring
// ---------------------------------------------------------------------

/// The bounded event log: every [`SchedEvent`] the node publishes, in
/// order, stamped with its time. The *head* is kept — once `capacity`
/// entries are stored, later events only increment the drop counter,
/// like a real trace ring's "lost events" marker — so the window
/// around the moment tracing was enabled survives.
#[derive(Debug)]
pub struct RingSink {
    events: Vec<(SimTime, SchedEvent)>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Ring bounded at `capacity` events (oldest kept on overflow).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[(SimTime, SchedEvent)] {
        &self.events
    }

    /// Events that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Reconstruct per-CPU occupancy over `[start, end)` from the
    /// recorded switches and render an ASCII Gantt: one row per CPU,
    /// `width` columns, each cell showing the glyph of the task
    /// occupying the CPU at that instant (`.` = idle). `glyph` maps a
    /// pid to a display character.
    pub fn gantt(
        &self,
        ncpus: usize,
        start: SimTime,
        end: SimTime,
        width: usize,
        mut glyph: impl FnMut(Pid) -> char,
    ) -> String {
        assert!(end > start && width > 0);
        let span = end.since(start).as_nanos() as f64;
        // Build switch timelines per cpu.
        let mut timelines: Vec<Vec<(SimTime, Option<Pid>)>> = vec![Vec::new(); ncpus];
        for &(t, ev) in &self.events {
            if let SchedEvent::Switch { cpu, to, .. } = ev {
                if cpu.index() < ncpus {
                    timelines[cpu.index()].push((t, to));
                }
            }
        }
        let mut out = String::new();
        for (c, timeline) in timelines.iter().enumerate() {
            let _ = write!(out, "cpu{c} |");
            // Current occupant entering the window: last switch before start.
            let mut idx = timeline.partition_point(|&(t, _)| t <= start);
            let mut curr: Option<Pid> = idx.checked_sub(1).and_then(|i| timeline[i].1);
            for col in 0..width {
                let cell_end = start
                    + SimDuration::from_nanos((span * (col + 1) as f64 / width as f64) as u64);
                while idx < timeline.len() && timeline[idx].0 <= cell_end {
                    curr = timeline[idx].1;
                    idx += 1;
                }
                out.push(match curr {
                    Some(p) => glyph(p),
                    None => '.',
                });
            }
            out.push_str("|\n");
        }
        let _ = writeln!(
            out,
            "      {start} .. {end}{}",
            if self.dropped > 0 {
                format!("  ({} events dropped)", self.dropped)
            } else {
                String::new()
            }
        );
        out
    }
}

impl SchedObserver for RingSink {
    fn observe(&mut self, at: SimTime, ev: &SchedEvent) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
        } else {
            self.events.push((at, *ev));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Chrome-trace / Perfetto JSON, rendered from the ring
// ---------------------------------------------------------------------

/// Synthetic `tid` for the network track in Chrome-trace output: net
/// events render on their own row below the per-CPU tracks.
const NET_TID: u32 = 9_999;

/// Synthetic `tid` for the batch-scheduler track: cluster-level job
/// lifecycle events render on one row below the network track, so a
/// single trace shows both scheduling levels.
const BATCH_TID: u32 = 9_998;

/// Render `parts` as one Chrome-trace (Trace Event Format) document,
/// the JSON `chrome://tracing` and Perfetto load directly. Part `i` — a
/// ring and the time its still-open occupancy slices close at — becomes
/// trace process `i + 1` (a cluster export passes one part per node, so
/// each node renders as its own track group), and `otherData.dropped`
/// sums the rings' drop counters. `resolve(i, pid)` names task `pid` of
/// part `i`. Timestamps are microseconds (the format's unit) and `tid`
/// is the CPU, so each CPU renders as one track.
pub fn chrome_trace_json(
    parts: &[(&RingSink, SimTime)],
    mut resolve: impl FnMut(usize, Pid) -> String,
) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (i, &(ring, end)) in parts.iter().enumerate() {
        write_events(
            &mut out,
            &mut first,
            i as u32 + 1,
            ring.events(),
            end,
            |pid| resolve(i, pid),
        );
    }
    let dropped: u64 = parts.iter().map(|(ring, _)| ring.dropped()).sum();
    let _ = write!(out, "\n],\"otherData\":{{\"dropped\":{dropped}}}}}");
    out
}

/// Append one ring's trace events under Chrome-trace process id
/// `process`: an "X" complete event per per-CPU occupancy slice (folded
/// from the switches, in the order the slices closed, then the slices
/// still open, closed at `end`, by CPU), then an "i" instant per
/// migration, wakeup, network message and batch job lifecycle event,
/// in arrival order. `first` tracks comma placement across parts.
fn write_events(
    out: &mut String,
    first: &mut bool,
    process: u32,
    events: &[(SimTime, SchedEvent)],
    end: SimTime,
    mut resolve: impl FnMut(Pid) -> String,
) {
    let us = |t: SimTime| t.as_nanos() as f64 / 1e3;
    let mut push = |out: &mut String, ev: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&ev);
    };
    let mut slice = |out: &mut String, cpu: usize, pid: Pid, start: SimTime, end: SimTime| {
        let dur = (end.since(start).as_nanos() as f64 / 1e3).max(0.001);
        let ev = format!(
            "{{\"name\":{},\"cat\":\"sched\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"task\":{}}}}}",
            json::quote(&resolve(pid)),
            us(start),
            dur,
            process,
            cpu,
            pid.0
        );
        push(out, ev);
    };
    // Open occupancy per CPU: (task, switch-in time).
    let mut open: Vec<Option<(Pid, SimTime)>> = Vec::new();
    for &(at, ev) in events {
        if let SchedEvent::Switch { cpu, to, .. } = ev {
            let c = cpu.index();
            if c >= open.len() {
                open.resize(c + 1, None);
            }
            if let Some((pid, start)) = open[c].take() {
                slice(out, c, pid, start, at);
            }
            open[c] = to.map(|next| (next, at));
        }
    }
    for (c, o) in open.iter().enumerate() {
        if let Some((pid, start)) = *o {
            slice(out, c, pid, start, end);
        }
    }
    for &(at, ev) in events {
        let (name, tid, extra) = match ev {
            SchedEvent::Migrate { pid, from, to, .. } => (
                format!("migrate {}", resolve(pid)),
                to.0,
                format!(
                    ",\"task\":{},\"from_cpu\":{},\"to_cpu\":{}",
                    pid.0, from.0, to.0
                ),
            ),
            SchedEvent::Wakeup { pid, cpu } => (
                format!("wakeup {}", resolve(pid)),
                cpu.0,
                format!(",\"task\":{}", pid.0),
            ),
            SchedEvent::NetSend {
                pid, chan, bytes, ..
            } => (
                format!("net send c{}", chan.0),
                NET_TID,
                format!(
                    ",\"task\":{},\"chan\":{},\"bytes\":{}",
                    pid.0, chan.0, bytes
                ),
            ),
            SchedEvent::NetDeliver {
                chan,
                latency,
                queued,
                ..
            } => (
                format!("net recv c{}", chan.0),
                NET_TID,
                format!(
                    ",\"chan\":{},\"latency_ns\":{},\"queued_ns\":{}",
                    chan.0,
                    latency.as_nanos(),
                    queued.as_nanos()
                ),
            ),
            SchedEvent::JobSubmit { job, queue_depth } => (
                format!("job submit j{job}"),
                BATCH_TID,
                format!(",\"job\":{job},\"queue_depth\":{queue_depth}"),
            ),
            SchedEvent::JobStart {
                job,
                queue_depth,
                waited,
            } => (
                format!("job start j{job}"),
                BATCH_TID,
                format!(
                    ",\"job\":{job},\"queue_depth\":{queue_depth},\"waited_ns\":{}",
                    waited.as_nanos()
                ),
            ),
            SchedEvent::JobEnd { job, queue_depth } => (
                format!("job end j{job}"),
                BATCH_TID,
                format!(",\"job\":{job},\"queue_depth\":{queue_depth}"),
            ),
            _ => continue,
        };
        push(
            out,
            format!(
                "{{\"name\":{},\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"node\":{}{}}}}}",
                json::quote(&name),
                us(at),
                process,
                tid,
                process,
                extra
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Sink 2: the metrics registry
// ---------------------------------------------------------------------

/// Fills an [`hpl_perf::SchedMetrics`] registry from the event stream:
/// decision counters, per-CPU switch counts, and the three log2
/// histograms (timeslice, off-CPU latency, migration inter-arrival).
#[derive(Debug, Default)]
pub struct MetricsSink {
    m: SchedMetrics,
    /// Per-CPU current occupant and its switch-in time (timeslice hist).
    switched_in: Vec<Option<(Pid, SimTime)>>,
    /// Wakeup time per still-waiting pid (off-CPU latency hist).
    woken_at: HashMap<Pid, SimTime>,
    /// Previous migration anywhere on the node (inter-arrival hist).
    last_migration: Option<SimTime>,
    /// Per-CPU gang context and its start time (per-gang busy-time
    /// attribution; fed by [`SchedEvent::GangRun`]).
    gang_on: Vec<Option<(u64, SimTime)>>,
}

impl MetricsSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry filled so far.
    pub fn metrics(&self) -> &SchedMetrics {
        &self.m
    }
}

impl SchedObserver for MetricsSink {
    fn observe(&mut self, at: SimTime, ev: &SchedEvent) {
        match *ev {
            SchedEvent::Pick { .. } => self.m.picks += 1,
            SchedEvent::Switch { cpu, to, .. } => {
                self.m.switches += 1;
                self.m.count_cpu_switch(cpu.index());
                if cpu.index() >= self.switched_in.len() {
                    self.switched_in.resize(cpu.index() + 1, None);
                }
                if let Some((_, since)) = self.switched_in[cpu.index()].take() {
                    self.m.timeslice_ns.record(at.since(since).as_nanos());
                }
                if let Some(next) = to {
                    self.switched_in[cpu.index()] = Some((next, at));
                    if let Some(woke) = self.woken_at.remove(&next) {
                        self.m.offcpu_latency_ns.record(at.since(woke).as_nanos());
                    }
                }
            }
            SchedEvent::PreemptCheck { verdict, .. } => {
                self.m.preempt_checks += 1;
                if verdict.preempts() {
                    self.m.preempts_granted += 1;
                }
            }
            SchedEvent::Wakeup { pid, .. } => {
                self.m.wakeups += 1;
                self.woken_at.insert(pid, at);
            }
            SchedEvent::NoiseArrival { .. } => self.m.noise_arrivals += 1,
            SchedEvent::ForkPlaced { .. } => self.m.forks += 1,
            SchedEvent::Migrate { .. } => {
                self.m.migrations += 1;
                if let Some(prev) = self.last_migration {
                    self.m
                        .migration_interarrival_ns
                        .record(at.since(prev).as_nanos());
                }
                self.last_migration = Some(at);
            }
            SchedEvent::Balance { kind, .. } => match kind {
                BalanceKind::NewIdle => self.m.idle_balance_calls += 1,
                BalanceKind::Periodic { .. } => self.m.periodic_balance_calls += 1,
                BalanceKind::RtPush => self.m.rt_push_calls += 1,
            },
            SchedEvent::NetSend { .. } => self.m.net_sends += 1,
            SchedEvent::NetDeliver {
                latency, queued, ..
            } => {
                self.m.net_delivers += 1;
                self.m.net_latency_ns.record(latency.as_nanos());
                self.m.net_queue_ns.record(queued.as_nanos());
            }
            SchedEvent::Irq { .. } => self.m.irqs += 1,
            SchedEvent::Tick { outcome, .. } => {
                self.m.ticks += 1;
                if matches!(outcome, TickOutcome::Quiescent | TickOutcome::Skipped) {
                    self.m.ticks_skipped += 1;
                }
            }
            SchedEvent::JobSubmit { queue_depth, .. } => {
                self.m.job_submits += 1;
                self.m.batch_queue_depth.record(queue_depth as u64);
            }
            SchedEvent::JobStart {
                queue_depth,
                waited,
                ..
            } => {
                self.m.job_starts += 1;
                self.m.batch_queue_depth.record(queue_depth as u64);
                self.m.job_wait_ns.record(waited.as_nanos());
            }
            SchedEvent::JobEnd { .. } => self.m.job_ends += 1,
            SchedEvent::GangEpoch { .. } => self.m.gang_epochs += 1,
            SchedEvent::JobShare { .. } => self.m.job_shares += 1,
            SchedEvent::GangSlice { slice_ns, .. } => {
                self.m.gang_slices += 1;
                self.m.gang_slice_ns.record(slice_ns);
            }
            SchedEvent::GangRun { cpu, gang } => {
                if cpu.index() >= self.gang_on.len() {
                    self.gang_on.resize(cpu.index() + 1, None);
                }
                if let Some((g, since)) = self.gang_on[cpu.index()].take() {
                    self.m
                        .gang_busy
                        .entry(g)
                        .or_default()
                        .record(at.since(since).as_nanos());
                }
                if let Some(g) = gang {
                    self.gang_on[cpu.index()] = Some((g, at));
                }
            }
            SchedEvent::Lease { granted, .. } => {
                self.m.leases += 1;
                self.m.lease_grants += u64::from(granted);
            }
            SchedEvent::Deactivate { .. } | SchedEvent::SetSched { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Chrome-trace JSON validation (no serde in the tree: hand-rolled)
// ---------------------------------------------------------------------

/// Counts extracted from a parsed Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// `"ph":"X"` complete events (occupancy slices).
    pub complete_events: usize,
    /// `"ph":"i"` instant events (migrations + wakeups).
    pub instant_events: usize,
}

/// Parse and validate a Chrome-trace JSON document, returning event
/// counts. Strict on JSON syntax (full recursive-descent parse) and on
/// shape: the top level must be an object whose `traceEvents` is an
/// array of objects each carrying a string `ph`, with `X` events also
/// required to carry numeric `ts` and `dur`.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceStats, String> {
    let value = JsonParser::parse(json)?;
    let Json::Object(top) = value else {
        return Err("top level is not an object".into());
    };
    let Some(Json::Array(events)) = top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v)
    else {
        return Err("missing traceEvents array".into());
    };
    let mut stats = ChromeTraceStats {
        complete_events: 0,
        instant_events: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let Json::Object(fields) = ev else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Some(Json::String(ph)) = field("ph") else {
            return Err(format!("traceEvents[{i}] lacks a string ph"));
        };
        match ph.as_str() {
            "X" => {
                if !matches!(field("ts"), Some(Json::Number(_)))
                    || !matches!(field("dur"), Some(Json::Number(_)))
                {
                    return Err(format!("traceEvents[{i}]: X event lacks numeric ts/dur"));
                }
                stats.complete_events += 1;
            }
            "i" => stats.instant_events += 1,
            other => return Err(format!("traceEvents[{i}]: unexpected ph {other:?}")),
        }
    }
    Ok(stats)
}

/// Minimal JSON value (key order preserved; duplicate keys kept).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates are rejected (we never emit them).
                            out.push(char::from_u32(code).ok_or("surrogate in \\u escape")?);
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let s = &self.bytes[self.pos..];
                    let ch = std::str::from_utf8(&s[..s.iter().take(4).count().min(s.len())])
                        .or_else(|e| std::str::from_utf8(&s[..e.valid_up_to().max(1)]))
                        .map_err(|_| "invalid utf8")?
                        .chars()
                        .next()
                        .ok_or("invalid utf8")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn switch(cpu: u32, from: Option<u32>, to: Option<u32>) -> SchedEvent {
        SchedEvent::Switch {
            cpu: CpuId(cpu),
            from: from.map(Pid),
            to: to.map(Pid),
        }
    }

    #[test]
    fn ring_sink_records_every_event() {
        let mut s = RingSink::new(10);
        s.observe(t(1), &switch(0, None, Some(1)));
        s.observe(
            t(2),
            &SchedEvent::Pick {
                cpu: CpuId(0),
                prev: None,
                picked: Some(Pid(1)),
                class: Some(ClassKind::Fair),
                via_idle_balance: false,
                prev_vruntime: None,
            },
        );
        s.observe(
            t(3),
            &SchedEvent::Wakeup {
                pid: Pid(2),
                cpu: CpuId(1),
            },
        );
        // Every event is kept in arrival order, decision events like
        // Pick included.
        let ev = s.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0], (t(1), switch(0, None, Some(1))));
        assert!(matches!(ev[1], (at, SchedEvent::Pick { .. }) if at == t(2)));
        assert!(matches!(ev[2], (at, SchedEvent::Wakeup { .. }) if at == t(3)));
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn ring_sink_keeps_the_head_and_counts_drops() {
        let mut s = RingSink::new(2);
        for pid in 1..=3 {
            s.observe(
                t(pid as u64),
                &SchedEvent::Wakeup {
                    pid: Pid(pid),
                    cpu: CpuId(0),
                },
            );
        }
        let pids: Vec<u32> = s
            .events()
            .iter()
            .map(|(_, e)| match e {
                SchedEvent::Wakeup { pid, .. } => pid.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pids, vec![1, 2]);
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn gantt_renders_occupancy() {
        let mut s = RingSink::new(100);
        // cpu0: idle, then A from 100 to 300, idle after.
        s.observe(t(100), &switch(0, None, Some(1)));
        s.observe(t(300), &switch(0, Some(1), None));
        let g = s.gantt(1, t(0), t(400), 8, |_| 'A');
        let row = g.lines().next().unwrap();
        // 8 columns over 400 ns: A occupies cells covering 100..300.
        assert!(row.contains('A'));
        assert!(row.starts_with("cpu0 |"));
        assert!(row.contains('.'));
        // Occupied roughly half the window.
        let a_count = row.matches('A').count();
        assert!((3..=5).contains(&a_count), "row {row}");
    }

    #[test]
    fn gantt_carries_occupant_into_window() {
        let mut s = RingSink::new(10);
        s.observe(t(10), &switch(0, None, Some(7)));
        // Window starts after the switch: the task should fill the row.
        let g = s.gantt(1, t(100), t(200), 4, |_| 'X');
        assert!(g.lines().next().unwrap().contains("XXXX"));
    }

    #[test]
    fn chrome_export_renders_slices_and_instants_from_the_ring() {
        let mut s = RingSink::new(100);
        s.observe(t(100), &switch(0, None, Some(1)));
        s.observe(t(300), &switch(0, Some(1), Some(2)));
        s.observe(
            t(350),
            &SchedEvent::Migrate {
                pid: Pid(3),
                from: CpuId(0),
                to: CpuId(1),
                reason: MigrateReason::Balance,
            },
        );
        s.observe(
            t(360),
            &SchedEvent::Wakeup {
                pid: Pid(3),
                cpu: CpuId(1),
            },
        );
        let json = chrome_trace_json(&[(&s, t(500))], |_, p| format!("task{}", p.0));
        let stats = validate_chrome_trace(&json).expect("valid json");
        // pid 1's closed slice, then pid 2's still open, closed at end.
        assert_eq!(stats.complete_events, 2);
        assert_eq!(stats.instant_events, 2);
        let pos = |needle: &str| json.find(needle).expect(needle);
        assert!(pos("\"task1\"") < pos("\"task2\""));
        assert!(json.contains("\"ts\":0.300,\"dur\":0.200"));
        // Slices come before instants, instants in arrival order.
        assert!(pos("\"task2\"") < pos("migrate task3"));
        assert!(pos("migrate task3") < pos("wakeup task3"));
        assert!(json.ends_with("\"dropped\":0}}"));
    }

    #[test]
    fn chrome_export_of_a_truncated_ring_renders_the_kept_head() {
        let mut s = RingSink::new(2);
        s.observe(t(1_000), &switch(0, None, Some(1)));
        s.observe(t(2_000), &switch(0, Some(1), Some(2)));
        s.observe(t(3_000), &switch(0, Some(2), None));
        s.observe(
            t(4_000),
            &SchedEvent::Wakeup {
                pid: Pid(1),
                cpu: CpuId(0),
            },
        );
        assert_eq!(s.dropped(), 2);
        let json = chrome_trace_json(&[(&s, t(10_000))], |_, p| format!("task{}", p.0));
        let stats = validate_chrome_trace(&json).expect("valid json");
        // The kept head: pid 1's slice, and pid 2's, whose closing
        // switch was dropped, closed at the export time.
        assert_eq!(stats.complete_events, 2);
        assert_eq!(stats.instant_events, 0);
        assert!(json.contains("\"ts\":2.000,\"dur\":8.000"));
        assert!(json.ends_with("\"dropped\":2}}"));
    }

    #[test]
    fn metrics_sink_histograms() {
        let mut s = MetricsSink::new();
        s.observe(
            t(0),
            &SchedEvent::Wakeup {
                pid: Pid(1),
                cpu: CpuId(0),
            },
        );
        s.observe(t(1000), &switch(0, None, Some(1))); // off-cpu latency 1000
        s.observe(t(5000), &switch(0, Some(1), None)); // timeslice 4000
        for (at, pid) in [(10_000u64, 7u32), (14_000, 8)] {
            s.observe(
                t(at),
                &SchedEvent::Migrate {
                    pid: Pid(pid),
                    from: CpuId(0),
                    to: CpuId(1),
                    reason: MigrateReason::Balance,
                },
            );
        }
        let m = s.metrics();
        assert_eq!(m.switches, 2);
        assert_eq!(m.wakeups, 1);
        assert_eq!(m.migrations, 2);
        assert_eq!(m.offcpu_latency_ns.count(), 1);
        assert_eq!(m.offcpu_latency_ns.max(), Some(1000));
        assert_eq!(m.timeslice_ns.count(), 1);
        assert_eq!(m.timeslice_ns.max(), Some(4000));
        assert_eq!(m.migration_interarrival_ns.count(), 1);
        assert_eq!(m.migration_interarrival_ns.max(), Some(4000));
        assert_eq!(m.per_cpu_switches, vec![2]);
    }

    #[test]
    fn metrics_sink_integrates_per_gang_busy_time() {
        let run = |g: Option<u64>, cpu: u32| SchedEvent::GangRun {
            cpu: CpuId(cpu),
            gang: g,
        };
        let mut s = MetricsSink::new();
        // CPU0: gang 7 runs 1000..4000 then idles; gang 9 runs
        // 5000..5500. CPU1 concurrently: gang 7 runs 2000..2600 and
        // hands over to gang 9 directly (no idle gap), closed at 3600.
        s.observe(t(1_000), &run(Some(7), 0));
        s.observe(t(2_000), &run(Some(7), 1));
        s.observe(t(2_600), &run(Some(9), 1));
        s.observe(t(3_600), &run(None, 1));
        s.observe(t(4_000), &run(None, 0));
        s.observe(t(5_000), &run(Some(9), 0));
        s.observe(t(5_500), &run(None, 0));
        {
            let m = s.metrics();
            assert_eq!(m.gang_busy_ns(7), 3_000 + 600);
            assert_eq!(m.gang_busy_ns(9), 1_000 + 500);
            assert_eq!(m.gang_busy.get(&7).unwrap().count(), 2);
            // A gang never seen reads as zero, not a panic.
            assert_eq!(m.gang_busy_ns(42), 0);
        }
        // Slice and lease events ride the same stream into counters.
        s.observe(
            t(6_000),
            &SchedEvent::GangSlice {
                gang: 7,
                share_milli: 750,
                slice_ns: 750_000,
                gangs: 2,
            },
        );
        s.observe(
            t(6_000),
            &SchedEvent::Lease {
                gang: 9,
                share_milli: 250,
                granted: 3,
                jobs: 2,
            },
        );
        let m = s.metrics();
        assert_eq!(m.gang_slices, 1);
        assert_eq!(m.gang_slice_ns.max(), Some(750_000));
        assert_eq!(m.leases, 1);
        assert_eq!(m.lease_grants, 3);
        // Merging folds the per-gang ledgers, not just the counters.
        let mut merged = SchedMetrics::new();
        merged.merge(m);
        merged.merge(m);
        assert_eq!(merged.gang_busy_ns(7), 2 * 3_600);
        assert_eq!(merged.leases, 2);
    }

    #[test]
    fn metrics_sink_decision_counters() {
        let mut s = MetricsSink::new();
        s.observe(
            t(0),
            &SchedEvent::PreemptCheck {
                cpu: CpuId(0),
                curr: Some(Pid(1)),
                woken: Pid(2),
                verdict: PreemptVerdict::Granted,
            },
        );
        s.observe(
            t(0),
            &SchedEvent::PreemptCheck {
                cpu: CpuId(0),
                curr: Some(Pid(1)),
                woken: Pid(3),
                verdict: PreemptVerdict::Denied,
            },
        );
        s.observe(
            t(0),
            &SchedEvent::Balance {
                cpu: CpuId(0),
                kind: BalanceKind::NewIdle,
                migrations: 1,
            },
        );
        s.observe(
            t(0),
            &SchedEvent::Balance {
                cpu: CpuId(0),
                kind: BalanceKind::Periodic { level: 1 },
                migrations: 0,
            },
        );
        s.observe(
            t(0),
            &SchedEvent::Tick {
                cpu: CpuId(0),
                outcome: TickOutcome::Quiescent,
            },
        );
        s.observe(
            t(0),
            &SchedEvent::Tick {
                cpu: CpuId(0),
                outcome: TickOutcome::Accounted { resched: true },
            },
        );
        let m = s.metrics();
        assert_eq!(m.preempt_checks, 2);
        assert_eq!(m.preempts_granted, 1);
        assert_eq!(m.idle_balance_calls, 1);
        assert_eq!(m.periodic_balance_calls, 1);
        assert_eq!(m.ticks, 2);
        assert_eq!(m.ticks_skipped, 1);
    }

    #[test]
    fn json_parser_accepts_valid_rejects_invalid() {
        assert!(JsonParser::parse("{\"a\": [1, 2.5, -3e2, true, null, \"x\\n\"]}").is_ok());
        assert!(JsonParser::parse("").is_err());
        assert!(JsonParser::parse("{").is_err());
        assert!(JsonParser::parse("{\"a\":1,}").is_err());
        assert!(JsonParser::parse("[1 2]").is_err());
        assert!(JsonParser::parse("{\"a\":1} extra").is_err());
        assert!(JsonParser::parse("\"\\q\"").is_err());
    }

    #[test]
    fn validate_requires_trace_shape() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"Z\"}]}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\", \"ts\": 1}]}").is_err(),
            "X without dur must be rejected"
        );
        let ok = validate_chrome_trace(
            "{\"traceEvents\": [{\"ph\": \"X\", \"ts\": 1, \"dur\": 2}, {\"ph\": \"i\"}]}",
        )
        .unwrap();
        assert_eq!(ok.complete_events, 1);
        assert_eq!(ok.instant_events, 1);
    }

    #[test]
    fn shared_escape_round_trips_through_the_parser() {
        let raw = "a\"b\\c\nd\u{1}";
        let parsed = JsonParser::parse(&json::quote(raw)).unwrap();
        assert_eq!(parsed, Json::String(raw.into()));
    }
}
