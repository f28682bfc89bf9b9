//! The online invariant oracle: a [`SchedObserver`] sink that replays
//! the kernel's decision stream against the paper's scheduling
//! invariants and records every contradiction as a [`Violation`].
//!
//! The oracle maintains its own shadow of the scheduler state — per-task
//! policy/state/CPU, per-CPU current task — driven *only* by events, and
//! checks each new event against that shadow:
//!
//! 1. **Class shielding** — a pick must come from the highest-ranked
//!    class with runnable tasks on that CPU: CFS never runs while an
//!    HPC task is runnable there (the paper's §V claim), and HPC never
//!    runs over runnable RT. Within RT, the picked priority must be
//!    maximal. Wakeup-preemption verdicts must agree with the class
//!    ranking.
//! 2. **HPC migrates only at fork** — a `Migrate` of an HPC task is
//!    legal only at fork, by explicit affinity call, or on the paper's
//!    init/finalize exception: a wakeup whose source CPU's *core* holds
//!    another live HPC task.
//! 3. **Round-robin rotation** — after a slice expiry, a CPU must not
//!    re-pick the expired RR/HPC task while a same-class (and, for RT,
//!    same-priority) peer has been waiting since before its last pick.
//! 4. **Vruntime monotonicity** — a CFS task's virtual runtime never
//!    decreases across consecutive descheduls while it stays
//!    continuously runnable (blocks, migrations and policy changes
//!    legally renormalise it, so tracking resets there).
//! 5. **No lost wakeups / lost picks** — a CPU never picks idle while
//!    the shadow says runnable tasks are queued on it, and wakeups only
//!    target blocked tasks.
//! 6. **Task conservation** — events never reference dead tasks as
//!    live ones, picks never resurrect blocked/dead tasks, and at run
//!    end the event-derived shadow must agree with the kernel's own
//!    task table ([`InvariantOracle::finish`]).
//! 7. **Virtual-time monotonicity** — event timestamps never regress,
//!    and delivered network messages respect the fabric's minimum
//!    latency with `queued <= latency`.

use hpl_kernel::observe::{DeactivateReason, SchedEvent, SchedObserver};
use hpl_kernel::{class_of_policy, ClassKind, Node, Pid, Policy, TaskState};
use hpl_sim::{SimDuration, SimTime};
use std::any::Any;
use std::collections::BTreeMap;

/// Cap on recorded violations per oracle: a truly broken scheduler
/// produces millions, and the first few are the diagnostic ones.
const MAX_VIOLATIONS: usize = 32;

/// One invariant contradiction.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulation time of the offending event.
    pub at: SimTime,
    /// Which invariant (short stable name, e.g. `"hpc-migrate"`).
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] at {}: {}", self.rule, self.at, self.detail)
    }
}

/// Shadow scheduler state of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowState {
    Runnable,
    Running,
    Blocked,
    Dead,
}

#[derive(Debug, Clone)]
struct TaskView {
    policy: Policy,
    cpu: usize,
    state: ShadowState,
    /// CPU pick sequence number at which the task last became runnable
    /// on its CPU (for the rotation-fairness check).
    runnable_seq: u64,
    /// Last observed post-deschedule vruntime; `None` after any event
    /// that legally renormalises it.
    vr_track: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct CpuView {
    running: Option<Pid>,
    /// Monotone pick counter for this CPU.
    pick_seq: u64,
    /// `pick_seq` value of the previous pick on this CPU.
    prev_pick_seq: u64,
    /// Pid picked by the previous pick (None = idle).
    prev_pick: Option<Pid>,
    /// A tick requested a reschedule (slice expiry) since the last pick.
    expiry_pending: bool,
}

fn rank(kind: ClassKind) -> u8 {
    match kind {
        ClassKind::RealTime => 3,
        ClassKind::Hpc => 2,
        ClassKind::Fair => 1,
        ClassKind::Idle => 0,
    }
}

/// The invariant-checking observer. Attach with
/// [`hpl_kernel::Node::attach_observer`] *after* constructing it from
/// the node ([`InvariantOracle::for_node`]) so the shadow starts from
/// the already-booted daemon population.
#[derive(Debug)]
pub struct InvariantOracle {
    tasks: BTreeMap<Pid, TaskView>,
    cpus: Vec<CpuView>,
    /// CPU index -> core id, for the HPC wakeup-migration exception.
    core_of: Vec<u32>,
    last_at: SimTime,
    /// Fabric minimum latency for NetDeliver checks (cluster runs).
    min_net_latency: Option<SimDuration>,
    /// Gang-rotation switch stream `(time ns, active gang)`, recorded
    /// for the runner's cross-node epoch-alignment rule (bounded).
    gang_log: Vec<(u64, Option<u64>)>,
    /// Weighted-slice stream `(start ns, gang, share milli, slice ns)`,
    /// recorded for the runner's slice-conservation, monotonicity and
    /// cross-node alignment rules (bounded).
    slice_log: Vec<(u64, u64, u32, u64)>,
    /// Lease grants seen from a user-space arbiter (`SchedEvent::Lease`),
    /// for the runner's lease-inertness rule.
    leases: u64,
    /// Gang rotation currently in force (last `GangEpoch.active` was
    /// `Some`). While rotating, a queued HPC task may legally be passed
    /// over — its gang is waiting for its epoch — so the shielding,
    /// lost-pick and rr-rotation rules exempt HPC tasks.
    gang_rotation: bool,
    violations: Vec<Violation>,
}

/// Cap on the recorded gang switch stream: long runs rotate millions of
/// epochs and the alignment rule only needs a shared prefix.
const GANG_LOG_CAP: usize = 4096;

impl InvariantOracle {
    /// Build an oracle primed from `node`'s current task table and
    /// per-CPU currents, so tasks that predate attachment (boot
    /// daemons, warmup noise) are tracked from their true state.
    pub fn for_node(node: &Node) -> Self {
        let ncpus = node.topo.total_cpus() as usize;
        let core_of = (0..ncpus)
            .map(|i| node.topo.core_of(hpl_topology::CpuId(i as u32)))
            .collect();
        let mut tasks = BTreeMap::new();
        for t in node.tasks.iter() {
            let state = match t.state {
                TaskState::Runnable => ShadowState::Runnable,
                TaskState::Running => ShadowState::Running,
                TaskState::Blocked(_) => ShadowState::Blocked,
                TaskState::Dead => ShadowState::Dead,
            };
            tasks.insert(
                t.pid,
                TaskView {
                    policy: t.policy,
                    cpu: t.cpu.index(),
                    state,
                    runnable_seq: 0,
                    vr_track: None,
                },
            );
        }
        let mut cpus = vec![CpuView::default(); ncpus];
        for (i, cv) in cpus.iter_mut().enumerate() {
            cv.running = node.current(hpl_topology::CpuId(i as u32));
        }
        InvariantOracle {
            tasks,
            cpus,
            core_of,
            last_at: node.now(),
            min_net_latency: None,
            gang_log: Vec::new(),
            slice_log: Vec::new(),
            leases: 0,
            gang_rotation: false,
            violations: Vec::new(),
        }
    }

    /// A blank oracle. Used as a placeholder when temporarily moving a
    /// live oracle out of a node's observer slot for the end-of-run
    /// [`Self::finish`] cross-check (which needs `&Node` alongside
    /// `&mut self`).
    pub fn for_node_empty() -> Self {
        InvariantOracle {
            tasks: BTreeMap::new(),
            cpus: Vec::new(),
            core_of: Vec::new(),
            last_at: SimTime::from_nanos(0),
            min_net_latency: None,
            gang_log: Vec::new(),
            slice_log: Vec::new(),
            leases: 0,
            gang_rotation: false,
            violations: Vec::new(),
        }
    }

    /// Enable network-delivery checks against the fabric's minimum
    /// wire latency.
    pub fn with_min_net_latency(mut self, alpha: SimDuration) -> Self {
        self.min_net_latency = Some(alpha);
        self
    }

    /// Violations recorded so far (capped at an internal limit).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The recorded gang switch stream `(time ns, active gang)`,
    /// bounded at an internal cap. Nodes that host the same gang set
    /// under the same epoch must record identical streams — the
    /// runner's cross-node alignment rule.
    pub fn gang_log(&self) -> &[(u64, Option<u64>)] {
        &self.gang_log
    }

    /// The recorded weighted-slice stream
    /// `(start ns, gang, share milli, slice ns)`, bounded at the same
    /// cap as the gang log. Consecutive slices must tile virtual time
    /// exactly — the runner's slice-conservation rule — and nodes that
    /// host the same gang/share set must record identical streams.
    pub fn slice_log(&self) -> &[(u64, u64, u32, u64)] {
        &self.slice_log
    }

    /// Lease grants observed from a user-space coordination arbiter.
    /// Must stay zero when no coordinator is installed — the runner's
    /// lease-inertness rule.
    pub fn leases(&self) -> u64 {
        self.leases
    }

    /// End-of-run conservation check: the event-derived shadow must
    /// agree with the kernel's own task table on every task's liveness
    /// and CPU. Any divergence means an event was lost, duplicated or
    /// mis-reported. Returns violations found (also appended to
    /// [`Self::violations`]).
    pub fn finish(&mut self, node: &Node) -> usize {
        let mut found = 0;
        let at = node.now();
        for t in node.tasks.iter() {
            let Some(view) = self.tasks.get(&t.pid).cloned() else {
                self.record(at, "conservation", format!("{} never observed", t.pid));
                found += 1;
                continue;
            };
            let expect = match t.state {
                TaskState::Runnable => ShadowState::Runnable,
                TaskState::Running => ShadowState::Running,
                TaskState::Blocked(_) => ShadowState::Blocked,
                TaskState::Dead => ShadowState::Dead,
            };
            if view.state != expect {
                self.record(
                    at,
                    "conservation",
                    format!(
                        "{} shadow {:?} but kernel says {:?}",
                        t.pid, view.state, t.state
                    ),
                );
                found += 1;
            } else if expect != ShadowState::Dead && view.cpu != t.cpu.index() {
                self.record(
                    at,
                    "conservation",
                    format!(
                        "{} shadow on cpu{} but kernel says {}",
                        t.pid, view.cpu, t.cpu
                    ),
                );
                found += 1;
            }
        }
        let nkernel = node.tasks.iter().count();
        if self.tasks.len() != nkernel {
            self.record(
                at,
                "conservation",
                format!(
                    "shadow tracks {} tasks, kernel has {nkernel}",
                    self.tasks.len()
                ),
            );
            found += 1;
        }
        found
    }

    fn record(&mut self, at: SimTime, rule: &'static str, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { at, rule, detail });
        }
    }

    fn class_of(&self, pid: Pid) -> Option<ClassKind> {
        self.tasks.get(&pid).map(|v| class_of_policy(v.policy))
    }

    /// Runnable (queued, not running) tasks currently homed on `cpu`.
    fn runnable_on(&self, cpu: usize) -> impl Iterator<Item = (&Pid, &TaskView)> {
        self.tasks
            .iter()
            .filter(move |(_, v)| v.state == ShadowState::Runnable && v.cpu == cpu)
    }

    fn on_pick(
        &mut self,
        at: SimTime,
        cpu: usize,
        prev: Option<Pid>,
        picked: Option<Pid>,
        class: Option<ClassKind>,
        prev_vruntime: Option<u64>,
    ) {
        // Settle prev: a still-Running prev was just put back on the
        // queue (its state flips to Runnable); a blocked/dead prev
        // already left via Deactivate.
        let expiry = std::mem::take(&mut self.cpus[cpu].expiry_pending);
        if let Some(p) = prev {
            let seq = self.cpus[cpu].pick_seq;
            if let Some(v) = self.tasks.get_mut(&p) {
                if v.state == ShadowState::Running {
                    v.state = ShadowState::Runnable;
                    v.runnable_seq = seq;
                }
            }
            // Vruntime monotonicity across consecutive descheduls of a
            // continuously-runnable CFS task.
            if let Some(now_vr) = prev_vruntime {
                let old = self.tasks.get(&p).and_then(|v| v.vr_track);
                if let Some(old) = old {
                    if now_vr < old {
                        self.record(
                            at,
                            "vruntime-monotonic",
                            format!("{p} vruntime regressed {old} -> {now_vr} on cpu{cpu}"),
                        );
                    }
                }
                if let Some(v) = self.tasks.get_mut(&p) {
                    v.vr_track = Some(now_vr);
                }
            }
        }

        match picked {
            Some(q) => {
                let qv = self.tasks.get(&q).cloned();
                match qv {
                    None => self.record(at, "conservation", format!("picked unknown {q}")),
                    Some(v) => {
                        if v.state != ShadowState::Runnable {
                            self.record(
                                at,
                                "conservation",
                                format!("picked {q} in shadow state {:?}", v.state),
                            );
                        }
                        if v.cpu != cpu {
                            self.record(
                                at,
                                "conservation",
                                format!("picked {q} homed on cpu{} from cpu{cpu}", v.cpu),
                            );
                        }
                        let kind = class_of_policy(v.policy);
                        if class != Some(kind) {
                            self.record(
                                at,
                                "class-order",
                                format!(
                                    "pick of {q} reported class {class:?}, policy says {kind:?}"
                                ),
                            );
                        }
                        // Shielding: no runnable task of a higher class
                        // (or higher RT priority) may be waiting here.
                        let mut beaten: Option<String> = None;
                        for (tp, tv) in self.runnable_on(cpu) {
                            if *tp == q {
                                continue;
                            }
                            let tk = class_of_policy(tv.policy);
                            if self.gang_rotation && tk == ClassKind::Hpc {
                                // Rotation may legally idle an HPC task
                                // whose gang is out of its epoch.
                                continue;
                            }
                            if rank(tk) > rank(kind) {
                                beaten = Some(format!(
                                    "picked {q} ({kind:?}) over runnable {tp} ({tk:?})"
                                ));
                                break;
                            }
                            if kind == ClassKind::RealTime
                                && tk == ClassKind::RealTime
                                && tv.policy.rt_prio() > v.policy.rt_prio()
                            {
                                beaten = Some(format!(
                                    "picked {q} (rt {:?}) over runnable {tp} (rt {:?})",
                                    v.policy.rt_prio(),
                                    tv.policy.rt_prio()
                                ));
                                break;
                            }
                        }
                        if let Some(msg) = beaten {
                            self.record(at, "class-order", msg);
                        }
                        // Rotation fairness: an expiry-requeued RR/HPC
                        // task must not be re-picked past a same-class
                        // peer that was already waiting before its
                        // previous pick.
                        if expiry
                            && prev == Some(q)
                            && matches!(kind, ClassKind::Hpc | ClassKind::RealTime)
                            && matches!(v.policy, Policy::Hpc | Policy::Rr(_))
                            && !(self.gang_rotation && kind == ClassKind::Hpc)
                        {
                            let cutoff = self.cpus[cpu].prev_pick_seq;
                            let starved = self
                                .runnable_on(cpu)
                                .find(|(tp, tv)| {
                                    **tp != q
                                        && class_of_policy(tv.policy) == kind
                                        && tv.policy.rt_prio() == v.policy.rt_prio()
                                        && tv.runnable_seq < cutoff
                                })
                                .map(|(tp, _)| *tp);
                            if let Some(tp) = starved {
                                self.record(
                                    at,
                                    "rr-rotation",
                                    format!(
                                        "{q} re-picked on cpu{cpu} after slice expiry while peer {tp} waited"
                                    ),
                                );
                            }
                        }
                        if let Some(v) = self.tasks.get_mut(&q) {
                            v.state = ShadowState::Running;
                        }
                        self.cpus[cpu].running = Some(q);
                    }
                }
            }
            None => {
                let rotation = self.gang_rotation;
                let waiting = self
                    .runnable_on(cpu)
                    .find(|(_, tv)| !(rotation && class_of_policy(tv.policy) == ClassKind::Hpc))
                    .map(|(tp, _)| *tp);
                if let Some(tp) = waiting {
                    self.record(
                        at,
                        "lost-pick",
                        format!("cpu{cpu} went idle with {tp} runnable on it"),
                    );
                }
                self.cpus[cpu].running = None;
            }
        }
        let cv = &mut self.cpus[cpu];
        cv.prev_pick = picked;
        cv.prev_pick_seq = cv.pick_seq;
        cv.pick_seq += 1;
    }

    fn on_migrate(
        &mut self,
        at: SimTime,
        pid: Pid,
        from: usize,
        to: usize,
        reason: hpl_kernel::MigrateReason,
    ) {
        use hpl_kernel::MigrateReason as R;
        let Some(v) = self.tasks.get(&pid).cloned() else {
            self.record(at, "conservation", format!("migrate of unknown {pid}"));
            return;
        };
        if v.state == ShadowState::Dead {
            self.record(at, "conservation", format!("migrate of dead {pid}"));
            return;
        }
        if v.policy == Policy::Hpc {
            let ok = match reason {
                R::Fork | R::Affinity => true,
                R::Balance => false,
                R::Wakeup => {
                    // Paper's init/finalize exception: legal only if the
                    // source core held another live HPC task. (Superset
                    // of the class's real "contended" test, which also
                    // excludes passives — over-approximating keeps the
                    // oracle sound against legal schedules.)
                    let src_core = self.core_of[from.min(self.core_of.len() - 1)];
                    self.tasks.iter().any(|(op, ov)| {
                        *op != pid
                            && ov.policy == Policy::Hpc
                            && ov.state != ShadowState::Dead
                            && self.core_of[ov.cpu.min(self.core_of.len() - 1)] == src_core
                    })
                }
            };
            if !ok {
                self.record(
                    at,
                    "hpc-migrate",
                    format!("HPC {pid} migrated cpu{from} -> cpu{to} for {reason:?}"),
                );
            }
        }
        let v = self.tasks.get_mut(&pid).expect("checked above");
        // An active balance or forced affinity move can shove a Running
        // task straight to another CPU's queue.
        if v.state == ShadowState::Running {
            v.state = ShadowState::Runnable;
        }
        v.cpu = to;
        v.vr_track = None;
        let seq = self.cpus[to].pick_seq;
        self.tasks.get_mut(&pid).expect("checked").runnable_seq = seq;
    }

    fn on_preempt_check(
        &mut self,
        at: SimTime,
        cpu: usize,
        curr: Option<Pid>,
        woken: Pid,
        verdict: hpl_kernel::PreemptVerdict,
    ) {
        use hpl_kernel::PreemptVerdict as V;
        let Some(wk) = self.class_of(woken) else {
            self.record(
                at,
                "conservation",
                format!("preempt check for unknown {woken}"),
            );
            return;
        };
        match curr {
            None => {
                if verdict != V::IdleCpu {
                    self.record(
                        at,
                        "preempt-verdict",
                        format!("cpu{cpu} idle but verdict {verdict:?} for {woken}"),
                    );
                }
            }
            Some(c) => {
                let Some(ck) = self.class_of(c) else {
                    self.record(at, "conservation", format!("preempt curr unknown {c}"));
                    return;
                };
                let expect = if rank(wk) > rank(ck) {
                    Some(V::HigherClass)
                } else if rank(wk) < rank(ck) {
                    Some(V::LowerClass)
                } else {
                    None // same class: Granted/Denied are the class's call
                };
                let bad = match expect {
                    Some(e) => verdict != e,
                    None => !matches!(verdict, V::Granted | V::Denied),
                };
                if bad {
                    self.record(
                        at,
                        "preempt-verdict",
                        format!(
                            "cpu{cpu}: woken {woken} ({wk:?}) vs curr {c} ({ck:?}) got {verdict:?}"
                        ),
                    );
                }
            }
        }
    }
}

impl SchedObserver for InvariantOracle {
    fn observe(&mut self, at: SimTime, ev: &SchedEvent) {
        if at < self.last_at {
            self.record(
                at,
                "time-monotonic",
                format!("event at {at} after {}", self.last_at),
            );
        }
        self.last_at = self.last_at.max(at);
        match *ev {
            SchedEvent::SetSched { pid, from, to } => {
                let have = self.tasks.get(&pid).map(|v| v.policy);
                match have {
                    Some(p) => {
                        if from.is_none() {
                            self.record(at, "conservation", format!("{pid} created twice"));
                        } else if Some(p) != from {
                            self.record(
                                at,
                                "conservation",
                                format!("{pid} policy change from {from:?} but shadow has {p:?}"),
                            );
                        }
                        let v = self.tasks.get_mut(&pid).expect("present");
                        v.policy = to;
                        v.vr_track = None;
                    }
                    None => {
                        self.tasks.insert(
                            pid,
                            TaskView {
                                policy: to,
                                cpu: 0,
                                state: ShadowState::Runnable,
                                runnable_seq: 0,
                                vr_track: None,
                            },
                        );
                        if from.is_some() {
                            self.record(
                                at,
                                "conservation",
                                format!("policy change for unknown {pid}"),
                            );
                        }
                    }
                }
            }
            SchedEvent::ForkPlaced { pid, cpu, .. } => {
                let seq = self.cpus[cpu.index()].pick_seq;
                if self.tasks.contains_key(&pid) {
                    // SetSched(from: None) precedes ForkPlaced.
                    let v = self.tasks.get_mut(&pid).expect("present");
                    v.cpu = cpu.index();
                    v.state = ShadowState::Runnable;
                    v.runnable_seq = seq;
                } else {
                    self.record(at, "conservation", format!("fork of unannounced {pid}"));
                }
            }
            SchedEvent::Wakeup { pid, cpu } => {
                let seq = self.cpus[cpu.index()].pick_seq;
                let state = self.tasks.get(&pid).map(|v| v.state);
                match state {
                    Some(s) => {
                        match s {
                            ShadowState::Blocked => {}
                            ShadowState::Dead => self.record(
                                at,
                                "conservation",
                                format!("wakeup of dead {pid}"),
                            ),
                            s => self.record(
                                at,
                                "lost-wakeup",
                                format!("wakeup of {pid} already {s:?} (token lost or duplicated)"),
                            ),
                        }
                        let v = self.tasks.get_mut(&pid).expect("present");
                        v.state = ShadowState::Runnable;
                        v.cpu = cpu.index();
                        v.runnable_seq = seq;
                        v.vr_track = None;
                    }
                    None => self.record(at, "conservation", format!("wakeup of unknown {pid}")),
                }
            }
            SchedEvent::Deactivate { pid, reason, .. } => {
                let state = self.tasks.get(&pid).map(|v| v.state);
                match state {
                    Some(s) => {
                        if s == ShadowState::Dead {
                            self.record(at, "conservation", format!("deactivate of dead {pid}"));
                        }
                        let v = self.tasks.get_mut(&pid).expect("present");
                        v.state = match reason {
                            DeactivateReason::Block => ShadowState::Blocked,
                            DeactivateReason::Exit => ShadowState::Dead,
                        };
                        v.vr_track = None;
                    }
                    None => self.record(at, "conservation", format!("deactivate of unknown {pid}")),
                }
            }
            SchedEvent::Pick {
                cpu,
                prev,
                picked,
                class,
                prev_vruntime,
                ..
            } => self.on_pick(at, cpu.index(), prev, picked, class, prev_vruntime),
            SchedEvent::Switch { cpu, to, .. } => {
                if self.cpus[cpu.index()].running != to {
                    let have = self.cpus[cpu.index()].running;
                    self.record(
                        at,
                        "conservation",
                        format!("switch to {to:?} on cpu{} but pick said {have:?}", cpu.index()),
                    );
                }
            }
            SchedEvent::Migrate {
                pid,
                from,
                to,
                reason,
            } => self.on_migrate(at, pid, from.index(), to.index(), reason),
            SchedEvent::PreemptCheck {
                cpu,
                curr,
                woken,
                verdict,
            } => self.on_preempt_check(at, cpu.index(), curr, woken, verdict),
            SchedEvent::Tick { cpu, outcome } => {
                if matches!(
                    outcome,
                    hpl_kernel::TickOutcome::Accounted { resched: true }
                ) {
                    self.cpus[cpu.index()].expiry_pending = true;
                }
            }
            SchedEvent::NetDeliver {
                latency, queued, ..
            } => {
                if let Some(alpha) = self.min_net_latency {
                    if latency < alpha {
                        self.record(
                            at,
                            "net-latency",
                            format!("delivery latency {latency} below fabric alpha {alpha}"),
                        );
                    }
                }
                if queued > latency {
                    self.record(
                        at,
                        "net-latency",
                        format!("queued {queued} exceeds total latency {latency}"),
                    );
                }
            }
            SchedEvent::GangEpoch { active, gangs } => {
                // An active gang only makes sense while rotation is in
                // force (two or more gangs live); a final switch to
                // `None` is how rotation legally ends.
                if gangs < 2 && active.is_some() {
                    self.record(
                        at,
                        "gang-active",
                        format!("active gang {active:?} with {gangs} gang(s) live"),
                    );
                }
                self.gang_rotation = active.is_some();
                if self.gang_log.len() < GANG_LOG_CAP {
                    self.gang_log.push((at.as_nanos(), active));
                }
            }
            SchedEvent::GangSlice {
                gang,
                share_milli,
                slice_ns,
                gangs,
            } => {
                // Slices exist only under weighted rotation: at least
                // two live gangs, a non-zero extent, a non-zero share.
                if gangs < 2 {
                    self.record(
                        at,
                        "gang-slice",
                        format!("slice for gang {gang} with {gangs} gang(s) live"),
                    );
                }
                if slice_ns == 0 {
                    self.record(at, "gang-slice", format!("zero-length slice for gang {gang}"));
                }
                if share_milli == 0 {
                    self.record(at, "gang-slice", format!("zero share for gang {gang}"));
                }
                if self.slice_log.len() < GANG_LOG_CAP {
                    self.slice_log
                        .push((at.as_nanos(), gang, share_milli, slice_ns));
                }
            }
            SchedEvent::Lease {
                gang,
                granted,
                jobs,
                ..
            } => {
                // The arbiter grants exactly the ranks registered as
                // waiting; more grants than registered jobs' worth of
                // waiters means a token leak.
                if jobs == 0 {
                    self.record(at, "lease", format!("lease for gang {gang} with no jobs"));
                }
                self.leases += 1;
                let _ = granted;
            }
            SchedEvent::Balance { .. }
            | SchedEvent::NetSend { .. }
            | SchedEvent::Irq { .. }
            | SchedEvent::NoiseArrival { .. }
            // Per-gang CPU attribution is integrated by MetricsSink;
            // the shadow's own running-task view already covers it.
            | SchedEvent::GangRun { .. }
            // Per-node share sums are audited by the runner through the
            // policy's own audit tally (AllocPolicy::audit).
            | SchedEvent::JobShare { .. }
            // Batch-level job lifecycle events come from above the
            // kernel; the batch occupancy invariant is checked by the
            // runner against the nodes' task tables instead.
            | SchedEvent::JobSubmit { .. }
            | SchedEvent::JobStart { .. }
            | SchedEvent::JobEnd { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
