//! Lockstep co-simulation of kernel nodes over an interconnect.
//!
//! [`Cluster`] owns N independent kernel [`Node`]s plus one
//! [`Interconnect`] and advances them in conservative virtual-time
//! lockstep. Each iteration ("window") it finds the cluster-wide next
//! event time `t`, runs every node up to — but excluding —
//! `t + lookahead` (the interconnect's minimum wire latency), then
//! drains the cross-node messages captured during the window, costs them
//! through the interconnect, and posts the deliveries into the
//! destination nodes' event queues. The lookahead rule makes this safe:
//! a message sent at time `s >= t` cannot be delivered before
//! `s + alpha_min >= t + lookahead`, i.e. never *inside* the window that
//! produced it, so no node ever has to roll back.
//!
//! Determinism: windows are a pure function of node state, messages are
//! routed in (source node, capture order) — a deterministic order — and
//! the interconnect is itself deterministic, so a cluster run is exactly
//! as replayable as a single-node run. The same seed produces the same
//! fingerprint on the fast and reference event loops.
//!
//! The cluster supports **concurrent jobs**: each [`Cluster::launch`]
//! places a job on a subset of nodes ([`Placement`]), jobs sharing a
//! node must reserve disjoint channel-id ranges ([`JobSpec::id_range`]),
//! and completion is tracked per [`ClusterJobHandle`] so a batch driver
//! (see `hpl-batch`) can overlap jobs and harvest them independently.
//!
//! Clusters are constructed through [`ClusterBuilder`]: nodes, fabric,
//! host-side execution policy and the [`FaultPlan`] are all fixed at
//! build time, so a run's configuration is part of its identity. Node
//! crash/drain/restart events from the plan are applied at window
//! boundaries of the lockstep loop (see [`Cluster::step_window`]): a
//! crashed node freezes (its pending deliveries drop and it no longer
//! contributes to the cluster-wide next event time), any job with a live
//! launcher tree on it is marked failed, and a later restart rebuilds
//! the node from the builder's factory at the cluster's current time —
//! new launches then re-register their channels on the fresh kernel.

use crate::fault::{FaultPlan, NodeFault};
use crate::net::{Interconnect, LinkFaults, NetConfig};
use crate::pool::WorkerPool;
use crate::window::Window;
use hpl_kernel::observe::{chrome_trace_json, ChromeTraceSink};
use hpl_kernel::{NetMsg, Node, ObserverId, Pid, RunOutcome, TaskState};
use hpl_mpi::{find_mpiexec, spawn_job_tree_with, JobSpec, RankWrap, SchedMode};
use hpl_sim::time::{SimDuration, SimTime};

/// Host-side execution policy of the lockstep driver.
///
/// Within a conservative window node steps are independent, so the
/// driver may fan the active nodes out over a persistent host thread
/// pool; the observable result is **byte-identical** to the serial path
/// (same fingerprints, traces, metrics and reports) because all
/// cross-node effects are merged serially in fixed `(node, capture)`
/// order after the window — see [`Cluster::step_window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimConfig {
    /// Step windows on a worker pool instead of in a serial loop.
    pub parallel: bool,
    /// Stepping threads to use when `parallel` (including the calling
    /// thread). `0` = the host's available parallelism.
    pub threads: usize,
    /// Minimum number of *active* nodes (nodes with an event inside the
    /// window) before a window is worth fanning out; sparser windows run
    /// serially even when `parallel` is set. Windows dense enough to
    /// matter are exactly the ones that amortise the round-trip.
    pub parallel_min_active: usize,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig {
            parallel: false,
            threads: 0,
            parallel_min_active: 8,
        }
    }
}

impl CosimConfig {
    /// Serial lockstep (the default).
    pub fn serial() -> Self {
        CosimConfig::default()
    }

    /// Parallel lockstep on the host's available cores.
    pub fn parallel() -> Self {
        CosimConfig {
            parallel: true,
            ..CosimConfig::default()
        }
    }

    /// Override the stepping-thread count (including the caller).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the dense-window threshold.
    pub fn with_min_active(mut self, min_active: usize) -> Self {
        self.parallel_min_active = min_active;
        self
    }

    /// The explicit thread count, else the host's available parallelism
    /// (a `sched_getaffinity` call plus cgroup reads).
    fn requested_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Handle to a job running across (a subset of) the cluster: one
/// launcher tree per job node.
#[derive(Debug, Clone)]
pub struct ClusterJobHandle {
    /// Index of this job in the cluster's launch order (stable; jobs are
    /// never removed from the routing table).
    pub job_id: usize,
    /// Cluster node hosting each job-relative node: `placement[j]` is
    /// the cluster index of job node `j`.
    pub placement: Vec<usize>,
    /// Root (`perf`) pid on each job node, index = **job-relative**
    /// node (cluster node `placement[j]`).
    pub perf_pids: Vec<Pid>,
    /// Per-job-node launch times (nodes need not share a clock).
    pub launched_at: Vec<SimTime>,
}

/// A coordination runtime interposed between a batch engine and the
/// cluster: it owns how jobs are launched (so it can shim each rank's
/// program on the way in) and how fractional CPU shares handed down by
/// a policy like DFRS are *realized* on the nodes — by weighted kernel
/// slicing, a user-space lease arbiter, or anything else. Batch
/// engines treat the trait as opaque: with no coordinator installed
/// they call [`Cluster::launch`] directly and shares remain the
/// advisory annotations they were. `hpl-coord` provides the reference
/// implementations.
pub trait JobCoordinator {
    /// Launch `job`, standing in for [`Cluster::launch`]. Implementors
    /// typically delegate to [`Cluster::launch_with`] to interpose a
    /// rank shim and/or enroll the job with an initial share.
    fn launch(
        &mut self,
        cluster: &mut Cluster,
        job: &JobSpec,
        mode: SchedMode,
        placement: Placement,
    ) -> ClusterJobHandle;

    /// Realize gang `gang`'s milli-CPU share on cluster node `node`
    /// (called between windows whenever a policy re-divides a node).
    fn set_share(&mut self, cluster: &mut Cluster, node: usize, gang: u64, share_milli: u32);
}

/// A launched job the cluster routes messages for. Jobs stay in the
/// table after completing (their ids keep routing deterministic); the
/// id-range disjointness rule makes dead entries unreachable.
struct ActiveJob {
    job: JobSpec,
    /// Job-relative node -> cluster node.
    placement: Vec<usize>,
    /// Root (`perf`) pid per job-relative node.
    perf_pids: Vec<Pid>,
    /// Node incarnation at launch, per job-relative node: a pid is only
    /// meaningful on the incarnation that spawned it, so every task-table
    /// read is guarded by this (a restarted node has a fresh table).
    incarnations: Vec<u64>,
    /// Set when a node hosting a live launcher tree of this job
    /// crashes. Failed jobs release occupancy, stop routing, and never
    /// complete; a batch driver requeues them.
    failed: bool,
}

/// Where [`Cluster::launch`] places a job's nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Identity placement across the whole cluster: job node `j` on
    /// cluster node `j`. The job's width must equal the cluster's.
    All,
    /// Explicit subset: job node `j` on cluster node `nodes[j]`.
    Nodes(Vec<usize>),
}

impl Placement {
    /// Shorthand for [`Placement::Nodes`] from a slice.
    pub fn on(nodes: &[usize]) -> Self {
        Placement::Nodes(nodes.to_vec())
    }

    fn resolve(self, cluster_len: usize) -> Vec<usize> {
        match self {
            Placement::All => (0..cluster_len).collect(),
            Placement::Nodes(nodes) => nodes,
        }
    }
}

/// Constructs a [`Cluster`]. Everything about a run — the nodes, the
/// fabric, the host-side execution policy, the fault schedule — is
/// fixed here, at build time.
///
/// ```no_run
/// # use hpl_cluster::{Cluster, CosimConfig, FaultPlan, Interconnect, NetConfig};
/// # fn build_node(i: usize) -> hpl_kernel::Node { unimplemented!() }
/// let cluster = Cluster::builder()
///     .nodes_with(4, build_node)
///     .fabric(Interconnect::switched(4, NetConfig::default()))
///     .cosim(CosimConfig::parallel())
///     .faults(FaultPlan::none())
///     .build();
/// ```
pub struct ClusterBuilder {
    nodes: Vec<Node>,
    factory: Option<Box<dyn FnMut(usize) -> Node>>,
    net: Option<Interconnect>,
    cosim: CosimConfig,
    faults: FaultPlan,
}

impl ClusterBuilder {
    /// Provide pre-built nodes. Build them with whatever
    /// topology/seed/event-loop each should have — the cluster does not
    /// care. Restart fault events need [`Self::nodes_with`] instead
    /// (there is nothing to rebuild a crashed node from otherwise).
    pub fn nodes(mut self, nodes: Vec<Node>) -> Self {
        self.nodes = nodes;
        self.factory = None;
        self
    }

    /// Provide nodes via a factory (`factory(i)` builds node `i`). The
    /// factory is kept: a [`NodeFault::Restart`] event rebuilds the
    /// crashed node by calling it again.
    pub fn nodes_with(
        mut self,
        count: usize,
        mut factory: impl FnMut(usize) -> Node + 'static,
    ) -> Self {
        self.nodes = (0..count).map(&mut factory).collect();
        self.factory = Some(Box::new(factory));
        self
    }

    /// The interconnect. Defaults to a flat crossbar with
    /// [`NetConfig::default`] parameters over the node count.
    pub fn fabric(mut self, net: Interconnect) -> Self {
        self.net = Some(net);
        self
    }

    /// Host-side execution policy (serial vs pooled window stepping).
    /// Invisible in every observable output; defaults to serial.
    pub fn cosim(mut self, cfg: CosimConfig) -> Self {
        self.cosim = cfg;
        self
    }

    /// The run's fault schedule. Defaults to [`FaultPlan::none`], which
    /// is zero-cost: no fault state is consulted anywhere.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Build the cluster.
    ///
    /// Panics if no nodes were provided, the fabric size does not match
    /// the node count, a fault event targets a node outside the
    /// cluster, or the plan has restarts without a node factory.
    pub fn build(self) -> Cluster {
        let ClusterBuilder {
            nodes,
            factory,
            net,
            cosim,
            faults,
        } = self;
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        let mut net = net.unwrap_or_else(|| Interconnect::flat(nodes.len(), NetConfig::default()));
        assert_eq!(
            net.nodes(),
            nodes.len(),
            "interconnect fabric size must match the node count"
        );
        for e in &faults.events {
            assert!(
                e.node < nodes.len(),
                "fault event targets node {} outside the cluster",
                e.node
            );
        }
        assert!(
            !faults.has_restarts() || factory.is_some(),
            "restart fault events need ClusterBuilder::nodes_with (a node factory)"
        );
        if faults.loss.is_some() || !faults.degrade.is_empty() {
            net.install_faults(LinkFaults {
                seed: faults.seed,
                loss: faults.loss,
                degrade: faults.degrade.clone(),
            });
        }
        let n = nodes.len();
        let fault_events = faults.sorted_events();
        Cluster {
            nodes,
            net,
            jobs: Vec::new(),
            jobs_on: vec![Vec::new(); n],
            live_trees: vec![Vec::new(); n],
            exits_seen: vec![0; n],
            tree_exits: 0,
            threads: if cosim.parallel {
                cosim.requested_threads()
            } else {
                1
            },
            cfg: cosim,
            pool: None,
            active: Vec::new(),
            outbox: Vec::new(),
            factory,
            fault_events,
            fault_cursor: 0,
            down: vec![false; n],
            drained: vec![false; n],
            incarnation: vec![0; n],
            crashes: 0,
            faults_applied: 0,
        }
    }
}

/// N co-simulated kernel nodes joined by an interconnect.
pub struct Cluster {
    nodes: Vec<Node>,
    net: Interconnect,
    /// Every job ever launched, in launch order; routes captured
    /// [`hpl_kernel::NetMsg`]s to their destination nodes.
    jobs: Vec<ActiveJob>,
    /// `jobs_on[n]`: indices into `jobs` of every job ever placed on
    /// node `n`, in launch order. Jobs sharing a node have disjoint id
    /// ranges, so a channel id names at most one of them.
    jobs_on: Vec<Vec<usize>>,
    /// `live_trees[n]`: root (`perf`) pids of the launcher trees on node
    /// `n` not yet seen to exit.
    live_trees: Vec<Vec<Pid>>,
    /// `exits_seen[n]`: node `n`'s task-exit count when `live_trees[n]`
    /// was last checked; while it matches, no tree there can have died.
    /// Reset when a restart replaces the node.
    exits_seen: Vec<u64>,
    /// Launcher trees seen to exit so far (see [`Cluster::tree_exits`]).
    tree_exits: u64,
    /// Host-side execution policy (serial vs pooled window stepping).
    cfg: CosimConfig,
    /// Stepping threads asked for, with the host's parallelism resolved
    /// once at build; 1 in serial mode.
    threads: usize,
    /// Worker pool, spawned lazily on the first window dense enough to
    /// fan out; `None` until then and in serial mode.
    pool: Option<WorkerPool>,
    /// Scratch: indices of nodes with an event inside the current
    /// window. Reused across windows so steady-state stepping does not
    /// allocate.
    active: Vec<usize>,
    /// Scratch: one window's captured outbound messages, swap-cycled
    /// with each node's capture buffer so neither side reallocates.
    outbox: Vec<NetMsg>,
    /// Node factory from [`ClusterBuilder::nodes_with`]; rebuilds
    /// crashed nodes on restart events.
    factory: Option<Box<dyn FnMut(usize) -> Node>>,
    /// The plan's node events, in application order.
    fault_events: Vec<crate::fault::NodeEvent>,
    /// First not-yet-applied entry of `fault_events`.
    fault_cursor: usize,
    /// `down[n]`: node `n` crashed and has not restarted. A down node
    /// is frozen — excluded from the next-event minimum and the active
    /// list, never stepped, deliveries to it dropped.
    down: Vec<bool>,
    /// `drained[n]`: node `n` accepts no new launches (but keeps
    /// running what it has).
    drained: Vec<bool>,
    /// Restart generation per node; bumped when a node is rebuilt.
    incarnation: Vec<u64>,
    /// Crash events applied so far.
    crashes: u64,
    /// Node fault events applied so far, of every kind.
    faults_applied: u64,
}

impl Cluster {
    /// Start building a cluster: nodes, fabric, execution policy and
    /// fault schedule are all fixed at [`ClusterBuilder::build`].
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            nodes: Vec::new(),
            factory: None,
            net: None,
            cosim: CosimConfig::serial(),
            faults: FaultPlan::none(),
        }
    }

    /// The host-side execution policy.
    pub fn config(&self) -> CosimConfig {
        self.cfg
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the cluster has no nodes (never: `build` asserts).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to node `i`.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Mutable access to node `i` (observer registration, warmup, …).
    /// Stepping a node directly while a job is in flight breaks
    /// lockstep; do it only before the first launch.
    pub fn node_mut(&mut self, i: usize) -> &mut Node {
        &mut self.nodes[i]
    }

    /// All nodes, in cluster order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The interconnect (traffic counters, lookahead).
    pub fn net(&self) -> &Interconnect {
        &self.net
    }

    /// Total events dispatched across all nodes.
    pub fn events_processed(&self) -> u64 {
        self.nodes.iter().map(Node::events_processed).sum()
    }

    /// Earliest pending event time across the cluster, `None` when every
    /// queue is drained. Down nodes are frozen and contribute nothing —
    /// their pending events can never fire.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.down[*i])
            .filter_map(|(_, n)| n.next_event_time())
            .min()
    }

    /// True iff node `n` has crashed and not restarted.
    pub fn node_down(&self, n: usize) -> bool {
        self.down[n]
    }

    /// True iff node `n` is drained (no new launches).
    pub fn node_drained(&self, n: usize) -> bool {
        self.drained[n]
    }

    /// True iff node `n` can host new launches (neither down nor
    /// drained).
    pub fn node_available(&self, n: usize) -> bool {
        !self.down[n] && !self.drained[n]
    }

    /// Crash events applied so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Node fault events (crash, drain, restart) applied so far.
    /// Monotone; together with [`Self::tree_exits`] it tells a driver
    /// polling between windows whether node health, occupancy or job
    /// completion can have changed since it last looked.
    pub fn faults_applied(&self) -> u64 {
        self.faults_applied
    }

    /// Launcher trees that have exited so far, on any node, however
    /// they ended (finished, cancelled, reaped after a peer's crash):
    /// counted per node, so a multi-node job contributes one exit per
    /// tree as each tree ends and releases that node's occupancy — not
    /// one when the whole job is done. Trees frozen on a crashed node
    /// do not count; the crash shows in [`Self::faults_applied`].
    /// Monotone.
    ///
    /// Counted on demand, so stepping costs nothing for drivers that
    /// never ask: each call re-checks the live trees only on nodes
    /// whose kernel task-exit count moved since the last call.
    pub fn tree_exits(&mut self) -> u64 {
        for n in 0..self.nodes.len() {
            let node = &self.nodes[n];
            if node.exits() == self.exits_seen[n] {
                continue;
            }
            self.exits_seen[n] = node.exits();
            let live = &mut self.live_trees[n];
            let before = live.len();
            live.retain(|&pid| node.tasks.get(pid).state != TaskState::Dead);
            self.tree_exits += (before - live.len()) as u64;
        }
        self.tree_exits
    }

    /// True iff this handle's job was failed by a node crash. Failed
    /// jobs release occupancy, never complete, and must be relaunched
    /// (fresh id range) by whoever owns the queue.
    pub fn job_failed(&self, handle: &ClusterJobHandle) -> bool {
        self.jobs[handle.job_id].failed
    }

    /// Job-relative node indices of `handle` whose cluster node still
    /// holds the job's tasks: up, and on the same incarnation that
    /// spawned them. For a failed job this is where checkpoint progress
    /// can still be read.
    pub fn job_survivors(&self, handle: &ClusterJobHandle) -> Vec<usize> {
        let aj = &self.jobs[handle.job_id];
        (0..aj.placement.len())
            .filter(|&j| {
                let n = aj.placement[j];
                !self.down[n] && aj.incarnations[j] == self.incarnation[n]
            })
            .collect()
    }

    /// Forcibly terminate a running job: reap its launcher tree on every
    /// node that still holds one (walltime-limit enforcement, user
    /// cancellation). Call between lockstep windows only, like fault
    /// events, so the decision is identical under every host execution
    /// policy. The job's occupancy releases immediately and
    /// [`Self::job_done`] turns true once every tree is dead, so an
    /// engine harvesting completions observes the kill as an early end
    /// (each node's `perf` task records its node-local kill time in
    /// `exited_at`). No-op on a job already failed by a crash — crash
    /// recovery owns those. Returns the number of trees reaped.
    pub fn cancel_job(&mut self, handle: &ClusterJobHandle) -> usize {
        let aj = &self.jobs[handle.job_id];
        if aj.failed {
            return 0;
        }
        let victims: Vec<(usize, hpl_kernel::Pid)> = aj
            .placement
            .iter()
            .enumerate()
            .filter(|&(j, &n)| !self.down[n] && aj.incarnations[j] == self.incarnation[n])
            .map(|(j, &n)| (n, aj.perf_pids[j]))
            .collect();
        let mut reaped = 0;
        for (n, pid) in victims {
            if self.nodes[n].tasks.get(pid).state != TaskState::Dead {
                self.nodes[n].kill_tree(pid);
                reaped += 1;
            }
        }
        reaped
    }

    /// Combined scheduler-state hash over all nodes, for determinism
    /// tests (same seed + same event loop family ⇒ same fingerprint).
    pub fn state_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for node in &self.nodes {
            h ^= node.state_fingerprint();
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Launch `job` on `placement` (job node `j` runs on cluster node
    /// `placement[j]`; [`Placement::All`] is the identity placement over
    /// the whole cluster): register its cross-node channels on each
    /// source node, then spawn one `perf → (chrt →) mpiexec → ranks`
    /// tree per job node, *without* stepping any node (lockstep starts
    /// with [`Self::step_window`]). Jobs may overlap in time and share
    /// nodes, but jobs that share a node must reserve disjoint id ranges
    /// ([`JobSpec::with_id_base`]) so message routing stays unambiguous
    /// — this is asserted here, as is every target node being up and
    /// undrained.
    pub fn launch(
        &mut self,
        job: &JobSpec,
        mode: SchedMode,
        placement: Placement,
    ) -> ClusterJobHandle {
        self.launch_with(job, mode, placement, &mut |_, p| p)
    }

    /// [`Self::launch`] with a [`RankWrap`] hook interposed on every
    /// rank program as it is forked — `wrap(rank, program)` returns
    /// what the rank actually runs. The identity closure reproduces
    /// [`Self::launch`] byte for byte; `hpl-coord` uses the hook to
    /// install its cooperative lease shim without this crate knowing
    /// coordination exists.
    pub fn launch_with(
        &mut self,
        job: &JobSpec,
        mode: SchedMode,
        placement: Placement,
        wrap: RankWrap<'_>,
    ) -> ClusterJobHandle {
        let placement = placement.resolve(self.nodes.len());
        assert_eq!(
            job.nodes as usize,
            placement.len(),
            "job wants {} nodes but placement has {}",
            job.nodes,
            placement.len()
        );
        for (j, &n) in placement.iter().enumerate() {
            assert!(
                n < self.nodes.len(),
                "placement[{j}] = {n} outside the cluster"
            );
            assert!(
                !placement[..j].contains(&n),
                "placement maps two job nodes onto cluster node {n}"
            );
            assert!(
                !self.down[n] && !self.drained[n],
                "placement[{j}] = {n} is {}",
                if self.down[n] { "down" } else { "drained" }
            );
        }
        for prev in &self.jobs {
            if !prev.placement.iter().any(|n| placement.contains(n)) {
                continue;
            }
            let (a, b) = (prev.job.id_range(), job.id_range());
            assert!(
                a.end() < b.start() || b.end() < a.start(),
                "jobs sharing a node must have disjoint id ranges \
                 ({:?} vs {:?}); use JobSpec::with_id_base",
                a,
                b
            );
        }
        let mut perf_pids = Vec::with_capacity(placement.len());
        let mut launched_at = Vec::with_capacity(placement.len());
        for (j, &n) in placement.iter().enumerate() {
            let node = &mut self.nodes[n];
            for chan in job.cross_node_channels(j as u32) {
                node.register_net_channel(chan);
            }
            launched_at.push(node.now());
            let root = spawn_job_tree_with(node, job, mode, j as u32, wrap);
            if node.cfg.gang_epoch.is_some() {
                // Gang co-scheduling: every rank tree of this job shares
                // one gang id — the job's id base, which the
                // disjoint-id-range assertion above makes unique among
                // co-resident jobs — so each node's gang controller
                // rotates the same job in the same absolute-time epoch
                // window without any cross-node messages.
                node.gang_enroll(root, job.id_base);
            }
            perf_pids.push(root);
        }
        let job_id = self.jobs.len();
        for (&n, &root) in placement.iter().zip(&perf_pids) {
            self.jobs_on[n].push(job_id);
            self.live_trees[n].push(root);
        }
        let incarnations = placement.iter().map(|&n| self.incarnation[n]).collect();
        self.jobs.push(ActiveJob {
            job: job.clone(),
            placement: placement.clone(),
            perf_pids: perf_pids.clone(),
            incarnations,
            failed: false,
        });
        ClusterJobHandle {
            job_id,
            placement,
            perf_pids,
            launched_at,
        }
    }

    /// Set gang `gang`'s milli-CPU share on cluster node `node` for
    /// weighted kernel slicing ([`hpl_kernel::Node::gang_set_share`]).
    /// Called between windows, like every other harness mutation; a
    /// coordination runtime calls it on every node a job occupies so
    /// the lockstep nodes keep deriving identical slice schedules from
    /// the shared virtual clock.
    pub fn set_gang_share(&mut self, node: usize, gang: u64, share_milli: u32) {
        assert!(
            !self.down[node] && !self.drained[node],
            "set_gang_share on {} node {node}",
            if self.down[node] { "down" } else { "drained" }
        );
        self.nodes[node].gang_set_share(gang, share_milli);
    }

    /// Advance one lockstep window. Returns `false` when every node's
    /// event queue is drained (nothing can ever happen again), `true`
    /// after processing a window.
    ///
    /// The window `[t_next, t_next + lookahead)` is a half-open
    /// [`Window`]; any message sent inside it is delivered at or after
    /// the window end (see module docs), so per-node stepping is
    /// independent and deliveries posted after all nodes finish cannot
    /// land in a node's past. Only the *active* nodes — those with an
    /// event inside the window — are stepped at all (for an inactive
    /// node `run_until_time` is a pure no-op, so skipping it is exact);
    /// under [`CosimConfig::parallel`] a dense-enough active set is
    /// fanned out over the worker pool, with every cross-node effect
    /// still merged serially in fixed `(node, capture)` order by
    /// `route_outbound`, which is what keeps the result byte-identical
    /// to the serial path.
    /// Fault events from the plan are applied here, at window
    /// boundaries: every event due at or before the upcoming window's
    /// start lands before any node is stepped (so a crash has
    /// window-granular timing — the first boundary at or after its
    /// scheduled time — exactly like a health-check poll would). When
    /// all queues drain but fault events remain (e.g. a restart of the
    /// only node with work), the events are applied and the loop
    /// continues, so a restart can wake an otherwise-idle cluster.
    pub fn step_window(&mut self) -> bool {
        let t_next = loop {
            let t_next = self.next_event_time();
            let due = match (self.fault_events.get(self.fault_cursor), t_next) {
                (Some(e), Some(t)) => e.at <= t,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if due {
                self.apply_next_fault();
                continue;
            }
            match t_next {
                Some(t) => break t,
                None => return false,
            }
        };
        let window = Window::conservative(t_next, self.net.lookahead());
        let deadline = window.deadline();
        self.active.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            if self.down[i] {
                // A down node leaves the active list permanently: it is
                // never re-claimed by the pool, its frozen events never
                // fire. (Restart replaces the node wholesale.)
                continue;
            }
            if node.next_event_time().is_some_and(|t| t <= deadline) {
                self.active.push(i);
            }
        }
        // Serial mode pays for none of the pool bookkeeping.
        let workers = if self.cfg.parallel && self.active.len() >= self.cfg.parallel_min_active {
            let alive = self.nodes.len() - self.down.iter().filter(|&&d| d).count();
            // At most one stepping thread per alive node, and at least one.
            self.threads.clamp(1, alive.max(1)) - 1
        } else {
            0
        };
        if workers > 0 {
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(workers));
            pool.step_round(&mut self.nodes, &self.active, deadline);
        } else {
            for &i in &self.active {
                self.nodes[i].run_until_time(deadline);
            }
        }
        self.route_outbound();
        true
    }

    /// Apply the next scheduled node fault. Runs serially between
    /// windows, so the decision is identical under every host execution
    /// policy.
    fn apply_next_fault(&mut self) {
        let ev = self.fault_events[self.fault_cursor];
        self.fault_cursor += 1;
        self.faults_applied += 1;
        match ev.kind {
            NodeFault::Drain => {
                self.drained[ev.node] = true;
            }
            NodeFault::Crash => {
                if self.down[ev.node] {
                    return;
                }
                // Fail every job with a live launcher tree on the node
                // (the node's task table is still valid here — it is
                // only replaced on restart). Jobs whose tree already
                // exited on this node are unaffected.
                for &ji in &self.jobs_on[ev.node] {
                    let aj = &mut self.jobs[ji];
                    if aj.failed {
                        continue;
                    }
                    let j = aj
                        .placement
                        .iter()
                        .position(|&p| p == ev.node)
                        .expect("jobs_on lists jobs placed on the node");
                    if aj.incarnations[j] == self.incarnation[ev.node]
                        && self.nodes[ev.node].tasks.get(aj.perf_pids[j]).state != TaskState::Dead
                    {
                        aj.failed = true;
                    }
                }
                self.down[ev.node] = true;
                self.crashes += 1;
                // The frozen node's trees never exit; their jobs failed
                // above, or had already left the node.
                self.live_trees[ev.node].clear();
                // Runtime-level abort on the survivors: reap each failed
                // job's task tree on its other nodes, so orphaned ranks
                // don't spin against (and skew placement for) whatever
                // runs there next. Checkpoint barrier generations stay
                // readable — killing a task doesn't unwind the commits
                // it already made.
                for k in 0..self.jobs_on[ev.node].len() {
                    let aj = &self.jobs[self.jobs_on[ev.node][k]];
                    if !aj.failed {
                        continue;
                    }
                    let victims: Vec<(usize, hpl_kernel::Pid)> = aj
                        .placement
                        .iter()
                        .enumerate()
                        .filter(|&(j, &n)| {
                            n != ev.node
                                && !self.down[n]
                                && aj.incarnations[j] == self.incarnation[n]
                        })
                        .map(|(j, &n)| (n, aj.perf_pids[j]))
                        .collect();
                    for (n, pid) in victims {
                        if self.nodes[n].tasks.get(pid).state != TaskState::Dead {
                            self.nodes[n].kill_tree(pid);
                        }
                    }
                }
            }
            NodeFault::Restart => {
                if !self.down[ev.node] {
                    // Restart of an up node just lifts a drain.
                    self.drained[ev.node] = false;
                    return;
                }
                let factory = self
                    .factory
                    .as_mut()
                    .expect("restart events are rejected at build without a factory");
                let mut fresh = factory(ev.node);
                // Replay the fresh kernel's boot up to the cluster's
                // present, so it rejoins lockstep without dragging the
                // window back into everyone else's past. Deliveries
                // pending in the dead node's queue vanish with it.
                let target = self
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !self.down[*i])
                    .map(|(_, n)| n.now())
                    .max()
                    .unwrap_or(SimTime::ZERO)
                    .max(ev.at);
                fresh.run_until_time(target);
                // A fresh kernel counts exits from zero.
                self.exits_seen[ev.node] = fresh.exits();
                self.nodes[ev.node] = fresh;
                self.down[ev.node] = false;
                self.drained[ev.node] = false;
                self.incarnation[ev.node] += 1;
            }
        }
    }

    /// Drain captured cross-node messages from every node, cost them on
    /// the interconnect, and schedule the deliveries. Deterministic:
    /// nodes are drained in index order and each node's capture order is
    /// its own dispatch order — this serial merge is what erases any
    /// host-thread interleaving from the parallel stepping path. Each
    /// message is routed by the unique job that (a) placed a node on the
    /// source and (b) owns the channel id — unique because jobs sharing
    /// a node have disjoint id ranges, so the per-node index is searched
    /// newest first (the sender is almost always a recent launch).
    fn route_outbound(&mut self) {
        let mut buf = std::mem::take(&mut self.outbox);
        for src in 0..self.nodes.len() {
            if self.down[src] || !self.nodes[src].has_outbound() {
                continue;
            }
            self.nodes[src].drain_outbound_into(&mut buf);
            for &m in buf.iter() {
                let aj = self.jobs_on[src]
                    .iter()
                    .rev()
                    .map(|&ji| &self.jobs[ji])
                    .find(|aj| aj.job.chan_dst_node(m.chan).is_some())
                    .expect("outbound message on a channel no job on this node owns");
                // A failed job's runtime is torn down: in-flight traffic
                // from its surviving ranks goes nowhere. (The ranks
                // themselves quiesce — they spin out their limit, then
                // block forever on peers that no longer exist.)
                if aj.failed {
                    continue;
                }
                let dst_job = aj.job.chan_dst_node(m.chan).expect("checked above") as usize;
                let dst = aj.placement[dst_job];
                debug_assert_ne!(dst, src, "cross-node send routed back to its source");
                if self.down[dst] {
                    continue;
                }
                let (deliver_at, queued) = self.net.transfer(m.at, src, dst, m.bytes);
                self.nodes[dst].post_net_delivery(deliver_at, m.chan, m.tokens, m.at, queued);
            }
        }
        self.outbox = buf;
    }

    /// Run lockstep windows until **this handle's** launcher trees have
    /// exited (other in-flight jobs keep running and are untouched),
    /// then return the **application execution time**: the longest
    /// per-node `mpiexec` lifetime, which is what the paper's
    /// per-benchmark timers report. Fails with
    /// [`RunOutcome::Deadlock`] if every event queue drains first, or
    /// [`RunOutcome::BudgetExhausted`] after `max_events` additional
    /// dispatched events cluster-wide (hang guard). In all cases the
    /// cluster is left exactly where the run stopped.
    pub fn try_run_to_completion(
        &mut self,
        handle: &ClusterJobHandle,
        max_events: u64,
    ) -> Result<SimDuration, RunOutcome> {
        let start_events = self.events_processed();
        while !self.job_done(handle) {
            if self.job_failed(handle) {
                // A crash killed part of the job: it can never complete.
                return Err(RunOutcome::Deadlock);
            }
            if !self.step_window() {
                return Err(RunOutcome::Deadlock);
            }
            if self.events_processed() - start_events > max_events {
                return Err(RunOutcome::BudgetExhausted);
            }
        }
        Ok(self
            .job_exec_time(handle)
            .expect("job_done implies mpiexec exited"))
    }

    /// Panicking convenience wrapper around
    /// [`Self::try_run_to_completion`] for tests and examples that treat
    /// an unfinished run as a bug.
    pub fn run_to_completion(&mut self, handle: &ClusterJobHandle, max_events: u64) -> SimDuration {
        self.try_run_to_completion(handle, max_events)
            .unwrap_or_else(|outcome| panic!("cluster job did not complete: {}", outcome.label()))
    }

    /// True iff the whole launcher tree has exited on every node **of
    /// this job** — other jobs do not affect the answer. Always `false`
    /// for a failed job, and for a job whose node was since restarted
    /// (its pids belong to a dead incarnation); poll at every window
    /// that moves [`Self::tree_exits`] (or simply every window), as the
    /// engines do, and completion is observed before any later crash
    /// can obscure it.
    pub fn job_done(&self, handle: &ClusterJobHandle) -> bool {
        let aj = &self.jobs[handle.job_id];
        !aj.failed
            && handle
                .perf_pids
                .iter()
                .zip(&handle.placement)
                .enumerate()
                .all(|(j, (&pid, &n))| {
                    !self.down[n]
                        && aj.incarnations[j] == self.incarnation[n]
                        && self.nodes[n].tasks.get(pid).state == TaskState::Dead
                })
    }

    /// Application execution time of a completed job: the longest
    /// per-node `mpiexec` lifetime since launch. `None` until every
    /// node's mpiexec has exited, and forever for a failed job.
    pub fn job_exec_time(&self, handle: &ClusterJobHandle) -> Option<SimDuration> {
        let aj = &self.jobs[handle.job_id];
        if aj.failed {
            return None;
        }
        let mut exec = SimDuration::ZERO;
        for (j, &n) in handle.placement.iter().enumerate() {
            if self.down[n] || aj.incarnations[j] != self.incarnation[n] {
                return None;
            }
            let node = &self.nodes[n];
            let mpiexec = find_mpiexec(node, handle.perf_pids[j])?;
            let exited = node.tasks.get(mpiexec).exited_at?;
            exec = exec.max(exited.since(handle.launched_at[j]));
        }
        Some(exec)
    }

    /// Number of jobs currently occupying cluster node `n`: launched,
    /// placed on `n`, not failed, and whose launcher tree on `n` has not
    /// yet exited. This is the quantity a batch policy's occupancy limit
    /// bounds; a crash releases its jobs' occupancy here immediately.
    pub fn active_jobs_on(&self, n: usize) -> usize {
        self.jobs_on[n]
            .iter()
            .map(|&ji| &self.jobs[ji])
            .filter(|aj| {
                !aj.failed
                    && aj.placement.iter().position(|&p| p == n).is_some_and(|j| {
                        aj.incarnations[j] == self.incarnation[n]
                            && self.nodes[n].tasks.get(aj.perf_pids[j]).state != TaskState::Dead
                    })
            })
            .count()
    }

    /// Total jobs ever launched on the cluster.
    pub fn jobs_launched(&self) -> usize {
        self.jobs.len()
    }

    /// Merge each node's [`ChromeTraceSink`] into a single Chrome-trace
    /// document, one trace *process* per node (process id = node
    /// index plus one) so `chrome://tracing` renders the cluster as
    /// stacked per-node track groups. `sinks[i]` must be the observer
    /// id of a `ChromeTraceSink` registered on node `i`; returns
    /// `None` if any id does not resolve.
    pub fn export_chrome_trace(&self, sinks: &[ObserverId]) -> Option<String> {
        assert_eq!(sinks.len(), self.nodes.len(), "one sink id per node");
        let parts = self
            .nodes
            .iter()
            .zip(sinks)
            .map(|(node, &id)| Some((node.observer::<ChromeTraceSink>(id)?, node.now())))
            .collect::<Option<Vec<_>>>()?;
        Some(chrome_trace_json(&parts, |i, pid| {
            self.nodes[i].tasks.get(pid).name.clone()
        }))
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("net", &self.net)
            .field("jobs_launched", &self.jobs.len())
            .finish()
    }
}
