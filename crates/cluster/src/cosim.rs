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
//! new launches then register their channel spans on the fresh kernel.
//!
//! The driver's cost follows the nodes that do something, not the
//! machine size. Each node's next-event time sits in a dense cache that
//! is refreshed only where a node can have changed: after it is
//! stepped, receives a delivery, gets a launch, cancel, share change,
//! crash, crash reap or restart, or is handed out through
//! [`Cluster::node_mut`] (which marks it dirty until the next window).
//! Outbound messages are drained only from the nodes stepped in the
//! window plus the dirty ones — no other node can have sent anything.
//! The cluster clock, a monotone dispatched-event count and the
//! launcher-tree exit count are kept as the caches are refreshed, so a
//! driver polls them in O(1).
//! The same refresh records each launcher tree's exit times as the tree
//! dies; job completion, end and exec times and node occupancy are
//! reads of that record, never of a (possibly restarted) task table.

use crate::fault::{FaultPlan, NodeFault};
use crate::net::{Interconnect, LinkFaults, NetConfig};
use crate::pool::WorkerPool;
use crate::window::Window;
use hpl_kernel::observe::chrome_trace_json;
use hpl_kernel::{NetMsg, Node, Pid, RunOutcome, TaskState};
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
///
/// The thread count alone selects the path: a window goes to the pool
/// only when the resolved count is above 1 and the window's active set
/// reaches `parallel_min_active`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CosimConfig {
    /// Stepping threads (including the calling thread). `1` steps every
    /// window serially; `0` = the host's available parallelism.
    pub threads: usize,
    /// Minimum number of *active* nodes (nodes with an event inside the
    /// window) before a window is worth fanning out; sparser windows run
    /// serially whatever the thread count. Windows dense enough to
    /// matter are exactly the ones that amortise the round-trip.
    pub parallel_min_active: usize,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig {
            threads: 1,
            parallel_min_active: 8,
        }
    }
}

impl CosimConfig {
    /// Serial lockstep on one thread (the default).
    pub fn serial() -> Self {
        CosimConfig::default()
    }

    /// Parallel lockstep on the host's available cores.
    pub fn parallel() -> Self {
        CosimConfig {
            threads: 0,
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
    /// meaningful on the incarnation that spawned it, so a later read of
    /// the node's state (checkpoint generations) is guarded by this.
    incarnations: Vec<u64>,
    /// How each job-relative node's launcher tree ended, recorded by
    /// [`Cluster::refresh`] as the tree leaves the live set. `None`
    /// while the tree is live, and forever for a tree frozen on a
    /// crashed node.
    ends: Vec<Option<TreeEnd>>,
    /// Set when a node hosting a live launcher tree of this job
    /// crashes. Failed jobs release occupancy, stop routing, and never
    /// complete; a batch driver requeues them.
    failed: bool,
}

/// The exit times of one launcher tree, read from its node's task table
/// in the refresh that saw the tree die.
#[derive(Clone, Copy)]
struct TreeEnd {
    /// The root (`perf`) task's exit: when the tree released its node.
    perf: SimTime,
    /// `mpiexec`'s exit; `None` for a tree killed before `perf` forked
    /// it.
    mpiexec: Option<SimTime>,
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
        let next_at = nodes.iter().map(next_or_max).collect();
        let slots = nodes
            .iter()
            .map(|node| Slot {
                events: node.events_processed(),
                exits: node.exits(),
                dirty: false,
                down: false,
                drained: false,
                incarnation: 0,
            })
            .collect();
        let clock = nodes.iter().map(Node::now).max().expect("non-empty");
        Cluster {
            nodes,
            net,
            jobs: Vec::new(),
            jobs_on: vec![Vec::new(); n],
            live_trees: vec![Vec::new(); n],
            next_at,
            slots,
            dirty: Vec::with_capacity(n),
            clock,
            dispatched: 0,
            tree_exits: 0,
            threads: cosim.requested_threads(),
            cfg: cosim,
            pool: None,
            active: Vec::new(),
            outbox: Vec::new(),
            factory,
            fault_events,
            fault_cursor: 0,
            crashes: 0,
            faults_applied: 0,
        }
    }
}

/// The cluster's bookkeeping for one node: its health, and what the
/// cluster last read from it — the baselines the incremental counters
/// advance from.
struct Slot {
    /// The node's dispatched-event count at its last refresh.
    events: u64,
    /// The node's task-exit count at its last refresh; while it
    /// matches, no launcher tree there can have died.
    exits: u64,
    /// Handed out through [`Cluster::node_mut`] since the last window
    /// routed it: its cache entries may be stale and it may hold
    /// outbound messages.
    dirty: bool,
    /// Crashed and not restarted. A down node is frozen — excluded from
    /// the next-event minimum and the active list, never stepped,
    /// deliveries to it dropped.
    down: bool,
    /// Accepts no new launches (but keeps running what it has).
    drained: bool,
    /// Restart generation; bumped when the node is rebuilt.
    incarnation: u64,
}

/// A node's next-event time, `SimTime::MAX` when its queue is empty.
fn next_or_max(node: &Node) -> SimTime {
    node.next_event_time().unwrap_or(SimTime::MAX)
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
    /// `live_trees[n]`: `(job index, job-relative node)` of each
    /// launcher tree on node `n` not yet seen to exit, in launch order.
    live_trees: Vec<Vec<(usize, usize)>>,
    /// `next_at[n]`: node `n`'s next-event time as of its last refresh,
    /// `SimTime::MAX` when its queue is empty or it is down. The window
    /// minimum and the active list are read from this dense array.
    next_at: Vec<SimTime>,
    /// `slots[n]`: node `n`'s health and counter baselines.
    slots: Vec<Slot>,
    /// Nodes with `slots[n].dirty` set, in the order they were handed
    /// out. Sized for every node at build, so warming each node through
    /// `node_mut` does not grow it.
    dirty: Vec<usize>,
    /// Max over the nodes' clocks as of their last refresh (see
    /// [`Cluster::clock`]).
    clock: SimTime,
    /// Events dispatched since build, across every node incarnation
    /// (see [`Cluster::events_dispatched`]).
    dispatched: u64,
    /// Launcher trees seen to exit so far (see [`Cluster::tree_exits`]).
    tree_exits: u64,
    /// Host-side execution policy (serial vs pooled window stepping).
    cfg: CosimConfig,
    /// Stepping threads asked for, with the host's parallelism resolved
    /// once at build.
    threads: usize,
    /// Worker pool, spawned lazily on the first window dense enough to
    /// fan out; `None` until then and with one stepping thread.
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
    ///
    /// The node is marked dirty: whatever the caller does with it (run
    /// it, spawn on it, publish through it) is read back into the
    /// cluster's caches and counters before they are next used, and
    /// the next window drains its outbound messages. Marking costs
    /// O(1); a dirty node costs one refresh per window.
    pub fn node_mut(&mut self, i: usize) -> &mut Node {
        if !self.slots[i].dirty {
            self.slots[i].dirty = true;
            self.dirty.push(i);
        }
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

    /// Total events dispatched by the current nodes: the sum of their
    /// [`Node::events_processed`] counts, for reports. A restart swaps
    /// in a fresh kernel that counts from its own boot, so this can
    /// fall; budget a run on [`Self::events_dispatched`] instead.
    /// O(nodes).
    pub fn events_processed(&self) -> u64 {
        self.nodes.iter().map(Node::events_processed).sum()
    }

    /// Events dispatched since the cluster was built, on every node and
    /// every incarnation of it. Monotone, so `events_dispatched() -
    /// start` is a safe hang budget across restarts. O(dirty nodes).
    pub fn events_dispatched(&self) -> u64 {
        self.dirty.iter().fold(self.dispatched, |sum, &n| {
            sum + (self.nodes[n].events_processed() - self.slots[n].events)
        })
    }

    /// The cluster clock: the latest clock among the current nodes,
    /// down ones included. A driver stamps its decisions with it.
    /// O(dirty nodes).
    pub fn clock(&self) -> SimTime {
        self.dirty
            .iter()
            .fold(self.clock, |t, &n| t.max(self.nodes[n].now()))
    }

    /// True iff node `n` has crashed and not restarted.
    pub fn node_down(&self, n: usize) -> bool {
        self.slots[n].down
    }

    /// True iff node `n` is drained (no new launches).
    pub fn node_drained(&self, n: usize) -> bool {
        self.slots[n].drained
    }

    /// True iff node `n` can host new launches (neither down nor
    /// drained).
    pub fn node_available(&self, n: usize) -> bool {
        !self.slots[n].down && !self.slots[n].drained
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
    /// Kept as nodes are refreshed: a refresh re-checks the node's live
    /// trees only when its kernel task-exit count moved. A call costs
    /// O(dirty nodes).
    pub fn tree_exits(&mut self) -> u64 {
        for k in 0..self.dirty.len() {
            self.refresh(self.dirty[k]);
        }
        self.tree_exits
    }

    /// Read node `n` back into the caches: its next-event time, the
    /// cluster clock, the dispatched-event count and its tree exits,
    /// recording each tree that died in its job's per-tree ends.
    /// Idempotent, so it is safe wherever a node may have changed.
    fn refresh(&mut self, n: usize) {
        let node = &self.nodes[n];
        self.next_at[n] = if self.slots[n].down {
            SimTime::MAX
        } else {
            next_or_max(node)
        };
        self.clock = self.clock.max(node.now());
        let slot = &mut self.slots[n];
        self.dispatched += node.events_processed() - slot.events;
        slot.events = node.events_processed();
        if node.exits() != slot.exits {
            slot.exits = node.exits();
            let jobs = &mut self.jobs;
            let live = &mut self.live_trees[n];
            let before = live.len();
            live.retain(|&(ji, j)| {
                let aj = &mut jobs[ji];
                let perf = node.tasks.get(aj.perf_pids[j]);
                if perf.state != TaskState::Dead {
                    return true;
                }
                aj.ends[j] = Some(TreeEnd {
                    perf: perf.exited_at.expect("a dead task has an exit time"),
                    mpiexec: find_mpiexec(node, aj.perf_pids[j])
                        .and_then(|m| node.tasks.get(m).exited_at),
                });
                false
            });
            self.tree_exits += (before - live.len()) as u64;
        }
    }

    /// Debug builds: every cache entry equals a fresh read of its node,
    /// no node holds an outbound message the last routing missed, and
    /// the live-tree record matches a scan of the task tables: a tree of
    /// the node's current incarnation is live iff its root is not dead,
    /// and a dead one's recorded end is its root's exit time.
    #[cfg(debug_assertions)]
    fn assert_caches_consistent(&self) {
        for (n, node) in self.nodes.iter().enumerate() {
            let mut live = Vec::new();
            for &ji in &self.jobs_on[n] {
                let aj = &self.jobs[ji];
                let j = aj.placement.iter().position(|&p| p == n);
                let j = j.expect("jobs_on lists jobs placed on the node");
                if self.slots[n].down || aj.incarnations[j] != self.slots[n].incarnation {
                    continue;
                }
                let perf = node.tasks.get(aj.perf_pids[j]);
                if perf.state == TaskState::Dead {
                    assert_eq!(
                        aj.ends[j].map(|e| e.perf),
                        perf.exited_at,
                        "node {n}: stale tree end"
                    );
                } else {
                    live.push((ji, j));
                }
            }
            assert_eq!(self.live_trees[n], live, "node {n}: stale live trees");
            let fresh = if self.slots[n].down {
                SimTime::MAX
            } else {
                next_or_max(node)
            };
            assert_eq!(self.next_at[n], fresh, "node {n}: stale next-event time");
            assert_eq!(
                self.slots[n].events,
                node.events_processed(),
                "node {n}: stale event count"
            );
            assert!(
                self.slots[n].down || !node.has_outbound(),
                "node {n}: outbound message not routed"
            );
        }
        let clock = self.nodes.iter().map(Node::now).max();
        assert_eq!(Some(self.clock), clock, "stale cluster clock");
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
                !self.slots[n].down && aj.incarnations[j] == self.slots[n].incarnation
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
    /// `exited_at`, and the refresh after the kill records it as the
    /// tree's end). No-op on a job already failed by a crash — the crash
    /// reaped its live trees. Returns the number of trees reaped.
    pub fn cancel_job(&mut self, handle: &ClusterJobHandle) -> usize {
        self.kill_live_trees(handle.job_id)
    }

    /// Kill job `ji`'s live launcher trees in placement order, refreshing
    /// each node so the kill is recorded as the tree's end. Returns the
    /// number of trees killed.
    fn kill_live_trees(&mut self, ji: usize) -> usize {
        let mut reaped = 0;
        for j in 0..self.jobs[ji].placement.len() {
            let (n, pid) = (self.jobs[ji].placement[j], self.jobs[ji].perf_pids[j]);
            if self.live_trees[n].contains(&(ji, j))
                && self.nodes[n].tasks.get(pid).state != TaskState::Dead
            {
                self.nodes[n].kill_tree(pid);
                self.refresh(n);
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
    /// the whole cluster): register its cross-node channel span on each
    /// node, then spawn one `perf → (chrt →) mpiexec → ranks`
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
                !self.slots[n].down && !self.slots[n].drained,
                "placement[{j}] = {n} is {}",
                if self.slots[n].down {
                    "down"
                } else {
                    "drained"
                }
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
            if let Some(span) = job.net_span(j as u32) {
                node.register_net_span(span);
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
            self.refresh(n);
        }
        let job_id = self.jobs.len();
        for (j, &n) in placement.iter().enumerate() {
            self.jobs_on[n].push(job_id);
            self.live_trees[n].push((job_id, j));
        }
        let incarnations = placement
            .iter()
            .map(|&n| self.slots[n].incarnation)
            .collect();
        self.jobs.push(ActiveJob {
            job: job.clone(),
            placement: placement.clone(),
            perf_pids: perf_pids.clone(),
            incarnations,
            ends: vec![None; placement.len()],
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
            !self.slots[node].down && !self.slots[node].drained,
            "set_gang_share on {} node {node}",
            if self.slots[node].down {
                "down"
            } else {
                "drained"
            }
        );
        self.nodes[node].gang_set_share(gang, share_milli);
        self.refresh(node);
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
    /// with more than one stepping thread a dense-enough active set is
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
    ///
    /// Bookkeeping is O(active): the window start and the active list
    /// come from the dense next-event cache (one pass over it, no node
    /// reads), and only the stepped and dirty nodes are refreshed and
    /// drained.
    pub fn step_window(&mut self) -> bool {
        for k in 0..self.dirty.len() {
            self.refresh(self.dirty[k]);
        }
        let t_next = loop {
            let t_next = self
                .next_at
                .iter()
                .copied()
                .min()
                .filter(|&t| t != SimTime::MAX);
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
        // A down node's entry is `SimTime::MAX`, so it leaves the active
        // list permanently: it is never re-claimed by the pool, its
        // frozen events never fire. (Restart replaces the node wholesale.)
        self.active.clear();
        self.active.extend(
            self.next_at
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t <= deadline)
                .map(|(i, _)| i),
        );
        // One stepping thread pays for none of the pool bookkeeping.
        let workers = if self.threads > 1 && self.active.len() >= self.cfg.parallel_min_active {
            // At most one stepping thread per alive node, and at least
            // one; counting alive nodes past the thread count is moot.
            let alive = self
                .slots
                .iter()
                .filter(|s| !s.down)
                .take(self.threads)
                .count();
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
        for k in 0..self.active.len() {
            self.refresh(self.active[k]);
        }
        // Only the stepped nodes and the dirty ones can hold outbound
        // messages; drain them in node order, as a scan of every node
        // would.
        let mut senders = std::mem::take(&mut self.active);
        if !self.dirty.is_empty() {
            for &n in &self.dirty {
                self.slots[n].dirty = false;
            }
            senders.append(&mut self.dirty);
            senders.sort_unstable();
            senders.dedup();
        }
        self.route_outbound(&senders);
        self.active = senders;
        #[cfg(debug_assertions)]
        self.assert_caches_consistent();
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
                self.slots[ev.node].drained = true;
            }
            NodeFault::Crash => {
                if self.slots[ev.node].down {
                    return;
                }
                // Fail exactly the jobs with a live launcher tree on the
                // node. Those trees are frozen and never exit; jobs
                // whose tree already exited here keep their record.
                let failed = std::mem::take(&mut self.live_trees[ev.node]);
                for &(ji, _) in &failed {
                    self.jobs[ji].failed = true;
                }
                self.slots[ev.node].down = true;
                self.next_at[ev.node] = SimTime::MAX;
                self.crashes += 1;
                // Runtime-level abort on the survivors: reap each failed
                // job's task tree on its other nodes, so orphaned ranks
                // don't spin against (and skew placement for) whatever
                // runs there next. Checkpoint barrier generations stay
                // readable — killing a task doesn't unwind the commits
                // it already made.
                for &(ji, _) in &failed {
                    self.kill_live_trees(ji);
                }
            }
            NodeFault::Restart => {
                if !self.slots[ev.node].down {
                    // Restart of an up node just lifts a drain.
                    self.slots[ev.node].drained = false;
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
                    .filter(|(i, _)| !self.slots[*i].down)
                    .map(|(_, n)| n.now())
                    .max()
                    .unwrap_or(SimTime::ZERO)
                    .max(ev.at);
                fresh.run_until_time(target);
                // A fresh kernel counts events and exits from its own
                // boot; its replay adds to the monotone event count.
                self.dispatched += fresh.events_processed();
                self.slots[ev.node].events = fresh.events_processed();
                self.slots[ev.node].exits = fresh.exits();
                self.nodes[ev.node] = fresh;
                self.slots[ev.node].down = false;
                self.slots[ev.node].drained = false;
                self.slots[ev.node].incarnation += 1;
                // The replaced node may have held the latest clock.
                self.clock = self.nodes.iter().map(Node::now).max().expect("non-empty");
                self.refresh(ev.node);
            }
        }
    }

    /// Drain captured cross-node messages from `senders` (ascending node
    /// indices), cost them on the interconnect, and schedule the
    /// deliveries. Deterministic: nodes are drained in index order and
    /// each node's capture order is its own dispatch order — this serial
    /// merge is what erases any host-thread interleaving from the
    /// parallel stepping path. Each message is routed by the unique job
    /// that (a) placed a node on the source and (b) owns the channel id
    /// — unique because jobs sharing a node have disjoint id ranges, so
    /// the per-node index is searched newest first (the sender is almost
    /// always a recent launch).
    fn route_outbound(&mut self, senders: &[usize]) {
        let mut buf = std::mem::take(&mut self.outbox);
        for &src in senders {
            if self.slots[src].down || !self.nodes[src].has_outbound() {
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
                if self.slots[dst].down {
                    continue;
                }
                let (deliver_at, queued) = self.net.transfer(m.at, src, dst, m.bytes);
                self.nodes[dst].post_net_delivery(deliver_at, m.chan, m.tokens, m.at, queued);
                self.next_at[dst] = self.next_at[dst].min(deliver_at);
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
    /// dispatched events cluster-wide (hang guard, counted by
    /// [`Self::events_dispatched`], so restarts cannot reset it). In all
    /// cases the cluster is left exactly where the run stopped.
    pub fn try_run_to_completion(
        &mut self,
        handle: &ClusterJobHandle,
        max_events: u64,
    ) -> Result<SimDuration, RunOutcome> {
        let start_events = self.events_dispatched();
        // The job can only finish in a window where some tree exited.
        let mut exits = None;
        loop {
            let now = self.tree_exits();
            if exits != Some(now) {
                exits = Some(now);
                if self.job_done(handle) {
                    break;
                }
            }
            if self.job_failed(handle) {
                // A crash killed part of the job: it can never complete.
                return Err(RunOutcome::Deadlock);
            }
            if !self.step_window() {
                return Err(RunOutcome::Deadlock);
            }
            if self.events_dispatched() - start_events > max_events {
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
    /// for a failed job. A tree's exit is recorded when the cluster
    /// refreshes its node (every window, every [`Self::tree_exits`]
    /// call), and a later crash or restart of that node leaves the
    /// record alone.
    pub fn job_done(&self, handle: &ClusterJobHandle) -> bool {
        self.job_end(handle).is_some()
    }

    /// Time the job released its last node: the latest `perf` exit over
    /// its launcher trees. `None` until every tree has exited, and
    /// forever for a failed job (its tree on the crashed node never
    /// exits).
    pub fn job_end(&self, handle: &ClusterJobHandle) -> Option<SimTime> {
        let mut end = SimTime::ZERO;
        for e in &self.jobs[handle.job_id].ends {
            end = end.max(e.as_ref()?.perf);
        }
        Some(end)
    }

    /// Application execution time of a completed job: the longest
    /// per-node `mpiexec` lifetime since launch. `None` until every
    /// tree has exited, and forever for a failed job.
    pub fn job_exec_time(&self, handle: &ClusterJobHandle) -> Option<SimDuration> {
        let ends = &self.jobs[handle.job_id].ends;
        let mut exec = SimDuration::ZERO;
        for (e, &at) in ends.iter().zip(&handle.launched_at) {
            exec = exec.max(e.as_ref()?.mpiexec?.since(at));
        }
        Some(exec)
    }

    /// Number of jobs currently occupying cluster node `n`: those with a
    /// launcher tree on `n` that has not yet exited. This is the
    /// quantity a batch policy's occupancy limit bounds; a crash
    /// releases its jobs' occupancy here immediately.
    pub fn active_jobs_on(&self, n: usize) -> usize {
        self.live_trees[n].len()
    }

    /// Merge every node's trace ring ([`Node::enable_trace`]) into a
    /// single Chrome-trace document, one trace *process* per node
    /// (process id = node index plus one) so `chrome://tracing` renders
    /// the cluster as stacked per-node track groups. Returns `None` if
    /// any node has no trace, e.g. a node rebuilt by a restart.
    pub fn export_chrome_trace(&self) -> Option<String> {
        let parts = self
            .nodes
            .iter()
            .map(|node| Some((node.trace()?, node.now())))
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
