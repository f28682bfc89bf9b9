//! Rank programs: MPI operations lowered onto kernel steps.
//!
//! A rank's behaviour is a flat list of [`MpiOp`]s (loops are unrolled at
//! construction). Each op expands, at run time, into one or more kernel
//! [`Step`]s: compute segments with per-rank jitter, LogP-style message
//! costs, and spin-then-block synchronisation through the kernel's
//! channels and barriers.

use hpl_kernel::{BarrierId, ChanId, NetSpan, ProgCtx, Program, Step};
use hpl_sim::SimDuration;
use std::collections::VecDeque;

/// Per-message latency of the LogP message-cost model (software +
/// interconnect alpha term). The NAS calibration reads it too.
pub const MSG_ALPHA: SimDuration = SimDuration::from_micros(20);
/// Per-byte cost of the LogP message-cost model (1/bandwidth beta
/// term), in ns.
pub const MSG_BETA_NS_PER_BYTE: f64 = 1.0;

/// Tunables of the simulated MPI library.
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Busy-wait budget before a waiting rank yields its CPU (the MPICH
    /// progress-engine spin).
    pub spin_limit: SimDuration,
    /// Relative standard deviation of per-rank compute jitter
    /// (application-intrinsic imbalance, not OS noise).
    pub compute_jitter: f64,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            // MPICH's shared-memory progress engine busy-polls for a
            // long time (yielding, not blocking); 10 ms covers ordinary
            // rank skew so blocking only happens under real noise.
            spin_limit: SimDuration::from_millis(10),
            compute_jitter: 0.002,
        }
    }
}

/// One MPI-level operation in a rank's script.
#[derive(Debug, Clone)]
pub enum MpiOp {
    /// Local computation of roughly `mean` (per-rank jitter applied).
    Compute {
        /// Mean full-speed duration.
        mean: SimDuration,
    },
    /// `MPI_Barrier` over the whole job.
    Barrier,
    /// `MPI_Allreduce` of `bytes` per rank (tree: `log2(p)` rounds).
    Allreduce {
        /// Payload size per rank.
        bytes: u64,
    },
    /// `MPI_Alltoall` of `bytes` to every peer (`p − 1` messages).
    Alltoall {
        /// Payload per destination.
        bytes: u64,
    },
    /// Ring neighbour exchange: send to and receive from both ring
    /// neighbours (`bytes` each way) — the boundary-exchange pattern used
    /// by lu and mg.
    NeighborExchange {
        /// Payload per neighbour.
        bytes: u64,
    },
    /// `MPI_Bcast` from rank 0 (binomial tree, synchronising variant).
    Bcast {
        /// Payload size.
        bytes: u64,
    },
    /// `MPI_Reduce` to rank 0 (binomial tree, synchronising variant).
    Reduce {
        /// Payload per rank.
        bytes: u64,
    },
    /// A coordinated application checkpoint: quiesce (sync phase), write
    /// the checkpoint (`cost` of per-rank I/O-bound work), then arrive
    /// at a per-node checkpoint barrier whose generation counter is the
    /// *observable* record of how many checkpoints this node has
    /// committed — a batch driver reads it off surviving nodes after a
    /// crash to decide how much work a requeued job may skip
    /// (restart-from-last-checkpoint).
    Checkpoint {
        /// Per-rank cost of writing the checkpoint.
        cost: SimDuration,
    },
}

/// A complete MPI job: per-rank script plus config.
///
/// ```
/// use hpl_mpi::{JobSpec, MpiOp};
/// use hpl_sim::SimDuration;
///
/// let job = JobSpec::new(8, JobSpec::repeat(10, &[
///     MpiOp::Compute { mean: SimDuration::from_millis(5) },
///     MpiOp::Allreduce { bytes: 8 },
/// ]));
/// assert_eq!(job.total_compute(), SimDuration::from_millis(50));
/// ```
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Number of ranks.
    pub nprocs: u32,
    /// The (identical SPMD) operation list each rank executes.
    pub ops: Vec<MpiOp>,
    /// MPI library tunables.
    pub config: MpiConfig,
    /// Base for channel/barrier id allocation; jobs on one node must use
    /// disjoint bases (the launcher offsets by job index).
    pub id_base: u64,
    /// Number of cluster nodes the job spans (block placement:
    /// `nprocs / nodes` consecutive ranks per node). 1 = the classic
    /// single-node job, whose step stream is unchanged.
    pub nodes: u32,
}

impl JobSpec {
    /// Create a job with default MPI config.
    pub fn new(nprocs: u32, ops: Vec<MpiOp>) -> Self {
        assert!(nprocs > 0);
        JobSpec {
            nprocs,
            ops,
            config: MpiConfig::default(),
            id_base: 0,
            nodes: 1,
        }
    }

    /// Override the MPI config.
    pub fn with_config(mut self, config: MpiConfig) -> Self {
        self.config = config;
        self
    }

    /// Spread the job over `nodes` cluster nodes with block placement
    /// (ranks `[n·rpn, (n+1)·rpn)` on node `n`, `rpn = nprocs/nodes`).
    /// `nprocs` must divide evenly.
    pub fn with_nodes(mut self, nodes: u32) -> Self {
        assert!(nodes > 0, "a job needs at least one node");
        assert_eq!(
            self.nprocs % nodes,
            0,
            "nprocs {} must divide evenly over {} nodes",
            self.nprocs,
            nodes
        );
        self.nodes = nodes;
        self
    }

    /// Set the channel/barrier id base. Two jobs running concurrently on
    /// one node must use disjoint bases; ids
    /// `base ..= base + nprocs² + 2·nodes` are reserved by a job
    /// (pairwise channels, per-node local barriers, per-node release
    /// channels), plus `nodes` more checkpoint-barrier ids when the op
    /// list checkpoints.
    pub fn with_id_base(mut self, base: u64) -> Self {
        self.id_base = base;
        self
    }

    /// True iff the op list contains a [`MpiOp::Checkpoint`].
    pub fn has_checkpoints(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, MpiOp::Checkpoint { .. }))
    }

    /// The inclusive id range this job reserves (see
    /// [`Self::with_id_base`]). Concurrent jobs sharing a node must have
    /// disjoint ranges; a batch driver allocates bases by striding past
    /// the previous job's range end. The per-node checkpoint-barrier ids
    /// are reserved **only** for checkpointing jobs, so the id layout of
    /// every pre-existing job is untouched.
    pub fn id_range(&self) -> std::ops::RangeInclusive<u64> {
        let ckpt = if self.has_checkpoints() {
            self.nodes as u64
        } else {
            0
        };
        self.id_base..=self.id_base + (self.nprocs as u64).pow(2) + 2 * self.nodes as u64 + ckpt
    }

    /// Per-node checkpoint barrier: its kernel-side generation counter
    /// equals the number of checkpoints the node's ranks have committed.
    pub fn ckpt_barrier_id(&self, node: u32) -> BarrierId {
        debug_assert!(node < self.nodes);
        BarrierId(self.id_base + 1 + (self.nprocs as u64).pow(2) + (2 * self.nodes + node) as u64)
    }

    /// Ranks placed on each node.
    pub fn ranks_per_node(&self) -> u32 {
        self.nprocs / self.nodes
    }

    /// Node index hosting `rank` (block placement).
    pub fn node_of(&self, rank: u32) -> u32 {
        debug_assert!(rank < self.nprocs);
        rank / self.ranks_per_node()
    }

    /// The node-leader rank of `node` (its lowest-numbered rank; leaders
    /// run the inter-node rounds of hierarchical collectives).
    pub fn leader_of(&self, node: u32) -> u32 {
        debug_assert!(node < self.nodes);
        node * self.ranks_per_node()
    }

    /// Ranks hosted on `node`, as an inclusive-exclusive range.
    pub fn ranks_on(&self, node: u32) -> std::ops::Range<u32> {
        let rpn = self.ranks_per_node();
        node * rpn..(node + 1) * rpn
    }

    /// Per-node barrier id for the intra-node round of hierarchical
    /// collectives.
    pub fn local_barrier_id(&self, node: u32) -> BarrierId {
        debug_assert!(node < self.nodes);
        BarrierId(self.id_base + 1 + (self.nprocs as u64).pow(2) + node as u64)
    }

    /// Per-node release channel: the node leader deposits one token per
    /// local non-leader once the inter-node rounds complete.
    pub fn release_chan(&self, node: u32) -> ChanId {
        debug_assert!(node < self.nodes);
        ChanId(self.id_base + 1 + (self.nprocs as u64).pow(2) + (self.nodes + node) as u64)
    }

    /// The span a cluster driver registers on `node`
    /// ([`hpl_kernel::Node::register_net_span`]): it classifies every
    /// `src → dst` pair whose sender lives on `node` and whose receiver
    /// lives elsewhere as external, so a `NetSend` on one is captured
    /// for interconnect routing instead of notifying locally. `None`
    /// for a single-node job, which has no cross-node channels.
    pub fn net_span(&self, node: u32) -> Option<NetSpan> {
        (self.nodes > 1).then(|| NetSpan {
            first: self.id_base + 1,
            nprocs: self.nprocs,
            local: self.ranks_on(node),
        })
    }

    /// Destination node of a cross-node channel id, or `None` if the id
    /// is not one of this job's pairwise channels (routing table for the
    /// cluster driver).
    pub fn chan_dst_node(&self, chan: ChanId) -> Option<u32> {
        let lo = self.id_base + 1;
        let hi = lo + (self.nprocs as u64).pow(2);
        if !(lo..hi).contains(&chan.0) {
            return None;
        }
        let dst = ((chan.0 - lo) % self.nprocs as u64) as u32;
        Some(self.node_of(dst))
    }

    /// Unroll a loop: repeat `body` `times` times (helper for workload
    /// construction).
    pub fn repeat(times: u32, body: &[MpiOp]) -> Vec<MpiOp> {
        let mut out = Vec::with_capacity(body.len() * times as usize);
        for _ in 0..times {
            out.extend_from_slice(body);
        }
        out
    }

    /// The job-wide barrier id.
    pub fn barrier_id(&self) -> BarrierId {
        BarrierId(self.id_base)
    }

    /// Channel id for messages `src → dst`.
    pub fn chan_id(&self, src: u32, dst: u32) -> ChanId {
        debug_assert!(src < self.nprocs && dst < self.nprocs);
        ChanId(self.id_base + 1 + (src * self.nprocs + dst) as u64)
    }

    /// Total full-speed compute per rank (calibration helper).
    pub fn total_compute(&self) -> SimDuration {
        self.ops
            .iter()
            .map(|op| match op {
                MpiOp::Compute { mean } => *mean,
                _ => SimDuration::ZERO,
            })
            .fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// The program one rank executes.
pub struct RankProgram {
    rank: u32,
    job: JobSpec,
    op_idx: usize,
    pending: VecDeque<Step>,
    init_done: bool,
    label: String,
}

impl RankProgram {
    /// Build rank `rank`'s program for a job.
    pub fn new(job: &JobSpec, rank: u32) -> Self {
        assert!(rank < job.nprocs);
        RankProgram {
            rank,
            job: job.clone(),
            op_idx: 0,
            pending: VecDeque::new(),
            init_done: false,
            label: format!("rank{rank}"),
        }
    }

    /// Phase-exit synchronisation. Single-node jobs keep the exact
    /// historic step stream (one spin barrier); multi-node jobs run the
    /// hierarchical form — intra-node spin barrier, then a leader-only
    /// dissemination barrier over the interconnect carrying `bytes` per
    /// round message, then a local release. The dissemination pattern
    /// (round `k`: send to `(me+2ᵏ) mod n`, wait from `(me−2ᵏ) mod n`)
    /// works for any node count, not just powers of two.
    fn push_sync_phase(&mut self, bytes: u64) {
        let job = &self.job;
        let spin_limit = job.config.spin_limit;
        if job.nodes == 1 {
            self.pending.push_back(Step::BarrierSpin {
                id: job.barrier_id(),
                parties: job.nprocs,
                spin_limit,
            });
            return;
        }
        let node = job.node_of(self.rank);
        let rpn = job.ranks_per_node();
        self.pending.push_back(Step::BarrierSpin {
            id: job.local_barrier_id(node),
            parties: rpn,
            spin_limit,
        });
        let release = job.release_chan(node);
        let me = job.leader_of(node);
        if self.rank == me {
            let n = job.nodes;
            let msg_cost = self.msg_cost(1, 0);
            let mut k = 1;
            while k < n {
                let to = job.leader_of((node + k) % n);
                let from = job.leader_of((node + n - k) % n);
                // Sender CPU overhead (the LogGP o term) for injecting
                // the message; wire latency comes from the interconnect.
                self.pending.push_back(Step::Compute(msg_cost));
                self.pending.push_back(Step::NetSend {
                    chan: job.chan_id(me, to),
                    tokens: 1,
                    bytes,
                });
                self.pending.push_back(Step::WaitChanSpin {
                    chan: job.chan_id(from, me),
                    spin_limit,
                });
                k *= 2;
            }
            if rpn > 1 {
                self.pending.push_back(Step::Notify {
                    chan: release,
                    tokens: rpn - 1,
                });
            }
        } else {
            self.pending.push_back(Step::WaitChanSpin {
                chan: release,
                spin_limit,
            });
        }
    }

    /// A pt2p deposit on `chan`: a plain notify on single-node jobs
    /// (byte-identical historic path), a `NetSend` on multi-node jobs —
    /// which itself degrades to a notify when both endpoints share a
    /// node, so only genuinely remote messages cross the interconnect.
    fn push_send(&mut self, chan: ChanId, bytes: u64) {
        if self.job.nodes == 1 {
            self.pending.push_back(Step::Notify { chan, tokens: 1 });
        } else {
            self.pending.push_back(Step::NetSend {
                chan,
                tokens: 1,
                bytes,
            });
        }
    }

    fn msg_cost(&self, messages: u64, bytes_each: u64) -> SimDuration {
        let per_msg = MSG_ALPHA.as_nanos() as f64 + MSG_BETA_NS_PER_BYTE * bytes_each as f64;
        SimDuration::from_nanos((per_msg * messages as f64).round() as u64)
    }

    fn jittered(&self, ctx: &mut ProgCtx<'_>, mean: SimDuration) -> SimDuration {
        let sigma = self.job.config.compute_jitter;
        if sigma <= 0.0 {
            return mean;
        }
        let f = ctx.rng.normal_with(1.0, sigma).max(0.5);
        mean.mul_f64(f)
    }

    /// Expand the next op into pending steps.
    fn expand_next(&mut self, ctx: &mut ProgCtx<'_>) {
        if !self.init_done {
            self.init_done = true;
            // MPI_Init: library setup compute (staggered by rank to model
            // sequential connection establishment), then a few rounds of
            // connection handshakes — each with a blocking socket wait,
            // which is where the launch-phase scheduler churn of the
            // paper's Table I minimum columns comes from — and an init
            // barrier.
            let setup = SimDuration::from_micros(300 + 120 * self.rank as u64);
            self.pending
                .push_back(Step::Compute(self.jittered(ctx, setup)));
            for _ in 0..10 {
                let work = SimDuration::from_micros(ctx.rng.range_u64(80, 250));
                let wait = SimDuration::from_micros(ctx.rng.range_u64(300, 3000));
                self.pending.push_back(Step::Compute(work));
                self.pending.push_back(Step::Sleep(wait));
            }
            self.push_sync_phase(8);
            return;
        }
        let Some(op) = self.job.ops.get(self.op_idx).cloned() else {
            // MPI_Finalize: closing barrier, then exit.
            self.push_sync_phase(8);
            self.pending.push_back(Step::Exit);
            self.op_idx += 1;
            return;
        };
        self.op_idx += 1;
        let p = self.job.nprocs as u64;
        match op {
            MpiOp::Compute { mean } => {
                self.pending
                    .push_back(Step::Compute(self.jittered(ctx, mean)));
            }
            MpiOp::Barrier => {
                // Dissemination rounds cost alpha*log2(p) before sync.
                let rounds = (p.max(2) as f64).log2().ceil() as u64;
                self.pending
                    .push_back(Step::Compute(self.msg_cost(rounds, 0)));
                self.push_sync_phase(8);
            }
            MpiOp::Allreduce { bytes } => {
                let rounds = (p.max(2) as f64).log2().ceil() as u64;
                self.pending
                    .push_back(Step::Compute(self.msg_cost(rounds, bytes)));
                self.push_sync_phase(bytes);
            }
            MpiOp::Alltoall { bytes } => {
                self.pending
                    .push_back(Step::Compute(self.msg_cost(p - 1, bytes)));
                self.push_sync_phase(bytes);
            }
            MpiOp::Bcast { bytes } | MpiOp::Reduce { bytes } => {
                // Binomial tree: ceil(log2 p) rounds of (alpha + beta*b);
                // modelled as synchronising (the NAS codes use them at
                // phase boundaries).
                let rounds = (p.max(2) as f64).log2().ceil() as u64;
                self.pending
                    .push_back(Step::Compute(self.msg_cost(rounds, bytes)));
                self.push_sync_phase(bytes);
            }
            MpiOp::Checkpoint { cost } => {
                // Quiesce for a consistent cut, write the checkpoint,
                // then commit it at the per-node checkpoint barrier —
                // the generation bump is what makes the checkpoint
                // observable to the batch driver.
                self.push_sync_phase(8);
                self.pending
                    .push_back(Step::Compute(self.jittered(ctx, cost)));
                let node = self.job.node_of(self.rank);
                self.pending.push_back(Step::BarrierSpin {
                    id: self.job.ckpt_barrier_id(node),
                    parties: self.job.ranks_per_node(),
                    spin_limit: self.job.config.spin_limit,
                });
            }
            MpiOp::NeighborExchange { bytes } => {
                if self.job.nprocs == 1 {
                    return;
                }
                let left = (self.rank + self.job.nprocs - 1) % self.job.nprocs;
                let right = (self.rank + 1) % self.job.nprocs;
                // Send both ways (message cost), then receive both ways.
                self.pending
                    .push_back(Step::Compute(self.msg_cost(2, bytes)));
                self.push_send(self.job.chan_id(self.rank, left), bytes);
                self.push_send(self.job.chan_id(self.rank, right), bytes);
                self.pending.push_back(Step::WaitChanSpin {
                    chan: self.job.chan_id(left, self.rank),
                    spin_limit: self.job.config.spin_limit,
                });
                if left != right {
                    self.pending.push_back(Step::WaitChanSpin {
                        chan: self.job.chan_id(right, self.rank),
                        spin_limit: self.job.config.spin_limit,
                    });
                }
            }
        }
    }
}

impl Program for RankProgram {
    fn next_step(&mut self, ctx: &mut ProgCtx<'_>) -> Step {
        loop {
            if let Some(step) = self.pending.pop_front() {
                return step;
            }
            self.expand_next(ctx);
        }
    }

    fn describe(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_kernel::Pid;
    use hpl_sim::{Rng, SimTime};

    fn next(p: &mut RankProgram, rng: &mut Rng) -> Step {
        let mut ctx = ProgCtx {
            pid: Pid(0),
            now: SimTime::ZERO,
            rng,
        };
        p.next_step(&mut ctx)
    }

    /// Drive through MPI_Init (setup compute, connection rounds, init
    /// barrier); returns the number of steps consumed.
    fn skip_init(p: &mut RankProgram, rng: &mut Rng) -> usize {
        for i in 1..100 {
            if matches!(next(p, rng), Step::BarrierSpin { .. }) {
                return i;
            }
        }
        panic!("no init barrier within 100 steps");
    }

    #[test]
    fn job_channel_ids_are_disjoint() {
        let job = JobSpec::new(8, vec![]);
        let mut seen = std::collections::HashSet::new();
        for s in 0..8 {
            for d in 0..8 {
                assert!(seen.insert(job.chan_id(s, d)));
            }
        }
        assert!(!seen.contains(&ChanId(job.barrier_id().0)));
    }

    /// The span rule against the per-channel list it replaced: a
    /// channel is external on a node exactly when the old list held it.
    #[test]
    fn net_span_matches_cross_node_channel_list() {
        // The retired enumeration, kept as the oracle.
        fn cross_node_channels(job: &JobSpec, node: u32) -> Vec<ChanId> {
            let mut out = Vec::new();
            if job.nodes == 1 {
                return out;
            }
            for src in job.ranks_on(node) {
                for dst in 0..job.nprocs {
                    if job.node_of(dst) != node {
                        out.push(job.chan_id(src, dst));
                    }
                }
            }
            out
        }
        for nodes in 1..=6u32 {
            for rpn in 1..=4u32 {
                for base in [0u64, 1_000_003] {
                    let job = JobSpec::new(nodes * rpn, vec![])
                        .with_nodes(nodes)
                        .with_id_base(base);
                    // Every id the job reserves, plus a margin either side.
                    let ids = base.saturating_sub(3)..=*job.id_range().end() + 3;
                    for node in 0..nodes {
                        let oracle: std::collections::HashSet<ChanId> =
                            cross_node_channels(&job, node).into_iter().collect();
                        let span = job.net_span(node);
                        for id in ids.clone() {
                            let chan = ChanId(id);
                            let external = span
                                .as_ref()
                                .is_some_and(|s| s.classify(chan) == Some(true));
                            assert_eq!(
                                external,
                                oracle.contains(&chan),
                                "nodes {nodes}, rpn {rpn}, base {base}, node {node}, chan {id}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn init_has_setup_rounds_and_barrier() {
        let job = JobSpec::new(
            4,
            vec![MpiOp::Compute {
                mean: SimDuration::from_millis(1),
            }],
        );
        let mut p = RankProgram::new(&job, 0);
        let mut rng = Rng::new(1);
        assert!(
            matches!(next(&mut p, &mut rng), Step::Compute(_)),
            "setup first"
        );
        let mut sleeps = 0;
        loop {
            match next(&mut p, &mut rng) {
                Step::Sleep(_) => sleeps += 1,
                Step::BarrierSpin { parties, .. } => {
                    assert_eq!(parties, 4);
                    break;
                }
                Step::Compute(_) => {}
                other => panic!("unexpected init step {other:?}"),
            }
        }
        assert!(sleeps >= 3, "init includes blocking connection rounds");
    }

    #[test]
    fn checkpoint_ids_are_reserved_only_when_checkpointing() {
        let plain = JobSpec::new(4, vec![MpiOp::Barrier]).with_nodes(2);
        let ckpt = JobSpec::new(
            4,
            vec![MpiOp::Checkpoint {
                cost: SimDuration::from_micros(200),
            }],
        )
        .with_nodes(2);
        // Same base: the checkpointing job reserves exactly `nodes`
        // extra ids past the historic layout, so non-checkpointing jobs
        // keep their id ranges (and batch id striding) bit-for-bit.
        assert_eq!(*ckpt.id_range().end(), *plain.id_range().end() + 2);
        assert!(ckpt.has_checkpoints() && !plain.has_checkpoints());
        for node in 0..2 {
            let id = ckpt.ckpt_barrier_id(node).0;
            assert!(ckpt.id_range().contains(&id));
            assert!(id > *plain.id_range().end());
        }
    }

    #[test]
    fn checkpoint_expands_to_sync_write_and_commit_barrier() {
        let job = JobSpec::new(
            4,
            vec![MpiOp::Checkpoint {
                cost: SimDuration::from_micros(200),
            }],
        )
        .with_nodes(2);
        let mut p = RankProgram::new(&job, 0);
        let mut rng = Rng::new(9);
        skip_init(&mut p, &mut rng);
        // Multi-node sync phase for rank 0 (a node leader): local
        // barrier, then dissemination rounds, then release, then the
        // checkpoint write and the per-node commit barrier.
        let mut steps = Vec::new();
        for _ in 0..32 {
            let s = next(&mut p, &mut rng);
            let done = matches!(
                s,
                Step::BarrierSpin { id, parties, .. }
                    if id == job.ckpt_barrier_id(0) && parties == job.ranks_per_node()
            );
            steps.push(s);
            if done {
                return;
            }
        }
        panic!("no checkpoint commit barrier in {steps:?}");
    }

    #[test]
    fn finalize_barrier_then_exit() {
        let job = JobSpec::new(2, vec![]);
        let mut p = RankProgram::new(&job, 1);
        let mut rng = Rng::new(2);
        skip_init(&mut p, &mut rng);
        assert!(matches!(next(&mut p, &mut rng), Step::BarrierSpin { .. }));
        assert!(matches!(next(&mut p, &mut rng), Step::Exit));
    }

    #[test]
    fn allreduce_charges_log_rounds() {
        let job = JobSpec::new(8, vec![MpiOp::Allreduce { bytes: 1000 }]);
        let mut p = RankProgram::new(&job, 0);
        let mut rng = Rng::new(3);
        skip_init(&mut p, &mut rng);
        match next(&mut p, &mut rng) {
            // 3 rounds x (20us + 1000ns) = 63us.
            Step::Compute(d) => assert_eq!(d.as_micros(), 63),
            other => panic!("expected compute, got {other:?}"),
        }
        assert!(matches!(next(&mut p, &mut rng), Step::BarrierSpin { .. }));
    }

    #[test]
    fn alltoall_charges_p_minus_1() {
        let job = JobSpec::new(8, vec![MpiOp::Alltoall { bytes: 0 }]);
        let mut p = RankProgram::new(&job, 0);
        let mut rng = Rng::new(4);
        skip_init(&mut p, &mut rng);
        match next(&mut p, &mut rng) {
            Step::Compute(d) => assert_eq!(d.as_micros(), 140), // 7 x 20us
            other => panic!("expected compute, got {other:?}"),
        }
    }

    #[test]
    fn neighbor_exchange_sends_and_receives() {
        let job = JobSpec::new(4, vec![MpiOp::NeighborExchange { bytes: 100 }]);
        let mut p = RankProgram::new(&job, 1);
        let mut rng = Rng::new(5);
        skip_init(&mut p, &mut rng);
        assert!(
            matches!(next(&mut p, &mut rng), Step::Compute(_)),
            "message cost"
        );
        assert!(
            matches!(next(&mut p, &mut rng), Step::Notify { chan, .. } if chan == job.chan_id(1, 0))
        );
        assert!(
            matches!(next(&mut p, &mut rng), Step::Notify { chan, .. } if chan == job.chan_id(1, 2))
        );
        assert!(
            matches!(next(&mut p, &mut rng), Step::WaitChanSpin { chan, .. } if chan == job.chan_id(0, 1))
        );
        assert!(
            matches!(next(&mut p, &mut rng), Step::WaitChanSpin { chan, .. } if chan == job.chan_id(2, 1))
        );
    }

    #[test]
    fn two_rank_exchange_waits_once() {
        let job = JobSpec::new(2, vec![MpiOp::NeighborExchange { bytes: 0 }]);
        let mut p = RankProgram::new(&job, 0);
        let mut rng = Rng::new(6);
        skip_init(&mut p, &mut rng);
        let mut waits = 0;
        for _ in 0..5 {
            if matches!(next(&mut p, &mut rng), Step::WaitChanSpin { .. }) {
                waits += 1;
            }
        }
        assert_eq!(waits, 1, "left == right collapses to a single wait");
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let job = JobSpec::new(
            2,
            vec![MpiOp::Compute {
                mean: SimDuration::from_millis(10),
            }],
        );
        let mut p1 = RankProgram::new(&job, 0);
        let mut p2 = RankProgram::new(&job, 0);
        let mut r1 = Rng::new(7);
        let mut r2 = Rng::new(7);
        skip_init(&mut p1, &mut r1);
        skip_init(&mut p2, &mut r2);
        match (next(&mut p1, &mut r1), next(&mut p2, &mut r2)) {
            (Step::Compute(a), Step::Compute(b)) => {
                assert_eq!(a, b, "deterministic jitter");
                let f = a.as_secs_f64() / 0.010;
                assert!((0.9..1.1).contains(&f), "jitter factor {f}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bcast_and_reduce_synchronise() {
        let job = JobSpec::new(
            8,
            vec![MpiOp::Bcast { bytes: 4096 }, MpiOp::Reduce { bytes: 8 }],
        );
        let mut p = RankProgram::new(&job, 2);
        let mut rng = Rng::new(21);
        skip_init(&mut p, &mut rng);
        assert!(matches!(next(&mut p, &mut rng), Step::Compute(_)));
        assert!(matches!(next(&mut p, &mut rng), Step::BarrierSpin { .. }));
        assert!(matches!(next(&mut p, &mut rng), Step::Compute(_)));
        assert!(matches!(next(&mut p, &mut rng), Step::BarrierSpin { .. }));
    }

    #[test]
    fn id_base_separates_jobs() {
        let a = JobSpec::new(8, vec![]);
        let b = JobSpec::new(8, vec![]).with_id_base(1000);
        assert_ne!(a.barrier_id(), b.barrier_id());
        for s in 0..8 {
            for d in 0..8 {
                assert_ne!(a.chan_id(s, d), b.chan_id(s, d));
            }
        }
    }

    #[test]
    fn repeat_unrolls() {
        let body = [
            MpiOp::Compute {
                mean: SimDuration::from_millis(1),
            },
            MpiOp::Barrier,
        ];
        let ops = JobSpec::repeat(3, &body);
        assert_eq!(ops.len(), 6);
        let job = JobSpec::new(2, ops);
        assert_eq!(job.total_compute(), SimDuration::from_millis(3));
    }
}
