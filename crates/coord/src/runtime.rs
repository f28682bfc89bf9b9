//! The coordination runtime: one object that realizes fractional CPU
//! shares through either backend behind the cluster's
//! [`JobCoordinator`] seam.

use crate::arbiter::ArbiterProgram;
use crate::shim::CoordShim;
use crate::state::{CoordStats, NodeCoordState, SharedCoord};
use hpl_cluster::{Cluster, ClusterJobHandle, JobCoordinator, Placement};
use hpl_kernel::{Policy, TaskSpec};
use hpl_mpi::{JobSpec, SchedMode};
use hpl_sim::SimDuration;
use std::sync::{Arc, Mutex};

/// The arbiter daemon's RT priority: above the HPC ranks it arbitrates,
/// like the kernel's migration threads.
const ARBITER_PRIORITY: u8 = 90;

/// Modeled CPU cost of one arbitration pass.
const ARBITER_COST: SimDuration = SimDuration::from_micros(2);

/// Which mechanism realizes the shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordBackend {
    /// Weighted kernel slicing: shares go straight to each node's gang
    /// controller ([`hpl_kernel::Node::gang_set_share`]), which cuts
    /// the rotation period proportionally and preempts at boundaries.
    /// Requires nodes built with `KernelConfig::gang_epoch`.
    KernelWeighted,
    /// User-space coordination: a per-node RT arbiter daemon plus a
    /// cooperative shim on every rank. Works under **any** kernel
    /// class — the kernel needs no gang support at all — at the price
    /// of phase-boundary granularity.
    UserSpace,
}

/// The runtime. Construct with [`CoordRuntime::kernel_weighted`] or
/// [`CoordRuntime::user_space`], [`install`](CoordRuntime::install) it
/// on the cluster once, then hand it to a batch engine (or drive its
/// [`JobCoordinator`] methods directly).
pub struct CoordRuntime {
    backend: CoordBackend,
    epoch: SimDuration,
    /// Per-cluster-node shared segments (user-space backend only).
    states: Vec<SharedCoord>,
    installed: bool,
}

impl CoordRuntime {
    /// Kernel-weighted backend. `epoch` must match the `gang_epoch`
    /// the cluster's nodes were built with (it is the unit the share
    /// table re-divides).
    pub fn kernel_weighted(epoch: SimDuration) -> Self {
        CoordRuntime {
            backend: CoordBackend::KernelWeighted,
            epoch,
            states: Vec::new(),
            installed: false,
        }
    }

    /// User-space backend with slice period base `epoch`. Using the
    /// same value as the kernel backend's `gang_epoch` makes the two
    /// backends' schedules directly comparable — they are then the
    /// *same* schedule, enforced at different layers.
    pub fn user_space(epoch: SimDuration) -> Self {
        CoordRuntime {
            backend: CoordBackend::UserSpace,
            ..CoordRuntime::kernel_weighted(epoch)
        }
    }

    /// Which backend this runtime drives.
    pub fn backend(&self) -> CoordBackend {
        self.backend
    }

    /// Install the runtime on `cluster`: the user-space backend spawns
    /// one parked arbiter daemon per node; the kernel backend has
    /// nothing to install (the mechanism ships with the kernel).
    /// Call once, before launching coordinated jobs.
    pub fn install(&mut self, cluster: &mut Cluster) {
        assert!(!self.installed, "coord runtime installed twice");
        self.installed = true;
        if self.backend != CoordBackend::UserSpace {
            return;
        }
        for n in 0..cluster.len() {
            let shm: SharedCoord = Arc::new(Mutex::new(NodeCoordState::default()));
            let prog = ArbiterProgram::new(shm.clone(), self.epoch, ARBITER_COST);
            cluster.node_mut(n).spawn(TaskSpec::new(
                "coordd",
                Policy::Fifo(ARBITER_PRIORITY),
                Box::new(prog),
            ));
            self.states.push(shm);
        }
    }

    /// A node's coordination counters (user-space backend; the kernel
    /// backend reports through `SchedMetrics` instead).
    pub fn stats(&self, node: usize) -> CoordStats {
        self.states
            .get(node)
            .map(|s| s.lock().unwrap().stats)
            .unwrap_or_default()
    }

    /// Cluster-wide counter totals.
    pub fn total_stats(&self) -> CoordStats {
        self.states
            .iter()
            .map(|s| s.lock().unwrap().stats)
            .fold(CoordStats::default(), CoordStats::merged)
    }
}

impl JobCoordinator for CoordRuntime {
    fn launch(
        &mut self,
        cluster: &mut Cluster,
        job: &JobSpec,
        mode: SchedMode,
        placement: Placement,
    ) -> ClusterJobHandle {
        assert!(self.installed, "install the coord runtime before launching");
        match self.backend {
            // Kernel backend: the plain launch already gang-enrolls the
            // tree (nodes carry gang_epoch); shares arrive via
            // set_share.
            CoordBackend::KernelWeighted => cluster.launch(job, mode, placement),
            CoordBackend::UserSpace => {
                let resolved: Vec<usize> = match &placement {
                    Placement::All => (0..cluster.len()).collect(),
                    Placement::Nodes(v) => v.clone(),
                };
                let gang = job.id_base;
                let epoch_ns = self.epoch.as_nanos();
                let states = &self.states;
                let spec = job.clone();
                cluster.launch_with(job, mode, placement, &mut |rank, prog| {
                    let j = (0..spec.nodes)
                        .find(|&j| spec.ranks_on(j).contains(&rank))
                        .expect("rank within the job");
                    let shm = states[resolved[j as usize]].clone();
                    Box::new(CoordShim::new(prog, shm, gang, epoch_ns))
                })
            }
        }
    }

    fn set_share(&mut self, cluster: &mut Cluster, node: usize, gang: u64, share_milli: u32) {
        match self.backend {
            CoordBackend::KernelWeighted => cluster.set_gang_share(node, gang, share_milli),
            CoordBackend::UserSpace => {
                self.states[node]
                    .lock()
                    .unwrap()
                    .set_share(gang, share_milli);
            }
        }
    }
}
