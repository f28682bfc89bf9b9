//! Per-case host-time ledger: spans recorded in the benchmark around
//! its calls into the library crates' public APIs.

use std::time::Instant;

/// The phases of one case, in the order a case passes through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Constructing the simulated system: `NodeBuilder::build` with the
    /// `HplClass` (hpl-kernel, hpl-core), `ClusterBuilder::build`
    /// (hpl-cluster), `CoordRuntime::install` (hpl-coord).
    Build,
    /// Settling the daemon populations before launch: `Node::run_for`
    /// (hpl-kernel).
    Warm,
    /// Handing the case's work to the system: `nas_job` (hpl-workloads),
    /// `launch` (hpl-mpi), `Cluster::launch` (hpl-cluster),
    /// `JobCoordinator::launch`/`set_share` (hpl-coord), `SwfTrace`
    /// parsing and mapping (hpl-batch), `PerfSession::open` (hpl-perf).
    Submit,
    /// Driving the work to completion: `LaunchHandle::try_run_to_completion`
    /// (hpl-mpi), `Cluster::try_run_to_completion` (hpl-cluster),
    /// `BatchRun::run` (hpl-batch).
    Drive,
    /// Reading results back: `PerfSession::close`/`delta` (hpl-perf),
    /// `state_fingerprint`, batch and coordination reports.
    Check,
}

impl Phase {
    pub const ALL: [Phase; 5] = [
        Phase::Build,
        Phase::Warm,
        Phase::Submit,
        Phase::Drive,
        Phase::Check,
    ];

    /// Metric name stem.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Warm => "warm",
            Phase::Submit => "submit",
            Phase::Drive => "drive",
            Phase::Check => "check",
        }
    }
}

/// Host nanoseconds spent per phase during one case.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    ns: [u64; 5],
}

impl Ledger {
    /// Run `f`, charging its host time to `phase`.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns[phase as usize] += t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn ns(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }

    /// Set-up: bringing a fresh system to a launch-ready state.
    pub fn boot_ns(&self) -> u64 {
        self.ns(Phase::Build) + self.ns(Phase::Warm)
    }

    /// The measured run: submitting the work and driving it to the end.
    pub fn run_ns(&self) -> u64 {
        self.ns(Phase::Submit) + self.ns(Phase::Drive)
    }
}
