//! Repetition driver.
//!
//! One *repetition* reproduces the paper's measurement procedure: boot a
//! node with its daemon population, let it settle, start `perf
//! stat -a` (open a [`PerfSession`]), launch the application through the
//! mode-appropriate launcher stack, run to completion, close the window,
//! and record `(execution time, migrations, context switches, …)`.
//! Repetitions are deterministic in `(base_seed, rep_index)` and
//! independent, so they parallelise over host threads with results
//! identical to a serial run.

use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::{KernelConfig, Node, NodeBuilder};
use hpl_mpi::{launch, JobSpec, SchedMode};
use hpl_perf::{PerfSession, RunRecord, RunTable};
use hpl_sim::{Rng, SimDuration};
use hpl_topology::Topology;

/// Which kernel the node boots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Unmodified Linux: RT + CFS + Idle, full load balancing.
    StandardLinux,
    /// HPL: HPC class between RT and CFS, all dynamic balancing off.
    Hpl,
    /// Ablation: the HPC class registered but dynamic balancing left on
    /// (isolates the class-priority effect from the balancing effect).
    HplBalanceOn,
    /// Ablation: HPL plus NETTICK-style tickless operation for lone HPC
    /// tasks (the paper's projected further improvement).
    HplTickless,
}

/// Which daemon population the node runs.
#[derive(Debug, Clone)]
pub enum NoiseKind {
    /// The calibrated 2010-era population.
    Standard,
    /// No daemons at all (idealised floor).
    Quiet,
    /// Ferreira-style injection: per-CPU daemons with fixed
    /// period/duration.
    Injection {
        /// Injection period.
        period: SimDuration,
        /// Injection duration per event.
        duration: SimDuration,
    },
}

impl NoiseKind {
    fn profile(&self, ncpus: u32) -> NoiseProfile {
        match self {
            NoiseKind::Standard => NoiseProfile::standard(ncpus),
            NoiseKind::Quiet => NoiseProfile::quiet(),
            NoiseKind::Injection { period, duration } => {
                hpl_workloads::micro::injection_profile(ncpus, *period, *duration)
            }
        }
    }
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Label for reports (e.g. `cg.A.8`).
    pub label: String,
    /// The MPI job.
    pub job: JobSpec,
    /// Launch mode (CFS / RT / HPC / pinned).
    pub mode: SchedMode,
    /// Kernel flavour.
    pub scheduler: Scheduler,
    /// Daemon population.
    pub noise: NoiseKind,
    /// Repetitions (the paper uses 1000).
    pub reps: u32,
    /// Base seed; rep `i` uses stream `(base_seed, i)`.
    pub base_seed: u64,
    /// Machine model.
    pub topo: Topology,
    /// Settle time before the measurement window opens.
    pub warmup: SimDuration,
    /// Event-loop fast path (timer wheel + quiescence fast-forward).
    /// On by default; regression tests flip it off to prove the fast
    /// and reference paths produce byte-identical records.
    pub fast_event_loop: bool,
    /// Attach a metrics-registry observer to every repetition and carry
    /// the collected [`hpl_perf::SchedMetrics`] in each
    /// [`RunRecord::metrics`]. Off by default: observers do not perturb
    /// the simulation, but the registry costs a little time per event.
    pub collect_metrics: bool,
}

impl RunConfig {
    /// Standard defaults on the paper's machine.
    pub fn new(
        label: impl Into<String>,
        job: JobSpec,
        mode: SchedMode,
        scheduler: Scheduler,
    ) -> Self {
        RunConfig {
            label: label.into(),
            job,
            mode,
            scheduler,
            noise: NoiseKind::Standard,
            reps: 100,
            base_seed: 0x5EED,
            topo: Topology::power6_js22(),
            warmup: SimDuration::from_millis(400),
            fast_event_loop: true,
            collect_metrics: false,
        }
    }

    /// Set repetitions.
    pub fn with_reps(mut self, reps: u32) -> Self {
        self.reps = reps;
        self
    }

    /// Set base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Set noise kind.
    pub fn with_noise(mut self, noise: NoiseKind) -> Self {
        self.noise = noise;
        self
    }

    /// Toggle the event-loop fast path (reference path when `false`).
    pub fn with_fast_event_loop(mut self, fast: bool) -> Self {
        self.fast_event_loop = fast;
        self
    }

    /// Collect observer metrics (timeslice / off-CPU latency / migration
    /// inter-arrival histograms and decision counters) on every rep.
    pub fn with_metrics(mut self, collect: bool) -> Self {
        self.collect_metrics = collect;
        self
    }
}

/// Boot repetition `rep`'s node: the kernel flavour, daemons and
/// topology of `cfg`, seeded from stream `(cfg.base_seed, rep)`.
pub(crate) fn build_node(cfg: &RunConfig, rep: u64) -> Node {
    let seed = Rng::for_run(cfg.base_seed, rep).next_u64();
    let noise = cfg.noise.profile(cfg.topo.total_cpus());
    let (mut kc, hpc_class) = match cfg.scheduler {
        Scheduler::StandardLinux => (KernelConfig::default(), false),
        Scheduler::Hpl => (KernelConfig::hpl(), true),
        Scheduler::HplBalanceOn => (KernelConfig::default(), true),
        Scheduler::HplTickless => {
            let mut kc = KernelConfig::hpl();
            kc.tickless_single_hpc = true;
            (kc, true)
        }
    };
    kc.fast_event_loop = cfg.fast_event_loop;
    let mut builder = NodeBuilder::new(cfg.topo.clone())
        .with_config(kc)
        .with_noise(noise)
        .with_seed(seed);
    if hpc_class {
        builder = builder.with_hpc_class(Box::new(hpl_core::HplClass::new()));
    }
    builder.build()
}

/// Upper bound on events per repetition (hang guard): generous multiple
/// of the tick count for the longest plausible run.
pub(crate) const MAX_EVENTS: u64 = 40_000_000_000;

/// Execute one repetition. A repetition that deadlocks or exhausts its
/// event budget is *recorded*, not panicked on: its [`RunRecord`]
/// carries the failed [`hpl_perf::RunOutcome`] and the wall time up to
/// the stop, so sweeps keep aggregating and reports can flag the rep.
pub fn run_once(cfg: &RunConfig, rep: u64) -> RunRecord {
    let mut node = build_node(cfg, rep);
    node.run_for(cfg.warmup);
    // Observer attached after warmup so the registry covers the same
    // window as the perf session.
    let metrics_sink = cfg
        .collect_metrics
        .then(|| node.attach_observer(Box::new(hpl_kernel::MetricsSink::new())));
    // perf stat -a window opens just before the launcher starts.
    let launched = node.now();
    let mut session = PerfSession::open(&node.counters, launched);
    let handle = launch(&mut node, &cfg.job, cfg.mode);
    let (exec, outcome) = match handle.try_run_to_completion(&mut node, MAX_EVENTS) {
        Ok(exec) => (exec, hpl_perf::RunOutcome::Completed),
        Err(outcome) => (node.now().since(launched), outcome),
    };
    session.close(&node.counters, node.now());
    let mut rec =
        RunRecord::from_delta(rep, exec.as_secs_f64(), &session.delta()).with_outcome(outcome);
    if let Some(id) = metrics_sink {
        let m = node
            .observer::<hpl_kernel::MetricsSink>(id)
            .expect("metrics sink attached above")
            .metrics()
            .clone();
        rec = rec.with_metrics(m);
    }
    rec
}

/// Execute all repetitions, parallelised over host threads.
pub fn run_many(cfg: &RunConfig) -> RunTable {
    let reps = cfg.reps as u64;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(reps.max(1) as usize);
    if threads <= 1 || reps <= 1 {
        let records = (0..reps).map(|i| run_once(cfg, i)).collect();
        return RunTable::new(records);
    }
    let mut records: Vec<Option<RunRecord>> = (0..reps).map(|_| None).collect();
    let next = std::sync::atomic::AtomicU64::new(0);
    let slots = std::sync::Mutex::new(&mut records);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= reps {
                    break;
                }
                let rec = run_once(cfg, i);
                slots.lock().expect("harness mutex")[i as usize] = Some(rec);
            });
        }
    });
    RunTable::new(
        records
            .into_iter()
            .map(|r| r.expect("all reps completed"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_mpi::MpiOp;

    fn tiny_cfg(scheduler: Scheduler, mode: SchedMode) -> RunConfig {
        let job = JobSpec::new(
            8,
            JobSpec::repeat(
                2,
                &[
                    MpiOp::Compute {
                        mean: SimDuration::from_millis(3),
                    },
                    MpiOp::Allreduce { bytes: 64 },
                ],
            ),
        );
        RunConfig::new("tiny", job, mode, scheduler).with_reps(4)
    }

    #[test]
    fn run_once_produces_sane_record() {
        let cfg = tiny_cfg(Scheduler::StandardLinux, SchedMode::Cfs);
        let rec = run_once(&cfg, 0);
        assert!(rec.exec_time_s > 0.005);
        assert!(rec.context_switches > 0);
    }

    #[test]
    fn determinism_per_rep() {
        let cfg = tiny_cfg(Scheduler::Hpl, SchedMode::Hpc);
        let a = run_once(&cfg, 3);
        let b = run_once(&cfg, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = tiny_cfg(Scheduler::StandardLinux, SchedMode::Cfs);
        let serial: Vec<_> = (0..4).map(|i| run_once(&cfg, i)).collect();
        let parallel = run_many(&cfg);
        assert_eq!(parallel.records(), &serial[..]);
    }

    #[test]
    fn fast_event_loop_matches_reference_tables() {
        // Whole-harness differential: with the fast path disabled the
        // run table must be byte-identical, scheduler by scheduler.
        for (s, mode) in [
            (Scheduler::StandardLinux, SchedMode::Cfs),
            (Scheduler::Hpl, SchedMode::Hpc),
            (Scheduler::HplTickless, SchedMode::Hpc),
        ] {
            let fast = run_many(&tiny_cfg(s, mode));
            let reference = run_many(&tiny_cfg(s, mode).with_fast_event_loop(false));
            assert_eq!(
                fast.records(),
                reference.records(),
                "{s:?}: fast event loop changed the run table"
            );
        }
    }

    #[test]
    fn metrics_collection_does_not_perturb_measurements() {
        let plain = run_many(&tiny_cfg(Scheduler::StandardLinux, SchedMode::Cfs).with_reps(2));
        let observed = run_many(
            &tiny_cfg(Scheduler::StandardLinux, SchedMode::Cfs)
                .with_reps(2)
                .with_metrics(true),
        );
        assert!(observed.all_completed());
        for (a, b) in plain.records().iter().zip(observed.records()) {
            assert_eq!(a.exec_time_s, b.exec_time_s, "observer changed timing");
            assert_eq!(a.context_switches, b.context_switches);
            assert_eq!(a.cpu_migrations, b.cpu_migrations);
            assert!(a.metrics.is_none());
            assert!(b.metrics.is_some());
        }
        let merged = observed.merged_metrics().expect("metrics collected");
        assert!(merged.switches > 0);
        assert!(merged.picks > 0);
        assert!(merged.timeslice_ns.count() > 0);
    }

    #[test]
    fn all_schedulers_build() {
        for s in [
            Scheduler::StandardLinux,
            Scheduler::Hpl,
            Scheduler::HplBalanceOn,
            Scheduler::HplTickless,
        ] {
            let mode = match s {
                Scheduler::StandardLinux => SchedMode::Cfs,
                _ => SchedMode::Hpc,
            };
            let cfg = tiny_cfg(s, mode).with_reps(1);
            let rec = run_once(&cfg, 0);
            assert!(rec.exec_time_s > 0.0);
        }
        // Launch-mode variants on the standard kernel.
        for mode in [
            SchedMode::CfsNice { nice: -10 },
            SchedMode::CfsPinned,
            SchedMode::Rt { prio: 40 },
        ] {
            let cfg = tiny_cfg(Scheduler::StandardLinux, mode).with_reps(1);
            let rec = run_once(&cfg, 0);
            assert!(rec.exec_time_s > 0.0, "{mode:?}");
        }
    }
}
