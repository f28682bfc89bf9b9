//! The four workloads. Each case boots a fresh simulated system from
//! seeded inputs, submits its work and drives it to completion, charging
//! every library call to a [`Phase`] of the case's [`Ledger`].
//!
//! Every case is a pure function of `(seed, index)`: the simulated
//! result (the [`Outcome`]) repeats bit for bit, whichever [`HostPath`]
//! computed it. The benchmark checks that by replaying cases on the
//! alternate path.

use crate::ledger::{Ledger, Phase};
use hpl_batch::{BatchRun, EasyBackfill, SwfMap, SwfTrace, TraceTransform};
use hpl_cluster::{Cluster, CosimConfig, Interconnect, JobCoordinator, NetConfig, Placement};
use hpl_coord::CoordRuntime;
use hpl_core::HplClass;
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::{KernelConfig, Node, NodeBuilder};
use hpl_mpi::{launch, JobSpec, MpiConfig, MpiOp, SchedMode};
use hpl_perf::{PerfSession, SwEvent};
use hpl_sim::{Rng, SimDuration};
use hpl_topology::Topology;
use hpl_workloads::{nas_job, NasBenchmark, NasClass};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["node", "cluster", "batch", "coord"];

/// Which host execution path computes a case. Both must produce the
/// same simulated result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPath {
    /// What the measured cases use: the event-loop fast path and serial
    /// window stepping on one explicit thread.
    Measured,
    /// The alternate path: the reference event loop (single node) or
    /// pooled window stepping on two threads (clusters).
    Alternate,
}

/// What a case produced, beyond its ledger.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated events dispatched while booting.
    pub boot_events: u64,
    /// Simulated events dispatched while driving the work.
    pub drive_events: u64,
    /// Simulated time from submission to completion, ns.
    pub virtual_ns: u64,
    /// Context switches over the measured run, all nodes.
    pub switches: u64,
    /// CPU migrations over the measured run, all nodes.
    pub migrations: u64,
    /// Digest of the final simulated state.
    pub fingerprint: u64,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.boot_events += other.boot_events;
        self.drive_events += other.drive_events;
        self.virtual_ns += other.virtual_ns;
        self.switches += other.switches;
        self.migrations += other.migrations;
        self.fingerprint = self.fingerprint.rotate_left(17) ^ other.fingerprint;
    }
}

/// Run case `index` of `workload`.
pub fn run_case(
    workload: &str,
    seed: u64,
    index: u64,
    path: HostPath,
    ledger: &mut Ledger,
) -> Result<Outcome, String> {
    let mut rng = Rng::for_run(seed, index);
    match workload {
        "node" => node_case(&mut rng, path, ledger),
        "cluster" => cluster_case(&mut rng, path, ledger),
        "batch" => batch_case(&mut rng, path, ledger),
        "coord" => coord_case(&mut rng, path, ledger),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Hang guard for one drive, in dispatched events.
const MAX_EVENTS: u64 = 200_000_000;

/// The measured path names its one stepping thread explicitly. With the
/// default count of 0 the co-simulation asks the host for its
/// parallelism every window (`sched_getaffinity` plus cgroup reads),
/// which on a shared host made that system-call time most of a
/// cluster case and the noisiest part of it.
fn cosim(path: HostPath) -> CosimConfig {
    match path {
        HostPath::Measured => CosimConfig::serial().with_threads(1),
        HostPath::Alternate => CosimConfig::parallel().with_threads(2).with_min_active(2),
    }
}

/// Context switches and migrations summed over every node since `base`
/// (per-node totals taken at submission).
fn cluster_counters(cluster: &Cluster, base: &[(u64, u64)]) -> (u64, u64) {
    let mut out = (0, 0);
    for (i, &(sw, mig)) in base.iter().enumerate() {
        let total = cluster.node(i).counters.total();
        out.0 += total.sw(SwEvent::ContextSwitches) - sw;
        out.1 += total.sw(SwEvent::CpuMigrations) - mig;
    }
    out
}

fn counter_base(cluster: &Cluster) -> Vec<(u64, u64)> {
    (0..cluster.len())
        .map(|i| {
            let total = cluster.node(i).counters.total();
            (
                total.sw(SwEvent::ContextSwitches),
                total.sw(SwEvent::CpuMigrations),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// node: the paper's experiment on one machine
// ---------------------------------------------------------------------

/// NAS cg.A on 8 ranks on the paper's dual-socket POWER6 node, once
/// under standard Linux (CFS, full load balancing) and once under the
/// HPL kernel (`SCHED_HPC`, balancing off), each on a freshly booted
/// node with the calibrated daemon population.
fn node_case(rng: &mut Rng, path: HostPath, ledger: &mut Ledger) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for hpl in [false, true] {
        let node_seed = rng.next_u64();
        let mut node = ledger.time(Phase::Build, || {
            let mut kc = if hpl {
                KernelConfig::hpl()
            } else {
                KernelConfig::default()
            };
            kc.fast_event_loop = path == HostPath::Measured;
            let mut b = NodeBuilder::new(Topology::power6_js22())
                .with_config(kc)
                .with_noise(NoiseProfile::standard(8))
                .with_seed(node_seed);
            if hpl {
                b = b.with_hpc_class(Box::new(HplClass::new()));
            }
            b.build()
        });
        ledger.time(Phase::Warm, || node.run_for(SimDuration::from_millis(300)));
        let boot_events = node.events_processed();
        let mode = if hpl { SchedMode::Hpc } else { SchedMode::Cfs };
        let (mut session, handle) = ledger.time(Phase::Submit, || {
            let job = nas_job(NasBenchmark::Cg, NasClass::A, 8);
            let session = PerfSession::open(&node.counters, node.now());
            (session, launch(&mut node, &job, mode))
        });
        let exec = ledger
            .time(Phase::Drive, || {
                handle.try_run_to_completion(&mut node, MAX_EVENTS)
            })
            .map_err(|o| format!("node job (hpl={hpl}) did not complete: {}", o.label()))?;
        let (delta, fingerprint) = ledger.time(Phase::Check, || {
            session.close(&node.counters, node.now());
            (session.delta(), node.state_fingerprint())
        });
        // cg.A is calibrated to the paper's 0.68 s HPL minimum; no run
        // can beat the clean run by much, and noise never makes a
        // 75-iteration job take ten times longer.
        let secs = exec.as_secs_f64();
        if !(0.6..6.8).contains(&secs) {
            return Err(format!(
                "cg.A (hpl={hpl}) ran {secs:.4} s, outside [0.6, 6.8)"
            ));
        }
        let switches = delta.sw(SwEvent::ContextSwitches);
        if switches == 0 {
            return Err(format!("cg.A (hpl={hpl}) recorded no context switches"));
        }
        out.absorb(Outcome {
            boot_events,
            drive_events: node.events_processed() - boot_events,
            virtual_ns: exec.as_nanos(),
            switches,
            migrations: delta.sw(SwEvent::CpuMigrations),
            fingerprint,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// shared cluster construction
// ---------------------------------------------------------------------

/// Build `nodes` two-CPU nodes under the HPL kernel (optionally with
/// gang rotation) into a flat-fabric cluster and warm each one.
fn boot_cluster(
    rng: &mut Rng,
    nodes: usize,
    noise: NoiseProfile,
    gang_epoch: Option<SimDuration>,
    warm: SimDuration,
    path: HostPath,
    ledger: &mut Ledger,
) -> Cluster {
    let base = rng.next_u64();
    let mut cluster = ledger.time(Phase::Build, || {
        let members: Vec<Node> = (0..nodes)
            .map(|i| {
                let mut kc = KernelConfig::hpl();
                kc.gang_epoch = gang_epoch;
                NodeBuilder::new(Topology::smp(2))
                    .with_config(kc)
                    .with_noise(noise.clone())
                    .with_seed(Rng::for_run(base, i as u64).next_u64())
                    .with_hpc_class(Box::new(HplClass::new()))
                    .build()
            })
            .collect();
        Cluster::builder()
            .nodes(members)
            .fabric(Interconnect::flat(nodes, NetConfig::default()))
            .cosim(cosim(path))
            .build()
    });
    ledger.time(Phase::Warm, || {
        for i in 0..nodes {
            cluster.node_mut(i).run_for(warm);
        }
    });
    cluster
}

// ---------------------------------------------------------------------
// cluster: lockstep co-simulation
// ---------------------------------------------------------------------

const CLUSTER_NODES: usize = 32;

/// A bulk-synchronous job (compute + Allreduce per iteration) across 32
/// two-CPU nodes in conservative lockstep over a flat LogGP fabric.
fn cluster_case(rng: &mut Rng, path: HostPath, ledger: &mut Ledger) -> Result<Outcome, String> {
    let iters = rng.range_u64(10, 14) as u32;
    let compute = SimDuration::from_micros(rng.range_u64(150, 250));
    let noise = NoiseProfile::standard(2).scaled(0.25);
    let mut cluster = boot_cluster(
        rng,
        CLUSTER_NODES,
        noise,
        None,
        SimDuration::from_millis(20),
        path,
        ledger,
    );
    let boot_events = cluster.events_processed();
    let base = counter_base(&cluster);
    let handle = ledger.time(Phase::Submit, || {
        let job = JobSpec::new(
            2 * CLUSTER_NODES as u32,
            JobSpec::repeat(
                iters,
                &[
                    MpiOp::Compute { mean: compute },
                    MpiOp::Allreduce { bytes: 64 },
                ],
            ),
        )
        .with_nodes(CLUSTER_NODES as u32);
        cluster.launch(&job, SchedMode::Hpc, Placement::All)
    });
    let exec = ledger
        .time(Phase::Drive, || {
            cluster.try_run_to_completion(&handle, MAX_EVENTS)
        })
        .map_err(|o| format!("cluster job did not complete: {}", o.label()))?;
    let (counters, fingerprint, messages) = ledger.time(Phase::Check, || {
        (
            cluster_counters(&cluster, &base),
            cluster.state_fingerprint(),
            cluster.net().messages(),
        )
    });
    let floor = compute.as_nanos() * iters as u64 / 2;
    if exec.as_nanos() < floor {
        return Err(format!("cluster job ran {exec:?}, under half its compute"));
    }
    if messages == 0 {
        return Err("cluster job sent no interconnect messages".into());
    }
    Ok(Outcome {
        boot_events,
        drive_events: cluster.events_processed() - boot_events,
        virtual_ns: exec.as_nanos(),
        switches: counters.0,
        migrations: counters.1,
        fingerprint: fingerprint ^ messages.rotate_left(32),
    })
}

// ---------------------------------------------------------------------
// batch: SWF log through EASY backfilling
// ---------------------------------------------------------------------

const BATCH_NODES: u32 = 8;
const BATCH_JOBS: usize = 40;

/// The repository's vendored SP2-like SWF sample, the input of the batch
/// bench's policy sweep.
const SWF_FIXTURE: &str = include_str!("../../crates/batch/tests/data/sp2_sample.swf");

/// The first 40 jobs of the vendored SWF sample, mapped onto an 8-node
/// HPL cluster the way the batch bench's sweep maps them, replayed
/// through EASY backfilling by the batch engine. The log is the same in
/// every case; the seed varies only the nodes' noise.
fn batch_case(rng: &mut Rng, path: HostPath, ledger: &mut Ledger) -> Result<Outcome, String> {
    let mut cluster = boot_cluster(
        rng,
        BATCH_NODES as usize,
        NoiseProfile::standard(2),
        None,
        SimDuration::from_millis(100),
        path,
        ledger,
    );
    let boot_events = cluster.events_processed();
    let base = counter_base(&cluster);
    let trace = ledger.time(Phase::Submit, || {
        let swf = SwfTrace::from_text(SWF_FIXTURE)?;
        let (mapped, _) = swf.to_batch(&SwfMap::for_cluster(BATCH_NODES).ns_per_sec(2_000.0));
        let trace = TraceTransform::new()
            .take(BATCH_JOBS)
            .arrival_scale(0.1)
            .apply(&mapped);
        if trace.jobs.len() != BATCH_JOBS {
            return Err(format!("SWF sample mapped to {} jobs", trace.jobs.len()));
        }
        Ok(trace)
    })?;
    let report = ledger
        .time(Phase::Drive, || {
            BatchRun::new(&trace).run(&mut cluster, &mut EasyBackfill::new())
        })
        .map_err(|o| format!("batch replay did not complete: {}", o.label()))?;
    let counters = ledger.time(Phase::Check, || cluster_counters(&cluster, &base));
    if report.outcomes.len() != trace.jobs.len() || report.jobs_lost > 0 {
        return Err(format!(
            "batch replay finished {} of {} jobs ({} lost)",
            report.outcomes.len(),
            trace.jobs.len(),
            report.jobs_lost
        ));
    }
    if report.occupancy_violations > 0 || report.utilization > 1.0 {
        return Err(format!(
            "batch replay broke occupancy: {} violations, utilization {}",
            report.occupancy_violations, report.utilization
        ));
    }
    Ok(Outcome {
        boot_events,
        drive_events: cluster.events_processed() - boot_events,
        virtual_ns: report.makespan.as_nanos(),
        switches: counters.0,
        migrations: counters.1,
        fingerprint: report.fingerprint ^ report.mean_wait.as_nanos().rotate_left(32),
    })
}

// ---------------------------------------------------------------------
// coord: fractional CPU shares, both backends
// ---------------------------------------------------------------------

const COORD_NODES: usize = 2;
const COORD_EPOCH: SimDuration = SimDuration::from_micros(500);
const HEAVY: u64 = 0;
const LIGHT: u64 = 10_000;

/// Two co-resident compute jobs per node with a 750/250 share split,
/// realised once by the weighted kernel gang slicer and once by the
/// user-space lease arbiter, each on its own freshly booted cluster.
fn coord_case(rng: &mut Rng, path: HostPath, ledger: &mut Ledger) -> Result<Outcome, String> {
    let bursts = rng.range_u64(16, 24) as u32;
    let mut out = Outcome::default();
    for kernel in [true, false] {
        let gang = kernel.then_some(COORD_EPOCH);
        let mut cluster = boot_cluster(
            rng,
            COORD_NODES,
            NoiseProfile::quiet(),
            gang,
            SimDuration::from_millis(50),
            path,
            ledger,
        );
        let mut rt = ledger.time(Phase::Build, || {
            let mut rt = if kernel {
                CoordRuntime::kernel_weighted(COORD_EPOCH)
            } else {
                CoordRuntime::user_space(COORD_EPOCH)
            };
            rt.install(&mut cluster);
            rt
        });
        let boot_events = cluster.events_processed();
        let base = counter_base(&cluster);
        let (heavy, light) = ledger.time(Phase::Submit, || {
            let job = |id_base: u64| {
                JobSpec::new(
                    2 * COORD_NODES as u32,
                    JobSpec::repeat(
                        bursts,
                        &[MpiOp::Compute {
                            mean: SimDuration::from_micros(600),
                        }],
                    ),
                )
                .with_nodes(COORD_NODES as u32)
                .with_id_base(id_base)
                .with_config(MpiConfig {
                    spin_limit: SimDuration::from_micros(5),
                    ..MpiConfig::default()
                })
            };
            let heavy = rt.launch(&mut cluster, &job(HEAVY), SchedMode::Hpc, Placement::All);
            let light = rt.launch(&mut cluster, &job(LIGHT), SchedMode::Hpc, Placement::All);
            for n in 0..COORD_NODES {
                rt.set_share(&mut cluster, n, HEAVY, 750);
                rt.set_share(&mut cluster, n, LIGHT, 250);
            }
            (heavy, light)
        });
        let (exec_heavy, exec_light) = ledger
            .time(Phase::Drive, || {
                Ok::<_, hpl_kernel::RunOutcome>((
                    cluster.try_run_to_completion(&heavy, MAX_EVENTS)?,
                    cluster.try_run_to_completion(&light, MAX_EVENTS)?,
                ))
            })
            .map_err(|o| format!("coordinated jobs did not complete: {}", o.label()))?;
        let (counters, fingerprint, grants) = ledger.time(Phase::Check, || {
            (
                cluster_counters(&cluster, &base),
                cluster.state_fingerprint(),
                rt.total_stats().grants,
            )
        });
        // Under weighted slicing the 750/250 split must bite: the heavy
        // job finishes first. The lease arbiter skews progress less, and
        // on rare seeds the two jobs end within a burst of each other in
        // either order, so there only its leases are checked.
        if kernel && exec_heavy >= exec_light {
            return Err(format!(
                "share skew absent under weighted slicing: heavy {exec_heavy:?} >= light {exec_light:?}"
            ));
        }
        if !kernel && grants == 0 {
            return Err("user-space arbiter granted no leases".into());
        }
        out.absorb(Outcome {
            boot_events,
            drive_events: cluster.events_processed() - boot_events,
            virtual_ns: exec_light.as_nanos(),
            switches: counters.0,
            migrations: counters.1,
            fingerprint: fingerprint ^ exec_heavy.as_nanos().rotate_left(32) ^ grants,
        });
    }
    Ok(out)
}
