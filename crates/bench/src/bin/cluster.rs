//! Mechanistic cluster amplification sweep (the Petrini curve).
//!
//! Co-simulates N kernel nodes under one lockstep driver, running the
//! same bulk-synchronous job (compute + Allreduce per iteration) under
//! the standard-Linux CFS kernel and the HPL kernel, with per-node OS
//! noise. For each node count the *noise amplification* is the noisy
//! execution time over the noise-free (quiet daemons) execution time on
//! the same cluster — network and launch overheads cancel, leaving the
//! pure max-over-nodes resonance effect the paper's §II describes.
//!
//! Each mechanistic curve is cross-checked against the analytic
//! [`ResonanceModel`] built from per-phase durations measured on a
//! single node: the analytic slowdown must move in the same direction as
//! the mechanistic one at every node count (CFS climbs, HPL stays
//! near-flat).
//!
//! A second section benchmarks the **parallel lockstep driver**: a
//! weak-scaling sweep (64 / 256 / 1024 nodes) of the same
//! bulk-synchronous job, stepped once serially and once on the host
//! thread pool. The sweep reports host wall-clock speedup per cell and
//! asserts the two runs are **bit-identical** (fingerprint, execution
//! time, event count, interconnect counters). The speedup figure is
//! meaningful only on a multi-core host — `host_threads` is recorded
//! alongside so a single-core CI number is never mistaken for a regression.
//!
//! Writes `BENCH_cluster.json` in the current directory. Exits 1 at
//! every flavour if pooled stepping diverges (`bit_identical`) or, on a
//! multi-core host, misses 2x at >= 256 nodes (`speedup_ok`); and,
//! except under `--smoke`, if the curves miss the resonance claim
//! (`resonance_ok`).
//!
//! Usage: `cluster [--smoke | --quick] [--out PATH]`

use hpl_bench::row;
use hpl_bench::sweep::{Flags, Report};
use hpl_cluster::{
    Cluster, CosimConfig, EmpiricalDist, Interconnect, NetConfig, Placement, ResonanceModel,
};
use hpl_core::HplClass;
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::{KernelConfig, NodeBuilder, TaskState};
use hpl_mpi::{launch, JobSpec, MpiOp, SchedMode};
use hpl_sim::{Rng, SimDuration};
use hpl_topology::Topology;

const RANKS_PER_NODE: u32 = 8;

fn job(nodes: u32, iters: u32) -> JobSpec {
    JobSpec::new(
        nodes * RANKS_PER_NODE,
        JobSpec::repeat(
            iters,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(3),
                },
                MpiOp::Allreduce { bytes: 64 },
            ],
        ),
    )
    .with_nodes(nodes)
}

fn build_cluster(nodes: u32, hpc: bool, noisy: bool, seed: u64) -> Cluster {
    Cluster::builder()
        .nodes_with(nodes as usize, move |i| {
            let kc = if hpc {
                KernelConfig::hpl()
            } else {
                KernelConfig::default()
            };
            let noise = if noisy {
                NoiseProfile::standard(RANKS_PER_NODE)
            } else {
                NoiseProfile::quiet()
            };
            let mut b = NodeBuilder::new(Topology::power6_js22())
                .with_config(kc)
                .with_noise(noise)
                .with_seed(Rng::for_run(seed, i as u64).next_u64());
            if hpc {
                b = b.with_hpc_class(Box::new(HplClass::new()));
            }
            b.build()
        })
        .fabric(Interconnect::flat(nodes as usize, NetConfig::default()))
        .build()
}

/// Mean execution time (seconds) of the job on an N-node cluster.
fn cluster_exec(nodes: u32, hpc: bool, noisy: bool, iters: u32, reps: u32, seed: u64) -> f64 {
    let mode = if hpc { SchedMode::Hpc } else { SchedMode::Cfs };
    let mut total = 0.0;
    for rep in 0..reps {
        let mut cluster = build_cluster(nodes, hpc, noisy, seed ^ (rep as u64) << 16);
        // Warm each node's daemon population up independently — legal
        // before launch, when no cross-node traffic can exist yet.
        for i in 0..nodes as usize {
            cluster.node_mut(i).run_for(SimDuration::from_millis(300));
        }
        let handle = cluster.launch(&job(nodes, iters), mode, Placement::All);
        let exec = cluster.run_to_completion(&handle, 400_000_000 * nodes as u64);
        total += exec.as_secs_f64();
    }
    total / reps as f64
}

/// Per-phase durations on one node, by watching the job barrier
/// generation tick over — the input for the analytic model.
fn measure_phases(hpc: bool, iters: u32, reps: u32, seed: u64) -> Vec<f64> {
    let mode = if hpc { SchedMode::Hpc } else { SchedMode::Cfs };
    let mut samples = Vec::new();
    for rep in 0..reps {
        let mut cluster = build_cluster(1, hpc, true, seed ^ (rep as u64) << 16);
        let node = cluster.node_mut(0);
        node.run_for(SimDuration::from_millis(300));
        let job = job(1, iters);
        let barrier = job.barrier_id();
        let handle = launch(node, &job, mode);
        let mut last_gen = node.sync.barrier_generation(barrier);
        let mut last_t = node.now();
        while node.tasks.get(handle.perf_pid).state != TaskState::Dead {
            assert!(node.step(), "single-node probe deadlocked");
            let gen = node.sync.barrier_generation(barrier);
            if gen > last_gen {
                // Skip the init barrier (generation 0 -> 1): it brackets
                // launch, not a compute phase.
                if last_gen > 0 {
                    samples.push(node.now().since(last_t).as_secs_f64());
                }
                last_gen = gen;
                last_t = node.now();
            }
        }
    }
    samples
}

struct Point {
    nodes: u32,
    noisy_s: f64,
    quiet_s: f64,
    mech_slowdown: f64,
    analytic_slowdown: f64,
}

// ---------------------------------------------------------------------
// Weak-scaling sweep of the parallel lockstep driver
// ---------------------------------------------------------------------

/// Ranks per node in the weak-scaling cells (small nodes, many of them).
const WEAK_RANKS: u32 = 2;

struct WeakPoint {
    nodes: u32,
    serial_wall_s: f64,
    parallel_wall_s: f64,
    speedup: f64,
    exec_s: f64,
    events: u64,
    bit_identical: bool,
}

fn weak_job(nodes: u32, iters: u32) -> JobSpec {
    JobSpec::new(
        nodes * WEAK_RANKS,
        JobSpec::repeat(
            iters,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_micros(200),
                },
                MpiOp::Allreduce { bytes: 64 },
            ],
        ),
    )
    .with_nodes(nodes)
}

fn weak_cluster(nodes: u32, seed: u64, cosim: CosimConfig) -> Cluster {
    let mut cluster = Cluster::builder()
        .nodes_with(nodes as usize, move |i| {
            NodeBuilder::new(Topology::smp(WEAK_RANKS))
                .with_config(KernelConfig::hpl())
                .with_noise(NoiseProfile::standard(WEAK_RANKS).scaled(0.25))
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes as usize, NetConfig::default()))
        .cosim(cosim)
        .build();
    for i in 0..nodes as usize {
        cluster.node_mut(i).run_for(SimDuration::from_millis(20));
    }
    cluster
}

/// Run one weak-scaling cell under `cosim`; returns (host wall seconds,
/// execution seconds, fingerprint, events, net messages, net bytes).
fn weak_run(
    nodes: u32,
    iters: u32,
    seed: u64,
    cosim: CosimConfig,
) -> (f64, f64, u64, u64, u64, u64) {
    let mut cluster = weak_cluster(nodes, seed, cosim);
    let handle = cluster.launch(&weak_job(nodes, iters), SchedMode::Hpc, Placement::All);
    let t0 = std::time::Instant::now();
    let exec = cluster.run_to_completion(&handle, 100_000_000 * nodes as u64);
    let wall = t0.elapsed().as_secs_f64();
    (
        wall,
        exec.as_secs_f64(),
        cluster.state_fingerprint(),
        cluster.events_processed(),
        cluster.net().messages(),
        cluster.net().bytes(),
    )
}

/// One weak-scaling cell: serial vs pooled stepping of the same job,
/// demanding bit-identical simulated results.
fn weak_cell(nodes: u32, iters: u32, threads: usize) -> WeakPoint {
    let seed = 0x5CA1E ^ (nodes as u64) << 20;
    let (ser_wall, ser_exec, ser_fp, ser_ev, ser_msg, ser_bytes) =
        weak_run(nodes, iters, seed, CosimConfig::serial());
    let par_cfg = CosimConfig::parallel().with_threads(threads);
    let (par_wall, par_exec, par_fp, par_ev, par_msg, par_bytes) =
        weak_run(nodes, iters, seed, par_cfg);
    let bit_identical = (ser_exec, ser_fp, ser_ev, ser_msg, ser_bytes)
        == (par_exec, par_fp, par_ev, par_msg, par_bytes);
    WeakPoint {
        nodes,
        serial_wall_s: ser_wall,
        parallel_wall_s: par_wall,
        speedup: ser_wall / par_wall,
        exec_s: ser_exec,
        events: ser_ev,
        bit_identical,
    }
}

struct Curve {
    mode: &'static str,
    points: Vec<Point>,
    direction_ok: bool,
}

/// Mechanistic and analytic curves must agree in *direction* at every
/// step: where the analytic slowdown climbs by more than `flat`, the
/// mechanistic one must not fall by more than `tol`, and vice versa.
fn directions_agree(points: &[Point]) -> bool {
    let flat = 0.02;
    let tol = 0.05;
    points.windows(2).all(|w| {
        let da = w[1].analytic_slowdown - w[0].analytic_slowdown;
        let dm = w[1].mech_slowdown - w[0].mech_slowdown;
        if da > flat {
            dm > -tol
        } else if da < -flat {
            dm < tol
        } else {
            true
        }
    })
}

fn main() {
    let flags = Flags::parse("cluster", &[]);
    let (node_counts, iters, reps): (&[u32], u32, u32) = flags.flavour().pick(
        (&[1, 2, 4], 8, 1),
        (&[1, 2, 4, 8], 20, 2),
        (&[1, 2, 4, 8, 16], 30, 3),
    );
    let flavour = flags.flavour().name();
    eprintln!("cluster bench ({flavour}): nodes {node_counts:?}, {iters} iters x {reps} reps");

    let mut curves = Vec::new();
    for (mode, hpc) in [("cfs", false), ("hpc", true)] {
        let phases = measure_phases(hpc, iters, reps.max(2), 0xC1A5);
        let model = ResonanceModel::new(
            EmpiricalDist::try_new(phases).expect("phase probe produced samples"),
            iters,
        );
        let ideal = model.ideal_time();
        let mut points = Vec::new();
        for &n in node_counts {
            let noisy_s = cluster_exec(n, hpc, true, iters, reps, 0xBA5E);
            let quiet_s = cluster_exec(n, hpc, false, iters, reps, 0xBA5E);
            let mech_slowdown = noisy_s / quiet_s;
            let analytic_slowdown = model.expected_time_analytic(n) / ideal;
            eprintln!(
                "{mode:>4} n={n:>2}: noisy {noisy_s:>8.4}s | quiet {quiet_s:>8.4}s | \
                 slowdown {mech_slowdown:>6.3} | analytic {analytic_slowdown:>6.3}"
            );
            points.push(Point {
                nodes: n,
                noisy_s,
                quiet_s,
                mech_slowdown,
                analytic_slowdown,
            });
        }
        let direction_ok = directions_agree(&points);
        curves.push(Curve {
            mode,
            points,
            direction_ok,
        });
    }

    // Weak-scaling sweep of the parallel driver: scale the cluster,
    // hold per-node work fixed, race the serial driver against the
    // pooled one on the same seeds.
    let (weak_cells, weak_iters): (&[u32], u32) =
        flags
            .flavour()
            .pick((&[8, 16], 2), (&[64, 128], 3), (&[64, 256, 1024], 3));
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // At least two stepping threads even on a single-core host, so the
    // bit-equality claim always covers real cross-thread execution.
    let weak_threads = host_threads.max(2);
    eprintln!(
        "weak scaling: cells {weak_cells:?}, {weak_iters} iters, \
         {weak_threads} stepping threads (host has {host_threads})"
    );
    let mut weak_points = Vec::new();
    for &n in weak_cells {
        let p = weak_cell(n, weak_iters, weak_threads);
        eprintln!(
            "weak n={:>5}: serial {:>7.3}s | parallel {:>7.3}s | speedup {:>5.2}x | \
             sim exec {:.4}s | {} events | bit_identical {}",
            p.nodes,
            p.serial_wall_s,
            p.parallel_wall_s,
            p.speedup,
            p.exec_s,
            p.events,
            p.bit_identical
        );
        weak_points.push(p);
    }
    let weak_identical = weak_points.iter().all(|p| p.bit_identical);
    // The >= 2x speedup claim applies on multi-core hosts; a pool of
    // oversubscribed threads on one core can only measure overhead.
    let speedup_meaningful = host_threads >= 2;
    let weak_speedup_ok = !speedup_meaningful
        || weak_points
            .iter()
            .filter(|p| p.nodes >= 256)
            .all(|p| p.speedup >= 2.0);

    let amplification = |c: &Curve| -> f64 {
        c.points.last().expect("points").mech_slowdown / c.points[0].mech_slowdown
    };
    let cfs_amp = amplification(&curves[0]);
    let hpc_amp = amplification(&curves[1]);
    // The headline resonance claim: noise amplification grows with node
    // count under CFS and stays near-flat under the HPL scheduler.
    let resonance_ok = cfs_amp > hpc_amp && curves.iter().all(|c| c.direction_ok);
    eprintln!("cfs amplification {cfs_amp:.3} | hpc amplification {hpc_amp:.3}");

    let curve_rows = curves.iter().map(|c| {
        let points = c.points.iter().map(|p| {
            row!["nodes" => p.nodes, "noisy_s" => (p.noisy_s, 6), "quiet_s" => (p.quiet_s, 6),
                "slowdown" => (p.mech_slowdown, 4),
                "analytic_slowdown" => (p.analytic_slowdown, 4)]
        });
        row!["mode" => c.mode, "direction_ok" => c.direction_ok].rows("points", points)
    });
    let weak_rows = weak_points.iter().map(|p| {
        row!["nodes" => p.nodes, "serial_wall_s" => (p.serial_wall_s, 4),
            "parallel_wall_s" => (p.parallel_wall_s, 4), "speedup" => (p.speedup, 3),
            "exec_s" => (p.exec_s, 6), "events" => p.events, "bit_identical" => p.bit_identical]
    });
    let mut report = Report::new(&flags);
    report
        .put("iters", iters)
        .put("reps", reps)
        .put("cfs_amplification", (cfs_amp, 4))
        .put("hpc_amplification", (hpc_amp, 4))
        .claim("resonance_ok", resonance_ok)
        .rows("curves", curve_rows)
        .begin("weak_scaling")
        .put("host_threads", host_threads)
        .put("stepping_threads", weak_threads)
        .put("iters", weak_iters)
        .invariant("bit_identical", weak_identical)
        .put("speedup_meaningful", speedup_meaningful)
        .invariant("speedup_ok", weak_speedup_ok)
        .rows("points", weak_rows)
        .end();
    report.finish();
}
