//! Batch-level fault handling: crash-triggered requeue, checkpoint/
//! restart recovery, and determinism of faulty runs across repeats and
//! event-loop flavours.

use hpl_batch::{BatchJob, BatchReport, BatchRun, BatchTrace, CheckpointSpec, Fcfs};
use hpl_cluster::{Cluster, CosimConfig, FaultPlan, Interconnect, NetConfig};
use hpl_core::HplClass;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_sim::{Rng, SimDuration, SimTime};
use hpl_topology::Topology;

const WARMUP_MS: u64 = 100;

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

fn build_cluster(nodes: usize, seed: u64, faults: FaultPlan, cosim: CosimConfig) -> Cluster {
    let mut cluster = Cluster::builder()
        .nodes_with(nodes, move |i| {
            NodeBuilder::new(Topology::smp(2))
                .with_config(KernelConfig::hpl())
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes, NetConfig::default()))
        .cosim(cosim)
        .faults(faults)
        .build();
    for i in 0..nodes {
        cluster
            .node_mut(i)
            .run_for(SimDuration::from_millis(WARMUP_MS));
    }
    cluster
}

/// One 2-node job long enough (8 × 2 ms iterations, ~60 ms of engine
/// time) to be mid-flight when a crash lands tens of ms after the
/// batch epoch.
fn long_job_trace() -> BatchTrace {
    let iters = 8u32;
    let compute_ns = 2_000_000u64;
    let nominal = iters as u64 * compute_ns;
    BatchTrace {
        jobs: vec![BatchJob {
            id: 0,
            submit_ns: 0,
            nodes: 2,
            ranks_per_node: 2,
            iters,
            compute_ns,
            bytes: 64,
            est_runtime_ns: 2 * nominal + 30_000_000,
            user: 0,
            class: 0,
        }],
    }
}

/// Crash node 1 at `crash_ms` past the epoch, restart it 6 ms later.
fn crash_plan(crash_ms: u64) -> FaultPlan {
    FaultPlan::default()
        .with_seed(9)
        .crash(1, ms(WARMUP_MS + crash_ms))
        .restart(1, ms(WARMUP_MS + crash_ms + 6))
}

fn run_crashy(plan: FaultPlan, ckpt: Option<CheckpointSpec>, cosim: CosimConfig) -> BatchReport {
    let mut cluster = build_cluster(2, 42, plan, cosim);
    let trace = long_job_trace();
    let mut run = BatchRun::new(&trace);
    if let Some(c) = ckpt {
        run = run.checkpoint(c);
    }
    run.run(&mut cluster, &mut Fcfs).expect("run completes")
}

#[test]
fn crash_requeues_job_and_it_still_completes() {
    let report = run_crashy(crash_plan(6), None, CosimConfig::serial());
    assert_eq!(report.outcomes.len(), 1, "no job may be lost to a crash");
    assert_eq!(report.jobs_lost, 0);
    assert_eq!(report.requeues, 1, "one crash, one requeue");
    assert_eq!(report.occupancy_violations, 0);
    let o = &report.outcomes[0];
    assert_eq!(o.requeues, 1);
    // The second attempt launches only after the restart brings node 1
    // back, and wait spans the whole sojourn from the original submit.
    assert!(
        o.started >= ms(WARMUP_MS + 12),
        "restart gates the relaunch"
    );
    assert!(o.wait >= SimDuration::from_millis(12));
}

#[test]
fn crash_and_restart_before_submit_leave_no_trace_on_the_job() {
    // A node that crashes and recovers while the queue is still empty
    // must not perturb the job at all: the run is bit-identical to the
    // fault-free one.
    let plan = FaultPlan::default()
        .with_seed(9)
        .crash(1, ms(WARMUP_MS + 1))
        .restart(1, ms(WARMUP_MS + 2));
    let mut trace = long_job_trace();
    trace.jobs[0].submit_ns = 5_000_000;
    let run = |plan: FaultPlan| {
        let mut cluster = build_cluster(2, 42, plan, CosimConfig::serial());
        BatchRun::new(&trace)
            .run(&mut cluster, &mut Fcfs)
            .expect("run completes")
    };
    let faulty = run(plan);
    let clean = run(FaultPlan::none());
    assert_eq!(faulty.outcomes, clean.outcomes);
    assert_eq!(faulty.makespan, clean.makespan);
}

#[test]
fn checkpoint_restart_resumes_instead_of_recomputing() {
    let ckpt = CheckpointSpec {
        every_iters: 1,
        cost: SimDuration::from_micros(100),
        restore: SimDuration::from_micros(300),
    };
    // Crash ~40 ms into a ~60 ms job: several iterations have
    // checkpointed by then.
    let scratch = run_crashy(crash_plan(40), None, CosimConfig::serial());
    let resumed = run_crashy(crash_plan(40), Some(ckpt), CosimConfig::serial());
    for r in [&scratch, &resumed] {
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.requeues, 1);
        assert_eq!(r.jobs_lost, 0);
    }
    // The scratch rerun recomputes all 8 iterations; the checkpointed
    // rerun replays only the tail not covered by committed checkpoints
    // (plus restore and per-checkpoint overhead) — it must finish
    // first.
    let end = |r: &BatchReport| r.outcomes[0].ended;
    assert!(
        end(&resumed) < end(&scratch),
        "checkpointed rerun must beat recompute-from-scratch: {:?} vs {:?}",
        end(&resumed),
        end(&scratch)
    );
}

#[test]
fn crashy_run_is_deterministic_and_flavour_invariant() {
    let ckpt = CheckpointSpec {
        every_iters: 2,
        cost: SimDuration::from_micros(100),
        restore: SimDuration::from_micros(300),
    };
    let a = run_crashy(crash_plan(20), Some(ckpt), CosimConfig::serial());
    let b = run_crashy(crash_plan(20), Some(ckpt), CosimConfig::serial());
    assert_eq!(a, b, "same plan, same report, bit for bit");
    let pooled = run_crashy(
        crash_plan(20),
        Some(ckpt),
        CosimConfig::parallel().with_threads(2).with_min_active(2),
    );
    assert_eq!(
        a, pooled,
        "pooled windows must reproduce the crashy serial report bit for bit"
    );
}

/// A 2-node job whose first tree exits, then whose first node crashes
/// and restarts before the second tree exits, ends when the second tree
/// does: the harvest reads the cluster's record of each tree's exit,
/// not the restarted node's fresh task table.
#[test]
fn restart_between_a_jobs_tree_exits_keeps_its_end() {
    let trace = long_job_trace();
    let mut clean = build_cluster(2, 42, FaultPlan::none(), CosimConfig::serial());
    let report = BatchRun::new(&trace)
        .run(&mut clean, &mut Fcfs)
        .expect("run completes");
    // Each node's `perf` exit: the job's launcher trees are the only
    // `perf` tasks.
    let exits: Vec<SimTime> = (0..2)
        .map(|n| {
            let perf = clean.node(n).tasks.iter().filter(|t| t.name == "perf");
            perf.filter_map(|t| t.exited_at)
                .max()
                .expect("one tree per node")
        })
        .collect();
    let first = if exits[0] < exits[1] { 0 } else { 1 };
    let last = exits[0].max(exits[1]);
    assert_eq!(report.outcomes[0].ended, last);
    assert!(
        last.since(exits[first]) > clean.net().lookahead(),
        "the trees end in different windows"
    );

    let t = exits[first] + SimDuration::from_nanos(1);
    let plan = FaultPlan::default().crash(first, t).restart(first, t);
    let mut cluster = build_cluster(2, 42, plan, CosimConfig::serial());
    let faulty = BatchRun::new(&trace)
        .run(&mut cluster, &mut Fcfs)
        .expect("run completes");
    assert_eq!(cluster.crashes(), 1, "the crash lands before the job ends");
    assert_eq!(faulty.requeues, 0, "the job had left the crashed node");
    assert_eq!(faulty.outcomes[0].ended, last);
    assert_eq!(faulty.outcomes, report.outcomes);
}
