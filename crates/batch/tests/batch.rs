//! Two-level scheduling integration tests: deterministic batch runs,
//! FCFS-vs-EASY divergence, and the EASY reservation-safety invariants.

use hpl_batch::{
    AllocPolicy, Audited, BatchJob, BatchReport, BatchRun, BatchTrace, EasyBackfill, Fcfs,
    Oversubscribed,
};
use hpl_cluster::{Cluster, CosimConfig, Interconnect, NetConfig};
use hpl_core::HplClass;
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_mpi::SchedMode;
use hpl_sim::{Rng, SimDuration};
use hpl_topology::Topology;

fn build_cluster_with(nodes: usize, seed: u64, cosim: CosimConfig) -> Cluster {
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
        .build();
    for i in 0..nodes {
        cluster.node_mut(i).run_for(SimDuration::from_millis(100));
    }
    cluster
}

fn build_cluster(nodes: usize, seed: u64) -> Cluster {
    build_cluster_with(nodes, seed, CosimConfig::serial())
}

fn bj(id: u32, submit_ms: u64, nodes: u32, iters: u32, compute_ms: u64) -> BatchJob {
    let nominal = iters as u64 * compute_ms * 1_000_000;
    BatchJob {
        id,
        submit_ns: submit_ms * 1_000_000,
        nodes,
        ranks_per_node: 2,
        iters,
        compute_ns: compute_ms * 1_000_000,
        bytes: 64,
        est_runtime_ns: 2 * nominal + 30_000_000,
        user: 0,
        class: 0,
    }
}

/// A hand-built backfill-friendly stream on 4 nodes: a 2-node starter,
/// then a full-width head that blocks, then short narrow jobs EASY can
/// slide into the shadow window while FCFS makes them wait.
fn backfill_friendly() -> BatchTrace {
    BatchTrace {
        jobs: vec![
            bj(0, 0, 2, 3, 2),
            bj(1, 1, 4, 3, 2),
            bj(2, 2, 2, 2, 1),
            bj(3, 3, 1, 2, 1),
        ],
    }
}

fn run(trace: &BatchTrace, policy: &mut dyn AllocPolicy, seed: u64) -> BatchReport {
    let mut cluster = build_cluster(4, seed);
    BatchRun::new(trace)
        .run(&mut cluster, policy)
        .expect("batch run completes")
}

#[test]
fn same_seed_identical_report_twice() {
    let trace = backfill_friendly();
    type PolicyMaker = fn() -> Box<dyn AllocPolicy>;
    let mks: [(&str, PolicyMaker); 2] = [
        ("fcfs", || Box::new(Fcfs)),
        ("easy", || Box::new(EasyBackfill::new())),
    ];
    for (name, mk) in mks {
        let a = run(&trace, mk().as_mut(), 42);
        let b = run(&trace, mk().as_mut(), 42);
        assert_eq!(
            a, b,
            "{name}: same seed must reproduce the report bit for bit"
        );
        assert_eq!(a.outcomes.len(), trace.jobs.len());
        assert_eq!(a.occupancy_violations, 0, "{name}");
    }
}

#[test]
fn fcfs_and_easy_produce_different_schedules() {
    let trace = backfill_friendly();
    let fcfs = run(&trace, &mut Fcfs, 42);
    let easy = run(&trace, &mut EasyBackfill::new(), 42);

    let starts = |r: &BatchReport| {
        let mut s: Vec<(u32, u64)> = r
            .outcomes
            .iter()
            .map(|o| (o.id, o.started.as_nanos()))
            .collect();
        s.sort_unstable();
        s
    };
    assert_ne!(
        starts(&fcfs),
        starts(&easy),
        "backfilling must reorder the start schedule"
    );
    // Job 2 jumps the blocked full-width head under EASY. (Job 3 cannot
    // backfill — job 2 takes the only free nodes and the rest are
    // reserved — so no per-job claim is made for it; the mean-wait
    // ordering is asserted in the utilization test.)
    let wait = |r: &BatchReport, id: u32| {
        r.outcomes
            .iter()
            .find(|o| o.id == id)
            .expect("job ran")
            .wait
    };
    assert!(
        wait(&easy, 2) < wait(&fcfs, 2),
        "easy {:?} vs fcfs {:?}",
        wait(&easy, 2),
        wait(&fcfs, 2)
    );
}

#[test]
fn easy_utilization_at_least_fcfs_on_backfill_friendly_trace() {
    let trace = backfill_friendly();
    let fcfs = run(&trace, &mut Fcfs, 42);
    let easy = run(&trace, &mut EasyBackfill::new(), 42);
    assert!(
        easy.utilization >= fcfs.utilization - 0.01,
        "easy {:.3} must not fall below fcfs {:.3}",
        easy.utilization,
        fcfs.utilization
    );
    assert!(
        easy.mean_wait <= fcfs.mean_wait,
        "backfilling should not raise mean wait on this trace: easy {:?} fcfs {:?}",
        easy.mean_wait,
        fcfs.mean_wait
    );
}

/// Seeded property sweep: across random synthetic traces, every audited
/// backfill decision respects the head job's reservation, and the head
/// actually starts no later than the promised shadow time (estimates in
/// the generator are deliberately generous, so the promise is binding).
#[test]
fn easy_backfill_never_delays_the_head_reservation() {
    let mut audited = 0usize;
    for seed in 0..8u64 {
        let trace = BatchTrace::synthetic(seed, 8, 4);
        let mut policy = EasyBackfill::new();
        let mut cluster = build_cluster(4, seed ^ 0xE451);
        let report = BatchRun::new(&trace)
            .run(&mut cluster, &mut policy)
            .expect("batch run completes");
        assert_eq!(report.occupancy_violations, 0, "seed {seed}");
        let slack = SimDuration::from_millis(1);
        for d in policy.decisions() {
            assert!(
                d.holds(),
                "seed {seed}: backfill of job {} violates head {}'s reservation: {d:?}",
                d.job,
                d.head
            );
            let head = report
                .outcomes
                .iter()
                .find(|o| o.id == d.head)
                .expect("head job completed");
            assert!(
                head.started <= d.shadow + slack,
                "seed {seed}: head {} started at {:?}, promised by {:?}",
                d.head,
                head.started,
                d.shadow
            );
            audited += 1;
        }
    }
    assert!(
        audited > 0,
        "sweep produced no backfill decisions — generator lost its teeth"
    );
}

#[test]
fn oversubscribed_coschedules_two_jobs_per_node() {
    // Two simultaneous single-node jobs on a one-node cluster: FCFS
    // serialises them, the fractional policy stacks them.
    let trace = BatchTrace {
        jobs: vec![bj(0, 0, 1, 3, 2), bj(1, 0, 1, 3, 2)],
    };
    let mk_cluster = || build_cluster(1, 7);

    let mut cluster = mk_cluster();
    let fcfs = BatchRun::new(&trace).run(&mut cluster, &mut Fcfs).unwrap();
    assert_eq!(fcfs.max_node_occupancy, 1);

    let mut cluster = mk_cluster();
    let over = BatchRun::new(&trace)
        .run(&mut cluster, &mut Oversubscribed)
        .unwrap();
    assert_eq!(over.max_node_occupancy, 2, "co-scheduling must stack jobs");
    assert_eq!(over.occupancy_violations, 0, "limit 2 is still a limit");
    // Sharing a node shrinks wait but stretches runtimes.
    assert!(over.mean_wait < fcfs.mean_wait);
    let run_of = |r: &BatchReport, id: u32| r.outcomes.iter().find(|o| o.id == id).unwrap().run;
    assert!(
        run_of(&over, 0).max(run_of(&over, 1)) > run_of(&fcfs, 0).min(run_of(&fcfs, 1)),
        "co-scheduled jobs should contend at the OS level"
    );
}

/// The oversub×HPL differential: with gang rotation the HPL kernel's
/// 2-jobs-per-node makespan lands within 25% of CFS on the same
/// stream (the cell the bench previously could not gate), the no-gang
/// control reproduces the old serialising behavior — a strictly wider
/// gap — and the gang knob is bit-inert wherever no two gangs ever
/// co-reside: on CFS nodes (no gang-aware class) and on dedicated
/// FCFS allocation (one job per node).
#[test]
fn gang_rotation_closes_the_oversubscribed_hpl_gap() {
    const NODES: u32 = 4;
    let seed = 0xBA7C;
    let trace = BatchTrace::synthetic(seed, 12, NODES);
    let build = |hpc: bool, gang: Option<SimDuration>| {
        let mut cluster = Cluster::builder()
            .nodes_with(NODES as usize, move |i| {
                let mut kc = if hpc {
                    KernelConfig::hpl()
                } else {
                    KernelConfig::default()
                };
                kc.gang_epoch = gang;
                let mut b = NodeBuilder::new(Topology::smp(2))
                    .with_config(kc)
                    .with_noise(NoiseProfile::standard(2))
                    .with_seed(Rng::for_run(seed, i as u64).next_u64());
                if hpc {
                    b = b.with_hpc_class(Box::new(HplClass::new()));
                }
                b.build()
            })
            .fabric(Interconnect::flat(NODES as usize, NetConfig::default()))
            .build();
        for i in 0..NODES as usize {
            cluster.node_mut(i).run_for(SimDuration::from_millis(300));
        }
        cluster
    };
    let run = |hpc: bool, gang: Option<SimDuration>, policy: &mut dyn AllocPolicy| {
        BatchRun::new(&trace)
            .mode(if hpc { SchedMode::Hpc } else { SchedMode::Cfs })
            .run(&mut build(hpc, gang), policy)
            .expect("completes")
    };
    let epoch = Some(SimDuration::from_micros(500));

    // Inertness controls: the knob must not move a single byte where
    // rotation can never engage.
    let cfs_over = run(false, None, &mut Oversubscribed);
    let cfs_over_gang = run(false, epoch, &mut Oversubscribed);
    assert_eq!(
        cfs_over, cfs_over_gang,
        "CFS has no gang-aware class; the knob must be bit-inert"
    );
    let hpl_fcfs = run(true, None, &mut Fcfs);
    let hpl_fcfs_gang = run(true, epoch, &mut Fcfs);
    assert_eq!(
        hpl_fcfs, hpl_fcfs_gang,
        "dedicated nodes never co-locate two gangs; the knob must be bit-inert"
    );

    // No-gang control: deterministic, and it reproduces the old
    // serialising gap — strictly slower than the rotated run.
    let hpl_over = run(true, None, &mut Oversubscribed);
    assert_eq!(
        hpl_over,
        run(true, None, &mut Oversubscribed),
        "no-gang oversub×HPL must replay bit for bit"
    );
    let hpl_over_gang = run(true, epoch, &mut Oversubscribed);
    assert!(
        hpl_over.makespan > hpl_over_gang.makespan,
        "without rotation co-resident HPL jobs serialise: no-gang {:?} vs gang {:?}",
        hpl_over.makespan,
        hpl_over_gang.makespan
    );

    // The closed gap: rotated HPL oversubscription within 25% of CFS.
    let bound = cfs_over.makespan.as_secs_f64() * 1.25;
    assert!(
        hpl_over_gang.makespan.as_secs_f64() <= bound,
        "gang rotation must close the oversub×HPL gap: gang {:?} vs CFS {:?}",
        hpl_over_gang.makespan,
        cfs_over.makespan
    );
    assert_eq!(hpl_over_gang.occupancy_violations, 0);
    assert!(hpl_over_gang.utilization <= 1.0);
}

#[test]
fn batch_events_reach_observers_and_chrome_trace() {
    use hpl_kernel::observe::validate_chrome_trace;
    use hpl_kernel::{ChromeTraceSink, MetricsSink};

    let trace = backfill_friendly();
    let mut cluster = build_cluster(4, 3);
    let metrics_id = cluster
        .node_mut(0)
        .attach_observer(Box::new(MetricsSink::new()));
    let sink_ids: Vec<_> = (0..4)
        .map(|i| {
            cluster
                .node_mut(i)
                .attach_observer(Box::new(ChromeTraceSink::new(200_000)))
        })
        .collect();
    let report = BatchRun::new(&trace)
        .run(&mut cluster, &mut EasyBackfill::new())
        .unwrap();
    assert_eq!(report.outcomes.len(), 4);

    let m = cluster
        .node(0)
        .observer::<MetricsSink>(metrics_id)
        .unwrap()
        .metrics();
    assert_eq!(m.job_submits, 4);
    assert_eq!(m.job_starts, 4);
    assert_eq!(m.job_ends, 4);
    assert_eq!(m.job_wait_ns.count(), 4);
    assert!(m.batch_queue_depth.count() >= 8);

    let json = cluster
        .export_chrome_trace(&sink_ids)
        .expect("sinks resolve");
    let stats = validate_chrome_trace(&json).expect("valid trace JSON");
    assert!(stats.complete_events > 0);
    assert!(json.contains("job submit j0"));
    assert!(json.contains("job start j1"));
    assert!(json.contains("job end j3"));
}

#[test]
fn trace_file_round_trip_drives_engine() {
    // A trace written by hand in the text format runs end to end.
    let text = "\
batch-trace v2
job 0 submit 0 nodes 2 rpn 2 iters 2 compute 2000000 bytes 64 est 40000000 user 1 class 0
job 1 submit 500000 nodes 1 rpn 2 iters 2 compute 1000000 bytes 64 est 35000000 user 0 class 1
";
    let trace = BatchTrace::from_text(text).expect("parses");
    assert_eq!(trace.to_text(), text);
    // v1 text (no user/class) still parses, defaulting both to 0.
    let v1 = "\
batch-trace v1
job 0 submit 0 nodes 1 rpn 2 iters 2 compute 1000 bytes 64 est 40000
";
    let old = BatchTrace::from_text(v1).expect("v1 parses");
    assert_eq!(old.jobs[0].user, 0);
    assert_eq!(old.jobs[0].class, 0);
    let mut cluster = build_cluster(2, 11);
    let report = BatchRun::new(&trace)
        .run(&mut cluster, &mut Fcfs)
        .expect("completes");
    assert_eq!(report.outcomes.len(), 2);
    assert!(report.makespan > SimDuration::ZERO);
    assert!(report.utilization > 0.0 && report.utilization <= 1.0);
}

/// The host-side execution policy is invisible at the batch level: a
/// pooled-window run must reproduce the serial [`BatchReport`] bit for
/// bit — same outcomes, same makespan, same fingerprint. Threads are
/// forced to 2 so the pool genuinely crosses host threads even on a
/// single-core CI box, and the density threshold is dropped so small
/// windows still take the pooled path.
#[test]
fn parallel_batch_run_matches_serial_bit_for_bit() {
    let trace = backfill_friendly();
    type PolicyMaker = fn() -> Box<dyn AllocPolicy>;
    let mks: [(&str, PolicyMaker); 2] = [
        ("fcfs", || Box::new(Fcfs)),
        ("easy", || Box::new(EasyBackfill::new())),
    ];
    for (name, mk) in mks {
        let mut serial_cluster = build_cluster(4, 42);
        let serial = BatchRun::new(&trace)
            .run(&mut serial_cluster, mk().as_mut())
            .expect("serial batch run completes");
        let cosim = CosimConfig::parallel().with_threads(2).with_min_active(2);
        let mut parallel_cluster = build_cluster_with(4, 42, cosim);
        let parallel = BatchRun::new(&trace)
            .run(&mut parallel_cluster, mk().as_mut())
            .expect("parallel batch run completes");
        assert_eq!(
            serial, parallel,
            "{name}: pooled windows must reproduce the serial report bit for bit"
        );
    }
}

/// Observer purity holds at the batch level too: attaching sinks must
/// not change the schedule.
#[test]
fn observed_batch_run_matches_unobserved() {
    let trace = backfill_friendly();
    let unobserved = run(&trace, &mut EasyBackfill::new(), 21);
    let mut cluster = build_cluster(4, 21);
    for i in 0..4 {
        cluster
            .node_mut(i)
            .attach_observer(Box::new(hpl_kernel::MetricsSink::new()));
    }
    let observed = BatchRun::new(&trace)
        .run(&mut cluster, &mut EasyBackfill::new())
        .unwrap();
    assert_eq!(unobserved, observed);
}
