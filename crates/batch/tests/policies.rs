//! Policy-zoo integration tests: conservative reservation safety,
//! multi-queue aging, fair-share ordering, and walltime-kill
//! accounting, each driven through the full co-simulated engine.

use hpl_batch::{
    AllocPolicy, Audited, BatchJob, BatchRun, BatchTrace, ConservativeBackfill, Dfrs, FairShare,
    Fcfs, MultiQueue, SwfMap, SwfTrace, TraceTransform,
};
use hpl_cluster::{Cluster, Interconnect, NetConfig};
use hpl_core::HplClass;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_sim::{Rng, SimDuration};
use hpl_topology::Topology;

const FIXTURE: &str = include_str!("data/sp2_sample.swf");

fn build_cluster(nodes: usize, seed: u64) -> Cluster {
    let mut cluster = Cluster::builder()
        .nodes_with(nodes, move |i| {
            NodeBuilder::new(Topology::smp(2))
                .with_config(KernelConfig::hpl())
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes, NetConfig::default()))
        .build();
    for i in 0..nodes {
        cluster.node_mut(i).run_for(SimDuration::from_millis(100));
    }
    cluster
}

fn build_gang_cluster(nodes: usize, seed: u64, epoch: SimDuration) -> Cluster {
    let mut cluster = Cluster::builder()
        .nodes_with(nodes, move |i| {
            let mut cfg = KernelConfig::hpl();
            cfg.gang_epoch = Some(epoch);
            NodeBuilder::new(Topology::smp(2))
                .with_config(cfg)
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes, NetConfig::default()))
        .build();
    for i in 0..nodes {
        cluster.node_mut(i).run_for(SimDuration::from_millis(100));
    }
    cluster
}

fn swf_slice(nodes: u32, take: usize) -> BatchTrace {
    let t = SwfTrace::from_text(FIXTURE).unwrap();
    let (batch, _) = t.to_batch(&SwfMap::for_cluster(nodes).ns_per_sec(2_000.0));
    TraceTransform::new()
        .take(take)
        .arrival_scale(0.1)
        .apply(&batch)
}

fn bj(id: u32, submit_ms: u64, nodes: u32, compute_ms: u64) -> BatchJob {
    let nominal = 2 * compute_ms * 1_000_000;
    BatchJob {
        id,
        submit_ns: submit_ms * 1_000_000,
        nodes,
        ranks_per_node: 2,
        iters: 2,
        compute_ns: compute_ms * 1_000_000,
        bytes: 64,
        // Generous bracket: launch/teardown overhead alone is ~45 ms,
        // so enforced runs need the full margin (cf. synthetic()).
        est_runtime_ns: 4 * nominal + 60_000_000,
        user: 0,
        class: 0,
    }
}

/// The torture-oracle property on a real workload slice: across a
/// 40-job SWF run, no conservative admission ever delays an
/// earlier-queued job's reservation.
#[test]
fn conservative_never_delays_an_earlier_reservation_on_swf() {
    let trace = swf_slice(8, 40);
    let mut policy = ConservativeBackfill::new();
    let mut cluster = build_cluster(8, 1313);
    let report = BatchRun::new(&trace)
        .run(&mut cluster, &mut policy)
        .expect("completes");
    assert_eq!(report.outcomes.len(), 40);
    assert_eq!(report.occupancy_violations, 0);
    let audit = policy.audit();
    assert!(audit.checked > 0, "audit trail populated");
    assert_eq!(
        audit.violations, 0,
        "conservative admissions must respect every earlier reservation: {audit:?}"
    );
    for d in policy.decisions() {
        assert!(d.holds(), "{d:?}");
    }
}

/// Conservative vs EASY on the same stream: both complete everything
/// with zero violations, and conservative is never *more* permissive
/// (its admission count through backfilling cannot exceed the queue
/// pressure EASY sees — here we just pin the reports' integrity and
/// determinism rather than a schedule-shape claim).
#[test]
fn conservative_is_deterministic_and_complete() {
    let trace = swf_slice(8, 25);
    let mk = || {
        let mut cluster = build_cluster(8, 99);
        let mut policy = ConservativeBackfill::new();
        BatchRun::new(&trace)
            .run(&mut cluster, &mut policy)
            .expect("completes")
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "same seed, same report, bit for bit");
    assert_eq!(a.jobs_lost, 0);
}

/// A starving low-class job eventually ages to the top class and runs
/// ahead of a stream of later high-class arrivals.
#[test]
fn multiqueue_aging_prevents_starvation() {
    // Class-1 wide job at t=0, then a stream of narrow class-0 jobs.
    // Without aging the wide job could wait for every narrow job;
    // with aging (default 20 ms step) it is dispatched before the
    // stream drains.
    let mut jobs = vec![BatchJob {
        class: 1,
        ..bj(0, 0, 4, 3)
    }];
    for i in 1..8 {
        jobs.push(bj(i, 2 * i as u64, 1, 3));
    }
    let trace = BatchTrace { jobs };
    let mut policy = MultiQueue::default();
    let mut cluster = build_cluster(4, 7);
    let report = BatchRun::new(&trace)
        .run(&mut cluster, &mut policy)
        .expect("completes");
    assert_eq!(report.outcomes.len(), 8);
    assert!(policy.dispatches() >= 8);
    let started = |id: u32| report.outcomes.iter().find(|o| o.id == id).unwrap().started;
    // The aged class-1 job must not start last.
    let latest = (1..8).map(started).max().unwrap();
    assert!(
        started(0) < latest,
        "aging must promote the class-1 job past the tail of the class-0 stream"
    );
}

/// Fair share on a two-user stream: the audit holds (no dispatch ever
/// skipped a poorer fittable user) and the heavy user's extra demand
/// cannot starve the light user.
#[test]
fn fairshare_audits_hold_and_balance_users() {
    // User 0 floods; user 1 submits sparse jobs of the same shape.
    let mut jobs = Vec::new();
    for i in 0..8 {
        jobs.push(BatchJob {
            user: 0,
            ..bj(i, i as u64, 2, 2)
        });
    }
    for i in 0..3 {
        jobs.push(BatchJob {
            user: 1,
            ..bj(8 + i, 3 + 2 * i as u64, 2, 2)
        });
    }
    let trace = BatchTrace { jobs };
    let mut policy = FairShare::new();
    let mut cluster = build_cluster(4, 5150);
    let report = BatchRun::new(&trace)
        .run(&mut cluster, &mut policy)
        .expect("completes");
    assert_eq!(report.outcomes.len(), 11);
    let audit = policy.audit();
    assert_eq!(audit.violations, 0, "share order must hold: {audit:?}");
    assert!(audit.checked >= 11);
    let stats = &report.user_stats;
    assert_eq!(stats.len(), 2);
    let heavy = stats.iter().find(|s| s.user == 0).unwrap();
    let light = stats.iter().find(|s| s.user == 1).unwrap();
    assert_eq!(heavy.jobs, 8);
    assert_eq!(light.jobs, 3);
    assert!(
        light.mean_bounded_slowdown <= heavy.mean_bounded_slowdown,
        "the sparse user must not be starved by the flooding user: light {} heavy {}",
        light.mean_bounded_slowdown,
        heavy.mean_bounded_slowdown
    );
}

/// DFRS through the full gang-rotating engine on a real workload
/// slice: every reallocation conserves per-node shares, occupancy
/// stays within the fractional limit, the busy-node utilization
/// integral stays physical (≤ 1.0), and the whole run — shares
/// included — is deterministic bit for bit.
#[test]
fn dfrs_shares_conserve_and_runs_are_deterministic() {
    let trace = swf_slice(8, 25);
    let mk = || {
        let mut cluster = build_gang_cluster(8, 2024, SimDuration::from_micros(500));
        let mut policy = Dfrs::new(SimDuration::from_millis(1), 2024);
        let report = BatchRun::new(&trace)
            .run(&mut cluster, &mut policy)
            .expect("completes");
        let decisions: Vec<_> = policy.decisions().cloned().collect();
        (report, decisions, policy.audit().violations)
    };
    let (a, da, va) = mk();
    let (b, db, _) = mk();
    assert_eq!(a, b, "same seed, same report, bit for bit");
    assert_eq!(da, db, "reallocation trail is deterministic too");
    assert_eq!(a.outcomes.len(), 25);
    assert_eq!(a.jobs_lost, 0);
    assert_eq!(a.occupancy_violations, 0);
    assert!(a.max_node_occupancy <= 2, "fractional limit is 2 jobs/node");
    assert_eq!(va, 0, "per-node share sums stay <= 1000 milli");
    assert!(!da.is_empty(), "audit trail populated");
    for d in &da {
        assert!(d.holds(), "{d:?}");
    }
    assert!(
        a.utilization <= 1.0,
        "busy-node integral can't exceed capacity: {}",
        a.utilization
    );
}

/// Walltime enforcement: an under-estimated job is killed at its
/// estimate, the kill is reported, later jobs still run, and the
/// killed job's nodes are fully released (no occupancy leak).
#[test]
fn walltime_kill_releases_nodes_and_is_reported() {
    // Job 0 claims a 2 ms estimate but computes ~40 ms; job 1 arrives
    // later and needs the whole cluster, so it can only run if the
    // kill released job 0's nodes.
    let doomed = BatchJob {
        est_runtime_ns: 2_000_000,
        user: 3,
        ..bj(0, 0, 2, 20)
    };
    let follower = bj(1, 1, 4, 1);
    let trace = BatchTrace {
        jobs: vec![doomed, follower],
    };
    let mut cluster = build_cluster(4, 23);
    let report = BatchRun::new(&trace)
        .walltime(1.0)
        .run(&mut cluster, &mut Fcfs)
        .expect("completes");
    assert_eq!(report.jobs_killed, 1, "the under-estimated job dies");
    assert_eq!(report.jobs_lost, 0, "killed is completed, not lost");
    let o0 = report.outcomes.iter().find(|o| o.id == 0).unwrap();
    assert!(o0.killed);
    assert_eq!(o0.user, 3);
    assert!(
        o0.run < SimDuration::from_millis(40),
        "killed well before its natural ~80 ms runtime, ran {:?}",
        o0.run
    );
    let o1 = report.outcomes.iter().find(|o| o.id == 1).unwrap();
    assert!(!o1.killed, "the follower completes normally");
    assert!(
        o1.started >= o0.ended,
        "full-width follower needed the kill"
    );
    // No occupancy leak: every node is free after the run.
    for n in 0..cluster.len() {
        assert_eq!(
            cluster.active_jobs_on(n),
            0,
            "node {n} must be released after the kill"
        );
    }
    // Per-user accounting sees the kill.
    let u3 = report.user_stats.iter().find(|s| s.user == 3).unwrap();
    assert_eq!(u3.killed, 1);
    // Without enforcement the same trace runs job 0 to completion.
    let mut cluster = build_cluster(4, 23);
    let relaxed = BatchRun::new(&trace)
        .run(&mut cluster, &mut Fcfs)
        .expect("completes");
    assert_eq!(relaxed.jobs_killed, 0);
    assert!(relaxed.outcomes.iter().all(|o| !o.killed));
    assert!(
        relaxed.outcomes.iter().find(|o| o.id == 0).unwrap().run > o0.run,
        "unenforced run must outlive the killed one"
    );
}

/// Walltime kills under honest SWF estimates: the fixture's
/// deliberately under-requested records get killed, everything else
/// survives, and the engine still completes every job.
#[test]
fn honest_swf_estimates_produce_kills() {
    let t = SwfTrace::from_text(FIXTURE).unwrap();
    let (batch, _) = t.to_batch(&SwfMap::for_cluster(8).ns_per_sec(2_000.0).honest());
    let trace = TraceTransform::new()
        .take(30)
        .arrival_scale(0.1)
        .apply(&batch);
    let mut cluster = build_cluster(8, 404);
    let report = BatchRun::new(&trace)
        .walltime(1.0)
        .run(&mut cluster, &mut Fcfs)
        .expect("completes");
    assert_eq!(
        report.outcomes.len(),
        30,
        "every job ends, one way or another"
    );
    assert!(
        report.jobs_killed > 0,
        "the fixture's under-estimating users must hit the limit"
    );
    assert!(report.jobs_killed < 30, "but not everyone dies");
    assert_eq!(report.jobs_lost, 0);
    for n in 0..cluster.len() {
        assert_eq!(cluster.active_jobs_on(n), 0, "no occupancy leak");
    }
}
