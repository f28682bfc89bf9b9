//! Cluster-level fault injection: crashes fail their jobs and release
//! occupancy, drains fence placement, restarts heal the node, and
//! faulty runs stay bit-identical across host execution policies.

use hpl_cluster::{Cluster, CosimConfig, FaultPlan, Interconnect, NetConfig, Placement};
use hpl_core::HplClass;
use hpl_kernel::program::ScriptProgram;
use hpl_kernel::{KernelConfig, NodeBuilder, Policy, RunOutcome, Step, TaskSpec, TaskState};
use hpl_mpi::{JobSpec, MpiOp, SchedMode};
use hpl_sim::time::{SimDuration, SimTime};
use hpl_topology::Topology;

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

fn job(nodes: u32, ranks_per_node: u32, iters: u32) -> JobSpec {
    JobSpec::new(
        nodes * ranks_per_node,
        JobSpec::repeat(
            iters,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(2),
                },
                MpiOp::Allreduce { bytes: 64 },
            ],
        ),
    )
    .with_nodes(nodes)
}

fn build_cluster(nodes: usize, seed: u64, faults: FaultPlan, cosim: CosimConfig) -> Cluster {
    build_cluster_with(nodes, seed, faults, cosim, KernelConfig::hpl())
}

fn build_cluster_with(
    nodes: usize,
    seed: u64,
    faults: FaultPlan,
    cosim: CosimConfig,
    kc: KernelConfig,
) -> Cluster {
    Cluster::builder()
        .nodes_with(nodes, move |i| {
            NodeBuilder::new(Topology::smp(2))
                .with_config(kc.clone())
                .with_seed(seed ^ ((i as u64) << 32))
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes, NetConfig::default()))
        .cosim(cosim)
        .faults(faults)
        .build()
}

#[test]
fn crash_fails_the_job_frees_occupancy_and_freezes_the_node() {
    let plan = FaultPlan::default().with_seed(3).crash(1, ms(10));
    let mut cluster = build_cluster(2, 42, plan, CosimConfig::serial());
    let handle = cluster.launch(&job(2, 2, 8), SchedMode::Hpc, Placement::All);

    let outcome = cluster.try_run_to_completion(&handle, 200_000_000);
    assert_eq!(
        outcome,
        Err(RunOutcome::Deadlock),
        "a half-dead job can never finish"
    );
    assert!(cluster.job_failed(&handle));
    assert!(!cluster.job_done(&handle));
    assert_eq!(cluster.crashes(), 1);
    assert!(cluster.node_down(1));
    assert!(!cluster.node_available(1));
    assert!(cluster.node_available(0));
    // Occupancy is released on both nodes the moment the job fails.
    assert_eq!(cluster.active_jobs_on(0), 0);
    assert_eq!(cluster.active_jobs_on(1), 0);
    // Node 0 alone survived the crash.
    assert_eq!(cluster.job_survivors(&handle), vec![0]);
    // The surviving rank tree was reaped, not left spinning.
    assert_eq!(
        cluster.node(0).tasks.get(handle.perf_pids[0]).state,
        TaskState::Dead
    );

    // The down node's clock is frozen: stepping plenty more windows
    // (the survivor's periodic ticks keep its queue alive forever)
    // never advances it past the crash boundary.
    let frozen = cluster.node(1).now();
    for _ in 0..1_000 {
        if !cluster.step_window() {
            break;
        }
    }
    assert_eq!(cluster.node(1).now(), frozen);
    assert!(frozen < ms(25), "crash at 10 ms froze the clock near there");
    assert!(cluster.node(0).now() > frozen, "the survivor kept running");
}

#[test]
fn drain_fences_a_node_and_restart_lifts_it() {
    let plan = FaultPlan::default()
        .with_seed(3)
        .drain(1, ms(1))
        .restart(1, ms(400));
    let mut cluster = build_cluster(2, 42, plan, CosimConfig::serial());

    // A job on node 0 alone runs past the drain boundary, applying it.
    let h0 = cluster.launch(&job(1, 2, 8), SchedMode::Hpc, Placement::on(&[0]));
    cluster.run_to_completion(&h0, 200_000_000);
    assert!(cluster.node_drained(1));
    assert!(!cluster.node_down(1), "drain is not a crash");
    assert!(!cluster.node_available(1), "drained nodes take no new work");

    // Keep stepping: the restart at 400 ms lifts the drain even though
    // the cluster is otherwise idle.
    let mut budget = 1_000_000u32;
    while cluster.node_drained(1) && cluster.step_window() {
        budget -= 1;
        assert!(budget > 0, "restart should lift the drain within budget");
    }
    assert!(!cluster.node_drained(1));
    assert!(cluster.node_available(1));

    // And the healed node runs a fresh job to completion.
    let spec = job(1, 2, 4).with_id_base(20_000);
    let h1 = cluster.launch(&spec, SchedMode::Hpc, Placement::on(&[1]));
    let exec = cluster.run_to_completion(&h1, 200_000_000);
    assert!(exec.as_nanos() > 6_000_000);
}

#[test]
fn restart_heals_a_crashed_node_for_new_work() {
    let plan = FaultPlan::default()
        .with_seed(3)
        .crash(1, ms(10))
        .restart(1, ms(30));
    let mut cluster = build_cluster(2, 42, plan, CosimConfig::serial());
    let doomed = cluster.launch(&job(2, 2, 8), SchedMode::Hpc, Placement::All);
    assert!(cluster.try_run_to_completion(&doomed, 200_000_000).is_err());

    // Step until the restart brings node 1 back.
    let mut budget = 1_000_000u32;
    while cluster.node_down(1) && cluster.step_window() {
        budget -= 1;
        assert!(budget > 0, "restart should revive the node within budget");
    }
    assert!(!cluster.node_down(1));
    assert!(cluster.node_available(1));

    // The reborn node accepts and completes a new job; the old handle
    // stays failed forever (its pids belong to a dead incarnation).
    let spec = job(1, 2, 4).with_id_base(20_000);
    let h = cluster.launch(&spec, SchedMode::Hpc, Placement::on(&[1]));
    let exec = cluster.run_to_completion(&h, 200_000_000);
    assert!(exec.as_nanos() > 6_000_000);
    assert!(cluster.job_failed(&doomed));
    assert!(!cluster.job_done(&doomed));
}

/// A job whose only launcher tree exited before its node crashed and
/// restarted stays finished, with the exec time it had before the
/// crash: the restart replaces the node's task table, not the cluster's
/// record of how the tree ended.
#[test]
fn job_finished_before_its_node_restarts_stays_finished() {
    let short = JobSpec::new(
        2,
        JobSpec::repeat(
            2,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(1),
                },
                MpiOp::Allreduce { bytes: 64 },
            ],
        ),
    );
    // Keeps the cluster's queues busy past the faults.
    let long = job(1, 2, 40).with_id_base(10_000);
    let launch = |cluster: &mut Cluster| {
        let h = cluster.launch(&short, SchedMode::Hpc, Placement::on(&[0]));
        cluster.launch(&long, SchedMode::Hpc, Placement::on(&[1]));
        h
    };

    // Where node 0's tree ends with no faults.
    let mut clean = build_cluster(2, 42, FaultPlan::none(), CosimConfig::serial());
    let h = launch(&mut clean);
    let exec = clean.run_to_completion(&h, 200_000_000);
    let exit = clean.node(0).tasks.get(h.perf_pids[0]).exited_at.unwrap();
    assert_eq!(exit, SimTime::from_nanos(46_233_432));

    // Crash and restart node 0 just after that exit.
    let t = exit + SimDuration::from_nanos(1);
    let plan = FaultPlan::default().crash(0, t).restart(0, t);
    let mut cluster = build_cluster(2, 42, plan, CosimConfig::serial());
    let h = launch(&mut cluster);
    while cluster.faults_applied() < 2 {
        assert!(cluster.step_window(), "the long job keeps the cluster busy");
    }
    assert_eq!(cluster.crashes(), 1);
    assert!(!cluster.node_down(0));
    assert!(!cluster.job_failed(&h), "the job had left the node");
    assert!(cluster.job_done(&h));
    assert_eq!(cluster.job_end(&h), Some(exit));
    assert_eq!(cluster.job_exec_time(&h), Some(exec));
    assert_eq!(cluster.try_run_to_completion(&h, 1_000_000), Ok(exec));
}

#[test]
fn message_loss_delays_but_does_not_break_a_job() {
    // Heavy loss with retransmission: the job still completes, strictly
    // later than the fault-free run, and reproducibly so.
    let lossy_plan = || {
        FaultPlan::default()
            .with_seed(11)
            .with_loss(200_000, SimDuration::from_micros(500), 10)
    };
    let run = |plan: FaultPlan| {
        let mut cluster = build_cluster(2, 42, plan, CosimConfig::serial());
        let handle = cluster.launch(&job(2, 2, 6), SchedMode::Hpc, Placement::All);
        let exec = cluster.run_to_completion(&handle, 400_000_000);
        (exec.as_nanos(), cluster.state_fingerprint())
    };
    let clean = run(FaultPlan::none());
    let lossy_a = run(lossy_plan());
    let lossy_b = run(lossy_plan());
    assert_eq!(
        lossy_a, lossy_b,
        "loss must be a pure function of the plan seed"
    );
    assert!(
        lossy_a.0 > clean.0,
        "20% loss with 500 us RTO must cost time: {} vs {}",
        lossy_a.0,
        clean.0
    );
}

#[test]
fn faulty_run_is_bit_identical_across_serial_and_pooled_stepping() {
    // The full fault menu at once — loss + retransmit, a degrade
    // window, and a crash/restart of a bystander node — must not open
    // any daylight between the serial and pooled window loops.
    let plan = || {
        FaultPlan::default()
            .with_seed(7)
            .with_loss(100_000, SimDuration::from_micros(500), 10)
            .degrade(ms(5), ms(15), 4)
            .crash(2, ms(8))
            .restart(2, ms(20))
    };
    let run = |cosim: CosimConfig| {
        let mut cluster = build_cluster(3, 42, plan(), cosim);
        let handle = cluster.launch(&job(2, 2, 6), SchedMode::Hpc, Placement::on(&[0, 1]));
        let exec = cluster.run_to_completion(&handle, 400_000_000);
        // Step until the bystander's restart lands, so the fingerprint
        // covers the healed cluster too (queues never fully drain —
        // periodic ticks — so bound the wait).
        let mut budget = 1_000_000u32;
        while cluster.node_down(2) && cluster.step_window() {
            budget -= 1;
            assert!(budget > 0, "bystander restart should land within budget");
        }
        (
            exec.as_nanos(),
            cluster.crashes(),
            cluster.state_fingerprint(),
        )
    };
    let serial = run(CosimConfig::serial());
    let serial2 = run(CosimConfig::serial());
    let pooled = run(CosimConfig::parallel().with_threads(2).with_min_active(2));
    assert_eq!(serial, serial2, "serial faulty run not reproducible");
    assert_eq!(serial, pooled, "pooled faulty run diverges from serial");
    assert_eq!(serial.1, 1, "exactly the planned crash happened");
}

#[test]
fn restart_does_not_exhaust_another_jobs_event_budget() {
    // A chatty job B runs on nodes 1-2 for a while before a compute job
    // A is launched on node 0, so the budget baseline counts all of B's
    // events on node 2. Node 2 crashes and restarts while A runs: the
    // fresh kernel has far fewer events than the one it replaced, and a
    // budget taken over the current nodes' counts would fall below its
    // baseline. The budget counts dispatched events instead, so A ends
    // normally.
    let plan = FaultPlan::default()
        .with_seed(5)
        .crash(2, ms(200))
        .restart(2, ms(201));
    let mut cluster = build_cluster(3, 42, plan, CosimConfig::serial());
    let chatty = JobSpec::new(
        4,
        JobSpec::repeat(
            100_000,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_micros(20),
                },
                MpiOp::Allreduce { bytes: 64 },
            ],
        ),
    )
    .with_nodes(2);
    let b = cluster.launch(&chatty, SchedMode::Hpc, Placement::on(&[1, 2]));
    while cluster.clock() < ms(190) {
        assert!(cluster.step_window());
    }
    let compute = JobSpec::new(
        1,
        vec![MpiOp::Compute {
            mean: SimDuration::from_millis(150),
        }],
    )
    .with_id_base(1_000_000);
    let a = cluster.launch(&compute, SchedMode::Hpc, Placement::on(&[0]));
    let before = cluster.events_processed();
    let exec = cluster
        .try_run_to_completion(&a, 50_000_000)
        .expect("the restart elsewhere must not end A");
    assert!(exec >= SimDuration::from_millis(150), "A ran {exec:?}");
    assert!(cluster.job_failed(&b), "the crash failed B");
    assert_eq!(cluster.crashes(), 1);
    assert!(!cluster.node_down(2), "node 2 restarted");
    assert!(
        cluster.events_processed() < before,
        "the scenario must shrink the summed count, or it tests nothing"
    );
}

/// One run through every way a node can change between windows: spawn
/// and run through `node_mut`, `cancel_job`, `set_gang_share`, a crash
/// that reaps a peer's tree, and a restart. Returns everything the
/// cluster's caches feed.
fn refresh_paths_run(cosim: CosimConfig) -> (u64, u64, u64, u64, u64, SimTime, u64, u64) {
    let plan = FaultPlan::default()
        .with_seed(9)
        .crash(3, ms(30))
        .restart(3, ms(40));
    let mut kc = KernelConfig::hpl();
    kc.gang_epoch = Some(SimDuration::from_millis(5));
    let mut cluster = build_cluster_with(4, 42, plan, cosim, kc);
    let a = cluster.launch(&job(2, 2, 30), SchedMode::Hpc, Placement::on(&[1, 2]));
    let b = cluster.launch(
        &job(2, 2, 30).with_id_base(10_000),
        SchedMode::Hpc,
        Placement::on(&[2, 3]),
    );
    let c = cluster.launch(
        &job(1, 2, 30).with_id_base(20_000),
        SchedMode::Hpc,
        Placement::on(&[0]),
    );
    let d = cluster.launch(
        &job(1, 2, 30).with_id_base(30_000),
        SchedMode::Hpc,
        Placement::on(&[1]),
    );
    let (mut shared, mut spawned, mut cancelled) = (false, false, false);
    while !cluster.node_down(3) || cluster.clock() < ms(45) {
        let now = cluster.clock();
        if !shared && now >= ms(8) {
            // Job A's gang gets three quarters of node 1 against D.
            cluster.set_gang_share(1, 0, 750);
            shared = true;
        }
        if !spawned && now >= ms(12) {
            // Node 0 hosts only single-node work, so running it ahead
            // cannot put a delivery in its past.
            let hog = ScriptProgram::new("hog", vec![Step::Compute(SimDuration::from_millis(3))]);
            let node = cluster.node_mut(0);
            node.spawn(TaskSpec::new(
                "hog",
                Policy::Normal { nice: 0 },
                Box::new(hog),
            ));
            node.run_for(SimDuration::from_micros(700));
            spawned = true;
        }
        if !cancelled && now >= ms(20) {
            assert_eq!(cluster.cancel_job(&c), 1);
            cancelled = true;
        }
        if cluster.clock() >= ms(45) {
            break;
        }
        assert!(cluster.step_window());
    }
    assert!(shared && spawned && cancelled);
    assert!(cluster.job_failed(&b), "node 3's crash failed B");
    assert!(!cluster.node_down(3), "node 3 restarted");
    let exec = cluster.run_to_completion(&a, 400_000_000);
    cluster.run_to_completion(&d, 400_000_000);
    (
        exec.as_nanos(),
        cluster.state_fingerprint(),
        cluster.events_processed(),
        cluster.events_dispatched(),
        cluster.net().messages(),
        cluster.clock(),
        cluster.tree_exits(),
        cluster.crashes(),
    )
}

#[test]
fn every_cache_refresh_path_is_bit_identical_serial_and_pooled() {
    // Debug builds also check every cache entry against a fresh read of
    // its node after each window.
    let serial = refresh_paths_run(CosimConfig::serial());
    let pooled = refresh_paths_run(CosimConfig::parallel().with_threads(2).with_min_active(2));
    assert_eq!(serial, pooled, "pooled run diverges from serial");
    assert_eq!(serial, refresh_paths_run(CosimConfig::serial()));
    assert_eq!(serial.7, 1, "exactly the planned crash happened");
    // A's, B's (both nodes), C's and D's trees, plus nothing frozen:
    // B's node-3 tree died with the node and does not count.
    assert!(serial.6 >= 4, "tree exits {}", serial.6);
}
