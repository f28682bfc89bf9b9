//! Differential tests for the parallel lockstep driver: stepping
//! conservative windows on a host thread pool must be **byte-invisible**
//! in every observable output — state fingerprints, execution times,
//! event counts, interconnect traffic counters, per-node metrics, and
//! the merged Chrome trace document — across seeds, fabrics, kernel
//! flavours and pool widths. Host threads are forced to at least two so
//! the pool genuinely crosses threads even on a single-core CI box.

use hpl::prelude::*;

const RANKS_PER_NODE: u32 = 2;

/// Everything observable about one cluster run, in directly comparable
/// (and mostly textual) form.
#[derive(Debug, PartialEq)]
struct Observed {
    exec_ns: u64,
    fingerprint: u64,
    events: u64,
    net_messages: u64,
    net_bytes: u64,
    /// `Debug` dump of every node's `MetricsSink` contents.
    metrics: Vec<String>,
    /// The merged Chrome trace JSON document.
    trace: String,
}

struct Case {
    nodes: u32,
    switched: bool,
    tickless: bool,
    seed: u64,
}

fn job(nodes: u32) -> JobSpec {
    JobSpec::new(
        nodes * RANKS_PER_NODE,
        JobSpec::repeat(
            3,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_micros(400),
                },
                MpiOp::Allreduce { bytes: 64 },
                MpiOp::NeighborExchange { bytes: 256 },
            ],
        ),
    )
    .with_nodes(nodes)
}

/// Build the case's cluster under `cosim`, run the job to completion
/// with metrics and trace sinks attached, and collect every observable.
fn observe(case: &Case, cosim: CosimConfig) -> Observed {
    let mut kcfg = KernelConfig::hpl();
    kcfg.tickless_single_hpc = case.tickless;
    let net = if case.switched {
        Interconnect::switched(case.nodes as usize, NetConfig::default())
    } else {
        Interconnect::flat(case.nodes as usize, NetConfig::default())
    };
    let seed = case.seed;
    let nodes = case.nodes;
    let mut cluster = Cluster::builder()
        .nodes_with(nodes as usize, move |i| {
            hpl_node_builder(Topology::smp(RANKS_PER_NODE))
                .with_config(kcfg.clone())
                .with_noise(NoiseProfile::standard(RANKS_PER_NODE).scaled(0.25))
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .build()
        })
        .fabric(net)
        .cosim(cosim)
        .build();
    let mut metric_ids = Vec::new();
    for i in 0..case.nodes as usize {
        let node = cluster.node_mut(i);
        metric_ids.push(node.attach_observer(Box::new(MetricsSink::new())));
        node.enable_trace(100_000);
        node.run_for(SimDuration::from_millis(50));
    }
    let handle = cluster.launch(&job(case.nodes), SchedMode::Hpc, Placement::All);
    let exec = cluster.run_to_completion(&handle, 80_000_000);
    let metrics = metric_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            format!(
                "{:?}",
                cluster
                    .node(i)
                    .observer::<MetricsSink>(id)
                    .expect("metrics sink resolves")
                    .metrics()
            )
        })
        .collect();
    let trace = cluster.export_chrome_trace().expect("every node traced");
    validate_chrome_trace(&trace).expect("merged trace is well-formed");
    Observed {
        exec_ns: exec.as_nanos(),
        fingerprint: cluster.state_fingerprint(),
        events: cluster.events_processed(),
        net_messages: cluster.net().messages(),
        net_bytes: cluster.net().bytes(),
        metrics,
        trace,
    }
}

fn forced_parallel(threads: usize) -> CosimConfig {
    CosimConfig::parallel()
        .with_threads(threads)
        .with_min_active(2)
}

#[test]
fn parallel_windows_are_byte_identical_to_serial() {
    let cases = [
        Case {
            nodes: 4,
            switched: false,
            tickless: false,
            seed: 0xC051,
        },
        Case {
            nodes: 4,
            switched: true,
            tickless: true,
            seed: 0xC052,
        },
        Case {
            nodes: 8,
            switched: true,
            tickless: false,
            seed: 0xC053,
        },
    ];
    for case in &cases {
        let serial = observe(case, CosimConfig::serial());
        let parallel = observe(case, forced_parallel(2));
        assert!(serial.exec_ns > 0 && serial.events > 0 && serial.net_messages > 0);
        assert_eq!(
            serial, parallel,
            "nodes={} switched={} tickless={}: pooled stepping leaked into observable state",
            case.nodes, case.switched, case.tickless
        );
    }
}

#[test]
fn pool_width_never_changes_the_answer() {
    // 1 thread (pool bypassed), 2, 3 and 5 threads: all the same bytes.
    let case = Case {
        nodes: 6,
        switched: false,
        tickless: false,
        seed: 0x91DE,
    };
    let baseline = observe(&case, CosimConfig::serial());
    for threads in [1usize, 2, 3, 5] {
        let run = observe(&case, forced_parallel(threads));
        assert_eq!(
            baseline, run,
            "{threads}-thread pool diverged from the serial baseline"
        );
    }
}

/// Like [`observe`], but with a gang epoch configured and **two**
/// whole-cluster jobs co-resident on every node, so the run exercises
/// gang enrollment, epoch rotation and release on both event-loop
/// flavours.
fn observe_gang(seed: u64, cosim: CosimConfig) -> Observed {
    const NODES: u32 = 4;
    let mut kcfg = KernelConfig::hpl();
    kcfg.gang_epoch = Some(SimDuration::from_micros(500));
    let mut cluster = Cluster::builder()
        .nodes_with(NODES as usize, move |i| {
            hpl_node_builder(Topology::smp(RANKS_PER_NODE))
                .with_config(kcfg.clone())
                .with_noise(NoiseProfile::standard(RANKS_PER_NODE).scaled(0.25))
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .build()
        })
        .fabric(Interconnect::flat(NODES as usize, NetConfig::default()))
        .cosim(cosim)
        .build();
    let mut metric_ids = Vec::new();
    for i in 0..NODES as usize {
        let node = cluster.node_mut(i);
        metric_ids.push(node.attach_observer(Box::new(MetricsSink::new())));
        node.enable_trace(100_000);
        node.run_for(SimDuration::from_millis(50));
    }
    let a = cluster.launch(&job(NODES), SchedMode::Hpc, Placement::All);
    let b = cluster.launch(
        &job(NODES).with_id_base(10_000),
        SchedMode::Hpc,
        Placement::All,
    );
    let exec_a = cluster.run_to_completion(&a, 80_000_000);
    let exec_b = cluster.run_to_completion(&b, 80_000_000);
    let metrics = metric_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            format!(
                "{:?}",
                cluster
                    .node(i)
                    .observer::<MetricsSink>(id)
                    .expect("metrics sink resolves")
                    .metrics()
            )
        })
        .collect();
    let trace = cluster.export_chrome_trace().expect("every node traced");
    validate_chrome_trace(&trace).expect("merged trace is well-formed");
    Observed {
        exec_ns: exec_a.as_nanos() + exec_b.as_nanos(),
        fingerprint: cluster.state_fingerprint(),
        events: cluster.events_processed(),
        net_messages: cluster.net().messages(),
        net_bytes: cluster.net().bytes(),
        metrics,
        trace,
    }
}

#[test]
fn gang_rotation_is_byte_identical_across_pooled_windows() {
    let serial = observe_gang(0x6A16, CosimConfig::serial());
    let parallel = observe_gang(0x6A16, forced_parallel(2));
    assert!(serial.exec_ns > 0 && serial.events > 0 && serial.net_messages > 0);
    assert!(
        serial
            .metrics
            .iter()
            .all(|m| m.contains("gang_epochs") && !m.contains("gang_epochs: 0")),
        "every node must rotate gangs during the overlapped run: {:?}",
        serial.metrics
    );
    assert_eq!(
        serial, parallel,
        "gang rotation leaked pooled-stepping state into observable output"
    );
}

#[test]
fn dense_window_threshold_only_gates_the_pool_not_the_result() {
    // min_active above the node count: parallel mode configured but the
    // pool never engages — and an engaged pool gives the same bytes.
    let case = Case {
        nodes: 4,
        switched: false,
        tickless: false,
        seed: 0x7E57,
    };
    let never_dense = observe(
        &case,
        CosimConfig::parallel()
            .with_threads(2)
            .with_min_active(1_000),
    );
    let always_dense = observe(&case, forced_parallel(2));
    assert_eq!(never_dense, always_dense);
}
