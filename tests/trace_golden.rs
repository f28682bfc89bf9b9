//! Golden digests for everything the scheduler trace feeds: the Figure 1
//! text (timeline plus per-CPU Gantt), the Chrome-trace exports of the
//! `scheduler_xray` example's two configurations and of a merged
//! four-node cluster run, and the preemption episodes that
//! [`TraceAnalysis`] reconstructs from the event ring.
//!
//! A change to how events are recorded, stored or rendered that alters
//! a single byte of any of these outputs shows up as a digest mismatch.
//! To re-record after an intentional change, run
//! `cargo test --test trace_golden -- --nocapture` and copy the printed
//! digests.

use hpl::bench::experiments::{fig1, ExpOpts};
use hpl::kernel::analysis::TraceAnalysis;
use hpl::kernel::program::ScriptProgram;
use hpl::prelude::*;

/// FNV-1a over a string's bytes.
fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn check(name: &str, text: &str, expected: u64) {
    let got = digest(text);
    println!("{name}: {got:#018x}");
    assert_eq!(got, expected, "{name}: digest changed");
}

/// The episode list of an analysed window, one line per episode.
fn episodes(node: &Node, ncpus: usize, start: SimTime, end: SimTime) -> (String, TraceAnalysis) {
    let trace = node.trace().expect("tracing enabled");
    let a = TraceAnalysis::analyse(trace.events(), ncpus, start, end);
    let mut out = String::new();
    for p in &a.preemptions {
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            p.at.as_nanos(),
            p.cpu.0,
            p.victim.0,
            p.intruder.0,
            p.stolen.as_nanos()
        ));
    }
    (out, a)
}

#[test]
fn fig1_text_is_unchanged() {
    for (seed, expected) in [(24301u64, 0x75f88eee0468ec64), (7, 0x2c1d4703e04bd154)] {
        let text = fig1(&ExpOpts {
            reps: 1,
            seed,
            out_dir: None,
        });
        check(&format!("fig1 seed {seed}"), &text, expected);
    }
}

/// One `scheduler_xray` configuration: the example's node, noise, seed,
/// sinks and job, run to completion.
struct Xray {
    node: Node,
    start: SimTime,
    ranks: Vec<Pid>,
}

fn xray(hpl_mode: bool) -> Xray {
    let topo = Topology::power6_js22();
    let noise = NoiseProfile::standard(8).scaled(3.0);
    let mut node = if hpl_mode {
        hpl_node_builder(topo)
            .with_noise(noise)
            .with_seed(33)
            .build()
    } else {
        NodeBuilder::new(topo)
            .with_noise(noise)
            .with_seed(33)
            .build()
    };
    node.enable_trace(500_000);
    node.attach_observer(Box::new(MetricsSink::new()));
    node.run_for(SimDuration::from_millis(200));
    let job = JobSpec::new(
        8,
        JobSpec::repeat(
            8,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(10),
                },
                MpiOp::Allreduce { bytes: 64 },
            ],
        ),
    );
    let mode = if hpl_mode {
        SchedMode::Hpc
    } else {
        SchedMode::Cfs
    };
    let start = node.now();
    let handle = launch(&mut node, &job, mode);
    handle.run_to_completion(&mut node, 10_000_000_000);
    let ranks = node
        .tasks
        .iter()
        .filter(|t| t.name.starts_with("rank"))
        .map(|t| t.pid)
        .collect();
    Xray { node, start, ranks }
}

#[test]
fn xray_exports_and_episodes_are_unchanged() {
    for (label, hpl_mode, export_digest, episode_digest) in [
        ("cfs", false, 0x9dd95f68cb74fe1f, 0x12019e1e06b8c419),
        ("hpl", true, 0xc6a4faeb0bbe9c5a, 0x3fd5f74693b70e70),
    ] {
        let x = xray(hpl_mode);
        let json = x.node.export_chrome_trace().expect("tracing enabled");
        check(&format!("xray {label} chrome export"), &json, export_digest);
        let (eps, a) = episodes(&x.node, 8, x.start, x.node.now());
        println!(
            "xray {label}: {} episodes, rank stolen {}",
            a.preemptions.len(),
            a.total_stolen_from(&x.ranks)
        );
        check(&format!("xray {label} episodes"), &eps, episode_digest);
    }
}

/// The paper's claim that no CFS task preempts an HPC task: under the
/// HPL class the ranks of the xray job lose no time to preemption. Their
/// blocking at collectives is voluntary and opens no episode.
#[test]
fn hpl_ranks_are_never_preempted() {
    let x = xray(true);
    let a = TraceAnalysis::analyse(
        x.node.trace().expect("tracing enabled").events(),
        8,
        x.start,
        x.node.now(),
    );
    assert_eq!(x.ranks.len(), 8);
    assert_eq!(a.total_stolen_from(&x.ranks), SimDuration::ZERO);
    assert!(
        !a.preemptions.is_empty(),
        "non-rank tasks are still preempted under HPL"
    );
}

#[test]
fn merged_cluster_export_is_unchanged() {
    // `tests/parallel_cosim.rs`'s first case: four flat-fabric nodes
    // with two HPL ranks each, stepped serially.
    const NODES: usize = 4;
    const RANKS_PER_NODE: u32 = 2;
    let seed = 0xC051;
    let mut cluster = Cluster::builder()
        .nodes_with(NODES, move |i| {
            hpl_node_builder(Topology::smp(RANKS_PER_NODE))
                .with_config(KernelConfig::hpl())
                .with_noise(NoiseProfile::standard(RANKS_PER_NODE).scaled(0.25))
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .build()
        })
        .fabric(Interconnect::flat(NODES, NetConfig::default()))
        .cosim(CosimConfig::serial())
        .build();
    for i in 0..NODES {
        let node = cluster.node_mut(i);
        node.attach_observer(Box::new(MetricsSink::new()));
        node.enable_trace(100_000);
        node.run_for(SimDuration::from_millis(50));
    }
    let job = JobSpec::new(
        NODES as u32 * RANKS_PER_NODE,
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
    .with_nodes(NODES as u32);
    let handle = cluster.launch(&job, SchedMode::Hpc, Placement::All);
    cluster.run_to_completion(&handle, 80_000_000);
    let json = cluster.export_chrome_trace().expect("every node traced");
    check("cluster merged export", &json, 0x0144e6d12bcd5775);
}

#[test]
fn trace_analysis_episodes_are_unchanged() {
    // `crates/kernel/tests/trace_analysis.rs`'s noisy run: eight busy
    // tasks under the standard daemon population.
    let mut node = NodeBuilder::new(Topology::power6_js22())
        .with_noise(NoiseProfile::standard(8))
        .with_seed(17)
        .build();
    node.enable_trace(1_000_000);
    let start = node.now();
    let pids: Vec<_> = (0..8)
        .map(|i| {
            node.spawn(TaskSpec::new(
                format!("busy{i}"),
                Policy::Normal { nice: 0 },
                ScriptProgram::boxed("busy", vec![Step::Compute(SimDuration::from_millis(400))]),
            ))
        })
        .collect();
    for &p in &pids {
        assert!(node.run_until_exit(p, 200_000_000).is_complete());
    }
    let (eps, _) = episodes(&node, 8, start, node.now());
    check("trace_analysis noisy episodes", &eps, 0xe5fb51659c1aebc1);

    // Its quiet run: one task alone on an otherwise idle node.
    let mut node = NodeBuilder::new(Topology::power6_js22())
        .with_seed(3)
        .build();
    node.enable_trace(100_000);
    let start = node.now();
    let pid = node.spawn(
        TaskSpec::new(
            "solo",
            Policy::Normal { nice: 0 },
            ScriptProgram::boxed("solo", vec![Step::Compute(SimDuration::from_millis(50))]),
        )
        .with_affinity(CpuMask::first_n(8)),
    );
    assert!(node.run_until_exit(pid, 100_000_000).is_complete());
    let (eps, _) = episodes(&node, 8, start, node.now() + SimDuration::from_nanos(1));
    // No episode at all: the digest of the empty list.
    check("trace_analysis quiet episodes", &eps, 0xcbf29ce484222325);
}
