//! X-ray a scheduling decision: trace, per-task reports, metrics, energy —
//! and a Chrome-trace file you can open in `chrome://tracing` or Perfetto.
//!
//! Runs a short synchronised job under standard Linux and under HPL with
//! the full observability stack attached (the event ring, which records
//! every scheduler event and renders the Chrome trace, and the metrics
//! registry), then prints for each:
//!
//! * a per-CPU Gantt chart of the launch window (ranks as digits,
//!   daemons/launchers as 'x'),
//! * the preemption episodes the ranks suffered, reconstructed from the
//!   ring's switch and block events (HPL must show none),
//! * `/proc/<pid>/sched`-style per-rank reports,
//! * the scheduler-metrics registry (decision counters + latency
//!   histograms),
//! * the window's energy accounting,
//!
//! and writes `target/xray_<label>.trace.json` — load it in
//! `chrome://tracing` (or <https://ui.perfetto.dev>) to scrub through
//! every context switch, migration and wakeup interactively.
//!
//! ```text
//! cargo run --release --example scheduler_xray
//! ```

use hpl::kernel::analysis::TraceAnalysis;
use hpl::kernel::power::energy_of_window;
use hpl::prelude::*;
use std::collections::HashMap;

fn xray(label: &str, file_tag: &str, hpl_mode: bool) {
    let topo = Topology::power6_js22();
    let noise = NoiseProfile::standard(8).scaled(3.0); // extra-noisy for visible effect
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
    // The full observability stack: the bounded event ring (Gantt,
    // preemption episodes, Chrome trace) and the metrics registry.
    node.enable_trace(500_000);
    let metrics_id = node.attach_observer(Box::new(MetricsSink::new()));
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
    let mut perf = PerfSession::open(&node.counters, node.now());
    let start = node.now();
    let handle = launch(&mut node, &job, mode);
    let exec = handle.run_to_completion(&mut node, 10_000_000_000);
    perf.close(&node.counters, node.now());

    println!("==== {label}: {exec} ====\n");
    let glyphs: HashMap<Pid, char> = node
        .tasks
        .iter()
        .filter(|t| t.name.starts_with("rank"))
        .map(|t| (t.pid, t.name.as_bytes()[4] as char))
        .collect();
    if let Some(trace) = node.trace() {
        print!(
            "{}",
            trace.gantt(8, start, node.now(), 70, |p| {
                glyphs.get(&p).copied().unwrap_or('x')
            })
        );
    }
    let mut rank_pids: Vec<Pid> = glyphs.keys().copied().collect();
    rank_pids.sort();
    // Who preempted the ranks, and for how long. Blocking at the
    // allreduce is voluntary and is not counted.
    let trace = node.trace().expect("ring attached");
    let analysis = TraceAnalysis::analyse(trace.events(), 8, start, node.now());
    let stolen = analysis.total_stolen_from(&rank_pids);
    let episodes = rank_pids
        .iter()
        .map(|&p| analysis.preemptions_of(p).count())
        .sum::<usize>();
    println!("\n  rank preemptions: {episodes} episodes, {stolen} stolen\n");
    if hpl_mode {
        assert_eq!(
            stolen,
            SimDuration::ZERO,
            "a CFS task preempted an HPC rank"
        );
    }
    for pid in rank_pids {
        println!("  {}", node.task_report(pid));
    }

    // Export the Chrome trace and prove it is well-formed and consistent
    // with the ring and the metrics registry before telling the user to
    // load it.
    let json = node.export_chrome_trace().expect("ring attached");
    let stats = validate_chrome_trace(&json).expect("exported trace must parse");
    let m = node
        .observer::<MetricsSink>(metrics_id)
        .expect("metrics sink attached")
        .metrics();
    let count = |is: fn(&SchedEvent) -> bool| trace.events().iter().filter(|(_, e)| is(e)).count();
    let switches = count(|e| matches!(e, SchedEvent::Switch { .. }));
    let migrations = count(|e| matches!(e, SchedEvent::Migrate { .. }));
    let wakeups = count(|e| matches!(e, SchedEvent::Wakeup { .. }));
    assert_eq!(
        switches as u64, m.switches,
        "ring and metrics registry disagree on switches"
    );
    assert_eq!(migrations as u64, m.migrations);
    assert_eq!(wakeups as u64, m.wakeups);
    assert_eq!(
        stats.complete_events,
        count(|e| matches!(e, SchedEvent::Switch { to: Some(_), .. })),
        "one slice per switch onto a task"
    );
    assert_eq!(stats.instant_events, migrations + wakeups);
    let path = format!("target/xray_{file_tag}.trace.json");
    std::fs::write(&path, &json).expect("write trace file");
    println!(
        "\n  chrome trace: {path} ({} slices, {} instants; open in chrome://tracing)",
        stats.complete_events, stats.instant_events
    );

    println!("\n{}", m.report());

    let busy = perf.delta().hw(hpl::perf::HwEvent::BusyNs);
    let wall = SimDuration::from_secs_f64(perf.elapsed_secs());
    let energy = energy_of_window(&node.topo, busy, wall);
    println!(
        "\n  energy {:.1} J, mean power {:.1} W, utilisation {:.1}%\n",
        energy.total_joules,
        energy.mean_watts,
        energy.utilisation * 100.0
    );
}

fn main() {
    std::fs::create_dir_all("target").ok();
    xray("standard Linux (CFS), 3x noise", "cfs", false);
    xray("HPL, 3x noise", "hpl", true);
    println!(
        "Under CFS the 'x' marks cut into rank lanes (daemon preemptions)\n\
         and rank digits hop between lanes (migrations). Under HPL each\n\
         rank owns its lane for the whole run. Load the .trace.json files\n\
         in chrome://tracing to scrub through the same story event by\n\
         event."
    );
}
