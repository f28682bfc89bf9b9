//! Integration: the trace/analysis pipeline against a live node — the
//! §III methodology (attribute slowdown to preemption episodes) must
//! agree with the counter subsystem it complements.

use hpl_kernel::analysis::TraceAnalysis;
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::program::ScriptProgram;
use hpl_kernel::{NodeBuilder, Policy, Step, TaskSpec};
use hpl_perf::SwEvent;
use hpl_sim::{SimDuration, SimTime};
use hpl_topology::{CpuMask, Topology};

#[test]
fn analysis_agrees_with_counters_on_a_noisy_run() {
    let mut node = NodeBuilder::new(Topology::power6_js22())
        .with_noise(NoiseProfile::standard(8))
        .with_seed(17)
        .build();
    node.enable_trace(1_000_000);
    let start = node.now();
    // Eight busy tasks so daemons must preempt to run.
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
    let end = node.now();

    let trace = node.trace().expect("tracing enabled");
    assert_eq!(trace.dropped(), 0, "buffer sized for the run");
    let analysis = TraceAnalysis::analyse(trace.events(), 8, start, end);

    // Preemptions happened (daemons vs busy tasks) and their count is
    // bounded by the kernel's own involuntary-switch counter.
    let invol = node.counters.total().sw(SwEvent::InvoluntaryPreemptions) as usize;
    assert!(
        !analysis.preemptions.is_empty(),
        "a noisy run must show preemption episodes"
    );
    assert!(
        analysis.preemptions.len() <= invol + pids.len(),
        "episodes {} vs involuntary switches {invol}",
        analysis.preemptions.len()
    );

    // Stolen time is positive but far below the window length.
    let stolen = analysis.total_stolen_from(&pids);
    assert!(stolen > SimDuration::ZERO);
    assert!(stolen < end.since(start) * 8);

    // Residency bookkeeping: total running time across tasks cannot
    // exceed window x CPUs, and each busy task's residency roughly
    // matches its measured runtime.
    let total_running: f64 = analysis
        .residency
        .iter()
        .map(|r| r.running.as_secs_f64())
        .sum();
    assert!(total_running <= end.since(start).as_secs_f64() * 8.0 + 1e-6);
    for &p in &pids {
        let res = analysis
            .residency
            .iter()
            .find(|r| r.pid == p)
            .expect("busy task ran");
        let runtime = node.tasks.get(p).total_runtime.as_secs_f64();
        let diff = (res.running.as_secs_f64() - runtime).abs();
        assert!(
            diff < 0.02 * runtime.max(0.01),
            "{p:?}: residency {} vs runtime {runtime}",
            res.running.as_secs_f64()
        );
    }

    // Migration counts per task agree with the task's own counter.
    for (pid, &count) in &analysis.migrations {
        // Boot-time placements happen before tracing window's start for
        // daemons, so the trace count is a lower bound.
        assert!(
            (count as u64) <= node.tasks.get(*pid).nr_migrations,
            "{pid:?}"
        );
    }
}

#[test]
fn quiet_hpl_style_run_shows_no_preemption_of_the_app() {
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
    let analysis = TraceAnalysis::analyse(
        node.trace().unwrap().events(),
        8,
        start,
        node.now() + SimDuration::from_nanos(1),
    );
    assert_eq!(analysis.preemptions_of(pid).count(), 0);
    assert_eq!(analysis.total_stolen_from(&[pid]), SimDuration::ZERO);
    let _ = SimTime::ZERO;
}
