//! The observability contract: attaching observers never changes what
//! the kernel does, and what the observers report agrees with itself.
//!
//! Two halves:
//!
//! 1. **Differential**: a run with the full sink stack attached produces
//!    the *same* execution time, counters, and post-run state
//!    fingerprint as a run with no observers, on both the fast and the
//!    reference event loop. Observers are pure sinks — this is the
//!    "zero perturbation" half of the zero-cost claim.
//! 2. **Consistency**: the ring's event counts match the metrics
//!    registry, and the Chrome-trace export rendered from the ring
//!    parses as valid trace JSON with one slice per switch onto a task
//!    and one instant per migration or wakeup, so the sinks and the
//!    export tell one coherent story.

use hpl::prelude::*;

fn job() -> JobSpec {
    JobSpec::new(
        8,
        JobSpec::repeat(
            4,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(4),
                },
                MpiOp::Barrier,
            ],
        ),
    )
}

/// Everything observable about one measured run: exec time, the counter
/// deltas the study reports, and the full post-run state fingerprint.
type Observation = (u64, u64, u64, u64, u64);

/// Run one measured job, optionally with the full observer stack
/// (ring + metrics registry) attached from boot.
fn run(hpc: bool, fast: bool, observed: bool, seed: u64) -> Observation {
    let mut kc = if hpc {
        KernelConfig::hpl()
    } else {
        KernelConfig::default()
    };
    kc.fast_event_loop = fast;
    let mut builder = NodeBuilder::new(Topology::power6_js22())
        .with_config(kc)
        .with_noise(NoiseProfile::standard(8))
        .with_seed(seed);
    if hpc {
        builder = builder.with_hpc_class(Box::new(HplClass::new()));
    }
    let mut node = builder.build();
    if observed {
        node.enable_trace(200_000);
        node.attach_observer(Box::new(MetricsSink::new()));
    }
    node.run_for(SimDuration::from_millis(300));
    let mut perf = PerfSession::open(&node.counters, node.now());
    let mode = if hpc { SchedMode::Hpc } else { SchedMode::Cfs };
    let handle = launch(&mut node, &job(), mode);
    let exec = handle.run_to_completion(&mut node, 2_000_000_000);
    perf.close(&node.counters, node.now());
    let d = perf.delta();
    (
        exec.as_nanos(),
        d.sw(SwEvent::ContextSwitches),
        d.sw(SwEvent::CpuMigrations),
        d.sw(SwEvent::TimerTicks),
        node.state_fingerprint(),
    )
}

#[test]
fn observers_do_not_perturb_the_simulation() {
    for hpc in [false, true] {
        for fast in [false, true] {
            for seed in [7u64, 1234] {
                let plain = run(hpc, fast, false, seed);
                let observed = run(hpc, fast, true, seed);
                assert_eq!(
                    plain, observed,
                    "hpc={hpc} fast={fast} seed={seed}: observers perturbed the run"
                );
            }
        }
    }
}

#[test]
fn sinks_agree_with_each_other_and_the_export_is_valid() {
    let mut node = NodeBuilder::new(Topology::power6_js22())
        .with_noise(NoiseProfile::standard(8))
        .with_seed(42)
        .build();
    node.enable_trace(200_000);
    let metrics_id = node.attach_observer(Box::new(MetricsSink::new()));
    node.run_for(SimDuration::from_millis(200));
    let handle = launch(&mut node, &job(), SchedMode::Cfs);
    assert!(handle
        .try_run_to_completion(&mut node, 2_000_000_000)
        .is_ok());

    let m = node
        .observer::<MetricsSink>(metrics_id)
        .unwrap()
        .metrics()
        .clone();
    // The ring keeps every event, so its per-variant counts are the
    // metrics registry's decision counters.
    let ring = node.trace().unwrap();
    assert_eq!(ring.dropped(), 0, "capacity was sized for the run");
    let count =
        |is: fn(&SchedEvent) -> bool| ring.events().iter().filter(|(_, ev)| is(ev)).count() as u64;
    assert_eq!(count(|e| matches!(e, SchedEvent::Pick { .. })), m.picks);
    assert_eq!(
        count(|e| matches!(e, SchedEvent::PreemptCheck { .. })),
        m.preempt_checks
    );
    assert_eq!(count(|e| matches!(e, SchedEvent::Wakeup { .. })), m.wakeups);
    assert_eq!(
        count(|e| matches!(e, SchedEvent::NoiseArrival { .. })),
        m.noise_arrivals
    );
    assert_eq!(
        count(|e| matches!(e, SchedEvent::ForkPlaced { .. })),
        m.forks
    );
    assert_eq!(
        count(|e| matches!(e, SchedEvent::Migrate { .. })),
        m.migrations
    );
    assert_eq!(
        count(|e| matches!(e, SchedEvent::Switch { .. })),
        m.switches
    );
    assert_eq!(count(|e| matches!(e, SchedEvent::Tick { .. })), m.ticks);
    assert!(m.picks > 0 && m.preempt_checks > 0 && m.noise_arrivals > 0);
    assert!(m.forks > 0 && m.ticks > 0);

    // The export parses as Chrome trace JSON: one slice per switch onto
    // a task (still-open ones are closed at export time), and the
    // instant events (migrations + wakeups) survive exactly.
    let json = node.export_chrome_trace().unwrap();
    let stats = validate_chrome_trace(&json).expect("export must be valid trace JSON");
    assert_eq!(
        stats.instant_events as u64,
        m.migrations + m.wakeups,
        "instant events lost in export"
    );
    assert_eq!(
        stats.complete_events as u64,
        count(|e| matches!(e, SchedEvent::Switch { to: Some(_), .. }))
    );
    assert!(stats.complete_events > 0, "a real run produces slices");
    assert!(json.ends_with("\"dropped\":0}}"));

    // The metrics registry is internally consistent too.
    assert_eq!(m.per_cpu_switches.iter().sum::<u64>(), m.switches);
    assert!(m.picks >= m.switches, "every switch came from a pick");
    assert!(m.timeslice_ns.count() > 0);
    assert!(m.timeslice_ns.count() <= m.switches);
}

#[test]
fn metrics_registry_counts_decisions() {
    // A noisy multi-job run exercises every decision point at least once
    // (except RT push, which needs an overloaded RT setup).
    let mut node = NodeBuilder::new(Topology::power6_js22())
        .with_noise(NoiseProfile::standard(8))
        .with_seed(9)
        .build();
    let metrics_id = node.attach_observer(Box::new(MetricsSink::new()));
    node.run_for(SimDuration::from_millis(100));
    let handle = launch(&mut node, &job(), SchedMode::Cfs);
    assert!(node
        .run_until_exit(handle.perf_pid, 2_000_000_000)
        .is_complete());
    let m = node.observer::<MetricsSink>(metrics_id).unwrap().metrics();
    assert!(m.switches > 0);
    assert!(m.wakeups > 0);
    assert!(m.forks > 0);
    assert!(m.preempt_checks > 0);
    assert!(m.ticks > 0);
    assert!(m.noise_arrivals > 0, "standard noise profile has daemons");
    assert!(m.idle_balance_calls + m.periodic_balance_calls > 0);
    assert!(m.timeslice_ns.count() > 0);
}
