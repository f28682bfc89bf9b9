//! The simulated speed does not depend on how often a CPU is settled.
//!
//! ep.A.8 under the HPL class on a quiet POWER6 node (no daemons, every
//! hardware thread running a rank): ticking, each CPU meets a tick every
//! millisecond; under `tickless_single_hpc` a rank's ticks are free and
//! its CPU settles only at its own events. Cache warmth follows the
//! core's occupancy in closed form whichever way the CPUs settle, so the
//! two runs may differ by no more than the ticks' own cost
//! (`TICK_COST / TICK_PERIOD` = 0.3 %) plus 0.5 %. A warmth model that
//! advanced per settle instead made the tickless run about 20 % faster.

use hpl_core::HplClass;
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_mpi::{launch, SchedMode};
use hpl_topology::Topology;
use hpl_workloads::{nas_job, NasBenchmark, NasClass};

/// Tick overhead (3 µs per 1 ms tick) plus half a percent.
const BOUND: f64 = 0.003 + 0.005;

/// Execution time of ep.A.8 in seconds.
fn ep_a(tickless: bool, seed: u64) -> f64 {
    let cfg = KernelConfig {
        tickless_single_hpc: tickless,
        ..KernelConfig::hpl()
    };
    let mut node = NodeBuilder::new(Topology::power6_js22())
        .with_config(cfg)
        .with_hpc_class(Box::new(HplClass::new()))
        .with_noise(NoiseProfile::quiet())
        .with_seed(seed)
        .build();
    let job = nas_job(NasBenchmark::Ep, NasClass::A, 8);
    launch(&mut node, &job, SchedMode::Hpc)
        .run_to_completion(&mut node, 50_000_000)
        .as_secs_f64()
}

#[test]
fn ep_a_runs_as_fast_ticking_as_tickless() {
    for seed in [1, 2] {
        let (ticking, tickless) = (ep_a(false, seed), ep_a(true, seed));
        let gap = (ticking - tickless) / tickless;
        println!(
            "seed {seed}: ticking {ticking:.6} s, tickless {tickless:.6} s, gap {:+.3} %",
            gap * 100.0
        );
        assert!(
            gap.abs() <= BOUND,
            "seed {seed}: ticking {ticking} s vs tickless {tickless} s ({:+.2} %)",
            gap * 100.0
        );
    }
}

/// Exit time in seconds of a rank that computes 200 ms on CPU 0 of a
/// quiet POWER6 node while its SMT sibling, CPU 1, runs a short job in
/// bursts that start and end between ticks.
fn rank_beside_bursts(tickless: bool, seed: u64) -> f64 {
    use hpl_kernel::program::ScriptProgram;
    use hpl_kernel::{Policy, Step, TaskSpec};
    use hpl_sim::SimDuration;
    use hpl_topology::{CpuId, CpuMask};
    let cfg = KernelConfig {
        tickless_single_hpc: tickless,
        ..KernelConfig::hpl()
    };
    let mut node = NodeBuilder::new(Topology::power6_js22())
        .with_config(cfg)
        .with_hpc_class(Box::new(HplClass::new()))
        .with_noise(NoiseProfile::quiet())
        .with_seed(seed)
        .build();
    let task = |name: &str, cpu: u32, steps: Vec<Step>| {
        TaskSpec::new(name, Policy::Hpc, ScriptProgram::boxed(name, steps))
            .with_affinity(CpuMask::single(CpuId(cpu)))
    };
    let us = SimDuration::from_micros;
    let rank = node.spawn(task("rank", 0, vec![Step::Compute(us(200_000))]));
    let mut bursts = Vec::new();
    for k in 0..5 {
        bursts.push(Step::Sleep(us(17_300 + 1_100 * k)));
        bursts.push(Step::Compute(us(9_700 + 700 * k)));
    }
    node.spawn(task("bursts", 1, bursts));
    let start = node.now();
    assert!(node.run_until_exit(rank, 50_000_000).is_complete());
    node.now().since(start).as_secs_f64()
}

/// A sibling that changes occupancy between the rank's own settles: the
/// SMT factor switches at the rank's settles, which ticking places every
/// millisecond and tickless only at the sibling's changes, so this is
/// where the remaining dependence on the settle schedule would show
/// (ROADMAP item 17). It measures +0.19 %, below the ticks' own cost;
/// the runs are held to the same bound as ep.A.8.
#[test]
fn rank_beside_sibling_bursts_runs_as_fast_ticking_as_tickless() {
    for seed in [1, 2] {
        let (ticking, tickless) = (
            rank_beside_bursts(false, seed),
            rank_beside_bursts(true, seed),
        );
        let gap = (ticking - tickless) / tickless;
        println!(
            "seed {seed}: ticking {ticking:.6} s, tickless {tickless:.6} s, gap {:+.3} %",
            gap * 100.0
        );
        assert!(
            gap.abs() <= BOUND,
            "seed {seed}: ticking {ticking} s vs tickless {tickless} s ({:+.2} %)",
            gap * 100.0
        );
    }
}
