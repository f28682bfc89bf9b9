//! Property tests for the HPL scheduling class: the class-priority
//! guarantee and the placement invariants, for arbitrary task mixes.

use hpl_core::{hpl_fork_placement, HplClass};
use hpl_kernel::class::class_of_policy;
use hpl_kernel::program::ScriptProgram;
use hpl_kernel::{
    ClassKind, KernelConfig, NodeBuilder, Pid, Policy, Step, Task, TaskSpec, TaskState,
};
use hpl_sim::SimDuration;
use hpl_topology::{CpuMask, Topology};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SpecGen {
    policy_sel: u8,
    work_us: u64,
    sleep_us: u64,
}

fn spec_strategy() -> impl Strategy<Value = SpecGen> {
    (0u8..4, 50u64..5000, 0u64..2000).prop_map(|(policy_sel, work_us, sleep_us)| SpecGen {
        policy_sel,
        work_us,
        sleep_us,
    })
}

fn build_spec(g: &SpecGen, idx: usize) -> TaskSpec {
    let policy = match g.policy_sel {
        0 => Policy::Normal { nice: 0 },
        1 => Policy::Normal { nice: 10 },
        2 => Policy::Fifo(40),
        _ => Policy::Hpc,
    };
    let mut steps = Vec::new();
    if g.sleep_us > 0 {
        steps.push(Step::Sleep(SimDuration::from_micros(g.sleep_us)));
    }
    steps.push(Step::Compute(SimDuration::from_micros(g.work_us)));
    TaskSpec::new(format!("t{idx}"), policy, ScriptProgram::boxed("w", steps))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Class priority invariant: at every event of a random run, no CPU
    /// runs a CFS task while an HPC task waits runnable on that CPU.
    #[test]
    fn cfs_never_runs_over_runnable_hpc(specs in proptest::collection::vec(spec_strategy(), 2..10)) {
        let mut node = NodeBuilder::new(Topology::power6_js22())
            .with_config(KernelConfig::hpl())
            .with_hpc_class(Box::new(HplClass::new()))
            .with_seed(7)
            .build();
        let pids: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, g)| node.spawn(build_spec(g, i)))
            .collect();
        let mut budget = 300_000u32;
        while pids.iter().any(|&p| node.tasks.get(p).state != TaskState::Dead) {
            prop_assert!(node.step(), "queue drained early");
            budget -= 1;
            prop_assert!(budget > 0, "run did not converge");
            for cpu in node.topo.all_cpus().iter() {
                let Some(curr) = node.current(cpu) else { continue };
                let curr_kind = class_of_policy(node.tasks.get(curr).policy);
                if curr_kind == ClassKind::Fair {
                    let hpc_waiting = node.tasks.iter().any(|t| {
                        t.policy == Policy::Hpc
                            && t.state == TaskState::Runnable
                            && t.cpu == cpu
                    });
                    prop_assert!(
                        !hpc_waiting,
                        "CFS task running on {cpu} while HPC tasks wait"
                    );
                }
            }
        }
    }

    /// Fork placement always returns a CPU inside the affinity mask (or
    /// the task's own CPU when the mask excludes everything on the
    /// machine), for any load vector.
    #[test]
    fn placement_respects_affinity(
        affinity_bits in 0u64..256,
        loads in proptest::collection::vec(0u32..5, 8..=8)
    ) {
        let topo = Topology::power6_js22();
        let mask = CpuMask::from_bits(affinity_bits & 0xFF);
        let task = Task::new(Pid(0), "t", Policy::Hpc, mask);
        let got = hpl_fork_placement(&topo, &task, &loads);
        if mask.is_empty() {
            prop_assert_eq!(got, task.cpu);
        } else {
            prop_assert!(mask.contains(got), "{got} outside {mask}");
        }
    }

    /// Placement is "greedy balanced": the chosen CPU's core never holds
    /// strictly more HPC tasks than some other core (cores first, the
    /// paper's rule).
    #[test]
    fn placement_prefers_least_loaded_core(
        loads in proptest::collection::vec(0u32..4, 8..=8)
    ) {
        let topo = Topology::power6_js22();
        let task = Task::new(Pid(0), "t", Policy::Hpc, CpuMask::first_n(8));
        let got = hpl_fork_placement(&topo, &task, &loads);
        let core_load = |core: u32| -> u32 {
            loads[(core * 2) as usize] + loads[(core * 2 + 1) as usize]
        };
        let chosen = core_load(topo.core_of(got));
        for core in 0..4 {
            prop_assert!(
                chosen <= core_load(core),
                "chose core with load {chosen}, but core {core} has {}",
                core_load(core)
            );
        }
    }

    /// Filling an empty machine with N <= cores tasks uses distinct cores;
    /// with N <= cpus tasks, distinct CPUs — for any machine shape.
    #[test]
    fn placement_spreads_maximally(
        sockets in 1u32..4,
        cores in 1u32..4,
        threads in 1u32..3
    ) {
        let topo = Topology::new("prop", sockets, cores, threads, vec![]);
        let total = topo.total_cpus();
        let task = Task::new(Pid(0), "t", Policy::Hpc, topo.all_cpus());
        let mut loads = vec![0u32; total as usize];
        let mut cpus = Vec::new();
        for _ in 0..total {
            let cpu = hpl_fork_placement(&topo, &task, &loads);
            loads[cpu.index()] += 1;
            cpus.push(cpu);
        }
        // All CPUs distinct.
        let set: std::collections::HashSet<_> = cpus.iter().collect();
        prop_assert_eq!(set.len(), total as usize);
        // The first `total_cores` placements hit distinct cores.
        let first_cores: std::collections::HashSet<_> = cpus
            .iter()
            .take(topo.total_cores() as usize)
            .map(|&c| topo.core_of(c))
            .collect();
        prop_assert_eq!(first_cores.len(), topo.total_cores() as usize);
    }

    /// Round-robin fairness within the class: two equal HPC tasks pinned
    /// to one CPU split it within one RR timeslice of each other.
    #[test]
    fn round_robin_is_fair(work_ms in 150u64..400) {
        let mut node = NodeBuilder::new(Topology::power6_js22())
            .with_config(KernelConfig::hpl())
            .with_hpc_class(Box::new(HplClass::new()))
            .with_seed(3)
            .build();
        let pin = CpuMask::single(hpl_topology::CpuId(0));
        let mk = |name: &str| {
            TaskSpec::new(
                name,
                Policy::Hpc,
                ScriptProgram::boxed(
                    "w",
                    vec![Step::Compute(SimDuration::from_millis(work_ms))],
                ),
            )
            .with_affinity(pin)
        };
        let a = node.spawn(mk("a"));
        let b = node.spawn(mk("b"));
        node.run_for(SimDuration::from_millis(work_ms));
        let ra = node.tasks.get(a).total_runtime.as_secs_f64();
        let rb = node.tasks.get(b).total_runtime.as_secs_f64();
        let slice = HplClass::RR_TIMESLICE.as_secs_f64();
        prop_assert!(
            (ra - rb).abs() <= slice + 1e-6,
            "round-robin imbalance: {ra} vs {rb}"
        );
        assert!(node.run_until_exit(a, 2_000_000_000).is_complete());
        assert!(node.run_until_exit(b, 2_000_000_000).is_complete());
    }
}
