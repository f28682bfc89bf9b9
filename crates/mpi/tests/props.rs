//! Property tests for the MPI runtime: any random job completes under
//! every scheduler mode, and communication bookkeeping balances.

use hpl_core::hpl_node_builder;
use hpl_kernel::cache::{CACHE_COLD_FACTOR, SMT_BUSY_FACTOR};
use hpl_kernel::{NodeBuilder, TaskState};
use hpl_mpi::{launch, JobSpec, MpiOp, SchedMode};
use hpl_sim::SimDuration;
use hpl_topology::Topology;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum OpGen {
    Compute(u64),
    Barrier,
    Allreduce(u64),
    Alltoall(u64),
    Exchange(u64),
}

fn op_strategy() -> impl Strategy<Value = OpGen> {
    prop_oneof![
        (50u64..3000).prop_map(OpGen::Compute),
        Just(OpGen::Barrier),
        (0u64..4096).prop_map(OpGen::Allreduce),
        (0u64..4096).prop_map(OpGen::Alltoall),
        (0u64..4096).prop_map(OpGen::Exchange),
    ]
}

fn to_job(ops: &[OpGen], nprocs: u32) -> JobSpec {
    let ops = ops
        .iter()
        .map(|o| match *o {
            OpGen::Compute(us) => MpiOp::Compute {
                mean: SimDuration::from_micros(us),
            },
            OpGen::Barrier => MpiOp::Barrier,
            OpGen::Allreduce(b) => MpiOp::Allreduce { bytes: b },
            OpGen::Alltoall(b) => MpiOp::Alltoall { bytes: b },
            OpGen::Exchange(b) => MpiOp::NeighborExchange { bytes: b },
        })
        .collect();
    JobSpec::new(nprocs, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any random op sequence completes (no deadlock) under CFS, RT,
    /// pinned and HPL modes, with every rank exiting and all tokens
    /// balanced (no channel left with waiters).
    #[test]
    fn any_job_completes_under_every_mode(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        nprocs in 1u32..9
    ) {
        let job = to_job(&ops, nprocs);
        for mode in [
            SchedMode::Cfs,
            SchedMode::Rt { prio: 50 },
            SchedMode::CfsPinned,
            SchedMode::Hpc,
        ] {
            let mut node = if mode == SchedMode::Hpc {
                hpl_node_builder(Topology::power6_js22()).with_seed(5).build()
            } else {
                NodeBuilder::new(Topology::power6_js22()).with_seed(5).build()
            };
            let handle = launch(&mut node, &job, mode);
            let exec = handle.run_to_completion(&mut node, 2_000_000_000);
            prop_assert!(exec > SimDuration::ZERO);
            let ranks: Vec<_> = node
                .tasks
                .iter()
                .filter(|t| t.name.starts_with("rank"))
                .collect();
            prop_assert_eq!(ranks.len(), nprocs as usize);
            for r in &ranks {
                prop_assert_eq!(r.state, TaskState::Dead, "{} stuck under {:?}", r.name.clone(), mode);
            }
            // No channel still has waiters (all sends matched receives).
            for s in 0..nprocs {
                for d in 0..nprocs {
                    prop_assert_eq!(node.sync.chan_waiters(job.chan_id(s, d)), 0);
                }
            }
        }
    }

    /// Execution time grows monotonically-ish with compute: doubling
    /// every compute op cannot make the clean-machine job faster.
    #[test]
    fn more_compute_never_faster(
        ops in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        let job1 = to_job(&ops, 4);
        let doubled: Vec<OpGen> = ops
            .iter()
            .map(|o| match *o {
                OpGen::Compute(us) => OpGen::Compute(us * 2),
                ref other => other.clone(),
            })
            .collect();
        let job2 = to_job(&doubled, 4);
        let run = |job: &JobSpec| {
            let mut node = NodeBuilder::new(Topology::power6_js22()).with_seed(9).build();
            let handle = launch(&mut node, job, SchedMode::Cfs);
            handle.run_to_completion(&mut node, 2_000_000_000)
        };
        let t1 = run(&job1);
        let t2 = run(&job2);
        // Allow sub-millisecond scheduling slack.
        prop_assert!(
            t2 + SimDuration::from_millis(1) >= t1,
            "doubling compute made it faster: {t1} -> {t2}"
        );
    }

    /// The exec time of a pure-compute job on a quiet machine is within
    /// the analytic envelope: at least `work` (full speed), at most
    /// `work / (smt_factor * cold_factor)` plus launch overhead.
    #[test]
    fn clean_machine_time_within_model_envelope(work_ms in 5u64..40) {
        let job = to_job(&[OpGen::Compute(work_ms * 1000)], 8);
        let mut node = NodeBuilder::new(Topology::power6_js22()).with_seed(3).build();
        let handle = launch(&mut node, &job, SchedMode::Cfs);
        let exec = handle.run_to_completion(&mut node, 2_000_000_000).as_secs_f64();
        let work = work_ms as f64 / 1000.0;
        let floor = work; // full speed
        let ceil = work / (SMT_BUSY_FACTOR * CACHE_COLD_FACTOR) + 0.12; // worst case + launch
        prop_assert!(exec >= floor, "{exec} < {floor}");
        prop_assert!(exec <= ceil, "{exec} > {ceil}");
    }
}
