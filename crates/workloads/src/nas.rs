//! NAS Parallel Benchmark models.
//!
//! Each benchmark is modelled by its synchronisation structure (what the
//! scheduler interacts with), with per-rank compute calibrated from the
//! paper's Table II **HPL minimum** column — the cleanest observed run on
//! the real machine. Calibration accounts for the SMT-contended steady
//! state of an 8-rank run on 8 hardware threads (per-thread throughput
//! `hpl_kernel::cache::SMT_BUSY_FACTOR`) and subtracts the analytic
//! message costs of the communication pattern, so simulated clean runs
//! land on the paper's times by construction and every *other* number
//! (variance, counter distributions, standard-Linux slowdowns) is
//! emergent.

use hpl_mpi::{JobSpec, MpiOp, MSG_ALPHA, MSG_BETA_NS_PER_BYTE};
use hpl_sim::SimDuration;

/// The six NAS benchmarks the paper reports (bt/sp need square rank
/// counts and are omitted by the paper for 8 ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasBenchmark {
    /// Conjugate gradient: fine-grained allreduces + halo exchanges.
    Cg,
    /// Embarrassingly parallel: pure compute, a few closing reductions.
    Ep,
    /// 3-D FFT: few iterations, transpose alltoalls dominate.
    Ft,
    /// Integer sort: bucketed alltoall + allreduce per iteration.
    Is,
    /// LU solver: many timesteps of ring neighbour exchanges.
    Lu,
    /// Multigrid: V-cycle sweeps with boundary exchanges + allreduce.
    Mg,
}

/// NAS problem classes the paper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasClass {
    /// Small data set (chosen by the paper to make OS noise visible).
    A,
    /// Medium data set.
    B,
}

impl NasBenchmark {
    /// All benchmarks in the paper's table order.
    pub const ALL: [NasBenchmark; 6] = [
        NasBenchmark::Cg,
        NasBenchmark::Ep,
        NasBenchmark::Ft,
        NasBenchmark::Is,
        NasBenchmark::Lu,
        NasBenchmark::Mg,
    ];

    /// Lower-case name as in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            NasBenchmark::Cg => "cg",
            NasBenchmark::Ep => "ep",
            NasBenchmark::Ft => "ft",
            NasBenchmark::Is => "is",
            NasBenchmark::Lu => "lu",
            NasBenchmark::Mg => "mg",
        }
    }
}

impl NasClass {
    /// Both classes.
    pub const ALL: [NasClass; 2] = [NasClass::A, NasClass::B];

    /// Class letter.
    pub fn name(self) -> &'static str {
        match self {
            NasClass::A => "A",
            NasClass::B => "B",
        }
    }
}

/// Structural parameters of one benchmark configuration.
struct Shape {
    /// Paper's HPL minimum execution time (s) — the calibration target.
    target_secs: f64,
    /// Number of iterations (synchronisation periods).
    iters: u32,
    /// Communication ops per iteration (costs subtracted from compute).
    comm: &'static [MpiOp],
    /// Trailing ops after the iteration loop (e.g. ep's final reductions).
    tail: &'static [MpiOp],
}

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

fn shape(bench: NasBenchmark, class: NasClass) -> Shape {
    use MpiOp::*;
    match (bench, class) {
        // cg: 75 solver iterations; two dot-product allreduces and a
        // sparse halo exchange per iteration.
        (NasBenchmark::Cg, NasClass::A) => Shape {
            target_secs: 0.68,
            iters: 75,
            comm: &[
                Allreduce { bytes: 8 },
                Allreduce { bytes: 8 },
                NeighborExchange { bytes: 110 * KB },
            ],
            tail: &[],
        },
        (NasBenchmark::Cg, NasClass::B) => Shape {
            target_secs: 36.96,
            iters: 75,
            comm: &[
                Allreduce { bytes: 8 },
                Allreduce { bytes: 8 },
                NeighborExchange { bytes: 380 * KB },
            ],
            tail: &[],
        },
        // ep: chunked local computation, three closing statistics
        // reductions, no communication in between.
        (NasBenchmark::Ep, NasClass::A) => Shape {
            target_secs: 8.54,
            iters: 16,
            comm: &[],
            tail: &[
                Allreduce { bytes: 8 },
                Allreduce { bytes: 8 },
                Allreduce { bytes: 80 },
            ],
        },
        (NasBenchmark::Ep, NasClass::B) => Shape {
            target_secs: 34.14,
            iters: 16,
            comm: &[],
            tail: &[
                Allreduce { bytes: 8 },
                Allreduce { bytes: 8 },
                Allreduce { bytes: 80 },
            ],
        },
        // ft: 6 FFT timesteps, transpose alltoall each, plus checksum
        // allreduce.
        (NasBenchmark::Ft, NasClass::A) => Shape {
            target_secs: 2.05,
            iters: 6,
            comm: &[Alltoall { bytes: 2 * MB }, Allreduce { bytes: 16 }],
            tail: &[],
        },
        (NasBenchmark::Ft, NasClass::B) => Shape {
            target_secs: 22.58,
            iters: 20,
            comm: &[Alltoall { bytes: 5 * MB }, Allreduce { bytes: 16 }],
            tail: &[],
        },
        // is: 10 ranking iterations: key histogram allreduce + bucket
        // alltoall.
        (NasBenchmark::Is, NasClass::A) => Shape {
            target_secs: 0.35,
            iters: 10,
            comm: &[Allreduce { bytes: 4 * KB }, Alltoall { bytes: 512 * KB }],
            tail: &[],
        },
        (NasBenchmark::Is, NasClass::B) => Shape {
            target_secs: 1.82,
            iters: 10,
            comm: &[Allreduce { bytes: 4 * KB }, Alltoall { bytes: 2 * MB }],
            tail: &[],
        },
        // lu: 250 SSOR timesteps with ring neighbour exchanges.
        (NasBenchmark::Lu, NasClass::A) => Shape {
            target_secs: 17.71,
            iters: 250,
            comm: &[
                NeighborExchange { bytes: 40 * KB },
                NeighborExchange { bytes: 40 * KB },
            ],
            tail: &[Allreduce { bytes: 40 }],
        },
        (NasBenchmark::Lu, NasClass::B) => Shape {
            target_secs: 71.81,
            iters: 250,
            comm: &[
                NeighborExchange { bytes: 100 * KB },
                NeighborExchange { bytes: 100 * KB },
            ],
            tail: &[Allreduce { bytes: 40 }],
        },
        // mg: V-cycle sweeps: boundary exchanges at several levels plus a
        // norm allreduce per cycle.
        (NasBenchmark::Mg, NasClass::A) => Shape {
            target_secs: 0.96,
            iters: 16,
            comm: &[
                NeighborExchange { bytes: 130 * KB },
                NeighborExchange { bytes: 32 * KB },
                Allreduce { bytes: 8 },
            ],
            tail: &[],
        },
        (NasBenchmark::Mg, NasClass::B) => Shape {
            target_secs: 4.48,
            iters: 20,
            comm: &[
                NeighborExchange { bytes: 300 * KB },
                NeighborExchange { bytes: 72 * KB },
                Allreduce { bytes: 8 },
            ],
            tail: &[],
        },
    }
}

/// Analytic full-speed cost the runtime will charge for one op's message
/// processing: `RankProgram`'s LogP accounting over the same constants.
fn msg_cost(op: &MpiOp, nprocs: u32) -> f64 {
    let p = nprocs as f64;
    let alpha = MSG_ALPHA.as_secs_f64();
    let beta = MSG_BETA_NS_PER_BYTE * 1e-9;
    match op {
        MpiOp::Compute { .. } => 0.0,
        MpiOp::Barrier => p.max(2.0).log2().ceil() * alpha,
        MpiOp::Allreduce { bytes } => p.max(2.0).log2().ceil() * (alpha + beta * *bytes as f64),
        MpiOp::Alltoall { bytes } => (p - 1.0) * (alpha + beta * *bytes as f64),
        MpiOp::NeighborExchange { bytes } => 2.0 * (alpha + beta * *bytes as f64),
        MpiOp::Bcast { bytes } | MpiOp::Reduce { bytes } => {
            p.max(2.0).log2().ceil() * (alpha + beta * *bytes as f64)
        }
        // Quiesce (barrier-shaped sync phase) plus the local write; the
        // commit barrier is node-local and costs no fabric messages.
        MpiOp::Checkpoint { cost } => p.max(2.0).log2().ceil() * alpha + cost.as_secs_f64(),
    }
}

/// The SMT-contended per-thread throughput used for calibration: with 8
/// ranks on 8 hardware threads every sibling pair is busy and each
/// sibling's working set continuously evicts the other's, so a rank's
/// wall time ≈ work / steady_state_factor. Computed from the speed
/// model's own constants.
pub fn calibration_thread_factor() -> f64 {
    hpl_kernel::cache::smt_steady_state_thread_factor()
}

/// Build the MPI job for a NAS benchmark configuration.
///
/// `nprocs` is 8 in the paper; other counts scale the per-rank work so
/// total work stays constant (strong scaling), which the scaling-study
/// extension uses.
pub fn nas_job(bench: NasBenchmark, class: NasClass, nprocs: u32) -> JobSpec {
    assert!(nprocs > 0);
    let s = shape(bench, class);

    // Work the calibration target implies, at reference 8 ranks. The
    // measured execution time includes a roughly fixed launch cost
    // (rank forks, MPI_Init connection rounds, finalize) that is wall
    // time, not SMT-scaled work; subtract it before converting.
    const LAUNCH_OVERHEAD_SECS: f64 = 0.025;
    let total_work = (s.target_secs - LAUNCH_OVERHEAD_SECS).max(0.01) * calibration_thread_factor();
    let comm_per_iter: f64 = s.comm.iter().map(|op| msg_cost(op, 8)).sum();
    let tail_cost: f64 = s.tail.iter().map(|op| msg_cost(op, 8)).sum();
    let compute_total = (total_work - comm_per_iter * s.iters as f64 - tail_cost).max(0.01);
    // Strong scaling: per-rank compute shrinks with more ranks.
    let compute_per_iter = compute_total / s.iters as f64 * (8.0 / nprocs as f64);

    let mut body = vec![MpiOp::Compute {
        mean: SimDuration::from_secs_f64(compute_per_iter),
    }];
    body.extend_from_slice(s.comm);
    let mut ops = JobSpec::repeat(s.iters, &body);
    ops.extend_from_slice(s.tail);
    JobSpec::new(nprocs, ops)
}

/// Paper Table II HPL-minimum execution time for a configuration
/// (seconds) — the calibration target, exposed for experiment reports.
pub fn paper_hpl_min_secs(bench: NasBenchmark, class: NasClass) -> f64 {
    shape(bench, class).target_secs
}

/// All twelve `(benchmark, class)` configurations in table order.
pub fn all_configs() -> Vec<(NasBenchmark, NasClass)> {
    let mut v = Vec::new();
    for b in NasBenchmark::ALL {
        for c in NasClass::ALL {
            v.push((b, c));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_configurations() {
        assert_eq!(all_configs().len(), 12);
    }

    #[test]
    fn job_has_expected_iteration_count() {
        let job = nas_job(NasBenchmark::Cg, NasClass::A, 8);
        let barrier_like = job
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    MpiOp::Allreduce { .. } | MpiOp::Barrier | MpiOp::Alltoall { .. }
                )
            })
            .count();
        // cg: 2 allreduces per iteration x 75.
        assert_eq!(barrier_like, 150);
    }

    #[test]
    fn ep_has_no_communication_in_loop() {
        let job = nas_job(NasBenchmark::Ep, NasClass::A, 8);
        let comm_ops = job
            .ops
            .iter()
            .filter(|op| !matches!(op, MpiOp::Compute { .. }))
            .count();
        // Only the three tail reductions.
        assert_eq!(comm_ops, 3);
    }

    #[test]
    fn calibration_total_work_matches_target() {
        for (b, c) in all_configs() {
            let job = nas_job(b, c, 8);
            let compute = job.total_compute().as_secs_f64();
            let comm: f64 = job.ops.iter().map(|op| msg_cost(op, 8)).sum();
            // Matches nas_job's arithmetic: paper time minus the fixed
            // launch overhead, converted at the steady-state factor.
            let target = (paper_hpl_min_secs(b, c) - 0.025) * calibration_thread_factor();
            let total = compute + comm;
            let err = (total - target).abs() / target;
            assert!(
                err < 0.02,
                "{}.{}: total work {total:.3}s vs target {target:.3}s",
                b.name(),
                c.name()
            );
        }
    }

    #[test]
    fn class_b_is_bigger_than_class_a() {
        for b in NasBenchmark::ALL {
            let a = nas_job(b, NasClass::A, 8).total_compute();
            let bb = nas_job(b, NasClass::B, 8).total_compute();
            assert!(bb > a, "{}: B ({bb}) should exceed A ({a})", b.name());
        }
    }

    #[test]
    fn strong_scaling_reduces_per_rank_work() {
        let w8 = nas_job(NasBenchmark::Ep, NasClass::A, 8).total_compute();
        let w16 = nas_job(NasBenchmark::Ep, NasClass::A, 16).total_compute();
        let ratio = w8.as_secs_f64() / w16.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(NasBenchmark::Cg.name(), "cg");
        assert_eq!(NasClass::B.name(), "B");
    }

    #[test]
    fn sync_granularity_ordering() {
        // cg synchronises far more often than ep for similar runtimes:
        // the per-segment compute is much smaller.
        let cg = nas_job(NasBenchmark::Cg, NasClass::A, 8);
        let ep = nas_job(NasBenchmark::Ep, NasClass::A, 8);
        let seg = |j: &JobSpec| {
            let computes: Vec<f64> = j
                .ops
                .iter()
                .filter_map(|op| match op {
                    MpiOp::Compute { mean } => Some(mean.as_secs_f64()),
                    _ => None,
                })
                .collect();
            computes.iter().sum::<f64>() / computes.len() as f64
        };
        assert!(seg(&cg) < seg(&ep) / 10.0);
    }
}
