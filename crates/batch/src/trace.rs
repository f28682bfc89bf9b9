//! Workload traces feeding the batch queue.
//!
//! A [`BatchTrace`] is an ordered stream of [`BatchJob`] submissions —
//! each a bulk-synchronous MPI job (compute + Allreduce iterations, the
//! paper's canonical workload shape) with an arrival offset, a node
//! request and a user runtime estimate (the input EASY backfilling
//! reasons about). Traces come from two sources:
//!
//! * [`BatchTrace::synthetic`] — a seeded arrival process (exponential
//!   inter-arrival times, mixed job widths) driven by the `hpl-sim`
//!   [`Rng`], so every trace is replayable from `(seed, n, nodes)`;
//! * Standard Workload Format logs, mapped by
//!   [`crate::SwfTrace::to_batch`].

use hpl_sim::{Rng, SimDuration};

/// One job submission in a batch trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchJob {
    /// Trace-unique id (also the `job` field of the published
    /// `JobSubmit`/`JobStart`/`JobEnd` observer events).
    pub id: u32,
    /// Arrival offset from the batch epoch (engine start), ns.
    pub submit_ns: u64,
    /// Nodes requested (dedicated under FCFS/EASY; a slot under the
    /// oversubscribed policy).
    pub nodes: u32,
    /// MPI ranks per node.
    pub ranks_per_node: u32,
    /// Bulk-synchronous iterations (compute + Allreduce each).
    pub iters: u32,
    /// Mean compute per iteration per rank, ns.
    pub compute_ns: u64,
    /// Allreduce payload, bytes.
    pub bytes: u64,
    /// User-supplied runtime estimate, ns — what EASY's reservation
    /// arithmetic believes. Overestimates are safe (the head job's
    /// promise holds); underestimates can delay the head, exactly as on
    /// a real machine. Under walltime enforcement this is also the
    /// job's limit: the engine kills the job when it outlives the
    /// estimate (plus the configured grace).
    pub est_runtime_ns: u64,
    /// Submitting user (fair-share accounting key; SWF field 12).
    /// `0` is a fine default for single-user traces.
    pub user: u32,
    /// Priority class for multi-queue policies (0 = highest; SWF queue
    /// number, field 15). Policies that don't discriminate ignore it.
    pub class: u32,
}

impl BatchJob {
    /// Total ranks.
    pub fn nprocs(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }

    /// The runtime estimate as a duration.
    pub fn est_runtime(&self) -> SimDuration {
        SimDuration::from_nanos(self.est_runtime_ns)
    }
}

/// An ordered job stream (non-decreasing `submit_ns`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchTrace {
    /// The jobs, in submission order.
    pub jobs: Vec<BatchJob>,
}

/// Launch/teardown overhead of one launcher tree (perf setup + mpiexec
/// forks + perf's 20 ms counter-collection tail), folded into synthetic
/// runtime estimates so they bracket the true node-occupancy time.
pub(crate) const LAUNCH_OVERHEAD_NS: u64 = 25_000_000;

impl BatchTrace {
    /// A seeded synthetic trace of `n` jobs for a `cluster_nodes`-node
    /// cluster: exponential inter-arrival times (mean 4 ms — fast enough
    /// that a queue actually forms), mixed widths (1, 2, half- and
    /// full-cluster), 1–2 ranks per node (the reference nodes have two
    /// CPUs; CPU oversubscription makes runtimes unboundable by any
    /// honest user estimate, and belongs to the oversubscribed *policy*,
    /// not the trace), 2–4 iterations of 1–3 ms
    /// compute, and generous runtime estimates (so EASY's reservations
    /// hold): each Allreduce barrier waits on the *slowest* of nprocs
    /// exponential compute draws, so the estimate scales the nominal
    /// time by `2 + log2(nprocs)` — an upper bracket on the expected
    /// max-of-exponentials factor plus tail headroom — and adds twice
    /// the launch overhead.
    pub fn synthetic(seed: u64, n: u32, cluster_nodes: u32) -> BatchTrace {
        assert!(cluster_nodes >= 1);
        let mut rng = Rng::for_run(seed ^ 0xBA7C, 0);
        let mut jobs = Vec::with_capacity(n as usize);
        let mut arrival_ns = 0u64;
        let widths: Vec<u32> = [1, 2, cluster_nodes / 2, cluster_nodes]
            .into_iter()
            .filter(|&w| w >= 1 && w <= cluster_nodes)
            .collect();
        for id in 0..n {
            arrival_ns += (rng.exp(4.0e6) as u64).min(40_000_000);
            let nodes = *rng.choose(&widths);
            let ranks_per_node = rng.range_u64(1, 2) as u32;
            let iters = rng.range_u64(2, 4) as u32;
            let compute_ns = rng.range_u64(1_000_000, 3_000_000);
            let bytes = if rng.chance(0.5) { 64 } else { 4096 };
            let nominal = iters as u64 * compute_ns;
            let nprocs = (nodes * ranks_per_node) as u64;
            let est_factor = 2 + (u64::BITS - nprocs.leading_zeros()) as u64;
            jobs.push(BatchJob {
                id,
                submit_ns: arrival_ns,
                nodes,
                ranks_per_node,
                iters,
                compute_ns,
                bytes,
                est_runtime_ns: est_factor * nominal + 2 * LAUNCH_OVERHEAD_NS,
                user: 0,
                class: 0,
            });
        }
        BatchTrace { jobs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic_and_ordered() {
        let a = BatchTrace::synthetic(7, 12, 4);
        let b = BatchTrace::synthetic(7, 12, 4);
        assert_eq!(a, b);
        assert_eq!(a.jobs.len(), 12);
        for w in a.jobs.windows(2) {
            assert!(w[0].submit_ns <= w[1].submit_ns);
        }
        for j in &a.jobs {
            assert!(j.nodes >= 1 && j.nodes <= 4);
            assert!(j.est_runtime_ns > j.iters as u64 * j.compute_ns);
        }
        // Different seeds differ.
        assert_ne!(a, BatchTrace::synthetic(8, 12, 4));
    }
}
