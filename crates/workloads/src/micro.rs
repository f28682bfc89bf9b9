//! Methodology microbenchmarks from the OS-noise literature.
//!
//! * [`noise_probe_job`] — a P-SNAP/FWQ-style probe: every rank computes
//!   a fixed quantum then barriers, many times. On a noiseless machine
//!   every period takes `quantum / smt_factor`; any stretch beyond that
//!   is, by construction, scheduler/OS interference. The paper's §III
//!   methodology (run a short, fixed workload 1000×, study the
//!   distribution) is the whole-application version of this probe.
//! * [`injection_daemon`] — a controllable noise source in the style of
//!   Ferreira/Bridges/Brightwell (SC'08 kernel-level noise injection):
//!   one daemon with exact period and duration, used to sweep noise
//!   frequency/intensity and observe the resonance with application
//!   granularity.

use hpl_kernel::noise::{DaemonSpec, NoiseProfile};
use hpl_mpi::{JobSpec, MpiOp};
use hpl_sim::SimDuration;

/// A fixed-work-quantum probe job: `iters` periods of `quantum` compute
/// followed by a barrier, across `nprocs` ranks.
pub fn noise_probe_job(nprocs: u32, iters: u32, quantum: SimDuration) -> JobSpec {
    let body = [MpiOp::Compute { mean: quantum }, MpiOp::Barrier];
    let mut job = JobSpec::new(nprocs, JobSpec::repeat(iters, &body));
    // The probe measures *OS* noise: disable application-intrinsic jitter.
    job.config.compute_jitter = 0.0;
    job
}

/// A single injection daemon with the given period and service time
/// (deterministic-ish: tiny jitter keeps the event stream aperiodic, as
/// the injection papers do to avoid lockstep artefacts).
pub fn injection_daemon(period: SimDuration, duration: SimDuration) -> DaemonSpec {
    let mut d = DaemonSpec::periodic("noise-inject", period, duration);
    // Narrow the service distribution: injection wants controlled noise.
    d.service_sigma = 0.05;
    d.service_max = duration * 2;
    d
}

/// A noise profile containing only injection daemons, one per CPU —
/// the kernel-level injection setup.
pub fn injection_profile(ncpus: u32, period: SimDuration, duration: SimDuration) -> NoiseProfile {
    let daemons = (0..ncpus)
        .map(|c| injection_daemon(period, duration).pinned_to(hpl_topology::CpuId(c)))
        .collect();
    NoiseProfile {
        daemons,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_job_structure() {
        let job = noise_probe_job(8, 100, SimDuration::from_millis(1));
        assert_eq!(job.ops.len(), 200);
        assert_eq!(job.config.compute_jitter, 0.0);
        assert_eq!(job.total_compute(), SimDuration::from_millis(100));
    }

    #[test]
    fn injection_daemon_is_narrow() {
        let d = injection_daemon(SimDuration::from_millis(10), SimDuration::from_micros(100));
        assert!(d.service_sigma < 0.1);
        assert_eq!(d.service_max, SimDuration::from_micros(200));
    }

    #[test]
    fn injection_profile_pins_per_cpu() {
        let p = injection_profile(
            8,
            SimDuration::from_millis(10),
            SimDuration::from_micros(50),
        );
        assert_eq!(p.daemons.len(), 8);
        assert!(p.daemons.iter().all(|d| d.pinned.is_some()));
    }
}
