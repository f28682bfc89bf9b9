//! Per-CPU power and energy accounting — the paper's stated future work
//! ("We will extend HPL taking into account the power dimension").
//!
//! The model is the standard three-state CMOS abstraction the DVFS
//! literature (e.g. Rountree et al.'s Adagio, which the paper cites)
//! builds on:
//!
//! * **busy** — a hardware thread executing a task draws [`BUSY_WATTS`]
//!   (attributed per thread; SMT siblings each draw their share);
//! * **idle** — a halted thread draws [`IDLE_WATTS`] (clock-gated core);
//! * **tick/kernel overhead** — accounted as busy time (the handler
//!   executes instructions).
//!
//! Energy integrates lazily from the node's counters: `BusyNs` already
//! accumulates per-CPU busy time, so energy needs no extra event-loop
//! work — it is a pure function of the counters and the elapsed time.
//! This is exactly why the scheduler matters for power: a spinning MPI
//! rank is *busy* (the paper's HPL keeps waits short but hot), while a
//! blocked rank lets the core idle. The [`EnergyReport`] quantifies that
//! trade-off per scheduler.

use hpl_topology::Topology;

/// Watts drawn by one hardware thread executing instructions. The two
/// constants approximate a POWER6 core pair: each 4.2 GHz dual-thread
/// core dissipates ~15-20 W busy within a ~100 W dual-core chip
/// envelope; per hardware thread that is ~8 W busy above a ~2 W idle
/// floor.
pub const BUSY_WATTS: f64 = 8.0;

/// Watts drawn by one idle (halted) hardware thread.
pub const IDLE_WATTS: f64 = 2.0;

const _: () = assert!(IDLE_WATTS >= 0.0 && BUSY_WATTS >= IDLE_WATTS);

/// Energy accounting over a window, derived from counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Total energy over the window, in joules.
    pub total_joules: f64,
    /// Energy attributable to busy execution above idle floor.
    pub dynamic_joules: f64,
    /// Baseline energy the machine would burn fully idle.
    pub idle_floor_joules: f64,
    /// Mean machine power over the window, in watts.
    pub mean_watts: f64,
    /// Busy fraction across all hardware threads (0..=1).
    pub utilisation: f64,
}

/// Compute the energy of a measurement window from counter snapshots.
///
/// `busy_ns_delta` is the window's system-wide `BusyNs` delta;
/// `wall` is the window length. The caller typically obtains both from a
/// `PerfSession`.
pub fn energy_of_window(
    topo: &Topology,
    busy_ns_delta: u64,
    wall: hpl_sim::SimDuration,
) -> EnergyReport {
    let threads = topo.total_cpus() as f64;
    let wall_s = wall.as_secs_f64();
    let busy_s = busy_ns_delta as f64 / 1e9;
    let capacity_s = (threads * wall_s).max(1e-12);
    let busy_s = busy_s.min(capacity_s);
    let dynamic = (BUSY_WATTS - IDLE_WATTS) * busy_s;
    let floor = IDLE_WATTS * capacity_s;
    let total = dynamic + floor;
    EnergyReport {
        total_joules: total,
        dynamic_joules: dynamic,
        idle_floor_joules: floor,
        mean_watts: total / wall_s.max(1e-12),
        utilisation: busy_s / capacity_s,
    }
}

/// Energy-delay product, the figure of merit that rewards both finishing
/// fast and idling cheaply. `exec` is the application execution time.
pub fn energy_delay_product(report: &EnergyReport, exec: hpl_sim::SimDuration) -> f64 {
    report.total_joules * exec.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_sim::SimDuration;

    fn topo() -> Topology {
        Topology::power6_js22()
    }

    #[test]
    fn fully_idle_machine_draws_floor() {
        let r = energy_of_window(&topo(), 0, SimDuration::from_secs(10));
        assert_eq!(r.dynamic_joules, 0.0);
        // 8 threads x 2 W x 10 s = 160 J.
        assert!((r.idle_floor_joules - 160.0).abs() < 1e-9);
        assert!((r.mean_watts - 16.0).abs() < 1e-9);
        assert_eq!(r.utilisation, 0.0);
    }

    #[test]
    fn fully_busy_machine_draws_peak() {
        let wall = SimDuration::from_secs(10);
        let busy_ns = 8 * 10 * 1_000_000_000u64;
        let r = energy_of_window(&topo(), busy_ns, wall);
        // 8 threads x 8 W x 10 s = 640 J.
        assert!((r.total_joules - 640.0).abs() < 1e-9);
        assert!((r.utilisation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn busy_time_clamped_to_capacity() {
        let r = energy_of_window(&topo(), u64::MAX, SimDuration::from_millis(1));
        assert!(r.utilisation <= 1.0);
        assert!(r.total_joules.is_finite());
    }

    #[test]
    fn half_busy_is_between() {
        let wall = SimDuration::from_secs(1);
        let r_idle = energy_of_window(&topo(), 0, wall);
        let r_half = energy_of_window(&topo(), 4_000_000_000, wall);
        let r_full = energy_of_window(&topo(), 8_000_000_000, wall);
        assert!(r_idle.total_joules < r_half.total_joules);
        assert!(r_half.total_joules < r_full.total_joules);
        assert!((r_half.utilisation - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edp_prefers_fast_and_lean() {
        let wall = SimDuration::from_secs(10);
        let lean = energy_of_window(&topo(), 10_000_000_000, wall);
        let hot = energy_of_window(&topo(), 70_000_000_000, wall);
        // Lean and fast strictly dominates hot and slow.
        assert!(
            energy_delay_product(&lean, SimDuration::from_secs(8))
                < energy_delay_product(&hot, SimDuration::from_secs(12))
        );
    }
}
