//! The OS-noise generator: daemons.
//!
//! The paper's noise taxonomy (after Ferreira et al. and the micro/macro
//! split of Gioiosa et al.): high-frequency short-duration noise (timer
//! ticks — modelled in the node's tick cost) and low-frequency
//! long-duration noise (kernel threads and user daemons — modelled here).
//! A [`DaemonSpec`] describes one daemon's sleep/work cycle; a
//! [`NoiseProfile`] is the population of a node. The default population
//! mirrors a 2010-era cluster-node Linux: per-CPU kernel threads
//! (`ksoftirqd/N`, `events/N`) plus global user daemons (syslog, cron,
//! monitoring collectors, ntpd, …), with heavy-tailed service times and a
//! periodic housekeeping *burst* (cron forking short-lived children) that
//! produces the rare catastrophic outliers in the paper's Table II
//! maxima.

use crate::program::{ProgCtx, Program, Step, TaskSpec};
use crate::task::Policy;
use hpl_sim::SimDuration;
use hpl_topology::{CpuId, CpuMask};
use std::collections::VecDeque;

/// Tag stamped on every task the noise generator creates (daemons and
/// their burst children). The node's observers use it to tell a
/// noise-daemon arrival apart from an application wakeup
/// ([`crate::observe::SchedEvent::NoiseArrival`]).
pub const NOISE_TAG: u32 = 0x4E5A; // "NZ"

/// A burst: with some probability per wake cycle, fork several short
/// CPU-burning children (log rotation, stat aggregation, compilation of
/// monitoring reports, …).
#[derive(Debug, Clone)]
pub struct BurstSpec {
    /// Probability of a burst per wake cycle.
    pub probability: f64,
    /// Range of children to fork (inclusive).
    pub children: (u32, u32),
    /// Range of each child's compute time.
    pub child_work: (SimDuration, SimDuration),
}

/// One daemon's behaviour.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// `comm` name.
    pub name: String,
    /// Pin to one CPU (kernel per-CPU threads) or float (user daemons).
    pub pinned: Option<CpuId>,
    /// Nice level (many kernel threads run at slight positive or negative
    /// nice; the scheduler's sleeper fairness makes this mostly moot —
    /// the paper's point).
    pub nice: i8,
    /// Mean sleep between activations (exponential jitter).
    pub period_mean: SimDuration,
    /// Log-normal service-time parameters (of the underlying normal, in
    /// ln-seconds).
    pub service_mu: f64,
    /// Log-normal sigma.
    pub service_sigma: f64,
    /// Hard cap on one activation's service time.
    pub service_max: SimDuration,
    /// Optional burst behaviour.
    pub burst: Option<BurstSpec>,
}

impl DaemonSpec {
    /// A simple periodic daemon with service times around `service`.
    pub fn periodic(
        name: impl Into<String>,
        period_mean: SimDuration,
        service: SimDuration,
    ) -> Self {
        // lognormal with mu = ln(service), sigma = 0.5: median = service,
        // occasional 2-4x outliers.
        DaemonSpec {
            name: name.into(),
            pinned: None,
            nice: 0,
            period_mean,
            service_mu: service.as_secs_f64().max(1e-9).ln(),
            service_sigma: 0.5,
            service_max: service * 20,
            burst: None,
        }
    }

    /// Pin to a CPU.
    pub fn pinned_to(mut self, cpu: CpuId) -> Self {
        self.pinned = Some(cpu);
        self
    }

    /// Add burst behaviour.
    pub fn with_burst(mut self, burst: BurstSpec) -> Self {
        self.burst = Some(burst);
        self
    }

    /// Build the task spec for this daemon.
    pub fn task_spec(&self, all_cpus: CpuMask) -> TaskSpec {
        let affinity = match self.pinned {
            Some(cpu) => CpuMask::single(cpu),
            None => all_cpus,
        };
        TaskSpec::new(
            self.name.clone(),
            Policy::Normal { nice: self.nice },
            Box::new(DaemonProgram::new(self.clone())),
        )
        .with_affinity(affinity)
        .with_tag(NOISE_TAG)
    }
}

/// The daemon program: sleep, (maybe burst), work, repeat.
pub struct DaemonProgram {
    spec: DaemonSpec,
    pending: VecDeque<Step>,
    started: bool,
}

impl DaemonProgram {
    /// Create from a spec.
    pub fn new(spec: DaemonSpec) -> Self {
        DaemonProgram {
            spec,
            pending: VecDeque::new(),
            started: false,
        }
    }

    fn sample_period(&self, ctx: &mut ProgCtx<'_>) -> SimDuration {
        let s = ctx.rng.exp(self.spec.period_mean.as_secs_f64());
        // Avoid both zero-length sleeps and absurd gaps.
        SimDuration::from_secs_f64(s.clamp(
            self.spec.period_mean.as_secs_f64() * 0.1,
            self.spec.period_mean.as_secs_f64() * 8.0,
        ))
    }

    fn sample_service(&self, ctx: &mut ProgCtx<'_>) -> SimDuration {
        let s = ctx
            .rng
            .lognormal(self.spec.service_mu, self.spec.service_sigma);
        SimDuration::from_secs_f64(s)
            .min(self.spec.service_max)
            .max(SimDuration::from_micros(1))
    }
}

impl Program for DaemonProgram {
    fn next_step(&mut self, ctx: &mut ProgCtx<'_>) -> Step {
        if let Some(step) = self.pending.pop_front() {
            return step;
        }
        if !self.started {
            self.started = true;
            // Random initial phase so daemons do not synchronise.
            let phase = ctx.rng.range_f64(0.0, self.spec.period_mean.as_secs_f64());
            return Step::Sleep(SimDuration::from_secs_f64(phase.max(1e-6)));
        }
        // One full cycle: (burst?) work, then sleep. Queue the tail.
        if let Some(burst) = &self.spec.burst {
            if ctx.rng.chance(burst.probability) {
                let n = ctx
                    .rng
                    .range_u64(burst.children.0 as u64, burst.children.1 as u64);
                for i in 0..n {
                    // Heavy-tailed child durations (bounded Pareto): most
                    // housekeeping jobs are short, the occasional one
                    // (updatedb, log compression) runs for seconds —
                    // the source of the catastrophic execution-time
                    // outliers in the paper's Table II maxima.
                    let w_s = ctx.rng.pareto_bounded(
                        1.1,
                        burst.child_work.0.as_secs_f64(),
                        burst.child_work.1.as_secs_f64(),
                    );
                    let w = SimDuration::from_secs_f64(w_s).as_nanos();
                    let child = TaskSpec::new(
                        format!("{}-job{i}", self.spec.name),
                        Policy::Normal {
                            nice: self.spec.nice,
                        },
                        crate::program::ScriptProgram::boxed(
                            "burst-child",
                            vec![Step::Compute(SimDuration::from_nanos(w))],
                        ),
                    )
                    .with_tag(NOISE_TAG);
                    self.pending.push_back(Step::Fork(child));
                }
            }
        }
        self.pending
            .push_back(Step::Compute(self.sample_service(ctx)));
        self.pending.push_back(Step::Sleep(self.sample_period(ctx)));
        self.pending.pop_front().expect("cycle queued")
    }

    fn describe(&self) -> &str {
        &self.spec.name
    }
}

/// Device-interrupt load: a Poisson stream of IRQs whose handlers steal
/// CPU time directly (they preempt *any* task, including HPC and RT —
/// the one noise channel a scheduling policy cannot hide; cf. Mann &
/// Mittal's interrupt-redirection work the paper discusses).
#[derive(Debug, Clone)]
pub struct IrqSpec {
    /// Mean interrupts per second (system-wide).
    pub rate_hz: f64,
    /// Handler cost per interrupt.
    pub cost: SimDuration,
    /// CPUs that service the interrupts (`/proc/irq/*/smp_affinity`);
    /// each IRQ lands on a uniformly random member. The default Linux
    /// configuration routes everything to cpu0.
    pub affinity: CpuMask,
}

/// A node's daemon population.
#[derive(Debug, Clone, Default)]
pub struct NoiseProfile {
    /// The daemons to start at boot.
    pub daemons: Vec<DaemonSpec>,
    /// Optional device-interrupt load.
    pub irq: Option<IrqSpec>,
}

impl NoiseProfile {
    /// No noise at all (unit tests, idealised baselines).
    pub fn quiet() -> Self {
        NoiseProfile {
            daemons: Vec::new(),
            irq: None,
        }
    }

    /// Attach a device-interrupt load.
    pub fn with_irq(mut self, irq: IrqSpec) -> Self {
        assert!(irq.rate_hz > 0.0 && !irq.affinity.is_empty());
        self.irq = Some(irq);
        self
    }

    /// The calibrated standard population for an `ncpus`-thread node.
    ///
    /// Per CPU: `ksoftirqd/N` and `events/N` kernel threads. Global:
    /// syslogd, rpciod, ntpd, irqbalance, a cluster-monitoring collector
    /// (`gmond`, the "statistics collectors" the paper names), hald, and
    /// crond with housekeeping bursts.
    pub fn standard(ncpus: u32) -> Self {
        let mut daemons = Vec::new();
        for c in 0..ncpus {
            daemons.push(
                DaemonSpec::periodic(
                    format!("ksoftirqd/{c}"),
                    SimDuration::from_millis(1200),
                    SimDuration::from_micros(25),
                )
                .pinned_to(CpuId(c)),
            );
            daemons.push(
                DaemonSpec::periodic(
                    format!("events/{c}"),
                    SimDuration::from_millis(900),
                    SimDuration::from_micros(60),
                )
                .pinned_to(CpuId(c)),
            );
            daemons.push(
                DaemonSpec::periodic(
                    format!("kworker/{c}"),
                    SimDuration::from_millis(1500),
                    SimDuration::from_micros(40),
                )
                .pinned_to(CpuId(c)),
            );
        }
        daemons.push(DaemonSpec::periodic(
            "syslogd",
            SimDuration::from_millis(900),
            SimDuration::from_micros(150),
        ));
        daemons.push(DaemonSpec::periodic(
            "rpciod",
            SimDuration::from_millis(2000),
            SimDuration::from_micros(90),
        ));
        daemons.push(DaemonSpec::periodic(
            "ntpd",
            SimDuration::from_secs(8),
            SimDuration::from_micros(120),
        ));
        daemons.push(DaemonSpec::periodic(
            "irqbalance",
            SimDuration::from_secs(10),
            SimDuration::from_micros(400),
        ));
        daemons.push(DaemonSpec::periodic(
            "gmond",
            SimDuration::from_millis(4000),
            SimDuration::from_millis(10),
        ));
        daemons.push(DaemonSpec::periodic(
            "pdflush",
            SimDuration::from_millis(5000),
            SimDuration::from_millis(8),
        ));
        daemons.push(DaemonSpec::periodic(
            "pbs_mom",
            SimDuration::from_millis(2500),
            SimDuration::from_millis(4),
        ));
        daemons.push(DaemonSpec::periodic(
            "hald",
            SimDuration::from_millis(2500),
            SimDuration::from_micros(200),
        ));
        daemons.push(DaemonSpec::periodic(
            "kjournald",
            SimDuration::from_secs(3),
            SimDuration::from_millis(4),
        ));
        daemons.push(
            DaemonSpec::periodic(
                "crond",
                SimDuration::from_secs(5),
                SimDuration::from_millis(1),
            )
            .with_burst(BurstSpec {
                probability: 0.5,
                children: (2, 6),
                child_work: (SimDuration::from_millis(40), SimDuration::from_secs(8)),
            }),
        );
        NoiseProfile { daemons, irq: None }
    }

    /// Scale activation frequency and service durations by `factor`
    /// (noise-injection sweeps; `factor = 0` disables everything).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0);
        if factor == 0.0 {
            return NoiseProfile::quiet();
        }
        let daemons = self
            .daemons
            .iter()
            .map(|d| {
                let mut d = d.clone();
                d.period_mean = d.period_mean.div_f64(factor);
                d.service_mu += factor.ln();
                d.service_max = d.service_max.mul_f64(factor);
                d
            })
            .collect();
        NoiseProfile {
            daemons,
            irq: self.irq.clone(),
        }
    }

    /// Task specs for the whole population.
    pub fn task_specs(&self, all_cpus: CpuMask) -> Vec<TaskSpec> {
        self.daemons.iter().map(|d| d.task_spec(all_cpus)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Pid;
    use hpl_sim::{Rng, SimTime};

    fn step_of(p: &mut DaemonProgram, rng: &mut Rng) -> Step {
        let mut ctx = ProgCtx {
            pid: Pid(0),
            now: SimTime::ZERO,
            rng,
        };
        p.next_step(&mut ctx)
    }

    #[test]
    fn daemon_cycles_sleep_compute() {
        let spec = DaemonSpec::periodic(
            "d",
            SimDuration::from_millis(100),
            SimDuration::from_micros(50),
        );
        let mut p = DaemonProgram::new(spec);
        let mut rng = Rng::new(1);
        // Phase sleep first.
        assert!(matches!(step_of(&mut p, &mut rng), Step::Sleep(_)));
        for _ in 0..10 {
            assert!(matches!(step_of(&mut p, &mut rng), Step::Compute(_)));
            assert!(matches!(step_of(&mut p, &mut rng), Step::Sleep(_)));
        }
    }

    #[test]
    fn service_times_are_bounded() {
        let spec = DaemonSpec::periodic(
            "d",
            SimDuration::from_millis(100),
            SimDuration::from_micros(50),
        );
        let cap = spec.service_max;
        let mut p = DaemonProgram::new(spec);
        let mut rng = Rng::new(2);
        let _ = step_of(&mut p, &mut rng);
        for _ in 0..200 {
            if let Step::Compute(d) = step_of(&mut p, &mut rng) {
                assert!(d <= cap, "service {d} exceeds cap {cap}");
                assert!(d >= SimDuration::from_micros(1));
            }
        }
    }

    #[test]
    fn burst_forks_children() {
        let spec = DaemonSpec::periodic(
            "cron",
            SimDuration::from_millis(10),
            SimDuration::from_micros(50),
        )
        .with_burst(BurstSpec {
            probability: 1.0,
            children: (2, 2),
            child_work: (SimDuration::from_millis(1), SimDuration::from_millis(2)),
        });
        let mut p = DaemonProgram::new(spec);
        let mut rng = Rng::new(3);
        let _ = step_of(&mut p, &mut rng); // phase
        let mut forks = 0;
        for _ in 0..4 {
            match step_of(&mut p, &mut rng) {
                Step::Fork(_) => forks += 1,
                Step::Compute(_) | Step::Sleep(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(forks, 2);
    }

    #[test]
    fn standard_profile_population() {
        let p = NoiseProfile::standard(8);
        // 3 per-CPU threads x 8 + 10 globals.
        assert_eq!(p.daemons.len(), 34);
        let pinned = p.daemons.iter().filter(|d| d.pinned.is_some()).count();
        assert_eq!(pinned, 24);
        let specs = p.task_specs(CpuMask::first_n(8));
        assert_eq!(specs.len(), 34);
        // Pinned daemons have single-CPU affinity.
        let single = specs.iter().filter(|s| s.affinity.count() == 1).count();
        assert_eq!(single, 24);
    }

    #[test]
    fn quiet_profile_is_empty() {
        assert!(NoiseProfile::quiet().daemons.is_empty());
    }

    #[test]
    fn scaling_changes_period() {
        let p = NoiseProfile::standard(2);
        let scaled = p.scaled(2.0);
        assert_eq!(
            scaled.daemons[0].period_mean,
            p.daemons[0].period_mean.div_f64(2.0)
        );
        assert!(scaled.scaled(0.0).daemons.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = DaemonSpec::periodic(
            "d",
            SimDuration::from_millis(100),
            SimDuration::from_micros(50),
        );
        let mut p1 = DaemonProgram::new(spec.clone());
        let mut p2 = DaemonProgram::new(spec);
        let mut r1 = Rng::new(9);
        let mut r2 = Rng::new(9);
        for _ in 0..50 {
            let (s1, s2) = (step_of(&mut p1, &mut r1), step_of(&mut p2, &mut r2));
            match (s1, s2) {
                (Step::Sleep(a), Step::Sleep(b)) => assert_eq!(a, b),
                (Step::Compute(a), Step::Compute(b)) => assert_eq!(a, b),
                (Step::Fork(_), Step::Fork(_)) => {}
                other => panic!("diverged: {other:?}"),
            }
        }
    }
}
