//! Offline event-loop performance regression harness.
//!
//! Measures simulated-events-per-second for the event-loop fast path
//! (timer-wheel ticks + quiescence fast-forward) against the reference
//! heap-of-everything path, over three workload shapes:
//!
//! * `idle-daemons` — an unloaded node running only its daemon
//!   population; almost every event is a periodic tick, so this is the
//!   fast path's bread and butter.
//! * `idle-quiet` — an unloaded node with no daemons at all (the LWK /
//!   CNK regime the paper benchmarks against): the event stream is pure
//!   ticks and fast-forward batches entire windows arithmetically.
//! * `hpl-tickless` — an HPC job on the HPL + tickless kernel; lone-HPC
//!   quiescence lets whole compute phases fast-forward.
//! * `std-cfs-busy` — a CFS job on standard Linux with balancing on;
//!   the fast path's worst case, here to prove no regression.
//!
//! Both paths count *simulated* events identically (a batched tick is
//! still an event), so the speedup is pure wall-clock. Each sweep also
//! cross-checks the final state fingerprint between the two paths —
//! the speedup only counts if the results are byte-identical.
//!
//! An idle sweep's fast path can take about a microsecond a run, too
//! close to timer resolution to time alone, so an idle sample times
//! enough back-to-back runs of fresh nodes that its span lasts at least
//! a millisecond. Each row reports wall time per run and the runs
//! (`fast_runs`, `ref_runs`) in the span it came from; a job sweep's
//! run is its whole series of `reps` jobs.
//!
//! Writes `BENCH_eventloop.json` in the current directory. No criterion,
//! no network: plain `Instant` timing. Exits 1 at every flavour if the
//! two paths disagree (`identical_results`).
//!
//! Usage: `eventloop [--smoke | --quick] [--out PATH]`
//!
//! `--smoke` is for CI gates: a seconds-long run that still exercises
//! every sweep and the fast-vs-reference fingerprint cross-check, but
//! whose timings are too short to mean anything.

use hpl_bench::row;
use hpl_bench::sweep::{Flags, Report};
use hpl_core::HplClass;
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::{KernelConfig, Node, NodeBuilder};
use hpl_mpi::{launch, JobSpec, MpiOp, SchedMode};
use hpl_sim::SimDuration;
use hpl_topology::Topology;
use std::time::Instant;

fn build(mut kc: KernelConfig, hpc_class: bool, quiet: bool, fast: bool, seed: u64) -> Node {
    kc.fast_event_loop = fast;
    let noise = if quiet {
        NoiseProfile::quiet()
    } else {
        NoiseProfile::standard(8)
    };
    let mut b = NodeBuilder::new(Topology::power6_js22())
        .with_config(kc)
        .with_noise(noise)
        .with_seed(seed);
    if hpc_class {
        b = b.with_hpc_class(Box::new(HplClass::new()));
    }
    b.build()
}

fn job(iters: u32) -> JobSpec {
    JobSpec::new(
        8,
        JobSpec::repeat(
            iters,
            &[
                MpiOp::Compute {
                    mean: SimDuration::from_millis(4),
                },
                MpiOp::Barrier,
            ],
        ),
    )
}

/// One timed sample: per run, simulated events, wall seconds and state
/// fingerprint, and the runs in its timed span.
struct Obs {
    events: u64,
    wall_s: f64,
    fingerprint: u64,
    runs: u64,
}

/// Shortest timed span of an idle sample, in seconds.
const MIN_SPAN_S: f64 = 1e-3;

/// Idle runs of identical fresh nodes, back to back in one timed span
/// that lasts at least [`MIN_SPAN_S`]. The batch starts at one run and
/// grows (at most a hundredfold a step) until its span is that long;
/// its nodes are built before the span starts.
fn idle_run(fast: bool, quiet: bool, millis: u64, seed: u64) -> Obs {
    let mut runs = 1u64;
    loop {
        let mut nodes: Vec<Node> = (0..runs)
            .map(|_| build(KernelConfig::default(), false, quiet, fast, seed))
            .collect();
        let t0 = Instant::now();
        for node in &mut nodes {
            node.run_for(SimDuration::from_millis(millis));
        }
        let span = t0.elapsed().as_secs_f64();
        let fingerprint = nodes[0].state_fingerprint();
        assert!(
            nodes.iter().all(|n| n.state_fingerprint() == fingerprint),
            "non-deterministic state"
        );
        if span >= MIN_SPAN_S {
            return Obs {
                events: nodes[0].events_processed(),
                wall_s: span / runs as f64,
                fingerprint,
                runs,
            };
        }
        // Aim a fifth past the minimum.
        let want = (runs as f64 * 1.2 * MIN_SPAN_S / span.max(1e-9)).ceil() as u64;
        runs = want.clamp(runs + 1, runs * 100);
    }
}

fn job_run(
    kc: KernelConfig,
    hpc_class: bool,
    quiet: bool,
    mode: SchedMode,
    fast: bool,
    reps: u64,
    iters: u32,
) -> Obs {
    let (mut events, mut fp) = (0u64, 0u64);
    let t0 = Instant::now();
    for rep in 0..reps {
        let mut node = build(kc.clone(), hpc_class, quiet, fast, 0x5EED ^ rep);
        node.run_for(SimDuration::from_millis(300));
        let handle = launch(&mut node, &job(iters), mode);
        handle.run_to_completion(&mut node, 4_000_000_000);
        events += node.events_processed();
        fp ^= node.state_fingerprint().rotate_left((rep % 64) as u32);
    }
    Obs {
        events,
        wall_s: t0.elapsed().as_secs_f64(),
        fingerprint: fp,
        runs: 1,
    }
}

struct Sweep {
    name: &'static str,
    /// Whether the workload is quiescence-dominated, i.e. actually
    /// bound by the event loop rather than by dispatch work that is
    /// identical on both paths. The headline speedup averages these;
    /// the rest are no-regression guards.
    loop_bound: bool,
    fast: Obs,
    reference: Obs,
}

impl Sweep {
    fn speedup(&self) -> f64 {
        self.reference.wall_s / self.fast.wall_s
    }
}

/// Time the fast and the reference path `reps` times each, interleaved
/// (fast, reference, fast, …), and keep each path's best sample
/// (min-of-N sheds scheduler and allocator noise). Interleaving puts
/// both paths in every phase of a shared host's speed, so their ratio
/// follows the code and not the phase. The simulated side must be
/// bit-identical across repeats or the measurement itself is broken.
fn best_pair(reps: usize, run: &dyn Fn(bool) -> Obs) -> (Obs, Obs) {
    let (mut fast, mut reference) = (run(true), run(false));
    for _ in 1..reps {
        for (best, on_fast) in [(&mut fast, true), (&mut reference, false)] {
            let o = run(on_fast);
            assert_eq!(o.events, best.events, "non-deterministic event count");
            assert_eq!(o.fingerprint, best.fingerprint, "non-deterministic state");
            if o.wall_s < best.wall_s {
                *best = o;
            }
        }
    }
    (fast, reference)
}

fn main() {
    let flags = Flags::parse("eventloop", &[]);
    let (idle_ms, reps, iters) =
        flags
            .flavour()
            .pick((2_000, 1, 30), (40_000, 2, 120), (120_000, 4, 300));
    // Timed repeats per path: the best of three outside smoke runs.
    let timed = flags.flavour().pick(2, 3, 3);
    let tickless = || {
        let mut kc = KernelConfig::hpl();
        kc.tickless_single_hpc = true;
        kc
    };

    eprintln!(
        "eventloop bench ({}): idle {idle_ms} ms, {reps} reps x {iters} iters",
        flags.flavour().name()
    );

    // Each sweep alternates between the fast path and the reference.
    let sweep = |name, loop_bound, run: &dyn Fn(bool) -> Obs| {
        let (fast, reference) = best_pair(timed, run);
        Sweep {
            name,
            loop_bound,
            fast,
            reference,
        }
    };
    let (hpc, cfs, linux) = (SchedMode::Hpc, SchedMode::Cfs, KernelConfig::default);
    let sweeps = [
        sweep("idle-daemons", true, &|fast| {
            idle_run(fast, false, idle_ms, 42)
        }),
        sweep("idle-quiet", true, &|fast| {
            idle_run(fast, true, idle_ms, 42)
        }),
        sweep("lwk-quiet", false, &|fast| {
            job_run(tickless(), true, true, hpc, fast, reps, iters)
        }),
        sweep("hpl-tickless", false, &|fast| {
            job_run(tickless(), true, false, hpc, fast, reps, iters)
        }),
        sweep("std-cfs-busy", false, &|fast| {
            job_run(linux(), false, false, cfs, fast, reps, iters)
        }),
    ];

    let mut ok = true;
    for s in &sweeps {
        if s.fast.fingerprint != s.reference.fingerprint || s.fast.events != s.reference.events {
            eprintln!(
                "FAIL {}: fast path diverged (events {} vs {}, fp {:016x} vs {:016x})",
                s.name,
                s.fast.events,
                s.reference.events,
                s.fast.fingerprint,
                s.reference.fingerprint
            );
            ok = false;
        }
        eprintln!(
            "{:>14}: {:>12} events | fast {:>11.6}s ({:>11.0} ev/s) | ref {:>11.6}s ({:>11.0} ev/s) | speedup {:.2}x",
            s.name,
            s.fast.events,
            s.fast.wall_s,
            s.fast.events as f64 / s.fast.wall_s,
            s.reference.wall_s,
            s.reference.events as f64 / s.reference.wall_s,
            s.speedup()
        );
    }
    let geomean = |pick: &dyn Fn(&Sweep) -> bool| {
        let picked: Vec<f64> = sweeps
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.speedup().ln())
            .collect();
        (picked.iter().sum::<f64>() / picked.len() as f64).exp()
    };
    // Headline: the loop-bound sweeps, where events/sec measures the
    // event loop itself. The busy sweeps spend their wall time in
    // dispatch work identical on both paths; they guard regressions.
    let headline = geomean(&|s: &Sweep| s.loop_bound);
    let overall = geomean(&|_| true);
    eprintln!("loop-bound speedup: {headline:.2}x | all-sweep geomean: {overall:.2}x");

    let mut report = Report::new(&flags);
    report
        .invariant("identical_results", ok)
        .put("loop_bound_speedup", (headline, 4))
        .put("geomean_speedup_all", (overall, 4))
        .rows(
            "sweeps",
            sweeps.iter().map(|s| {
                let (fast, reference) = (&s.fast, &s.reference);
                row!["name" => s.name, "loop_bound" => s.loop_bound, "events" => fast.events,
                    "fast_runs" => fast.runs, "ref_runs" => reference.runs,
                    "fast_wall_s" => (fast.wall_s, 9), "ref_wall_s" => (reference.wall_s, 9),
                    "fast_events_per_s" => (fast.events as f64 / fast.wall_s, 0),
                    "ref_events_per_s" => (reference.events as f64 / reference.wall_s, 0),
                    "speedup" => (s.speedup(), 4)]
            }),
        );
    report.finish();
}
