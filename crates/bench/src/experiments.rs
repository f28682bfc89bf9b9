//! One function per paper table/figure, plus the five extensions.
//!
//! Each experiment returns a report string; the `repro` binary prints it
//! and optionally writes raw CSV next to it. Repetition counts default to
//! a laptop-friendly 100 (the paper uses 1000; pass `--reps 1000` to
//! match exactly — every statistic here converges well before that).

use crate::harness::{build_node, run_many, NoiseKind, RunConfig, Scheduler, MAX_EVENTS};
use crate::report;
use hpl_kernel::NodeBuilder;
use hpl_mpi::{launch, SchedMode};
use hpl_perf::RunTable;
use hpl_sim::plot::{render_histogram, render_scatter, to_csv};
use hpl_sim::stats::{Histogram, Summary};
use hpl_sim::SimDuration;
use hpl_topology::Topology;
use hpl_workloads::micro::noise_probe_job;
use hpl_workloads::{nas_job, NasBenchmark, NasClass};
use std::fmt::Write as _;

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Repetitions per configuration (paper: 1000).
    pub reps: u32,
    /// Base seed.
    pub seed: u64,
    /// Optional directory for raw CSV output.
    pub out_dir: Option<std::path::PathBuf>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            reps: 100,
            seed: 0x5EED,
            out_dir: None,
        }
    }
}

impl ExpOpts {
    fn write_csv(&self, name: &str, contents: &str) {
        if let Some(dir) = &self.out_dir {
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

fn ep_a_cfg(opts: &ExpOpts, mode: SchedMode, sched: Scheduler) -> RunConfig {
    RunConfig::new(
        "ep.A.8",
        nas_job(NasBenchmark::Ep, NasClass::A, 8),
        mode,
        sched,
    )
    .with_reps(opts.reps)
    .with_seed(opts.seed)
}

// -------------------------------------------------------------------
// Figure 1 — effects of preemption on a barrier-synchronised app
// -------------------------------------------------------------------

/// Reproduce Figure 1's *mechanism* as a measured timeline: a 4-rank
/// barrier application runs iterations of fixed work; a single daemon
/// activation preempts one rank mid-run, and the whole application
/// stretches by the preemption length because every other rank waits at
/// the barrier.
pub fn fig1(opts: &ExpOpts) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1 — one preempted process delays every process.\n\
         8 ranks, 12 iterations of 20 ms compute + barrier; a one-shot\n\
         40 ms CFS task is injected onto cpu0 during iteration 6.\n"
    );
    let job = noise_probe_job(8, 12, SimDuration::from_millis(20));
    let barrier = job.barrier_id();

    let mut node = NodeBuilder::new(Topology::power6_js22())
        .with_seed(opts.seed)
        .build();
    node.enable_trace(200_000);
    node.run_for(SimDuration::from_millis(100));
    let handle = launch(&mut node, &job, SchedMode::Cfs);
    let launch_time = node.now();
    // Step manually, recording the completion time of each barrier
    // generation (= each iteration); inject the noise task mid-run.
    let mut last_gen = node.sync.barrier_generation(barrier);
    let mut iter_end = Vec::new();
    let mut injected = false;
    while node.tasks.get(handle.perf_pid).state != hpl_kernel::TaskState::Dead {
        assert!(node.step(), "queue drained early");
        let gen = node.sync.barrier_generation(barrier);
        if gen > last_gen {
            for _ in last_gen..gen {
                iter_end.push(node.now());
            }
            last_gen = gen;
        }
        if !injected && iter_end.len() >= 6 {
            injected = true;
            node.spawn(
                hpl_kernel::TaskSpec::new(
                    "inject",
                    hpl_kernel::Policy::Normal { nice: 0 },
                    hpl_kernel::program::ScriptProgram::boxed(
                        "inject",
                        vec![hpl_kernel::Step::Compute(SimDuration::from_millis(40))],
                    ),
                )
                .with_affinity(hpl_topology::CpuMask::single(hpl_topology::CpuId(0))),
            );
        }
    }
    let mut prev = iter_end[0];
    let _ = writeln!(out, "iteration | duration  |");
    // iter_end[0] is the init barrier; the last generation is finalize.
    for (i, &t) in iter_end[..iter_end.len() - 1].iter().enumerate().skip(1) {
        let d = t.since(prev);
        prev = t;
        let bar_len = (d.as_secs_f64() / 0.002).round() as usize;
        let bar: String = std::iter::repeat_n('#', bar_len.min(70)).collect();
        let _ = writeln!(out, "{i:9} | {d:>9} | {bar}");
    }
    let _ = writeln!(
        out,
        "\nThe stretched iterations are the paper's Figure 1: the preempted\n\
         rank arrives late, and every rank's barrier wait absorbs the delay.\n\
         Per-CPU Gantt ('0'-'7' = ranks, 'x' = other tasks, '.' = idle):\n"
    );
    if let Some(trace) = node.trace() {
        let rank_glyph: std::collections::HashMap<hpl_kernel::Pid, char> = node
            .tasks
            .iter()
            .filter(|t| t.name.starts_with("rank"))
            .map(|t| (t.pid, t.name.as_bytes()[4] as char))
            .collect();
        out.push_str(&trace.gantt(8, launch_time, node.now(), 64, |p| {
            rank_glyph.get(&p).copied().unwrap_or('x')
        }));
    }
    out
}

// -------------------------------------------------------------------
// Figures 2 / 4 — ep.A.8 execution-time distributions
// -------------------------------------------------------------------

fn time_histogram(label: &str, table: &RunTable, opts: &ExpOpts, csv_name: &str) -> String {
    let times = table.times();
    let s = Summary::from_slice(&times);
    let hist = Histogram::covering(&times, 24);
    let mut out = String::new();
    let _ = writeln!(out, "{label}: {} runs", times.len());
    let _ = writeln!(
        out,
        "min {:.2}s  avg {:.2}s  max {:.2}s  variation {:.2}%\n",
        s.min(),
        s.mean(),
        s.max(),
        s.variation_pct()
    );
    out.push_str(&render_histogram(&hist, 60));
    let idx: Vec<f64> = (0..times.len()).map(|i| i as f64).collect();
    opts.write_csv(csv_name, &to_csv(("run", "exec_time_s"), &idx, &times));
    out
}

/// Figure 2: ep.A.8 under standard Linux — the wide, heavy-tailed
/// execution-time distribution that motivates the whole paper.
pub fn fig2(opts: &ExpOpts) -> String {
    let table = run_many(&ep_a_cfg(opts, SchedMode::Cfs, Scheduler::StandardLinux));
    let mut out =
        String::from("Figure 2 — ep.A.8 execution time distribution (standard Linux)\n\n");
    out.push_str(&time_histogram(
        "ep.A.8 / std Linux",
        &table,
        opts,
        "fig2.csv",
    ));
    out
}

/// Figure 4: ep.A.8 under the RT scheduler — tighter than CFS but not
/// noise-free; RT balancing still migrates tasks.
pub fn fig4(opts: &ExpOpts) -> String {
    let table = run_many(&ep_a_cfg(
        opts,
        SchedMode::Rt { prio: 50 },
        Scheduler::StandardLinux,
    ));
    let mut out = String::from("Figure 4 — ep.A.8 execution time distribution (RT scheduler)\n\n");
    out.push_str(&time_histogram(
        "ep.A.8 / SCHED_FIFO",
        &table,
        opts,
        "fig4.csv",
    ));
    let m = table.migration_summary();
    let c = table.switch_summary();
    let _ = writeln!(
        out,
        "\nmigrations avg {:.1} (max {:.0}); context switches avg {:.1} (max {:.0})",
        m.mean(),
        m.max(),
        c.mean(),
        c.max()
    );
    out
}

// -------------------------------------------------------------------
// Figure 3 — execution time vs software counters
// -------------------------------------------------------------------

/// Which Figure 3 panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig3Panel {
    /// 3a: CPU migrations.
    Migrations,
    /// 3b: context switches.
    Switches,
}

/// Figure 3: scatter of ep.A.8 execution time against a scheduler
/// counter, plus the correlation the paper reads off the plot.
pub fn fig3(opts: &ExpOpts, panel: Fig3Panel) -> String {
    let table = run_many(&ep_a_cfg(opts, SchedMode::Cfs, Scheduler::StandardLinux));
    let times = table.times();
    let (name, xs, csv) = match panel {
        Fig3Panel::Migrations => ("CPU migrations", table.migrations_f64(), "fig3a.csv"),
        Fig3Panel::Switches => ("context switches", table.switches_f64(), "fig3b.csv"),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3{} — ep.A.8 execution time vs {name} (standard Linux)\n",
        if panel == Fig3Panel::Migrations {
            "a"
        } else {
            "b"
        }
    );
    out.push_str(&render_scatter(&xs, &times, 64, 16));
    let _ = writeln!(
        out,
        "\nPearson r = {:.3}, Spearman rho = {:.3} (n = {})",
        hpl_sim::stats::pearson(&xs, &times),
        hpl_sim::stats::spearman(&xs, &times),
        xs.len()
    );
    if let Some((slope, intercept, r2)) = hpl_sim::stats::linear_fit(&xs, &times) {
        let _ = writeln!(
            out,
            "fit: time = {intercept:.3}s + {:.3}ms x {name} (R2 = {r2:.3})",
            slope * 1e3
        );
    }
    opts.write_csv(csv, &to_csv((name, "exec_time_s"), &xs, &times));
    out
}

// -------------------------------------------------------------------
// Tables I and II — the twelve NAS configurations
// -------------------------------------------------------------------

/// All twelve NAS configurations under one scheduler.
fn run_nas_side(opts: &ExpOpts, sched: Scheduler, mode: SchedMode) -> Vec<(String, RunTable)> {
    hpl_workloads::nas::all_configs()
        .into_iter()
        .map(|(b, c)| {
            let label = format!("{}.{}.8", b.name(), c.name());
            let cfg = RunConfig::new(label.clone(), nas_job(b, c, 8), mode, sched)
                .with_reps(opts.reps)
                .with_seed(opts.seed);
            (label, run_many(&cfg))
        })
        .collect()
}

/// Table Ia (standard Linux) or Ib (HPL): scheduler-noise counters for
/// every benchmark.
pub fn table1(opts: &ExpOpts, hpl: bool) -> String {
    let (sched, mode, title) = if hpl {
        (
            Scheduler::Hpl,
            SchedMode::Hpc,
            "Table Ib — Scheduler OS noise, HPL",
        )
    } else {
        (
            Scheduler::StandardLinux,
            SchedMode::Cfs,
            "Table Ia — Scheduler OS noise, standard Linux",
        )
    };
    let rows = run_nas_side(opts, sched, mode);
    let mut out = format!(
        "{title} ({} reps)\n\n{}\n",
        opts.reps,
        report::table1_header()
    );
    for (label, table) in &rows {
        let _ = writeln!(out, "{}", report::table1_row(label, table));
    }
    out
}

/// Table II: execution times (min/avg/max and the paper's variation
/// percentage) for standard Linux vs HPL, all twelve configurations.
pub fn table2(opts: &ExpOpts) -> String {
    let std_rows = run_nas_side(opts, Scheduler::StandardLinux, SchedMode::Cfs);
    let hpl_rows = run_nas_side(opts, Scheduler::Hpl, SchedMode::Hpc);
    let mut out = format!(
        "Table II — NAS execution time: Std. Linux vs HPL (seconds, {} reps)\n\n{}\n",
        opts.reps,
        report::table2_header()
    );
    let mut var_sum = 0.0;
    for ((label, std), (_, hpl)) in std_rows.iter().zip(&hpl_rows) {
        let _ = writeln!(out, "{}", report::table2_row(label, std, hpl));
        var_sum += hpl.time_summary().variation_pct();
    }
    let _ = writeln!(
        out,
        "\nHPL average variation: {:.2}% (paper: 2.11%)",
        var_sum / std_rows.len() as f64
    );
    out
}

// -------------------------------------------------------------------
// Paper-vs-measured comparison (the EXPERIMENTS.md headline table)
// -------------------------------------------------------------------

/// Side-by-side comparison against the paper's published Tables Ia/Ib/II
/// (transcribed in `hpl_workloads::paper`), one row per configuration.
pub fn compare(opts: &ExpOpts) -> String {
    use hpl_workloads::paper;
    let std_rows = run_nas_side(opts, Scheduler::StandardLinux, SchedMode::Cfs);
    let hpl_rows = run_nas_side(opts, Scheduler::Hpl, SchedMode::Hpc);
    let mut out = format!(
        "Paper vs measured ({} reps; paper used 1000)\n\n\
         values: paper -> measured\n\n",
        opts.reps
    );
    let _ = writeln!(
        out,
        "| config | std var% | hpl var% | std mig avg | hpl mig avg | std cs avg | hpl cs avg |"
    );
    let _ = writeln!(
        out,
        "|--------|----------|----------|-------------|-------------|------------|------------|"
    );
    let mut hpl_var_sum = 0.0;
    for (((b, c), (label, std)), (_, hpl)) in hpl_workloads::nas::all_configs()
        .into_iter()
        .zip(&std_rows)
        .zip(&hpl_rows)
    {
        let p = paper::row(b, c);
        let st = std.time_summary();
        let ht = hpl.time_summary();
        hpl_var_sum += ht.variation_pct();
        let _ = writeln!(
            out,
            "| {label} | {:.0} -> {:.0} | {:.2} -> {:.2} | {:.0} -> {:.0} | {:.1} -> {:.1} | {:.0} -> {:.0} | {:.0} -> {:.0} |",
            p.std_time.var_pct,
            st.variation_pct(),
            p.hpl_time.var_pct,
            ht.variation_pct(),
            p.std_migrations.avg,
            std.migration_summary().mean(),
            p.hpl_migrations.avg,
            hpl.migration_summary().mean(),
            p.std_switches.avg,
            std.switch_summary().mean(),
            p.hpl_switches.avg,
            hpl.switch_summary().mean(),
        );
    }
    let _ = writeln!(
        out,
        "\nHPL average variation: paper {:.2}% -> measured {:.2}%",
        paper::hpl_avg_variation_pct(),
        hpl_var_sum / std_rows.len() as f64
    );
    out
}

// -------------------------------------------------------------------
// Extension B — ablations
// -------------------------------------------------------------------

/// Ablation study over the design choices DESIGN.md calls out: class
/// priority alone vs balancing suppression vs static pinning vs NETTICK.
pub fn ablate(opts: &ExpOpts) -> String {
    let mut out =
        String::from("Ablations — ep.A.8 and cg.A.8 execution time under scheduler variants\n\n");
    let variants: [(&str, Scheduler, SchedMode); 7] = [
        ("std-cfs", Scheduler::StandardLinux, SchedMode::Cfs),
        (
            "std-nice-19",
            Scheduler::StandardLinux,
            SchedMode::CfsNice { nice: -19 },
        ),
        ("std-pinned", Scheduler::StandardLinux, SchedMode::CfsPinned),
        (
            "std-rt",
            Scheduler::StandardLinux,
            SchedMode::Rt { prio: 50 },
        ),
        ("hpl-balance-on", Scheduler::HplBalanceOn, SchedMode::Hpc),
        ("hpl", Scheduler::Hpl, SchedMode::Hpc),
        ("hpl-tickless", Scheduler::HplTickless, SchedMode::Hpc),
    ];
    for (bench, class) in [
        (NasBenchmark::Ep, NasClass::A),
        (NasBenchmark::Cg, NasClass::A),
    ] {
        let _ = writeln!(out, "--- {}.{}.8 ---", bench.name(), class.name());
        for (name, sched, mode) in variants {
            let cfg = RunConfig::new(
                format!("{}.{}.8-{name}", bench.name(), class.name()),
                nas_job(bench, class, 8),
                mode,
                sched,
            )
            .with_reps(opts.reps)
            .with_seed(opts.seed);
            let t = run_many(&cfg);
            let _ = writeln!(out, "{}", report::summary_line(name, &t.time_summary()));
            let _ = writeln!(
                out,
                "{:32} avg migrations {:>8.1}   avg switches {:>8.1}",
                "",
                t.migration_summary().mean(),
                t.switch_summary().mean()
            );
        }
        out.push('\n');
    }
    out
}

// -------------------------------------------------------------------
// Extension C — noise-injection sensitivity
// -------------------------------------------------------------------

/// Ferreira-style injection sweep: a fixed-work-quantum probe under
/// controlled per-CPU noise of varying period and duration, for the
/// standard and HPL schedulers. Shows the resonance the literature
/// describes: noise hurts most when its granularity matches the
/// application's.
pub fn noise_sweep(opts: &ExpOpts) -> String {
    let mut out = String::from(
        "Noise injection — probe slowdown vs injected noise (std vs HPL)\n\
         probe: 8 ranks x 200 iterations x 1 ms quantum\n\n",
    );
    let _ = writeln!(
        out,
        "{:>10} {:>10} | {:>12} {:>12}",
        "period", "duration", "std slowdown", "hpl slowdown"
    );
    let probe = || noise_probe_job(8, 200, SimDuration::from_millis(1));
    // Ideal time: measured once on a quiet standard node.
    let ideal_cfg = RunConfig::new(
        "probe-ideal",
        probe(),
        SchedMode::Cfs,
        Scheduler::StandardLinux,
    )
    .with_reps(3)
    .with_seed(opts.seed)
    .with_noise(NoiseKind::Quiet);
    let ideal = run_many(&ideal_cfg).time_summary().min();
    let sweeps = [
        (SimDuration::from_millis(10), SimDuration::from_micros(25)),
        (SimDuration::from_millis(10), SimDuration::from_micros(250)),
        (SimDuration::from_millis(100), SimDuration::from_millis(2)),
        (SimDuration::from_millis(1000), SimDuration::from_millis(25)),
    ];
    let reps = opts.reps.clamp(5, 30);
    for (period, duration) in sweeps {
        let noise = NoiseKind::Injection { period, duration };
        let std_cfg = RunConfig::new(
            "probe-std",
            probe(),
            SchedMode::Cfs,
            Scheduler::StandardLinux,
        )
        .with_reps(reps)
        .with_seed(opts.seed)
        .with_noise(noise.clone());
        let hpl_cfg = RunConfig::new("probe-hpl", probe(), SchedMode::Hpc, Scheduler::Hpl)
            .with_reps(reps)
            .with_seed(opts.seed)
            .with_noise(noise);
        let std_t = run_many(&std_cfg).time_summary().mean();
        let hpl_t = run_many(&hpl_cfg).time_summary().mean();
        let _ = writeln!(
            out,
            "{:>10} {:>10} | {:>12.3} {:>12.3}",
            format!("{period}"),
            format!("{duration}"),
            std_t / ideal,
            hpl_t / ideal
        );
    }
    let _ = writeln!(
        out,
        "\nslowdown = mean probe time / quiet-machine time ({ideal:.3}s).\n\
         HPL's class priority hides injected CFS noise almost entirely."
    );
    out
}

// -------------------------------------------------------------------
// Extension E — strong scaling (the paper's §III motivation)
// -------------------------------------------------------------------

/// Strong-scaling study: the same total problem on 1, 2, 4, 8 ranks
/// under standard Linux and HPL. The paper's §III argument is that OS
/// noise is a *scalability* problem: the more processors synchronise,
/// the more often the slowest one is noise-delayed. With 8 ranks the
/// node is also SMT-saturated, so the standard scheduler's daemons can
/// only run by displacing a rank.
pub fn scaling(opts: &ExpOpts) -> String {
    let mut out =
        String::from("Strong scaling — cg.A total work on 1/2/4/8 ranks (mean of reps)\n\n");
    let _ = writeln!(
        out,
        "{:>6} | {:>12} {:>9} | {:>12} {:>9} | {:>9}",
        "ranks", "std time (s)", "speedup", "hpl time (s)", "speedup", "hpl gain"
    );
    let reps = opts.reps.clamp(3, 50);
    let mut base: Option<(f64, f64)> = None;
    for nprocs in [1u32, 2, 4, 8] {
        let job = nas_job(NasBenchmark::Cg, NasClass::A, nprocs);
        let mut std_sum = 0.0;
        let mut hpl_sum = 0.0;
        for rep in 0..reps {
            let std_cfg = RunConfig::new(
                format!("cg.A.{nprocs}-std"),
                job.clone(),
                SchedMode::Cfs,
                Scheduler::StandardLinux,
            )
            .with_reps(1)
            .with_seed(opts.seed ^ (nprocs as u64) << 8);
            let hpl_cfg = RunConfig::new(
                format!("cg.A.{nprocs}-hpl"),
                job.clone(),
                SchedMode::Hpc,
                Scheduler::Hpl,
            )
            .with_reps(1)
            .with_seed(opts.seed ^ (nprocs as u64) << 8);
            std_sum += crate::harness::run_once(&std_cfg, rep as u64).exec_time_s;
            hpl_sum += crate::harness::run_once(&hpl_cfg, rep as u64).exec_time_s;
        }
        let n = reps as f64;
        let (std_t, hpl_t) = (std_sum / n, hpl_sum / n);
        let (std_base, hpl_base) = *base.get_or_insert((std_t, hpl_t));
        let _ = writeln!(
            out,
            "{:>6} | {:>12.3} {:>8.2}x | {:>12.3} {:>8.2}x | {:>8.1}%",
            nprocs,
            std_t,
            std_base / std_t,
            hpl_t,
            hpl_base / hpl_t,
            (std_t / hpl_t - 1.0) * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\nhpl gain = how much slower standard Linux runs the same job. The\n\
         gap widens with rank count: more synchronising processes give the\n\
         daemons more chances to delay the critical path (§III)."
    );
    out
}

// -------------------------------------------------------------------
// Extension I — user-level scheduler comparison (§IV / Catamount PCT)
// -------------------------------------------------------------------

/// §IV's critique of "sophisticated run-time systems \[that\] dynamically
/// change thread-to-core bindings": a user-level scheduler task that
/// wakes periodically, re-evaluates, and re-pins every rank via
/// `sched_setaffinity`. It pays syscall overhead on every cycle, it
/// perturbs the kernel balancer, and when its placement heuristic
/// "re-balances" (here: rotate one pair with some probability) it
/// invalidates warm caches — while the kernel-level HPL class gets the
/// same protection for free.
pub fn uls(opts: &ExpOpts) -> String {
    use hpl_kernel::{FnProgram, Pid, Step, TaskSpec};
    use hpl_topology::{CpuId, CpuMask};
    let mut out =
        String::from("User-level scheduler — periodic re-pinning vs kernel-level HPL (ep.A.8)\n\n");
    let _ = writeln!(
        out,
        "{:>16} | {:>10} | {:>10} | {:>8} | {:>10}",
        "scheduler", "min (s)", "avg (s)", "var %", "migrations"
    );
    let reps = opts.reps.clamp(5, 60);
    let job = || nas_job(NasBenchmark::Ep, NasClass::A, 8);

    // Reference rows reuse the harness.
    for (name, sched, mode) in [
        ("std-pinned", Scheduler::StandardLinux, SchedMode::CfsPinned),
        ("hpl", Scheduler::Hpl, SchedMode::Hpc),
    ] {
        let cfg = RunConfig::new(format!("ep.A.8-{name}"), job(), mode, sched)
            .with_reps(reps)
            .with_seed(opts.seed);
        let t = run_many(&cfg);
        let ts = t.time_summary();
        let _ = writeln!(
            out,
            "{:>16} | {:>10.3} | {:>10.3} | {:>8.2} | {:>10.1}",
            name,
            ts.min(),
            ts.mean(),
            ts.variation_pct(),
            t.migration_summary().mean()
        );
    }

    // The user-level scheduler row needs a custom driver.
    let uls_cfg = RunConfig::new(
        "ep.A.8-uls",
        job(),
        SchedMode::Cfs,
        Scheduler::StandardLinux,
    )
    .with_seed(opts.seed ^ 0x0715);
    let mut times = Vec::new();
    let mut migs = Vec::new();
    for rep in 0..reps {
        let mut node = build_node(&uls_cfg, rep as u64);
        node.run_for(uls_cfg.warmup);
        let mut session = hpl_perf::PerfSession::open(&node.counters, node.now());
        let handle = launch(&mut node, &uls_cfg.job, uls_cfg.mode);
        // Wait for all ranks to exist, then start the manager.
        node.run_for(SimDuration::from_millis(5));
        let ranks: Vec<Pid> = node
            .tasks
            .iter()
            .filter(|t| t.name.starts_with("rank"))
            .map(|t| t.pid)
            .collect();
        let mut pin: Vec<u32> = (0..ranks.len() as u32).collect();
        let mut step_idx = 0usize;
        let manager = FnProgram::boxed("uls-manager", move |ctx| {
            // Cycle: sleep, syscall overhead, re-pin all ranks.
            let phase = step_idx % (ranks.len() + 2);
            step_idx += 1;
            match phase {
                0 => Step::Sleep(SimDuration::from_millis(100)),
                1 => {
                    // Placement heuristic runs; occasionally "rebalances"
                    // by rotating the pin map.
                    if ctx.rng.chance(0.3) {
                        pin.rotate_right(1);
                    }
                    Step::Compute(SimDuration::from_micros(150))
                }
                k => Step::SetAffinity {
                    target: Some(ranks[k - 2]),
                    mask: CpuMask::single(CpuId(pin[k - 2] % 8)),
                },
            }
        });
        node.spawn(TaskSpec::new(
            "uls-manager",
            hpl_kernel::Policy::Normal { nice: -5 },
            manager,
        ));
        let exec = handle.run_to_completion(&mut node, MAX_EVENTS);
        session.close(&node.counters, node.now());
        times.push(exec.as_secs_f64());
        migs.push(session.delta().sw(hpl_perf::SwEvent::CpuMigrations) as f64);
    }
    let ts = hpl_sim::stats::Summary::from_slice(&times);
    let ms = hpl_sim::stats::Summary::from_slice(&migs);
    let _ = writeln!(
        out,
        "{:>16} | {:>10.3} | {:>10.3} | {:>8.2} | {:>10.1}",
        "user-level sched",
        ts.min(),
        ts.mean(),
        ts.variation_pct(),
        ms.mean()
    );
    let _ = writeln!(
        out,
        "\nThe manager's syscall cycles and rotation 'rebalances' show up as\n\
         migrations and cold caches; §IV: user-level scheduling pays \"repeated\n\
         system call invocations\" and still races the kernel's own scheduler,\n\
         while HPL does the same job below the syscall boundary."
    );
    out
}

// -------------------------------------------------------------------
// Extension D — the power dimension (the paper's future work)
// -------------------------------------------------------------------

/// Energy accounting per scheduler: execution time, energy, mean power,
/// utilisation and energy-delay product for ep.A.8 — quantifying the
/// power cost/benefit of HPL's "spin hot, never migrate" policy.
pub fn energy(opts: &ExpOpts) -> String {
    use hpl_kernel::power::{energy_delay_product, energy_of_window};
    let mut out = String::from("Energy — ep.A.8 per scheduler (POWER6-flavoured power model)\n\n");
    let _ = writeln!(
        out,
        "{:>12} | {:>9} | {:>9} | {:>8} | {:>6} | {:>10}",
        "scheduler", "time (s)", "energy J", "mean W", "util", "EDP (J*s)"
    );
    let reps = opts.reps.clamp(3, 30);
    for (name, sched, mode) in [
        ("std-cfs", Scheduler::StandardLinux, SchedMode::Cfs),
        (
            "std-rt",
            Scheduler::StandardLinux,
            SchedMode::Rt { prio: 50 },
        ),
        ("hpl", Scheduler::Hpl, SchedMode::Hpc),
        ("hpl-tickless", Scheduler::HplTickless, SchedMode::Hpc),
    ] {
        let cfg = RunConfig::new(
            format!("ep.A.8-{name}"),
            nas_job(NasBenchmark::Ep, NasClass::A, 8),
            mode,
            sched,
        )
        .with_seed(opts.seed ^ 0xE0E0);
        let mut time_sum = 0.0;
        let mut joules = 0.0;
        let mut watts = 0.0;
        let mut util = 0.0;
        let mut edp = 0.0;
        for rep in 0..reps {
            let mut node = build_node(&cfg, rep as u64);
            node.run_for(cfg.warmup);
            let mut session = hpl_perf::PerfSession::open(&node.counters, node.now());
            let handle = launch(&mut node, &cfg.job, cfg.mode);
            let exec = handle.run_to_completion(&mut node, MAX_EVENTS);
            session.close(&node.counters, node.now());
            let busy = session.delta().hw(hpl_perf::HwEvent::BusyNs);
            let wall = SimDuration::from_secs_f64(session.elapsed_secs());
            let report = energy_of_window(&node.topo, busy, wall);
            time_sum += exec.as_secs_f64();
            joules += report.total_joules;
            watts += report.mean_watts;
            util += report.utilisation;
            edp += energy_delay_product(&report, exec);
        }
        let n = reps as f64;
        let _ = writeln!(
            out,
            "{:>12} | {:>9.3} | {:>9.1} | {:>8.2} | {:>5.1}% | {:>10.1}",
            name,
            time_sum / n,
            joules / n,
            watts / n,
            util / n * 100.0,
            edp / n
        );
    }
    let _ = writeln!(
        out,
        "\nHPL finishes sooner at near-identical utilisation, so it wins on\n\
         energy-delay product; the tickless variant shaves the residual\n\
         tick overhead (NETTICK's contribution)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOpts {
        ExpOpts {
            reps: 3,
            seed: 1,
            out_dir: None,
        }
    }

    #[test]
    fn fig1_shows_iterations() {
        let out = fig1(&tiny_opts());
        assert!(out.contains("iteration"));
        assert!(out.lines().count() > 12);
    }

    #[test]
    fn fig3_reports_correlation() {
        let out = fig3(&tiny_opts(), Fig3Panel::Migrations);
        assert!(out.contains("Pearson"));
    }

    #[test]
    fn csv_written_when_out_dir_set() {
        let dir = std::env::temp_dir().join(format!("hpl-exp-{}", std::process::id()));
        let opts = ExpOpts {
            reps: 3,
            seed: 1,
            out_dir: Some(dir.clone()),
        };
        let _ = fig2(&opts);
        assert!(dir.join("fig2.csv").exists());
        let _ = std::fs::remove_dir_all(dir);
    }
}
