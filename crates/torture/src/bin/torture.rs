//! `hpl-torture` — seeded scheduler fuzzing with invariant oracles.
//!
//! Runs N random scenarios, each on both event-loop flavours with an
//! invariant oracle attached per node, plus a shrinker selftest (a
//! deliberately injected scheduler bug must be caught and shrunk to a
//! replayable artifact with a complete Chrome trace) and a
//! mechanistic-vs-analytic differential.
//!
//! ```text
//! torture [--scenarios N] [--seed S] [--smoke] [--faults] [--replay FILE]
//!         [--out DIR] [--skip-selftest] [--skip-analytic]
//! ```
//!
//! `--faults` forces a fault plan (message loss, degrade windows,
//! crash/restart churn on batch workloads) onto every multi-node
//! scenario instead of leaving the plan to the sampler's dice.
//!
//! Exit code 0 = everything held; 1 = a failure was found (artifact
//! paths are printed).

use hpl_kernel::observe::validate_chrome_trace;
use hpl_mpi::SchedMode;
use hpl_torture::artifact::{read_artifact, write_failure};
use hpl_torture::runner::{analytic_differential, check_scenario};
use hpl_torture::scenario::{Fault, Scenario, Workload};
use hpl_torture::shrink::shrink;
use std::path::{Path, PathBuf};

struct Args {
    scenarios: u64,
    seed: u64,
    smoke: bool,
    faults: bool,
    replay: Option<PathBuf>,
    out: PathBuf,
    selftest: bool,
    analytic: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        scenarios: 200,
        seed: 0x70A7,
        smoke: false,
        faults: false,
        replay: None,
        out: PathBuf::from("target/torture"),
        selftest: true,
        analytic: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--scenarios" => a.scenarios = val("--scenarios").parse().expect("bad --scenarios"),
            "--seed" => {
                let v = val("--seed");
                a.seed = v
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16).expect("bad --seed"))
                    .unwrap_or_else(|| v.parse().expect("bad --seed"));
            }
            "--smoke" => {
                a.smoke = true;
                a.scenarios = 40;
            }
            "--faults" => a.faults = true,
            "--replay" => a.replay = Some(PathBuf::from(val("--replay"))),
            "--out" => a.out = PathBuf::from(val("--out")),
            "--skip-selftest" => a.selftest = false,
            "--skip-analytic" => a.analytic = false,
            "--help" | "-h" => {
                println!(
                    "torture [--scenarios N] [--seed S] [--smoke] [--faults] [--replay FILE] \
                     [--out DIR] [--skip-selftest] [--skip-analytic]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    a
}

fn describe(sc: &Scenario) -> String {
    let wl = match &sc.workload {
        Workload::Mpi(m) => format!("mpi {}r/{:?} {} ops", m.ranks_per_node, m.mode, m.ops.len()),
        Workload::Soup(s) => format!("soup {} tasks", s.tasks.len()),
        Workload::Batch(b) => format!("batch {:?} {} jobs", b.policy, b.jobs.len()),
    };
    format!(
        "n{} {:?}{}{}{}{} noise{}% {}",
        sc.nodes,
        sc.topo,
        if sc.hpl { " hpl" } else { "" },
        if sc.tickless { " tickless" } else { "" },
        if sc.switched { " switched" } else { "" },
        if sc.faults.is_none() { "" } else { " faults" },
        sc.noise_pct,
        wl
    )
}

/// Run one scenario through the full check; on failure, shrink and
/// write artifacts. Returns false if the scenario failed.
fn torture_one(sc: &Scenario, out: &Path) -> bool {
    let failures = check_scenario(sc);
    if failures.is_empty() {
        return true;
    }
    eprintln!("FAILURE seed={:#x}: {}", sc.seed, describe(sc));
    for f in &failures {
        eprintln!("  {f}");
    }
    eprintln!("  shrinking...");
    let shrunk = shrink(sc, |step| eprintln!("    shrunk: {step}"));
    eprintln!(
        "  minimised after {} runs: {}",
        shrunk.runs,
        describe(&shrunk.scenario)
    );
    match write_failure(out, &shrunk) {
        Ok(paths) => {
            eprintln!("  artifact: {}", paths.scenario.display());
            if let Some(t) = paths.trace {
                eprintln!("  trace:    {}", t.display());
            }
        }
        Err(e) => eprintln!("  artifact write failed: {e}"),
    }
    false
}

/// The shrinker selftest: inject a real scheduler bug (HPC wakeups
/// migrate to the next CPU, violating migrate-only-at-fork), confirm
/// the oracle catches it, shrink it, write the artifact, check its
/// Chrome trace, then re-parse the artifact and confirm the replay
/// still fails.
fn selftest(out: &Path) -> bool {
    // A scenario guaranteed to exercise HPC wakeups: HPC-mode MPI job,
    // whose init handshake sleeps and wakes every rank.
    let mut sc = Scenario::sample(0x5E1F, 7);
    sc.fault = Fault::HpcWakeupMigrate;
    sc.hpl = true;
    sc.nodes = 1;
    if let Workload::Soup(_) = sc.workload {
        // Need an HPC workload; resample MPI and force the mode.
        for i in 0.. {
            let cand = Scenario::sample(0x5E1F, i);
            if let Workload::Mpi(_) = cand.workload {
                sc = cand;
                sc.fault = Fault::HpcWakeupMigrate;
                sc.hpl = true;
                sc.nodes = 1;
                break;
            }
        }
    }
    if let Workload::Mpi(m) = &mut sc.workload {
        m.mode = SchedMode::Hpc;
    }
    let failures = check_scenario(&sc);
    if failures.is_empty() {
        eprintln!("selftest: injected hpc-migrate fault was NOT caught");
        return false;
    }
    if !failures.iter().any(|f| f.detail.contains("hpc-migrate")) {
        eprintln!("selftest: fault caught but not by the hpc-migrate rule:");
        for f in &failures {
            eprintln!("  {f}");
        }
        return false;
    }
    let shrunk = shrink(&sc, |_| {});
    let paths = match write_failure(out, &shrunk) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("selftest: artifact write failed: {e}");
            return false;
        }
    };
    if let Err(e) = check_trace_artifact(paths.trace.as_deref()) {
        eprintln!("selftest: trace artifact: {e}");
        return false;
    }
    let replayed = match read_artifact(&paths.scenario) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("selftest: artifact did not re-parse: {e}");
            return false;
        }
    };
    if check_scenario(&replayed).is_empty() {
        eprintln!("selftest: replayed artifact no longer fails");
        return false;
    }
    println!(
        "selftest: injected fault caught, shrunk in {} runs ({} steps), artifact replays: {}",
        shrunk.runs,
        shrunk.steps.len(),
        paths.scenario.display()
    );
    true
}

/// A failure's Chrome trace must exist, parse as a trace with at least
/// one occupancy slice, and report that its ring dropped nothing.
fn check_trace_artifact(path: Option<&Path>) -> Result<(), String> {
    let path = path.ok_or("no trace written")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let stats = validate_chrome_trace(&json)?;
    if stats.complete_events == 0 {
        return Err(format!("{}: no occupancy slice", path.display()));
    }
    if !json.ends_with("\"dropped\":0}}") {
        return Err(format!("{}: the trace ring dropped events", path.display()));
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    let mut failed = 0u64;

    if let Some(path) = &args.replay {
        let sc = match read_artifact(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("replay: {e}");
                std::process::exit(2);
            }
        };
        println!("replaying {}: {}", path.display(), describe(&sc));
        if torture_one(&sc, &args.out) {
            println!("replay passed: no violations, loops agree");
            std::process::exit(0);
        }
        std::process::exit(1);
    }

    println!(
        "torture: {} scenarios, base seed {:#x} (both event loops, oracle per node)",
        args.scenarios, args.seed
    );
    for i in 0..args.scenarios {
        let mut sc = Scenario::sample(args.seed, i);
        if args.faults && sc.nodes > 1 && sc.faults.is_none() {
            sc.install_fault_plan(args.seed ^ i.rotate_left(17));
        }
        if !torture_one(&sc, &args.out) {
            failed += 1;
        }
        if (i + 1) % 50 == 0 {
            println!("  {}/{} scenarios done", i + 1, args.scenarios);
        }
    }
    println!(
        "scenarios: {}/{} clean",
        args.scenarios - failed,
        args.scenarios
    );

    if args.selftest && !selftest(&args.out) {
        failed += 1;
    }

    if args.analytic {
        let diffs = analytic_differential(args.seed, 0.15);
        if diffs.is_empty() {
            println!("analytic differential: mechanistic cluster within 15% of resonance model");
        } else {
            for d in &diffs {
                eprintln!("analytic differential: {d}");
            }
            failed += 1;
        }
    }

    if failed > 0 {
        eprintln!("torture: FAILED ({failed} problem(s))");
        std::process::exit(1);
    }
    println!("torture: all checks held");
}
