//! Repository benchmark: the host cost of simulating the HPL scheduler
//! study, end to end and per phase.
//!
//! Usage:
//!
//! ```text
//! perfbench --workload <node|cluster|batch|coord> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run first computes case 0 on the alternate host path (reference
//! event loop or pooled window stepping; see [`workloads::HostPath`]),
//! which also warms caches and the allocator. It then measures on the
//! measured path in [`ROUNDS`] rounds: the first runs cases `0, 1, 2, …`
//! for its share of `--seconds`, the later ones rerun those same cases.
//! Each case boots fresh simulated hardware from inputs derived from
//! `(seed, case index)`; its repeats must agree bit for bit. Of each
//! case the repeat with the fastest run and the repeat with the fastest
//! boot are kept whole, which sheds the bursts of interference a shared
//! host adds without mixing phases of different repeats. Before every
//! repeat the [`calibrate`] kernel is timed; a case's times are scaled
//! by its fastest kernel time to the reference machine's speed, which
//! cancels the drift of a shared host's speed between runs. Finally
//! case 0 must have come out bit-identical on both host paths.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-phase
//! ledger. See `README.md` for the metric definitions.

mod calibrate;
mod ledger;
mod workloads;

use ledger::{Ledger, Phase};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{HostPath, Outcome};

const USAGE: &str = "usage: perfbench --workload <node|cluster|batch|coord> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Times each case runs, once per round; its phases are charged their
/// fastest time.
const ROUNDS: usize = 5;

/// Cases run even when `--seconds` is up, so every statistic has samples.
const MIN_CASES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: {value:?} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Median of unsorted samples (mean of the middle pair when even).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One measured case: two of its repeats, each kept whole, and the
/// outcome every repeat reproduced.
struct Case {
    /// The repeat with the smallest `run_ns`.
    run: Ledger,
    /// The repeat with the smallest `boot_ns`.
    boot: Ledger,
    /// The fastest calibration kernel timed just before a repeat.
    calibration_ns: u64,
    outcome: Outcome,
}

impl Case {
    /// Factor from this case's host times to reference-machine times.
    fn scale(&self) -> f64 {
        calibrate::REFERENCE_NS / self.calibration_ns as f64
    }
}

/// Median over cases of `f`.
fn per_case(cases: &[Case], f: impl Fn(&Case) -> f64) -> f64 {
    let v: Vec<f64> = cases.iter().map(f).collect();
    median(&v)
}

/// The metrics `BENCHMARK.json` lists under `end_to_end`.
fn end_to_end(cases: &[Case]) -> Vec<Metric> {
    vec![
        metric(
            "run_ms",
            per_case(cases, |c| c.run.run_ns() as f64 * c.scale() / 1e6),
            "ms",
        ),
        metric(
            "events_per_s",
            per_case(cases, |c| {
                let o = &c.outcome;
                (o.boot_events + o.drive_events) as f64 * 1e9
                    / ((c.run.boot_ns() + c.run.run_ns()) as f64 * c.scale())
            }),
            "1/s",
        ),
        metric(
            "setup_s",
            per_case(cases, |c| c.boot.boot_ns() as f64 * c.scale() / 1e9),
            "s",
        ),
    ]
}

/// The metrics `BENCHMARK.json` lists under `per_layer`.
fn per_layer(cases: &[Case]) -> Vec<Metric> {
    let mut out: Vec<Metric> = Phase::ALL
        .iter()
        .map(|&p| {
            let ms = per_case(cases, |c| {
                let l = if matches!(p, Phase::Build | Phase::Warm) {
                    &c.boot
                } else {
                    &c.run
                };
                l.ns(p) as f64 * c.scale() / 1e6
            });
            metric(format!("{}_ms", p.name()), ms, "ms")
        })
        .collect();
    out.push(metric(
        "drive_events_per_s",
        per_case(cases, |c| {
            c.outcome.drive_events as f64 * 1e9 / (c.run.ns(Phase::Drive) as f64 * c.scale())
        }),
        "1/s",
    ));
    out.push(metric(
        "events",
        per_case(cases, |c| {
            (c.outcome.boot_events + c.outcome.drive_events) as f64
        }),
        "count",
    ));
    out.push(metric(
        "virtual_ms",
        per_case(cases, |c| c.outcome.virtual_ns as f64 / 1e6),
        "ms",
    ));
    out.push(metric(
        "switches",
        per_case(cases, |c| c.outcome.switches as f64),
        "count",
    ));
    out.push(metric(
        "migrations",
        per_case(cases, |c| c.outcome.migrations as f64),
        "count",
    ));
    out.push(metric(
        "calibration_ms",
        per_case(cases, |c| c.calibration_ns as f64 / 1e6),
        "ms",
    ));
    out.push(metric("cases", cases.len() as f64, "count"));
    out
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One case's measurements so far.
enum Slot {
    Pending,
    Measured(Case),
    Failed,
}

/// Run case `index` once more on the measured path and fold it into
/// `slot`. A failed case is not run again.
fn measure(name: &str, seed: u64, index: u64, slot: &mut Slot) {
    if matches!(slot, Slot::Failed) {
        return;
    }
    let calibration_ns = calibrate::kernel_ns();
    let mut ledger = Ledger::default();
    let result = workloads::run_case(name, seed, index, HostPath::Measured, &mut ledger);
    *slot = match (std::mem::replace(slot, Slot::Failed), result) {
        (_, Err(e)) => {
            eprintln!("perfbench: {name} case {index} failed: {e}");
            Slot::Failed
        }
        (Slot::Measured(mut case), Ok(outcome)) if case.outcome == outcome => {
            case.calibration_ns = case.calibration_ns.min(calibration_ns);
            if ledger.run_ns() < case.run.run_ns() {
                case.run = ledger;
            }
            if ledger.boot_ns() < case.boot.boot_ns() {
                case.boot = ledger;
            }
            Slot::Measured(case)
        }
        (Slot::Measured(case), Ok(outcome)) => {
            eprintln!(
                "perfbench: {name} case {index} repeat differs: {:?} vs {outcome:?}",
                case.outcome
            );
            Slot::Failed
        }
        (_, Ok(outcome)) => Slot::Measured(Case {
            run: ledger,
            boot: ledger,
            calibration_ns,
            outcome,
        }),
    };
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.as_str();

    let reference = workloads::run_case(
        name,
        args.seed,
        0,
        HostPath::Alternate,
        &mut Ledger::default(),
    );

    // The first round runs new cases until its share of the time is up;
    // the later rounds rerun those same cases, so each case's repeats
    // lie a round apart and a burst of host interference rarely hits
    // all of them.
    let round_budget = Duration::from_secs(args.seconds) / ROUNDS as u32;
    let start = Instant::now();
    let mut slots = Vec::new();
    while start.elapsed() < round_budget || slots.len() < MIN_CASES {
        let mut slot = Slot::Pending;
        measure(name, args.seed, slots.len() as u64, &mut slot);
        slots.push(slot);
    }
    for _ in 1..ROUNDS {
        for (index, slot) in slots.iter_mut().enumerate() {
            measure(name, args.seed, index as u64, slot);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let attempted = slots.len();
    let failed = slots.iter().filter(|s| matches!(s, Slot::Failed)).count();
    let case0 = match &slots[0] {
        Slot::Measured(c) => Some(c.outcome),
        _ => None,
    };
    let cases: Vec<Case> = slots
        .into_iter()
        .filter_map(|s| match s {
            Slot::Measured(c) => Some(c),
            _ => None,
        })
        .collect();

    let replay_ok = match (&reference, case0) {
        (Ok(a), Some(b)) if *a == b => true,
        (Ok(a), Some(b)) => {
            eprintln!("perfbench: case 0 differs across host paths: {a:?} vs {b:?}");
            false
        }
        (Err(e), _) => {
            eprintln!("perfbench: case 0 on the alternate path failed: {e}");
            false
        }
        (Ok(_), None) => false,
    };
    let correct = failed == 0 && replay_ok;

    let metrics = if args.trace {
        per_layer(&cases)
    } else {
        end_to_end(&cases)
    };
    eprintln!(
        "perfbench {name}: seed {} | {} cases x {ROUNDS} in {wall:.2} s | host paths {} | \
         unscaled run {:.4} ms, calibration {:.4} ms | {}",
        args.seed,
        cases.len(),
        if replay_ok { "agree" } else { "DIFFER" },
        per_case(&cases, |c| c.run.run_ns() as f64 / 1e6),
        per_case(&cases, |c| c.calibration_ns as f64 / 1e6),
        metrics
            .iter()
            .map(|m| format!("{} {:.4} {}", m.name, m.value, m.unit))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("{}", json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
