//! Distribution-equivalence gate for the paper's per-run records.
//!
//! `paper_golden` pins the paper's experiments bit for bit, so it cannot
//! tell a change that is exact in real arithmetic but moves
//! floating-point bits from a regression. This gate can: it reruns the
//! paper's cells and compares each metric's distribution with a
//! recorded baseline by a two-sample Kolmogorov–Smirnov test, the way
//! Mohammed et al. (arXiv 1910.06844) validate a simulator against the
//! real system.
//!
//! Fixed parameters, chosen before any change was run through the gate:
//! - cells: every Table II configuration (12 NAS configs × standard
//!   Linux/CFS and HPL/HPC, built as `paper_golden`'s
//!   `table_run_records` builds them) and Figure 4's RT cell (ep.A.8,
//!   SCHED_FIFO, standard Linux);
//! - [`REPS`] = 300 runs per cell at seed [`SEED`]. At 100 runs the gate
//!   missed a zero CFS `SLEEPER_BONUS` (smallest p 1.3e-3); at 300 it fails it;
//! - metrics: execution time (ns), context switches, CPU migrations;
//! - family-wise α = 0.05, Bonferroni-corrected over all 75
//!   (cell, metric) comparisons.
//!
//! It also checks Table II's claims on the fresh runs: HPL var% < 3 in
//! every cell, and HPL's fastest run no slower than standard Linux's.
//!
//! Both tests are `#[ignore]`d: they run the full cell set (72–86 s in
//! release on a 2-vCPU VM). The gate:
//! `cargo test --release -p hpl-bench --test paper_distributions -- --ignored distributions_match`.
//! The baseline is data this file generates; re-record it only when a
//! change is meant to move the paper's distributions:
//! `cargo test --release -p hpl-bench --test paper_distributions -- --ignored record_baseline`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use hpl_bench::{run_many, RunConfig, Scheduler};
use hpl_mpi::SchedMode;
use hpl_sim::stats::{ks_two_sample, Summary};
use hpl_workloads::nas::{all_configs, NasBenchmark, NasClass};
use hpl_workloads::nas_job;

const SEED: u64 = 0x5EED;
const REPS: u32 = 300;
const ALPHA: f64 = 0.05;
const METRICS: [&str; 3] = ["exec_ns", "switches", "migrations"];

/// One run: execution time (ns), context switches, CPU migrations.
type Record = [u64; 3];

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/paper_distributions.txt")
}

/// Every gated cell, labelled `<config>/<kernel>`.
fn cells() -> Vec<(String, RunConfig)> {
    let mut out = Vec::new();
    for (kernel, sched, mode) in [
        ("std", Scheduler::StandardLinux, SchedMode::Cfs),
        ("hpl", Scheduler::Hpl, SchedMode::Hpc),
    ] {
        for (b, c) in all_configs() {
            let config = format!("{}.{}.8", b.name(), c.name());
            let cfg = RunConfig::new(config.clone(), nas_job(b, c, 8), mode, sched);
            out.push((format!("{config}/{kernel}"), cfg));
        }
    }
    let ep = nas_job(NasBenchmark::Ep, NasClass::A, 8);
    let rt = RunConfig::new(
        "ep.A.8",
        ep,
        SchedMode::Rt { prio: 50 },
        Scheduler::StandardLinux,
    );
    out.push(("ep.A.8/rt".to_string(), rt));
    out
}

/// Run every cell; records in cell order, runs in rep order.
fn run_cells() -> Vec<(String, Vec<Record>)> {
    cells()
        .into_iter()
        .map(|(label, cfg)| {
            let table = run_many(&cfg.with_reps(REPS).with_seed(SEED));
            assert!(table.all_completed(), "{label}: a run did not complete");
            let records = table
                .records()
                .iter()
                .map(|r| {
                    [
                        (r.exec_time_s * 1e9).round() as u64,
                        r.context_switches,
                        r.cpu_migrations,
                    ]
                })
                .collect();
            (label, records)
        })
        .collect()
}

fn read_baseline() -> BTreeMap<String, Vec<Record>> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; record it first", path.display()));
    let mut cells: BTreeMap<String, Vec<Record>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [cell, _run, exec, switches, migrations] = f[..] else {
            panic!("malformed baseline line: {line:?}");
        };
        let num = |s: &str| s.parse::<u64>().expect("baseline field is a count");
        cells.entry(cell.to_string()).or_default().push([
            num(exec),
            num(switches),
            num(migrations),
        ]);
    }
    cells
}

#[test]
#[ignore = "reruns the full cell set; re-records the committed baseline"]
fn record_baseline() {
    let mut text = format!(
        "# Per-run records of the paper's cells: seed {SEED:#x}, {REPS} reps.\n\
         # Written by crates/bench/tests/paper_distributions.rs (record_baseline).\n\
         # cell run exec_ns switches migrations\n"
    );
    for (label, records) in run_cells() {
        for (run, [exec, switches, migrations]) in records.iter().enumerate() {
            let _ = writeln!(text, "{label} {run} {exec} {switches} {migrations}");
        }
    }
    let path = baseline_path();
    std::fs::create_dir_all(path.parent().expect("data dir")).expect("create data dir");
    std::fs::write(&path, text).expect("write baseline");
}

#[test]
#[ignore = "reruns the full cell set (minutes in release)"]
fn distributions_match_the_baseline() {
    let baseline = read_baseline();
    let fresh = run_cells();
    assert_eq!(
        baseline.len(),
        fresh.len(),
        "the baseline's cells differ from this file's cell list"
    );
    let threshold = ALPHA / (fresh.len() * METRICS.len()) as f64;
    let mut failures = Vec::new();
    let (mut max_d, mut min_p, mut min_at) = (0.0f64, f64::INFINITY, String::new());
    for (label, records) in &fresh {
        let old = baseline
            .get(label)
            .unwrap_or_else(|| panic!("{label}: not in the baseline"));
        for (k, metric) in METRICS.iter().enumerate() {
            let column = |rs: &[Record]| rs.iter().map(|r| r[k] as f64).collect::<Vec<_>>();
            let (d, p) = ks_two_sample(&column(old), &column(records));
            println!("{label:<12} {metric:<10} D {d:.3} p {p:.3e}");
            max_d = max_d.max(d);
            if p < min_p {
                (min_p, min_at) = (p, format!("{label} {metric} (D {d:.3})"));
            }
            if p < threshold {
                failures.push(format!("{label} {metric}: D {d:.3}, p {p:.3e}"));
            }
        }
    }
    println!("max D {max_d:.3}; min p {min_p:.3e} at {min_at}; threshold {threshold:.2e}");
    assert!(
        failures.is_empty(),
        "distributions moved (p < {threshold:.2e}):\n{}",
        failures.join("\n")
    );

    // Table II's claims, on the fresh runs.
    let exec_s = |label: &str| {
        let (_, rs) = fresh.iter().find(|(l, _)| l == label).expect("cell ran");
        Summary::from_slice(&rs.iter().map(|r| r[0] as f64 / 1e9).collect::<Vec<_>>())
    };
    for (b, c) in all_configs() {
        let config = format!("{}.{}.8", b.name(), c.name());
        let (std, hpl) = (
            exec_s(&format!("{config}/std")),
            exec_s(&format!("{config}/hpl")),
        );
        assert!(
            hpl.variation_pct() < 3.0,
            "{config}: HPL var% {:.2} ≥ 3",
            hpl.variation_pct()
        );
        assert!(
            hpl.min() <= std.min(),
            "{config}: HPL min {:.4} s > std min {:.4} s",
            hpl.min(),
            std.min()
        );
    }
}
