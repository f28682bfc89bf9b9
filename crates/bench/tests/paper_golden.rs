//! Golden digests for every `repro` experiment: the text of Figures
//! 1–4, Tables Ia, Ib and II and the extensions (`compare`, `ablate`,
//! `noise-sweep`, `scaling`, `energy`, `uls`) as `repro` prints it, and
//! the raw per-run records behind the tables.
//!
//! Every experiment runs at one repetition and a fixed seed. The
//! experiment functions return their report without the wall-clock
//! footer `repro` appends, so the text is a pure function of the seed.
//! The tables round execution times to 0.01 s, so the record digest —
//! execution time in ns, context switches and CPU migrations of every
//! run under both schedulers — guards what the text cannot see.
//!
//! To re-record after an intentional behaviour change, run
//! `cargo test --release -p hpl-bench --test paper_golden -- --nocapture`
//! and copy the printed digests.

use hpl_bench::experiments::{self, ExpOpts, Fig3Panel};
use hpl_bench::{run_many, RunConfig, Scheduler};
use hpl_mpi::SchedMode;
use hpl_workloads::nas::all_configs;
use hpl_workloads::nas_job;

const SEED: u64 = 0x5EED;

fn opts() -> ExpOpts {
    ExpOpts {
        reps: 1,
        seed: SEED,
        out_dir: None,
    }
}

/// FNV-1a over the bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

fn check(name: &str, text: &str, want: u64) {
    let got = digest(text.as_bytes());
    println!("{name}: {got:#018x}");
    assert_eq!(got, want, "{name}: digest moved; report:\n{text}");
}

#[test]
fn fig1() {
    check("fig1", &experiments::fig1(&opts()), 0x2a68_11de_abac_c103);
}

#[test]
fn fig2() {
    check("fig2", &experiments::fig2(&opts()), 0x363a_9d26_2197_d5be);
}

#[test]
fn fig3_both_panels() {
    check(
        "fig3a",
        &experiments::fig3(&opts(), Fig3Panel::Migrations),
        0x6d06_1c65_d375_fac5,
    );
    check(
        "fig3b",
        &experiments::fig3(&opts(), Fig3Panel::Switches),
        0x2484_4f54_cab8_654a,
    );
}

#[test]
fn fig4() {
    check("fig4", &experiments::fig4(&opts()), 0x98a9_dee3_9704_4984);
}

#[test]
fn table1a() {
    check(
        "table1a",
        &experiments::table1(&opts(), false),
        0x3e24_acbe_8e48_8577,
    );
}

#[test]
fn table1b() {
    check(
        "table1b",
        &experiments::table1(&opts(), true),
        0x6cb0_fedb_bd24_cac6,
    );
}

#[test]
fn table2() {
    check(
        "table2",
        &experiments::table2(&opts()),
        0x5d73_9001_b8be_94dc,
    );
}

#[test]
fn compare() {
    check(
        "compare",
        &experiments::compare(&opts()),
        0xaa1d_0c79_d710_9d42,
    );
}

#[test]
fn ablate() {
    check(
        "ablate",
        &experiments::ablate(&opts()),
        0x96f1_c1f6_a193_5e30,
    );
}

#[test]
fn noise_sweep() {
    check(
        "noise_sweep",
        &experiments::noise_sweep(&opts()),
        0x7217_7b85_3811_f478,
    );
}

#[test]
fn scaling() {
    check(
        "scaling",
        &experiments::scaling(&opts()),
        0x8e29_3b38_3a70_cc3a,
    );
}

#[test]
fn energy() {
    check(
        "energy",
        &experiments::energy(&opts()),
        0x549b_efc8_1223_ffec,
    );
}

#[test]
fn uls() {
    check("uls", &experiments::uls(&opts()), 0xf3b3_6f2a_63a6_3579);
}

/// One line per run of every NAS configuration under both schedulers,
/// built the way Tables I and II build their runs.
#[test]
fn table_run_records() {
    let mut text = String::new();
    for (sched, mode) in [
        (Scheduler::StandardLinux, SchedMode::Cfs),
        (Scheduler::Hpl, SchedMode::Hpc),
    ] {
        for (b, c) in all_configs() {
            let label = format!("{}.{}.8", b.name(), c.name());
            let cfg = RunConfig::new(label.clone(), nas_job(b, c, 8), mode, sched)
                .with_reps(1)
                .with_seed(SEED);
            for r in run_many(&cfg).records() {
                text += &format!(
                    "{label} {sched:?} run {} exec_ns {} switches {} migrations {}\n",
                    r.run,
                    (r.exec_time_s * 1e9).round() as u64,
                    r.context_switches,
                    r.cpu_migrations
                );
            }
        }
    }
    check("records", &text, 0x4d69_4adc_2eb7_f700);
}
