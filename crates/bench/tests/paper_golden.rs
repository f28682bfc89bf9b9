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
    check("fig1", &experiments::fig1(&opts()), 0x75f8_8eee_0468_ec64);
}

#[test]
fn fig2() {
    check("fig2", &experiments::fig2(&opts()), 0xa120_a776_7e16_d1cd);
}

#[test]
fn fig3_both_panels() {
    check(
        "fig3a",
        &experiments::fig3(&opts(), Fig3Panel::Migrations),
        0x9711_b07e_cb6e_579d,
    );
    check(
        "fig3b",
        &experiments::fig3(&opts(), Fig3Panel::Switches),
        0x57d5_8583_f984_60dc,
    );
}

#[test]
fn fig4() {
    check("fig4", &experiments::fig4(&opts()), 0xae75_f77c_02ef_0fb2);
}

#[test]
fn table1a() {
    check(
        "table1a",
        &experiments::table1(&opts(), false),
        0x43b3_675e_d65e_c3be,
    );
}

#[test]
fn table1b() {
    check(
        "table1b",
        &experiments::table1(&opts(), true),
        0x50d4_931a_6d98_7d2f,
    );
}

#[test]
fn table2() {
    check(
        "table2",
        &experiments::table2(&opts()),
        0x80e0_e04b_7563_37cc,
    );
}

#[test]
fn compare() {
    check(
        "compare",
        &experiments::compare(&opts()),
        0x1f3a_923f_3f4c_53e8,
    );
}

#[test]
fn ablate() {
    check(
        "ablate",
        &experiments::ablate(&opts()),
        0x2aba_f16e_301d_17cf,
    );
}

#[test]
fn noise_sweep() {
    check(
        "noise_sweep",
        &experiments::noise_sweep(&opts()),
        0xde01_cb21_6fa6_e37f,
    );
}

#[test]
fn scaling() {
    check(
        "scaling",
        &experiments::scaling(&opts()),
        0x3ef4_b38a_9d28_51c6,
    );
}

#[test]
fn energy() {
    check(
        "energy",
        &experiments::energy(&opts()),
        0x3004_7a22_ec2c_05b0,
    );
}

#[test]
fn uls() {
    check("uls", &experiments::uls(&opts()), 0x4337_147f_8c04_6269);
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
    check("records", &text, 0xfecb_3531_bbb0_277b);
}
