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
    check("fig1", &experiments::fig1(&opts()), 0x9aea_40f3_cb1a_2482);
}

#[test]
fn fig2() {
    check("fig2", &experiments::fig2(&opts()), 0x87d4_73a7_773f_58e1);
}

#[test]
fn fig3_both_panels() {
    check(
        "fig3a",
        &experiments::fig3(&opts(), Fig3Panel::Migrations),
        0xb968_892d_972f_fe95,
    );
    check(
        "fig3b",
        &experiments::fig3(&opts(), Fig3Panel::Switches),
        0x1a14_fdfa_cace_7264,
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
        0x64fc_7031_cf63_eff3,
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
        0xeaf7_6bd7_4ac7_5855,
    );
}

#[test]
fn compare() {
    check(
        "compare",
        &experiments::compare(&opts()),
        0x2f1e_e75d_0195_fb03,
    );
}

#[test]
fn ablate() {
    check(
        "ablate",
        &experiments::ablate(&opts()),
        0x2f96_b9f0_8349_87d6,
    );
}

#[test]
fn noise_sweep() {
    check(
        "noise_sweep",
        &experiments::noise_sweep(&opts()),
        0x23aa_b46f_3172_c4b6,
    );
}

#[test]
fn scaling() {
    check(
        "scaling",
        &experiments::scaling(&opts()),
        0x3a68_51de_5147_dd47,
    );
}

#[test]
fn energy() {
    check(
        "energy",
        &experiments::energy(&opts()),
        0xccac_199a_8492_6be8,
    );
}

#[test]
fn uls() {
    check("uls", &experiments::uls(&opts()), 0x37c8_d467_f4a8_ec32);
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
    check("records", &text, 0xaf2a_40f0_4c98_dcac);
}
