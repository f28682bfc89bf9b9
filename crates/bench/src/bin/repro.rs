//! `repro` — regenerate every table and figure of the paper, plus the
//! five extensions.
//!
//! ```text
//! repro <experiment> [--reps N] [--seed S] [--out DIR]
//! ```
//!
//! `repro` with no arguments lists the experiments (described in the
//! `hpl-bench` crate docs); `all` runs them in order. The paper uses
//! 1000 repetitions; the default here is 100 (pass `--reps 1000` to
//! match — statistics converge long before that).

use hpl_bench::experiments::{self, ExpOpts, Fig3Panel};

/// An experiment's entry point: options in, report out.
type Experiment = fn(&ExpOpts) -> String;

/// Every experiment, in `all` order. Drives dispatch, `all` and the
/// usage text.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig1", experiments::fig1),
    ("fig2", experiments::fig2),
    ("fig3a", |o| experiments::fig3(o, Fig3Panel::Migrations)),
    ("fig3b", |o| experiments::fig3(o, Fig3Panel::Switches)),
    ("fig4", experiments::fig4),
    ("table1a", |o| experiments::table1(o, false)),
    ("table1b", |o| experiments::table1(o, true)),
    ("table2", experiments::table2),
    ("compare", experiments::compare),
    ("ablate", experiments::ablate),
    ("noise-sweep", experiments::noise_sweep),
    ("energy", experiments::energy),
    ("scaling", experiments::scaling),
    ("uls", experiments::uls),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro <{}|all> [--reps N] [--seed S] [--out DIR]",
        names.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut opts = ExpOpts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                opts.reps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                opts.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                opts.out_dir = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            name if which.is_none() && !name.starts_with('-') => {
                which = Some(name.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    let which = which.unwrap_or_else(|| usage());
    let selected: Vec<_> = if which == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        match EXPERIMENTS.iter().find(|(name, _)| *name == which) {
            Some(exp) => vec![exp],
            None => usage(),
        }
    };
    if opts.reps == 0 {
        eprintln!("error: --reps must be at least 1");
        std::process::exit(2);
    }

    for (name, run) in selected {
        if which == "all" {
            println!("{:=^78}", format!(" {name} "));
        }
        let start = std::time::Instant::now();
        let body = run(&opts);
        println!(
            "{body}\n[{name}: {:.1}s wall, reps={}, seed={}]\n",
            start.elapsed().as_secs_f64(),
            opts.reps,
            opts.seed
        );
    }
}
