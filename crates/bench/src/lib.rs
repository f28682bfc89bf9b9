//! # hpl-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper, a paper-vs-measured
//! comparison and five extensions:
//!
//! | Experiment | Paper artefact | Function |
//! |---|---|---|
//! | `fig1`     | preemption timeline sketch | [`experiments::fig1`] |
//! | `fig2`     | ep.A.8 time histogram, std Linux | [`experiments::fig2`] |
//! | `fig3a/b`  | time vs migrations / switches | [`experiments::fig3`] |
//! | `fig4`     | ep.A.8 histogram, RT scheduler | [`experiments::fig4`] |
//! | `table1a/b`| scheduler noise counters | [`experiments::table1`] |
//! | `table2`   | execution times std vs HPL | [`experiments::table2`] |
//! | `compare`  | paper vs measured, Tables Ia/Ib/II | [`experiments::compare`] |
//! | `ablate`   | design-choice ablations | [`experiments::ablate`] |
//! | `noise-sweep` | injection sensitivity | [`experiments::noise_sweep`] |
//! | `energy`   | power and energy-delay product | [`experiments::energy`] |
//! | `scaling`  | strong scaling, 1–8 ranks | [`experiments::scaling`] |
//! | `uls`      | user-level re-pinning vs HPL | [`experiments::uls`] |
//!
//! [`harness`] drives repetitions (deterministic per `(seed, rep)`,
//! parallelised across host threads); [`report`] renders the paper-style
//! tables; [`sweep`] is the shared flag parser, `BENCH_*.json` writer
//! and claim gate of the sweep binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod sweep;

pub use harness::{run_many, run_once, NoiseKind, RunConfig, Scheduler};
