//! # hpl-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper:
//!
//! | Experiment | Paper artefact | Function |
//! |---|---|---|
//! | `fig1`     | preemption timeline sketch | [`experiments::fig1`] |
//! | `fig2`     | ep.A.8 time histogram, std Linux | [`experiments::fig2`] |
//! | `fig3a/b`  | time vs migrations / switches | [`experiments::fig3`] |
//! | `fig4`     | ep.A.8 histogram, RT scheduler | [`experiments::fig4`] |
//! | `table1a/b`| scheduler noise counters | [`experiments::table1`] |
//! | `table2`   | execution times std vs HPL | [`experiments::table2`] |
//! | `ablate`   | design-choice ablations | [`experiments::ablate`] |
//! | `noise-sweep` | injection sensitivity | [`experiments::noise_sweep`] |
//! | `resonance`| multi-node amplification | [`experiments::resonance`] |
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
