//! # hpl-sim — discrete-event simulation substrate
//!
//! Foundation crate for the HPL scheduler study. It provides the pieces
//! every layer above needs and that must be *deterministic* across
//! platforms and thread counts:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) with saturating/checked arithmetic.
//! * [`event`] — a deterministic event queue ([`event::EventQueue`]):
//!   ties at equal timestamps break by insertion sequence, so a run is a
//!   total order reproducible from its seed alone.
//! * [`rng`] — a self-contained xoshiro256++ PRNG seeded via SplitMix64,
//!   plus the distributions the noise and workload models need (uniform,
//!   exponential, normal, log-normal, Pareto). No external crate: identical
//!   bit streams everywhere.
//! * [`stats`] — summary statistics (min/avg/max/var% as the paper defines
//!   them), histograms, correlation and a two-sample test for the figures.
//! * [`json`] — the JSON string escape every JSON producer shares.
//! * [`plot`] — ASCII histogram/scatter rendering used by the experiment
//!   harness to "draw" Figures 2, 3a, 3b and 4 in a terminal.
//!
//! Everything here is intentionally independent of the kernel model so that
//! it can be property-tested in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod plot;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::Rng;
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
