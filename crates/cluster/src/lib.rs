//! # hpl-cluster — multi-node noise resonance
//!
//! The paper's §II motivation: "when scaling to thousands of nodes, the
//! probability that in each computing phase at least one node is slowed
//! by some long kernel activity approaches 1.0. This phenomenon is
//! *noise resonance*." A single-node study (everything else in this
//! repository) measures the per-phase duration *distribution*; this crate
//! lifts that distribution to cluster scale with the standard
//! max-over-nodes model: a bulk-synchronous application's phase takes as
//! long as its slowest node, so the expected phase time is the expected
//! maximum of N draws — which climbs into the distribution's tail as N
//! grows.
//!
//! The model reproduces the two classic observations the paper cites:
//!
//! * **Amplification** (Petrini et al.): per-node noise that costs ~1 %
//!   at N=1 can cost integer factors at N=4096, because every phase
//!   waits for the unluckiest node.
//! * **Mitigation crossover**: sacrificing capacity to remove the noise
//!   tail (one idle core for the OS, or an HPL-style scheduler) loses at
//!   small N and wins at large N — the "1.87× from leaving one processor
//!   idle" effect.
//!
//! Input distributions come straight from the single-node simulator: run
//! a benchmark's per-iteration (or whole-run) times under a scheduler and
//! feed them to [`EmpiricalDist`].
//!
//! ## Two layers: analytic projection and mechanistic co-simulation
//!
//! The [`ResonanceModel`] above is *analytic*: it extrapolates a
//! measured single-node distribution to N nodes under the independence
//! assumption. The [`cosim`] and [`net`] modules add the *mechanistic*
//! counterpart: [`Cluster`] co-simulates N real kernel [`hpl_kernel::Node`]s
//! in conservative virtual-time lockstep, with cross-node MPI traffic
//! costed through a LogGP-style [`Interconnect`] (per-link latency,
//! serialisation, and FIFO contention). The two layers cross-check each
//! other — at small N with negligible network contention the mechanistic
//! run must land on the analytic prediction — and the mechanistic layer
//! additionally captures what the analytic one cannot: correlated noise,
//! network queueing, and scheduler-induced migration storms interacting
//! across nodes.

// `deny` rather than `forbid`: the one sanctioned exception is the
// `pool` module's disjoint-access worker pool, which carries its own
// safety argument and per-site `#[allow]`s.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cosim;
pub mod fault;
pub mod net;
mod pool;
pub mod window;

pub use cosim::{
    Cluster, ClusterBuilder, ClusterJobHandle, CosimConfig, JobCoordinator, Placement,
};
pub use fault::{DegradeWindow, FaultPlan, LossSpec, NodeEvent, NodeFault};
pub use net::{Fabric, FlatFabric, Interconnect, NetConfig, SwitchedFabric};
pub use window::Window;

use hpl_sim::Rng;

/// Why a sample set cannot form an [`EmpiricalDist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistError {
    /// No samples were provided.
    Empty,
    /// At least one sample was NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Empty => write!(f, "empirical distribution needs samples"),
            DistError::NonFinite => write!(f, "non-finite sample in empirical distribution"),
        }
    }
}

impl std::error::Error for DistError {}

/// An empirical distribution built from simulator samples; draws by
/// inverse-CDF over the sorted sample (with interpolation).
#[derive(Debug, Clone)]
pub struct EmpiricalDist {
    sorted: Vec<f64>,
}

impl EmpiricalDist {
    /// Build from samples (at least one; non-finite values rejected).
    /// Panicking wrapper over [`Self::try_new`] for literal sample sets.
    pub fn new(samples: Vec<f64>) -> Self {
        Self::try_new(samples).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from samples, rejecting empty or non-finite input. Use this
    /// over [`Self::new`] when the samples come from measurement (a
    /// failed run can legitimately produce none).
    pub fn try_new(mut samples: Vec<f64>) -> Result<Self, DistError> {
        if samples.is_empty() {
            return Err(DistError::Empty);
        }
        if !samples.iter().all(|x| x.is_finite()) {
            return Err(DistError::NonFinite);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Ok(EmpiricalDist { sorted: samples })
    }

    /// Smallest observed value (the "noise-free" floor).
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Quantile by linear interpolation, `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Draw one value (inverse-CDF on a uniform variate).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.quantile(rng.f64())
    }
}

/// The bulk-synchronous cluster model: `phases` sequential phases, each
/// ending in a global synchronisation; per-phase per-node durations drawn
/// i.i.d. from a per-node distribution.
///
/// ```
/// use hpl_cluster::{EmpiricalDist, ResonanceModel};
///
/// // Phases of ~1 ms with a 5% chance of a 3 ms noise hit per node.
/// let mut samples = vec![1.0e-3; 95];
/// samples.extend(vec![3.0e-3; 5]);
/// let model = ResonanceModel::new(EmpiricalDist::new(samples), 100);
///
/// // At one node the tail barely matters; at 1024 nodes every phase
/// // almost surely waits for a noise-hit node: noise resonance.
/// let t1 = model.expected_time_analytic(1);
/// let t1k = model.expected_time_analytic(1024);
/// assert!(t1k > 2.0 * t1);
/// ```
#[derive(Debug, Clone)]
pub struct ResonanceModel {
    /// Per-node, per-phase duration distribution.
    pub per_phase: EmpiricalDist,
    /// Number of compute/synchronise cycles in the application.
    pub phases: u32,
}

impl ResonanceModel {
    /// Create the model.
    pub fn new(per_phase: EmpiricalDist, phases: u32) -> Self {
        assert!(phases > 0);
        ResonanceModel { per_phase, phases }
    }

    /// One Monte-Carlo run of the whole application on `nodes` nodes:
    /// the sum over phases of the max over nodes.
    pub fn run_once(&self, nodes: u32, rng: &mut Rng) -> f64 {
        assert!(nodes > 0);
        (0..self.phases)
            .map(|_| {
                (0..nodes)
                    .map(|_| self.per_phase.sample(rng))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .sum()
    }

    /// Expected application time on `nodes` nodes (mean of `reps` runs).
    pub fn expected_time(&self, nodes: u32, reps: u32, seed: u64) -> f64 {
        assert!(reps > 0);
        let mut total = 0.0;
        for r in 0..reps {
            let mut rng = Rng::for_run(seed, r as u64);
            total += self.run_once(nodes, &mut rng);
        }
        total / reps as f64
    }

    /// The noise-free application time: every phase at the distribution
    /// floor.
    pub fn ideal_time(&self) -> f64 {
        self.per_phase.min() * self.phases as f64
    }

    /// Analytic expected application time on `nodes` nodes — no Monte
    /// Carlo. For the maximum of `N` i.i.d. draws,
    /// `E[max] = ∫₀¹ q(u) · N·u^{N−1} du` with `q` the quantile function;
    /// the integral is evaluated by the trapezoid rule over a fine grid.
    /// Useful for large node counts where sampling `N` draws per phase
    /// gets expensive, and as a cross-check of the Monte-Carlo path.
    pub fn expected_time_analytic(&self, nodes: u32) -> f64 {
        assert!(nodes > 0);
        let n = nodes as f64;
        let steps = 4096;
        let mut acc = 0.0;
        let mut prev_u = 0.0f64;
        let mut prev_f = self.per_phase.quantile(0.0) * n * 0.0f64.powf(n - 1.0).max(0.0);
        // u^(n-1) at u=0 is 0 for n>1 and 1 for n=1.
        if nodes == 1 {
            prev_f = self.per_phase.quantile(0.0);
        }
        for i in 1..=steps {
            let u = i as f64 / steps as f64;
            let f = self.per_phase.quantile(u) * n * u.powf(n - 1.0);
            acc += 0.5 * (f + prev_f) * (u - prev_u);
            prev_u = u;
            prev_f = f;
        }
        acc * self.phases as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples of a mildly noisy phase: mostly 1.0, a 5 % tail of 3.0.
    fn noisy_samples() -> Vec<f64> {
        let mut v = vec![1.0; 95];
        v.extend(vec![3.0; 5]);
        v
    }

    fn noisy() -> EmpiricalDist {
        EmpiricalDist::new(noisy_samples())
    }

    #[test]
    fn dist_basics() {
        let d = EmpiricalDist::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 3.0);
        assert!((d.quantile(0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sample_within_range() {
        let d = noisy();
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=3.0).contains(&x));
        }
    }

    #[test]
    fn slowdown_grows_with_node_count() {
        let m = ResonanceModel::new(noisy(), 50);
        let curve: Vec<(u32, f64)> = [1, 16, 256, 4096]
            .into_iter()
            .map(|n| (n, m.expected_time(n, 40, 7) / m.ideal_time()))
            .collect();
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "slowdown must be monotone: {curve:?}");
        }
        // At one node the slowdown is modest (mean/min = 1.1).
        assert!(curve[0].1 < 1.3);
        // At 4096 nodes essentially every phase hits the tail: ~3x.
        assert!(curve[3].1 > 2.5, "resonance amplification: {curve:?}");
    }

    #[test]
    fn denoised_config_wins_at_scale() {
        // Config A: full capacity, noisy. Config B: 8/7 slower (one core
        // donated to the OS) but tail-free — the Petrini trade.
        // B's samples are A's, clipped at A's 94th percentile and
        // stretched by 8/7.
        let a = ResonanceModel::new(noisy(), 50);
        let cap = noisy().quantile(0.94);
        let denoised = noisy_samples()
            .into_iter()
            .map(|x| x.min(cap) * (8.0 / 7.0))
            .collect();
        let b = ResonanceModel::new(EmpiricalDist::new(denoised), 50);
        let (seed_a, seed_b) = (11, 11 ^ 0x9E37_79B9);
        let (a1, b1) = (
            a.expected_time(1, 40, seed_a),
            b.expected_time(1, 40, seed_b),
        );
        let (a4k, b4k) = (
            a.expected_time(4096, 40, seed_a),
            b.expected_time(4096, 40, seed_b),
        );
        assert!(b1 > a1, "at one node the capacity loss dominates");
        assert!(b4k < a4k, "at scale the tail dominates");
        // Amplification factor a4k/b4k in the Petrini ballpark (>1.5x).
        assert!(a4k / b4k > 1.5, "ratio {}", a4k / b4k);
    }

    #[test]
    fn analytic_matches_monte_carlo() {
        let m = ResonanceModel::new(noisy(), 20);
        for nodes in [1u32, 8, 128, 2048] {
            let mc = m.expected_time(nodes, 200, 5);
            let an = m.expected_time_analytic(nodes);
            let rel = (mc - an).abs() / an;
            assert!(rel < 0.05, "nodes={nodes}: mc={mc} analytic={an}");
        }
    }

    #[test]
    fn analytic_single_node_is_the_mean() {
        let m = ResonanceModel::new(noisy(), 10);
        let an = m.expected_time_analytic(1);
        let samples = noisy_samples();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let expected = mean * 10.0;
        assert!(
            (an - expected).abs() / expected < 0.01,
            "{an} vs {expected}"
        );
    }

    #[test]
    fn analytic_approaches_max_at_scale() {
        let m = ResonanceModel::new(noisy(), 1);
        let an = m.expected_time_analytic(1_000_000);
        assert!(an > 0.99 * m.per_phase.quantile(1.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let m = ResonanceModel::new(noisy(), 10);
        assert_eq!(m.expected_time(64, 10, 3), m.expected_time(64, 10, 3));
    }

    #[test]
    #[should_panic]
    fn empty_dist_panics() {
        EmpiricalDist::new(vec![]);
    }

    #[test]
    fn try_new_reports_bad_input_instead_of_panicking() {
        assert_eq!(
            EmpiricalDist::try_new(vec![]).unwrap_err(),
            DistError::Empty
        );
        assert_eq!(
            EmpiricalDist::try_new(vec![1.0, f64::NAN]).unwrap_err(),
            DistError::NonFinite
        );
        assert_eq!(
            EmpiricalDist::try_new(vec![1.0, f64::INFINITY]).unwrap_err(),
            DistError::NonFinite
        );
        let d = EmpiricalDist::try_new(vec![3.0, 1.0, 2.0]).expect("valid samples");
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.quantile(1.0), 3.0);
    }
}
