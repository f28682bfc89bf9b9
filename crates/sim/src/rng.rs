//! Deterministic pseudo-random numbers and the distributions the noise and
//! workload models draw from.
//!
//! Implements xoshiro256++ (Blackman & Vigna) seeded through SplitMix64 —
//! the standard recipe that turns any 64-bit seed into a full 256-bit
//! state. Implemented here rather than pulled from a crate so that every
//! simulated run is bit-reproducible from `(seed, run_index)` forever,
//! independent of dependency upgrades.
//!
//! Distributions provided: uniform (float/int/range), Bernoulli,
//! exponential, standard normal (Marsaglia polar), log-normal and bounded
//! Pareto. The OS-noise model uses log-normal service times (short bodies,
//! occasional long tail) and exponential inter-arrival jitter; bounded
//! Pareto drives the rare "burst" episodes.

/// xoshiro256++ generator.
///
/// ```
/// use hpl_sim::Rng;
///
/// // Identical seeds give identical streams, forever.
/// let (mut a, mut b) = (Rng::new(7), Rng::new(7));
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Repetition streams are derived, not sequential.
/// let mut rep3 = Rng::for_run(0xBA5E, 3);
/// assert!(rep3.f64() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal variate from the polar method.
    spare_normal: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
const fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Derive an independent stream for repetition `index` of a base seed.
    ///
    /// Mixes the index through SplitMix64 so streams for adjacent indices
    /// are decorrelated.
    pub fn for_run(base_seed: u64, index: u64) -> Self {
        let mut sm = base_seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(index.wrapping_add(1));
        let mixed = splitmix64(&mut sm) ^ index.rotate_left(17);
        Rng::new(mixed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Requires `lo <= hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift rejection.
    /// Requires `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Unbiased: reject the short range of the low product.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive. Requires `lo <= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        debug_assert!(!items.is_empty());
        &items[self.below(items.len() as u64) as usize]
    }

    /// Exponential variate with the given mean (`mean > 0`).
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Avoid ln(0): f64() is in [0,1), so 1 - f64() is in (0,1].
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal variate (mean 0, stddev 1) via Marsaglia polar.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let k = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * k);
                return u * k;
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, stddev: f64) -> f64 {
        debug_assert!(stddev >= 0.0);
        mean + stddev * self.normal()
    }

    /// Log-normal variate parameterised by the *underlying* normal's
    /// `mu`/`sigma` (i.e. `exp(N(mu, sigma))`).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Bounded Pareto variate on `[lo, hi]` with shape `alpha > 0`.
    /// Heavy-tailed: most draws near `lo`, occasional draws near `hi`.
    pub fn pareto_bounded(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
        let u = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(mut f: impl FnMut() -> f64, n: usize) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn run_streams_are_decorrelated() {
        let mut a = Rng::for_run(7, 0);
        let mut b = Rng::for_run(7, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(9);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = r.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_u64_inclusive() {
        let mut r = Rng::new(5);
        for _ in 0..1000 {
            let x = r.range_u64(10, 12);
            assert!((10..=12).contains(&x));
        }
        // Degenerate range.
        assert_eq!(r.range_u64(4, 4), 4);
    }

    #[test]
    fn exp_mean_approximately_correct() {
        let mut r = Rng::new(11);
        let m = sample_mean(|| r.exp(3.0), 50_000);
        assert!((m - 3.0).abs() < 0.1, "exp mean {m}");
    }

    #[test]
    fn normal_moments_approximately_correct() {
        let mut r = Rng::new(13);
        let xs: Vec<f64> = (0..50_000).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal var {var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = Rng::new(17);
        for _ in 0..10_000 {
            assert!(r.lognormal(-1.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn pareto_bounded_stays_in_bounds() {
        let mut r = Rng::new(19);
        for _ in 0..10_000 {
            let x = r.pareto_bounded(1.2, 0.5, 100.0);
            assert!(
                (0.5..=100.0 + 1e-9).contains(&x),
                "pareto out of bounds: {x}"
            );
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let mut r = Rng::new(23);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| r.pareto_bounded(1.0, 1.0, 1000.0))
            .collect();
        let near_lo = xs.iter().filter(|&&x| x < 2.0).count() as f64 / xs.len() as f64;
        let tail = xs.iter().filter(|&&x| x > 100.0).count() as f64 / xs.len() as f64;
        assert!(near_lo > 0.4, "mass near lo = {near_lo}");
        assert!(tail > 0.001 && tail < 0.1, "tail mass = {tail}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(29);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn choose_returns_member() {
        let mut r = Rng::new(37);
        let items = [1, 2, 3];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
