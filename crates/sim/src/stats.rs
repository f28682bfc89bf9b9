//! Summary statistics, histograms, correlation and a two-sample test.
//!
//! The paper reports `Min / Avg / Max` and a variation percentage defined
//! (its footnote 8) as `(max − min) / min × 100`. [`Summary`] computes
//! exactly that. [`Histogram`] bins execution times for Figures 2 and 4;
//! [`pearson`]/[`spearman`] quantify the Figure 3 relationships;
//! [`ks_two_sample`] compares two versions' per-run distributions.

use std::fmt;

/// Running summary of a sample: count, min, max and mean.
///
/// ```
/// use hpl_sim::stats::Summary;
///
/// // The paper's ep.A.8 row: min 8.54 s, max 14.59 s -> 70.84 %.
/// let s = Summary::from_slice(&[8.54, 9.1, 14.59]);
/// assert!((s.variation_pct() - 70.84).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct Summary {
    n: u64,
    min: f64,
    max: f64,
    mean: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
        }
    }

    /// Build a summary from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in xs {
            s.add(x);
        }
        s
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        self.n += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
    }

    /// Smallest observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Arithmetic mean (NaN if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// The paper's variation metric: `(max − min) / min × 100` (%).
    ///
    /// Returns NaN when empty and infinity when `min == 0`.
    pub fn variation_pct(&self) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        (self.max - self.min) / self.min * 100.0
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.4} avg={:.4} max={:.4} var%={:.2}",
            self.n,
            self.min(),
            self.mean(),
            self.max(),
            self.variation_pct()
        )
    }
}

/// A fixed-bin histogram over `[lo, hi)` with an overflow/underflow bin at
/// each end, used to render the execution-time distributions of Figs. 2/4.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram with `nbins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo, "histogram range empty: [{lo}, {hi})");
        assert!(nbins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Create a histogram sized to cover a sample with a little headroom.
    /// A sample of equal values gets the narrowest range that holds them.
    pub fn covering(xs: &[f64], nbins: usize) -> Self {
        let s = Summary::from_slice(xs);
        let span = (s.max() - s.min()).max(1e-12);
        let hi = (s.max() + span * 1e-6).max(s.min().next_up());
        let mut h = Histogram::new(s.min(), hi, nbins);
        for &x in xs {
            h.add(x);
        }
        h
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Bin counts (excluding under/overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// `(low_edge, high_edge)` of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Total observations recorded, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// Pearson product-moment correlation of two equal-length samples.
/// Returns NaN for degenerate inputs (length < 2 or zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    let n = xs.len();
    if n < 2 {
        return f64::NAN;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
}

/// Ordinary least-squares line fit `y = slope·x + intercept` with R².
/// Used to annotate the Fig. 3 scatters with the empirical relationship
/// the paper reads off them.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<(f64, f64, f64)> {
    assert_eq!(xs.len(), ys.len(), "linear_fit: length mismatch");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some((slope, intercept, r2))
}

/// Spearman rank correlation (Pearson on mid-ranks; robust to the heavy
/// tails these experiments produce).
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman: length mismatch");
    pearson(&ranks(xs), &ranks(ys))
}

/// Mid-ranks of a sample (ties share the average rank).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in rank input"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Two-sample Kolmogorov–Smirnov test: returns `(D, p)`, where `D` is
/// the largest gap between the two empirical CDFs and `p` the exact
/// two-sided probability of a gap at least that large when both samples
/// come from one continuous distribution.
///
/// Ties are stepped past together, so `D` is the gap between the true
/// ECDFs even for integer counters; `p` then stays conservative (too
/// large), as in every exact KS implementation. The p-value counts the
/// lattice paths from `(0, 0)` to `(m, n)` that keep every gap below
/// `D` (Smirnov's method), normalised row by row so nothing overflows:
/// O(m·n) time, accurate to about 1e-15 absolute.
///
/// ```
/// use hpl_sim::stats::ks_two_sample;
///
/// // Complete separation of 3 vs 3: 2 of the 20 orderings, p = 0.1.
/// let (d, p) = ks_two_sample(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
/// assert_eq!(d, 1.0);
/// assert!((p - 0.1).abs() < 1e-12);
/// ```
pub fn ks_two_sample(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert!(
        !xs.is_empty() && !ys.is_empty(),
        "ks_two_sample: empty sample"
    );
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in KS input"));
        v
    };
    // Keep the shorter sample in `a`: the path count walks its rows.
    let (a, b) = if xs.len() <= ys.len() {
        (sorted(xs), sorted(ys))
    } else {
        (sorted(ys), sorted(xs))
    };
    let (m, n) = (a.len() as u64, b.len() as u64);
    // Gaps in units of 1/(m·n), so the path test below is exact.
    let (mut i, mut j, mut gap) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let v = a[i].min(b[j]);
        while i < a.len() && a[i] == v {
            i += 1;
        }
        while j < b.len() && b[j] == v {
            j += 1;
        }
        gap = gap.max((i as u64 * n).abs_diff(j as u64 * m));
    }
    let d = gap as f64 / (m * n) as f64;
    // u[j] after row i: paths to (i, j) with every gap < `gap`, times
    // the product of i'/(i' + n) over rows i' ≤ i — which ends at
    // 1/C(m+n, m), turning the final count into a probability.
    let inside = |i: u64, j: usize| (i * n).abs_diff(j as u64 * m) < gap;
    let mut u = vec![0.0; b.len() + 1];
    u[0] = f64::from(inside(0, 0));
    for j in 1..=b.len() {
        u[j] = if inside(0, j) { u[j - 1] } else { 0.0 };
    }
    for i in 1..=m {
        let w = i as f64 / (i + n) as f64;
        u[0] = if inside(i, 0) { w * u[0] } else { 0.0 };
        for j in 1..=b.len() {
            u[j] = if inside(i, j) {
                w * u[j] + u[j - 1]
            } else {
                0.0
            };
        }
    }
    (d, (1.0 - u[b.len()]).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::from_slice(&[2.0, 4.0, 6.0]);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 6.0);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert!((s.variation_pct() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_nan() {
        let s = Summary::new();
        assert!(s.min().is_nan() && s.mean().is_nan() && s.variation_pct().is_nan());
    }

    #[test]
    fn summary_single_point() {
        let s = Summary::from_slice(&[5.0]);
        assert_eq!(s.variation_pct(), 0.0);
    }

    #[test]
    fn variation_matches_paper_definition() {
        // ep.A.8 from the paper: min 8.54, max 14.59 -> 70.84%.
        let s = Summary::from_slice(&[8.54, 14.59, 9.0, 10.0]);
        assert!((s.variation_pct() - 70.84).abs() < 0.01);
    }

    #[test]
    fn histogram_bins_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.0, 0.5, 1.0, 9.99, 5.0] {
            h.add(x);
        }
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[1], 1);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_under_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-0.1);
        h.add(1.0);
        h.add(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn histogram_covering_includes_all() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 7.0).collect();
        let h = Histogram::covering(&xs, 12);
        assert_eq!(h.underflow() + h.overflow(), 0);
        assert_eq!(h.bins().iter().sum::<u64>(), 100);
        // One run of ~10 s: the relative headroom rounds away.
        let h = Histogram::covering(&[10.63], 24);
        assert_eq!((h.bins()[0], h.underflow() + h.overflow()), (1, 0));
    }

    #[test]
    fn histogram_bin_edges() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_edges(0), (0.0, 2.0));
        assert_eq!(h.bin_edges(4), (8.0, 10.0));
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_is_nan() {
        assert!(pearson(&[1.0], &[2.0]).is_nan());
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_nan());
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let (slope, intercept, r2) = linear_fit(&xs, &ys).unwrap();
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[3.0, 3.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[3.0, 1.0, 3.0]);
        assert_eq!(r, vec![2.5, 1.0, 2.5]);
    }

    #[test]
    fn ks_identical_samples_have_no_gap() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert_eq!(ks_two_sample(&xs, &xs), (0.0, 1.0));
    }

    #[test]
    fn ks_textbook_pair() {
        // m = n = 3 (Smirnov's table): D = 1 needs complete separation,
        // 2 of the C(6,3) = 20 orderings.
        let (d, p) = ks_two_sample(&[4.0, 5.0, 6.0], &[1.0, 2.0, 3.0]);
        assert_eq!(d, 1.0);
        assert!((p - 0.1).abs() < 1e-12, "p={p}");
        // D ≥ 2/3 fails only the 2³ orderings that alternate pairwise.
        let (d, p) = ks_two_sample(&[1.0, 2.0, 5.0], &[3.0, 4.0, 6.0]);
        assert!((d - 2.0 / 3.0).abs() < 1e-12, "d={d}");
        assert!((p - 0.6).abs() < 1e-12, "p={p}");
    }

    #[test]
    fn ks_p_matches_enumerated_orderings() {
        // Every way to interleave 4 x-draws with 5 y-draws is equally
        // likely under the null; p is the share with a gap ≥ D.
        let xs = [0.3, 1.1, 2.6, 4.0];
        let ys = [0.5, 0.9, 1.7, 3.3, 5.2];
        let (d, p) = ks_two_sample(&xs, &ys);
        let (mut hits, mut total) = (0, 0);
        for mask in 0u32..(1 << 9) {
            if mask.count_ones() != 4 {
                continue;
            }
            total += 1;
            let (mut fx, mut fy, mut max) = (0.0f64, 0.0f64, 0.0f64);
            for k in 0..9 {
                if mask & (1 << k) != 0 {
                    fx += 0.25;
                } else {
                    fy += 0.2;
                }
                max = max.max((fx - fy).abs());
            }
            if max >= d - 1e-12 {
                hits += 1;
            }
        }
        assert_eq!(total, 126);
        assert!((p - hits as f64 / 126.0).abs() < 1e-12, "p={p} hits={hits}");
        assert_eq!(ks_two_sample(&ys, &xs), (d, p), "the test is symmetric");
    }

    #[test]
    fn ks_steps_past_ties_together() {
        // At 1 the ECDFs are 2/4 and 1/4; at 2 both reach 1.
        let (d, _) = ks_two_sample(&[1.0, 1.0, 2.0, 2.0], &[1.0, 2.0, 2.0, 2.0]);
        assert_eq!(d, 0.25);
        // Equal multisets in another order have no gap at all.
        assert_eq!(
            ks_two_sample(&[7.0, 7.0, 8.0], &[8.0, 7.0, 7.0]),
            (0.0, 1.0)
        );
        // Two constant samples at different values are fully separated.
        let (d, p) = ks_two_sample(&[5.0; 10], &[6.0; 10]);
        assert_eq!(d, 1.0);
        assert!(p < 1e-4, "p={p}");
    }
}
