//! Scheduler metrics registry: counters plus log2 latency histograms.
//!
//! The observability redesign routes every kernel decision through
//! `SchedObserver` sinks (see `hpl-kernel::observe`); the metrics sink
//! distils that event stream into this registry — per-CPU switch
//! counters and power-of-two histograms of the three distributions the
//! paper's analysis cares about: how long a task held the CPU
//! (timeslice), how long a woken task waited before running (off-CPU
//! latency), and how bursty migrations are (inter-arrival). The bench
//! harness merges one registry per repetition into a [`SchedMetrics`]
//! per `RunTable`.
//!
//! Lives in `hpl-perf` (not `hpl-kernel`) so records and reports can
//! carry a registry without a dependency cycle: perf is below kernel in
//! the crate DAG and kernel re-exports these types.

/// Power-of-two histogram over `u64` samples (nanoseconds by
/// convention), in the mould of BPF's `hist_log2`.
///
/// Bucket `0` counts zero samples; bucket `i >= 1` counts samples in
/// `[2^(i-1), 2^i)`. 65 buckets cover the full `u64` range, so
/// recording can never saturate or clip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Hist {
    /// Empty histogram.
    pub fn new() -> Self {
        Log2Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a sample: `0` for `0`, else `floor(log2(v)) + 1`.
    fn index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Raw bucket counts (`buckets()[0]` = zero samples, bucket `i`
    /// = samples in `[2^(i-1), 2^i)`).
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Inclusive-exclusive value range `[lo, hi)` of bucket `i`
    /// (bucket 0 is the degenerate `[0, 1)`).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), (1u128 << i).min(u64::MAX as u128) as u64)
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Multi-line `funclatency`-style rendering: one row per populated
    /// bucket with an asterisk bar scaled to the modal bucket.
    pub fn render(&self, label: &str) -> String {
        let mut out = format!("{label}: {} samples", self.count);
        if let Some(m) = self.mean() {
            out.push_str(&format!(
                ", mean {:.0}, min {}, max {}",
                m, self.min, self.max
            ));
        }
        out.push('\n');
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = Self::bucket_range(i);
            let bar = "*".repeat(((c * 40).div_ceil(peak)) as usize);
            out.push_str(&format!("  [{lo:>12}, {hi:>12}) {c:>8} |{bar}\n"));
        }
        out
    }
}

/// The metrics registry one observer run produces: decision counters,
/// per-CPU switch counts, and the three latency histograms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedMetrics {
    /// Context switches observed (`sched_switch` with `prev != next`).
    pub switches: u64,
    /// Cross-CPU task migrations.
    pub migrations: u64,
    /// Task wakeups.
    pub wakeups: u64,
    /// Fork placements (task created and assigned a CPU).
    pub forks: u64,
    /// Wakeup-preemption checks evaluated.
    pub preempt_checks: u64,
    /// Checks whose verdict preempted the running task.
    pub preempts_granted: u64,
    /// `pick_next`-level decisions (one per `schedule()` entry).
    pub picks: u64,
    /// New-idle balance attempts.
    pub idle_balance_calls: u64,
    /// Periodic (tick-driven) balance attempts.
    pub periodic_balance_calls: u64,
    /// RT overload push attempts.
    pub rt_push_calls: u64,
    /// Timer ticks fully accounted (including batched quiescent ticks).
    pub ticks: u64,
    /// Ticks skipped by tickless operation or batched by quiescence
    /// fast-forward (subset of [`ticks`](Self::ticks)).
    pub ticks_skipped: u64,
    /// Noise-daemon arrivals (daemon task wakeups).
    pub noise_arrivals: u64,
    /// Device interrupts delivered.
    pub irqs: u64,
    /// Cross-node messages captured for the cluster interconnect.
    pub net_sends: u64,
    /// Cross-node message deliveries into this node.
    pub net_delivers: u64,
    /// Batch-level job submissions (cluster scheduler queue arrivals).
    pub job_submits: u64,
    /// Batch-level job starts (queue → allocated → launched).
    pub job_starts: u64,
    /// Batch-level job completions.
    pub job_ends: u64,
    /// Gang-rotation switches (epoch boundaries and gang-set changes).
    pub gang_epochs: u64,
    /// DFRS fractional-share assignments published by the batch layer.
    pub job_shares: u64,
    /// Weighted gang slices started (share table in force).
    pub gang_slices: u64,
    /// User-space coordination lease grants (hpl-coord arbiter).
    pub leases: u64,
    /// Blocked ranks released across all lease grants.
    pub lease_grants: u64,
    /// Switch count per CPU, indexed by CPU id.
    pub per_cpu_switches: Vec<u64>,
    /// How long tasks held a CPU before switching out, in ns.
    pub timeslice_ns: Log2Hist,
    /// Wakeup-to-dispatch latency, in ns.
    pub offcpu_latency_ns: Log2Hist,
    /// Time between successive migrations anywhere on the node, in ns.
    pub migration_interarrival_ns: Log2Hist,
    /// Cross-node message send-to-delivery latency, in ns.
    pub net_latency_ns: Log2Hist,
    /// Portion of message latency spent queued on a contended link, ns.
    pub net_queue_ns: Log2Hist,
    /// Batch queue depth sampled at every submit/start event.
    pub batch_queue_depth: Log2Hist,
    /// Batch job queue wait (submit → start), in ns.
    pub job_wait_ns: Log2Hist,
    /// Weighted slice lengths as scheduled, in ns.
    pub gang_slice_ns: Log2Hist,
    /// Per-gang busy time: one histogram of CPU-occupancy stretch
    /// lengths per gang id, integrated from gang-tagged switch events.
    /// `sum()` of a gang's histogram is its total attributed CPU ns —
    /// the observable that makes a 750/250 share split *measurable*
    /// rather than merely configured.
    pub gang_busy: std::collections::BTreeMap<u64, Log2Hist>,
}

impl SchedMetrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump the switch counter of `cpu`, growing the per-CPU vector on
    /// first sight of a CPU id.
    pub fn count_cpu_switch(&mut self, cpu: usize) {
        if cpu >= self.per_cpu_switches.len() {
            self.per_cpu_switches.resize(cpu + 1, 0);
        }
        self.per_cpu_switches[cpu] += 1;
    }

    /// Fold another registry into this one (bench-harness rep merge).
    pub fn merge(&mut self, other: &SchedMetrics) {
        self.switches += other.switches;
        self.migrations += other.migrations;
        self.wakeups += other.wakeups;
        self.forks += other.forks;
        self.preempt_checks += other.preempt_checks;
        self.preempts_granted += other.preempts_granted;
        self.picks += other.picks;
        self.idle_balance_calls += other.idle_balance_calls;
        self.periodic_balance_calls += other.periodic_balance_calls;
        self.rt_push_calls += other.rt_push_calls;
        self.ticks += other.ticks;
        self.ticks_skipped += other.ticks_skipped;
        self.noise_arrivals += other.noise_arrivals;
        self.irqs += other.irqs;
        self.net_sends += other.net_sends;
        self.net_delivers += other.net_delivers;
        self.job_submits += other.job_submits;
        self.job_starts += other.job_starts;
        self.job_ends += other.job_ends;
        self.gang_epochs += other.gang_epochs;
        self.job_shares += other.job_shares;
        self.gang_slices += other.gang_slices;
        self.leases += other.leases;
        self.lease_grants += other.lease_grants;
        if other.per_cpu_switches.len() > self.per_cpu_switches.len() {
            self.per_cpu_switches
                .resize(other.per_cpu_switches.len(), 0);
        }
        for (s, o) in self
            .per_cpu_switches
            .iter_mut()
            .zip(other.per_cpu_switches.iter())
        {
            *s += o;
        }
        self.timeslice_ns.merge(&other.timeslice_ns);
        self.offcpu_latency_ns.merge(&other.offcpu_latency_ns);
        self.migration_interarrival_ns
            .merge(&other.migration_interarrival_ns);
        self.net_latency_ns.merge(&other.net_latency_ns);
        self.net_queue_ns.merge(&other.net_queue_ns);
        self.batch_queue_depth.merge(&other.batch_queue_depth);
        self.job_wait_ns.merge(&other.job_wait_ns);
        self.gang_slice_ns.merge(&other.gang_slice_ns);
        for (g, h) in &other.gang_busy {
            self.gang_busy.entry(*g).or_default().merge(h);
        }
    }

    /// Total CPU time attributed to `gang`, in ns (0 if never seen).
    pub fn gang_busy_ns(&self, gang: u64) -> u64 {
        self.gang_busy.get(&gang).map_or(0, |h| h.sum())
    }

    /// Compact multi-line report (counters first, then histograms).
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "switches {} | migrations {} | wakeups {} | forks {} | picks {}\n",
            self.switches, self.migrations, self.wakeups, self.forks, self.picks
        ));
        out.push_str(&format!(
            "preempt checks {} (granted {}) | balance idle {} periodic {} rt-push {}\n",
            self.preempt_checks,
            self.preempts_granted,
            self.idle_balance_calls,
            self.periodic_balance_calls,
            self.rt_push_calls
        ));
        out.push_str(&format!(
            "ticks {} (skipped {}) | noise arrivals {} | irqs {}\n",
            self.ticks, self.ticks_skipped, self.noise_arrivals, self.irqs
        ));
        if self.net_sends + self.net_delivers > 0 {
            out.push_str(&format!(
                "net sends {} | net delivers {}\n",
                self.net_sends, self.net_delivers
            ));
        }
        out.push_str(&format!("per-cpu switches {:?}\n", self.per_cpu_switches));
        out.push_str(&self.timeslice_ns.render("timeslice_ns"));
        out.push_str(&self.offcpu_latency_ns.render("offcpu_latency_ns"));
        out.push_str(
            &self
                .migration_interarrival_ns
                .render("migration_interarrival_ns"),
        );
        if self.net_latency_ns.count() > 0 {
            out.push_str(&self.net_latency_ns.render("net_latency_ns"));
            out.push_str(&self.net_queue_ns.render("net_queue_ns"));
        }
        if self.job_submits + self.job_starts + self.job_ends > 0 {
            out.push_str(&format!(
                "job submits {} | starts {} | ends {}\n",
                self.job_submits, self.job_starts, self.job_ends
            ));
            out.push_str(&self.batch_queue_depth.render("batch_queue_depth"));
            out.push_str(&self.job_wait_ns.render("job_wait_ns"));
        }
        if self.gang_epochs + self.job_shares > 0 {
            out.push_str(&format!(
                "gang epochs {} | job shares {}\n",
                self.gang_epochs, self.job_shares
            ));
        }
        if self.gang_slices + self.leases > 0 {
            out.push_str(&format!(
                "gang slices {} | leases {} (ranks released {})\n",
                self.gang_slices, self.leases, self.lease_grants
            ));
        }
        for (g, h) in &self.gang_busy {
            out.push_str(&format!("gang {g} busy {} ns\n", h.sum()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_boundaries() {
        let mut h = Log2Hist::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(u64::MAX);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // [1,2)
        assert_eq!(h.buckets()[2], 2); // [2,4)
        assert_eq!(h.buckets()[3], 1); // [4,8)
        assert_eq!(h.buckets()[64], 1); // top bucket
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn bucket_range_is_exhaustive() {
        assert_eq!(Log2Hist::bucket_range(0), (0, 1));
        assert_eq!(Log2Hist::bucket_range(1), (1, 2));
        assert_eq!(Log2Hist::bucket_range(10), (512, 1024));
        assert_eq!(Log2Hist::bucket_range(64).0, 1u64 << 63);
        // Every sample lands in the bucket whose range contains it.
        for v in [0u64, 1, 7, 512, 1023, 1 << 40, u64::MAX] {
            let i = Log2Hist::index(v);
            let (lo, hi) = Log2Hist::bucket_range(i);
            assert!(v >= lo && (v < hi || (i == 64 && v == u64::MAX)), "{v}");
        }
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Log2Hist::new();
        let mut b = Log2Hist::new();
        a.record(5);
        b.record(100);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 108);
        assert_eq!(a.min(), Some(3));
        assert_eq!(a.max(), Some(100));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Log2Hist::new();
        a.record(42);
        let before = a.clone();
        a.merge(&Log2Hist::new());
        assert_eq!(a, before);
        let mut e = Log2Hist::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn metrics_merge_and_percpu_growth() {
        let mut a = SchedMetrics::new();
        a.switches = 10;
        a.count_cpu_switch(1);
        let mut b = SchedMetrics::new();
        b.switches = 5;
        b.migrations = 2;
        b.count_cpu_switch(3);
        b.timeslice_ns.record(4096);
        a.merge(&b);
        assert_eq!(a.switches, 15);
        assert_eq!(a.migrations, 2);
        assert_eq!(a.per_cpu_switches, vec![0, 1, 0, 1]);
        assert_eq!(a.timeslice_ns.count(), 1);
    }

    #[test]
    fn render_mentions_label_and_counts() {
        let mut h = Log2Hist::new();
        h.record(9);
        let s = h.render("slice");
        assert!(s.contains("slice: 1 samples"));
        assert!(s.contains('*'));
        let m = SchedMetrics::new();
        assert!(m.report().contains("switches 0"));
    }
}
