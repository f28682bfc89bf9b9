//! Per-run records and tables.
//!
//! Each repetition of a benchmark yields one [`RunRecord`] — the tuple the
//! paper's analysis works with: execution time, CPU migrations, context
//! switches (Figures 2-4 plot distributions of these, Tables I/II report
//! min/avg/max over 1000 repetitions). [`RunTable`] aggregates a set of
//! records into exactly the paper's table columns.

use crate::counters::CounterSet;
use crate::event::SwEvent;
use crate::metrics::SchedMetrics;
use hpl_sim::stats::Summary;

/// How a measured run terminated.
///
/// The kernel's `run_until_exit` reports one of these instead of
/// panicking, so the harness can record a failed repetition and keep
/// aggregating instead of tearing the whole sweep down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[must_use = "a run that did not complete usually invalidates the measurement"]
pub enum RunOutcome {
    /// The awaited task exited; the measurement window is valid.
    Completed,
    /// The event queue drained with the awaited task still alive —
    /// a lost wakeup or blocked dependency in the simulated workload.
    Deadlock,
    /// The event budget was exhausted before the task exited (hang
    /// guard tripped).
    BudgetExhausted,
}

impl RunOutcome {
    /// True iff the run finished normally.
    pub fn is_complete(self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Deadlock => "deadlock",
            RunOutcome::BudgetExhausted => "budget_exhausted",
        }
    }
}

/// The measurements of one benchmark repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Repetition index (seed derivation input).
    pub run: u64,
    /// Application execution time in seconds (mpiexec start → exit).
    pub exec_time_s: f64,
    /// System-wide CPU migrations over the perf window.
    pub cpu_migrations: u64,
    /// System-wide context switches over the perf window.
    pub context_switches: u64,
    /// Involuntary preemptions over the window.
    pub involuntary_preemptions: u64,
    /// Load-balancer invocations over the window.
    pub load_balance_calls: u64,
    /// How the run terminated (anything but [`RunOutcome::Completed`]
    /// taints the record).
    pub outcome: RunOutcome,
    /// Observer-collected scheduler metrics, when the harness ran with
    /// metrics collection enabled.
    pub metrics: Option<SchedMetrics>,
}

impl RunRecord {
    /// Build a record from a closed perf-window delta (outcome
    /// defaults to [`RunOutcome::Completed`]; see
    /// [`with_outcome`](Self::with_outcome)).
    pub fn from_delta(run: u64, exec_time_s: f64, d: &CounterSet) -> Self {
        RunRecord {
            run,
            exec_time_s,
            cpu_migrations: d.sw(SwEvent::CpuMigrations),
            context_switches: d.sw(SwEvent::ContextSwitches),
            involuntary_preemptions: d.sw(SwEvent::InvoluntaryPreemptions),
            load_balance_calls: d.sw(SwEvent::LoadBalanceCalls),
            outcome: RunOutcome::Completed,
            metrics: None,
        }
    }

    /// Set the termination outcome.
    pub fn with_outcome(mut self, outcome: RunOutcome) -> Self {
        self.outcome = outcome;
        self
    }

    /// Attach an observer-collected metrics registry.
    pub fn with_metrics(mut self, metrics: SchedMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// Aggregation of many runs of one benchmark configuration.
#[derive(Debug, Clone)]
pub struct RunTable {
    records: Vec<RunRecord>,
}

impl RunTable {
    /// Wrap a set of records (order irrelevant).
    pub fn new(records: Vec<RunRecord>) -> Self {
        RunTable { records }
    }

    /// The underlying records.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Number of repetitions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff no repetitions were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Execution-time summary (Table II columns).
    pub fn time_summary(&self) -> Summary {
        Summary::from_slice(&self.times())
    }

    /// Migration-count summary (Table I columns).
    pub fn migration_summary(&self) -> Summary {
        Summary::from_slice(&self.migrations_f64())
    }

    /// Context-switch summary (Table I columns).
    pub fn switch_summary(&self) -> Summary {
        Summary::from_slice(&self.switches_f64())
    }

    /// Execution times as a vector (Figures 2/4 input).
    pub fn times(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.exec_time_s).collect()
    }

    /// Migration counts as floats (Fig. 3a x-axis).
    pub fn migrations_f64(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.cpu_migrations as f64)
            .collect()
    }

    /// Context-switch counts as floats (Fig. 3b x-axis).
    pub fn switches_f64(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.context_switches as f64)
            .collect()
    }

    /// True iff every repetition completed normally.
    pub fn all_completed(&self) -> bool {
        self.records.iter().all(|r| r.outcome.is_complete())
    }

    /// Merge the observer metrics of every repetition that collected
    /// them; `None` when no record carries a registry.
    pub fn merged_metrics(&self) -> Option<SchedMetrics> {
        let mut acc: Option<SchedMetrics> = None;
        for m in self.records.iter().filter_map(|r| r.metrics.as_ref()) {
            acc.get_or_insert_with(SchedMetrics::new).merge(m);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_sim::stats::pearson;

    fn rec(run: u64, t: f64, mig: u64, cs: u64) -> RunRecord {
        RunRecord {
            run,
            exec_time_s: t,
            cpu_migrations: mig,
            context_switches: cs,
            involuntary_preemptions: 0,
            load_balance_calls: 0,
            outcome: RunOutcome::Completed,
            metrics: None,
        }
    }

    #[test]
    fn from_delta_extracts_counters() {
        let mut d = CounterSet::new();
        d.add_sw(SwEvent::CpuMigrations, 52);
        d.add_sw(SwEvent::ContextSwitches, 650);
        let r = RunRecord::from_delta(3, 8.54, &d);
        assert_eq!(r.run, 3);
        assert_eq!(r.cpu_migrations, 52);
        assert_eq!(r.context_switches, 650);
        assert!((r.exec_time_s - 8.54).abs() < 1e-12);
    }

    #[test]
    fn summaries_match_paper_columns() {
        let t = RunTable::new(vec![
            rec(0, 8.54, 29, 550),
            rec(1, 14.59, 615, 1886),
            rec(2, 9.0, 50, 652),
        ]);
        let ts = t.time_summary();
        assert_eq!(ts.min(), 8.54);
        assert_eq!(ts.max(), 14.59);
        let ms = t.migration_summary();
        assert_eq!(ms.min(), 29.0);
        assert_eq!(ms.max(), 615.0);
        let cs = t.switch_summary();
        assert_eq!(cs.max(), 1886.0);
    }

    #[test]
    fn positive_correlation_detected() {
        // Time grows with migrations: Fig. 3a's empirical relationship.
        let recs: Vec<RunRecord> = (0..50)
            .map(|i| rec(i, 8.5 + 0.01 * i as f64, 30 + i * 10, 500 + i * 20))
            .collect();
        let t = RunTable::new(recs);
        assert!(pearson(&t.migrations_f64(), &t.times()) > 0.99);
        assert!(pearson(&t.switches_f64(), &t.times()) > 0.99);
    }

    #[test]
    fn outcome_taints_table() {
        let ok = RunTable::new(vec![rec(0, 1.0, 0, 0)]);
        assert!(ok.all_completed());
        let bad = RunTable::new(vec![
            rec(0, 1.0, 0, 0),
            rec(1, 0.5, 0, 0).with_outcome(RunOutcome::Deadlock),
        ]);
        assert!(!bad.all_completed());
    }

    #[test]
    fn merged_metrics_across_reps() {
        use crate::metrics::SchedMetrics;
        let t = RunTable::new(vec![rec(0, 1.0, 0, 0)]);
        assert!(t.merged_metrics().is_none());
        let mut m0 = SchedMetrics::new();
        m0.switches = 3;
        let mut m1 = SchedMetrics::new();
        m1.switches = 4;
        m1.timeslice_ns.record(100);
        let t = RunTable::new(vec![
            rec(0, 1.0, 0, 0).with_metrics(m0),
            rec(1, 1.1, 0, 0).with_metrics(m1),
        ]);
        let merged = t.merged_metrics().unwrap();
        assert_eq!(merged.switches, 7);
        assert_eq!(merged.timeslice_ns.count(), 1);
    }

    #[test]
    fn empty_table() {
        let t = RunTable::new(vec![]);
        assert!(t.is_empty());
        assert!(t.time_summary().mean().is_nan());
    }
}
