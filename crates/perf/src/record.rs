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

    /// Stable lowercase label for reports/CSV.
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Deadlock => "deadlock",
            RunOutcome::BudgetExhausted => "budget_exhausted",
        }
    }

    /// Parse a [`Self::label`] back into the outcome (CSV ingestion).
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "completed" => Some(RunOutcome::Completed),
            "deadlock" => Some(RunOutcome::Deadlock),
            "budget_exhausted" => Some(RunOutcome::BudgetExhausted),
            _ => None,
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

    /// Full raw table as CSV (one row per repetition) — what a paper's
    /// artifact-evaluation appendix would archive.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "run,exec_time_s,cpu_migrations,context_switches,involuntary_preemptions,load_balance_calls,outcome\n",
        );
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                r.run,
                r.exec_time_s,
                r.cpu_migrations,
                r.context_switches,
                r.involuntary_preemptions,
                r.load_balance_calls,
                r.outcome.label()
            ));
        }
        out
    }

    /// Parse a table back from [`Self::to_csv`] output. Strict on shape:
    /// the header must match what `to_csv` writes and every row must
    /// carry exactly its columns (observer metrics are not serialised,
    /// so they come back as `None`).
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut lines = csv.lines();
        let header = lines.next().ok_or("empty CSV")?;
        let expected = "run,exec_time_s,cpu_migrations,context_switches,involuntary_preemptions,load_balance_calls,outcome";
        if header != expected {
            return Err(format!("unexpected header {header:?}"));
        }
        let mut records = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 7 {
                return Err(format!("row {i}: expected 7 fields, got {}", fields.len()));
            }
            let num = |j: usize| -> Result<u64, String> {
                fields[j]
                    .parse()
                    .map_err(|_| format!("row {i}: bad integer {:?}", fields[j]))
            };
            records.push(RunRecord {
                run: num(0)?,
                exec_time_s: fields[1]
                    .parse()
                    .map_err(|_| format!("row {i}: bad time {:?}", fields[1]))?,
                cpu_migrations: num(2)?,
                context_switches: num(3)?,
                involuntary_preemptions: num(4)?,
                load_balance_calls: num(5)?,
                outcome: RunOutcome::parse(fields[6])
                    .ok_or_else(|| format!("row {i}: unknown outcome {:?}", fields[6]))?,
                metrics: None,
            });
        }
        Ok(RunTable::new(records))
    }

    /// True iff every repetition completed normally.
    pub fn all_completed(&self) -> bool {
        self.records.iter().all(|r| r.outcome.is_complete())
    }

    /// Records that did not complete (deadlocked or over budget).
    pub fn failed_records(&self) -> Vec<&RunRecord> {
        self.records
            .iter()
            .filter(|r| !r.outcome.is_complete())
            .collect()
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

    /// Execution-time percentile (`q` in 0..=100).
    pub fn time_percentile(&self, q: f64) -> f64 {
        hpl_sim::stats::percentile(&self.times(), q)
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
    fn csv_roundtrip_columns() {
        let t = RunTable::new(vec![rec(0, 1.5, 10, 100)]);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "run,exec_time_s,cpu_migrations,context_switches,involuntary_preemptions,load_balance_calls,outcome"
        );
        assert_eq!(lines.next().unwrap(), "0,1.5,10,100,0,0,completed");
    }

    #[test]
    fn outcome_labels_roundtrip() {
        for o in [
            RunOutcome::Completed,
            RunOutcome::Deadlock,
            RunOutcome::BudgetExhausted,
        ] {
            assert_eq!(RunOutcome::parse(o.label()), Some(o));
        }
        assert_eq!(RunOutcome::parse("crashed"), None);
    }

    #[test]
    fn outcome_parse_rejects_garbage() {
        // Regression: parse must return None for anything that is not a
        // verbatim label — never panic, never guess. Fuzz-ish battery of
        // the shapes that show up in hand-edited or truncated CSVs.
        for garbage in [
            "",
            " ",
            "completed ",
            " completed",
            "Completed",
            "COMPLETED",
            "complete",
            "completedd",
            "dead lock",
            "deadlock\n",
            "budget-exhausted",
            "budget_exhausted2",
            "budget",
            "0",
            "✓",
            "complet\u{00e9}d",
            "completed\0",
            "\0",
            "null",
            "none",
            "ok",
        ] {
            assert_eq!(
                RunOutcome::parse(garbage),
                None,
                "garbage label {garbage:?} must not parse"
            );
        }
        // And a whole CSV row carrying a garbage outcome errors cleanly.
        let bad = "run,exec_time_s,cpu_migrations,context_switches,involuntary_preemptions,load_balance_calls,outcome\n0,1.0,0,0,0,0,completed \n";
        let err = RunTable::from_csv(bad).unwrap_err();
        assert!(err.contains("unknown outcome"), "got {err:?}");
    }

    #[test]
    fn csv_roundtrips_outcomes_through_table() {
        let t = RunTable::new(vec![
            rec(0, 8.54, 29, 550),
            rec(1, 14.59, 615, 1886).with_outcome(RunOutcome::Deadlock),
            rec(2, 9.0, 50, 652).with_outcome(RunOutcome::BudgetExhausted),
        ]);
        let parsed = RunTable::from_csv(&t.to_csv()).expect("round-trip");
        assert_eq!(parsed.records(), t.records());
        assert_eq!(parsed.failed_records().len(), 2);
        // Malformed inputs are rejected, not mangled.
        assert!(RunTable::from_csv("").is_err());
        assert!(RunTable::from_csv("wrong,header\n").is_err());
        let bad_outcome = "run,exec_time_s,cpu_migrations,context_switches,involuntary_preemptions,load_balance_calls,outcome\n0,1.0,0,0,0,0,crashed\n";
        assert!(RunTable::from_csv(bad_outcome).is_err());
    }

    #[test]
    fn outcome_taints_table() {
        let ok = RunTable::new(vec![rec(0, 1.0, 0, 0)]);
        assert!(ok.all_completed());
        assert!(ok.failed_records().is_empty());
        let bad = RunTable::new(vec![
            rec(0, 1.0, 0, 0),
            rec(1, 0.5, 0, 0).with_outcome(RunOutcome::Deadlock),
        ]);
        assert!(!bad.all_completed());
        assert_eq!(bad.failed_records().len(), 1);
        assert!(bad.to_csv().contains("deadlock"));
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
    fn percentiles_bound_by_extremes() {
        let t = RunTable::new(vec![
            rec(0, 1.0, 0, 0),
            rec(1, 2.0, 0, 0),
            rec(2, 9.0, 0, 0),
        ]);
        assert_eq!(t.time_percentile(0.0), 1.0);
        assert_eq!(t.time_percentile(100.0), 9.0);
        assert!((t.time_percentile(50.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table() {
        let t = RunTable::new(vec![]);
        assert!(t.is_empty());
        assert!(t.time_summary().mean().is_nan());
    }
}
