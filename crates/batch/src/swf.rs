//! Standard Workload Format ingestion: production job traces from the
//! Parallel Workloads Archive, feeding the [`BatchTrace`] pipeline.
//!
//! The SWF is the lingua franca of batch-scheduling research: one line
//! per job, 18 whitespace-separated integer fields, `-1` for a missing
//! value, and a header of `;`-prefixed comment lines carrying machine
//! metadata (`; MaxNodes: 128`). This module provides:
//!
//! * [`SwfTrace`] — a faithful, round-trippable in-memory form of an
//!   SWF file ([`SwfTrace::from_text`] / [`SwfTrace::to_text`]), with
//!   header-directive lookup and the standard submit-time
//!   normalization (real traces are *not* always sorted by submit
//!   time; see [`SwfTrace::normalized`]);
//! * [`SwfMap`] — the explicit, seedless mapping from SWF records
//!   (seconds, processors, users, queues) onto [`BatchJob`]s
//!   (virtual-time nanoseconds, bulk-synchronous MPI shapes) that the
//!   co-simulated cluster can actually run;
//! * [`TraceTransform`] — a pure trace-to-trace layer (time/size
//!   rescaling, load shaping, max-jobs truncation) so one vendored
//!   fixture can drive anything from a 50-job smoke to a
//!   thousands-of-jobs sweep over hundreds of nodes.
//!
//! Every step is a deterministic function of its inputs: the same SWF
//! text, map and transform produce the same `BatchTrace` byte for
//! byte, which is what lets SWF-driven bench cells gate on bit-exact
//! replay and serial-vs-pooled equality.

use crate::trace::{BatchJob, BatchTrace, LAUNCH_OVERHEAD_NS};

/// One SWF record — the 18 standard fields, in file order. Times are
/// in seconds, `-1` means "not available" (except the job number,
/// which is always present and non-negative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwfJob {
    /// 1. Job number.
    pub job_id: u32,
    /// 2. Submit time, seconds from trace start.
    pub submit: i64,
    /// 3. Wait time in the queue, seconds.
    pub wait: i64,
    /// 4. Run time (wall clock), seconds.
    pub run_time: i64,
    /// 5. Number of allocated processors.
    pub procs: i64,
    /// 6. Average CPU time used per processor, seconds.
    pub cpu_time: i64,
    /// 7. Used memory per node, KB.
    pub mem: i64,
    /// 8. Requested number of processors.
    pub req_procs: i64,
    /// 9. Requested time (user runtime estimate / walltime limit),
    ///    seconds.
    pub req_time: i64,
    /// 10. Requested memory per node, KB.
    pub req_mem: i64,
    /// 11. Completion status (1 = completed, 0 = failed, 5 =
    ///     cancelled).
    pub status: i64,
    /// 12. User ID.
    pub user: i64,
    /// 13. Group ID.
    pub group: i64,
    /// 14. Executable (application) number.
    pub exe: i64,
    /// 15. Queue number.
    pub queue: i64,
    /// 16. Partition number.
    pub partition: i64,
    /// 17. Preceding job number.
    pub prev_job: i64,
    /// 18. Think time from preceding job, seconds.
    pub think_time: i64,
}

impl SwfJob {
    /// Effective processor count: allocated if recorded, else
    /// requested; `None` when both are missing (the `-1` semantics).
    pub fn effective_procs(&self) -> Option<u32> {
        if self.procs > 0 {
            Some(self.procs as u32)
        } else if self.req_procs > 0 {
            Some(self.req_procs as u32)
        } else {
            None
        }
    }

    /// Effective runtime estimate in seconds: the user's request if
    /// recorded, else the actual runtime (an oracle estimate, the
    /// standard fallback in the literature); `None` when both are
    /// missing.
    pub fn effective_req_time(&self) -> Option<i64> {
        if self.req_time > 0 {
            Some(self.req_time)
        } else if self.run_time > 0 {
            Some(self.run_time)
        } else {
            None
        }
    }
}

/// A parsed SWF file: raw header comments plus the job records, in
/// file order. Round-trippable: [`Self::to_text`] followed by
/// [`Self::from_text`] reproduces the value exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SwfTrace {
    /// Header/interleaved comment lines, `;` prefix stripped, leading
    /// whitespace trimmed, in file order.
    pub comments: Vec<String>,
    /// The job records, in file order (not necessarily sorted by
    /// submit time — see [`Self::normalized`]).
    pub jobs: Vec<SwfJob>,
}

impl SwfTrace {
    /// Parse SWF text. `;` lines are collected as comments, blank
    /// lines are skipped, and every other line must be exactly 18
    /// integer fields — anything else is an error naming the line.
    pub fn from_text(text: &str) -> Result<SwfTrace, String> {
        let mut comments = Vec::new();
        let mut jobs = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix(';') {
                comments.push(rest.trim_start().to_string());
                continue;
            }
            let fields = line
                .split_whitespace()
                .map(|tok| {
                    tok.parse::<i64>()
                        .map_err(|_| format!("line {}: bad field {tok:?}", lineno + 1))
                })
                .collect::<Result<Vec<i64>, String>>()?;
            let f: [i64; 18] = fields.try_into().map_err(|v: Vec<i64>| {
                format!(
                    "line {}: expected 18 fields, got {}: {line:?}",
                    lineno + 1,
                    v.len()
                )
            })?;
            if f[0] < 0 {
                return Err(format!("line {}: negative job number", lineno + 1));
            }
            jobs.push(SwfJob {
                job_id: f[0] as u32,
                submit: f[1],
                wait: f[2],
                run_time: f[3],
                procs: f[4],
                cpu_time: f[5],
                mem: f[6],
                req_procs: f[7],
                req_time: f[8],
                req_mem: f[9],
                status: f[10],
                user: f[11],
                group: f[12],
                exe: f[13],
                queue: f[14],
                partition: f[15],
                prev_job: f[16],
                think_time: f[17],
            });
        }
        Ok(SwfTrace { comments, jobs })
    }

    /// Serialise back to SWF text: comments first (in original order),
    /// then one 18-field line per job.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for c in &self.comments {
            out.push_str("; ");
            out.push_str(c);
            out.push('\n');
        }
        for j in &self.jobs {
            out.push_str(&format!(
                "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                j.job_id,
                j.submit,
                j.wait,
                j.run_time,
                j.procs,
                j.cpu_time,
                j.mem,
                j.req_procs,
                j.req_time,
                j.req_mem,
                j.status,
                j.user,
                j.group,
                j.exe,
                j.queue,
                j.partition,
                j.prev_job,
                j.think_time
            ));
        }
        out
    }

    /// Look up an integer header directive (`; Key: value`), e.g.
    /// `MaxNodes`, `MaxProcs`, `UnixStartTime`. Keys match
    /// case-sensitively; the first hit wins.
    pub fn directive(&self, key: &str) -> Option<i64> {
        self.comments.iter().find_map(|c| {
            let (k, v) = c.split_once(':')?;
            if k.trim() == key {
                v.trim().parse::<i64>().ok()
            } else {
                None
            }
        })
    }

    /// Submit-time normalization: jobs sorted by `(submit, job_id)`
    /// and rebased so the earliest submit is 0. Archive traces are
    /// numbered by completion or logging order and their submit times
    /// are not always monotone, but the batch engine (like a real
    /// scheduler) wants a replayable arrival stream.
    pub fn normalized(&self) -> SwfTrace {
        let mut jobs = self.jobs.clone();
        jobs.sort_by_key(|j| (j.submit, j.job_id));
        let base = jobs
            .iter()
            .map(|j| j.submit)
            .filter(|&s| s >= 0)
            .min()
            .unwrap_or(0);
        for j in &mut jobs {
            j.submit = (j.submit - base).max(0);
        }
        SwfTrace {
            comments: self.comments.clone(),
            jobs,
        }
    }

    /// Convert to a runnable [`BatchTrace`] under `map`, after
    /// [`Self::normalized`]. Jobs with no usable runtime or processor
    /// count (`-1` everywhere) and jobs that never ran (status 0/5
    /// with zero runtime) are dropped — the count of dropped records
    /// is returned alongside so callers can report coverage instead of
    /// silently shrinking the workload.
    pub fn to_batch(&self, map: &SwfMap) -> (BatchTrace, usize) {
        map.validate();
        let norm = self.normalized();
        let mut jobs = Vec::with_capacity(norm.jobs.len());
        let mut dropped = 0usize;
        for j in &norm.jobs {
            let (Some(procs), Some(run)) =
                (j.effective_procs(), (j.run_time > 0).then_some(j.run_time))
            else {
                dropped += 1;
                continue;
            };
            let nodes = procs
                .div_ceil(map.ranks_per_node)
                .clamp(1, map.cluster_nodes);
            let ranks_per_node = map.ranks_per_node.min(procs);
            let submit_ns = scale_secs(j.submit.max(0), map.ns_per_sec);
            let runtime_ns = scale_secs(run, map.ns_per_sec).max(map.iters as u64);
            let compute_ns = (runtime_ns / map.iters as u64).max(1);
            let nominal = compute_ns * map.iters as u64;
            // The co-sim realizes each iteration as the max over nprocs
            // exponential draws, so the bracket estimate scales the
            // nominal by 2 + log2(nprocs) plus launch overhead — the
            // same arithmetic BatchTrace::synthetic uses. The honest
            // estimate is the user's own request, which under- as well
            // as over-estimates, exactly what walltime enforcement
            // needs to bite on.
            let nprocs = (nodes * ranks_per_node) as u64;
            let est_factor = 2 + (u64::BITS - nprocs.leading_zeros()) as u64;
            let bracket = est_factor * nominal + 2 * LAUNCH_OVERHEAD_NS;
            let est_runtime_ns = if map.honest_estimates {
                let req = j.effective_req_time().unwrap_or(run);
                scale_secs(req, map.ns_per_sec).max(LAUNCH_OVERHEAD_NS)
            } else {
                let req = j.effective_req_time().unwrap_or(run);
                scale_secs(req, map.ns_per_sec).max(bracket)
            };
            jobs.push(BatchJob {
                id: j.job_id,
                submit_ns,
                nodes,
                ranks_per_node,
                iters: map.iters,
                compute_ns,
                bytes: map.bytes,
                est_runtime_ns,
                user: j.user.max(0) as u32,
                class: j.queue.max(0) as u32,
            });
        }
        (BatchTrace { jobs }, dropped)
    }
}

fn scale_secs(secs: i64, ns_per_sec: f64) -> u64 {
    (secs.max(0) as f64 * ns_per_sec).round() as u64
}

/// The SWF → [`BatchJob`] mapping: how archive seconds and processors
/// become co-simulable virtual-time MPI jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfMap {
    /// Width of the simulated cluster; wider requests are clamped (the
    /// standard down-scaling move when replaying a big machine's trace
    /// on a smaller one).
    pub cluster_nodes: u32,
    /// Ranks per node for every generated job; SWF processor counts
    /// are converted to node counts at this density.
    pub ranks_per_node: u32,
    /// Virtual nanoseconds per trace second — the time compression.
    /// The default `10_000.0` maps an hour-long archive job to 36 ms
    /// of virtual time, long enough to schedule meaningfully and short
    /// enough to sweep thousands of jobs.
    pub ns_per_sec: f64,
    /// Bulk-synchronous iterations each job's compute is split into
    /// (each ends in an Allreduce).
    pub iters: u32,
    /// Allreduce payload per iteration, bytes.
    pub bytes: u64,
    /// `false` (default): estimates are the user's request, floored by
    /// the generous max-of-exponentials bracket so reservations hold —
    /// the right setting for backfill studies. `true`: estimates are
    /// the raw scaled request, which real users routinely undershoot —
    /// the right setting for walltime-kill studies.
    pub honest_estimates: bool,
}

impl Default for SwfMap {
    fn default() -> Self {
        SwfMap {
            cluster_nodes: 16,
            ranks_per_node: 2,
            ns_per_sec: 10_000.0,
            iters: 2,
            bytes: 64,
            honest_estimates: false,
        }
    }
}

impl SwfMap {
    /// Default mapping onto a `nodes`-wide cluster.
    pub fn for_cluster(nodes: u32) -> Self {
        SwfMap {
            cluster_nodes: nodes,
            ..Self::default()
        }
    }

    /// Set the time compression (virtual ns per trace second).
    pub fn ns_per_sec(mut self, ns: f64) -> Self {
        self.ns_per_sec = ns;
        self
    }

    /// Use raw user estimates (see [`SwfMap::honest_estimates`]).
    pub fn honest(mut self) -> Self {
        self.honest_estimates = true;
        self
    }

    fn validate(&self) {
        assert!(self.cluster_nodes >= 1, "cluster must have nodes");
        assert!(self.ranks_per_node >= 1, "jobs need ranks");
        assert!(self.iters >= 1, "jobs need iterations");
        assert!(
            self.ns_per_sec.is_finite() && self.ns_per_sec > 0.0,
            "time scale must be positive"
        );
    }
}

/// A pure, deterministic trace-to-trace transform: truncation, load
/// shaping, time and size rescaling, tiling. Operations compose in a
/// fixed order regardless of builder-call order: truncate → arrival
/// scale → runtime scale → width fit → tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceTransform {
    max_jobs: Option<usize>,
    arrival_scale: f64,
    runtime_scale: f64,
    fit_nodes: Option<u32>,
    tile: u32,
}

impl Default for TraceTransform {
    fn default() -> Self {
        TraceTransform {
            max_jobs: None,
            arrival_scale: 1.0,
            runtime_scale: 1.0,
            fit_nodes: None,
            tile: 1,
        }
    }
}

impl TraceTransform {
    /// The identity transform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep only the first `n` jobs (by submit order).
    pub fn take(mut self, n: usize) -> Self {
        self.max_jobs = Some(n);
        self
    }

    /// Multiply every submit offset by `s`. `s < 1` compresses
    /// arrivals — the load-shaping knob: halving inter-arrival gaps
    /// doubles offered load without touching job shapes.
    pub fn arrival_scale(mut self, s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "arrival scale must be >= 0");
        self.arrival_scale = s;
        self
    }

    /// Multiply every per-job compute and runtime estimate by `s`
    /// (time rescaling of the jobs themselves).
    pub fn runtime_scale(mut self, s: f64) -> Self {
        assert!(s.is_finite() && s > 0.0, "runtime scale must be positive");
        self.runtime_scale = s;
        self
    }

    /// Cap job widths at `nodes` (size rescaling onto a narrower
    /// cluster).
    pub fn fit(mut self, nodes: u32) -> Self {
        assert!(nodes >= 1, "cannot fit onto zero nodes");
        self.fit_nodes = Some(nodes);
        self
    }

    /// Replicate the (truncated, rescaled) trace `n` times end to end:
    /// copy `c` repeats the whole arrival pattern shifted to start
    /// where copy `c-1`'s last arrival landed, with ids renumbered past
    /// the previous copy's range. Tiling is how a short SWF fragment
    /// becomes a capacity-scale workload — thousands of jobs with the
    /// *original trace's* arrival statistics, not a synthetic
    /// generator's.
    pub fn tile(mut self, n: u32) -> Self {
        assert!(n >= 1, "tile count must be >= 1");
        self.tile = n;
        self
    }

    /// Apply to `trace`, producing a new trace. Pure: same input, same
    /// output, no seeds involved.
    pub fn apply(&self, trace: &BatchTrace) -> BatchTrace {
        let mut jobs = trace.jobs.clone();
        if let Some(n) = self.max_jobs {
            jobs.truncate(n);
        }
        for j in &mut jobs {
            j.submit_ns = (j.submit_ns as f64 * self.arrival_scale).round() as u64;
            j.compute_ns = ((j.compute_ns as f64 * self.runtime_scale).round() as u64).max(1);
            j.est_runtime_ns =
                ((j.est_runtime_ns as f64 * self.runtime_scale).round() as u64).max(1);
            if let Some(cap) = self.fit_nodes {
                j.nodes = j.nodes.min(cap);
            }
        }
        if self.tile > 1 && !jobs.is_empty() {
            let base: Vec<BatchJob> = jobs.clone();
            let span = base.iter().map(|j| j.submit_ns).max().expect("non-empty");
            let id_stride = base.iter().map(|j| j.id).max().expect("non-empty") + 1;
            // Copies arrive back to back; a +1 ns gap keeps copy
            // boundaries distinct even for a trace whose arrivals are
            // all at offset 0.
            let shift = span + 1;
            for c in 1..self.tile {
                for j in &base {
                    let mut j = j.clone();
                    j.submit_ns += u64::from(c) * shift;
                    j.id += c * id_stride;
                    jobs.push(j);
                }
            }
        }
        BatchTrace { jobs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = "\
; Version: 2.2
; MaxNodes: 8
; MaxProcs: 16
; UnixStartTime: 1000000000
1 0 5 3600 4 -1 -1 4 7200 -1 1 3 1 0 2 0 -1 -1
2 10 -1 60 -1 -1 -1 2 -1 -1 1 4 1 2 1 0 -1 -1
3 5 0 1800 16 1700 -1 16 1800 -1 1 3 1 1 0 0 -1 -1
4 20 0 -1 -1 -1 -1 -1 -1 -1 0 5 1 1 2 0 -1 -1
";

    #[test]
    fn parses_header_fields_and_missing_values() {
        let t = SwfTrace::from_text(MINI).unwrap();
        assert_eq!(t.jobs.len(), 4);
        assert_eq!(t.directive("MaxNodes"), Some(8));
        assert_eq!(t.directive("MaxProcs"), Some(16));
        assert_eq!(t.directive("UnixStartTime"), Some(1_000_000_000));
        assert_eq!(t.directive("NoSuchKey"), None);
        // -1 semantics: job 2 has no allocated procs, falls back to
        // the request; job 4 has neither.
        assert_eq!(t.jobs[1].procs, -1);
        assert_eq!(t.jobs[1].effective_procs(), Some(2));
        assert_eq!(t.jobs[3].effective_procs(), None);
        assert_eq!(t.jobs[1].effective_req_time(), Some(60));
    }

    #[test]
    fn round_trips_exactly() {
        let t = SwfTrace::from_text(MINI).unwrap();
        let text = t.to_text();
        let back = SwfTrace::from_text(&text).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn rejects_garbage_lines() {
        assert!(SwfTrace::from_text("1 2 3\n").is_err(), "too few fields");
        assert!(
            SwfTrace::from_text("1 0 0 60 4 -1 -1 4 60 -1 1 1 1 1 0 0 -1 -1 99\n").is_err(),
            "too many fields"
        );
        assert!(
            SwfTrace::from_text("one 0 0 60 4 -1 -1 4 60 -1 1 1 1 1 0 0 -1 -1\n").is_err(),
            "non-numeric field"
        );
        assert!(
            SwfTrace::from_text("-7 0 0 60 4 -1 -1 4 60 -1 1 1 1 1 0 0 -1 -1\n").is_err(),
            "negative job number"
        );
        let err = SwfTrace::from_text("; ok\nbogus line here\n").unwrap_err();
        assert!(err.contains("line 2"), "error names the line: {err}");
    }

    #[test]
    fn normalization_sorts_and_rebases() {
        let t = SwfTrace::from_text(MINI).unwrap();
        // MINI is deliberately non-monotone: submits 0, 10, 5, 20.
        assert!(t.jobs.windows(2).any(|w| w[0].submit > w[1].submit));
        let n = t.normalized();
        let submits: Vec<i64> = n.jobs.iter().map(|j| j.submit).collect();
        assert_eq!(submits, vec![0, 5, 10, 20]);
        let ids: Vec<u32> = n.jobs.iter().map(|j| j.job_id).collect();
        assert_eq!(ids, vec![1, 3, 2, 4]);
        // Rebase: shift everything by +100 and the normal form is
        // unchanged.
        let mut shifted = t.clone();
        for j in &mut shifted.jobs {
            j.submit += 100;
        }
        assert_eq!(shifted.normalized().jobs, n.jobs);
    }

    #[test]
    fn to_batch_maps_and_drops() {
        let t = SwfTrace::from_text(MINI).unwrap();
        let map = SwfMap::for_cluster(4);
        let (batch, dropped) = t.to_batch(&map);
        assert_eq!(dropped, 1, "job 4 has no runtime and no procs");
        assert_eq!(batch.jobs.len(), 3);
        // Normalized order: job 1 (submit 0), job 3 (5), job 2 (10).
        assert_eq!(batch.jobs[0].id, 1);
        assert_eq!(batch.jobs[0].user, 3);
        assert_eq!(batch.jobs[0].class, 2);
        assert_eq!(batch.jobs[0].nodes, 2, "4 procs at 2 ranks/node");
        let wide = &batch.jobs[1];
        assert_eq!(wide.id, 3);
        assert_eq!(wide.nodes, 4, "16 procs clamp to the 4-node cluster");
        // Time compression: 3600 s at 10_000 ns/s over 2 iters.
        assert_eq!(batch.jobs[0].compute_ns, 18_000_000);
        assert_eq!(batch.jobs[2].submit_ns, 100_000);
        // Bracket estimates dominate the scaled request here.
        assert!(batch.jobs[0].est_runtime_ns >= 72_000_000);
        // Honest estimates use the raw scaled request.
        let (honest, _) = t.to_batch(&SwfMap::for_cluster(4).honest());
        assert_eq!(honest.jobs[0].est_runtime_ns, 72_000_000);
        assert!(honest.jobs[0].est_runtime_ns < batch.jobs[0].est_runtime_ns);
    }

    #[test]
    fn transform_truncates_shapes_and_fits() {
        let t = SwfTrace::from_text(MINI).unwrap();
        let (batch, _) = t.to_batch(&SwfMap::for_cluster(8));
        let out = TraceTransform::new()
            .take(2)
            .arrival_scale(0.5)
            .runtime_scale(2.0)
            .fit(2)
            .apply(&batch);
        assert_eq!(out.jobs.len(), 2);
        assert_eq!(out.jobs[1].submit_ns, batch.jobs[1].submit_ns / 2);
        assert_eq!(out.jobs[0].compute_ns, batch.jobs[0].compute_ns * 2);
        assert!(out.jobs.iter().all(|j| j.nodes <= 2));
        // Identity transform is exact.
        assert_eq!(TraceTransform::new().apply(&batch), batch);
        // Deterministic: same inputs, same output.
        let again = TraceTransform::new()
            .take(2)
            .arrival_scale(0.5)
            .runtime_scale(2.0)
            .fit(2)
            .apply(&batch);
        assert_eq!(out, again);
    }

    #[test]
    fn transform_tile_replicates_arrivals_and_renumbers() {
        let t = SwfTrace::from_text(MINI).unwrap();
        let (batch, _) = t.to_batch(&SwfMap::for_cluster(8));
        let n = batch.jobs.len();
        let out = TraceTransform::new().tile(3).apply(&batch);
        assert_eq!(out.jobs.len(), 3 * n);
        // Ids unique across copies.
        let mut ids: Vec<u32> = out.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3 * n, "tiled ids stay unique");
        // Copy c's arrivals are copy 0's, shifted by a constant.
        let span = batch.jobs.iter().map(|j| j.submit_ns).max().unwrap() + 1;
        for c in 0..3u64 {
            for (i, j) in batch.jobs.iter().enumerate() {
                let tiled = &out.jobs[c as usize * n + i];
                assert_eq!(tiled.submit_ns, j.submit_ns + c * span);
                assert_eq!(tiled.nodes, j.nodes);
                assert_eq!(tiled.compute_ns, j.compute_ns);
            }
        }
        // tile(1) is the identity.
        assert_eq!(TraceTransform::new().tile(1).apply(&batch), batch);
    }
}
