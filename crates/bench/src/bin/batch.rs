//! Two-level scheduling sweep: batch allocation policies over CFS and
//! HPL kernels, plus a production-workload (SWF) policy-zoo sweep.
//!
//! Part 1 (synthetic): one seeded synthetic job stream through every
//! (allocation policy, kernel flavour) cell on the same co-simulated
//! cluster shape: FCFS, EASY backfilling and 2-jobs-per-node
//! oversubscription, each under the standard-Linux CFS kernel (noisy
//! daemons contending with ranks) and the HPL kernel (`SCHED_HPC`
//! ranks above the noise). Per cell it reports mean wait, mean/max
//! bounded slowdown, utilization and makespan from the engine's
//! [`BatchReport`].
//!
//! Part 2 (SWF): the vendored Parallel-Workloads-Archive-style fixture
//! (or `--trace FILE`) is parsed, mapped and replayed under the full
//! policy zoo — FCFS, EASY, conservative backfilling, multi-queue with
//! aging, and fair share — on the HPL kernel, plus one walltime-
//! enforcement cell under honest (undershooting) user estimates.
//!
//! Part 1 also sweeps the gang-rotation cells: `oversub` and `dfrs`
//! under the HPL kernel with `KernelConfig::gang_epoch` set, so
//! co-resident jobs rotate in synchronized epochs instead of
//! serialising behind the HPL class's run-to-block order.
//!
//! Part 3 (capacity): the mapped SWF slice is tiled into a
//! thousands-of-jobs workload and replayed on a 128-node cluster with
//! pooled window stepping — bit-exact replay pinned at the 512-job
//! sub-scale (twice), the 2048-job headline run once under a host
//! wall-clock ceiling. Skipped under `--smoke`; `--quick` runs only
//! the sub-scale pair.
//!
//! Every cell runs through `make_policy` and reports the policy's
//! `AllocPolicy::audit` tally alongside its report.
//!
//! Gated claims, at every flavour: the synthetic run is deterministic,
//! no cell violates its policy's occupancy limit or audit, and the DFRS
//! cell replays bit for bit with zero share-conservation violations;
//! on the SWF sweep — bit-exact replay, clean audits (zero conservative
//! reservation violations), serial-vs-pooled bit equality on an SWF
//! cell, walltime kills that fire without losing jobs or leaking
//! occupancy, and clean occupancy with no lost job; and on the capacity
//! cell — replay-pair bit equality, clean occupancy and zero lost jobs
//! at both scales, and host wall ceilings (300 s per sub-scale run,
//! 2400 s headline).
//!
//! Gated except under `--smoke` (comparisons that need the full job
//! stream): EASY does not raise mean wait over FCFS, the HPL kernel
//! does not stretch the makespan over CFS on dedicated nodes, DFRS
//! keeps mean bounded slowdown at or below EASY's, gang rotation closes
//! the oversub×HPL makespan gap to within 20% of CFS (the cell Claim 4
//! deliberately could not cover), and fair-share user-slowdown spread
//! is no wider than FCFS's.
//!
//! Writes `BENCH_batch.json` in the current directory. `--swf-smoke`
//! and `--dfrs-smoke` run only their check, gated on invariants, and
//! write no file.
//!
//! Usage: `batch [--smoke | --quick] [--out PATH] [--swf-smoke] [--dfrs-smoke] [--trace FILE]`

use hpl_batch::{
    AllocPolicy, AuditSummary, BatchReport, BatchRun, BatchTrace, ConservativeBackfill, Dfrs,
    EasyBackfill, FairShare, Fcfs, MultiQueue, Oversubscribed, SwfMap, SwfTrace, TraceTransform,
};
use hpl_bench::row;
use hpl_bench::sweep::{Flags, Flavour, Report, Row};
use hpl_cluster::{Cluster, CosimConfig, Interconnect, NetConfig};
use hpl_core::HplClass;
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_mpi::SchedMode;
use hpl_sim::{Rng, SimDuration};
use hpl_topology::Topology;

const CPUS_PER_NODE: u32 = 2;

/// Gang-rotation epoch for the gang cells (see
/// `KernelConfig::gang_epoch`).
const GANG_EPOCH: SimDuration = SimDuration::from_micros(500);

/// DFRS reallocation period.
const DFRS_PERIOD: SimDuration = SimDuration::from_millis(1);

/// The vendored 200-job SWF fixture (also used by the crate tests).
const SWF_FIXTURE: &str = include_str!("../../../batch/tests/data/sp2_sample.swf");

/// A warmed-up cluster, optionally with gang rotation.
fn build_cluster(
    nodes: u32,
    hpc: bool,
    seed: u64,
    cosim: CosimConfig,
    gang: Option<SimDuration>,
) -> Cluster {
    let mut cluster = Cluster::builder()
        .nodes_with(nodes as usize, move |i| {
            let mut kc = if hpc {
                KernelConfig::hpl()
            } else {
                KernelConfig::default()
            };
            kc.gang_epoch = gang;
            let mut b = NodeBuilder::new(Topology::smp(CPUS_PER_NODE))
                .with_config(kc)
                .with_noise(NoiseProfile::standard(CPUS_PER_NODE))
                .with_seed(Rng::for_run(seed, i as u64).next_u64());
            if hpc {
                b = b.with_hpc_class(Box::new(HplClass::new()));
            }
            b.build()
        })
        .fabric(Interconnect::flat(nodes as usize, NetConfig::default()))
        .cosim(cosim)
        .build();
    for i in 0..nodes as usize {
        cluster.node_mut(i).run_for(SimDuration::from_millis(300));
    }
    cluster
}

fn make_policy(name: &str, seed: u64) -> Box<dyn AllocPolicy> {
    match name {
        "fcfs" => Box::new(Fcfs),
        "easy" => Box::new(EasyBackfill::new()),
        "oversub" => Box::new(Oversubscribed),
        "dfrs" => Box::new(Dfrs::new(DFRS_PERIOD, seed)),
        "conservative" => Box::new(ConservativeBackfill::new()),
        "multiq" => Box::new(MultiQueue::default()),
        "fairshare" => Box::new(FairShare::new()),
        other => panic!("unknown policy {other}"),
    }
}

/// Run `policy` on `cluster`, returning the report plus the policy's
/// audit tally.
fn run_policy(
    run: BatchRun,
    cluster: &mut Cluster,
    policy: &str,
    seed: u64,
) -> (BatchReport, AuditSummary) {
    let mut p = make_policy(policy, seed);
    let report = run
        .run(cluster, p.as_mut())
        .unwrap_or_else(|o| panic!("batch cell {policy} did not complete: {o:?}"));
    (report, p.audit())
}

/// Run one cell on a fresh serial cluster, optionally with gang
/// rotation.
fn run_cell(
    trace: &BatchTrace,
    policy: &str,
    hpc: bool,
    nodes: u32,
    seed: u64,
    gang: Option<SimDuration>,
) -> (BatchReport, AuditSummary) {
    let mut cluster = build_cluster(nodes, hpc, seed, CosimConfig::serial(), gang);
    let mode = if hpc { SchedMode::Hpc } else { SchedMode::Cfs };
    run_policy(BatchRun::new(trace).mode(mode), &mut cluster, policy, seed)
}

struct Cell {
    policy: &'static str,
    kernel: &'static str,
    report: BatchReport,
    audit: AuditSummary,
}

/// Max − min of per-user mean bounded slowdown: the fairness spread a
/// fair-share policy should narrow relative to FCFS.
fn user_slowdown_spread(r: &BatchReport) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for u in &r.user_stats {
        lo = lo.min(u.mean_bounded_slowdown);
        hi = hi.max(u.mean_bounded_slowdown);
    }
    if r.user_stats.is_empty() {
        0.0
    } else {
        hi - lo
    }
}

/// One SWF cell as a report row.
fn swf_row(policy: &str, r: &BatchReport) -> Row {
    row!["policy" => policy, "mean_wait_ms" => (r.mean_wait.as_secs_f64() * 1e3, 6),
        "mean_bounded_slowdown" => (r.mean_bounded_slowdown, 4),
        "max_bounded_slowdown" => (r.max_bounded_slowdown(), 4),
        "utilization" => (r.utilization, 4), "makespan_ms" => (r.makespan.as_secs_f64() * 1e3, 6),
        "max_queue_depth" => r.max_queue_depth, "jobs_killed" => r.jobs_killed,
        "user_slowdown_spread" => (user_slowdown_spread(r), 4)]
}

fn main() {
    let flags = Flags::parse("batch", &["--swf-smoke", "--dfrs-smoke", "--trace FILE"]);
    let trace_file = flags.value("--trace");
    let smoke = flags.flavour() == Flavour::Smoke;
    let quick = flags.flavour() == Flavour::Quick;
    let seed = 0xBA7C;

    // ---------- DFRS smoke: gang cell twice → bit-exact → exit ----------
    if flags.has("--dfrs-smoke") {
        let nodes = 4u32;
        let trace = BatchTrace::synthetic(seed, 12, nodes);
        eprintln!(
            "dfrs smoke: {nodes} nodes, {} jobs, gang epoch {:?}, period {:?}",
            trace.jobs.len(),
            GANG_EPOCH,
            DFRS_PERIOD
        );
        let (a, audit) = run_cell(&trace, "dfrs", true, nodes, seed, Some(GANG_EPOCH));
        let (b, _) = run_cell(&trace, "dfrs", true, nodes, seed, Some(GANG_EPOCH));
        eprintln!(
            "         dfrs: wait {:>8.3}ms | slowdown {:>6.2} | util {:>5.3} | makespan {:>8.3}ms",
            a.mean_wait.as_secs_f64() * 1e3,
            a.mean_bounded_slowdown,
            a.utilization,
            a.makespan.as_secs_f64() * 1e3,
        );
        if audit.violations > 0 {
            eprintln!("share-conservation audit {audit:?}");
        }
        Report::new(&flags)
            .invariant("replay_ok", a == b)
            .invariant("audits_clean", audit.violations == 0)
            .invariant(
                "occupancy_ok",
                a.occupancy_violations == 0 && a.jobs_lost == 0,
            )
            .invariant("utilization_ok", a.utilization <= 1.0)
            .verdict();
        eprintln!("dfrs smoke: bit-exact replay, shares conserved, occupancy clean");
        return;
    }

    // ---------- SWF source ----------
    let swf_text = match trace_file {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read --trace {path}: {e}")),
        None => SWF_FIXTURE.to_string(),
    };
    let swf = SwfTrace::from_text(&swf_text).unwrap_or_else(|e| panic!("SWF parse error: {e}"));
    let swf_source = trace_file.unwrap_or("vendored sp2_sample.swf");

    // ---------- SWF smoke: parse → run the zoo → audit → exit ----------
    if flags.has("--swf-smoke") {
        let nodes = 8u32;
        let take = 50usize;
        let (mapped, dropped) = swf.to_batch(&SwfMap::for_cluster(nodes).ns_per_sec(2_000.0));
        let trace = TraceTransform::new()
            .take(take)
            .arrival_scale(0.1)
            .apply(&mapped);
        eprintln!(
            "swf smoke: {} of {} jobs ({dropped} dropped in mapping), {nodes} nodes",
            trace.jobs.len(),
            swf.jobs.len()
        );
        let mut checks = Report::new(&flags);
        for policy in ["conservative", "multiq", "fairshare"] {
            let (report, audit) = run_cell(&trace, policy, true, nodes, seed, None);
            eprintln!(
                "{policy:>13}: wait {:>8.3}ms | slowdown {:>6.2} | util {:>5.3} | makespan {:>8.3}ms",
                report.mean_wait.as_secs_f64() * 1e3,
                report.mean_bounded_slowdown,
                report.utilization,
                report.makespan.as_secs_f64() * 1e3,
            );
            if audit.violations > 0 {
                eprintln!("{policy} audit {audit:?}");
            }
            checks
                .begin(policy)
                .invariant("audits_clean", audit.violations == 0)
                .invariant("occupancy_ok", report.occupancy_violations == 0)
                .invariant("lost_ok", report.jobs_lost == 0)
                .end();
        }
        checks.verdict();
        eprintln!("swf smoke: zero invariant violations across the policy zoo");
        return;
    }

    // ---------- Part 1: synthetic sweep (unchanged cells) ----------
    let (nodes, njobs): (u32, u32) = flags.flavour().pick((2, 4), (4, 12), (4, 24));
    let flavour = flags.flavour().name();
    let trace = BatchTrace::synthetic(seed, njobs, nodes);
    eprintln!("batch bench ({flavour}): {nodes} nodes, {njobs} jobs, seed {seed:#x}");

    // Every (policy, kernel) cell, then the gang-rotation cells:
    // oversubscription and DFRS on the HPL kernel with the gang epoch
    // armed, so co-resident jobs rotate instead of serialising.
    let policies = &["fcfs", "easy", "oversub"][..flags.flavour().pick(2, 3, 3)];
    let mut plan: Vec<(&str, &str, bool, Option<SimDuration>)> = Vec::new();
    for &policy in policies {
        plan.extend([(policy, "cfs", false, None), (policy, "hpl", true, None)]);
    }
    if !smoke {
        for policy in ["oversub", "dfrs"] {
            plan.push((policy, "hpl-gang", true, Some(GANG_EPOCH)));
        }
    }
    let mut cells = Vec::new();
    for (policy, kernel, hpc, gang) in plan {
        let (report, audit) = run_cell(&trace, policy, hpc, nodes, seed, gang);
        eprintln!(
            "{policy:>7}/{kernel}: wait {:>8.3}ms | slowdown {:>6.2} (max {:>6.2}) | \
             util {:>5.3} | makespan {:>8.3}ms | depth {}",
            report.mean_wait.as_secs_f64() * 1e3,
            report.mean_bounded_slowdown,
            report.max_bounded_slowdown(),
            report.utilization,
            report.makespan.as_secs_f64() * 1e3,
            report.max_queue_depth
        );
        cells.push(Cell {
            policy,
            kernel,
            report,
            audit,
        });
    }

    let cell = |policy: &str, kernel: &str| {
        cells
            .iter()
            .find(|c| c.policy == policy && c.kernel == kernel)
    };
    let stat = |policy: &str, kernel: &str, f: fn(&BatchReport) -> f64| {
        cell(policy, kernel).map_or(f64::NAN, |c| f(&c.report))
    };

    // Claim 1: determinism — replaying one cell reproduces its report.
    let (replay, _) = run_cell(&trace, "easy", true, nodes, seed, None);
    let deterministic = cell("easy", "hpl").is_some_and(|c| c.report == replay);

    // Claim 2: no cell exceeds its policy's occupancy limit.
    let occupancy_ok = cells.iter().all(|c| c.report.occupancy_violations == 0);

    // Every audited decision of every cell kept its policy's promise.
    let audits_clean = cells.iter().all(|c| c.audit.violations == 0);

    // Claim 3: EASY does not raise mean wait over FCFS on either kernel.
    let wait_of = |p, k| stat(p, k, |r| r.mean_wait.as_secs_f64());
    let easy_ok = ["cfs", "hpl"]
        .iter()
        .all(|k| wait_of("easy", k) <= wait_of("fcfs", k) * 1.05 + 1e-3);

    // Claim 4: on *dedicated* nodes the HPL kernel does not stretch the
    // makespan over CFS (shielded ranks finish no later). The claim is
    // deliberately not extended to the oversubscribed policy: with two
    // jobs per node the HPL class's run-to-block scheduling serialises
    // co-resident jobs where CFS timeslices them fairly, and HPL's
    // makespan is legitimately longer — that contrast is the point of
    // including the cell.
    let makespan_of = |p, k| stat(p, k, |r| r.makespan.as_secs_f64());
    let hpl_ok = ["fcfs", "easy"]
        .iter()
        .all(|p| makespan_of(p, "hpl") <= makespan_of(p, "cfs") * 1.05);

    // Claim 5: DFRS under gang rotation keeps mean bounded slowdown at
    // or below EASY's on the HPL kernel — the fractional policy's
    // shorter waits must not be eaten by co-residency stretch.
    let slowdown_of = |p, k| stat(p, k, |r| r.mean_bounded_slowdown);
    let dfrs_slowdown_ok =
        smoke || slowdown_of("dfrs", "hpl-gang") <= slowdown_of("easy", "hpl") * 1.05;

    // Claim 6: gang rotation closes the oversub×HPL gap Claim 4 could
    // not cover: with synchronized epochs the HPL kernel's
    // 2-jobs-per-node makespan lands within 20% of CFS on the same
    // stream (without rotation the HPL class serialises co-residents).
    let oversub_gang_ok =
        smoke || makespan_of("oversub", "hpl-gang") <= makespan_of("oversub", "cfs") * 1.2;

    // Claim 7: the DFRS gang cell replays bit for bit and conserved
    // per-node shares at every reallocation.
    let dfrs_deterministic = smoke || {
        let (replay, _) = run_cell(&trace, "dfrs", true, nodes, seed, Some(GANG_EPOCH));
        cell("dfrs", "hpl-gang").is_some_and(|c| c.audit.violations == 0 && c.report == replay)
    };

    // ---------- Part 2: SWF policy-zoo sweep (HPL kernel) ----------
    let (swf_nodes, swf_take): (u32, usize) = flags.flavour().pick((4, 12), (8, 40), (8, 80));
    let swf_seed = seed ^ 0x5F;
    let (mapped, swf_dropped) = swf.to_batch(&SwfMap::for_cluster(swf_nodes).ns_per_sec(2_000.0));
    let swf_trace = TraceTransform::new()
        .take(swf_take)
        .arrival_scale(0.1)
        .apply(&mapped);
    eprintln!(
        "swf sweep: {} ({} of {} jobs, {swf_dropped} dropped), {swf_nodes} nodes",
        swf_source,
        swf_trace.jobs.len(),
        swf.jobs.len()
    );

    let zoo: &[&'static str] = &["fcfs", "easy", "conservative", "multiq", "fairshare"];
    let mut swf_cells: Vec<(&'static str, BatchReport, AuditSummary)> = Vec::new();
    for &policy in zoo {
        let (report, audit) = run_cell(&swf_trace, policy, true, swf_nodes, swf_seed, None);
        eprintln!(
            "{policy:>13}/swf: wait {:>8.3}ms | slowdown {:>6.2} | util {:>5.3} | \
             makespan {:>8.3}ms | spread {:>6.2}",
            report.mean_wait.as_secs_f64() * 1e3,
            report.mean_bounded_slowdown,
            report.utilization,
            report.makespan.as_secs_f64() * 1e3,
            user_slowdown_spread(&report)
        );
        swf_cells.push((policy, report, audit));
    }

    // SWF claim 1: bit-exact replay across reps.
    let (rep, _) = run_cell(&swf_trace, "fcfs", true, swf_nodes, swf_seed, None);
    let swf_deterministic = swf_cells
        .iter()
        .find(|(p, ..)| *p == "fcfs")
        .is_some_and(|(_, r, _)| *r == rep);

    // SWF claim 2: conservative admissions never delayed an earlier
    // reservation.
    let swf_conservative_ok = swf_cells
        .iter()
        .find(|(p, ..)| *p == "conservative")
        .is_some_and(|(.., a)| a.violations == 0);

    // SWF claim 3: fair share does not widen the per-user slowdown
    // spread relative to FCFS on the same stream.
    let spread_of = |name: &str| {
        swf_cells
            .iter()
            .find(|(p, ..)| *p == name)
            .map(|(_, r, _)| user_slowdown_spread(r))
            .unwrap_or(f64::NAN)
    };
    let swf_fairshare_ok = spread_of("fairshare") <= spread_of("fcfs") * 1.05 + 1e-6;

    // SWF claim 4: pooled windows reproduce the serial SWF report and
    // audit tally bit for bit (the cross-event-loop equality on a
    // production stream).
    let (pooled, pooled_audit) = {
        let cosim = CosimConfig::parallel().with_threads(2).with_min_active(2);
        let mut cluster = build_cluster(swf_nodes, true, swf_seed, cosim, None);
        run_policy(
            BatchRun::new(&swf_trace),
            &mut cluster,
            "conservative",
            swf_seed,
        )
    };
    let swf_pooled_equal = swf_cells
        .iter()
        .find(|(p, ..)| *p == "conservative")
        .is_some_and(|(_, r, a)| *r == pooled && *a == pooled_audit);

    // SWF claim 5: under honest estimates with walltime enforcement,
    // kills fire, nothing is lost, and occupancy stays clean.
    let (honest_mapped, _) =
        swf.to_batch(&SwfMap::for_cluster(swf_nodes).ns_per_sec(2_000.0).honest());
    let honest_trace = TraceTransform::new()
        .take(swf_take)
        .arrival_scale(0.1)
        .apply(&honest_mapped);
    let (walltime_report, _) = {
        let mut cluster = build_cluster(swf_nodes, true, swf_seed, CosimConfig::serial(), None);
        run_policy(
            BatchRun::new(&honest_trace).walltime(1.0),
            &mut cluster,
            "fcfs",
            swf_seed,
        )
    };
    eprintln!(
        "     walltime/swf: {} of {} jobs killed | wait {:>8.3}ms | util {:>5.3}",
        walltime_report.jobs_killed,
        honest_trace.jobs.len(),
        walltime_report.mean_wait.as_secs_f64() * 1e3,
        walltime_report.utilization
    );
    let swf_walltime_ok = walltime_report.jobs_killed > 0
        && (walltime_report.jobs_killed as usize) < honest_trace.jobs.len()
        && walltime_report.jobs_lost == 0
        && walltime_report.occupancy_violations == 0;

    let swf_occupancy_ok = swf_cells
        .iter()
        .all(|(_, r, _)| r.occupancy_violations == 0 && r.jobs_lost == 0);
    let swf_audits_clean = swf_cells.iter().all(|(.., a)| a.violations == 0);

    // ---------- Part 3: capacity cell (tiled SWF, 128 nodes) ----------
    // The headline scale point: the short SWF fragment is tiled end to
    // end into a capacity workload — thousands of jobs carrying the
    // *original trace's* arrival statistics — and replayed on a
    // 128-node cluster under EASY backfilling with pooled window
    // stepping. Gated on a bit-exact replay pair at the 512-job
    // sub-scale, clean occupancy and zero lost jobs at both scales;
    // host wall-clock per run is recorded (and sanity-capped) so
    // capacity regressions show up in the artifact, not just in CI
    // latency.
    let capacity = if smoke {
        None
    } else {
        let run_capacity = |cap_nodes: u32, cap_take: usize, cap_tile: u32| {
            let (cap_mapped, cap_dropped) =
                swf.to_batch(&SwfMap::for_cluster(cap_nodes).ns_per_sec(2_000.0));
            // Runtimes and arrivals are compressed by the same factor
            // on top of the usual 10x arrival squeeze: pure time
            // compression preserves offered load, utilization and
            // queue dynamics while cutting the event volume to
            // something a capacity cell can replay.
            let cap_trace = TraceTransform::new()
                .take(cap_take)
                .arrival_scale(0.1 * 0.2)
                .runtime_scale(0.2)
                .tile(cap_tile)
                .apply(&cap_mapped);
            eprintln!(
                "capacity cell: {} jobs ({cap_take} x {cap_tile} tiles, {cap_dropped} dropped), \
                 {cap_nodes} nodes, easy/hpl, pooled",
                cap_trace.jobs.len()
            );
            let cosim = CosimConfig::parallel().with_threads(4).with_min_active(2);
            let mut cluster = build_cluster(cap_nodes, true, seed ^ 0xCAB, cosim, None);
            let start = std::time::Instant::now();
            let (report, audit) = run_policy(BatchRun::new(&cap_trace), &mut cluster, "easy", seed);
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(audit.violations, 0, "capacity cell audit: {audit:?}");
            (cap_trace.jobs.len(), report, wall)
        };
        // Bit-exact replay is pinned at the 512-job sub-scale (run
        // twice); the 2048-job headline cell runs ONCE under a wall
        // ceiling — a second full-scale replay would double a
        // many-minute cell to re-prove a determinism property the
        // sub-scale pair and the SWF serial-vs-pooled gate already
        // cover.
        let (det_jobs, det_a, det_wall_a) = run_capacity(64, 64, 8);
        let (_, det_b, det_wall_b) = run_capacity(64, 64, 8);
        eprintln!(
            "capacity replay pair ({det_jobs} jobs, 64 nodes): wall {det_wall_a:.2}s/{det_wall_b:.2}s | {}",
            if det_a == det_b { "bit-exact" } else { "DIVERGED" }
        );
        let headline = if quick {
            None
        } else {
            let (cap_jobs, cap_r, cap_wall) = run_capacity(128, 128, 16);
            eprintln!(
                "capacity headline: {cap_jobs} jobs | makespan {:>10.3}ms | util {:>5.3} | \
                 depth {} | wall {cap_wall:.2}s",
                cap_r.makespan.as_secs_f64() * 1e3,
                cap_r.utilization,
                cap_r.max_queue_depth,
            );
            Some((cap_jobs, cap_r, cap_wall))
        };
        Some((det_jobs, det_a, det_b, det_wall_a, det_wall_b, headline))
    };
    let clean = |r: &BatchReport| r.jobs_lost == 0 && r.occupancy_violations == 0;
    let capacity_ok = capacity.as_ref().is_none_or(|(_, da, db, dwa, dwb, head)| {
        da == db
            && clean(da)
            && da.max_queue_depth > 0
            && dwa.max(*dwb) < 300.0
            && head
                .as_ref()
                .is_none_or(|(_, r, w)| clean(r) && r.max_queue_depth > 0 && *w < 2400.0)
    });

    let cell_rows = cells.iter().map(|c| {
        let r = &c.report;
        row!["policy" => c.policy, "kernel" => c.kernel,
            "mean_wait_ms" => (r.mean_wait.as_secs_f64() * 1e3, 6),
            "mean_bounded_slowdown" => (r.mean_bounded_slowdown, 4),
            "max_bounded_slowdown" => (r.max_bounded_slowdown(), 4),
            "utilization" => (r.utilization, 4),
            "makespan_ms" => (r.makespan.as_secs_f64() * 1e3, 6),
            "max_queue_depth" => r.max_queue_depth, "max_node_occupancy" => r.max_node_occupancy]
    });
    let swf_rows = swf_cells.iter().map(|(p, r, _)| swf_row(p, r));
    let mut report = Report::new(&flags);
    report
        .put("nodes", nodes)
        .put("jobs", njobs)
        .put("seed", seed)
        .invariant("deterministic", deterministic)
        .invariant("occupancy_ok", occupancy_ok)
        .invariant("audits_clean", audits_clean)
        .claim("easy_wait_ok", easy_ok)
        .claim("hpl_makespan_ok", hpl_ok)
        .claim("dfrs_slowdown_ok", dfrs_slowdown_ok)
        .claim("oversub_gang_ok", oversub_gang_ok)
        .invariant("dfrs_deterministic", dfrs_deterministic)
        .rows("cells", cell_rows)
        .begin("swf")
        .put("source", swf_source)
        .put("nodes", swf_nodes)
        .put("jobs", swf_trace.jobs.len())
        .put("dropped", swf_dropped)
        .invariant("deterministic", swf_deterministic)
        .invariant("conservative_reservations_ok", swf_conservative_ok)
        .claim("fairshare_spread_ok", swf_fairshare_ok)
        .invariant("pooled_equal", swf_pooled_equal)
        .invariant("walltime_ok", swf_walltime_ok)
        .invariant("occupancy_ok", swf_occupancy_ok)
        .invariant("audits_clean", swf_audits_clean)
        .rows_flush(
            "cells",
            swf_rows.chain([swf_row("walltime-fcfs", &walltime_report)]),
        )
        .end();
    if let Some((det_jobs, a, b, wall_a, wall_b, head)) = capacity {
        let headline = head.map(|(jobs, r, wall)| {
            row!["nodes" => 128u32, "jobs" => jobs,
                "makespan_ms" => (r.makespan.as_secs_f64() * 1e3, 6),
                "utilization" => (r.utilization, 4), "max_queue_depth" => r.max_queue_depth,
                "wall_s" => (wall, 3)]
        });
        let replay = row!["nodes" => 64u32, "jobs" => det_jobs,
            "makespan_ms" => (a.makespan.as_secs_f64() * 1e3, 6),
            "utilization" => (a.utilization, 4), "max_queue_depth" => a.max_queue_depth,
            "wall_s" => ([wall_a, wall_b], 3), "bit_exact" => a == b];
        report
            .begin("capacity")
            .put("policy", "easy")
            .put("replay", Some(replay))
            .put("headline", headline)
            .invariant("ok", capacity_ok)
            .end();
    }
    report.finish();
}
