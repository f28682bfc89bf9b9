//! Fault/churn sweep: batch scheduling under deterministic node
//! crashes.
//!
//! Runs one seeded synthetic job stream through FCFS and EASY
//! backfilling on the HPL kernel while a [`FaultPlan`] crashes (and
//! later restarts) a rising number of nodes mid-stream. Jobs checkpoint
//! every iteration, so a crashed job is requeued and *resumes* from its
//! last committed checkpoint on the next allocation. Per cell it
//! reports the engine's [`BatchReport`] plus the crash/requeue counts.
//!
//! Gated claims (non-smoke):
//!
//! * determinism — replaying the crashiest FCFS cell reproduces its
//!   report bit for bit;
//! * no job is ever lost to a crash (`jobs_lost == 0` everywhere);
//! * no allocation round exceeds its policy's occupancy limit, crashes
//!   or not;
//! * churn is actually exercised (crashy cells requeue at least one
//!   job);
//! * every policy's own audit holds (`AllocPolicy::audit`: EASY never
//!   delays its head reservation) — gated in smoke runs too, reported
//!   on stderr only;
//! * bounded slowdown degrades gracefully: each crashy cell stays
//!   within `GRACE`x its policy's fault-free slowdown.
//!
//! Writes `BENCH_faults.json` in the current directory.
//!
//! Usage: `faults [--quick|--smoke] [--out PATH]`

use hpl_batch::{
    AllocPolicy, AuditSummary, BatchReport, BatchRun, BatchTrace, CheckpointSpec, EasyBackfill,
    Fcfs,
};
use hpl_cluster::{Cluster, FaultPlan, Interconnect, NetConfig};
use hpl_core::HplClass;
use hpl_kernel::noise::NoiseProfile;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_mpi::SchedMode;
use hpl_sim::{Rng, SimDuration, SimTime};
use hpl_topology::Topology;

const CPUS_PER_NODE: u32 = 2;
const WARMUP_MS: u64 = 300;
/// Downtime between each crash and its restart.
const OUTAGE_MS: u64 = 15;
/// A crashy cell's mean bounded slowdown may not exceed `GRACE` times
/// the same policy's fault-free slowdown.
const GRACE: f64 = 3.0;

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

/// `crashes` crash/restart pairs, staggered through the job stream on
/// distinct non-zero nodes.
fn fault_plan(crashes: u32, nodes: u32) -> FaultPlan {
    let mut plan = FaultPlan::none().with_seed(0xFA);
    for k in 0..crashes {
        let node = (k % (nodes - 1)) as usize + 1;
        let down = WARMUP_MS + 80 + 140 * k as u64;
        plan = plan
            .crash(node, ms(down))
            .restart(node, ms(down + OUTAGE_MS));
    }
    plan
}

fn build_cluster(nodes: u32, seed: u64, plan: FaultPlan) -> Cluster {
    let mut cluster = Cluster::builder()
        .nodes_with(nodes as usize, move |i| {
            NodeBuilder::new(Topology::smp(CPUS_PER_NODE))
                .with_config(KernelConfig::hpl())
                .with_noise(NoiseProfile::standard(CPUS_PER_NODE))
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes as usize, NetConfig::default()))
        .faults(plan)
        .build();
    for i in 0..nodes as usize {
        cluster
            .node_mut(i)
            .run_for(SimDuration::from_millis(WARMUP_MS));
    }
    cluster
}

fn make_policy(name: &str) -> Box<dyn AllocPolicy> {
    match name {
        "fcfs" => Box::new(Fcfs),
        "easy" => Box::new(EasyBackfill::new()),
        other => panic!("unknown policy {other}"),
    }
}

/// Run one cell; returns its report and the policy's audit.
fn run_cell(
    trace: &BatchTrace,
    policy: &str,
    crashes: u32,
    nodes: u32,
    seed: u64,
) -> (BatchReport, AuditSummary) {
    let mut cluster = build_cluster(nodes, seed, fault_plan(crashes, nodes));
    let mut p = make_policy(policy);
    let report = BatchRun::new(trace)
        .mode(SchedMode::Hpc)
        .checkpoint(CheckpointSpec {
            every_iters: 1,
            cost: SimDuration::from_micros(150),
            restore: SimDuration::from_micros(400),
        })
        .run(&mut cluster, p.as_mut())
        .unwrap_or_else(|o| panic!("fault cell {policy}/x{crashes} did not complete: {o:?}"));
    (report, p.audit())
}

struct Cell {
    policy: &'static str,
    crashes: u32,
    report: BatchReport,
    audit: AuditSummary,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_faults.json".into());

    let (nodes, njobs, crash_counts): (u32, u32, &[u32]) = if smoke {
        (2, 4, &[0, 1])
    } else if quick {
        (4, 12, &[0, 1])
    } else {
        (4, 24, &[0, 1, 2])
    };
    let flavour = if smoke {
        "smoke"
    } else if quick {
        "quick"
    } else {
        "full"
    };
    let seed = 0xBA7C;
    let trace = BatchTrace::synthetic(seed, njobs, nodes);
    eprintln!(
        "faults bench ({flavour}): {nodes} nodes, {njobs} jobs, crash sweep {crash_counts:?}, \
         seed {seed:#x}"
    );

    let mut cells = Vec::new();
    for &policy in &["fcfs", "easy"] {
        for &crashes in crash_counts {
            let (report, audit) = run_cell(&trace, policy, crashes, nodes, seed);
            eprintln!(
                "{policy:>5}/x{crashes}: wait {:>8.3}ms | slowdown {:>6.2} | requeues {} | \
                 lost {} | makespan {:>8.3}ms | audit {} checked, {} violated",
                report.mean_wait.as_secs_f64() * 1e3,
                report.mean_bounded_slowdown,
                report.requeues,
                report.jobs_lost,
                report.makespan.as_secs_f64() * 1e3,
                audit.checked,
                audit.violations,
            );
            cells.push(Cell {
                policy,
                crashes,
                report,
                audit,
            });
        }
    }

    let max_crashes = *crash_counts.last().expect("non-empty sweep");

    // Claim 1: determinism — replaying the crashiest FCFS cell
    // reproduces its report bit for bit.
    let (replay, _) = run_cell(&trace, "fcfs", max_crashes, nodes, seed);
    let deterministic = cells
        .iter()
        .find(|c| c.policy == "fcfs" && c.crashes == max_crashes)
        .map(|c| c.report == replay)
        .unwrap_or(false);

    // Claim 2: a crash may delay a job, never lose one.
    let lost_ok = cells
        .iter()
        .all(|c| c.report.jobs_lost == 0 && c.report.outcomes.len() == njobs as usize);

    // Claim 3: occupancy limits hold under churn.
    let occupancy_ok = cells.iter().all(|c| c.report.occupancy_violations == 0);

    // Claim 4: the crashes actually hit running jobs (otherwise the
    // sweep proves nothing).
    let churn_ok = cells
        .iter()
        .all(|c| c.crashes == 0 || c.report.requeues > 0);

    // Claim 5: graceful degradation — each crashy cell stays within
    // GRACE x its policy's fault-free slowdown.
    let slowdown_of = |policy: &str, crashes: u32| {
        cells
            .iter()
            .find(|c| c.policy == policy && c.crashes == crashes)
            .map(|c| c.report.mean_bounded_slowdown)
            .unwrap_or(f64::NAN)
    };
    let graceful = ["fcfs", "easy"].iter().all(|p| {
        let base = slowdown_of(p, 0);
        crash_counts
            .iter()
            .all(|&k| slowdown_of(p, k) <= base * GRACE + 1e-9)
    });

    // Claim 6: every policy keeps its audited promise.
    let first_violation = cells.iter().find_map(|c| {
        (c.audit.violations > 0).then(|| {
            let first = c.audit.first.as_deref().unwrap_or("?");
            format!("{}/x{}: {first}", c.policy, c.crashes)
        })
    });
    let audits_clean = first_violation.is_none();

    eprintln!(
        "deterministic {deterministic} | lost_ok {lost_ok} | occupancy_ok {occupancy_ok} | \
         churn_ok {churn_ok} | graceful {graceful} | audits_clean {audits_clean}"
    );

    let mut json = String::from("{\n  \"bench\": \"faults\",\n");
    json.push_str(&format!("  \"flavour\": \"{flavour}\",\n"));
    json.push_str(&format!(
        "  \"nodes\": {nodes},\n  \"jobs\": {njobs},\n  \"seed\": {seed},\n"
    ));
    json.push_str(&format!("  \"grace_factor\": {GRACE},\n"));
    json.push_str(&format!("  \"deterministic\": {deterministic},\n"));
    json.push_str(&format!("  \"lost_ok\": {lost_ok},\n"));
    json.push_str(&format!("  \"occupancy_ok\": {occupancy_ok},\n"));
    json.push_str(&format!("  \"churn_ok\": {churn_ok},\n"));
    json.push_str(&format!("  \"graceful\": {graceful},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"crashes\": {}, \"mean_wait_ms\": {:.6}, \
             \"mean_bounded_slowdown\": {:.4}, \"max_bounded_slowdown\": {:.4}, \
             \"utilization\": {:.4}, \"makespan_ms\": {:.6}, \"requeues\": {}, \
             \"jobs_lost\": {}, \"occupancy_violations\": {}}}{}\n",
            c.policy,
            c.crashes,
            c.report.mean_wait.as_secs_f64() * 1e3,
            c.report.mean_bounded_slowdown,
            c.report.max_bounded_slowdown(),
            c.report.utilization,
            c.report.makespan.as_secs_f64() * 1e3,
            c.report.requeues,
            c.report.jobs_lost,
            c.report.occupancy_violations,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write bench json");
    eprintln!("wrote {out}");

    // An audit violation is a policy bug at any size.
    if let Some(v) = first_violation {
        eprintln!("FAIL: policy audit violated, first at {v}");
        std::process::exit(1);
    }
    // Otherwise smoke runs gate only on "the sweep completes"; the
    // comparative claims need the full job stream to be meaningful.
    let claims_hold = deterministic && lost_ok && occupancy_ok && churn_ok && graceful;
    if !smoke && !claims_hold {
        eprintln!("FAIL: fault sweep claims do not hold");
        std::process::exit(1);
    }
}
