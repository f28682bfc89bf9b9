//! Golden differential test for the batch engine: every recorded case
//! replays a fixed `(cluster seed, fault plan, trace, policy)` tuple and
//! compares a digest of the full [`BatchReport`] (plus the policy's
//! audit trail, where it keeps one) against a constant recorded from
//! the every-window reference engine. Any change to when the engine
//! decides — not just what it decides — that alters a single simulated
//! field shows up here as a digest mismatch.
//!
//! To re-record after an intentional behaviour change, run
//! `cargo test -p hpl-batch --test engine_golden -- --nocapture` and
//! copy the printed digests.

use hpl_batch::{
    AllocPolicy, BatchJob, BatchRun, BatchTrace, CheckpointSpec, ConservativeBackfill, Dfrs,
    EasyBackfill, FairShare, Fcfs, MultiQueue, Oversubscribed, SwfMap, SwfTrace, TraceTransform,
};
use hpl_cluster::{Cluster, FaultPlan, Interconnect, NetConfig};
use hpl_coord::CoordRuntime;
use hpl_core::HplClass;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_sim::{Rng, SimDuration, SimTime};
use hpl_topology::Topology;
use std::fmt::Debug;

const FIXTURE: &str = include_str!("data/sp2_sample.swf");
const WARMUP_MS: u64 = 100;

fn build(nodes: usize, seed: u64, gang_epoch: Option<SimDuration>, faults: FaultPlan) -> Cluster {
    let mut cluster = Cluster::builder()
        .nodes_with(nodes, move |i| {
            let mut cfg = KernelConfig::hpl();
            cfg.gang_epoch = gang_epoch;
            NodeBuilder::new(Topology::smp(2))
                .with_config(cfg)
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes, NetConfig::default()))
        .faults(faults)
        .build();
    for i in 0..nodes {
        cluster
            .node_mut(i)
            .run_for(SimDuration::from_millis(WARMUP_MS));
    }
    cluster
}

fn cluster(nodes: usize, seed: u64) -> Cluster {
    build(nodes, seed, None, FaultPlan::none())
}

fn swf_slice(nodes: u32, take: usize, honest: bool) -> BatchTrace {
    let t = SwfTrace::from_text(FIXTURE).unwrap();
    let mut map = SwfMap::for_cluster(nodes).ns_per_sec(2_000.0);
    if honest {
        map = map.honest();
    }
    let (batch, _) = t.to_batch(&map);
    TraceTransform::new()
        .take(take)
        .arrival_scale(0.1)
        .apply(&batch)
}

/// FNV-1a over the `Debug` rendering of every part. `Debug` prints
/// floats in shortest round-trip form, so equal digests mean equal
/// bits.
fn digest(parts: &[&dyn Debug]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for p in parts {
        for b in format!("{p:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn check(case: &str, got: u64, want: u64) {
    println!("{case}: {got:#018x}");
    assert_eq!(got, want, "{case}: report digest moved");
}

#[test]
fn fcfs_on_swf() {
    let trace = swf_slice(8, 30, false);
    let r = BatchRun::new(&trace)
        .run(&mut cluster(8, 7001), &mut Fcfs)
        .unwrap();
    check("fcfs", digest(&[&r]), 0x8896_f992_e1ab_987b);
}

#[test]
fn easy_on_swf() {
    let trace = swf_slice(8, 30, false);
    let mut p = EasyBackfill::new();
    let r = BatchRun::new(&trace)
        .run(&mut cluster(8, 7002), &mut p)
        .unwrap();
    let trail: Vec<_> = p.decisions().collect();
    check(
        "easy",
        digest(&[&r, &trail, &p.audit().checked]),
        0x1a3d_3416_0ab4_a0d1,
    );
}

#[test]
fn conservative_on_swf() {
    let trace = swf_slice(8, 30, false);
    let mut p = ConservativeBackfill::new();
    let r = BatchRun::new(&trace)
        .run(&mut cluster(8, 7003), &mut p)
        .unwrap();
    let trail: Vec<_> = p.decisions().collect();
    check(
        "conservative",
        digest(&[&r, &trail, &p.audit().checked]),
        0x288b_37a3_52a8_a9cf,
    );
}

#[test]
fn multiqueue_on_swf() {
    // A short aging step so promotions land mid-run and the policy's
    // time trigger is exercised, not just its arrival order.
    let trace = swf_slice(8, 30, false);
    let mut p = MultiQueue::new(3, SimDuration::from_millis(1));
    let r = BatchRun::new(&trace)
        .run(&mut cluster(8, 7004), &mut p)
        .unwrap();
    check(
        "multiq",
        digest(&[&r, &p.dispatches()]),
        0x9164_2624_580a_e1e1,
    );
}

#[test]
fn fairshare_on_swf() {
    let trace = swf_slice(8, 30, false);
    let mut p = FairShare::new().with_half_life(SimDuration::from_millis(5));
    let r = BatchRun::new(&trace)
        .run(&mut cluster(8, 7005), &mut p)
        .unwrap();
    let trail: Vec<_> = p.decisions().collect();
    // The audited usages decay through `powf`, whose last bits can
    // differ between debug and release builds; on this slice they agree,
    // so one digest pins both profiles.
    check("fairshare", digest(&[&r, &trail]), 0x2b1e_0d0d_46a4_5040);
}

#[test]
fn oversub_on_swf() {
    let trace = swf_slice(8, 30, false);
    let r = BatchRun::new(&trace)
        .run(&mut cluster(8, 7006), &mut Oversubscribed)
        .unwrap();
    check("oversub", digest(&[&r]), 0xa8f0_4b09_6e22_c301);
}

#[test]
fn dfrs_on_swf() {
    let epoch = SimDuration::from_micros(500);
    let trace = swf_slice(8, 30, false);
    let mut p = Dfrs::new(SimDuration::from_millis(1), 7007);
    let r = BatchRun::new(&trace)
        .run(&mut build(8, 7007, Some(epoch), FaultPlan::none()), &mut p)
        .unwrap();
    let trail: Vec<_> = p.decisions().collect();
    check("dfrs", digest(&[&r, &trail]), 0xc432_e774_f04b_4a5c);
}

#[test]
fn walltime_kills_on_honest_swf() {
    let trace = swf_slice(8, 30, true);
    let r = BatchRun::new(&trace)
        .walltime(1.0)
        .run(&mut cluster(8, 7008), &mut Fcfs)
        .unwrap();
    assert!(r.jobs_killed > 0, "the case must exercise kills");
    let mut p = EasyBackfill::new();
    let e = BatchRun::new(&trace)
        .walltime(1.0)
        .run(&mut cluster(8, 7008), &mut p)
        .unwrap();
    check("walltime", digest(&[&r, &e]), 0xfce8_72ec_6a09_31a5);
}

#[test]
fn checkpoint_under_crash_restart_churn() {
    let ms = |v: u64| SimTime::from_nanos((WARMUP_MS + v) * 1_000_000);
    let plan = FaultPlan::default()
        .with_seed(31)
        .crash(2, ms(3))
        .restart(2, ms(7))
        .drain(5, ms(4))
        .restart(5, ms(12))
        .crash(6, ms(9))
        .restart(6, ms(10));
    let trace = swf_slice(8, 30, false);
    let mut p = EasyBackfill::new();
    let r = BatchRun::new(&trace)
        .checkpoint(CheckpointSpec {
            every_iters: 1,
            cost: SimDuration::from_micros(200),
            restore: SimDuration::from_micros(500),
        })
        .run(&mut build(8, 7009, None, plan), &mut p)
        .unwrap();
    assert!(r.requeues > 0, "the case must exercise crash requeues");
    check("churn", digest(&[&r]), 0x32e0_4e54_56b4_1e18);
}

#[test]
fn coordinated_dfrs_both_backends() {
    let epoch = SimDuration::from_micros(500);
    let trace = swf_slice(8, 20, false);
    let mut digests = Vec::new();
    for user_space in [false, true] {
        let mut c = build(8, 7010, Some(epoch), FaultPlan::none());
        let mut rt = if user_space {
            CoordRuntime::user_space(epoch)
        } else {
            CoordRuntime::kernel_weighted(epoch)
        };
        rt.install(&mut c);
        let mut p = Dfrs::new(SimDuration::from_millis(1), 7010)
            .with_job_weight(trace.jobs[0].id, 3)
            .with_job_weight(trace.jobs[3].id, 2);
        let r = BatchRun::new(&trace)
            .run_coordinated(&mut c, &mut p, &mut rt)
            .unwrap();
        let trail: Vec<_> = p.decisions().collect();
        digests.push(digest(&[&r, &trail]));
    }
    check("coord", digest(&[&digests]), 0xe6f7_c963_7482_a4da);
}

fn job(id: u32, submit_us: u64, nodes: u32, iters: u32, compute_us: u64) -> BatchJob {
    BatchJob {
        id,
        submit_ns: submit_us * 1_000,
        nodes,
        ranks_per_node: 2,
        iters,
        compute_ns: compute_us * 1_000,
        bytes: 64,
        est_runtime_ns: 100_000_000,
        user: id,
        class: 0,
    }
}

/// A multi-node job releases its nodes one launcher tree at a time. A
/// queued narrow job must start on the first node to free, in the very
/// window that tree exits — not when the whole wide job ends.
#[test]
fn narrow_job_starts_on_first_freed_node_of_a_wide_job() {
    let trace = BatchTrace {
        jobs: vec![job(0, 0, 2, 3, 400), job(1, 50, 1, 1, 200)],
    };
    let r = BatchRun::new(&trace)
        .run(&mut cluster(2, 7011), &mut Fcfs)
        .unwrap();
    let wide = r.outcomes.iter().find(|o| o.id == 0).unwrap();
    let narrow = r.outcomes.iter().find(|o| o.id == 1).unwrap();
    assert!(
        narrow.started < wide.ended,
        "narrow job must start before the wide job's last tree exits \
         (started {:?}, wide ended {:?})",
        narrow.started,
        wide.ended
    );
    check("first-freed", digest(&[&r]), 0x0ef4_cad6_26a5_dfc6);
}

/// Aging alone unblocks a job: with the best-class head blocked and the
/// cluster otherwise quiet, the low-class job that fits must start at
/// the aging boundary that promotes it, not at the next job exit.
#[test]
fn multiqueue_promotion_starts_a_job_between_events() {
    let step = SimDuration::from_millis(50);
    let trace = BatchTrace {
        jobs: vec![
            job(0, 0, 1, 2, 200_000),
            job(1, 0, 1, 1, 1_000),
            BatchJob {
                class: 2,
                ..job(2, 100, 1, 1, 1_000)
            },
            job(3, 200, 2, 1, 1_000),
        ],
    };
    let mut p = MultiQueue::new(3, step);
    let r = BatchRun::new(&trace)
        .run(&mut cluster(2, 7012), &mut p)
        .unwrap();
    let long = r.outcomes.iter().find(|o| o.id == 0).unwrap();
    let aged = r.outcomes.iter().find(|o| o.id == 2).unwrap();
    assert!(
        aged.started >= aged.submitted + step * 2 && aged.started < long.ended,
        "the class-2 job starts once promoted to class 0, before any exit frees \
         a node (started {:?}, submitted {:?}, long job ended {:?})",
        aged.started,
        aged.submitted,
        long.ended
    );
    check(
        "multiq-aging",
        digest(&[&r, &p.dispatches()]),
        0x85b0_fab1_3d8c_6744,
    );
}
