//! SWF ingestion against the vendored fixture: exact round-trip,
//! normalization, mapping coverage, transform algebra, and an
//! end-to-end engine drive including the serial-vs-pooled bit-equality
//! check on an SWF-derived workload.

use hpl_batch::{
    AllocPolicy, BatchRun, ConservativeBackfill, EasyBackfill, Fcfs, SwfMap, SwfTrace,
    TraceTransform,
};
use hpl_cluster::{Cluster, CosimConfig, Interconnect, NetConfig};
use hpl_core::HplClass;
use hpl_kernel::{KernelConfig, NodeBuilder};
use hpl_sim::{Rng, SimDuration};
use hpl_topology::Topology;

const FIXTURE: &str = include_str!("data/sp2_sample.swf");

fn build_cluster_with(nodes: usize, seed: u64, cosim: CosimConfig) -> Cluster {
    let mut cluster = Cluster::builder()
        .nodes_with(nodes, move |i| {
            NodeBuilder::new(Topology::smp(2))
                .with_config(KernelConfig::hpl())
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .with_hpc_class(Box::new(HplClass::new()))
                .build()
        })
        .fabric(Interconnect::flat(nodes, NetConfig::default()))
        .cosim(cosim)
        .build();
    for i in 0..nodes {
        cluster.node_mut(i).run_for(SimDuration::from_millis(100));
    }
    cluster
}

#[test]
fn fixture_parses_with_headers_and_round_trips() {
    let t = SwfTrace::from_text(FIXTURE).expect("fixture parses");
    assert_eq!(t.jobs.len(), 200, "vendored fixture is 200 jobs");
    assert_eq!(t.directive("MaxNodes"), Some(64));
    assert_eq!(t.directive("MaxProcs"), Some(128));
    assert_eq!(t.directive("UnixStartTime"), Some(820_454_400));
    // Round trip is exact: text → value → text → value.
    let text = t.to_text();
    let back = SwfTrace::from_text(&text).expect("reparses");
    assert_eq!(t, back);
    assert_eq!(back.to_text(), text);
    // The fixture exercises the -1 missing-value semantics.
    assert!(t.jobs.iter().any(|j| j.procs == -1 && j.req_procs > 0));
    assert!(t.jobs.iter().any(|j| j.req_time == -1));
    assert!(t.jobs.iter().any(|j| j.cpu_time == -1));
}

#[test]
fn fixture_is_nonmonotone_until_normalized() {
    let t = SwfTrace::from_text(FIXTURE).unwrap();
    assert!(
        t.jobs.windows(2).any(|w| w[0].submit > w[1].submit),
        "fixture must preserve archive logging order (non-monotone submits)"
    );
    let n = t.normalized();
    assert!(n.jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
    assert_eq!(n.jobs.first().unwrap().submit, 0, "rebased to epoch");
    assert_eq!(n.jobs.len(), t.jobs.len());
}

#[test]
fn fixture_maps_with_high_coverage() {
    let t = SwfTrace::from_text(FIXTURE).unwrap();
    let (batch, dropped) = t.to_batch(&SwfMap::for_cluster(16));
    assert!(
        dropped <= t.jobs.len() / 10,
        "mapping must keep >= 90% of records, dropped {dropped}"
    );
    assert_eq!(batch.jobs.len() + dropped, t.jobs.len());
    for j in &batch.jobs {
        assert!(j.nodes >= 1 && j.nodes <= 16);
        assert!(j.compute_ns > 0);
        assert!(j.est_runtime_ns > 0);
    }
    assert!(batch.jobs.iter().any(|j| j.user != 0));
    assert!(batch.jobs.iter().any(|j| j.class != 0));
}

#[test]
fn transforms_compose_deterministically_on_the_fixture() {
    let t = SwfTrace::from_text(FIXTURE).unwrap();
    let (batch, _) = t.to_batch(&SwfMap::for_cluster(16));
    let small = TraceTransform::new()
        .take(40)
        .arrival_scale(0.25)
        .fit(8)
        .apply(&batch);
    assert_eq!(small.jobs.len(), 40);
    assert!(small.jobs.iter().all(|j| j.nodes <= 8));
    // Arrival compression quarters every submit offset.
    for (a, b) in small.jobs.iter().zip(&batch.jobs) {
        assert_eq!(a.submit_ns, (b.submit_ns as f64 * 0.25).round() as u64);
    }
    // Pure function: identical on repeat.
    let again = TraceTransform::new()
        .take(40)
        .arrival_scale(0.25)
        .fit(8)
        .apply(&batch);
    assert_eq!(small, again);
}

/// A 30-job SWF slice drives the engine end to end under FCFS and EASY,
/// deterministically.
#[test]
fn swf_slice_drives_the_engine() {
    let t = SwfTrace::from_text(FIXTURE).unwrap();
    let (batch, _) = t.to_batch(&SwfMap::for_cluster(8).ns_per_sec(2_000.0));
    let trace = TraceTransform::new()
        .take(30)
        .arrival_scale(0.1)
        .apply(&batch);
    type PolicyMaker = fn() -> Box<dyn AllocPolicy>;
    let mks: [(&str, PolicyMaker); 2] = [
        ("fcfs", || Box::new(Fcfs)),
        ("easy", || Box::new(EasyBackfill::new())),
    ];
    for (name, mk) in mks {
        let mut c1 = build_cluster_with(8, 4242, CosimConfig::serial());
        let r1 = BatchRun::new(&trace)
            .run(&mut c1, mk().as_mut())
            .expect("swf run completes");
        assert_eq!(r1.outcomes.len(), 30, "{name}");
        assert_eq!(r1.occupancy_violations, 0, "{name}");
        assert_eq!(r1.jobs_lost, 0, "{name}");
        assert!(!r1.user_stats.is_empty(), "{name}: users reported");
        let mut c2 = build_cluster_with(8, 4242, CosimConfig::serial());
        let r2 = BatchRun::new(&trace)
            .run(&mut c2, mk().as_mut())
            .expect("swf run completes");
        assert_eq!(r1, r2, "{name}: SWF replay must be deterministic");
    }
}

/// The acceptance-criteria equality: an SWF-driven scenario produces a
/// bit-identical report on the serial and pooled event loops.
#[test]
fn swf_run_serial_vs_pooled_bit_equality() {
    let t = SwfTrace::from_text(FIXTURE).unwrap();
    let (batch, _) = t.to_batch(&SwfMap::for_cluster(4).ns_per_sec(2_000.0));
    let trace = TraceTransform::new()
        .take(16)
        .arrival_scale(0.1)
        .fit(4)
        .apply(&batch);
    let mut serial_cluster = build_cluster_with(4, 77, CosimConfig::serial());
    let serial = BatchRun::new(&trace)
        .run(&mut serial_cluster, &mut ConservativeBackfill::new())
        .expect("serial completes");
    let cosim = CosimConfig::parallel().with_threads(2).with_min_active(2);
    let mut pooled_cluster = build_cluster_with(4, 77, cosim);
    let pooled = BatchRun::new(&trace)
        .run(&mut pooled_cluster, &mut ConservativeBackfill::new())
        .expect("pooled completes");
    assert_eq!(
        serial, pooled,
        "pooled windows must reproduce the serial SWF report bit for bit"
    );
    assert_eq!(serial.fingerprint, pooled.fingerprint);
}
