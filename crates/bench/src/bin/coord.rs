//! Coordination-backend sweep: fractional CPU shares realized by the
//! weighted kernel gang slicer and by the user-space lease arbiter,
//! measured differentially on the same co-simulated cluster.
//!
//! Every skew claim is **differential** — a 750/250 split measured
//! against a 500/500 control of the very same cluster, jobs and seed —
//! because even the equal rotation realizes asymmetric allocations on
//! a real workload (spin phases, SMT co-run stretching, barrier
//! convoys). What the share table must demonstrably move is the
//! *relative* allocation and the completion order, not an absolute
//! 3:1 ledger split. The measured jobs are compute-bound with a 5 us
//! spin limit so progress tracks CPU share rather than rotation
//! latency (see `tests/coord.rs` for the full hygiene rationale).
//!
//! Gated claims, at every flavour:
//! * an all-equal explicit share table is byte-identical to no share
//!   table at all (same exec times, state fingerprint and event count)
//!   — weighted slicing with equal shares is the plain rotation
//!   (`equal_identity_ok`);
//! * both backends replay bit for bit across serial and 2-thread
//!   pooled window stepping (`replay_ok`).
//!
//! Gated except under `--smoke` (the bands need the full burst volume):
//! * under the kernel backend, 750/250 speeds the heavy job up and
//!   slows the light job down relative to the control, and shifts the
//!   co-resident busy-time ledger towards the heavy gang by >= 1.5x;
//! * the user-space backend skews completion with **no** kernel gang
//!   support — the heavy job speeds up and the heavy-to-light
//!   completion gap widens over the control — and its arbiter visibly
//!   grants (leases, blocks and grants all non-zero). The light job's
//!   *absolute* completion is deliberately not gated: once the heavy
//!   job finishes early, the light job runs uncontended and can beat
//!   its own control;
//! * the cooperative backend's coordination tax is bounded: its
//!   skewed-run span stays within 2.5x of the kernel slicer's on the
//!   same stream (and is not mysteriously faster than 0.4x).
//!
//! Writes `BENCH_coord.json` in the current directory.
//!
//! Usage: `coord [--smoke | --quick] [--out PATH]`

use hpl_bench::row;
use hpl_bench::sweep::{Flags, Report};
use hpl_cluster::{Cluster, CosimConfig, Interconnect, JobCoordinator, NetConfig, Placement};
use hpl_coord::{CoordBackend, CoordRuntime};
use hpl_core::hpl_node_builder;
use hpl_kernel::observe::{MetricsSink, ObserverId};
use hpl_kernel::KernelConfig;
use hpl_mpi::{JobSpec, MpiConfig, MpiOp, SchedMode};
use hpl_sim::{Rng, SimDuration};
use hpl_topology::Topology;

const RANKS_PER_NODE: u32 = 2;
const EPOCH: SimDuration = SimDuration::from_micros(500);
/// Gang ids are the jobs' id bases.
const HEAVY: u64 = 0;
const LIGHT: u64 = 10_000;

/// A compute-bound job: no cross-node synchronisation between bursts,
/// so a gang's rate of progress is exactly its CPU-share fraction. The
/// spin limit is cut to 5 us so waits block instead of busy-polling,
/// and the compute volume dwarfs the share-independent MPI_Init phase.
fn compute_job(base: u64, nodes: u32, bursts: u32) -> JobSpec {
    let cfg = MpiConfig {
        spin_limit: SimDuration::from_micros(5),
        ..MpiConfig::default()
    };
    JobSpec::new(
        nodes * RANKS_PER_NODE,
        JobSpec::repeat(
            bursts,
            &[MpiOp::Compute {
                mean: SimDuration::from_micros(600),
            }],
        ),
    )
    .with_nodes(nodes)
    .with_id_base(base)
    .with_config(cfg)
}

/// Quiet cluster with a metrics sink per node, warmed past boot
/// transients. `gang` selects whether the kernel itself has gang
/// scheduling configured (the user-space backend must work without).
fn cluster(seed: u64, nodes: u32, gang: bool, cosim: CosimConfig) -> (Cluster, Vec<ObserverId>) {
    let mut kcfg = KernelConfig::hpl();
    if gang {
        kcfg.gang_epoch = Some(EPOCH);
    }
    let mut cluster = Cluster::builder()
        .nodes_with(nodes as usize, move |i| {
            hpl_node_builder(Topology::smp(RANKS_PER_NODE))
                .with_config(kcfg.clone())
                .with_seed(Rng::for_run(seed, i as u64).next_u64())
                .build()
        })
        .fabric(Interconnect::flat(nodes as usize, NetConfig::default()))
        .cosim(cosim)
        .build();
    let mut ids = Vec::new();
    for i in 0..nodes as usize {
        let node = cluster.node_mut(i);
        ids.push(node.attach_observer(Box::new(MetricsSink::new())));
        node.run_for(SimDuration::from_millis(50));
    }
    (cluster, ids)
}

/// Sum a gang's attributed busy time across every node's sink.
fn busy(cluster: &Cluster, ids: &[ObserverId], gang: u64) -> u64 {
    ids.iter()
        .enumerate()
        .map(|(i, &id)| {
            cluster
                .node(i)
                .observer::<MetricsSink>(id)
                .expect("metrics sink resolves")
                .metrics()
                .gang_busy_ns(gang)
        })
        .sum()
}

/// One measured coordinated run of two co-resident compute jobs under
/// `backend` with the given share split.
struct RunStats {
    exec_heavy: u64,
    exec_light: u64,
    busy_heavy: u64,
    busy_light: u64,
    leases: u64,
    blocks: u64,
    grants: u64,
    fingerprint: u64,
    events: u64,
}

fn coord_run(
    seed: u64,
    nodes: u32,
    bursts: u32,
    backend: CoordBackend,
    heavy_share: u32,
    light_share: u32,
    cosim: CosimConfig,
) -> RunStats {
    let gang = backend == CoordBackend::KernelWeighted;
    let (mut c, ids) = cluster(seed, nodes, gang, cosim);
    let mut rt = match backend {
        CoordBackend::KernelWeighted => CoordRuntime::kernel_weighted(EPOCH),
        CoordBackend::UserSpace => CoordRuntime::user_space(EPOCH),
    };
    rt.install(&mut c);
    let a = rt.launch(
        &mut c,
        &compute_job(HEAVY, nodes, bursts),
        SchedMode::Hpc,
        Placement::All,
    );
    let b = rt.launch(
        &mut c,
        &compute_job(LIGHT, nodes, bursts),
        SchedMode::Hpc,
        Placement::All,
    );
    for n in 0..nodes as usize {
        rt.set_share(&mut c, n, HEAVY, heavy_share);
        rt.set_share(&mut c, n, LIGHT, light_share);
    }
    let exec_heavy = c.run_to_completion(&a, 600_000_000).as_nanos();
    // Busy times snapshotted at the heavy job's completion, so the
    // ledger covers only genuinely co-resident time.
    let busy_heavy = busy(&c, &ids, HEAVY);
    let busy_light = busy(&c, &ids, LIGHT);
    let exec_light = c.run_to_completion(&b, 600_000_000).as_nanos();
    let stats = rt.total_stats();
    RunStats {
        exec_heavy,
        exec_light,
        busy_heavy,
        busy_light,
        leases: stats.leases,
        blocks: stats.blocks,
        grants: stats.grants,
        fingerprint: c.state_fingerprint(),
        events: c.events_processed(),
    }
}

/// The equal-identity leg: the same pair of jobs with *no* coordinator
/// at all vs an explicit all-equal share table — both must realise the
/// same plain `(t / epoch) % count` rotation.
fn identity_run(seed: u64, nodes: u32, bursts: u32, explicit_shares: bool) -> (u64, u64, u64, u64) {
    let (mut c, _ids) = cluster(seed, nodes, true, CosimConfig::serial());
    let a = c.launch(
        &compute_job(HEAVY, nodes, bursts),
        SchedMode::Hpc,
        Placement::All,
    );
    let b = c.launch(
        &compute_job(LIGHT, nodes, bursts),
        SchedMode::Hpc,
        Placement::All,
    );
    if explicit_shares {
        for n in 0..nodes as usize {
            c.set_gang_share(n, HEAVY, 1000);
            c.set_gang_share(n, LIGHT, 1000);
        }
    }
    let ea = c.run_to_completion(&a, 600_000_000).as_nanos();
    let eb = c.run_to_completion(&b, 600_000_000).as_nanos();
    (ea, eb, c.state_fingerprint(), c.events_processed())
}

fn backend_name(b: CoordBackend) -> &'static str {
    match b {
        CoordBackend::KernelWeighted => "kernel",
        CoordBackend::UserSpace => "user",
    }
}

fn main() {
    let flags = Flags::parse("coord", &[]);
    let seed = 0xC0D0u64;
    let (nodes, bursts): (u32, u32) = flags.flavour().pick((2, 8), (2, 24), (4, 48));
    let flavour = flags.flavour().name();
    eprintln!(
        "coord bench ({flavour}): {nodes} nodes x {RANKS_PER_NODE} ranks, \
         {bursts} bursts, epoch {EPOCH:?}, seed {seed:#x}"
    );

    // ---------- equal-identity leg ----------
    let implicit = identity_run(seed, nodes, bursts, false);
    let explicit = identity_run(seed, nodes, bursts, true);
    let equal_identity_ok = implicit == explicit && implicit.0 > 0 && implicit.1 > 0;
    eprintln!(
        "equal-identity: implicit fp {:#018x} ev {} | explicit fp {:#018x} ev {}",
        implicit.2, implicit.3, explicit.2, explicit.3
    );

    // ---------- control + skew cells, both backends ----------
    let backends = [CoordBackend::KernelWeighted, CoordBackend::UserSpace];
    let mut cells: Vec<(CoordBackend, &'static str, RunStats)> = Vec::new();
    for &backend in &backends {
        for (split, h, l) in [("500/500", 500u32, 500u32), ("750/250", 750, 250)] {
            let r = coord_run(seed, nodes, bursts, backend, h, l, CosimConfig::serial());
            eprintln!(
                "{:>6}/{split}: heavy {:>9.3}ms light {:>9.3}ms | busy {:>8.3}/{:<8.3}ms | \
                 leases {:>4} blocks {:>4} grants {:>4}",
                backend_name(backend),
                r.exec_heavy as f64 / 1e6,
                r.exec_light as f64 / 1e6,
                r.busy_heavy as f64 / 1e6,
                r.busy_light as f64 / 1e6,
                r.leases,
                r.blocks,
                r.grants
            );
            cells.push((backend, split, r));
        }
    }
    let cell = |b: CoordBackend, s: &str| {
        cells
            .iter()
            .find(|(cb, cs, _)| *cb == b && *cs == s)
            .map(|(_, _, r)| r)
            .expect("cell present")
    };

    // Claim: the kernel slicer moves completion the right way on both
    // sides of the split and shifts the co-resident busy ledger towards
    // the heavy gang by at least 1.5x relative to the control.
    let (keq, ksk) = (
        cell(CoordBackend::KernelWeighted, "500/500"),
        cell(CoordBackend::KernelWeighted, "750/250"),
    );
    let kernel_skew_ok = ksk.exec_heavy < keq.exec_heavy
        && ksk.exec_light > keq.exec_light
        && ksk.busy_heavy * keq.busy_light > keq.busy_heavy * ksk.busy_light * 3 / 2;

    // Claim: the user-space arbiter skews completion with no kernel
    // gang support, and visibly grants. The differential is the heavy
    // job's speedup plus a widened heavy-to-light completion gap — not
    // the light job's absolute completion, which can legitimately
    // *improve* under skew (the heavy job leaves early, and the light
    // job's uncontended tail runs without co-run stretch).
    let (ueq, usk) = (
        cell(CoordBackend::UserSpace, "500/500"),
        cell(CoordBackend::UserSpace, "750/250"),
    );
    let gap = |r: &RunStats| r.exec_light as i128 - r.exec_heavy as i128;
    let user_skew_ok = usk.exec_heavy < ueq.exec_heavy
        && gap(usk) > gap(ueq)
        && usk.leases > 0
        && usk.blocks > 0
        && usk.grants > 0;

    // Claim: the cooperative backend's coordination tax is bounded —
    // the skewed run's span (slower of the two jobs) stays within
    // [0.4x, 2.5x] of the kernel slicer's. Phase-granular yielding
    // tracks the slice schedule only approximately, so some stretch is
    // expected; an order-of-magnitude gap would mean the arbiter is
    // serialising (or not arbitrating at all).
    let span = |r: &RunStats| r.exec_heavy.max(r.exec_light) as f64;
    let band = span(usk) / span(ksk);
    let backend_band_ok = (0.4..=2.5).contains(&band);
    eprintln!("user/kernel span ratio on 750/250: {band:.3}");

    // Claim: both backends replay bit for bit under pooled stepping.
    let pooled = CosimConfig::parallel().with_threads(2).with_min_active(2);
    let outcome = |r: &RunStats| (r.exec_heavy, r.exec_light, r.fingerprint, r.events);
    let replay_ok = backends.iter().all(|&backend| {
        let r = coord_run(seed, nodes, bursts, backend, 750, 250, pooled);
        outcome(&r) == outcome(cell(backend, "750/250"))
    });

    let cell_rows = cells.iter().map(|(b, split, r)| {
        row!["backend" => backend_name(*b), "split" => *split,
            "exec_heavy_ms" => (r.exec_heavy as f64 / 1e6, 6),
            "exec_light_ms" => (r.exec_light as f64 / 1e6, 6),
            "busy_heavy_ms" => (r.busy_heavy as f64 / 1e6, 6),
            "busy_light_ms" => (r.busy_light as f64 / 1e6, 6),
            "leases" => r.leases, "blocks" => r.blocks, "grants" => r.grants]
    });
    let mut report = Report::new(&flags);
    report
        .put("nodes", nodes)
        .put("ranks_per_node", RANKS_PER_NODE)
        .put("bursts", bursts)
        .put("epoch_us", EPOCH.as_nanos() / 1_000)
        .put("seed", seed)
        .invariant("equal_identity_ok", equal_identity_ok)
        .claim("kernel_skew_ok", kernel_skew_ok)
        .claim("user_skew_ok", user_skew_ok)
        .put("backend_band", (band, 4))
        .claim("backend_band_ok", backend_band_ok)
        .invariant("replay_ok", replay_ok)
        .rows("cells", cell_rows);
    report.finish();
}
