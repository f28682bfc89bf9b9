//! Golden digests for the kernel's per-event hot path: the execution-
//! speed model (`work_integral` / `time_for_work`), the cache-warmth
//! model, nanosecond rounding, SMT sibling checks and the RT runqueues.
//!
//! Each case boots a node, runs a job to completion and compares a
//! digest of the final state — `state_fingerprint`, `events_processed`,
//! `now` and every per-CPU software and hardware counter (including
//! `BusyNs`, `SmtContentionNs` and `ColdCacheStallNs`) — against a
//! constant. Every case runs on both event loops (fast path and
//! reference heap), which must agree with each other and with the
//! recorded digest. A rewrite of the hot path that moves a single
//! simulated bit shows up here as a mismatch.
//!
//! To re-record after an intentional behaviour change, run
//! `cargo test -p hpl-kernel --test hot_path_golden -- --nocapture` and
//! copy the printed digests.

use hpl_core::HplClass;
use hpl_kernel::noise::{IrqSpec, NoiseProfile};
use hpl_kernel::{KernelConfig, Node, NodeBuilder, SchedEvent, SchedObserver};
use hpl_mpi::{launch, SchedMode};
use hpl_perf::{HwEvent, SwEvent};
use hpl_sim::{SimDuration, SimTime};
use hpl_topology::Topology;
use hpl_workloads::{nas_job, NasBenchmark, NasClass};
use std::any::Any;

const MAX_EVENTS: u64 = 50_000_000;

/// FNV-1a over the `Debug` rendering of every part. `Debug` prints
/// floats in shortest round-trip form, so equal digests mean equal
/// bits.
fn digest(parts: &[&dyn std::fmt::Debug]) -> u64 {
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

fn node_digest(node: &Node) -> u64 {
    digest(&[
        &node.state_fingerprint(),
        &node.events_processed(),
        &node.now(),
        &node.counters,
    ])
}

/// Counts migrations between distinct cores that share a cache level,
/// the case in which `CacheModel::migrate` carries warmth across.
struct SharedCacheMoves {
    topo: Topology,
    moves: u64,
}

impl SchedObserver for SharedCacheMoves {
    fn observe(&mut self, _at: SimTime, ev: &SchedEvent) {
        if let SchedEvent::Migrate { from, to, .. } = *ev {
            if self.topo.core_of(from) != self.topo.core_of(to)
                && self.topo.shared_cache_level(from, to).is_some()
            {
                self.moves += 1;
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Case {
    topo: Topology,
    cfg: KernelConfig,
    noise: NoiseProfile,
    hpc_class: bool,
    mode: SchedMode,
    ranks: u32,
    seed: u64,
}

impl Case {
    fn paper(hpl: bool, seed: u64) -> Self {
        Case {
            topo: Topology::power6_js22(),
            cfg: if hpl {
                KernelConfig::hpl()
            } else {
                KernelConfig::default()
            },
            noise: NoiseProfile::standard(8),
            hpc_class: hpl,
            mode: if hpl { SchedMode::Hpc } else { SchedMode::Cfs },
            ranks: 8,
            seed,
        }
    }

    /// Boot a fresh node on one event loop.
    fn boot(&self, fast: bool) -> Node {
        let mut cfg = self.cfg.clone();
        cfg.fast_event_loop = fast;
        let mut b = NodeBuilder::new(self.topo.clone())
            .with_config(cfg)
            .with_noise(self.noise.clone())
            .with_seed(self.seed);
        if self.hpc_class {
            b = b.with_hpc_class(Box::new(HplClass::new()));
        }
        b.build()
    }

    /// Warm 300 ms, then run cg.A to completion.
    fn drive(&self, node: &mut Node) {
        node.run_for(SimDuration::from_millis(300));
        let job = nas_job(NasBenchmark::Cg, NasClass::A, self.ranks);
        launch(node, &job, self.mode).run_to_completion(node, MAX_EVENTS);
    }

    /// Run on both event loops; both must match `want`. Returns the
    /// fast-path node.
    fn check(&self, name: &str, want: u64) -> Node {
        let [fast, reference] = [true, false].map(|f| {
            let mut node = self.boot(f);
            self.drive(&mut node);
            node
        });
        let (got_fast, got_ref) = (node_digest(&fast), node_digest(&reference));
        println!("{name}: fast {got_fast:#018x} reference {got_ref:#018x}");
        assert_eq!(got_fast, got_ref, "{name}: event loops disagree");
        assert_eq!(got_fast, want, "{name}: digest moved");
        fast
    }
}

fn total_hw(node: &Node, e: HwEvent) -> u64 {
    node.counters.total().hw(e)
}

#[test]
fn cg_a_under_cfs_on_js22() {
    let node = Case::paper(false, 0x601d_0001).check("cfs", 0x247b_1cd1_ef2e_c699);
    assert!(node.counters.total().sw(SwEvent::CpuMigrations) > 0);
    assert!(total_hw(&node, HwEvent::ColdCacheStallNs) > 0);
}

#[test]
fn cg_a_under_hpl_on_js22() {
    let node = Case::paper(true, 0x601d_0002).check("hpl", 0x1506_deec_228e_ff5c);
    assert!(total_hw(&node, HwEvent::BusyNs) > 0);
}

#[test]
fn cg_a_under_rt_on_js22() {
    // SCHED_FIFO ranks: RT push/pull on every blocking collective.
    let mut case = Case::paper(false, 0x601d_0003);
    case.mode = SchedMode::Rt { prio: 50 };
    let node = case.check("rt", 0xbc9a_1c12_6fdc_288a);
    assert!(node.counters.total().sw(SwEvent::CpuMigrations) > 0);
}

#[test]
fn cg_a_migrates_under_shared_l3_on_xeon() {
    let topo = Topology::xeon_2s4c2t();
    let case = Case {
        noise: NoiseProfile::standard(topo.total_cpus()),
        topo: topo.clone(),
        cfg: KernelConfig::default(),
        hpc_class: false,
        mode: SchedMode::Cfs,
        ranks: 12,
        seed: 0x601d_0004,
    };
    let want = 0xde24_9805_e1b9_1694;
    case.check("xeon", want);
    // Make sure the pinned run is the intended one: warmth must actually
    // be carried across a shared L3. Observers only watch, so the run
    // with one attached must land on the same digest.
    let mut node = case.boot(true);
    let id = node.attach_observer(Box::new(SharedCacheMoves { topo, moves: 0 }));
    case.drive(&mut node);
    assert_eq!(node_digest(&node), want);
    let moves = node.observer::<SharedCacheMoves>(id).unwrap().moves;
    assert!(moves > 0, "no migration under a shared L3");
}

#[test]
fn cg_a_under_irq_noise_on_js22() {
    // Interrupts on every CPU: handler time lands in `pending_overhead`
    // of running tasks, and the SMT siblings of busy threads contend.
    let mut case = Case::paper(false, 0x601d_0005);
    case.noise = NoiseProfile::standard(8).with_irq(IrqSpec {
        rate_hz: 20_000.0,
        cost: SimDuration::from_micros(15),
        affinity: case.topo.all_cpus(),
    });
    let node = case.check("irq", 0x18ae_e032_9e4b_1d60);
    assert!(total_hw(&node, HwEvent::IrqOverheadNs) > 0);
    assert!(total_hw(&node, HwEvent::SmtContentionNs) > 0);
}
