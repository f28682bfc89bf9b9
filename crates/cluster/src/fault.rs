//! Deterministic fault injection for the cluster co-simulation.
//!
//! A [`FaultPlan`] is a *schedule*, fixed before the run starts: link
//! degradation windows, a message-loss model with deterministic
//! timeout+retransmit, and node crash/drain/restart events. Because the
//! plan is data (seeded; torture scenarios carry it as `fault_*` keys)
//! and every draw is keyed off the plan seed plus a deterministic
//! message index, a faulty run is exactly as replayable as a healthy
//! one — same fingerprints on the fast and reference event loops, and
//! byte-identical between serial and pooled window stepping.
//!
//! Determinism argument, per fault class:
//!
//! * **Loss/retransmit** — the k-th transmission attempt of the n-th
//!   message on the interconnect is lost iff a hash of
//!   `(seed, n, k)` falls below the configured probability. The message
//!   index n is assigned by [`crate::Interconnect::transfer`], which the
//!   co-simulation only ever calls from the serial merge phase in fixed
//!   `(node, capture)` order, so n — and therefore every loss decision —
//!   is identical across host execution policies. A lost attempt costs
//!   one retransmission timeout; the payload still arrives (reliable
//!   transport), only later. Delays only *increase* delivery times, so
//!   the conservative lookahead (minimum link alpha) stays valid.
//! * **Degradation** — a [`DegradeWindow`] scales a message's cost
//!   parameters by an integer factor when its send time falls inside the
//!   window. Scaling only slows links; the lookahead lower bound is
//!   untouched.
//! * **Crash/drain/restart** — node events are applied at window
//!   boundaries of the lockstep loop, in plan order, before any node is
//!   stepped — a serial decision identical on every execution policy.
//!
//! Faults are configured where the cluster is built
//! ([`crate::ClusterBuilder::faults`]) — not bolted on mid-run — so a
//! run's fault schedule is part of its identity, like its seed.

use hpl_sim::time::{SimDuration, SimTime};
use hpl_sim::Rng;

/// Message-loss model: each transmission attempt is independently lost
/// with probability `ppm / 1_000_000`, costing one retransmission
/// timeout; after `max_retries` lost attempts the next attempt succeeds
/// unconditionally (the transport is reliable — loss delays, never
/// drops, the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossSpec {
    /// Per-attempt loss probability in parts per million (≤ 1_000_000).
    pub ppm: u32,
    /// Retransmission timeout charged per lost attempt.
    pub rto: SimDuration,
    /// Maximum lost attempts per message.
    pub max_retries: u32,
}

impl LossSpec {
    /// Number of lost attempts (each costing one RTO) for message
    /// `msg_index`, drawn deterministically from `seed`.
    pub fn retries_for(&self, seed: u64, msg_index: u64) -> u32 {
        if self.ppm == 0 {
            return 0;
        }
        let mut lost = 0u32;
        while lost < self.max_retries {
            let draw = mix(seed, msg_index, lost) % 1_000_000;
            if draw >= self.ppm as u64 {
                break;
            }
            lost += 1;
        }
        lost
    }
}

/// splitmix64 over the (seed, message, attempt) triple: a stateless,
/// order-independent hash so loss decisions never depend on how many
/// *other* draws happened before this one.
fn mix(seed: u64, msg: u64, attempt: u32) -> u64 {
    let mut z = seed
        ^ msg.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((attempt as u64) << 32).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A half-open interval `[from, to)` during which every link's latency
/// and serialisation cost are multiplied by `factor` (≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeWindow {
    /// Window start (inclusive), by message send time.
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
    /// Integer cost multiplier (≥ 1; 1 is a no-op).
    pub factor: u32,
}

/// What happens to a node at a [`NodeEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// The node dies: frozen clock, pending deliveries dropped, every
    /// job with a live launcher tree on it marked failed.
    Crash,
    /// The node stops accepting *new* work (batch policies skip it) but
    /// keeps running what it has.
    Drain,
    /// A crashed node comes back as a **fresh kernel** (rebuilt by the
    /// cluster's node factory) at the cluster's current time; on a
    /// merely drained node this just lifts the drain.
    Restart,
}

/// One scheduled node fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEvent {
    /// When the fault lands (applied at the first window boundary at or
    /// after this time).
    pub at: SimTime,
    /// Cluster node index.
    pub node: usize,
    /// What happens.
    pub kind: NodeFault,
}

/// A deterministic, pre-declared fault schedule for one cluster run.
///
/// The empty plan ([`FaultPlan::none`]) is the default and is
/// *zero-cost*: no fault state is consulted anywhere in the hot paths,
/// and every observable output is byte-identical to a build without the
/// fault layer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the loss draws (independent of node seeds).
    pub seed: u64,
    /// Message-loss model, if any.
    pub loss: Option<LossSpec>,
    /// Link-degradation windows.
    pub degrade: Vec<DegradeWindow>,
    /// Node crash/drain/restart schedule.
    pub events: Vec<NodeEvent>,
}

impl FaultPlan {
    /// The empty plan: a healthy cluster.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True iff the plan schedules nothing.
    pub fn is_none(&self) -> bool {
        self.loss.is_none() && self.degrade.is_empty() && self.events.is_empty()
    }

    /// Set the loss-draw seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable message loss: `ppm` parts-per-million per attempt, `rto`
    /// charged per lost attempt, at most `max_retries` losses/message.
    pub fn with_loss(mut self, ppm: u32, rto: SimDuration, max_retries: u32) -> Self {
        assert!(ppm <= 1_000_000, "loss probability is parts per million");
        self.loss = Some(LossSpec {
            ppm,
            rto,
            max_retries,
        });
        self
    }

    /// Add a link-degradation window.
    pub fn degrade(mut self, from: SimTime, to: SimTime, factor: u32) -> Self {
        assert!(from < to, "degrade window must be non-empty");
        assert!(factor >= 1, "degrade factor must be >= 1");
        self.degrade.push(DegradeWindow { from, to, factor });
        self
    }

    /// Schedule a node crash.
    pub fn crash(mut self, node: usize, at: SimTime) -> Self {
        self.events.push(NodeEvent {
            at,
            node,
            kind: NodeFault::Crash,
        });
        self
    }

    /// Schedule a node drain.
    pub fn drain(mut self, node: usize, at: SimTime) -> Self {
        self.events.push(NodeEvent {
            at,
            node,
            kind: NodeFault::Drain,
        });
        self
    }

    /// Schedule a node restart.
    pub fn restart(mut self, node: usize, at: SimTime) -> Self {
        self.events.push(NodeEvent {
            at,
            node,
            kind: NodeFault::Restart,
        });
        self
    }

    /// True iff the plan contains a restart event (which requires the
    /// cluster to be built with a node factory).
    pub fn has_restarts(&self) -> bool {
        self.events.iter().any(|e| e.kind == NodeFault::Restart)
    }

    /// Events in application order: by time, ties by node index, then by
    /// kind (crash before drain before restart — a same-instant
    /// crash+restart pair means "reboot").
    pub fn sorted_events(&self) -> Vec<NodeEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| (e.at, e.node, kind_order(e.kind)));
        evs
    }

    /// A random but reproducible plan over a cluster of `nodes` nodes —
    /// the generator behind torture's fault sampling and the round-trip
    /// test of its scenario keys. Crash events target nodes `1..nodes`
    /// (never node 0) and each crash is paired with a later restart, so
    /// a sampled plan never takes capacity away permanently.
    pub fn sample(seed: u64, nodes: usize) -> Self {
        let mut rng = Rng::for_run(seed ^ 0xFA17, 0);
        let mut plan = FaultPlan::none().with_seed(rng.next_u64());
        if rng.chance(0.6) {
            let ppm = rng.range_u64(1_000, 60_000) as u32;
            let rto = SimDuration::from_micros(rng.range_u64(20, 200));
            plan = plan.with_loss(ppm, rto, rng.range_u64(1, 6) as u32);
        }
        if rng.chance(0.4) {
            let from = SimTime::from_nanos(rng.range_u64(300_000_000, 320_000_000));
            let to = from + SimDuration::from_millis(rng.range_u64(2, 20));
            plan = plan.degrade(from, to, rng.range_u64(2, 8) as u32);
        }
        if nodes > 1 && rng.chance(0.5) {
            // range_u64 is inclusive on both ends: draw from [1, nodes).
            let node = rng.range_u64(1, nodes as u64 - 1) as usize;
            let at = SimTime::from_nanos(rng.range_u64(305_000_000, 360_000_000));
            let back = at + SimDuration::from_millis(rng.range_u64(5, 40));
            plan = plan.crash(node, at).restart(node, back);
        }
        plan
    }
}

/// Combined degradation factor for a message sent at `at`: the product
/// of every window containing `at`, 1 when none does.
pub(crate) fn degrade_factor(windows: &[DegradeWindow], at: SimTime) -> u32 {
    let mut factor = 1u32;
    for w in windows {
        if w.from <= at && at < w.to {
            factor = factor.saturating_mul(w.factor);
        }
    }
    factor
}

fn kind_order(kind: NodeFault) -> u8 {
    match kind {
        NodeFault::Crash => 0,
        NodeFault::Drain => 1,
        NodeFault::Restart => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none() {
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn loss_draws_are_deterministic_and_bounded() {
        let loss = LossSpec {
            ppm: 500_000, // 50% per attempt: retransmits are common
            rto: SimDuration::from_micros(50),
            max_retries: 3,
        };
        let mut seen_nonzero = false;
        for msg in 0..200u64 {
            let a = loss.retries_for(7, msg);
            let b = loss.retries_for(7, msg);
            assert_eq!(a, b, "draw must be a pure function of (seed, msg)");
            assert!(a <= 3);
            seen_nonzero |= a > 0;
        }
        assert!(seen_nonzero, "50% loss never fired in 200 messages");
        // Different seeds decorrelate.
        let diff = (0..200u64).any(|m| loss.retries_for(7, m) != loss.retries_for(8, m));
        assert!(diff);
        // ppm 0 never retransmits.
        let none = LossSpec { ppm: 0, ..loss };
        assert!((0..200).all(|m| none.retries_for(7, m) == 0));
    }

    #[test]
    fn degrade_factor_composes_and_respects_bounds() {
        let plan = FaultPlan::none()
            .degrade(SimTime::from_nanos(100), SimTime::from_nanos(200), 3)
            .degrade(SimTime::from_nanos(150), SimTime::from_nanos(300), 2);
        let at = |ns| degrade_factor(&plan.degrade, SimTime::from_nanos(ns));
        assert_eq!(at(50), 1);
        assert_eq!(at(100), 3);
        assert_eq!(at(150), 6);
        assert_eq!(at(200), 2);
        assert_eq!(at(300), 1);
    }

    #[test]
    fn events_sort_with_crash_before_restart_on_ties() {
        let t = SimTime::from_nanos(1_000);
        let plan = FaultPlan::none().restart(2, t).crash(2, t).drain(1, t);
        let evs = plan.sorted_events();
        assert_eq!(evs[0].node, 1);
        assert_eq!(evs[1].kind, NodeFault::Crash);
        assert_eq!(evs[2].kind, NodeFault::Restart);
        assert!(plan.has_restarts());
    }
}
