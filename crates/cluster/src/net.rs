//! Interconnect model for the mechanistic cluster co-simulation.
//!
//! Messages are costed with a LogGP-flavoured model: a per-link wire
//! latency `alpha` plus a serialisation term `beta · bytes`, with FIFO
//! contention per link — a message that arrives at a busy link waits for
//! the link to drain before its serialisation starts. The [`Fabric`]
//! trait maps a `(src, dst)` node pair to the ordered list of links the
//! message crosses, so topologies beyond the flat crossbar (e.g. a
//! two-level switch) plug in without touching the co-simulation driver.
//!
//! The co-simulation's conservative lookahead equals the *minimum* link
//! `alpha` over the fabric: a message sent at time `t` can never be
//! delivered before `t + alpha_min`, so nodes may safely advance
//! `alpha_min` past the cluster-wide next event without missing a
//! cross-node wakeup.

use crate::fault::{degrade_factor, DegradeWindow, LossSpec};
use hpl_sim::time::{SimDuration, SimTime};

/// Per-link cost parameters of the LogGP-style model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Wire latency per traversed fabric (charged once per message).
    pub alpha: SimDuration,
    /// Serialisation cost per byte on each link the message crosses.
    pub beta_ns_per_byte: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            // Quadrics/early-InfiniBand-era numbers to match the paper's
            // cluster generation: ~5 us one-way latency, ~1 GB/s links.
            alpha: SimDuration::from_micros(5),
            beta_ns_per_byte: 1.0,
        }
    }
}

impl NetConfig {
    /// Serialisation time for a message of `bytes` on one link.
    pub fn serialise(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos((self.beta_ns_per_byte * bytes as f64).round() as u64)
    }
}

/// A network topology: maps node pairs to link paths.
pub trait Fabric {
    /// Number of nodes attached to the fabric.
    fn nodes(&self) -> usize;
    /// Total number of contention domains (FIFO links).
    fn links(&self) -> usize;
    /// Path for a `src -> dst` message, written into `links` (cleared
    /// first); returns the cost parameters for the path. `src != dst`.
    /// This is the allocation-free primitive [`Interconnect::transfer`]
    /// costs every message through.
    fn route_into(&self, src: usize, dst: usize, links: &mut Vec<usize>) -> NetConfig;
    /// Minimum `alpha` over all paths — the co-simulation lookahead.
    fn min_alpha(&self) -> SimDuration;
}

/// Full crossbar: every node owns one egress link, and concurrent sends
/// from the same node serialise on it (the LogGP gap at the NIC). No
/// shared core, so disjoint pairs never contend.
#[derive(Debug, Clone)]
pub struct FlatFabric {
    nodes: usize,
    cfg: NetConfig,
}

impl FlatFabric {
    /// A crossbar over `nodes` nodes with uniform link parameters.
    pub fn new(nodes: usize, cfg: NetConfig) -> Self {
        assert!(nodes >= 1, "fabric needs at least one node");
        assert!(
            cfg.alpha >= SimDuration::from_nanos(1),
            "alpha must be >= 1ns: it bounds the co-simulation lookahead"
        );
        FlatFabric { nodes, cfg }
    }
}

impl Fabric for FlatFabric {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn links(&self) -> usize {
        self.nodes
    }

    fn route_into(&self, src: usize, dst: usize, links: &mut Vec<usize>) -> NetConfig {
        debug_assert!(src != dst && src < self.nodes && dst < self.nodes);
        links.clear();
        links.push(src);
        self.cfg
    }

    fn min_alpha(&self) -> SimDuration {
        self.cfg.alpha
    }
}

/// Two-level switched fabric: each message crosses its source's uplink
/// and its destination's downlink, both FIFO. Incast (many senders, one
/// receiver) therefore queues on the receiver's downlink — contention the
/// crossbar cannot express.
#[derive(Debug, Clone)]
pub struct SwitchedFabric {
    nodes: usize,
    cfg: NetConfig,
}

impl SwitchedFabric {
    /// A single-switch fabric over `nodes` nodes.
    pub fn new(nodes: usize, cfg: NetConfig) -> Self {
        assert!(nodes >= 1, "fabric needs at least one node");
        assert!(
            cfg.alpha >= SimDuration::from_nanos(1),
            "alpha must be >= 1ns: it bounds the co-simulation lookahead"
        );
        SwitchedFabric { nodes, cfg }
    }
}

impl Fabric for SwitchedFabric {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn links(&self) -> usize {
        2 * self.nodes
    }

    fn route_into(&self, src: usize, dst: usize, links: &mut Vec<usize>) -> NetConfig {
        debug_assert!(src != dst && src < self.nodes && dst < self.nodes);
        // Links [0, n) are uplinks, [n, 2n) downlinks.
        links.clear();
        links.extend_from_slice(&[src, self.nodes + dst]);
        self.cfg
    }

    fn min_alpha(&self) -> SimDuration {
        self.cfg.alpha
    }
}

/// The shared interconnect: a fabric plus per-link FIFO occupancy.
///
/// [`Interconnect::transfer`] is the single costing entry point: given a
/// send timestamp it returns when the message reaches the destination
/// node and how long it sat queued behind earlier traffic. The busy
/// state makes the model *mechanistic* — ordering of transfers matters,
/// which is why the co-simulation routes messages in deterministic
/// (node, capture) order.
pub struct Interconnect {
    fabric: Box<dyn Fabric>,
    busy_until: Vec<SimTime>,
    messages: u64,
    bytes: u64,
    /// Scratch path buffer reused across transfers, so costing a
    /// message never allocates.
    route_buf: Vec<usize>,
    /// Link-level fault state, installed by the cluster builder from a
    /// [`crate::FaultPlan`]. `None` (the default) is the zero-cost
    /// healthy path.
    faults: Option<LinkFaults>,
    retransmits: u64,
}

/// The link-level slice of a fault plan: loss/retransmit and
/// degradation. Node events stay with the co-simulation driver.
#[derive(Debug, Clone)]
pub(crate) struct LinkFaults {
    pub seed: u64,
    pub loss: Option<LossSpec>,
    pub degrade: Vec<DegradeWindow>,
}

impl Interconnect {
    /// Wrap a fabric with idle links.
    pub fn new(fabric: Box<dyn Fabric>) -> Self {
        let links = fabric.links();
        Interconnect {
            fabric,
            busy_until: vec![SimTime::ZERO; links],
            messages: 0,
            bytes: 0,
            route_buf: Vec::new(),
            faults: None,
            retransmits: 0,
        }
    }

    /// Install the link-level slice of a fault plan. Called once by the
    /// cluster builder, before any traffic flows.
    pub(crate) fn install_faults(&mut self, faults: LinkFaults) {
        self.faults = Some(faults);
    }

    /// Crossbar shorthand.
    pub fn flat(nodes: usize, cfg: NetConfig) -> Self {
        Interconnect::new(Box::new(FlatFabric::new(nodes, cfg)))
    }

    /// Single-switch shorthand.
    pub fn switched(nodes: usize, cfg: NetConfig) -> Self {
        Interconnect::new(Box::new(SwitchedFabric::new(nodes, cfg)))
    }

    /// Number of nodes the fabric connects.
    pub fn nodes(&self) -> usize {
        self.fabric.nodes()
    }

    /// Conservative lookahead: no message delivers sooner than this
    /// after its send.
    pub fn lookahead(&self) -> SimDuration {
        self.fabric.min_alpha()
    }

    /// Messages transferred so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Payload bytes transferred so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Retransmissions charged so far (0 without a lossy fault plan).
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Cost a `src -> dst` message of `bytes` sent at `at`. Returns
    /// `(deliver_at, queued)`: the arrival time at the destination node
    /// and the time spent waiting for busy links.
    ///
    /// Under an installed fault plan, degradation windows scale the
    /// path's cost parameters by the send time's combined factor, and
    /// the loss model may charge retransmission timeouts on top of the
    /// arrival time. Both only ever *delay* delivery, so the
    /// conservative lookahead ([`Self::lookahead`]) stays a valid lower
    /// bound.
    pub fn transfer(
        &mut self,
        at: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> (SimTime, SimDuration) {
        let mut cfg = self.fabric.route_into(src, dst, &mut self.route_buf);
        if let Some(f) = &self.faults {
            let factor = degrade_factor(&f.degrade, at);
            if factor > 1 {
                cfg.alpha = cfg.alpha * factor as u64;
                cfg.beta_ns_per_byte *= factor as f64;
            }
        }
        let ser = cfg.serialise(bytes);
        let mut head = at;
        let mut queued = SimDuration::ZERO;
        for &link in &self.route_buf {
            let start = head.max(self.busy_until[link]);
            queued += start.since(head);
            self.busy_until[link] = start + ser;
            head = start + ser;
        }
        let msg_index = self.messages;
        self.messages += 1;
        self.bytes += bytes;
        let mut deliver = head + cfg.alpha;
        if let Some(f) = &self.faults {
            if let Some(loss) = &f.loss {
                let lost = loss.retries_for(f.seed, msg_index);
                if lost > 0 {
                    deliver += loss.rto * lost as u64;
                    self.retransmits += lost as u64;
                }
            }
        }
        (deliver, queued)
    }
}

impl std::fmt::Debug for Interconnect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interconnect")
            .field("nodes", &self.fabric.nodes())
            .field("links", &self.fabric.links())
            .field("messages", &self.messages)
            .field("bytes", &self.bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NetConfig {
        NetConfig {
            alpha: SimDuration::from_micros(5),
            beta_ns_per_byte: 1.0,
        }
    }

    #[test]
    fn uncontended_latency_is_alpha_plus_serialisation() {
        let mut net = Interconnect::flat(4, cfg());
        let at = SimTime::from_nanos(1_000);
        let (deliver, queued) = net.transfer(at, 0, 1, 1_000);
        // 1000 B at 1 ns/B + 5 us alpha.
        assert_eq!(
            deliver,
            at + SimDuration::from_nanos(1_000) + SimDuration::from_micros(5)
        );
        assert_eq!(queued, SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_sends_queue_on_the_egress_link() {
        let mut net = Interconnect::flat(4, cfg());
        let at = SimTime::from_nanos(0);
        let (d1, q1) = net.transfer(at, 0, 1, 1_000);
        let (d2, q2) = net.transfer(at, 0, 2, 1_000);
        assert_eq!(q1, SimDuration::ZERO);
        // Second message waits out the first's serialisation.
        assert_eq!(q2, SimDuration::from_nanos(1_000));
        assert_eq!(d2, d1 + SimDuration::from_nanos(1_000));
    }

    #[test]
    fn disjoint_pairs_do_not_contend_on_a_crossbar() {
        let mut net = Interconnect::flat(4, cfg());
        let at = SimTime::from_nanos(0);
        let (_, q1) = net.transfer(at, 0, 1, 1_000_000);
        let (_, q2) = net.transfer(at, 2, 3, 1_000_000);
        assert_eq!(q1, SimDuration::ZERO);
        assert_eq!(q2, SimDuration::ZERO);
    }

    #[test]
    fn incast_queues_on_switched_downlink() {
        let mut net = Interconnect::switched(4, cfg());
        let at = SimTime::from_nanos(0);
        let (_, q1) = net.transfer(at, 1, 0, 1_000);
        let (_, q2) = net.transfer(at, 2, 0, 1_000);
        assert_eq!(q1, SimDuration::ZERO);
        // Distinct uplinks, shared downlink at node 0.
        assert_eq!(q2, SimDuration::from_nanos(1_000));
    }

    #[test]
    fn degrade_window_scales_cost_only_inside_the_window() {
        use crate::fault::DegradeWindow;
        let mut net = Interconnect::flat(4, cfg());
        net.install_faults(LinkFaults {
            seed: 0,
            loss: None,
            degrade: vec![DegradeWindow {
                from: SimTime::from_nanos(10_000),
                to: SimTime::from_nanos(20_000),
                factor: 3,
            }],
        });
        // Before the window: base cost.
        let at = SimTime::from_nanos(1_000);
        let (d, _) = net.transfer(at, 0, 1, 1_000);
        assert_eq!(
            d,
            at + SimDuration::from_nanos(1_000) + SimDuration::from_micros(5)
        );
        // Inside: alpha and serialisation both 3x.
        let at = SimTime::from_nanos(15_000);
        let (d, _) = net.transfer(at, 2, 3, 1_000);
        assert_eq!(
            d,
            at + SimDuration::from_nanos(3_000) + SimDuration::from_micros(15)
        );
        // Delivery still respects the healthy lookahead lower bound.
        assert!(d >= at + net.lookahead());
    }

    #[test]
    fn lossy_plan_charges_deterministic_retransmits() {
        use crate::fault::LossSpec;
        let faults = LinkFaults {
            seed: 42,
            loss: Some(LossSpec {
                ppm: 400_000,
                rto: SimDuration::from_micros(50),
                max_retries: 4,
            }),
            degrade: Vec::new(),
        };
        let run = |faults: Option<LinkFaults>| {
            let mut net = Interconnect::flat(4, cfg());
            if let Some(f) = faults {
                net.install_faults(f);
            }
            let mut deliveries = Vec::new();
            for i in 0..50u64 {
                let at = SimTime::from_nanos(i * 100_000);
                deliveries.push(net.transfer(at, 0, 1, 64).0);
            }
            (deliveries, net.retransmits())
        };
        let (healthy, r0) = run(None);
        let (lossy_a, ra) = run(Some(faults.clone()));
        let (lossy_b, rb) = run(Some(faults));
        assert_eq!(r0, 0);
        assert!(ra > 0, "40% loss never fired across 50 messages");
        assert_eq!((lossy_a.clone(), ra), (lossy_b, rb), "loss must replay");
        // Retransmits only ever delay delivery, in whole-RTO steps.
        for (h, l) in healthy.iter().zip(&lossy_a) {
            assert!(l >= h);
            assert_eq!((l.since(*h)).as_nanos() % 50_000, 0);
        }
    }

    #[test]
    fn delivery_never_beats_the_lookahead() {
        let mut net = Interconnect::switched(8, cfg());
        let at = SimTime::from_nanos(123);
        for dst in 1..8 {
            let (deliver, _) = net.transfer(at, 0, dst, 0);
            assert!(deliver >= at + net.lookahead());
        }
    }
}
