//! Per-node shared coordination state.
//!
//! One [`NodeCoordState`] per node plays the role of a shared-memory
//! segment (think `/dev/shm/coord`) that the arbiter daemon and every
//! cooperating rank map: jobs publish their existence and demand here,
//! the arbiter publishes nothing — leases are *derived*, not stored,
//! because the lease schedule is a pure function of the shared virtual
//! clock (the same [`hpl_kernel::gang`] arithmetic the in-kernel
//! weighted slicer uses). The mutex is uncontended in simulation terms:
//! a node's tasks are stepped by exactly one host thread per window, so
//! lock order cannot perturb results.

use hpl_kernel::ChanId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Base of the channel-id range the coordination runtime reserves.
/// Job channel ids are dense near zero (see `JobSpec::id_range`), so a
/// 2^40 floor keeps the lease channels out of any plausible job range
/// without a registry.
pub const COORD_CHAN_BASE: u64 = 1 << 40;

/// The arbiter's doorbell: the first rank of each arriving job rings it
/// so an idle arbiter (no co-residency to arbitrate) wakes without
/// polling.
pub fn ctrl_chan() -> ChanId {
    ChanId(COORD_CHAN_BASE)
}

/// Per-gang lease channel: ranks of `gang` that find themselves outside
/// their slice block here; the arbiter deposits one token per waiter
/// when the gang's slice opens.
pub fn lease_chan(gang: u64) -> ChanId {
    ChanId(COORD_CHAN_BASE + 1 + gang)
}

/// Aggregate counters the runtime exposes for benches and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoordStats {
    /// Lease slices the arbiter opened (one per slice boundary it
    /// served while two or more jobs were co-resident).
    pub leases: u64,
    /// Wake tokens granted to blocked ranks, summed over all leases.
    pub grants: u64,
    /// Times a rank cooperatively yielded (blocked) at a phase
    /// boundary because its gang was outside its slice.
    pub blocks: u64,
}

impl CoordStats {
    /// Elementwise sum, for cluster-wide totals.
    pub fn merged(self, other: CoordStats) -> CoordStats {
        CoordStats {
            leases: self.leases + other.leases,
            grants: self.grants + other.grants,
            blocks: self.blocks + other.blocks,
        }
    }
}

/// One co-resident job (gang) as the node's coordination segment sees
/// it.
#[derive(Debug, Default)]
pub struct GangSlot {
    /// Live cooperating ranks of this gang on this node.
    pub ranks: u32,
    /// Ranks currently blocked on [`lease_chan`] awaiting the gang's
    /// slice.
    pub waiting: u32,
    /// Published milli-CPU share; 0 = never set, weigh the default
    /// 1000 (matching the kernel slicer's default weight).
    pub share_milli: u32,
}

/// The shared segment: gang table plus counters.
#[derive(Debug, Default)]
pub struct NodeCoordState {
    /// Gang id → slot. Entries persist after the last rank exits (the
    /// table is tiny and keeping them makes shares sticky across
    /// launches of the same job id), but only slots with live ranks
    /// participate in arbitration.
    pub gangs: BTreeMap<u64, GangSlot>,
    /// Counters, updated by arbiter and shims.
    pub stats: CoordStats,
}

impl NodeCoordState {
    /// Gangs with live ranks, as the sorted `(gang, share)` list the
    /// [`hpl_kernel::gang`] schedule functions take — an iterator over
    /// the table, so reading it allocates nothing. The arbiter and every
    /// shim derive the lease schedule from this same view, so they agree
    /// without any lease being stored.
    pub fn registered(&self) -> impl Iterator<Item = (u64, u32)> + Clone + '_ {
        self.gangs
            .iter()
            .filter(|(_, s)| s.ranks > 0)
            .map(|(&g, s)| {
                (
                    g,
                    if s.share_milli == 0 {
                        1000
                    } else {
                        s.share_milli
                    },
                )
            })
    }

    /// Publish a share for `gang` (creating the slot if the job has
    /// not arrived yet — shares may be set ahead of launch).
    pub fn set_share(&mut self, gang: u64, share_milli: u32) {
        assert!(share_milli > 0, "coord share must be non-zero");
        self.gangs.entry(gang).or_default().share_milli = share_milli;
    }
}

/// Handle to a node's segment, shared between the arbiter task, every
/// shimmed rank on the node, and the runtime that owns them.
pub type SharedCoord = Arc<Mutex<NodeCoordState>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_filters_dead_gangs_and_defaults_shares() {
        let mut s = NodeCoordState::default();
        s.gangs.entry(7).or_default().ranks = 2;
        s.gangs.entry(9).or_default().ranks = 0;
        s.set_share(7, 750);
        s.set_share(11, 250); // share ahead of launch, no ranks yet
        assert_eq!(s.registered().collect::<Vec<_>>(), vec![(7, 750)]);
        s.gangs.entry(11).or_default().ranks = 1;
        s.gangs.entry(13).or_default().ranks = 1;
        assert_eq!(
            s.registered().collect::<Vec<_>>(),
            vec![(7, 750), (11, 250), (13, 1000)]
        );
    }

    #[test]
    fn chan_ids_clear_job_ranges() {
        assert!(ctrl_chan().0 >= COORD_CHAN_BASE);
        assert!(lease_chan(0).0 > ctrl_chan().0);
        assert_eq!(lease_chan(5).0 - lease_chan(0).0, 5);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_share_rejected() {
        NodeCoordState::default().set_share(1, 0);
    }
}
