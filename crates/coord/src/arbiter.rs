//! The per-node arbiter daemon.
//!
//! A real user-space coordination runtime (the paper's §VI direction:
//! move the policy out of the kernel, keep the kernel's clock) runs one
//! small daemon per node at RT priority — high enough to preempt the
//! HPC ranks it arbitrates, exactly like the `migration` threads the
//! paper observes running above everything else. Ours is a
//! [`Program`]: it sleeps to the next slice boundary of the same
//! weighted schedule the in-kernel slicer would use
//! ([`hpl_kernel::gang::active_at`] over the shared virtual clock),
//! wakes, grants one lease token per rank blocked on the newly active
//! gang's channel, publishes a [`SchedEvent::Lease`] annotation, and
//! goes back to sleep. While fewer than two jobs are co-resident there
//! is nothing to arbitrate: it parks on the control channel and costs
//! nothing — the doorbell rung by the first rank of each arriving job
//! wakes it.
//!
//! Because every node's arbiter derives its schedule from the same pure
//! function of the (lockstep-shared) virtual clock, gang set and share
//! table, co-resident jobs progress in aligned slices across nodes with
//! no cross-node coordination messages — the same property the kernel
//! backend gets, at user-space granularity.

use crate::state::{ctrl_chan, lease_chan, SharedCoord};
use hpl_kernel::{ProgCtx, Program, SchedEvent, Step};
use hpl_sim::SimDuration;
use std::collections::VecDeque;

/// The arbiter daemon program. Spawn one per node at RT priority (see
/// [`crate::CoordRuntime::install`]).
pub struct ArbiterProgram {
    shm: SharedCoord,
    epoch_ns: u64,
    /// CPU cost of one arbitration pass (schedule derivation + wakeups)
    /// — the runtime's direct overhead, deliberately modeled.
    arb_cost: SimDuration,
    pending: VecDeque<Step>,
}

impl ArbiterProgram {
    /// Build an arbiter over `shm` with slice period base `epoch` (the
    /// analogue of the kernel's `gang_epoch`).
    pub fn new(shm: SharedCoord, epoch: SimDuration, arb_cost: SimDuration) -> Self {
        assert!(!epoch.is_zero(), "coord epoch must be non-zero");
        ArbiterProgram {
            shm,
            epoch_ns: epoch.as_nanos(),
            arb_cost,
            pending: VecDeque::new(),
        }
    }
}

impl Program for ArbiterProgram {
    fn next_step(&mut self, ctx: &mut ProgCtx<'_>) -> Step {
        if let Some(s) = self.pending.pop_front() {
            return s;
        }
        let mut guard = self
            .shm
            .lock()
            .expect("a task panicked holding the coord segment");
        let shm = &mut *guard;
        let jobs = shm.registered().count();
        if jobs < 2 {
            // Nothing to arbitrate. Flush any stranded waiters first —
            // ranks that blocked while a since-departed job was active
            // must not sleep forever — then park on the doorbell.
            for (&g, slot) in shm.gangs.iter_mut().filter(|(_, s)| s.waiting > 0) {
                let w = std::mem::take(&mut slot.waiting);
                shm.stats.grants += u64::from(w);
                self.pending.push_back(Step::Notify {
                    chan: lease_chan(g),
                    tokens: w,
                });
            }
            drop(guard);
            self.pending.push_back(Step::WaitChan(ctrl_chan()));
            return self.pending.pop_front().expect("just pushed");
        }
        // Two or more jobs co-resident: serve the slice the shared
        // clock says is open, then sleep to the next boundary.
        let now = ctx.now.as_nanos();
        let (active, next) = hpl_kernel::gang::active_at(now, self.epoch_ns, shm.registered());
        let share = shm
            .registered()
            .find(|&(g, _)| g == active)
            .map(|(_, s)| s)
            .expect("active gang is registered");
        let granted = {
            let slot = shm.gangs.get_mut(&active).expect("active gang has a slot");
            std::mem::take(&mut slot.waiting)
        };
        shm.stats.leases += 1;
        shm.stats.grants += u64::from(granted);
        drop(guard);
        if granted > 0 {
            self.pending.push_back(Step::Notify {
                chan: lease_chan(active),
                tokens: granted,
            });
        }
        self.pending.push_back(Step::Emit(SchedEvent::Lease {
            gang: active,
            share_milli: share,
            granted,
            jobs: jobs as u32,
        }));
        self.pending.push_back(Step::Compute(self.arb_cost));
        self.pending
            .push_back(Step::Sleep(SimDuration::from_nanos(next - now)));
        self.pending.pop_front().expect("just pushed")
    }

    fn describe(&self) -> &str {
        "coordd"
    }
}
