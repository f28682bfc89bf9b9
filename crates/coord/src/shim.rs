//! The cooperating-rank shim.
//!
//! Cooperation is the user-space backend's contract: a rank checks its
//! lease only at **phase boundaries** — before starting a compute
//! segment — and yields the CPU voluntarily when its gang is outside
//! its slice. Communication and synchronization steps pass through
//! untouched (blocking a rank that peers are waiting on would turn a
//! slice boundary into a deadlock). This is exactly the granularity a
//! real cooperative runtime gets by instrumenting its compute loop, and
//! it is why the user-space backend tracks the kernel slicer only
//! approximately: a long compute segment straddles the boundary instead
//! of being cut by it.

use crate::state::{ctrl_chan, lease_chan, SharedCoord};
use hpl_kernel::{ProgCtx, Program, Step};
use std::collections::VecDeque;

/// Wraps a rank's program with the cooperative lease check. Installed
/// by [`crate::CoordRuntime`] through the launcher's rank-wrap hook;
/// the rank itself (and the kernel) never know it is there.
pub struct CoordShim {
    inner: Box<dyn Program>,
    shm: SharedCoord,
    gang: u64,
    epoch_ns: u64,
    registered: bool,
    /// Steps to replay ahead of the inner program: the compute segment
    /// withheld while blocking for a lease.
    pending: VecDeque<Step>,
}

impl CoordShim {
    /// Shim `inner` as a rank of `gang` on the node whose segment is
    /// `shm`.
    pub fn new(inner: Box<dyn Program>, shm: SharedCoord, gang: u64, epoch_ns: u64) -> Self {
        CoordShim {
            inner,
            shm,
            gang,
            epoch_ns,
            registered: false,
            pending: VecDeque::new(),
        }
    }
}

impl Program for CoordShim {
    fn next_step(&mut self, ctx: &mut ProgCtx<'_>) -> Step {
        if let Some(s) = self.pending.pop_front() {
            return s;
        }
        if !self.registered {
            // First step ever: join the segment, and ring the arbiter's
            // doorbell if we are our job's first rank on this node (the
            // arbiter parks while there is nothing to arbitrate).
            self.registered = true;
            let mut shm = self.shm.lock().unwrap();
            let slot = shm.gangs.entry(self.gang).or_default();
            let first_of_gang = slot.ranks == 0;
            slot.ranks += 1;
            drop(shm);
            if first_of_gang {
                return Step::Notify {
                    chan: ctrl_chan(),
                    tokens: 1,
                };
            }
        }
        let step = self.inner.next_step(ctx);
        match step {
            Step::Compute(d) => {
                let mut shm = self.shm.lock().unwrap();
                if shm.registered().count() >= 2 {
                    let (active, _) = hpl_kernel::gang::active_at(
                        ctx.now.as_nanos(),
                        self.epoch_ns,
                        shm.registered(),
                    );
                    if active != self.gang {
                        // Outside our slice: publish demand and yield
                        // until the arbiter opens it. The withheld
                        // compute runs right after the wakeup — the
                        // grant *is* the lease.
                        let slot = shm.gangs.get_mut(&self.gang).expect("registered above");
                        slot.waiting += 1;
                        shm.stats.blocks += 1;
                        self.pending.push_back(Step::Compute(d));
                        return Step::WaitChan(lease_chan(self.gang));
                    }
                }
                Step::Compute(d)
            }
            Step::Exit => {
                // Leave the segment so the arbiter stops budgeting for
                // us (and can park once co-residency ends).
                let mut shm = self.shm.lock().unwrap();
                let slot = shm.gangs.get_mut(&self.gang).expect("registered above");
                slot.ranks -= 1;
                Step::Exit
            }
            other => other,
        }
    }

    fn describe(&self) -> &str {
        self.inner.describe()
    }
}
