//! Wait channels and barriers, with spin-then-block waiting.
//!
//! The futex-level substrate user-space synchronisation is built on.
//! A *channel* is a counting token queue: `notify` deposits tokens (waking
//! waiters first), `wait` consumes one or blocks. A *barrier* collects
//! `parties` arrivals and releases everyone at once.
//!
//! Waiters come in two flavours, because the distinction drives the
//! paper's context-switch accounting: a **blocked** waiter is off the
//! runqueue (its arrival and departure each cost a context switch), while
//! a **spinning** waiter busy-waits on its CPU — the MPI library
//! behaviour (MPICH spins before yielding) that explains why the NAS
//! benchmarks' baseline context-switch counts are low even for
//! synchronisation-heavy codes. The kernel (node.rs) performs the actual
//! blocking, spinning and waking; this module is pure bookkeeping.

use crate::task::{BlockReason, Pid, SpinTarget, Task, TaskState};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Identifier of a wait channel. Allocation is up to the runtime built on
/// top (the MPI crate derives ids from rank pairs and collective ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChanId(pub u64);

/// Identifier of a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BarrierId(pub u64);

impl fmt::Display for ChanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chan{}", self.0)
    }
}

impl fmt::Display for BarrierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "barrier{}", self.0)
    }
}

/// How a satisfied waiter had been waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiting {
    /// Off the runqueue; must be woken.
    Blocked,
    /// Busy-waiting on its CPU; its spin must be cancelled.
    Spinning,
}

/// Result of a wait attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// A token was available; the caller proceeds immediately.
    Proceed,
    /// The caller must wait (blocked or spinning, per the call used).
    Wait,
}

#[derive(Debug, Default)]
struct Chan {
    tokens: u64,
    blocked: VecDeque<Pid>,
    spinners: VecDeque<Pid>,
}

#[derive(Debug, Default)]
struct Barrier {
    arrived: u32,
    blocked: Vec<Pid>,
    spinners: Vec<Pid>,
    generation: u64,
}

/// All channel and barrier state of one node.
#[derive(Debug, Default)]
pub struct SyncState {
    chans: HashMap<ChanId, Chan>,
    barriers: HashMap<BarrierId, Barrier>,
}

impl SyncState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        SyncState::default()
    }

    /// Attempt to consume a token, registering `pid` as a **blocked**
    /// waiter on failure.
    pub fn wait(&mut self, chan: ChanId, pid: Pid) -> WaitOutcome {
        let c = self.chans.entry(chan).or_default();
        if c.tokens > 0 {
            c.tokens -= 1;
            WaitOutcome::Proceed
        } else {
            debug_assert!(!c.blocked.contains(&pid), "{pid} double-waits on {chan}");
            c.blocked.push_back(pid);
            WaitOutcome::Wait
        }
    }

    /// Attempt to consume a token, registering `pid` as a **spinning**
    /// waiter on failure.
    pub fn spin_wait(&mut self, chan: ChanId, pid: Pid) -> WaitOutcome {
        let c = self.chans.entry(chan).or_default();
        if c.tokens > 0 {
            c.tokens -= 1;
            WaitOutcome::Proceed
        } else {
            debug_assert!(!c.spinners.contains(&pid));
            c.spinners.push_back(pid);
            WaitOutcome::Wait
        }
    }

    /// A spinner's patience ran out: convert it to a blocked waiter.
    pub fn chan_spin_to_block(&mut self, chan: ChanId, pid: Pid) {
        let c = self.chans.entry(chan).or_default();
        let was_spinning = c.spinners.iter().any(|&p| p == pid);
        debug_assert!(was_spinning, "{pid} was not spinning on {chan}");
        c.spinners.retain(|&p| p != pid);
        c.blocked.push_back(pid);
    }

    /// Deposit `tokens` tokens. Each token satisfies one waiter —
    /// spinners first (they notice immediately), then blocked waiters
    /// (FIFO) — or banks if nobody waits. The satisfied waiters, and how
    /// each was waiting, are appended to `woken` in that order.
    pub fn notify(&mut self, chan: ChanId, tokens: u32, woken: &mut Vec<(Pid, Waiting)>) {
        let c = self.chans.entry(chan).or_default();
        for _ in 0..tokens {
            if let Some(p) = c.spinners.pop_front() {
                woken.push((p, Waiting::Spinning));
            } else if let Some(p) = c.blocked.pop_front() {
                woken.push((p, Waiting::Blocked));
            } else {
                c.tokens += 1;
            }
        }
    }

    /// Arrive at a barrier of `parties` participants.
    ///
    /// Returns [`WaitOutcome::Wait`] if the caller must wait (it is
    /// registered as spinning or blocked per `spin`). Returns
    /// [`WaitOutcome::Proceed`] if this arrival completes the barrier:
    /// everyone to release — spinners first, then blocked waiters in
    /// arrival order — is appended to `woken`, the caller itself
    /// proceeds, and the barrier resets for the next generation.
    pub fn barrier_arrive(
        &mut self,
        barrier: BarrierId,
        parties: u32,
        pid: Pid,
        spin: bool,
        woken: &mut Vec<(Pid, Waiting)>,
    ) -> WaitOutcome {
        assert!(parties > 0, "barrier with zero parties");
        let b = self.barriers.entry(barrier).or_default();
        b.arrived += 1;
        debug_assert!(
            b.arrived <= parties,
            "barrier {barrier} overfilled: {} > {parties}",
            b.arrived
        );
        if b.arrived == parties {
            woken.extend(b.spinners.drain(..).map(|p| (p, Waiting::Spinning)));
            woken.extend(b.blocked.drain(..).map(|p| (p, Waiting::Blocked)));
            b.arrived = 0;
            b.generation += 1;
            WaitOutcome::Proceed
        } else {
            if spin {
                debug_assert!(!b.spinners.contains(&pid));
                b.spinners.push(pid);
            } else {
                debug_assert!(!b.blocked.contains(&pid));
                b.blocked.push(pid);
            }
            WaitOutcome::Wait
        }
    }

    /// A barrier spinner's patience ran out: convert to blocked.
    pub fn barrier_spin_to_block(&mut self, barrier: BarrierId, pid: Pid) {
        let b = self.barriers.entry(barrier).or_default();
        let was_spinning = b.spinners.contains(&pid);
        debug_assert!(was_spinning, "{pid} was not spinning on {barrier}");
        b.spinners.retain(|&p| p != pid);
        b.blocked.push(pid);
    }

    /// Remove an exiting task from the one wait list it can be on: the
    /// spinners of its `spin` target, else the blocked list its
    /// [`BlockReason`] names. Call before the task is marked dead. Debug
    /// builds check that no other list holds it.
    pub fn forget(&mut self, task: &Task) {
        let pid = task.pid;
        match (task.spin, task.state) {
            (Some(SpinTarget::Chan(id)), _) => self.leave_chan(id, pid),
            (Some(SpinTarget::Barrier(id)), _) => self.leave_barrier(id, pid),
            (None, TaskState::Blocked(BlockReason::Chan(id))) => self.leave_chan(id, pid),
            (None, TaskState::Blocked(BlockReason::Barrier(id))) => self.leave_barrier(id, pid),
            (None, _) => {}
        }
        debug_assert!(!self.holds(pid), "{pid} still waits after exit");
    }

    fn leave_chan(&mut self, id: ChanId, pid: Pid) {
        if let Some(c) = self.chans.get_mut(&id) {
            c.blocked.retain(|&w| w != pid);
            c.spinners.retain(|&w| w != pid);
        }
    }

    fn leave_barrier(&mut self, id: BarrierId, pid: Pid) {
        if let Some(b) = self.barriers.get_mut(&id) {
            let before = b.blocked.len() + b.spinners.len();
            b.blocked.retain(|&w| w != pid);
            b.spinners.retain(|&w| w != pid);
            // A dead participant can never release the barrier; keep the
            // arrival count consistent with the remaining waiters.
            if b.blocked.len() + b.spinners.len() != before {
                b.arrived = b.arrived.saturating_sub(1);
            }
        }
    }

    /// Does any wait list hold `pid`? A scan of every channel and
    /// barrier the node ever used, for debug checks.
    fn holds(&self, pid: Pid) -> bool {
        self.chans
            .values()
            .any(|c| c.blocked.contains(&pid) || c.spinners.contains(&pid))
            || self
                .barriers
                .values()
                .any(|b| b.blocked.contains(&pid) || b.spinners.contains(&pid))
    }

    /// Tokens currently banked on a channel (diagnostics).
    pub fn tokens(&self, chan: ChanId) -> u64 {
        self.chans.get(&chan).map_or(0, |c| c.tokens)
    }

    /// Number of waiters (blocked + spinning) on a channel.
    pub fn chan_waiters(&self, chan: ChanId) -> usize {
        self.chans
            .get(&chan)
            .map_or(0, |c| c.blocked.len() + c.spinners.len())
    }

    /// Completed generations of a barrier (diagnostics / tests).
    pub fn barrier_generation(&self, barrier: BarrierId) -> u64 {
        self.barriers.get(&barrier).map_or(0, |b| b.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `notify`'s appended waiters, as a fresh list.
    fn notify(s: &mut SyncState, chan: ChanId, tokens: u32) -> Vec<(Pid, Waiting)> {
        let mut woken = Vec::new();
        s.notify(chan, tokens, &mut woken);
        woken
    }

    /// `barrier_arrive`'s outcome: `None` to wait, else the released
    /// waiters.
    fn arrive(
        s: &mut SyncState,
        b: BarrierId,
        parties: u32,
        pid: Pid,
        spin: bool,
    ) -> Option<Vec<(Pid, Waiting)>> {
        let mut woken = Vec::new();
        match s.barrier_arrive(b, parties, pid, spin, &mut woken) {
            WaitOutcome::Proceed => Some(woken),
            WaitOutcome::Wait => {
                assert!(woken.is_empty(), "a waiting arrival released {woken:?}");
                None
            }
        }
    }

    #[test]
    fn wait_blocks_then_notify_wakes_fifo() {
        let mut s = SyncState::new();
        let ch = ChanId(1);
        assert_eq!(s.wait(ch, Pid(1)), WaitOutcome::Wait);
        assert_eq!(s.wait(ch, Pid(2)), WaitOutcome::Wait);
        assert_eq!(s.chan_waiters(ch), 2);
        assert_eq!(notify(&mut s, ch, 1), vec![(Pid(1), Waiting::Blocked)]);
        assert_eq!(notify(&mut s, ch, 1), vec![(Pid(2), Waiting::Blocked)]);
        assert_eq!(s.chan_waiters(ch), 0);
    }

    #[test]
    fn tokens_bank_when_no_waiters() {
        let mut s = SyncState::new();
        let ch = ChanId(2);
        assert!(notify(&mut s, ch, 3).is_empty());
        assert_eq!(s.tokens(ch), 3);
        assert_eq!(s.wait(ch, Pid(1)), WaitOutcome::Proceed);
        assert_eq!(s.tokens(ch), 2);
    }

    #[test]
    fn spinners_satisfied_before_blocked() {
        let mut s = SyncState::new();
        let ch = ChanId(3);
        s.wait(ch, Pid(1));
        s.spin_wait(ch, Pid(2));
        let got = notify(&mut s, ch, 2);
        assert_eq!(
            got,
            vec![(Pid(2), Waiting::Spinning), (Pid(1), Waiting::Blocked)]
        );
    }

    #[test]
    fn spin_to_block_transitions() {
        let mut s = SyncState::new();
        let ch = ChanId(4);
        assert_eq!(s.spin_wait(ch, Pid(7)), WaitOutcome::Wait);
        s.chan_spin_to_block(ch, Pid(7));
        // Now satisfied as a blocked waiter.
        assert_eq!(notify(&mut s, ch, 1), vec![(Pid(7), Waiting::Blocked)]);
    }

    #[test]
    fn spin_wait_consumes_available_token() {
        let mut s = SyncState::new();
        let ch = ChanId(5);
        notify(&mut s, ch, 1);
        assert_eq!(s.spin_wait(ch, Pid(1)), WaitOutcome::Proceed);
        assert_eq!(s.tokens(ch), 0);
    }

    #[test]
    fn barrier_releases_all_and_resets() {
        let mut s = SyncState::new();
        let b = BarrierId(1);
        assert_eq!(arrive(&mut s, b, 3, Pid(1), false), None);
        assert_eq!(arrive(&mut s, b, 3, Pid(2), true), None);
        let woken = arrive(&mut s, b, 3, Pid(3), false).expect("released");
        assert_eq!(
            woken,
            vec![(Pid(2), Waiting::Spinning), (Pid(1), Waiting::Blocked)]
        );
        assert_eq!(s.barrier_generation(b), 1);
        // Next generation works again.
        assert_eq!(arrive(&mut s, b, 3, Pid(2), false), None);
        assert_eq!(arrive(&mut s, b, 3, Pid(3), false), None);
        assert_eq!(arrive(&mut s, b, 3, Pid(1), false).unwrap().len(), 2);
        assert_eq!(s.barrier_generation(b), 2);
    }

    #[test]
    fn barrier_spin_to_block() {
        let mut s = SyncState::new();
        let b = BarrierId(2);
        arrive(&mut s, b, 2, Pid(1), true);
        s.barrier_spin_to_block(b, Pid(1));
        let woken = arrive(&mut s, b, 2, Pid(2), false).unwrap();
        assert_eq!(woken, vec![(Pid(1), Waiting::Blocked)]);
    }

    #[test]
    fn single_party_barrier_never_waits() {
        let mut s = SyncState::new();
        let b = BarrierId(9);
        for _ in 0..5 {
            assert_eq!(arrive(&mut s, b, 1, Pid(0), true), Some(vec![]));
        }
        assert_eq!(s.barrier_generation(b), 5);
    }

    fn task(pid: u32, state: TaskState, spin: Option<SpinTarget>) -> Task {
        let mut t = Task::new(
            Pid(pid),
            "t",
            crate::task::Policy::Hpc,
            hpl_topology::CpuMask::first_n(1),
        );
        t.state = state;
        t.spin = spin;
        t
    }

    #[test]
    fn forget_removes_waiters() {
        let mut s = SyncState::new();
        let ch = ChanId(6);
        let b = BarrierId(6);
        s.wait(ch, Pid(5));
        arrive(&mut s, b, 3, Pid(4), true);
        s.forget(&task(5, TaskState::Blocked(BlockReason::Chan(ch)), None));
        assert_eq!(s.chan_waiters(ch), 0);
        s.forget(&task(4, TaskState::Runnable, Some(SpinTarget::Barrier(b))));
        // Barrier arrival count rolled back: two remaining parties
        // complete it.
        assert_eq!(arrive(&mut s, b, 2, Pid(1), false), None);
        assert!(arrive(&mut s, b, 2, Pid(2), false).is_some());
    }

    /// Every list in a fixed order, for comparing two states.
    fn snapshot(s: &SyncState) -> String {
        let chans: std::collections::BTreeMap<_, _> = s.chans.iter().collect();
        let barriers: std::collections::BTreeMap<_, _> = s.barriers.iter().collect();
        format!("{chans:?} {barriers:?}")
    }

    /// Channels and barriers of a long-running node: many stale (empty)
    /// ones, some with waiters, one completed barrier generation.
    fn busy_state() -> SyncState {
        let mut s = SyncState::new();
        for i in 0..50 {
            notify(&mut s, ChanId(i), 1);
            s.wait(ChanId(i), Pid(100));
        }
        s.wait(ChanId(3), Pid(1));
        s.wait(ChanId(3), Pid(2));
        s.spin_wait(ChanId(4), Pid(3));
        s.spin_wait(ChanId(4), Pid(9));
        arrive(&mut s, BarrierId(0), 1, Pid(100), false);
        arrive(&mut s, BarrierId(1), 4, Pid(5), false);
        arrive(&mut s, BarrierId(1), 4, Pid(6), true);
        arrive(&mut s, BarrierId(1), 4, Pid(7), true);
        s
    }

    /// The pre-targeting teardown: sweep the pid out of every list.
    fn forget_everywhere(s: &mut SyncState, pid: Pid) {
        for c in s.chans.values_mut() {
            c.blocked.retain(|&w| w != pid);
            c.spinners.retain(|&w| w != pid);
        }
        for b in s.barriers.values_mut() {
            let before = b.blocked.len() + b.spinners.len();
            b.blocked.retain(|&w| w != pid);
            b.spinners.retain(|&w| w != pid);
            if b.blocked.len() + b.spinners.len() != before {
                b.arrived = b.arrived.saturating_sub(1);
            }
        }
    }

    #[test]
    fn targeted_forget_matches_a_full_scan() {
        use SpinTarget as S;
        use TaskState as T;
        let cases = [
            task(1, T::Blocked(BlockReason::Chan(ChanId(3))), None),
            task(2, T::Blocked(BlockReason::Chan(ChanId(3))), None),
            task(3, T::Running, Some(S::Chan(ChanId(4)))),
            task(9, T::Runnable, Some(S::Chan(ChanId(4)))),
            task(5, T::Blocked(BlockReason::Barrier(BarrierId(1))), None),
            task(6, T::Running, Some(S::Barrier(BarrierId(1)))),
            task(7, T::Runnable, Some(S::Barrier(BarrierId(1)))),
            task(8, T::Running, None),
            task(10, T::Blocked(BlockReason::Timer), None),
            task(11, T::Blocked(BlockReason::Children), None),
            task(12, T::Dead, None),
        ];
        for t in &cases {
            let (mut fast, mut scan) = (busy_state(), busy_state());
            fast.forget(t);
            forget_everywhere(&mut scan, t.pid);
            assert_eq!(snapshot(&fast), snapshot(&scan), "{:?}", t.pid);
            assert!(!fast.holds(t.pid));
        }
    }

    #[test]
    #[should_panic]
    fn zero_party_barrier_panics() {
        let mut s = SyncState::new();
        arrive(&mut s, BarrierId(0), 0, Pid(0), false);
    }
}
