//! Conservative co-simulation windows as explicit half-open intervals.
//!
//! The lockstep driver used to carry the window bound around as a bare
//! "inclusive deadline" computed with `t_next + lookahead - 1ns` — an
//! off-by-one land mine the moment anyone adds or compares bounds. A
//! [`Window`] makes the interval `[start, end)` the primitive: the
//! conservative guarantee is exactly "a message sent inside the window
//! delivers at or after `end`", and the inclusive deadline handed to
//! [`hpl_kernel::Node::run_until_time`] is derived in one place
//! ([`Window::deadline`]), correct down to `lookahead = 1 ns` where the
//! window contains the single instant `start`.

use hpl_sim::time::{SimDuration, SimTime};

/// A half-open interval of simulated time, `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant inside the window.
    pub start: SimTime,
    /// First instant *past* the window.
    pub end: SimTime,
}

impl Window {
    /// The conservative window opened by the cluster-wide next event at
    /// `start` under a lookahead of at least 1 ns: `[start, start +
    /// lookahead)`. A message sent at `s >= start` is delivered at or
    /// after `s + lookahead >= end`, i.e. never inside the window.
    pub fn conservative(start: SimTime, lookahead: SimDuration) -> Self {
        assert!(
            lookahead >= SimDuration::from_nanos(1),
            "lookahead must be >= 1ns, got {lookahead}"
        );
        Window {
            start,
            end: start + lookahead,
        }
    }

    /// The latest instant inside the window: the *inclusive* deadline
    /// for [`hpl_kernel::Node::run_until_time`], which runs events with
    /// `t <= deadline`. With `lookahead = 1 ns` this is `start` itself —
    /// the window holds exactly one representable instant.
    #[inline]
    pub fn deadline(&self) -> SimTime {
        debug_assert!(self.end > self.start, "window is empty");
        self.end - SimDuration::from_nanos(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn minimal_lookahead_window_is_a_single_instant() {
        // lookahead = 1 ns: the degenerate case the old inline
        // arithmetic was one misplaced +1 away from corrupting.
        let w = Window::conservative(ns(100), SimDuration::from_nanos(1));
        assert_eq!(w.start, ns(100));
        assert_eq!(w.end, ns(101));
        assert_eq!(w.deadline(), ns(100), "only t=100 may run");
    }

    #[test]
    fn deadline_is_the_last_contained_instant() {
        let w = Window::conservative(ns(1_000), SimDuration::from_micros(5));
        assert_eq!(w.deadline(), ns(5_999));
        // The earliest possible delivery of a message sent at `start`
        // lands exactly at `end` — outside the window, never inside.
        assert_eq!(w.start + SimDuration::from_micros(5), w.end);
    }

    #[test]
    fn windows_tile_without_gap_or_overlap() {
        // Consecutive windows from the same lookahead share an edge:
        // every instant belongs to at most one of them.
        let a = Window::conservative(ns(0), SimDuration::from_nanos(1));
        let b = Window::conservative(a.end, SimDuration::from_nanos(1));
        assert_eq!(a.deadline() + SimDuration::from_nanos(1), b.start);
    }

    #[test]
    #[should_panic(expected = "lookahead must be >= 1ns")]
    fn zero_lookahead_is_rejected() {
        let _ = Window::conservative(ns(0), SimDuration::ZERO);
    }
}
