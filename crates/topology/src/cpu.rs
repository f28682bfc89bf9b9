//! Logical CPU identifiers and affinity masks.
//!
//! A *logical CPU* is one hardware thread — the unit the scheduler assigns
//! tasks to, matching Linux's numbering on the paper's POWER6 js22 (eight
//! logical CPUs: 2 sockets × 2 cores × 2 SMT threads). [`CpuMask`] is the
//! equivalent of `cpumask_t` / the `sched_setaffinity` bitmask, limited to
//! 64 CPUs, which comfortably covers the node sizes studied here.

use std::fmt;

/// Identifier of a logical CPU (hardware thread). Dense, starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u32);

impl CpuId {
    /// The index as a usize, for array indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A set of logical CPUs, as used for task affinity and scheduling-domain
/// spans. Backed by a `u64`; supports up to 64 logical CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpuMask(u64);

impl CpuMask {
    /// The empty set.
    pub const EMPTY: CpuMask = CpuMask(0);

    /// Maximum number of CPUs representable.
    pub const CAPACITY: u32 = 64;

    /// A mask containing the single CPU `cpu`.
    #[inline]
    pub fn single(cpu: CpuId) -> Self {
        debug_assert!(cpu.0 < Self::CAPACITY);
        CpuMask(1u64 << cpu.0)
    }

    /// A mask of the first `n` CPUs (`cpu0..cpu{n-1}`).
    #[inline]
    pub fn first_n(n: u32) -> Self {
        assert!(
            n <= Self::CAPACITY,
            "CpuMask::first_n({n}) exceeds capacity"
        );
        if n == 64 {
            CpuMask(u64::MAX)
        } else {
            CpuMask((1u64 << n) - 1)
        }
    }

    /// Build a mask from an iterator of CPU ids.
    pub fn from_cpus<I: IntoIterator<Item = CpuId>>(iter: I) -> Self {
        let mut m = CpuMask::EMPTY;
        for c in iter {
            m.set(c);
        }
        m
    }

    /// Raw bit representation.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Construct from raw bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        CpuMask(bits)
    }

    /// Add a CPU to the set.
    #[inline]
    pub fn set(&mut self, cpu: CpuId) {
        debug_assert!(cpu.0 < Self::CAPACITY);
        self.0 |= 1u64 << cpu.0;
    }

    /// Remove a CPU from the set.
    #[inline]
    pub fn clear(&mut self, cpu: CpuId) {
        self.0 &= !(1u64 << cpu.0);
    }

    /// Membership test.
    #[inline]
    pub const fn contains(self, cpu: CpuId) -> bool {
        cpu.0 < Self::CAPACITY && (self.0 >> cpu.0) & 1 == 1
    }

    /// Remove and return the lowest CPU in the set.
    #[inline]
    pub fn pop_first(&mut self) -> Option<CpuId> {
        let cpu = self.first()?;
        self.0 &= self.0 - 1;
        Some(cpu)
    }

    /// Number of CPUs in the set.
    #[inline]
    pub const fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True iff the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: CpuMask) -> CpuMask {
        CpuMask(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersection(self, other: CpuMask) -> CpuMask {
        CpuMask(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    #[inline]
    pub const fn difference(self, other: CpuMask) -> CpuMask {
        CpuMask(self.0 & !other.0)
    }

    /// Lowest-numbered CPU in the set, if any.
    #[inline]
    pub fn first(self) -> Option<CpuId> {
        if self.0 == 0 {
            None
        } else {
            Some(CpuId(self.0.trailing_zeros()))
        }
    }

    /// Iterate over member CPUs in ascending order.
    pub fn iter(self) -> impl Iterator<Item = CpuId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(CpuId(i))
            }
        })
    }
}

impl FromIterator<CpuId> for CpuMask {
    fn from_iter<I: IntoIterator<Item = CpuId>>(iter: I) -> Self {
        CpuMask::from_cpus(iter)
    }
}

impl fmt::Display for CpuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", c.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_contains() {
        let m = CpuMask::single(CpuId(3));
        assert!(m.contains(CpuId(3)));
        assert!(!m.contains(CpuId(2)));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn first_n() {
        let m = CpuMask::first_n(8);
        assert_eq!(m.count(), 8);
        assert!(m.contains(CpuId(0)) && m.contains(CpuId(7)) && !m.contains(CpuId(8)));
        assert_eq!(CpuMask::first_n(64).count(), 64);
        assert_eq!(CpuMask::first_n(0), CpuMask::EMPTY);
    }

    #[test]
    fn set_clear() {
        let mut m = CpuMask::EMPTY;
        m.set(CpuId(5));
        assert!(m.contains(CpuId(5)));
        m.clear(CpuId(5));
        assert!(m.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = CpuMask::from_cpus([CpuId(0), CpuId(1), CpuId(2)]);
        let b = CpuMask::from_cpus([CpuId(2), CpuId(3)]);
        assert_eq!(a.union(b).count(), 4);
        assert_eq!(a.intersection(b), CpuMask::single(CpuId(2)));
        assert_eq!(a.difference(b), CpuMask::from_cpus([CpuId(0), CpuId(1)]));
        assert!(!a.intersection(b).is_empty());
        assert!(CpuMask::single(CpuId(2)).difference(a).is_empty());
        assert!(!a.difference(b).is_empty());
    }

    #[test]
    fn iteration_order() {
        let m = CpuMask::from_cpus([CpuId(7), CpuId(1), CpuId(4)]);
        let v: Vec<u32> = m.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![1, 4, 7]);
        assert_eq!(m.first(), Some(CpuId(1)));
        assert_eq!(CpuMask::EMPTY.first(), None);
        let mut popped = m;
        let v: Vec<u32> = std::iter::from_fn(|| popped.pop_first().map(|c| c.0)).collect();
        assert_eq!(v, vec![1, 4, 7]);
        assert!(popped.is_empty());
    }

    #[test]
    fn display() {
        let m = CpuMask::from_cpus([CpuId(0), CpuId(2)]);
        assert_eq!(format!("{m}"), "{0,2}");
        assert_eq!(format!("{}", CpuId(3)), "cpu3");
    }

    #[test]
    fn from_iterator_trait() {
        let m: CpuMask = [CpuId(1), CpuId(3)].into_iter().collect();
        assert_eq!(m.count(), 2);
    }
}
