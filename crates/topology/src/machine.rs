//! The socket/core/thread tree and cache hierarchy.
//!
//! [`Topology`] is an immutable description built once per simulated node.
//! The scheduler consults it for placement (threads-per-core,
//! cores-per-socket) and the cache model consults [`Topology::shared_cache_level`]
//! to decide whether a migration loses cache contents — the paper's
//! footnote 2: "this overhead is mitigated if the source and destination
//! cores share some levels of cache". The paper's POWER6 js22 shares
//! nothing between cores, so every inter-core migration there is a full
//! cache loss.

use crate::cpu::{CpuId, CpuMask};

/// Scope at which a cache level is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheScope {
    /// Shared by the SMT threads of one core (typical L1/L2).
    Core,
    /// Shared by all cores of a socket (typical L3).
    Socket,
}

/// One level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevel {
    /// Level number (1 = closest to the core).
    pub level: u8,
    /// Sharing scope.
    pub scope: CacheScope,
    /// Capacity in bytes (informational; the warmth model is capacity-free
    /// but reports use it).
    pub size_bytes: u64,
}

/// Immutable machine description: `sockets × cores_per_socket ×
/// threads_per_core` logical CPUs, plus the cache hierarchy.
///
/// ```
/// use hpl_topology::{CpuId, Topology};
///
/// let js22 = Topology::power6_js22();
/// assert_eq!(js22.total_cpus(), 8);
/// // cpu0 and cpu1 are SMT siblings sharing L1/L2 ...
/// assert_eq!(js22.shared_cache_level(CpuId(0), CpuId(1)), Some(1));
/// // ... but cores on this blade share nothing (no L3).
/// assert_eq!(js22.shared_cache_level(CpuId(0), CpuId(2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    sockets: u32,
    cores_per_socket: u32,
    threads_per_core: u32,
    caches: Vec<CacheLevel>,
    name: String,
    /// `core_of` per logical CPU, precomputed: the cache model and the
    /// SMT-sibling check look it up on every settle of a CPU.
    core_index: [u8; CpuMask::CAPACITY as usize],
}

impl Topology {
    /// Build a topology. All dimension arguments must be non-zero and the
    /// total logical CPU count must fit in a [`CpuMask`].
    pub fn new(
        name: impl Into<String>,
        sockets: u32,
        cores_per_socket: u32,
        threads_per_core: u32,
        caches: Vec<CacheLevel>,
    ) -> Self {
        assert!(sockets > 0 && cores_per_socket > 0 && threads_per_core > 0);
        let total = sockets * cores_per_socket * threads_per_core;
        assert!(
            total <= CpuMask::CAPACITY,
            "{total} logical CPUs exceed CpuMask capacity"
        );
        let mut caches = caches;
        caches.sort_by_key(|c| c.level);
        let mut core_index = [0; CpuMask::CAPACITY as usize];
        for (cpu, core) in core_index.iter_mut().enumerate().take(total as usize) {
            *core = (cpu as u32 / threads_per_core) as u8;
        }
        Topology {
            sockets,
            cores_per_socket,
            threads_per_core,
            caches,
            name: name.into(),
            core_index,
        }
    }

    /// The paper's test machine: IBM js22 blade, two POWER6 chips, two
    /// cores per chip, two SMT threads per core — eight logical CPUs.
    /// L1/L2 private per core; this blade variant has **no** shared L3.
    pub fn power6_js22() -> Self {
        Topology::new(
            "IBM js22 (2x POWER6)",
            2,
            2,
            2,
            vec![
                CacheLevel {
                    level: 1,
                    scope: CacheScope::Core,
                    size_bytes: 64 * 1024,
                },
                CacheLevel {
                    level: 2,
                    scope: CacheScope::Core,
                    size_bytes: 4 * 1024 * 1024,
                },
            ],
        )
    }

    /// A flat SMP of `n` single-thread cores on one socket with a shared
    /// L2 — the simplest useful machine for unit tests.
    pub fn smp(n: u32) -> Self {
        Topology::new(
            format!("smp{n}"),
            1,
            n,
            1,
            vec![
                CacheLevel {
                    level: 1,
                    scope: CacheScope::Core,
                    size_bytes: 32 * 1024,
                },
                CacheLevel {
                    level: 2,
                    scope: CacheScope::Socket,
                    size_bytes: 8 * 1024 * 1024,
                },
            ],
        )
    }

    /// A contemporary-style dual-socket x86: 2 sockets × 4 cores × 2 SMT,
    /// private L1/L2, shared L3 per socket. Only tests use it, to run
    /// the scheduler on a machine whose last-level cache spans a socket.
    pub fn xeon_2s4c2t() -> Self {
        Topology::new(
            "xeon 2s4c2t",
            2,
            4,
            2,
            vec![
                CacheLevel {
                    level: 1,
                    scope: CacheScope::Core,
                    size_bytes: 32 * 1024,
                },
                CacheLevel {
                    level: 2,
                    scope: CacheScope::Core,
                    size_bytes: 256 * 1024,
                },
                CacheLevel {
                    level: 3,
                    scope: CacheScope::Socket,
                    size_bytes: 12 * 1024 * 1024,
                },
            ],
        )
    }

    /// Human-readable machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of sockets (chips).
    pub fn sockets(&self) -> u32 {
        self.sockets
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> u32 {
        self.cores_per_socket
    }

    /// SMT threads per core.
    pub fn threads_per_core(&self) -> u32 {
        self.threads_per_core
    }

    /// Total physical cores.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Total logical CPUs (hardware threads).
    pub fn total_cpus(&self) -> u32 {
        self.total_cores() * self.threads_per_core
    }

    /// Mask of every logical CPU.
    pub fn all_cpus(&self) -> CpuMask {
        CpuMask::first_n(self.total_cpus())
    }

    /// Cache hierarchy, ordered by level.
    pub fn caches(&self) -> &[CacheLevel] {
        &self.caches
    }

    /// Logical CPU numbering: CPU id = `socket * cores_per_socket *
    /// threads_per_core + core_in_socket * threads_per_core + thread`.
    /// (Linux on POWER enumerates SMT siblings adjacently, which this
    /// matches.)
    pub fn cpu_id(&self, socket: u32, core_in_socket: u32, thread: u32) -> CpuId {
        debug_assert!(
            socket < self.sockets
                && core_in_socket < self.cores_per_socket
                && thread < self.threads_per_core
        );
        CpuId(
            socket * self.cores_per_socket * self.threads_per_core
                + core_in_socket * self.threads_per_core
                + thread,
        )
    }

    /// Physical core index (machine-wide) of a logical CPU.
    #[inline]
    pub fn core_of(&self, cpu: CpuId) -> u32 {
        debug_assert!(cpu.0 < self.total_cpus(), "{cpu} not on {}", self.name);
        self.core_index[cpu.index()] as u32
    }

    /// Socket index of a logical CPU.
    pub fn socket_of(&self, cpu: CpuId) -> u32 {
        cpu.0 / (self.cores_per_socket * self.threads_per_core)
    }

    /// Mask of all hardware threads on the same core as `cpu` (including
    /// `cpu` itself).
    pub fn smt_siblings(&self, cpu: CpuId) -> CpuMask {
        let core = self.core_of(cpu);
        let base = core * self.threads_per_core;
        CpuMask::from_cpus((0..self.threads_per_core).map(|t| CpuId(base + t)))
    }

    /// Mask of all logical CPUs on the same socket as `cpu`.
    pub fn socket_cpus(&self, cpu: CpuId) -> CpuMask {
        let per_socket = self.cores_per_socket * self.threads_per_core;
        let base = self.socket_of(cpu) * per_socket;
        CpuMask::from_cpus((0..per_socket).map(|t| CpuId(base + t)))
    }

    /// Mask of the logical CPUs of core `core` (machine-wide core index).
    pub fn core_cpus(&self, core: u32) -> CpuMask {
        let base = core * self.threads_per_core;
        CpuMask::from_cpus((0..self.threads_per_core).map(|t| CpuId(base + t)))
    }

    /// The innermost (lowest-numbered, i.e. fastest) cache level shared by
    /// two distinct logical CPUs, or `None` if they share nothing — the
    /// case in which a migration pays the full cold-cache penalty.
    pub fn shared_cache_level(&self, a: CpuId, b: CpuId) -> Option<u8> {
        let same_core = self.core_of(a) == self.core_of(b);
        let same_socket = self.socket_of(a) == self.socket_of(b);
        self.caches
            .iter()
            .find(|c| match c.scope {
                CacheScope::Core => same_core,
                CacheScope::Socket => same_socket,
            })
            .map(|c| c.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power6_dimensions() {
        let t = Topology::power6_js22();
        assert_eq!(t.sockets(), 2);
        assert_eq!(t.total_cores(), 4);
        assert_eq!(t.total_cpus(), 8);
        assert_eq!(t.all_cpus().count(), 8);
    }

    #[test]
    fn cpu_numbering_roundtrip() {
        let t = Topology::power6_js22();
        // Socket 1, core 1, thread 1 -> last CPU.
        assert_eq!(t.cpu_id(1, 1, 1), CpuId(7));
        assert_eq!(t.socket_of(CpuId(7)), 1);
        assert_eq!(t.core_of(CpuId(7)), 3);
        // Thread 1: the second of its core's SMT siblings.
        assert_eq!(t.smt_siblings(CpuId(7)).iter().nth(1), Some(CpuId(7)));
        assert_eq!(t.cpu_id(0, 0, 0), CpuId(0));
    }

    #[test]
    fn smt_siblings_power6() {
        let t = Topology::power6_js22();
        assert_eq!(
            t.smt_siblings(CpuId(0)),
            CpuMask::from_cpus([CpuId(0), CpuId(1)])
        );
        assert_eq!(
            t.smt_siblings(CpuId(5)),
            CpuMask::from_cpus([CpuId(4), CpuId(5)])
        );
    }

    #[test]
    fn socket_cpus_power6() {
        let t = Topology::power6_js22();
        assert_eq!(t.socket_cpus(CpuId(2)), CpuMask::first_n(4));
        assert_eq!(
            t.socket_cpus(CpuId(6)),
            CpuMask::from_cpus([CpuId(4), CpuId(5), CpuId(6), CpuId(7)])
        );
    }

    #[test]
    fn power6_shares_cache_only_within_core() {
        let t = Topology::power6_js22();
        // SMT siblings share L1.
        assert_eq!(t.shared_cache_level(CpuId(0), CpuId(1)), Some(1));
        // Different cores on the same chip: nothing shared (no L3 on js22).
        assert_eq!(t.shared_cache_level(CpuId(0), CpuId(2)), None);
        // Different chips: nothing.
        assert_eq!(t.shared_cache_level(CpuId(0), CpuId(4)), None);
    }

    #[test]
    fn xeon_shares_l3_within_socket() {
        let t = Topology::xeon_2s4c2t();
        assert_eq!(t.shared_cache_level(CpuId(0), CpuId(2)), Some(3));
        assert_eq!(t.shared_cache_level(CpuId(0), CpuId(8)), None);
        assert_eq!(t.shared_cache_level(CpuId(0), CpuId(1)), Some(1));
    }

    #[test]
    fn smp_flat() {
        let t = Topology::smp(4);
        assert_eq!(t.total_cpus(), 4);
        assert_eq!(t.smt_siblings(CpuId(2)).count(), 1);
        // Shared L2 at socket scope.
        assert_eq!(t.shared_cache_level(CpuId(0), CpuId(3)), Some(2));
    }

    #[test]
    fn core_table_matches_division() {
        for t in [
            Topology::power6_js22(),
            Topology::smp(1),
            Topology::smp(64),
            Topology::xeon_2s4c2t(),
            Topology::new("2s8c4t", 2, 8, 4, vec![]),
        ] {
            for cpu in t.all_cpus().iter() {
                assert_eq!(
                    t.core_of(cpu),
                    cpu.0 / t.threads_per_core(),
                    "{cpu} on {}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn core_cpus() {
        let t = Topology::power6_js22();
        assert_eq!(t.core_cpus(1), CpuMask::from_cpus([CpuId(2), CpuId(3)]));
    }

    #[test]
    #[should_panic]
    fn zero_dimension_panics() {
        Topology::new("bad", 0, 1, 1, vec![]);
    }

    #[test]
    fn caches_sorted_by_level() {
        let t = Topology::xeon_2s4c2t();
        let levels: Vec<u8> = t.caches().iter().map(|c| c.level).collect();
        assert_eq!(levels, vec![1, 2, 3]);
    }
}
