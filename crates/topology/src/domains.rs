//! Scheduling-domain hierarchy.
//!
//! Linux builds, for every CPU, a chain of `sched_domain`s from innermost
//! (SMT siblings) through multi-core (cores of one chip) to package level
//! (whole machine). Periodic load balancing walks this chain with
//! per-level intervals (inner levels balance more often); idle balancing
//! walks it on demand. The paper's test system exposes exactly three
//! levels ("there are three domain levels: chip, core, and hardware
//! thread"), which this module reproduces from any [`Topology`].

use crate::cpu::{CpuId, CpuMask};
use crate::machine::Topology;

/// Hierarchy level of a scheduling domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DomainLevel {
    /// SMT siblings within one core.
    Smt,
    /// Cores within one socket (multi-core level).
    MultiCore,
    /// Sockets within the machine (package level).
    Package,
}

impl DomainLevel {
    /// Short name as used in reports (matches Linux's domain names).
    pub fn name(self) -> &'static str {
        match self {
            DomainLevel::Smt => "SMT",
            DomainLevel::MultiCore => "MC",
            DomainLevel::Package => "PKG",
        }
    }
}

/// One scheduling domain: a span of CPUs partitioned into balance groups.
///
/// Balancing at this domain equalises load *between groups*; balancing
/// within a group is the job of the next domain down.
#[derive(Debug, Clone)]
pub struct SchedDomain {
    /// Hierarchy level.
    pub level: DomainLevel,
    /// All CPUs this domain spans.
    pub span: CpuMask,
    /// The balance groups (children spans). Invariant: disjoint, non-empty,
    /// and their union equals `span`.
    pub groups: Vec<CpuMask>,
    /// Minimum interval between periodic balance attempts at this level,
    /// in nanoseconds. Inner (smaller) domains balance more frequently,
    /// as in Linux where the base interval scales with domain weight.
    pub balance_interval_ns: u64,
    /// Whether CPUs inside one group of this domain share a cache level —
    /// migrations within such a group carry reduced cache penalty.
    pub share_cache_in_group: bool,
}

/// Per-CPU chains of scheduling domains, innermost first.
#[derive(Debug, Clone)]
pub struct DomainHierarchy {
    per_cpu: Vec<Vec<SchedDomain>>,
}

impl DomainHierarchy {
    /// Build the hierarchy for a topology.
    ///
    /// Degenerate levels are skipped exactly as Linux does: a machine
    /// without SMT gets no SMT domain; a single-socket machine gets no
    /// package domain; a machine with one core per socket gets no MC
    /// domain.
    pub fn build(topo: &Topology) -> Self {
        let mut per_cpu = Vec::with_capacity(topo.total_cpus() as usize);
        for raw in 0..topo.total_cpus() {
            let cpu = CpuId(raw);
            let mut chain = Vec::new();

            // SMT level: span = this core's threads, groups = each thread.
            if topo.threads_per_core() > 1 {
                let span = topo.smt_siblings(cpu);
                chain.push(SchedDomain {
                    level: DomainLevel::Smt,
                    span,
                    groups: span.iter().map(CpuMask::single).collect(),
                    balance_interval_ns: 1_000_000 * topo.threads_per_core() as u64,
                    share_cache_in_group: true,
                });
            }

            // MC level: span = this socket's CPUs, groups = each core.
            if topo.cores_per_socket() > 1 {
                let span = topo.socket_cpus(cpu);
                let first_core = topo.core_of(span.first().expect("socket span non-empty"));
                let groups = (0..topo.cores_per_socket())
                    .map(|c| topo.core_cpus(first_core + c))
                    .collect();
                chain.push(SchedDomain {
                    level: DomainLevel::MultiCore,
                    span,
                    groups,
                    balance_interval_ns: 1_000_000
                        * (topo.cores_per_socket() * topo.threads_per_core()) as u64,
                    // Within one MC group (= one core) SMT threads share L1/L2.
                    share_cache_in_group: true,
                });
            }

            // Package level: span = machine, groups = each socket.
            if topo.sockets() > 1 {
                let span = topo.all_cpus();
                let groups = (0..topo.sockets())
                    .map(|s| topo.socket_cpus(topo.cpu_id(s, 0, 0)))
                    .collect();
                chain.push(SchedDomain {
                    level: DomainLevel::Package,
                    span,
                    groups,
                    balance_interval_ns: 1_000_000 * topo.total_cpus() as u64 * 2,
                    share_cache_in_group: topo
                        .caches()
                        .iter()
                        .any(|c| matches!(c.scope, crate::machine::CacheScope::Socket)),
                });
            }

            per_cpu.push(chain);
        }
        DomainHierarchy { per_cpu }
    }

    /// The domain chain of `cpu`, innermost first.
    pub fn chain(&self, cpu: CpuId) -> &[SchedDomain] {
        &self.per_cpu[cpu.index()]
    }

    /// Number of CPUs covered.
    pub fn cpus(&self) -> usize {
        self.per_cpu.len()
    }

    /// Total number of domain levels for `cpu`.
    pub fn depth(&self, cpu: CpuId) -> usize {
        self.per_cpu[cpu.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate_domain(d: &SchedDomain) {
        assert!(!d.groups.is_empty());
        let mut union = CpuMask::EMPTY;
        for (i, g) in d.groups.iter().enumerate() {
            assert!(!g.is_empty(), "empty group {i}");
            assert!(
                union.intersection(*g).is_empty(),
                "groups overlap at {i}: {union} vs {g}"
            );
            union = union.union(*g);
        }
        assert_eq!(union, d.span, "groups must tile the span");
    }

    #[test]
    fn power6_has_three_levels() {
        let topo = Topology::power6_js22();
        let h = DomainHierarchy::build(&topo);
        for cpu in topo.all_cpus().iter() {
            let chain = h.chain(cpu);
            assert_eq!(chain.len(), 3, "paper: chip, core, hardware-thread");
            assert_eq!(chain[0].level, DomainLevel::Smt);
            assert_eq!(chain[1].level, DomainLevel::MultiCore);
            assert_eq!(chain[2].level, DomainLevel::Package);
            for d in chain {
                validate_domain(d);
                assert!(d.span.contains(cpu));
            }
        }
    }

    #[test]
    fn chains_nest() {
        let topo = Topology::power6_js22();
        let h = DomainHierarchy::build(&topo);
        for cpu in topo.all_cpus().iter() {
            let chain = h.chain(cpu);
            for w in chain.windows(2) {
                assert!(
                    w[0].span.difference(w[1].span).is_empty(),
                    "inner domain must nest in outer"
                );
            }
            // Outermost spans the whole machine.
            assert_eq!(chain.last().unwrap().span, topo.all_cpus());
        }
    }

    #[test]
    fn smt_domain_groups_are_threads() {
        let topo = Topology::power6_js22();
        let h = DomainHierarchy::build(&topo);
        let smt = &h.chain(CpuId(4))[0];
        assert_eq!(smt.groups.len(), 2);
        assert!(smt.groups.iter().all(|g| g.count() == 1));
        assert_eq!(smt.span, topo.smt_siblings(CpuId(4)));
    }

    #[test]
    fn mc_domain_groups_are_cores() {
        let topo = Topology::power6_js22();
        let h = DomainHierarchy::build(&topo);
        let mc = &h.chain(CpuId(6))[1];
        assert_eq!(mc.groups.len(), 2);
        assert!(mc.groups.iter().all(|g| g.count() == 2));
    }

    #[test]
    fn package_groups_are_sockets() {
        let topo = Topology::power6_js22();
        let h = DomainHierarchy::build(&topo);
        let pkg = &h.chain(CpuId(0))[2];
        assert_eq!(pkg.groups.len(), 2);
        assert_eq!(pkg.groups[0], topo.socket_cpus(CpuId(0)));
        assert_eq!(pkg.groups[1], topo.socket_cpus(CpuId(4)));
    }

    #[test]
    fn flat_smp_has_single_level() {
        let topo = Topology::smp(4);
        let h = DomainHierarchy::build(&topo);
        let chain = h.chain(CpuId(0));
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].level, DomainLevel::MultiCore);
        validate_domain(&chain[0]);
    }

    #[test]
    fn intervals_grow_outwards() {
        let topo = Topology::power6_js22();
        let h = DomainHierarchy::build(&topo);
        let chain = h.chain(CpuId(0));
        for w in chain.windows(2) {
            assert!(w[0].balance_interval_ns <= w[1].balance_interval_ns);
        }
    }

    #[test]
    fn single_core_no_smt_machine() {
        let topo = Topology::new("uni", 1, 1, 1, vec![]);
        let h = DomainHierarchy::build(&topo);
        assert_eq!(h.depth(CpuId(0)), 0);
    }
}
