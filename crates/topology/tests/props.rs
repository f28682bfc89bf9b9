//! Property tests: mask algebra obeys set laws; domain hierarchies tile
//! correctly for arbitrary machine shapes.

use hpl_topology::{CpuId, CpuMask, DomainHierarchy, Topology};
use proptest::prelude::*;

fn mask_strategy() -> impl Strategy<Value = CpuMask> {
    any::<u64>().prop_map(CpuMask::from_bits)
}

proptest! {
    /// CpuMask algebra matches the underlying u64 bit model.
    #[test]
    fn mask_algebra_laws(a in mask_strategy(), b in mask_strategy(), c in mask_strategy()) {
        // De Morgan-ish via difference: a \ b = a ∩ ¬b.
        prop_assert_eq!(a.difference(b).bits(), a.bits() & !b.bits());
        // Union/intersection commute and associate.
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.intersection(b), b.intersection(a));
        prop_assert_eq!(a.union(b.union(c)), a.union(b).union(c));
        prop_assert_eq!(a.intersection(b.intersection(c)), a.intersection(b).intersection(c));
        // Distribution.
        prop_assert_eq!(
            a.intersection(b.union(c)),
            a.intersection(b).union(a.intersection(c))
        );
        // Subset relations.
        prop_assert!(a.intersection(b).difference(a).is_empty());
        prop_assert!(a.difference(a.union(b)).is_empty());
        // Count is cardinality.
        prop_assert_eq!(a.count(), a.bits().count_ones());
        // Iteration covers exactly the members.
        let rebuilt: CpuMask = a.iter().collect();
        prop_assert_eq!(rebuilt, a);
    }

    /// For any machine shape, every CPU's domain chain nests, tiles, and
    /// the smt/socket helpers agree with the domain structure.
    #[test]
    fn domains_tile_for_any_shape(
        sockets in 1u32..5,
        cores in 1u32..5,
        threads in 1u32..4
    ) {
        prop_assume!(sockets * cores * threads <= 64);
        let topo = Topology::new("prop", sockets, cores, threads, vec![]);
        let h = DomainHierarchy::build(&topo);
        for cpu in topo.all_cpus().iter() {
            let chain = h.chain(cpu);
            for d in chain {
                prop_assert!(d.span.contains(cpu));
                // Groups tile the span.
                let mut union = CpuMask::EMPTY;
                for g in &d.groups {
                    prop_assert!(!g.is_empty());
                    prop_assert!(union.intersection(*g).is_empty());
                    union = union.union(*g);
                }
                prop_assert_eq!(union, d.span);
            }
            // Chains nest from inner to outer.
            for w in chain.windows(2) {
                prop_assert!(w[0].span.difference(w[1].span).is_empty());
            }
            if let Some(outer) = chain.last() {
                // With >1 socket the outermost spans the machine; with one
                // socket it spans at least the socket.
                prop_assert!(topo.socket_cpus(cpu).difference(outer.span).is_empty()
                    || outer.span == topo.smt_siblings(cpu));
            }
            // Sibling helpers are consistent.
            prop_assert!(topo.smt_siblings(cpu).contains(cpu));
            prop_assert!(topo.socket_cpus(cpu).contains(cpu));
            prop_assert!(topo.smt_siblings(cpu).difference(topo.socket_cpus(cpu)).is_empty());
        }
    }

    /// cpu_id / socket_of / core_of round-trip; the thread index is the
    /// CPU's position among its SMT siblings.
    #[test]
    fn cpu_numbering_roundtrip(
        sockets in 1u32..5,
        cores in 1u32..5,
        threads in 1u32..4
    ) {
        prop_assume!(sockets * cores * threads <= 64);
        let topo = Topology::new("prop", sockets, cores, threads, vec![]);
        for s in 0..sockets {
            for c in 0..cores {
                for t in 0..threads {
                    let cpu = topo.cpu_id(s, c, t);
                    prop_assert_eq!(topo.socket_of(cpu), s);
                    prop_assert_eq!(topo.core_of(cpu), s * cores + c);
                    let thread = topo.smt_siblings(cpu).iter().position(|x| x == cpu);
                    prop_assert_eq!(thread, Some(t as usize));
                }
            }
        }
    }

    /// Shared-cache lookup is symmetric.
    #[test]
    fn shared_cache_symmetric(a in 0u32..8, b in 0u32..8) {
        let topo = Topology::xeon_2s4c2t();
        prop_assert_eq!(
            topo.shared_cache_level(CpuId(a), CpuId(b)),
            topo.shared_cache_level(CpuId(b), CpuId(a))
        );
    }
}
