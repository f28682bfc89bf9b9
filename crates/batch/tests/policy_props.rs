//! Property tests for the weighted DFRS share split: conservation,
//! weight monotonicity and the uniform-weights ⇒ even-split identity
//! must hold for *any* cluster view, weight table, seed and epoch.

use hpl_batch::{ClusterView, Dfrs, RunningJob};
use hpl_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random small cluster view: up to 5 nodes, up to 6 running jobs
/// each placed on a random non-empty node subset, plus a weight table
/// covering a random subset of the jobs.
#[derive(Debug, Clone)]
struct ViewGen {
    nodes: usize,
    jobs: Vec<(u32, Vec<usize>, Option<u32>)>,
}

fn view_strategy() -> impl Strategy<Value = ViewGen> {
    (
        1usize..5,
        proptest::collection::vec((0u32..50, 1u64..31, proptest::option::of(1u32..9)), 1..6),
    )
        .prop_map(|(nodes, raw)| {
            let mut seen = BTreeMap::new();
            for (id, mask, weight) in raw {
                // Place on the node subset selected by the mask bits.
                let placement: Vec<usize> = (0..nodes).filter(|n| mask & (1 << n) != 0).collect();
                if placement.is_empty() {
                    continue;
                }
                seen.entry(id).or_insert((placement, weight));
            }
            ViewGen {
                nodes,
                jobs: seen.into_iter().map(|(id, (p, w))| (id, p, w)).collect(),
            }
        })
}

fn build(g: &ViewGen) -> (ClusterView, BTreeMap<u32, u32>) {
    let mut occupancy = vec![0u32; g.nodes];
    let mut running = Vec::new();
    let mut weights = BTreeMap::new();
    for (id, placement, weight) in &g.jobs {
        for &n in placement {
            occupancy[n] += 1;
        }
        running.push(RunningJob {
            id: *id,
            placement: placement.clone(),
            est_end: SimTime::from_nanos(1),
        });
        if let Some(w) = weight {
            weights.insert(*id, *w);
        }
    }
    let view = ClusterView {
        now: SimTime::from_nanos(0),
        occupancy,
        running,
        down: vec![false; g.nodes],
    };
    (view, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every occupied node's shares sum to exactly 1000 milli, idle
    /// nodes promise nothing, and every resident job gets a non-zero
    /// share — for any weights, seed and epoch.
    #[test]
    fn weighted_shares_conserve_node_capacity(
        g in view_strategy(),
        seed in 0u64..1_000,
        epoch in 0u64..1_000,
    ) {
        let (view, weights) = build(&g);
        let shares = Dfrs::shares_for_weighted(seed, epoch, &view, &weights);
        let mut per_node: BTreeMap<usize, u32> = BTreeMap::new();
        for &(n, job, s) in &shares {
            prop_assert!(s > 0, "job {} on node {} got a zero share", job, n);
            *per_node.entry(n).or_insert(0) += s;
        }
        for n in 0..view.occupancy.len() {
            if view.occupancy[n] > 0 {
                prop_assert_eq!(per_node.get(&n), Some(&1000), "node {}", n);
            } else {
                prop_assert_eq!(per_node.get(&n), None, "idle node {}", n);
            }
        }
    }

    /// On any single node, a higher-weight job never receives a
    /// smaller share than a lower-weight one (beyond the one remainder
    /// milli the rotation may hand the lighter job).
    #[test]
    fn weighted_shares_monotone_in_weight(
        g in view_strategy(),
        seed in 0u64..1_000,
        epoch in 0u64..1_000,
    ) {
        let (view, weights) = build(&g);
        let shares = Dfrs::shares_for_weighted(seed, epoch, &view, &weights);
        let w = |job: u32| weights.get(&job).copied().unwrap_or(1);
        for &(n1, j1, s1) in &shares {
            for &(n2, j2, s2) in &shares {
                if n1 == n2 && w(j1) >= w(j2) {
                    prop_assert!(
                        s1 + 1 >= s2,
                        "node {}: weight {} got {} but weight {} got {}",
                        n1, w(j1), s1, w(j2), s2
                    );
                }
            }
        }
    }

    /// A uniform weight table — whatever the common value — is
    /// bit-identical to the unweighted even split, remainder rotation
    /// included.
    #[test]
    fn uniform_weights_reproduce_the_even_split(
        g in view_strategy(),
        common in 1u32..9,
        seed in 0u64..1_000,
        epoch in 0u64..1_000,
    ) {
        let (view, _) = build(&g);
        let uniform: BTreeMap<u32, u32> =
            g.jobs.iter().map(|&(id, _, _)| (id, common)).collect();
        prop_assert_eq!(
            Dfrs::shares_for_weighted(seed, epoch, &view, &uniform),
            Dfrs::shares_for_weighted(seed, epoch, &view, &BTreeMap::new())
        );
    }
}
