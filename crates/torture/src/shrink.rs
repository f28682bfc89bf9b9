//! Greedy failure shrinking.
//!
//! Given a scenario that fails [`check_scenario`], repeatedly try
//! simplifying transformations (fewer nodes, fewer/shorter tasks and
//! ops, less noise, smaller topology, fewer kernel features) and adopt
//! the first candidate that *still fails*, restarting the candidate
//! list from the simplified scenario. The result is a locally-minimal
//! reproducer: no single shrinking step keeps it failing.

use crate::runner::check_scenario;
use crate::scenario::{Fault, Scenario, SoupStep, TopoKind, Workload};
use hpl_kernel::Policy;
use hpl_mpi::SchedMode;

/// Upper bound on scenario re-runs during a shrink (each candidate
/// costs two full simulations).
const MAX_RUNS: u32 = 200;

/// Result of a shrink.
#[derive(Debug)]
pub struct Shrunk {
    /// The minimised still-failing scenario.
    pub scenario: Scenario,
    /// Failure messages of the minimised scenario.
    pub failures: Vec<String>,
    /// Shrinking steps adopted (human-readable).
    pub steps: Vec<&'static str>,
    /// Scenario runs spent.
    pub runs: u32,
}

/// Does the scenario schedule anything under `Policy::Hpc`?
fn uses_hpc(sc: &Scenario) -> bool {
    match &sc.workload {
        Workload::Mpi(m) => matches!(m.mode, SchedMode::Hpc),
        Workload::Soup(s) => s.tasks.iter().any(|t| {
            matches!(t.policy, Policy::Hpc)
                || t.steps
                    .iter()
                    .any(|s| matches!(s, SoupStep::SetPolicy(Policy::Hpc)))
        }),
        // Batch jobs launch under Hpc exactly when the HPL class is on,
        // so dropping the class changes the workload's scheduling class
        // — never a vacuous simplification.
        Workload::Batch(_) => sc.hpl,
    }
}

/// All single-step simplifications of `sc`, most aggressive first.
/// Every candidate is strictly "smaller" by some measure, so shrinking
/// terminates. The HPL class stays on when the fault injector or an
/// HPC workload needs it (dropping it would vacuously "fix" the bug).
fn candidates(sc: &Scenario) -> Vec<(&'static str, Scenario)> {
    let mut out: Vec<(&'static str, Scenario)> = Vec::new();
    let mut push = |label: &'static str, c: Scenario| out.push((label, c));

    if sc.nodes > 1 {
        let mut c = sc.clone();
        c.nodes = if sc.nodes > 2 { 2 } else { 1 };
        push("reduce nodes", c);
    }
    match &sc.workload {
        Workload::Mpi(m) => {
            if m.ranks_per_node > 1 {
                let mut c = sc.clone();
                if let Workload::Mpi(m) = &mut c.workload {
                    m.ranks_per_node = (m.ranks_per_node / 2).max(1);
                }
                push("halve ranks per node", c);
            }
            if m.ops.len() > 1 {
                let mut c = sc.clone();
                if let Workload::Mpi(m) = &mut c.workload {
                    m.ops.truncate(m.ops.len() / 2);
                }
                push("truncate op list", c);
                let mut c = sc.clone();
                if let Workload::Mpi(m) = &mut c.workload {
                    m.ops.remove(0);
                }
                push("drop first op", c);
            }
            let mut c = sc.clone();
            let mut changed = false;
            if let Workload::Mpi(m) = &mut c.workload {
                for op in &mut m.ops {
                    if let crate::scenario::OpKind::Compute(ns) = op {
                        if *ns > 100_000 {
                            *ns /= 2;
                            changed = true;
                        }
                    }
                }
            }
            if changed {
                push("halve computes", c);
            }
        }
        Workload::Soup(s) => {
            for k in (0..s.tasks.len()).rev() {
                if s.tasks.len() > 1 {
                    let mut c = sc.clone();
                    if let Workload::Soup(s) = &mut c.workload {
                        drop_soup_task(s, k);
                    }
                    push("drop a soup task", c);
                }
            }
            let mut c = sc.clone();
            let mut changed = false;
            if let Workload::Soup(s) = &mut c.workload {
                for t in &mut s.tasks {
                    for step in &mut t.steps {
                        if let SoupStep::Compute(ns) | SoupStep::Sleep(ns) = step {
                            if *ns > 100_000 {
                                *ns /= 2;
                                changed = true;
                            }
                        }
                    }
                }
            }
            if changed {
                push("halve compute/sleep durations", c);
            }
            let mut c = sc.clone();
            let mut changed = false;
            if let Workload::Soup(s) = &mut c.workload {
                for t in &mut s.tasks {
                    let before = t.steps.len();
                    t.steps
                        .retain(|s| !matches!(s, SoupStep::Barrier | SoupStep::SetPolicy(_)));
                    changed |= t.steps.len() != before;
                }
            }
            if changed {
                push("strip barriers and setpolicy", c);
            }
        }
        Workload::Batch(b) => {
            for k in (0..b.jobs.len()).rev() {
                if b.jobs.len() > 1 {
                    let mut c = sc.clone();
                    if let Workload::Batch(b) = &mut c.workload {
                        b.jobs.remove(k);
                    }
                    push("drop a batch job", c);
                }
            }
            let mut c = sc.clone();
            let mut changed = false;
            if let Workload::Batch(b) = &mut c.workload {
                for j in &mut b.jobs {
                    if j.compute_ns > 100_000 {
                        j.compute_ns /= 2;
                        changed = true;
                    }
                }
            }
            if changed {
                push("halve batch computes", c);
            }
            if b.policy != crate::scenario::BatchPolicyKind::Fcfs {
                let mut c = sc.clone();
                if let Workload::Batch(b) = &mut c.workload {
                    b.policy = crate::scenario::BatchPolicyKind::Fcfs;
                }
                push("policy to fcfs", c);
            }
            if b.walltime {
                // Adopting this step means the bug is not in the kill
                // path — walltime enforcement was incidental.
                let mut c = sc.clone();
                if let Workload::Batch(b) = &mut c.workload {
                    b.walltime = false;
                }
                push("drop walltime", c);
            }
            if b.gang_epoch_us > 0 {
                // Adopting this step means the bug is not in gang
                // rotation — the epoch knob was incidental. The policy
                // line itself is never shrunk away here: a DFRS failure
                // must stay a DFRS failure unless the fcfs candidate
                // above still reproduces it.
                let mut c = sc.clone();
                if let Workload::Batch(b) = &mut c.workload {
                    b.gang_epoch_us = 0;
                }
                push("disable gang rotation", c);
            }
            if !b.job_weights.is_empty() {
                // Adopting this step means the bug is not in the
                // weighted share split — uniform shares reproduce it.
                let mut c = sc.clone();
                if let Workload::Batch(b) = &mut c.workload {
                    b.job_weights.clear();
                }
                push("drop job weights", c);
            }
            if b.coord != crate::scenario::CoordKind::Off {
                // Adopting this step means the bug is not in the
                // coordination runtime — advisory shares reproduce it.
                let mut c = sc.clone();
                if let Workload::Batch(b) = &mut c.workload {
                    b.coord = crate::scenario::CoordKind::Off;
                }
                push("coordinator off", c);
            }
        }
    }
    if sc.noise_pct > 0 {
        let mut c = sc.clone();
        c.noise_pct = 0;
        push("disable noise", c);
    }
    if sc.irq {
        let mut c = sc.clone();
        c.irq = false;
        push("disable irq storm", c);
    }
    if sc.tickless {
        let mut c = sc.clone();
        c.tickless = false;
        push("disable tickless", c);
    }
    if sc.switched {
        let mut c = sc.clone();
        c.switched = false;
        push("flat fabric", c);
    }
    if sc.parallel {
        // Adopting this step means the bug reproduces under the serial
        // driver too — i.e. it is a scheduler bug, not a pool bug.
        let mut c = sc.clone();
        c.parallel = false;
        push("disable parallel stepping", c);
    }
    if !sc.faults.is_none() {
        // Adopting this step means the bug reproduces on a healthy
        // cluster — the fault plan was incidental, not causal.
        let mut c = sc.clone();
        c.faults = hpl_cluster::FaultPlan::none();
        push("drop fault plan", c);
    }
    if sc.hpl && sc.fault == Fault::None && !uses_hpc(sc) {
        let mut c = sc.clone();
        c.hpl = false;
        push("disable hpl class", c);
    }
    if sc.topo == TopoKind::Power6 {
        let mut c = sc.clone();
        c.topo = TopoKind::Smp(4);
        push("shrink topology", c);
    } else if sc.topo == TopoKind::Smp(4) {
        let mut c = sc.clone();
        c.topo = TopoKind::Smp(2);
        push("shrink topology", c);
    }
    // Pins may now point past the shrunk topology, batch job shapes
    // past the shrunk cluster, and parallel stepping and fault events
    // past a single-node shrink; clamp them.
    for (_, c) in &mut out {
        c.parallel &= c.nodes > 1;
        if c.nodes == 1 {
            c.faults = hpl_cluster::FaultPlan::none();
        } else {
            c.faults.events.retain(|e| e.node < c.nodes as usize);
        }
        let n = c.ncpus();
        match &mut c.workload {
            Workload::Soup(s) => {
                for t in &mut s.tasks {
                    if let Some(pin) = &mut t.pin {
                        *pin %= n;
                    }
                }
            }
            Workload::Batch(b) => {
                for j in &mut b.jobs {
                    j.nodes = j.nodes.min(c.nodes);
                    j.ranks_per_node = j.ranks_per_node.min(n);
                }
            }
            Workload::Mpi(_) => {}
        }
    }
    out
}

/// Remove soup task `k`, dropping every step in other tasks that
/// references it (waits on its channels, notifies to it) and reindexing
/// references to tasks above `k`. Barrier parties recompute from
/// structure, so barrier steps stay consistent.
fn drop_soup_task(s: &mut crate::scenario::SoupSpec, k: usize) {
    s.tasks.remove(k);
    let k = k as u32;
    for t in &mut s.tasks {
        t.steps.retain(|step| match *step {
            SoupStep::Notify { to } => to != k,
            SoupStep::Wait { from } | SoupStep::SpinWait { from, .. } => from != k,
            _ => true,
        });
        for step in &mut t.steps {
            match step {
                SoupStep::Notify { to } if *to > k => *to -= 1,
                SoupStep::Wait { from } if *from > k => *from -= 1,
                SoupStep::SpinWait { from, .. } if *from > k => *from -= 1,
                _ => {}
            }
        }
    }
}

/// Greedily shrink a failing scenario. `sc` must currently fail
/// [`check_scenario`]; the returned scenario still fails it.
pub fn shrink(sc: &Scenario, mut on_step: impl FnMut(&'static str)) -> Shrunk {
    let mut current = sc.clone();
    let mut failures: Vec<String> = check_scenario(&current)
        .iter()
        .map(|f| f.to_string())
        .collect();
    let mut runs = 1;
    let mut steps = Vec::new();
    'outer: loop {
        for (label, cand) in candidates(&current) {
            if runs >= MAX_RUNS {
                break 'outer;
            }
            runs += 1;
            let cand_failures = check_scenario(&cand);
            if !cand_failures.is_empty() {
                current = cand;
                failures = cand_failures.iter().map(|f| f.to_string()).collect();
                steps.push(label);
                on_step(label);
                continue 'outer;
            }
        }
        break;
    }
    Shrunk {
        scenario: current,
        failures,
        steps,
        runs,
    }
}
