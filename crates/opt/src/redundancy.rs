//! `RedundancyOpt` — the hardening/re-execution trade-off (Section 6.3).
//!
//! For a given mapping, the heuristic decides the hardening level of every
//! node and (via `ReExecutionOpt`) the re-execution budgets:
//!
//! 1. **Increase phase** — starting from minimum hardening, greedily raise
//!    the hardening of the node that most improves the worst-case schedule
//!    length until the application becomes schedulable (raising hardening
//!    lowers failure probabilities, hence fewer re-executions, hence less
//!    recovery slack — even though each process gets slower).
//! 2. **Reduction phase** — from a schedulable solution, repeatedly try to
//!    lower each node's hardening by one level; among the still-schedulable
//!    alternatives keep the cheapest; stop when no reduction survives.
//!
//! Candidates whose reliability goal is unreachable (no re-execution budget
//! suffices) are discarded, exactly like unschedulable ones.

use std::sync::Arc;

use ftes_model::{Architecture, Mapping, ModelError, NodeId, System};

use crate::config::{HardeningPolicy, OptConfig};
use crate::incremental::{Candidate, Evaluator};
use crate::search::Search;

/// Result of the redundancy optimization for one mapping.
///
/// The winning candidate is behind an `Arc`: the tabu search copies
/// outcomes around freely (slot tracking, aspiration, best-so-far), and
/// sharing keeps those copies pointer-sized. The candidate carries
/// everything the search scores by (cost, budgets, worst-case length,
/// schedulability); materialize the full [`Solution`](crate::Solution)
/// via [`Candidate::materialize`] when the static schedule itself is
/// needed.
#[derive(Debug, Clone, PartialEq)]
pub struct RedundancyOutcome {
    /// The best candidate found (schedulable if any was).
    pub solution: Arc<Candidate>,
    /// Whether `solution` meets all deadlines.
    pub schedulable: bool,
}

/// [`Search::redundancy_opt`] on a fresh search. Kept only because the
/// benchmark package (`perfbench/`) links this name.
#[doc(hidden)]
pub fn redundancy_opt(
    system: &System,
    base: &Architecture,
    mapping: &Mapping,
    config: &OptConfig,
) -> Result<Option<RedundancyOutcome>, ModelError> {
    Search::new(system, config).redundancy_opt(base, mapping)
}

/// The unmemoized redundancy walk: [`Search::redundancy_opt`]'s miss
/// path. Hardening levels of `base` are ignored.
pub(crate) fn redundancy_walk(
    evaluator: &mut Evaluator<'_>,
    base: &Architecture,
    mapping: &Mapping,
) -> Result<Option<RedundancyOutcome>, ModelError> {
    let system = evaluator.system();
    let platform = system.platform();
    match evaluator.config().policy {
        HardeningPolicy::FixedMin => {
            let mut arch = evaluator.take_arch(base);
            arch.set_min_hardening();
            let sol = evaluator.evaluate(&arch, mapping)?;
            evaluator.put_arch(arch);
            Ok(sol.map(|solution| RedundancyOutcome {
                schedulable: solution.is_schedulable(),
                solution,
            }))
        }
        HardeningPolicy::FixedMax => {
            let types: Vec<_> = base.nodes().iter().map(|n| n.node_type).collect();
            let arch = Architecture::with_max_hardening(&types, platform);
            let sol = evaluator.evaluate(&arch, mapping)?;
            Ok(sol.map(|solution| RedundancyOutcome {
                schedulable: solution.is_schedulable(),
                solution,
            }))
        }
        HardeningPolicy::Optimize => optimize_levels(evaluator, base, mapping),
    }
}

fn optimize_levels(
    evaluator: &mut Evaluator<'_>,
    base: &Architecture,
    mapping: &Mapping,
) -> Result<Option<RedundancyOutcome>, ModelError> {
    let platform = evaluator.system().platform();
    // The walk's working architecture comes from the evaluator's scratch
    // pool; every rewrite below mutates it in place, so a whole
    // redundancy walk allocates no architecture storage in steady state.
    let mut arch = evaluator.take_arch(base);
    arch.set_min_hardening();

    // Track the best candidate in two tiers: the cheapest schedulable one,
    // and (as a fallback) the one with the shortest schedule.
    let mut best_schedulable: Option<Arc<Candidate>> = None;
    let mut best_any: Option<Arc<Candidate>> = None;

    let consider = |sol: Arc<Candidate>,
                    best_schedulable: &mut Option<Arc<Candidate>>,
                    best_any: &mut Option<Arc<Candidate>>| {
        if sol.is_schedulable()
            && best_schedulable
                .as_ref()
                .map_or(true, |b| sol.cost < b.cost)
        {
            *best_schedulable = Some(Arc::clone(&sol));
        }
        if best_any
            .as_ref()
            .map_or(true, |b| sol.schedule_length() < b.schedule_length())
        {
            *best_any = Some(sol);
        }
    };

    // --- Increase phase -------------------------------------------------
    let mut current = evaluator.evaluate(&arch, mapping)?;
    if let Some(sol) = current.clone() {
        consider(sol, &mut best_schedulable, &mut best_any);
    }
    loop {
        let schedulable_now = current.as_deref().is_some_and(Candidate::is_schedulable);
        if schedulable_now {
            break;
        }
        // Try raising each node by one level (mutate + undo rather than
        // cloning the architecture per trial); keep the variant with the
        // shortest schedule (or the first reachable one if none was).
        let mut best_step: Option<(NodeId, Arc<Candidate>)> = None;
        for slot in 0..arch.node_count() {
            let node = NodeId::new(slot as u32);
            let inst = arch.node(node);
            let nt = platform.node_type(inst.node_type);
            let up = inst.hardening.up();
            if !nt.has_level(up) {
                continue;
            }
            arch.set_hardening(node, up);
            let trial = evaluator.evaluate(&arch, mapping)?;
            arch.set_hardening(node, inst.hardening);
            if let Some(sol) = trial {
                if best_step
                    .as_ref()
                    .map_or(true, |(_, b)| sol.schedule_length() < b.schedule_length())
                {
                    best_step = Some((node, sol));
                }
            }
        }
        let Some((node, sol)) = best_step else {
            break; // no level can be raised (or none reaches the goal)
        };
        arch.set_hardening(node, arch.hardening(node).up());
        consider(Arc::clone(&sol), &mut best_schedulable, &mut best_any);
        current = Some(sol);
    }

    // --- Reduction phase --------------------------------------------------
    if best_schedulable.is_some() {
        arch.clone_from(
            &best_schedulable
                .as_ref()
                .expect("just checked")
                .architecture,
        );
        loop {
            let mut best_step: Option<Arc<Candidate>> = None;
            for slot in 0..arch.node_count() {
                let node = NodeId::new(slot as u32);
                let before = arch.hardening(node);
                let Some(down) = before.down() else {
                    continue;
                };
                arch.set_hardening(node, down);
                let trial = evaluator.evaluate(&arch, mapping)?;
                arch.set_hardening(node, before);
                if let Some(sol) = trial {
                    if sol.is_schedulable()
                        && best_step.as_ref().map_or(true, |b| sol.cost < b.cost)
                    {
                        best_step = Some(sol);
                    }
                }
            }
            let Some(sol) = best_step else { break };
            arch.clone_from(&sol.architecture);
            consider(sol, &mut best_schedulable, &mut best_any);
        }
    }
    evaluator.put_arch(arch);

    let outcome = match (best_schedulable, best_any) {
        (Some(solution), _) => Some(RedundancyOutcome {
            schedulable: true,
            solution,
        }),
        (None, Some(solution)) => Some(RedundancyOutcome {
            schedulable: false,
            solution,
        }),
        (None, None) => None,
    };
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoCap;
    use ftes_model::{paper, Cost, HLevel, TimeUs};

    #[test]
    fn fig4a_mapping_settles_on_h2_h2() {
        // Section 6.1: for the Fig. 4a mapping the heuristic stops at
        // N1^2/N2^2 (cost 72) — less hardening is unschedulable, more is
        // more expensive.
        let sys = paper::fig1_system();
        let (base, mapping) = paper::fig4_alternative('a');
        let out = Search::new(&sys, &OptConfig::default())
            .redundancy_opt(&base, &mapping)
            .unwrap()
            .expect("goal reachable");
        assert!(out.schedulable);
        assert_eq!(out.solution.cost, Cost::new(72));
        let arch = &out.solution.architecture;
        assert_eq!(arch.hardening(NodeId::new(0)), HLevel::new(2).unwrap());
        assert_eq!(arch.hardening(NodeId::new(1)), HLevel::new(2).unwrap());
        assert_eq!(out.solution.ks, vec![1, 1]);
    }

    #[test]
    fn fig4e_mapping_needs_h3() {
        // Section 6.1: re-mapping everything onto N2 forces the third
        // hardening level (Fig. 4e).
        let sys = paper::fig1_system();
        let (base, mapping) = paper::fig4_alternative('e');
        let out = Search::new(&sys, &OptConfig::default())
            .redundancy_opt(&base, &mapping)
            .unwrap()
            .expect("goal reachable");
        assert!(out.schedulable);
        assert_eq!(
            out.solution.architecture.hardening(NodeId::new(0)),
            HLevel::new(3).unwrap()
        );
        assert_eq!(out.solution.cost, Cost::new(80));
        assert_eq!(out.solution.ks, vec![0]);
    }

    #[test]
    fn fig4d_mapping_is_discarded_as_unschedulable() {
        // Section 6.1: the all-on-N1 mapping is not schedulable with any
        // hardening level and must be reported as such.
        let sys = paper::fig1_system();
        let (base, mapping) = paper::fig4_alternative('d');
        let out = Search::new(&sys, &OptConfig::default())
            .redundancy_opt(&base, &mapping)
            .unwrap()
            .expect("reliability reachable even though unschedulable");
        assert!(!out.schedulable);
    }

    #[test]
    fn fixed_min_policy_keeps_min_levels() {
        let sys = paper::fig1_system();
        let (base, mapping) = paper::fig4_alternative('a');
        let config = OptConfig {
            policy: HardeningPolicy::FixedMin,
            ..OptConfig::default()
        };
        let out = Search::new(&sys, &config)
            .redundancy_opt(&base, &mapping)
            .unwrap()
            .expect("reachable in software alone");
        let arch = &out.solution.architecture;
        assert!(arch.node_ids().all(|n| arch.hardening(n) == HLevel::MIN));
        // Min hardening has p ~ 1e-3: many re-executions needed.
        assert!(
            out.solution.ks.iter().any(|&k| k >= 2),
            "{:?}",
            out.solution.ks
        );
    }

    #[test]
    fn fixed_max_policy_keeps_max_levels() {
        let sys = paper::fig1_system();
        let (base, mapping) = paper::fig4_alternative('a');
        let config = OptConfig {
            policy: HardeningPolicy::FixedMax,
            ..OptConfig::default()
        };
        let out = Search::new(&sys, &config)
            .redundancy_opt(&base, &mapping)
            .unwrap()
            .expect("reachable");
        let arch = &out.solution.architecture;
        assert!(arch.node_ids().all(|n| arch.hardening(n).get() == 3));
        assert_eq!(out.solution.ks, vec![0, 0]);
        assert_eq!(out.solution.cost, Cost::new(64 + 80));
    }

    #[test]
    fn memoized_revisit_returns_the_identical_outcome() {
        let sys = paper::fig1_system();
        let config = OptConfig::default();
        let mut search = Search::new(&sys, &config);
        let (base, mapping) = paper::fig4_alternative('a');

        let first = search
            .redundancy_opt(&base, &mapping)
            .unwrap()
            .expect("reachable");
        assert_eq!(search.stats().mapping_memo_hits, 0);
        assert_eq!(search.stats().mapping_memo_misses, 1);
        let second = search
            .redundancy_opt(&base, &mapping)
            .unwrap()
            .expect("reachable");
        assert_eq!(search.stats().mapping_memo_hits, 1);
        assert_eq!(first, second);
        // The memoized outcome equals the unmemoized reference walk.
        let unmemoized = OptConfig {
            mapping_memo: MemoCap(0),
            ..OptConfig::default()
        };
        let reference = Search::new(&sys, &unmemoized)
            .redundancy_opt(&base, &mapping)
            .unwrap()
            .unwrap();
        assert_eq!(first.solution, reference.solution);
        assert_eq!(first.schedulable, reference.schedulable);
    }

    #[test]
    fn memo_key_ignores_base_hardening_levels() {
        // redundancy_opt controls hardening itself, so two bases that
        // differ only in levels are the same memo entry.
        let sys = paper::fig1_system();
        let config = OptConfig::default();
        let mut search = Search::new(&sys, &config);
        let (mut base, mapping) = paper::fig4_alternative('a');
        search.redundancy_opt(&base, &mapping).unwrap();
        base.set_hardening(NodeId::new(0), HLevel::new(3).unwrap());
        search.redundancy_opt(&base, &mapping).unwrap();
        assert_eq!(
            search.stats().mapping_memo_hits,
            1,
            "level-only change must hit the memo"
        );
    }

    #[test]
    fn memo_cap_zero_disables_memoization() {
        let sys = paper::fig1_system();
        let config = OptConfig {
            mapping_memo: MemoCap(0),
            ..OptConfig::default()
        };
        let mut search = Search::new(&sys, &config);
        let (base, mapping) = paper::fig4_alternative('a');
        search.redundancy_opt(&base, &mapping).unwrap();
        search.redundancy_opt(&base, &mapping).unwrap();
        assert_eq!(search.stats().mapping_memo_hits, 0);
        assert_eq!(
            search.stats().mapping_memo_misses,
            0,
            "disabled memo counts nothing"
        );
    }

    #[test]
    fn schedulable_outcome_meets_deadline() {
        let sys = paper::fig1_system();
        let (base, mapping) = paper::fig4_alternative('a');
        let out = Search::new(&sys, &OptConfig::default())
            .redundancy_opt(&base, &mapping)
            .unwrap()
            .unwrap();
        assert!(out.solution.schedule_length() <= TimeUs::from_ms(360));
    }
}
