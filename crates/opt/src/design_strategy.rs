//! `DesignStrategy` — the top-level exploration of Fig. 5.
//!
//! The strategy walks candidate architectures from one node upwards,
//! fastest architectures first. For every architecture it
//!
//! 1. sets minimum hardening and prunes by cost against the best-so-far
//!    (`Cbest`, Fig. 5 line 6);
//! 2. runs `MappingAlgorithm` minimizing **schedule length**; if the result
//!    misses the deadline, the node count is increased (line 15);
//! 3. otherwise runs `MappingAlgorithm` minimizing **architecture cost**
//!    and updates `Cbest` (lines 9–13).
//!
//! The paper's MIN and MAX baselines are the same exploration with the
//! hardening policy pinned (Section 7).

use std::sync::Arc;

use ftes_model::{Architecture, Cost, ModelError, NodeTypeId, System};
use serde::{Deserialize, Serialize};

use crate::arch_iter::architectures_with_n_nodes;
use crate::config::{Objective, OptConfig};
use crate::evaluation::Solution;
use crate::incremental::{Candidate, EvalStats};
use crate::search::Search;

/// Statistics of one design-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExplorationStats {
    /// Architectures whose mapping optimization was run.
    pub architectures_evaluated: u32,
    /// Architectures skipped by the `Cbest` cost pruning.
    pub architectures_pruned: u32,
    /// Always 1: the walk runs sequentially on the calling thread. Kept
    /// so readers of the counter set keep compiling.
    pub worker_threads: u32,
    /// Candidate-evaluation counters of the incremental engine. Like the
    /// architecture counters they are a deterministic function of the
    /// system and the configuration.
    pub eval: EvalStats,
}

impl ExplorationStats {
    /// Every live counter as a `(name, value)` pair: the architecture
    /// counters, then [`EvalStats::counters`] (`worker_threads`, always
    /// 1, is left out).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("architectures_evaluated", self.architectures_evaluated),
            ("architectures_pruned", self.architectures_pruned),
        ]
        .map(|(name, value)| (name, u64::from(value)))
        .into_iter()
        .chain(self.eval.counters())
    }
}

/// Outcome of [`design_strategy`]: the cheapest schedulable, reliable
/// solution plus exploration statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignOutcome {
    /// The best solution (`AR_best` in Fig. 5).
    pub solution: Solution,
    /// Exploration statistics.
    pub stats: ExplorationStats,
}

/// Result of the Fig. 5 inner loop (lines 7–13) for one architecture.
pub(crate) enum ArchOutcome {
    /// Mapping optimization ran; `None` = reliability goal unreachable on
    /// this architecture (Fig. 5 discards it silently).
    Evaluated(Option<Arc<Candidate>>),
    /// Not schedulable even at the best schedule-length mapping: Fig. 5
    /// line 15 — the walk of this node count stops and `n` grows.
    Unschedulable,
}

/// Runs the full design strategy on a system: selects node types,
/// hardening levels, mapping and re-execution budgets minimizing the
/// architecture cost subject to deadlines and the reliability goal.
///
/// Architectures are walked sequentially, in enumeration order, on the
/// calling thread, and candidates are evaluated through the incremental
/// engine unless `config.eval_mode` opts into the from-scratch
/// specification path.
///
/// Returns `Ok(None)` when no explored architecture yields a schedulable
/// solution that meets the reliability goal.
///
/// # Errors
///
/// Propagates model errors (inconsistent system specifications).
///
/// # Examples
///
/// On the paper's Fig. 1 example the strategy finds a two-node solution at
/// least as cheap as the paper's Fig. 4a optimum (72 units; with the
/// reconstructed timing and cost tables the search finds an even cheaper
/// mixed-hardening alternative that passes the same analysis):
///
/// ```
/// use ftes_model::{paper, Cost};
/// use ftes_opt::{design_strategy, OptConfig};
///
/// let sys = paper::fig1_system();
/// let best = design_strategy(&sys, &OptConfig::default())?
///     .expect("a feasible architecture exists");
/// assert!(best.solution.cost <= Cost::new(72));
/// # Ok::<(), ftes_model::ModelError>(())
/// ```
pub fn design_strategy(
    system: &System,
    config: &OptConfig,
) -> Result<Option<DesignOutcome>, ModelError> {
    let platform = system.platform();
    // Up to one node per platform node type, the paper's `|N|`.
    let max_nodes = platform.node_type_count().max(1);

    let mut best: Option<Arc<Candidate>> = None;
    let mut stats = ExplorationStats {
        worker_threads: 1,
        ..ExplorationStats::default()
    };
    let mut search = Search::new(system, config);

    let mut n = 1usize;
    loop {
        let archs = architectures_with_n_nodes(platform, n);
        if archs.is_empty() {
            break; // more slots than node types: nothing left to enumerate
        }
        let min_costs: Vec<Cost> = archs
            .iter()
            .map(|types| Architecture::with_min_hardening(types).cost(platform))
            .collect::<Result<_, _>>()?;

        let mut advance_n = false;
        let mut evaluated_this_n = 0u32;
        for (i, types) in archs.iter().enumerate() {
            let cbest = best.as_ref().map_or(Cost::MAX, |s| s.cost);
            // Fig. 5 line 6: prune if even the min-hardening cost cannot
            // beat the best-so-far.
            if min_costs[i] >= cbest {
                stats.architectures_pruned += 1;
                continue;
            }
            stats.architectures_evaluated += 1;
            evaluated_this_n += 1;
            match explore_one(&mut search, types)? {
                ArchOutcome::Unschedulable => {
                    // Line 15: not schedulable even at the best mapping —
                    // more computation nodes are needed. The remaining
                    // (slower) same-n architectures are not walked.
                    advance_n = true;
                    break;
                }
                ArchOutcome::Evaluated(Some(candidate)) => {
                    if candidate.is_schedulable()
                        && best.as_ref().map_or(true, |b| candidate.cost < b.cost)
                    {
                        best = Some(candidate);
                    }
                }
                ArchOutcome::Evaluated(None) => {}
            }
        }

        n += 1;
        if n > max_nodes {
            break;
        }
        // Fig. 5 line 15, made explicit: grow `n` when some architecture
        // demanded more nodes (`advance_n`) or when this node count still
        // had affordable architectures to walk. If every architecture was
        // cost-pruned and none asked for more nodes, every larger
        // architecture is a superset of a pruned one and costs at least as
        // much — the exploration is exhausted.
        if !advance_n && evaluated_this_n == 0 {
            break;
        }
    }

    stats.eval = search.stats();
    // Materialize the winning candidate's full schedule once, at the very
    // end — probe evaluations only ever carried the schedulability verdict.
    let best = match best {
        Some(candidate) => Some(candidate.materialize(system)?),
        None => None,
    };
    Ok(best.map(|solution| DesignOutcome { solution, stats }))
}

/// Runs the Fig. 5 inner loop (lines 7–13) for one architecture — for
/// the design strategy's walk and for
/// [`optimize_fixed_architecture`](crate::optimize_fixed_architecture).
/// The schedule-length tabu pass starts from the greedy initial mapping.
///
/// A returned candidate is always schedulable: the cost pass starts from
/// the schedulable schedule-length winner and only replaces its best on
/// a strictly lower score, so a schedulable cost-pass outcome never
/// costs more than its start.
pub(crate) fn explore_one(
    search: &mut Search<'_>,
    types: &[NodeTypeId],
) -> Result<ArchOutcome, ModelError> {
    let base = Architecture::with_min_hardening(types);
    // Line 7: shortest schedule for the best mapping.
    let Some(sl_out) = search.mapping_algorithm(&base, Objective::ScheduleLength, None, None)?
    else {
        return Ok(ArchOutcome::Evaluated(None)); // reliability goal unreachable
    };
    if !sl_out.schedulable {
        return Ok(ArchOutcome::Unschedulable);
    }
    // Line 9: optimize cost starting from the schedulable mapping. The
    // shared memo makes this pass's re-probes of the first pass's
    // neighbourhood single-hash lookups.
    let seed = sl_out.solution.mapping.clone();
    let cost_out = search.mapping_algorithm(&base, Objective::Cost, Some(seed), None)?;
    let candidate = match cost_out {
        Some(out) if out.schedulable => out.solution,
        _ => sl_out.solution,
    };
    Ok(ArchOutcome::Evaluated(Some(candidate)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::{paper, HLevel, NodeId, TimeUs};

    #[test]
    fn fig1_example_beats_or_matches_the_fig4a_solution() {
        // The paper's Fig. 4 walkthrough compares five alternatives and
        // declares the 72-unit N1²+N2² split the cheapest. Under the
        // reconstructed tables the full search additionally finds a valid
        // mixed-hardening solution at cost 52 (N1² + N2¹ with k = (1, 3)),
        // which satisfies the same SFP analysis and deadline — so we assert
        // "at least as good as the paper's optimum".
        let sys = paper::fig1_system();
        let out = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        let sol = &out.solution;
        assert!(sol.is_schedulable());
        assert!(
            sol.cost <= Cost::new(72),
            "cost {} worse than paper",
            sol.cost
        );
        assert_eq!(sol.architecture.node_count(), 2);
        assert!(sol.schedule_length() <= TimeUs::from_ms(360));
        assert!(out.stats.architectures_evaluated >= 1);
        // The found solution must itself pass the SFP analysis.
        let sfp = ftes_sfp::analyze(
            sys.application(),
            sys.timing(),
            &sol.architecture,
            &sol.mapping,
            &sol.ks,
            sys.goal(),
            ftes_sfp::Rounding::Pessimistic,
        )
        .unwrap();
        assert!(sfp.meets_goal);
    }

    #[test]
    fn fig1_restricted_to_uniform_h2_reproduces_fig4a_exactly() {
        // When evaluated at the paper's own configuration (Fig. 4a), the
        // pipeline reproduces the published numbers exactly.
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        let sol = crate::evaluation::evaluate_fixed(&sys, &arch, &mapping, &OptConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(sol.cost, Cost::new(72));
        assert_eq!(sol.ks, vec![1, 1]);
        assert!(sol.is_schedulable());
    }

    #[test]
    fn fig3_example_picks_h2_with_two_reexecutions() {
        // The Fig. 3 discussion: N1^2 with k = 2 (cost 20) beats N1^3 with
        // k = 1 (cost 40); N1^1 misses the deadline.
        let sys = paper::fig3_system();
        let out = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        let sol = &out.solution;
        assert_eq!(sol.cost, Cost::new(20));
        assert_eq!(
            sol.architecture.hardening(NodeId::new(0)),
            HLevel::new(2).unwrap()
        );
        assert_eq!(sol.ks, vec![2]);
        assert_eq!(sol.schedule_length(), TimeUs::from_ms(340));
    }

    #[test]
    fn min_policy_on_fig3_finds_nothing() {
        // With minimum hardening only, Fig. 3a needs k = 6 → SL = 680 > 360:
        // the MIN strategy must fail on this system.
        use crate::config::HardeningPolicy;
        let sys = paper::fig3_system();
        let config = OptConfig {
            policy: HardeningPolicy::FixedMin,
            ..OptConfig::default()
        };
        assert_eq!(design_strategy(&sys, &config).unwrap(), None);
    }

    #[test]
    fn max_policy_on_fig3_costs_double() {
        use crate::config::HardeningPolicy;
        let sys = paper::fig3_system();
        let config = OptConfig {
            policy: HardeningPolicy::FixedMax,
            ..OptConfig::default()
        };
        let out = design_strategy(&sys, &config).unwrap().expect("feasible");
        // Fig. 3c: most hardened version, cost 40 (twice the OPT's 20).
        assert_eq!(out.solution.cost, Cost::new(40));
        assert_eq!(out.solution.ks, vec![1]);
    }

    #[test]
    fn pruning_skips_expensive_architectures() {
        let sys = paper::fig1_system();
        let out = design_strategy(&sys, &OptConfig::default())
            .unwrap()
            .expect("feasible");
        // With Cbest = 72 found on two nodes, the pure-N2 pair (min cost
        // 2×20 = 40) is still evaluated but nothing above 72 is.
        assert!(out.stats.architectures_evaluated + out.stats.architectures_pruned >= 3);
    }

    #[test]
    fn scratch_mode_matches_incremental_exactly() {
        use crate::config::EvalMode;
        for system in [paper::fig1_system(), paper::fig3_system()] {
            let incr = design_strategy(&system, &OptConfig::default()).unwrap();
            let config = OptConfig {
                eval_mode: EvalMode::Scratch,
                ..OptConfig::default()
            };
            let scratch = design_strategy(&system, &config).unwrap();
            match (&incr, &scratch) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.solution, b.solution);
                    assert_eq!(
                        a.stats.architectures_evaluated,
                        b.stats.architectures_evaluated
                    );
                    assert_eq!(a.stats.architectures_pruned, b.stats.architectures_pruned);
                }
                (None, None) => {}
                other => panic!("divergent feasibility: {other:?}"),
            }
        }
    }
}
