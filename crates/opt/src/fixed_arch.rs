//! Optimization for a fixed node selection.
//!
//! The cruise-controller experiment of Section 7 runs on a *given*
//! three-module architecture (ETM, ABS, TCM): the node set is fixed and the
//! exploration only decides hardening levels, mapping and re-execution
//! budgets. This entry point skips the architecture enumeration of Fig. 5
//! and runs its inner loop (lines 7–13) once, on the given node types.

use ftes_model::{ModelError, NodeTypeId, System};

use crate::config::OptConfig;
use crate::design_strategy::{explore_one, ArchOutcome};
use crate::evaluation::Solution;
use crate::search::Search;

/// Optimizes hardening, mapping and re-executions for a fixed set of node
/// types. Returns the cheapest schedulable solution, or `None` if the
/// system cannot be made schedulable and reliable on this architecture
/// under the configured hardening policy.
///
/// # Errors
///
/// Propagates model errors.
///
/// # Examples
///
/// ```
/// use ftes_model::{paper, NodeTypeId};
/// use ftes_opt::{optimize_fixed_architecture, OptConfig};
///
/// let sys = paper::fig1_system();
/// let sol = optimize_fixed_architecture(
///     &sys,
///     &[NodeTypeId::new(0), NodeTypeId::new(1)],
///     &OptConfig::default(),
/// )?
/// .expect("feasible");
/// assert!(sol.cost <= ftes_model::Cost::new(72));
/// # Ok::<(), ftes_model::ModelError>(())
/// ```
pub fn optimize_fixed_architecture(
    system: &System,
    types: &[NodeTypeId],
    config: &OptConfig,
) -> Result<Option<Solution>, ModelError> {
    match explore_one(&mut Search::new(system, config), types)? {
        // Materialize the winner's schedule through the specification path.
        ArchOutcome::Evaluated(Some(candidate)) => Ok(Some(candidate.materialize(system)?)),
        ArchOutcome::Evaluated(None) | ArchOutcome::Unschedulable => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::{paper, Cost};

    #[test]
    fn fixed_two_node_architecture_matches_design_strategy() {
        let sys = paper::fig1_system();
        let sol = optimize_fixed_architecture(
            &sys,
            &[NodeTypeId::new(0), NodeTypeId::new(1)],
            &OptConfig::default(),
        )
        .unwrap()
        .expect("feasible");
        assert!(sol.cost <= Cost::new(72));
        assert!(sol.is_schedulable());
    }

    #[test]
    fn infeasible_fixed_architecture_returns_none() {
        use crate::config::HardeningPolicy;
        // Fig. 3 on minimum hardening misses its deadline: fixing the
        // architecture cannot help.
        let sys = paper::fig3_system();
        let config = OptConfig {
            policy: HardeningPolicy::FixedMin,
            ..OptConfig::default()
        };
        assert_eq!(
            optimize_fixed_architecture(&sys, &[NodeTypeId::new(0)], &config).unwrap(),
            None
        );
    }

    #[test]
    fn single_fixed_node_is_fig4e() {
        let sys = paper::fig1_system();
        let sol = optimize_fixed_architecture(&sys, &[NodeTypeId::new(1)], &OptConfig::default())
            .unwrap()
            .expect("feasible");
        assert_eq!(sol.cost, Cost::new(80));
    }
}
