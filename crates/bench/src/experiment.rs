//! The Section 7 acceptance-rate experiment (Fig. 6).
//!
//! For a set of synthetic applications and one condition (SER, HPD), each
//! strategy (MIN / MAX / OPT) is run per application; an application is
//! **accepted** if the strategy finds a solution that meets its reliability
//! goal, is schedulable, *and* costs no more than the maximum architecture
//! cost `ArC`. Fig. 6 plots the acceptance percentage.
//!
//! Because the strategies minimize cost irrespective of `ArC`, one
//! optimization run per (application, condition, strategy) serves every
//! `ArC` column: acceptance is evaluated afterwards against each bound.

use ftes_gen::{generate_instance, ExperimentConfig};
use ftes_model::Cost;
use ftes_opt::{
    design_strategy, CoreBudget, DesignOutcome, HardeningPolicy, OptConfig, TabuConfig,
};
use ftes_sfp::Rounding;
use serde::{Deserialize, Serialize};

/// The three compared strategies of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Minimum hardening, software fault tolerance only.
    Min,
    /// Maximum hardening everywhere.
    Max,
    /// The paper's optimization (hardening/re-execution trade-off).
    Opt,
}

impl Strategy {
    /// All strategies in the paper's plotting order.
    pub const ALL: [Strategy; 3] = [Strategy::Max, Strategy::Min, Strategy::Opt];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Min => "MIN",
            Strategy::Max => "MAX",
            Strategy::Opt => "OPT",
        }
    }

    fn policy(self) -> HardeningPolicy {
        match self {
            Strategy::Min => HardeningPolicy::FixedMin,
            Strategy::Max => HardeningPolicy::FixedMax,
            Strategy::Opt => HardeningPolicy::Optimize,
        }
    }
}

/// The optimization configuration used for the sweeps: exact SFP arithmetic
/// (the synthetic reliability budgets are finer than the paper's 10⁻¹¹
/// pessimistic grid) and a compact tabu budget so a full figure reproduces
/// in minutes.
pub fn sweep_opt_config(strategy: Strategy) -> OptConfig {
    OptConfig {
        policy: strategy.policy(),
        rounding: Rounding::Exact,
        tabu: TabuConfig {
            tenure: 3,
            waiting_boost: 8,
            max_no_improve: 4,
            max_iterations: 12,
            max_candidates: 5,
        },
        ..OptConfig::default()
    }
}

/// Result of one strategy over a set of applications under one condition:
/// the best feasible cost per application (`None` = no schedulable,
/// reliable solution exists for this strategy).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConditionResult {
    /// Best cost per application index.
    pub best_cost: Vec<Option<Cost>>,
}

impl ConditionResult {
    /// Percentage of applications accepted under a maximum architecture
    /// cost `ArC` (the paper's y-axis).
    pub fn acceptance(&self, arc: Cost) -> f64 {
        if self.best_cost.is_empty() {
            return 0.0;
        }
        let accepted = self
            .best_cost
            .iter()
            .filter(|c| c.is_some_and(|c| c <= arc))
            .count();
        100.0 * accepted as f64 / self.best_cost.len() as f64
    }
}

/// Runs one strategy over `n_apps` instances produced by `generate`,
/// fanned out over at most `budget` workers, each running one
/// sequential `design_strategy` at a time — so a caller that already
/// fans out (a matrix cell pool, a server engine slot) never
/// oversubscribes the machine. Outcomes are returned in index order and,
/// counters included, are identical for any budget, so any consumer —
/// [`run_condition`], the scenario-matrix runner — gets deterministic
/// results for a deterministic generator.
pub fn run_strategy_over<F>(
    generate: F,
    n_apps: usize,
    strategy: Strategy,
    budget: CoreBudget,
) -> Vec<Option<DesignOutcome>>
where
    F: Fn(u64) -> ftes_model::System + Sync,
{
    let (workers, _) = budget.fan_out(n_apps.max(1));
    let opt_cfg = sweep_opt_config(strategy);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<Option<DesignOutcome>>>> =
        (0..n_apps).map(|_| std::sync::Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (generate, opt_cfg, next, slots) = (&generate, &opt_cfg, &next, &slots);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n_apps {
                    break;
                }
                let system = generate(i as u64);
                let outcome = design_strategy(&system, opt_cfg)
                    .expect("synthetic systems are structurally valid");
                *slots[i].lock().unwrap() = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every index was run"))
        .collect()
}

/// Runs one strategy over `n_apps` synthetic applications of a condition,
/// in parallel across OS threads.
pub fn run_condition(
    condition: &ExperimentConfig,
    n_apps: usize,
    strategy: Strategy,
) -> ConditionResult {
    let outcomes = run_strategy_over(
        |i| generate_instance(condition, i),
        n_apps,
        strategy,
        CoreBudget::available(),
    );
    ConditionResult {
        best_cost: outcomes
            .into_iter()
            .map(|o| o.map(|o| o.solution.cost))
            .collect(),
    }
}

/// One row of the Fig. 6 output: a condition plus the acceptance of each
/// strategy at a given `ArC`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptanceRow {
    /// Condition label (e.g. `HPD = 5%` or `SER = 1e-11`).
    pub label: String,
    /// Acceptance percentage for MAX.
    pub max: f64,
    /// Acceptance percentage for MIN.
    pub min: f64,
    /// Acceptance percentage for OPT.
    pub opt: f64,
}

impl AcceptanceRow {
    /// Formats the row like the paper's Fig. 6b table.
    pub fn render(&self) -> String {
        format!(
            "{:<14} MAX {:5.1}%   MIN {:5.1}%   OPT {:5.1}%",
            self.label, self.max, self.min, self.opt
        )
    }
}

/// Runs all three strategies for one condition and evaluates acceptance at
/// `arc`.
pub fn acceptance_row(
    label: impl Into<String>,
    condition: &ExperimentConfig,
    n_apps: usize,
    arc: Cost,
) -> AcceptanceRow {
    let max = run_condition(condition, n_apps, Strategy::Max).acceptance(arc);
    let min = run_condition(condition, n_apps, Strategy::Min).acceptance(arc);
    let opt = run_condition(condition, n_apps, Strategy::Opt).acceptance(arc);
    AcceptanceRow {
        label: label.into(),
        max,
        min,
        opt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_counts_only_affordable_feasible_apps() {
        let r = ConditionResult {
            best_cost: vec![
                Some(Cost::new(10)),
                Some(Cost::new(25)),
                None,
                Some(Cost::new(20)),
            ],
        };
        assert_eq!(r.acceptance(Cost::new(20)), 50.0);
        assert_eq!(r.acceptance(Cost::new(9)), 0.0);
        assert_eq!(r.acceptance(Cost::new(100)), 75.0);
    }

    #[test]
    fn empty_condition_is_zero_acceptance() {
        let r = ConditionResult { best_cost: vec![] };
        assert_eq!(r.acceptance(Cost::new(10)), 0.0);
    }

    #[test]
    fn strategies_have_paper_labels() {
        assert_eq!(Strategy::Min.label(), "MIN");
        assert_eq!(Strategy::Max.label(), "MAX");
        assert_eq!(Strategy::Opt.label(), "OPT");
        assert_eq!(Strategy::ALL.len(), 3);
    }

    #[test]
    fn one_app_design_is_identical_under_any_core_budget() {
        // A lone application gets the whole budget, and the design run
        // must not turn spare cores into a different search: solution,
        // architecture counters and every evaluation counter agree.
        let condition = ExperimentConfig::default();
        for seed in 0..6 {
            let run = |cores| {
                run_strategy_over(
                    |_| generate_instance(&condition, seed),
                    1,
                    Strategy::Opt,
                    CoreBudget::new(cores),
                )
            };
            let (one, two) = (run(1), run(2));
            assert_eq!(one, two, "instance {seed}");
            if let Some(out) = &one[0] {
                assert_eq!(out.stats.worker_threads, 1, "instance {seed}");
            }
        }
    }

    #[test]
    fn small_condition_runs_and_opt_dominates_min() {
        // A tiny smoke sweep: OPT must accept at least as many apps as MIN
        // and MAX at any ArC (it subsumes both baselines' design spaces up
        // to heuristic noise; with 6 apps this is stable).
        let condition = ExperimentConfig::default();
        let n = 6;
        let arc = Cost::new(20);
        let min = run_condition(&condition, n, Strategy::Min).acceptance(arc);
        let opt = run_condition(&condition, n, Strategy::Opt).acceptance(arc);
        assert!(opt >= min, "OPT {opt}% < MIN {min}%");
    }
}
