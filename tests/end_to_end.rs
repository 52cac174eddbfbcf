//! End-to-end integration: generated systems flow through SFP analysis,
//! scheduling, optimization and runtime fault simulation coherently.

use ftes::bench::{sweep_opt_config, Strategy};
use ftes::faultsim::simulate_with_faults;
use ftes::gen::{generate_instance, ExperimentConfig};
use ftes::opt::{design_strategy, optimize_fixed_architecture};
use ftes::sfp::Rounding;

fn condition() -> ExperimentConfig {
    ExperimentConfig::default()
}

/// Every OPT solution on a batch of synthetic systems is internally
/// consistent: valid mapping, schedulable, reliability goal met, cost equal
/// to the architecture's.
#[test]
fn opt_solutions_are_internally_consistent() {
    let cfg = sweep_opt_config(Strategy::Opt);
    for index in 0..6u64 {
        let sys = generate_instance(&condition(), index);
        let Some(out) = design_strategy(&sys, &cfg).unwrap() else {
            continue;
        };
        let sol = &out.solution;
        sol.mapping
            .validate(sys.application(), &sol.architecture, sys.timing())
            .unwrap();
        assert!(sol.is_schedulable());
        assert_eq!(
            sol.cost,
            sol.architecture.cost(sys.platform()).unwrap(),
            "cost must match the architecture"
        );
        assert_eq!(
            sol.schedule
                .check_invariants(sys.application(), &sol.mapping),
            None
        );
        let sfp = ftes::sfp::analyze(
            sys.application(),
            sys.timing(),
            &sol.architecture,
            &sol.mapping,
            &sol.ks,
            sys.goal(),
            Rounding::Exact,
        )
        .unwrap();
        assert!(sfp.meets_goal, "app {index} reliability");
    }
}

/// OPT never loses to MIN or MAX on cost when all are feasible, and is
/// feasible whenever either baseline is (it explores a superset).
#[test]
fn opt_dominates_the_baselines() {
    for index in 0..6u64 {
        let sys = generate_instance(&condition(), index);
        let run = |s: Strategy| {
            design_strategy(&sys, &sweep_opt_config(s))
                .unwrap()
                .map(|o| o.solution.cost)
        };
        let opt = run(Strategy::Opt);
        for baseline in [Strategy::Min, Strategy::Max] {
            if let Some(base_cost) = run(baseline) {
                let opt_cost = opt.unwrap_or_else(|| {
                    panic!(
                        "app {index}: OPT infeasible but {} feasible",
                        baseline.label()
                    )
                });
                assert!(
                    opt_cost <= base_cost,
                    "app {index}: OPT {opt_cost} > {} {base_cost}",
                    baseline.label()
                );
            }
        }
    }
}

/// The fixed-architecture entry point runs the same Fig. 5 inner loop
/// (lines 7–13) as the design strategy's walk: on the node types of the
/// design strategy's winner it returns the identical solution, under
/// every hardening policy.
#[test]
fn fixed_architecture_reproduces_the_design_strategy_winner() {
    let mut compared = [0usize; 3];
    for index in 0..8u64 {
        let sys = generate_instance(&condition(), index);
        for (slot, strategy) in Strategy::ALL.into_iter().enumerate() {
            let cfg = sweep_opt_config(strategy);
            let Some(out) = design_strategy(&sys, &cfg).unwrap() else {
                continue;
            };
            let arch = &out.solution.architecture;
            let types: Vec<_> = arch.node_ids().map(|n| arch.node_type(n)).collect();
            let fixed = optimize_fixed_architecture(&sys, &types, &cfg).unwrap();
            assert_eq!(
                fixed.as_ref(),
                Some(&out.solution),
                "app {index} {}",
                strategy.label()
            );
            compared[slot] += 1;
        }
    }
    // Every policy must be exercised on most of the batch, or the
    // comparison above says little.
    for (strategy, n) in Strategy::ALL.into_iter().zip(compared) {
        assert!(n >= 4, "{} feasible on only {n}/8 apps", strategy.label());
    }
}

/// Replaying OPT schedules under every ≤ k_j fault plan keeps completions
/// within the scheduled worst-case bounds (soundness of the shared slack,
/// end to end on generated systems).
#[test]
fn recovery_slack_bounds_hold_under_injection() {
    let cfg = sweep_opt_config(Strategy::Opt);
    for index in 0..4u64 {
        let sys = generate_instance(&condition(), index);
        let Some(out) = design_strategy(&sys, &cfg).unwrap() else {
            continue;
        };
        let sol = &out.solution;
        let app = sys.application();
        // Worst plan per node: hit the process with the largest t+μ budget
        // k_j times; plus a spread plan hitting distinct processes.
        for node in sol.architecture.node_ids() {
            let k = sol.ks[node.index()];
            if k == 0 {
                continue;
            }
            let on_node: Vec<_> = sol.mapping.processes_on(node).collect();
            // Concentrated plan.
            let heavy = on_node
                .iter()
                .copied()
                .max_by_key(|&p| {
                    sol.schedule.process_slot(p).finish - sol.schedule.process_slot(p).start
                })
                .unwrap();
            let mut faults = vec![0u32; app.process_count()];
            faults[heavy.index()] = k;
            let run = simulate_with_faults(app, &sol.mapping, &sol.schedule, &faults);
            for p in app.process_ids() {
                assert!(
                    run.completion[p.index()] <= sol.schedule.process_slot(p).wc_end,
                    "app {index}, concentrated faults on {node}: {p} out of bounds"
                );
            }
            // Spread plan.
            let mut faults = vec![0u32; app.process_count()];
            for (i, &p) in on_node.iter().enumerate().take(k as usize) {
                faults[p.index()] = 1;
                let _ = i;
            }
            let run = simulate_with_faults(app, &sol.mapping, &sol.schedule, &faults);
            for p in app.process_ids() {
                assert!(
                    run.completion[p.index()] <= sol.schedule.process_slot(p).wc_end,
                    "app {index}, spread faults on {node}: {p} out of bounds"
                );
            }
        }
    }
}

/// Acceptance bookkeeping: OPT acceptance is monotone in ArC.
#[test]
fn acceptance_is_monotone_in_arc() {
    let result = ftes::bench::run_condition(&condition(), 8, Strategy::Opt);
    let mut last = 0.0;
    for arc in [5u64, 10, 15, 20, 30, 1000] {
        let acc = result.acceptance(ftes::model::Cost::new(arc));
        assert!(acc >= last, "acceptance dropped at ArC {arc}");
        last = acc;
    }
}
