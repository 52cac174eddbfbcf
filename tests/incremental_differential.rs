//! Differential tests locking the incremental evaluation engine to the
//! from-scratch executable specification:
//!
//! * `SystemSfp` (cached per-node series, delta updates) against
//!   `ReExecutionOpt::optimize` + `analyze` — budgets, union failure and
//!   the full `SfpResult` must be **bit-identical**, including after
//!   arbitrary sequences of one-node updates;
//! * `Evaluator` (incremental SFP, flat scheduling kernel) against
//!   `evaluate_fixed` on search-shaped probe sequences (hardening steps,
//!   re-mapping moves) over random systems from `ftes-gen`;
//! * incremental `design_strategy` against the scratch pipeline on random
//!   systems — same solution, same architecture walk;
//! * the whole engine over the scenario space (TDMA buses, heterogeneous
//!   platforms, tight deadlines): incremental ≡ scratch, and
//!   `Scheduler::run_light` ≡ `Scheduler::run` — the light walk prices
//!   TDMA bus slots identically to the full scheduler.

use ftes::gen::{generate_instance, ExperimentConfig};
use ftes::model::{
    Architecture, HLevel, Mapping, NodeId, Prob, ProcessId, ReliabilityGoal, TimeUs,
};
use ftes::opt::{
    design_strategy, evaluate_fixed, initial_mapping, Candidate, EvalMode, Evaluator, OptConfig,
    TabuConfig,
};
use ftes::sfp::{analyze, NodeSfp, ReExecutionOpt, Rounding, SystemSfp};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// SystemSfp ≡ from-scratch SFP pipeline
// ---------------------------------------------------------------------

fn probs(values: &[f64]) -> Vec<Prob> {
    values.iter().map(|&v| Prob::new(v).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn system_sfp_optimize_is_bit_identical_to_reexecution_opt(
        node_probs in proptest::collection::vec(
            proptest::collection::vec(1e-12f64..0.05, 0..5), 1..5),
        max_k in 1u32..12,
        rounding in prop_oneof![Just(Rounding::Exact), Just(Rounding::Pessimistic)],
        gamma_exp in 4.0f64..9.0,
    ) {
        let goal = ReliabilityGoal::per_hour(10f64.powf(-gamma_exp)).unwrap();
        let period = TimeUs::from_ms(360);
        let wrapped: Vec<Vec<Prob>> = node_probs.iter().map(|v| probs(v)).collect();

        let mut incremental = SystemSfp::from_node_probs(&wrapped, max_k, rounding);
        let scratch = ReExecutionOpt::new(max_k, rounding);

        let ks_incr = incremental.optimize(goal, period);
        let ks_scratch = scratch.optimize(&wrapped, goal, period);
        prop_assert_eq!(&ks_incr, &ks_scratch);

        // The lazily-extended series must match the NodeSfp kernel bitwise
        // at every queried depth.
        for (j, node) in wrapped.iter().enumerate() {
            let reference = NodeSfp::new(node.clone(), rounding).pr_more_than_series(max_k);
            for k in 0..=max_k {
                prop_assert_eq!(
                    incremental.pr_more_than(j, k),
                    reference[k as usize],
                    "node {} k {}",
                    j,
                    k
                );
            }
        }
        if let Some(ks) = ks_incr {
            let failures: Vec<f64> = wrapped
                .iter()
                .zip(&ks)
                .map(|(node, &k)| NodeSfp::new(node.clone(), rounding).pr_more_than(k))
                .collect();
            prop_assert_eq!(
                incremental.union_failure(&ks),
                ftes::sfp::union_failure(&failures)
            );
        }
    }

    #[test]
    fn system_sfp_delta_updates_equal_full_rebuild(
        initial in proptest::collection::vec(
            proptest::collection::vec(1e-10f64..0.1, 0..4), 2..5),
        updates in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(1e-10f64..0.1, 0..4)), 1..8),
        max_k in 1u32..10,
    ) {
        let rounding = Rounding::Pessimistic;
        let goal = ReliabilityGoal::per_hour(1e-6).unwrap();
        let period = TimeUs::from_ms(250);

        let mut wrapped: Vec<Vec<Prob>> = initial.iter().map(|v| probs(v)).collect();
        let mut incremental = SystemSfp::from_node_probs(&wrapped, max_k, rounding);
        for (slot, values) in updates {
            let j = slot % wrapped.len();
            wrapped[j] = probs(&values);
            incremental.set_node_probs(j, &wrapped[j]);

            let mut rebuilt = SystemSfp::from_node_probs(&wrapped, max_k, rounding);
            for node in 0..wrapped.len() {
                for k in 0..=max_k {
                    prop_assert_eq!(
                        incremental.pr_more_than(node, k),
                        rebuilt.pr_more_than(node, k),
                        "node {} k {}",
                        node,
                        k
                    );
                }
            }
            prop_assert_eq!(
                incremental.optimize(goal, period),
                ReExecutionOpt::new(max_k, rounding).optimize(&wrapped, goal, period)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Evaluator ≡ evaluate_fixed on random systems (search-shaped probes)
// ---------------------------------------------------------------------

/// A compact tabu budget so a full design run stays fast per case.
fn quick_config() -> OptConfig {
    OptConfig {
        rounding: Rounding::Exact,
        tabu: TabuConfig {
            tenure: 3,
            waiting_boost: 8,
            max_no_improve: 3,
            max_iterations: 8,
            max_candidates: 4,
        },
        ..OptConfig::default()
    }
}

fn condition(ser_pick: u8, hpd_pick: u8, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        ser_h1: [1e-10, 1e-11, 1e-12][ser_pick as usize % 3],
        hpd: [0.05, 0.25, 1.0][hpd_pick as usize % 3],
        seed,
        ..ExperimentConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn evaluator_matches_evaluate_fixed_on_generated_systems(
        index in 0u64..6,
        ser_pick in 0u8..3,
        hpd_pick in 0u8..3,
        seed in 1u64..1000,
        moves in proptest::collection::vec((0u8..40, 0u8..4, 0u8..5), 8..20),
    ) {
        let system = generate_instance(&condition(ser_pick, hpd_pick, seed), index);
        let config = quick_config();
        let platform = system.platform();
        let app = system.application();
        let timing = system.timing();

        // A two-node architecture of the two fastest types and its greedy
        // initial mapping as the probe starting point.
        let ids = platform.ids_fastest_first();
        let types = [ids[0], ids[1]];
        let mut arch = Architecture::with_min_hardening(&types);
        let mut mapping = initial_mapping(&system, &arch).unwrap();

        let mut evaluator = Evaluator::new(&system, &config);
        // Replay a search-shaped probe sequence: each step re-maps one
        // process and/or bumps one node's hardening, then evaluates both
        // paths on the same candidate.
        for (proc_pick, node_pick, level_pick) in moves {
            let p = ProcessId::new(u32::from(proc_pick) % app.process_count() as u32);
            let n = NodeId::new(u32::from(node_pick) % arch.node_count() as u32);
            if timing.supports(p, arch.node_type(n)) {
                mapping.assign(p, n);
            }
            let levels = platform.node_type(arch.node_type(n)).h_count();
            let level = HLevel::new(level_pick % levels.max(1) + 1).unwrap();
            arch.set_hardening(n, level);

            let incremental = evaluator.evaluate(&arch, &mapping).unwrap();
            let scratch = evaluate_fixed(&system, &arch, &mapping, &config).unwrap();
            prop_assert_eq!(
                incremental.as_deref().cloned(),
                scratch.clone().map(Candidate::of_solution)
            );
            // The materialized solution must equal the from-scratch one.
            if let (Some(candidate), Some(solution)) = (&incremental, &scratch) {
                prop_assert_eq!(&candidate.materialize(&system).unwrap(), solution);
            }

            // The SFP analysis of the found budgets must agree bitwise too.
            if let Some(sol) = &scratch {
                let reference = analyze(
                    app, timing, &arch, &mapping, &sol.ks, system.goal(), config.rounding,
                ).unwrap();
                prop_assert!(reference.meets_goal);
                let mut probe = SystemSfp::from_node_probs(
                    &ftes::sfp::node_process_probs(app, timing, &arch, &mapping).unwrap(),
                    config.max_k.0,
                    config.rounding,
                );
                let incr_result = probe.analyze(&sol.ks, system.goal(), app.period());
                prop_assert_eq!(incr_result, reference);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Incremental design_strategy ≡ scratch design_strategy
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn incremental_design_strategy_matches_scratch(
        index in 0u64..4,
        ser_pick in 0u8..3,
        hpd_pick in 0u8..3,
    ) {
        let system = generate_instance(
            &condition(ser_pick, hpd_pick, ExperimentConfig::default().seed),
            index,
        );
        let incremental_cfg = quick_config();
        let scratch_cfg = OptConfig { eval_mode: EvalMode::Scratch, ..incremental_cfg.clone() };

        let incremental = design_strategy(&system, &incremental_cfg).unwrap();
        let scratch = design_strategy(&system, &scratch_cfg).unwrap();

        match (&incremental, &scratch) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(&a.solution, &b.solution);
                prop_assert_eq!(
                    a.stats.architectures_evaluated,
                    b.stats.architectures_evaluated
                );
                prop_assert_eq!(a.stats.architectures_pruned, b.stats.architectures_pruned);
            }
            other => prop_assert!(false, "divergent feasibility: {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------
// Scenario space: TDMA buses and heterogeneous platforms
// ---------------------------------------------------------------------

use ftes::gen::{BusProfile, Heterogeneity, Scenario, Utilization};
use ftes::sched::{Scheduler, SlackModel};

/// Maps proptest picks onto a scenario cell: ideal vs two TDMA slot
/// lengths, all three heterogeneity profiles, both tightness levels.
fn scenario_cell(bus_pick: u8, plat_pick: u8, util_pick: u8, seed: u64) -> Scenario {
    let bus = [
        BusProfile::Ideal,
        BusProfile::Tdma {
            slot: TimeUs::from_us(500),
        },
        BusProfile::Tdma {
            slot: TimeUs::from_ms(2),
        },
    ][bus_pick as usize % 3];
    let platform = [
        Heterogeneity::Homogeneous,
        Heterogeneity::Mild,
        Heterogeneity::Wide,
    ][plat_pick as usize % 3];
    let utilization = [Utilization::Relaxed, Utilization::Tight][util_pick as usize % 2];
    let mut cell = Scenario::new(bus, platform, utilization, 1);
    cell.base.seed = seed;
    cell
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Incremental ≡ scratch evaluation, and the full scheduler ≡ the
    /// allocation-free light walk, over the TDMA/heterogeneous scenario
    /// space — the new cells must not open a gap anywhere in the engine.
    #[test]
    fn evaluator_and_run_light_match_scratch_on_scenario_space(
        index in 0u64..4,
        bus_pick in 0u8..3,
        plat_pick in 0u8..3,
        util_pick in 0u8..2,
        seed in 1u64..1000,
        moves in proptest::collection::vec((0u8..40, 0u8..4, 0u8..5), 6..14),
    ) {
        let cell = scenario_cell(bus_pick, plat_pick, util_pick, seed);
        let system = cell.generate(index);
        let config = quick_config();
        let platform = system.platform();
        let app = system.application();
        let timing = system.timing();

        let ids = platform.ids_fastest_first();
        let types = [ids[0], ids[1]];
        let mut arch = Architecture::with_min_hardening(&types);
        let mut mapping = initial_mapping(&system, &arch).unwrap();

        let mut evaluator = Evaluator::new(&system, &config);
        let mut scheduler = Scheduler::new();
        for (proc_pick, node_pick, level_pick) in moves {
            let p = ProcessId::new(u32::from(proc_pick) % app.process_count() as u32);
            let n = NodeId::new(u32::from(node_pick) % arch.node_count() as u32);
            if timing.supports(p, arch.node_type(n)) {
                mapping.assign(p, n);
            }
            let levels = platform.node_type(arch.node_type(n)).h_count();
            let level = HLevel::new(level_pick % levels.max(1) + 1).unwrap();
            arch.set_hardening(n, level);

            let incremental = evaluator.evaluate(&arch, &mapping).unwrap();
            let scratch = evaluate_fixed(&system, &arch, &mapping, &config).unwrap();
            prop_assert_eq!(
                incremental.as_deref().cloned(),
                scratch.clone().map(Candidate::of_solution)
            );

            // The materialized schedule and the light verdict must agree
            // on the found budgets — TDMA slot pricing included.
            if let Some(sol) = &scratch {
                let full = scheduler
                    .run(
                        app, timing, &arch, &mapping, &sol.ks, system.bus(),
                        SlackModel::Shared,
                    )
                    .unwrap();
                let light = scheduler
                    .run_light(
                        app, timing, &arch, &mapping, &sol.ks, system.bus(),
                        SlackModel::Shared,
                    )
                    .unwrap();
                prop_assert_eq!(light.wc_length, full.wc_length());
                prop_assert_eq!(light.schedulable, full.is_schedulable());
                prop_assert_eq!(full.wc_length(), sol.schedule.wc_length());
            }
        }
    }

    /// Incremental ≡ scratch `design_strategy` on TDMA/heterogeneous
    /// cells.
    #[test]
    fn design_strategy_is_mode_invariant_on_scenario_space(
        index in 0u64..3,
        bus_pick in 1u8..3,    // always a TDMA bus: the new axis
        plat_pick in 0u8..3,
        util_pick in 0u8..2,
    ) {
        let cell = scenario_cell(bus_pick, plat_pick, util_pick, 0xF7E5);
        let system = cell.generate(index);
        let incremental_cfg = quick_config();
        let scratch_cfg = OptConfig { eval_mode: EvalMode::Scratch, ..incremental_cfg.clone() };

        let incremental = design_strategy(&system, &incremental_cfg).unwrap();
        let scratch = design_strategy(&system, &scratch_cfg).unwrap();

        match (&incremental, &scratch) {
            (None, None) => {}
            (Some(s), Some(f)) => {
                prop_assert_eq!(&s.solution, &f.solution);
                prop_assert_eq!(
                    s.stats.architectures_evaluated,
                    f.stats.architectures_evaluated
                );
                prop_assert_eq!(s.stats.architectures_pruned, f.stats.architectures_pruned);
            }
            other => prop_assert!(false, "divergent feasibility: {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic spot checks (non-random)
// ---------------------------------------------------------------------

#[test]
fn evaluator_is_deterministic_under_repeated_probes() {
    let system = generate_instance(&ExperimentConfig::default(), 0);
    let config = quick_config();
    let platform = system.platform();
    let ids = platform.ids_fastest_first();
    let arch = Architecture::with_min_hardening(&[ids[0], ids[1]]);
    let mapping = initial_mapping(&system, &arch).unwrap();

    let mut evaluator = Evaluator::new(&system, &config);
    let first = evaluator.evaluate(&arch, &mapping).unwrap();
    let second = evaluator.evaluate(&arch, &mapping).unwrap();
    assert_eq!(first, second);
    assert_eq!(evaluator.stats().evaluations, 2);
    assert_eq!(
        second.as_deref().cloned(),
        evaluate_fixed(&system, &arch, &mapping, &config)
            .unwrap()
            .map(Candidate::of_solution)
    );
    // Only the caller and the arena's tracking reference hold a returned
    // candidate: the evaluator retains nothing else.
    let c = second.expect("the fastest pair reaches the goal");
    assert_eq!(std::sync::Arc::strong_count(&c), 2);
}

#[test]
fn invalid_mapping_rejected_identically_by_both_paths() {
    let system = generate_instance(&ExperimentConfig::default(), 0);
    let config = quick_config();
    let ids = system.platform().ids_fastest_first();
    let arch = Architecture::with_min_hardening(&[ids[0]]);
    let bad = Mapping::new(vec![NodeId::new(0)]); // too short
    let mut evaluator = Evaluator::new(&system, &config);
    assert!(evaluator.evaluate(&arch, &bad).is_err());
    assert!(evaluate_fixed(&system, &arch, &bad, &config).is_err());
}
