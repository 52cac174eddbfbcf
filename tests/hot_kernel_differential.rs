//! Differential tests for the PR 5 hot-kernel overhaul, pinning every
//! layer of the rewrite to its executable specification:
//!
//! * **light verdict ≡ full schedule** — the scheduler's one
//!   list-scheduling walk, run with and without recording slots, must
//!   give the same worst-case length and schedulability on generated
//!   DAGs across graph shapes, budgets, slack models and TDMA buses;
//! * **priority cache ≡ full recompute** — the delta-synced longest-path
//!   priorities equal a fresh full DAG pass after arbitrary probe
//!   sequences (hardening steps, re-maps, undo moves);
//! * **memoized tabu ≡ unmemoized tabu** — the cross-iteration
//!   mapping-outcome memo must not alter the search: identical best
//!   candidate and identical accepted-move trace, step for step.
//!
//! The PR 6 batched/allocation-free core adds three more layers:
//!
//! * **batched neighborhood ≡ per-probe loop** — `score_neighborhood`
//!   must return the exact outcomes a sequential mutate-probe-undo loop
//!   produces, probe for probe;
//! * **SoA `SystemSfp` ≡ `NodeSfp` reference** — the contiguous
//!   segment-addressed series buffers must read back bit-identically to
//!   per-node from-scratch series across arbitrary update/deepen walks;
//! * **incremental search ≡ scratch specification, trace level** — the
//!   whole pooled + batched engine must walk the identical accepted-move
//!   trajectory as `EvalMode::Scratch`.

use ftes::gen::{BusProfile, GraphShape, Heterogeneity, Scenario, Utilization};
use ftes::model::{Architecture, HLevel, NodeId, Prob, ProcessId, TimeUs};
use ftes::opt::{
    initial_mapping, EvalMode, MemoCap, Objective, OptConfig, RedundancyOutcome, Search,
    TabuConfig, TabuMove,
};
use ftes::sched::{longest_path_to_sink, PriorityCache, Scheduler, SlackModel};
use ftes::sfp::{union_failure, NodeSfp, Rounding, SystemSfp};
use proptest::prelude::*;

/// One generated workload cell: shape × bus picks over a seeded scenario.
fn cell(shape_pick: u8, bus_pick: u8, seed: u64) -> Scenario {
    let shape = [
        GraphShape::Paper,
        GraphShape::Deep,
        GraphShape::Fan,
        GraphShape::Dense,
    ][shape_pick as usize % 4];
    let bus = [
        BusProfile::Ideal,
        BusProfile::Tdma {
            slot: TimeUs::from_us(500),
        },
        BusProfile::Tdma {
            slot: TimeUs::from_ms(2),
        },
    ][bus_pick as usize % 3];
    let mut cell = Scenario::new(bus, Heterogeneity::Mild, Utilization::Relaxed, 1);
    cell.shape = shape;
    cell.base.seed = seed;
    cell
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The verdict walk (`run_light`, which records no slots) must
    /// agree bit for bit with the materialized schedule (`run`) on
    /// generated DAGs, across slack models, budgets and TDMA buses, and
    /// the materialized schedule must satisfy its own invariants.
    #[test]
    fn light_verdict_matches_full_schedule_on_generated_dags(
        index in 0u64..4,
        shape_pick in 0u8..4,
        bus_pick in 0u8..3,
        seed in 1u64..1000,
        k0 in 0u32..4,
        k1 in 0u32..4,
    ) {
        let system = cell(shape_pick, bus_pick, seed).generate(index);
        let app = system.application();
        let ids = system.platform().ids_fastest_first();
        let arch = Architecture::with_min_hardening(&[ids[0], ids[1]]);
        let mapping = initial_mapping(&system, &arch).unwrap();
        let ks = [k0, k1];

        let mut scheduler = Scheduler::new();
        for slack in [SlackModel::Shared, SlackModel::PerProcess] {
            let full = scheduler
                .run(app, system.timing(), &arch, &mapping, &ks, system.bus(), slack)
                .unwrap();
            prop_assert_eq!(full.check_invariants(app, &mapping), None, "{:?}", slack);
            let light = scheduler
                .run_light(app, system.timing(), &arch, &mapping, &ks, system.bus(), slack)
                .unwrap();
            prop_assert_eq!(light.wc_length, full.wc_length(), "{:?}", slack);
            prop_assert_eq!(light.schedulable, full.is_schedulable(), "{:?}", slack);
        }
    }

    /// The delta-synced priority cache must equal a fresh full
    /// longest-path pass bit for bit after every probe of a
    /// search-shaped walk (re-maps, hardening steps, undos), and the
    /// flat walk fed from it must equal the self-resolving `run_light`.
    #[test]
    fn priority_cache_matches_full_recompute_on_generated_dags(
        index in 0u64..4,
        shape_pick in 0u8..4,
        bus_pick in 0u8..3,
        seed in 1u64..1000,
        moves in proptest::collection::vec((0u8..40, 0u8..2, 0u8..3), 6..16),
    ) {
        let system = cell(shape_pick, bus_pick, seed).generate(index);
        let app = system.application();
        let timing = system.timing();
        let platform = system.platform();
        let ids = platform.ids_fastest_first();
        let mut arch = Architecture::with_min_hardening(&[ids[0], ids[1]]);
        let mut mapping = initial_mapping(&system, &arch).unwrap();

        let mut cache = PriorityCache::new();
        let mut scheduler = Scheduler::new();
        for (proc_pick, node_pick, level_pick) in moves {
            let p = ProcessId::new(u32::from(proc_pick) % app.process_count() as u32);
            let n = NodeId::new(u32::from(node_pick));
            if timing.supports(p, arch.node_type(n)) {
                mapping.assign(p, n);
            }
            let levels = platform.node_type(arch.node_type(n)).h_count();
            let level = HLevel::new(level_pick % levels.max(1) + 1).unwrap();
            arch.set_hardening(n, level);

            let cached = cache.sync(app, timing, &arch, &mapping).unwrap().to_vec();
            let fresh = longest_path_to_sink(app, timing, &arch, &mapping).unwrap();
            prop_assert_eq!(&cached, &fresh);

            // The flat walk over the cached priorities equals run_light.
            let wcets: Vec<TimeUs> = app
                .process_ids()
                .map(|p| {
                    let inst = arch.node(mapping.node_of(p));
                    timing.wcet(p, inst.node_type, inst.hardening).unwrap()
                })
                .collect();
            let preds: Vec<usize> =
                app.process_ids().map(|p| app.incoming(p).len()).collect();
            let ks = vec![1u32; arch.node_count()];
            let flat = scheduler
                .run_light_flat(
                    app,
                    &mapping,
                    &ks,
                    system.bus(),
                    SlackModel::Shared,
                    &cached,
                    &wcets,
                    &preds,
                )
                .unwrap();
            let reference = scheduler
                .run_light(app, timing, &arch, &mapping, &ks, system.bus(), SlackModel::Shared)
                .unwrap();
            prop_assert_eq!(flat, reference);
        }
    }

    /// Memoizing the redundancy outcomes must not change the tabu
    /// search: same best candidate, same accepted-move trace.
    #[test]
    fn memoized_tabu_matches_unmemoized_tabu(
        index in 0u64..4,
        shape_pick in 0u8..4,
        bus_pick in 0u8..3,
        seed in 1u64..500,
        objective in prop_oneof![Just(Objective::Cost), Just(Objective::ScheduleLength)],
    ) {
        let system = cell(shape_pick, bus_pick, seed).generate(index);
        let ids = system.platform().ids_fastest_first();
        let base = Architecture::with_min_hardening(&[ids[0], ids[1]]);

        let memo_cfg = OptConfig {
            tabu: TabuConfig { max_iterations: 8, ..TabuConfig::default() },
            ..OptConfig::default()
        };
        let nomemo_cfg = OptConfig { mapping_memo: MemoCap(0), ..memo_cfg.clone() };

        let mut memo_trace: Vec<TabuMove> = Vec::new();
        let memoized = Search::new(&system, &memo_cfg)
            .mapping_algorithm(&base, objective, None, Some(&mut memo_trace))
            .unwrap();

        let mut plain_trace: Vec<TabuMove> = Vec::new();
        let mut plain = Search::new(&system, &nomemo_cfg);
        let unmemoized = plain
            .mapping_algorithm(&base, objective, None, Some(&mut plain_trace))
            .unwrap();

        prop_assert_eq!(&memo_trace, &plain_trace, "move traces diverged");
        match (&memoized, &unmemoized) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(&a.solution, &b.solution);
                prop_assert_eq!(a.schedulable, b.schedulable);
            }
            other => prop_assert!(false, "divergent feasibility: {:?}", other),
        }
        prop_assert_eq!(plain.stats().mapping_memo_hits, 0, "disabled memo must never hit");
    }

    /// The batched neighborhood kernel must score a tabu iteration's
    /// probe list bit-identically to the sequential mutate-probe-undo
    /// loop it replaced — on both the memoized and the unmemoized path —
    /// and leave the mapping untouched.
    #[test]
    fn score_neighborhood_matches_sequential_per_probe_loop(
        index in 0u64..4,
        shape_pick in 0u8..4,
        bus_pick in 0u8..3,
        seed in 1u64..1000,
        memo_pick in 0u8..2,
    ) {
        let memo_on = memo_pick == 1;
        let system = cell(shape_pick, bus_pick, seed).generate(index);
        let timing = system.timing();
        let ids = system.platform().ids_fastest_first();
        let base = Architecture::with_min_hardening(&[ids[0], ids[1]]);
        let mapping = initial_mapping(&system, &base).unwrap();
        let config = OptConfig {
            mapping_memo: if memo_on { OptConfig::default().mapping_memo } else { MemoCap(0) },
            ..OptConfig::default()
        };

        // One tabu iteration's full neighborhood: every legal
        // single-process re-map.
        let probes: Vec<TabuMove> = system
            .application()
            .process_ids()
            .flat_map(|p| {
                let from = mapping.node_of(p);
                base.node_ids()
                    .filter(|&node| node != from && timing.supports(p, base.node_type(node)))
                    .map(move |node| (p, node))
                    .collect::<Vec<_>>()
            })
            .collect();

        let mut batch_map = mapping.clone();
        let mut batched: Vec<Option<RedundancyOutcome>> = Vec::new();
        Search::new(&system, &config)
            .score_neighborhood(&base, &mut batch_map, &probes, &mut batched)
            .unwrap();
        prop_assert_eq!(&batch_map, &mapping, "mapping must be restored");

        let mut seq = Search::new(&system, &config);
        let mut seq_map = mapping.clone();
        let mut sequential: Vec<Option<RedundancyOutcome>> = Vec::new();
        for &(p, node) in &probes {
            let from = seq_map.node_of(p);
            seq_map.assign(p, node);
            sequential.push(seq.redundancy_opt(&base, &seq_map).unwrap());
            seq_map.assign(p, from);
        }
        prop_assert_eq!(&batched, &sequential);
    }

    /// The SoA series buffers must read back bit-identically to fresh
    /// per-node `NodeSfp` series across arbitrary walks of one-node
    /// updates and lazy deepenings (splices shifting the segments).
    #[test]
    fn soa_system_sfp_matches_node_sfp_reference(
        node_values in proptest::collection::vec(
            proptest::collection::vec(0.0f64..0.01, 0..5), 1..5),
        updates in proptest::collection::vec(
            (0usize..5, proptest::collection::vec(0.0f64..0.01, 0..6), 0u32..12), 0..8),
        k in 0u32..12,
    ) {
        const MAX_K: u32 = 12;
        let rounding = Rounding::Pessimistic;
        let to_probs =
            |vals: &[f64]| vals.iter().map(|&v| Prob::new(v).unwrap()).collect::<Vec<Prob>>();
        let mut current: Vec<Vec<Prob>> = node_values.iter().map(|v| to_probs(v)).collect();
        let mut sys = SystemSfp::from_node_probs(&current, MAX_K, rounding);

        let mut walk: Vec<(usize, Vec<f64>, u32)> = updates;
        walk.push((0, node_values[0].clone(), k)); // revisit the initial config
        for (node_pick, vals, depth) in walk {
            let j = node_pick % current.len();
            current[j] = to_probs(&vals);
            sys.set_node_probs(j, &current[j]);
            // Deepen one node, then check every node against a fresh
            // reference series — values and union, bit for bit.
            let _ = sys.pr_more_than(j, depth);
            for (jj, probs) in current.iter().enumerate() {
                let reference =
                    NodeSfp::new(probs.clone(), rounding).pr_more_than_series(MAX_K);
                let have = sys.series(jj).len();
                prop_assert_eq!(sys.series(jj), &reference[..have], "node {} prefix", jj);
                for kk in [0, depth, MAX_K] {
                    let got = sys.pr_more_than(jj, kk);
                    prop_assert_eq!(
                        got.to_bits(),
                        reference[kk as usize].to_bits(),
                        "node {} k {}",
                        jj,
                        kk
                    );
                }
            }
            let ks: Vec<u32> = (0..current.len() as u32).map(|i| (i + depth) % (MAX_K + 1)).collect();
            let per_node: Vec<f64> = current
                .iter()
                .zip(&ks)
                .map(|(probs, &kk)| NodeSfp::new(probs.clone(), rounding).pr_more_than(kk))
                .collect();
            prop_assert_eq!(
                sys.union_failure(&ks).to_bits(),
                union_failure(&per_node).to_bits(),
                "union under {:?}",
                ks
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The whole pooled + batched incremental engine must walk the same
    /// accepted-move trajectory as the from-scratch specification
    /// (`EvalMode::Scratch`, no memo): identical traces, identical best
    /// solution — the strongest end-to-end bit-identity pin.
    #[test]
    fn incremental_search_trace_matches_scratch_specification(
        index in 0u64..2,
        shape_pick in 0u8..4,
        bus_pick in 0u8..3,
        seed in 1u64..300,
        objective in prop_oneof![Just(Objective::Cost), Just(Objective::ScheduleLength)],
    ) {
        let system = cell(shape_pick, bus_pick, seed).generate(index);
        let ids = system.platform().ids_fastest_first();
        let base = Architecture::with_min_hardening(&[ids[0], ids[1]]);
        let incr_cfg = OptConfig {
            tabu: TabuConfig { max_iterations: 5, ..TabuConfig::default() },
            ..OptConfig::default()
        };
        let scratch_cfg = OptConfig {
            eval_mode: EvalMode::Scratch,
            mapping_memo: MemoCap(0),
            ..incr_cfg.clone()
        };

        let mut incr_trace: Vec<TabuMove> = Vec::new();
        let incremental = Search::new(&system, &incr_cfg)
            .mapping_algorithm(&base, objective, None, Some(&mut incr_trace))
            .unwrap();

        let mut scratch_trace: Vec<TabuMove> = Vec::new();
        let scratch = Search::new(&system, &scratch_cfg)
            .mapping_algorithm(&base, objective, None, Some(&mut scratch_trace))
            .unwrap();

        prop_assert_eq!(&incr_trace, &scratch_trace, "move traces diverged");
        match (&incremental, &scratch) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(&a.solution, &b.solution);
                prop_assert_eq!(a.schedulable, b.schedulable);
            }
            other => prop_assert!(false, "divergent feasibility: {:?}", other),
        }
    }
}

/// The search through the memoized engine equals the from-scratch
/// specification end to end on one deterministic workload per shape —
/// the cheap always-on cousin of the proptests above.
#[test]
fn memoized_search_matches_scratch_pipeline_per_shape() {
    use ftes::opt::{design_strategy, EvalMode};
    for shape_pick in 0..4u8 {
        let system = cell(shape_pick, 1, 0xF7E5).generate(0);
        let incremental = design_strategy(&system, &OptConfig::default()).unwrap();
        let scratch_cfg = OptConfig {
            eval_mode: EvalMode::Scratch,
            mapping_memo: MemoCap(0),
            ..OptConfig::default()
        };
        let scratch = design_strategy(&system, &scratch_cfg).unwrap();
        match (&incremental, &scratch) {
            (None, None) => {}
            (Some(a), Some(b)) => assert_eq!(a.solution, b.solution, "shape {shape_pick}"),
            other => panic!("divergent feasibility: {other:?}"),
        }
    }
}
