//! Microbenchmarks of the evaluation hot kernel (PR 5): the
//! `run_light` scheduling walk across graph shapes and sizes, priority
//! full recompute vs delta sync, and the per-probe and tabu-memo paths
//! of the incremental engine.
//!
//! Run with `cargo bench --bench hot_kernel`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ftes_gen::{BusProfile, GraphShape, Heterogeneity, Scenario, Utilization};
use ftes_model::{Architecture, HLevel, Mapping, NodeId, ProcessId, System};
use ftes_opt::{initial_mapping, Evaluator, MemoCap, OptConfig, Search};
use ftes_sched::{PriorityCache, Scheduler, SlackModel};

/// One benchmark fixture: a generated system with a two-node
/// architecture and its greedy initial mapping.
struct Fixture {
    system: System,
    arch: Architecture,
    mapping: Mapping,
    ks: Vec<u32>,
}

fn fixture(shape: GraphShape, index: u64) -> Fixture {
    let mut cell = Scenario::new(
        BusProfile::Ideal,
        Heterogeneity::Mild,
        Utilization::Relaxed,
        1,
    );
    cell.shape = shape;
    let system = cell.generate(index);
    let ids = system.platform().ids_fastest_first();
    let arch = Architecture::with_min_hardening(&[ids[0], ids[1]]);
    let mapping = initial_mapping(&system, &arch).unwrap();
    Fixture {
        system,
        arch,
        mapping,
        ks: vec![2, 2],
    }
}

/// `run_light` across graph shapes and sizes.
fn bench_run_light(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_light");
    for shape in [
        GraphShape::Paper,
        GraphShape::Deep,
        GraphShape::Fan,
        GraphShape::Dense,
    ] {
        // index 0 → 20 processes, index 1 → 40 processes.
        for index in [0u64, 1] {
            let f = fixture(shape, index);
            let n = f.system.application().process_count();
            let id = BenchmarkId::new(shape.label(), n);
            group.bench_with_input(id, &f, |b, f| {
                let mut scheduler = Scheduler::new();
                b.iter(|| {
                    scheduler
                        .run_light(
                            f.system.application(),
                            f.system.timing(),
                            &f.arch,
                            &f.mapping,
                            black_box(&f.ks),
                            f.system.bus(),
                            SlackModel::Shared,
                        )
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

/// Full priority recompute vs the cached delta path for a single
/// re-mapping probe (mutate + probe + undo, the tabu move pattern).
fn bench_priorities(c: &mut Criterion) {
    let f = fixture(GraphShape::Paper, 1);
    let app = f.system.application();
    let timing = f.system.timing();
    let mut group = c.benchmark_group("priorities");
    group.bench_function("full_recompute", |b| {
        b.iter(|| {
            ftes_sched::longest_path_to_sink(black_box(app), timing, &f.arch, &f.mapping).unwrap()
        })
    });
    group.bench_function("delta_remap_one", |b| {
        let mut cache = PriorityCache::new();
        let mut mapping = f.mapping.clone();
        cache.sync(app, timing, &f.arch, &mapping).unwrap();
        let p = ProcessId::new(0);
        let home = mapping.node_of(p);
        let away = NodeId::new(u32::from(home.index() == 0));
        b.iter(|| {
            mapping.assign(p, away);
            cache.sync(app, timing, &f.arch, &mapping).unwrap();
            mapping.assign(p, home);
            cache.sync(app, timing, &f.arch, &mapping).unwrap();
        })
    });
    group.bench_function("delta_rehardening", |b| {
        let mut cache = PriorityCache::new();
        let mut arch = f.arch.clone();
        cache.sync(app, timing, &arch, &f.mapping).unwrap();
        let up = HLevel::new(2).unwrap();
        let down = HLevel::MIN;
        b.iter(|| {
            arch.set_hardening(NodeId::new(0), up);
            cache.sync(app, timing, &arch, &f.mapping).unwrap();
            arch.set_hardening(NodeId::new(0), down);
            cache.sync(app, timing, &arch, &f.mapping).unwrap();
        })
    });
    group.finish();
}

/// The incremental engine's per-probe paths: an executed hardening delta
/// and a full tabu-memo revisit.
fn bench_memo_paths(c: &mut Criterion) {
    let f = fixture(GraphShape::Paper, 0);
    let config = OptConfig::default();
    let mut group = c.benchmark_group("memo");
    group.bench_function("hardening_delta_executed", |b| {
        let mut evaluator = Evaluator::new(&f.system, &config);
        let mut arch = f.arch.clone();
        evaluator.evaluate(&arch, &f.mapping).unwrap();
        let up = HLevel::new(2).unwrap();
        let down = HLevel::MIN;
        // Alternating hardening levels time the executed delta path (SFP
        // + priorities + run_light) on both directions of a step.
        b.iter(|| {
            arch.set_hardening(NodeId::new(0), up);
            let a = evaluator.evaluate(&arch, &f.mapping).unwrap();
            arch.set_hardening(NodeId::new(0), down);
            let b2 = evaluator.evaluate(&arch, &f.mapping).unwrap();
            (a, b2)
        })
    });
    group.bench_function("tabu_memo_hit", |b| {
        let mut search = Search::new(&f.system, &config);
        search.redundancy_opt(&f.arch, &f.mapping).unwrap();
        b.iter(|| search.redundancy_opt(&f.arch, &f.mapping).unwrap())
    });
    let no_memo = OptConfig {
        mapping_memo: MemoCap(0),
        ..OptConfig::default()
    };
    group.bench_function("tabu_unmemoized_revisit", |b| {
        let mut search = Search::new(&f.system, &no_memo);
        search.redundancy_opt(&f.arch, &f.mapping).unwrap();
        b.iter(|| search.redundancy_opt(&f.arch, &f.mapping).unwrap())
    });
    group.finish();
}

/// The PR 6 batched kernel: one `score_neighborhood` walk over a tabu
/// iteration's probes vs the per-probe reference loop it replaced, and
/// the SoA `SystemSfp` delta splice on a memoized configuration flip.
fn bench_batched(c: &mut Criterion) {
    let f = fixture(GraphShape::Paper, 0);
    let config = OptConfig {
        mapping_memo: MemoCap(0),
        ..OptConfig::default()
    };
    let timing = f.system.timing();
    // A full single-node-re-map neighborhood, as one tabu iteration
    // would collect it.
    let probes: Vec<(ProcessId, NodeId)> = f
        .system
        .application()
        .process_ids()
        .flat_map(|p| {
            let from = f.mapping.node_of(p);
            f.arch
                .node_ids()
                .filter(|&node| node != from && timing.supports(p, f.arch.node_type(node)))
                .map(move |node| (p, node))
                .collect::<Vec<_>>()
        })
        .collect();

    let mut group = c.benchmark_group("batched");
    group.bench_function(BenchmarkId::new("score_neighborhood", probes.len()), |b| {
        let mut search = Search::new(&f.system, &config);
        let mut mapping = f.mapping.clone();
        let mut outcomes = Vec::new();
        b.iter(|| {
            search
                .score_neighborhood(&f.arch, &mut mapping, black_box(&probes), &mut outcomes)
                .unwrap();
            outcomes.len()
        })
    });
    group.bench_function(BenchmarkId::new("per_probe_reference", probes.len()), |b| {
        let mut search = Search::new(&f.system, &config);
        let mut mapping = f.mapping.clone();
        let mut outcomes = Vec::new();
        b.iter(|| {
            outcomes.clear();
            for &(p, node) in &probes {
                let from = mapping.node_of(p);
                mapping.assign(p, node);
                let out = search.redundancy_opt(&f.arch, &mapping).unwrap();
                mapping.assign(p, from);
                outcomes.push(out);
            }
            outcomes.len()
        })
    });
    // The SoA delta update in isolation: flip one node between two
    // already-memoized configurations — each `set_node_probs` is a memo
    // hit followed by a contiguous-buffer splice.
    group.bench_function("soa_set_node_probs_memoized_flip", |b| {
        use ftes_model::Prob;
        use ftes_sfp::{Rounding, SystemSfp};
        let a: Vec<Prob> = (0..10)
            .map(|i| Prob::new(1e-5 * (i + 1) as f64).unwrap())
            .collect();
        let alt: Vec<Prob> = (0..10)
            .map(|i| Prob::new(2e-5 * (i + 1) as f64).unwrap())
            .collect();
        let mut sfp = SystemSfp::new(4, 16, Rounding::Pessimistic);
        for j in 0..4 {
            sfp.set_node_probs(j, &a);
        }
        sfp.set_node_probs(0, &alt);
        b.iter(|| {
            sfp.set_node_probs(0, black_box(&a));
            sfp.set_node_probs(0, black_box(&alt));
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_run_light,
    bench_priorities,
    bench_memo_paths,
    bench_batched
);
criterion_main!(benches);
