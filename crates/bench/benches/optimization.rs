//! Criterion benchmarks of the design-optimization heuristics: the
//! hardening/re-execution trade-off, the tabu-search mapping optimization
//! and the full design strategy.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ftes_bench::{sweep_opt_config, Strategy};
use ftes_gen::{generate_instance, ExperimentConfig};
use ftes_model::{paper, Architecture};
use ftes_opt::{design_strategy, initial_mapping, Objective, Search};

fn bench_redundancy_opt(c: &mut Criterion) {
    let sys = paper::fig1_system();
    let (base, mapping) = paper::fig4_alternative('a');
    let cfg = ftes_opt::OptConfig::default();
    c.bench_function("redundancy_opt_fig4a", |b| {
        b.iter(|| {
            Search::new(&sys, &cfg)
                .redundancy_opt(black_box(&base), &mapping)
                .unwrap()
        })
    });
}

fn bench_mapping_algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping_algorithm");
    group.sample_size(10);
    for index in [0u64, 1] {
        let sys = generate_instance(&ExperimentConfig::default(), index);
        let types: Vec<_> = sys.platform().ids_fastest_first()[..2].to_vec();
        let base = Architecture::with_min_hardening(&types);
        let cfg = sweep_opt_config(Strategy::Opt);
        let n = sys.application().process_count();
        group.bench_with_input(BenchmarkId::new("procs", n), &sys, |b, sys| {
            b.iter(|| {
                Search::new(sys, &cfg)
                    .mapping_algorithm(&base, Objective::ScheduleLength, None, None)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_design_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("design_strategy");
    group.sample_size(10);
    for (label, strategy) in [
        ("min", Strategy::Min),
        ("max", Strategy::Max),
        ("opt", Strategy::Opt),
    ] {
        let sys = generate_instance(&ExperimentConfig::default(), 0);
        let cfg = sweep_opt_config(strategy);
        group.bench_function(label, |b| {
            b.iter(|| design_strategy(black_box(&sys), &cfg).unwrap())
        });
    }
    group.finish();
}

fn bench_initial_mapping(c: &mut Criterion) {
    let sys = generate_instance(&ExperimentConfig::default(), 1);
    let types: Vec<_> = sys.platform().ids_fastest_first();
    let base = Architecture::with_min_hardening(&types);
    c.bench_function("initial_mapping_40procs", |b| {
        b.iter(|| initial_mapping(black_box(&sys), &base).unwrap())
    });
}

criterion_group!(
    benches,
    bench_redundancy_opt,
    bench_mapping_algorithm,
    bench_design_strategy,
    bench_initial_mapping
);
criterion_main!(benches);
