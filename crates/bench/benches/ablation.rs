//! Ablation benchmarks for two design choices of the reproduction:
//!
//! * **slack sharing** (the paper's Section 6.4 contribution) vs naive
//!   exclusive per-process slack — measured as scheduler throughput *and*
//!   reported (via Criterion's output) as the schedulability each model
//!   achieves on a synthetic batch;
//! * **pessimistic 1e-11 rounding** vs exact SFP arithmetic in the
//!   re-execution optimization.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ftes_gen::{generate_instance, ExperimentConfig};
use ftes_model::Prob;
use ftes_opt::initial_mapping;
use ftes_sched::{schedule_with, SlackModel};
use ftes_sfp::{ReExecutionOpt, Rounding};

fn bench_slack_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("slack_model");
    let sys = generate_instance(&ExperimentConfig::default(), 1); // 40 procs
    let arch =
        ftes_model::Architecture::with_min_hardening(&sys.platform().ids_fastest_first()[..3]);
    let mapping = initial_mapping(&sys, &arch).unwrap();

    // Report the ablation outcome once, so the bench log documents it.
    let shared = schedule_with(
        sys.application(),
        sys.timing(),
        &arch,
        &mapping,
        &[2, 2, 2],
        sys.bus(),
        SlackModel::Shared,
    )
    .unwrap();
    let naive = schedule_with(
        sys.application(),
        sys.timing(),
        &arch,
        &mapping,
        &[2, 2, 2],
        sys.bus(),
        SlackModel::PerProcess,
    )
    .unwrap();
    eprintln!(
        "[ablation] worst-case length shared = {}, per-process = {} (+{:.0}%)",
        shared.wc_length(),
        naive.wc_length(),
        100.0 * ((naive.wc_length() - shared.wc_length()) / shared.wc_length())
    );

    for (label, model) in [
        ("shared", SlackModel::Shared),
        ("per_process", SlackModel::PerProcess),
    ] {
        group.bench_with_input(BenchmarkId::new("model", label), &model, |b, &m| {
            b.iter(|| {
                schedule_with(
                    sys.application(),
                    sys.timing(),
                    &arch,
                    &mapping,
                    black_box(&[2, 2, 2]),
                    sys.bus(),
                    m,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_rounding_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfp_rounding");
    let node_probs: Vec<Vec<Prob>> = (0..3)
        .map(|j| {
            (0..12)
                .map(|i| Prob::new(1e-4 * (1.0 + (i + j) as f64 / 10.0)).unwrap())
                .collect()
        })
        .collect();
    let goal = ftes_model::ReliabilityGoal::per_hour(1e-5).unwrap();
    let period = ftes_model::TimeUs::from_ms(360);
    for (label, rounding) in [
        ("pessimistic", Rounding::Pessimistic),
        ("exact", Rounding::Exact),
    ] {
        group.bench_with_input(BenchmarkId::new("mode", label), &rounding, |b, &r| {
            b.iter(|| {
                ReExecutionOpt::new(30, r)
                    .optimize(black_box(&node_probs), goal, period)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_slack_models, bench_rounding_modes);
criterion_main!(benches);
