//! `explore`: the paper's design loop alone. One thread runs
//! `design_strategy` (`sweep_opt_config(Opt)`, `Threads(1)`) over seeded
//! Section 7 instances, one design at a time, closed loop.
//!
//! The deadline factor sets most of a design's cost: a mean of about
//! 50 ms at the tight end of the Section 7 range (1.25x) against 0.3 ms
//! at the loose end (3x). The loose half costs 2% of the design time, yet
//! it holds half the designs and puts the median among sub-millisecond
//! ones, where a thousand designs per run moved the median by 10-25%
//! from one seed to the next. So the instances come from the tight half,
//! [`DEADLINE_FACTOR`], cut into [`STRATA`] equal slices that consecutive
//! pairs of instances (one 20- and one 40-process graph) cycle through:
//! every run samples the range evenly.

use std::time::Instant;

use ftes_bench::{sweep_opt_config, Strategy};
use ftes_gen::{generate_instance, ExperimentConfig};
use ftes_model::System;
use ftes_opt::design_strategy;

use crate::engine::{self, EngineLayer};
use crate::env::{Context, Rng};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// The tight half of the Section 7 deadline-factor range (1.25-3x).
const DEADLINE_FACTOR: (f64, f64) = (1.25, 2.0);
/// Deadline-factor slices the instances cycle through.
const STRATA: u64 = 12;
/// Designs per full cycle of the strata (a 20- and a 40-process graph
/// each).
const CYCLE: u64 = 2 * STRATA;
/// Instances generated per set-up: more than a run designs, so every
/// design in a run is a distinct instance.
const POOL: u64 = 80 * CYCLE;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Designs whose counters the traced run reports (a fixed prefix, so
/// the counts repeat exactly for a seed).
const COUNT_PREFIX: usize = 8 * CYCLE as usize;

/// The `j`-th instance: generated under the Section 7 condition with its
/// deadline factor drawn from slice `(j / 2) % STRATA` of
/// [`DEADLINE_FACTOR`].
fn instance(base: &ExperimentConfig, j: u64) -> System {
    let (lo, hi) = DEADLINE_FACTOR;
    let width = (hi - lo) / STRATA as f64;
    let k = ((j / 2) % STRATA) as f64;
    let cfg = ExperimentConfig {
        deadline_factor: (lo + k * width, lo + (k + 1.0) * width),
        ..*base
    };
    generate_instance(&cfg, j)
}

pub fn run(ctx: &Context, r: &mut Report) -> Result<(), String> {
    let traced = ctx.args.trace;
    let mut tracer = Tracer::new(false);
    let cfg = ExperimentConfig {
        seed: Rng::stream(ctx.args.seed, 1).next_u64(),
        ..ExperimentConfig::default()
    };

    let mut setup_s = Vec::new();
    let mut systems: Vec<System> = Vec::new();
    for rep in 0..SETUP_REPS {
        // Span the last set-up only, so spans never slow the timed ones.
        tracer.set_enabled(traced && rep + 1 == SETUP_REPS);
        let start = Instant::now();
        systems = (0..POOL)
            .map(|i| {
                let t = Instant::now();
                let s = instance(&cfg, i);
                tracer.record("gen.generate_instance", i, None, t, Instant::now());
                s
            })
            .collect();
        setup_s.push(start.elapsed().as_secs_f64());
    }
    tracer.set_enabled(false);

    let opt = sweep_opt_config(Strategy::Opt);
    let mut layer = EngineLayer::default();
    let mut latencies_ms = Vec::new();
    let mut design_s = 0.0f64;
    let mut signatures: Vec<u64> = Vec::new();
    let (mut infeasible, mut verified) = (0u64, 0u64);
    let (mut twin_traced_s, mut twin_plain_s) = (0.0f64, 0.0f64);

    // A traced run designs for half the time: the sweep probes after
    // the designs take about as long again.
    let budget = if traced {
        ctx.args.budget() / 2
    } else {
        ctx.args.budget()
    };
    let started = Instant::now();
    let mut i = 0u64;
    // Whole cycles only, so every run samples the strata evenly.
    while !i.is_multiple_of(CYCLE)
        || started.elapsed() < budget
        || (traced && (i as usize) < COUNT_PREFIX)
    {
        let idx = i % POOL;
        let system = &systems[idx as usize];
        r.attempted += 1;
        // Traced runs design each instance twice, once with the span
        // recorded and once without, alternating which goes first: the
        // difference is the tracing overhead.
        let run_one = |tracer: &mut Tracer, on: bool| {
            tracer.set_enabled(on);
            let t = Instant::now();
            let out = design_strategy(system, &opt);
            let end = Instant::now();
            let span = tracer.record("opt.design_strategy", i, None, t, end);
            tracer.set_enabled(false);
            (out, end - t, span)
        };
        let (out, took, span) = if traced {
            let first_traced = i.is_multiple_of(2);
            let a = run_one(&mut tracer, first_traced);
            let b = run_one(&mut tracer, !first_traced);
            let ((t_out, t_took, t_span), (_, p_took, _)) =
                if first_traced { (a, b) } else { (b, a) };
            twin_traced_s += t_took.as_secs_f64();
            twin_plain_s += p_took.as_secs_f64();
            (t_out, t_took, t_span)
        } else {
            run_one(&mut tracer, false)
        };
        latencies_ms.push(took.as_secs_f64() * 1e3);
        design_s += took.as_secs_f64();

        let sig = engine::signature(out.as_ref().ok().and_then(Option::as_ref));
        if idx as usize == signatures.len() {
            signatures.push(sig);
        } else if signatures[idx as usize] != sig {
            r.problem(format!(
                "instance {idx}: counters differ on its second design (nondeterminism)"
            ));
        }
        let checked = match &out {
            Err(e) => Err(format!("design_strategy failed: {e}")),
            Ok(None) => {
                infeasible += 1;
                Ok(())
            }
            Ok(Some(o)) => {
                if (i as usize) < COUNT_PREFIX {
                    layer.count(&o.stats);
                }
                if traced {
                    tracer.set_enabled(true);
                    let res = layer.probe(system, &opt, &o.solution, &mut tracer, i, span);
                    tracer.set_enabled(false);
                    res
                } else {
                    engine::verify(system, &opt, &o.solution).map(|_| ())
                }
            }
        };
        match checked {
            Ok(()) => verified += 1,
            Err(e) => {
                r.failed += 1;
                r.problem(format!("design {i}: {e}"));
            }
        }
        i += 1;
    }

    // In-process repeat: the first two instances designed again must
    // reproduce their counters exactly.
    for idx in 0..2.min(signatures.len()) {
        let again = design_strategy(&systems[idx], &opt).map_err(|e| e.to_string())?;
        if engine::signature(again.as_ref()) != signatures[idx] {
            r.problem(format!(
                "instance {idx}: counters differ when designed again (nondeterminism)"
            ));
        }
    }
    if let Err(e) = ctx.repeat_guard("explore", &signatures) {
        r.problem(e);
    }

    r.put(
        "throughput_per_s",
        verified as f64 / design_s.max(1e-9),
        "1/s",
        format!(
            "{verified} verified designs of {i} ({infeasible} infeasible) in {design_s:.3} s of design time"
        ),
    );
    r.put_latency("latency_p50_ms", "latency_p95_ms", &latencies_ms);
    r.put_setup(&setup_s, &format!("generate {POOL} instances"));

    if traced {
        let gen_ms = tracer.durations_ms("gen.generate_instance");
        r.put(
            "gen.instance_ms",
            median(&gen_ms),
            "ms",
            format!("median, n={}", gen_ms.len()),
        );
        layer.report(r, &tracer.self_times_ms("opt.design_strategy"));
        r.put_overhead(
            twin_traced_s,
            twin_plain_s,
            "designs, each run traced and untraced",
        );
        // The sweep delivery layers, on the seed's matrix cells.
        tracer.set_enabled(true);
        let digests = crate::dist::probe(ctx, &mut tracer, r)?;
        if let Err(e) = ctx.repeat_guard("sweeps", &digests) {
            r.problem(e);
        }
        crate::write_spans(ctx, &tracer, r);
    }
    r.note(format!(
        "explore: {i} designs over {} distinct instances, wall {:.3} s",
        signatures.len(),
        started.elapsed().as_secs_f64()
    ));
    Ok(())
}
