//! Seeded benchmark of the ftes workspace: two workloads that drive the
//! program through its public entry points at its own defaults, an
//! untraced mode for the end-to-end metrics and a traced mode for the
//! per-layer ones. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload explore|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last stdout line is the result
//! object; the lines before it give every metric with its unit and its
//! sample or base counts.

mod dist;
mod engine;
mod env;
mod explore;
mod matrix;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use env::{Args, Context, USAGE};
use report::Report;
use trace::Tracer;

/// The benchmark's definition: its workloads and metric lists are read
/// from here, so they are kept in one place.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` items of one list of [`BENCHMARK_JSON`]
/// (`workloads`, `end_to_end` or `per_layer`); a workload's unit is "".
pub fn listed(key: &str) -> Vec<(&'static str, &'static str)> {
    let text = BENCHMARK_JSON;
    let start = text
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"));
    let end = start + text[start..].find(']').expect("closed list");
    let field = |item: &'static str, name: &str| {
        item.split(&format!("\"{name}\": \""))
            .nth(1)
            .and_then(|v| v.split('"').next())
            .unwrap_or("")
    };
    text[start..end]
        .split('{')
        .skip(1)
        .map(|item| (field(item, "name"), field(item, "unit")))
        .collect()
}

/// Writes a traced run's spans to the state directory.
pub fn write_spans(ctx: &Context, tracer: &Tracer, r: &mut Report) {
    let path = ctx.state.join(format!(
        "spans-{}-{}.jsonl",
        ctx.args.workload, ctx.args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => r.note(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => r.problem(format!("cannot write {}: {e}", path.display())),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let ctx = Context::new(args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    println!("{}", ctx.box_line());
    let mut r = Report::default();
    let ran = match ctx.args.workload.as_str() {
        "explore" => explore::run(&ctx, &mut r),
        "serve" => serve::run(&ctx, &mut r),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = ran {
        // Nothing was measured: no result line.
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let (mut keep, mut other) = (listed("end_to_end"), listed("per_layer"));
    if ctx.args.trace {
        std::mem::swap(&mut keep, &mut other);
    }
    for line in r.lines() {
        println!("{line}");
    }
    r.select(&keep, &other);
    for p in &r.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", r.result_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lists_are_read_from_benchmark_json() {
        let workloads: Vec<_> = listed("workloads").iter().map(|w| w.0).collect();
        assert_eq!(workloads, ["explore", "serve"]);
        let e2e = listed("end_to_end");
        assert!(e2e.contains(&("setup_s", "s")), "{e2e:?}");
        assert!(e2e.contains(&("throughput_per_s", "1/s")), "{e2e:?}");
        let layers = listed("per_layer");
        assert!(layers.contains(&("cache.hit_ratio", "ratio")), "{layers:?}");
        assert!(layers
            .iter()
            .all(|(n, u)| !n.is_empty() && !u.is_empty() && !e2e.iter().any(|m| m.0 == *n)));
    }
}
