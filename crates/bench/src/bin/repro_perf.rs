//! Perf harness for the design-space exploration: times `design_strategy`
//! on the paper systems and a synthetic batch under two pipelines —
//!
//! * `scratch`     — from-scratch evaluation (the pre-PR 2 baseline,
//!   `EvalMode::Scratch`);
//! * `incremental` — the full incremental engine: incremental SFP,
//!   priority delta cache + mapping-outcome memo, and the batched
//!   allocation-free core — SoA `SystemSfp`,
//!   candidate arena and the one-walk `score_neighborhood` kernel.
//!
//! Both return bit-identical solutions (verified per run); the
//! interesting output is the wall-clock trajectory, written as
//! machine-readable JSON so future PRs can compare against it.
//!
//! ```text
//! repro_perf [--smoke] [--apps N] [--series N] [--out PATH]
//!            [--baseline PATH] [--floor X] [--check-floor PATH]
//! ```
//!
//! Defaults: 12 synthetic applications, 3 series (each pipeline is timed
//! `--series` times and the best wall time is kept — the best-of protocol
//! suppresses scheduler noise on the shared runner), output to
//! `BENCH_PR6.json` — the engine counters (batched probes, arena reuses),
//! the committed CI floor (`--floor`) and, as `worker_threads`, the box's
//! CPU count.
//!
//! * `--smoke` shrinks the batch to 2 applications and 1 series for CI
//!   (the harness is exercised end to end; the timings are not
//!   meaningful).
//! * `--baseline FILE` adds a `comparison` block: the synthetic
//!   incremental wall time recorded in an earlier artifact of this
//!   harness, this run's, and their ratio. The file is read before the
//!   run; an unreadable file, or one without that timing, prints one
//!   line naming the flag and the path and exits 2.
//! * `--check-floor PATH` reads `ci_floor_speedup` from a committed
//!   `BENCH_PR6.json` and exits non-zero when this run's synthetic
//!   incremental-vs-scratch speedup falls below it — the CI perf-smoke
//!   regression gate. The file is read before the run: an unreadable
//!   file, or one without exactly one `ci_floor_speedup` number, prints
//!   one line naming the flag and the path and exits 2.
//!
//! A missing or malformed flag value prints a one-line error naming the
//! flag, then the usage, and exits 2.

use std::time::Instant;

use ftes_bench::cli::{parse_value, take_value};
use ftes_bench::sweep_opt_config;
use ftes_bench::Strategy;
use ftes_gen::{generate_instance, ExperimentConfig};
use ftes_model::System;
use ftes_opt::{design_strategy, EvalMode, ExplorationStats, OptConfig, Threads};

/// One timed run of `design_strategy` over a set of systems.
struct ModeResult {
    seconds: f64,
    costs: Vec<Option<u64>>,
    /// Architectures walked (evaluated or pruned), for the walk rate.
    architectures: u64,
    /// [`ExplorationStats::counters`], summed over the systems.
    counters: Vec<(&'static str, u64)>,
}

fn run_mode_once(systems: &[System], config: &OptConfig) -> ModeResult {
    let start = Instant::now();
    let mut result = ModeResult {
        seconds: 0.0,
        costs: Vec::with_capacity(systems.len()),
        architectures: 0,
        counters: ExplorationStats::default().counters().collect(),
    };
    for system in systems {
        let outcome = design_strategy(system, config).expect("generated systems are valid");
        match outcome {
            Some(out) => {
                result.costs.push(Some(out.solution.cost.units()));
                result.architectures +=
                    u64::from(out.stats.architectures_evaluated + out.stats.architectures_pruned);
                for (total, (_, value)) in result.counters.iter_mut().zip(out.stats.counters()) {
                    total.1 += value;
                }
            }
            None => result.costs.push(None),
        }
    }
    result.seconds = start.elapsed().as_secs_f64();
    result
}

/// Best-of-`series` protocol: each pipeline is timed `series` times and
/// the fastest run is reported (the counters and costs of every run are
/// identical by construction — only the wall clock varies).
fn run_mode(systems: &[System], config: &OptConfig, series: usize) -> ModeResult {
    let mut best = run_mode_once(systems, config);
    for _ in 1..series {
        let next = run_mode_once(systems, config);
        assert_eq!(best.costs, next.costs, "series runs must agree");
        if next.seconds < best.seconds {
            best = next;
        }
    }
    best
}

/// One pipeline's JSON object: its wall time and walk rate, then every
/// counter under its field name.
fn mode_json(name: &str, mode: &ModeResult) -> String {
    let mut out = format!(
        "    \"{name}\": {{\n      \"wall_seconds\": {:.6},\n      \"architectures_per_second\": {:.3}",
        mode.seconds,
        mode.architectures as f64 / mode.seconds.max(1e-12),
    );
    for (key, value) in &mode.counters {
        out.push_str(&format!(",\n      \"{key}\": {value}"));
    }
    out.push_str("\n    }");
    out
}

/// The pipeline timings of one system set.
struct SetResult {
    json: String,
    incremental_seconds: f64,
    speedup_incremental: f64,
}

/// Times the two pipelines over one set of systems and renders the JSON
/// object body (plus a human-readable summary on stderr).
fn bench_set(label: &str, systems: &[System], base: &OptConfig, series: usize) -> SetResult {
    let scratch_cfg = OptConfig {
        eval_mode: EvalMode::Scratch,
        ..base.clone()
    };
    let incremental_cfg = OptConfig {
        eval_mode: EvalMode::Incremental,
        ..base.clone()
    };

    let scratch = run_mode(systems, &scratch_cfg, series);
    let incremental = run_mode(systems, &incremental_cfg, series);

    assert_eq!(
        scratch.costs, incremental.costs,
        "{label}: incremental diverged from scratch"
    );

    let speedup_incremental = scratch.seconds / incremental.seconds.max(1e-12);
    let counters: Vec<String> = incremental
        .counters
        .iter()
        .map(|(key, value)| format!("{key}={value}"))
        .collect();
    eprintln!(
        "{label}: scratch {:.3}s | incremental {:.3}s ({speedup_incremental:.2}x) | {}",
        scratch.seconds,
        incremental.seconds,
        counters.join(" "),
    );

    let json = format!(
        "  \"{}\": {{\n{},\n{},\n    \"speedup_incremental\": {:.3}\n  }}",
        label,
        mode_json("scratch", &scratch),
        mode_json("incremental", &incremental),
        speedup_incremental,
    );
    SetResult {
        json,
        incremental_seconds: incremental.seconds,
        speedup_incremental,
    }
}

/// Extracts the number after a nested key path from one of this
/// harness's own JSON documents (plain substring narrowing — the format
/// is ours, not arbitrary JSON).
fn json_number(text: &str, path: &[&str]) -> Option<f64> {
    let mut at = 0usize;
    for key in path {
        let pat = format!("\"{key}\":");
        at += text[at..].find(&pat)? + pat.len();
    }
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && c != 'e' && c != '+' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads `ci_floor_speedup` from the floor document at `path` (the
/// `--check-floor` file). The key must appear exactly once: with two,
/// [`json_number`] would silently take the first.
fn read_floor(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("--check-floor: cannot read {path}: {e}"))?;
    match text.matches("\"ci_floor_speedup\"").count() {
        1 => json_number(&text, &["ci_floor_speedup"])
            .ok_or_else(|| format!("--check-floor: ci_floor_speedup in {path} is not a number")),
        0 => Err(format!("--check-floor: no ci_floor_speedup in {path}")),
        n => Err(format!(
            "--check-floor: ci_floor_speedup appears {n} times in {path}"
        )),
    }
}

/// Reads the synthetic incremental wall time from the artifact at `path`
/// (the `--baseline` file).
fn read_baseline(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("--baseline: cannot read {path}: {e}"))?;
    json_number(&text, &["synthetic", "incremental", "wall_seconds"])
        .ok_or_else(|| format!("--baseline: no synthetic incremental wall_seconds in {path}"))
}

/// The comparison block: the baseline's synthetic incremental wall time
/// against this run's.
fn comparison_json(path: &str, baseline_seconds: f64, seconds: f64) -> String {
    let ratio = baseline_seconds / seconds.max(1e-12);
    eprintln!(
        "vs {path}: synthetic incremental {baseline_seconds:.3}s -> {seconds:.3}s = {ratio:.2}x"
    );
    format!(
        concat!(
            "  \"comparison\": {{\n",
            "    \"baseline\": \"{}\",\n",
            "    \"baseline_incremental_wall_seconds\": {:.6},\n",
            "    \"incremental_wall_seconds\": {:.6},\n",
            "    \"speedup\": {:.3}\n",
            "  }},\n"
        ),
        path, baseline_seconds, seconds, ratio,
    )
}

/// The usage block printed (to stderr) with every CLI error.
const USAGE: &str = "usage: repro_perf [--smoke] [--apps N] [--series N] [--out PATH] \
     [--baseline PATH] [--floor X] [--check-floor PATH]";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    smoke: bool,
    apps: usize,
    series: usize,
    out: Option<String>,
    baseline: Option<String>,
    floor: f64,
    check_floor: Option<String>,
}

/// Parses the whole command line. Every rejection — an unknown flag, a
/// missing or malformed value — is a one-line error; the caller prints
/// it plus [`USAGE`] and exits 2.
fn parse_cli(raw: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        smoke: false,
        apps: 12,
        series: 3,
        out: None,
        baseline: None,
        floor: 1.5,
        check_floor: None,
    };
    let mut args = raw.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--apps" => cli.apps = parse_value(&mut args, "--apps", "an application count")?,
            "--series" => cli.series = parse_value(&mut args, "--series", "a run count")?,
            "--out" => cli.out = Some(take_value(&mut args, "--out", "a path")?),
            "--baseline" => cli.baseline = Some(take_value(&mut args, "--baseline", "a path")?),
            "--floor" => cli.floor = parse_value(&mut args, "--floor", "a speedup ratio")?,
            "--check-floor" => {
                cli.check_floor = Some(take_value(&mut args, "--check-floor", "a path")?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&raw).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    // Read before the run, so a bad floor or baseline file fails at once.
    let exit_on_error = |e: String| -> f64 {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let floor = cli
        .check_floor
        .map(|path| (read_floor(&path).unwrap_or_else(exit_on_error), path));
    let baseline = cli
        .baseline
        .map(|path| (read_baseline(&path).unwrap_or_else(exit_on_error), path));
    let smoke = cli.smoke;
    let (apps, series) = if smoke {
        (cli.apps.min(2), 1)
    } else {
        (cli.apps, cli.series.max(1))
    };
    let pr = 6u32;
    let out = cli.out.unwrap_or_else(|| format!("BENCH_PR{pr}.json"));

    // The paper's two walked examples, at the paper's configuration.
    let paper_systems = vec![
        ftes_model::paper::fig1_system(),
        ftes_model::paper::fig3_system(),
    ];
    let paper = bench_set("paper", &paper_systems, &OptConfig::default(), series);

    // The synthetic Section 7 batch (alternating 20/40-process graphs on
    // the default condition), under the sweep configuration the Fig. 6
    // machinery uses.
    let condition = ExperimentConfig::default();
    let synthetic: Vec<System> = (0..apps as u64)
        .map(|i| generate_instance(&condition, i))
        .collect();
    let sweep_cfg = sweep_opt_config(Strategy::Opt);
    let synthetic_set = bench_set("synthetic", &synthetic, &sweep_cfg, series);

    // The floor only means something for the full-batch protocol, so
    // smoke artifacts omit it (CI reads the floor from the *committed*
    // BENCH_PR6.json, never from its own smoke output).
    let mut extra = String::new();
    if !smoke {
        extra.push_str(&format!("  \"ci_floor_speedup\": {:.3},\n", cli.floor));
    }
    if let Some((baseline_seconds, path)) = &baseline {
        extra.push_str(&comparison_json(
            path,
            *baseline_seconds,
            synthetic_set.incremental_seconds,
        ));
    }

    let threads = Threads(0).resolve();
    let json = format!(
        "{{\n  \"bench\": \"repro_perf\",\n  \"pr\": {pr},\n  \"smoke\": {smoke},\n  \
         \"apps\": {apps},\n  \"series\": {series},\n  \"worker_threads\": {threads},\n{extra}{},\n{}\n}}\n",
        paper.json, synthetic_set.json,
    );
    std::fs::write(&out, &json).expect("write BENCH json");
    println!("{json}");
    eprintln!("wrote {out}");

    if let Some((committed_floor, path)) = floor {
        let measured = synthetic_set.speedup_incremental;
        if measured < committed_floor {
            eprintln!(
                "PERF REGRESSION: synthetic incremental-vs-scratch speedup {measured:.2}x \
                 is below the committed floor {committed_floor:.2}x (from {path})"
            );
            std::process::exit(1);
        }
        eprintln!("perf floor ok: {measured:.2}x >= {committed_floor:.2}x (from {path})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&raw)
    }

    #[test]
    fn mode_json_keys_each_counter_by_its_field_name_once() {
        let mut stats = ExplorationStats {
            architectures_evaluated: 1,
            architectures_pruned: 2,
            ..ExplorationStats::default()
        };
        stats.eval.evaluations = 4;
        stats.eval.mapping_memo_hits = 11;
        stats.eval.arena_reuses = 14;
        let mode = ModeResult {
            seconds: 2.0,
            costs: Vec::new(),
            architectures: 3,
            counters: stats.counters().collect(),
        };
        let json = format!("{{\n{}\n}}", mode_json("incremental", &mode));
        assert_eq!(
            json_number(&json, &["incremental", "architectures_per_second"]),
            Some(1.5)
        );
        for (key, value) in stats.counters() {
            assert_eq!(json.matches(&format!("\"{key}\":")).count(), 1, "{key}");
            assert_eq!(
                json_number(&json, &["incremental", key]),
                Some(value as f64),
                "{key}"
            );
        }
        // The object's own key, the two timings, the 13 counters.
        assert_eq!(json.matches("\":").count(), 1 + 2 + 13, "{json}");
    }

    #[test]
    fn flags_parse_onto_the_defaults() {
        let cli = parse(&["--smoke", "--apps", "4", "--check-floor", "BENCH_PR6.json"]).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.apps, 4);
        assert_eq!(cli.series, 3);
        assert_eq!(cli.baseline, None);
        assert_eq!(cli.check_floor.as_deref(), Some("BENCH_PR6.json"));
        assert!(parse(&["--bench-pr6"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn malformed_values_error_naming_the_flag() {
        for (args, flag) in [
            (&["--apps", "x"][..], "--apps"),
            (&["--series", "-1"][..], "--series"),
            (&["--floor", "fast"][..], "--floor"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(flag), "{args:?} error {err:?}");
            assert!(err.contains("invalid value"), "{args:?} error {err:?}");
        }
    }

    #[test]
    fn floor_file_must_be_readable_and_hold_the_key_once() {
        let dir = std::env::temp_dir().join(format!("repro-perf-floor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_string()
        };
        let ok = write(
            "ok.json",
            "{\n  \"pr\": 6,\n  \"ci_floor_speedup\": 1.500\n}\n",
        );
        assert_eq!(read_floor(&ok), Ok(1.5));
        let missing = dir.join("missing.json").to_str().unwrap().to_string();
        let no_key = write("no_key.json", "{\"pr\": 6}\n");
        let twice = write(
            "twice.json",
            "{\"ci_floor_speedup\": 0.100, \"ci_floor_speedup\": 99.0}\n",
        );
        for (path, why) in [
            (&missing, "cannot read"),
            (&no_key, "no ci_floor_speedup"),
            (&twice, "appears 2 times"),
        ] {
            let err = read_floor(path).unwrap_err();
            assert!(err.starts_with("--check-floor"), "{err:?}");
            assert!(err.contains(path.as_str()) && err.contains(why), "{err:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn baseline_file_must_hold_the_synthetic_incremental_time() {
        // The committed artifacts are the baselines a run compares with.
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR6.json");
        assert_eq!(read_baseline(committed), Ok(0.111279));
        let err = read_baseline("no/such/baseline.json").unwrap_err();
        assert!(err.starts_with("--baseline: cannot read"), "{err:?}");
        let dir = std::env::temp_dir().join(format!("repro-perf-base-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paper_only.json");
        std::fs::write(
            &path,
            "{\"paper\": {\"incremental\": {\"wall_seconds\": 1}}}\n",
        )
        .unwrap();
        let path = path.to_str().unwrap();
        let err = read_baseline(path).unwrap_err();
        assert!(
            err.starts_with("--baseline: no synthetic") && err.contains(path),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_values_error_instead_of_panicking() {
        for flag in [
            "--apps",
            "--series",
            "--out",
            "--baseline",
            "--floor",
            "--check-floor",
        ] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.starts_with(flag), "{flag} error {err:?}");
            assert!(err.contains("missing value"), "{flag} error {err:?}");
        }
    }
}
