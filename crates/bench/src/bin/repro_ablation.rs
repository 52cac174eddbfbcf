//! Quantifies the paper's shared-recovery-slack design choice
//! (Section 6.4): schedulability of the same configurations under the
//! paper's *shared* slack vs naive exclusive per-process slack.
//!
//! ```text
//! repro_ablation [--apps N]
//! ```
//!
//! For every synthetic application the minimum-hardening architecture of
//! the three fastest node types is evaluated: re-execution budgets from
//! the SFP analysis, then one schedule per slack model.

use ftes_bench::cli::parse_value;
use ftes_gen::{generate_instance, ExperimentConfig};
use ftes_model::Architecture;
use ftes_opt::initial_mapping;
use ftes_sched::{schedule_with, SlackModel};
use ftes_sfp::{node_process_probs, ReExecutionOpt, Rounding};

/// The usage block printed (to stderr) with every CLI error.
const USAGE: &str = "usage: repro_ablation [--apps N]";

/// Parses the whole command line into the application count. Every
/// rejection — an unknown flag, a missing or malformed value — is a
/// one-line error; the caller prints it plus [`USAGE`] and exits 2.
fn parse_cli(raw: &[String]) -> Result<usize, String> {
    let mut apps = 150usize;
    let mut args = raw.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--apps" => apps = parse_value(&mut args, "--apps", "an application count")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(apps)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let apps = parse_cli(&raw).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });

    let condition = ExperimentConfig::default();
    let mut schedulable = [0usize; 2];
    let mut total = 0usize;
    let mut wc_inflation = 0.0f64;

    for index in 0..apps as u64 {
        let sys = generate_instance(&condition, index);
        let types: Vec<_> = sys.platform().ids_fastest_first()[..3].to_vec();
        let arch = Architecture::with_min_hardening(&types);
        let Ok(mapping) = initial_mapping(&sys, &arch) else {
            continue;
        };
        let Ok(probs) = node_process_probs(sys.application(), sys.timing(), &arch, &mapping) else {
            continue;
        };
        let Some(ks) = ReExecutionOpt::new(30, Rounding::Exact).optimize(
            &probs,
            sys.goal(),
            sys.application().period(),
        ) else {
            continue;
        };
        total += 1;
        let mut lengths = [0i64; 2];
        for (slot, model) in [SlackModel::Shared, SlackModel::PerProcess]
            .into_iter()
            .enumerate()
        {
            let sched = schedule_with(
                sys.application(),
                sys.timing(),
                &arch,
                &mapping,
                &ks,
                sys.bus(),
                model,
            )
            .expect("valid configuration schedules");
            if sched.is_schedulable() {
                schedulable[slot] += 1;
            }
            lengths[slot] = sched.wc_length().as_us();
        }
        wc_inflation += (lengths[1] - lengths[0]) as f64 / lengths[0] as f64;
    }

    println!("# Slack-sharing ablation ({total} min-hardening configurations)");
    println!(
        "shared slack (paper):   {:5.1}% schedulable",
        100.0 * schedulable[0] as f64 / total.max(1) as f64
    );
    println!(
        "per-process slack:      {:5.1}% schedulable",
        100.0 * schedulable[1] as f64 / total.max(1) as f64
    );
    println!(
        "mean worst-case inflation without sharing: +{:.1}%",
        100.0 * wc_inflation / total.max(1) as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<usize, String> {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&raw)
    }

    #[test]
    fn flags_parse_onto_the_defaults() {
        assert_eq!(parse(&[]), Ok(150));
        assert_eq!(parse(&["--apps", "12"]), Ok(12));
        assert!(parse(&["--threads", "2"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn bad_values_error_naming_the_flag() {
        for (args, why) in [
            (&["--apps"][..], "missing value"),
            (&["--apps", "x"][..], "invalid value"),
            (&["--apps", "1.5"][..], "invalid value"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with("--apps"), "{args:?} error {err:?}");
            assert!(err.contains(why), "{args:?} error {err:?}");
        }
    }
}
