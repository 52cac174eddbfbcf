//! Regenerates the paper's Fig. 6 (a–d): acceptance percentages of the
//! MAX / MIN / OPT strategies over synthetic applications.
//!
//! ```text
//! repro_fig6 [--apps N] [--figure a|b|c|d|all]
//! ```
//!
//! Defaults: 150 applications (as in the paper), all figures. The paper's
//! published values are printed next to the measured ones for comparison;
//! see `EXPERIMENTS.md` for the analysis.

use ftes_bench::cli::{parse_value, take_value};
use ftes_bench::figures::{fig6a, fig6b, fig6c, fig6d};

/// The usage block printed (to stderr) with every CLI error.
const USAGE: &str = "usage: repro_fig6 [--apps N] [--figure a|b|c|d|all]";

/// The `--figure` values, as the usage lists them.
const FIGURES: &str = "a|b|c|d|all";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    apps: usize,
    figure: String,
}

/// Parses the whole command line. Every rejection — an unknown flag, a
/// missing, malformed or out-of-set value — is a one-line error; the
/// caller prints it plus [`USAGE`] and exits 2.
fn parse_cli(raw: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        apps: 150,
        figure: "all".to_string(),
    };
    let mut args = raw.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--apps" => cli.apps = parse_value(&mut args, "--apps", "an application count")?,
            "--figure" => {
                let v = take_value(&mut args, "--figure", FIGURES)?;
                if !FIGURES.split('|').any(|f| f == v) {
                    return Err(format!(
                        "--figure: invalid value {v:?} (expected {FIGURES})"
                    ));
                }
                cli.figure = v;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Cli { apps, figure } = parse_cli(&raw).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });

    let all = figure == "all";
    if all || figure == "a" {
        println!("# Fig. 6a — % accepted vs HPD (SER = 1e-11, ArC = 20)");
        println!("#   paper: MAX 71/63/49/41, MIN 76/76/76/76, OPT 94/86/84/84");
        for row in fig6a(apps) {
            println!("{}", row.render());
        }
        println!();
    }
    if all || figure == "b" {
        println!("# Fig. 6b — % accepted, HPD x ArC (SER = 1e-11)");
        println!("#   paper (MAX/MIN/OPT): HPD5: 35|76|92, 71|76|94, 92|82|98");
        println!("#                        HPD25: 33|76|86, 63|76|86, 84|82|92");
        println!("#                        HPD50: 27|76|80, 49|76|84, 74|82|90");
        println!("#                        HPD100: 23|76|78, 41|76|84, 65|82|90");
        for (hpd, rows) in fig6b(apps) {
            println!("HPD = {hpd}%:");
            for row in rows {
                println!("  {}", row.render());
            }
        }
        println!();
    }
    if all || figure == "c" {
        println!("# Fig. 6c — % accepted vs SER (HPD = 5%, ArC = 20)");
        println!("#   paper trend: MIN == OPT at 1e-12; OPT >> MIN at 1e-10; MAX flat");
        for row in fig6c(apps) {
            println!("{}", row.render());
        }
        println!();
    }
    if all || figure == "d" {
        println!("# Fig. 6d — % accepted vs SER (HPD = 100%, ArC = 20)");
        println!("#   paper trend: as 6c with MAX suppressed by degradation");
        for row in fig6d(apps) {
            println!("{}", row.render());
        }
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
    fn flags_parse_onto_the_defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!((cli.apps, cli.figure.as_str()), (150, "all"));
        let cli = parse(&["--apps", "20", "--figure", "c"]).unwrap();
        assert_eq!((cli.apps, cli.figure.as_str()), (20, "c"));
        assert!(parse(&["--fig", "a"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn bad_values_error_naming_the_flag() {
        for (args, flag, why) in [
            (&["--apps"][..], "--apps", "missing value"),
            (&["--figure"][..], "--figure", "missing value"),
            (&["--apps", "x"][..], "--apps", "invalid value"),
            (&["--apps", "-3"][..], "--apps", "invalid value"),
            (&["--figure", "e"][..], "--figure", "invalid value"),
            (&["--figure", "A"][..], "--figure", "invalid value"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(flag), "{args:?} error {err:?}");
            assert!(err.contains(why), "{args:?} error {err:?}");
        }
    }
}
