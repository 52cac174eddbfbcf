//! The run's context: arguments, the box it runs on, the code it
//! measures, the state directory, the seeded generator and the
//! exact-repeat guard.

use std::path::{Path, PathBuf};
use std::time::Duration;

use ftes_bench::dist::protocol::fnv64;

/// State kept between runs in the checkout (ignored by git): repeat
/// guards, span files and temporary cache directories.
pub const STATE_DIR: &str = ".perfbench-state";

/// Source trees whose contents identify the measured code.
const SOURCE_ROOTS: [&str; 2] = ["crates", "perfbench/src"];

/// SplitMix64: a tiny seeded generator for the workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload explore|serve --seed N --seconds S --trace 0|1";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`, strictly.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
            let slot = match flag.as_str() {
                "--workload" => &mut workload,
                "--seed" => &mut seed,
                "--seconds" => &mut seconds,
                "--trace" => &mut trace,
                other => return Err(format!("unknown flag {other}")),
            };
            if slot.replace(value.clone()).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("{flag} is required"));
        let workload = need(workload, "--workload")?;
        if !crate::listed("workloads").iter().any(|w| w.0 == workload) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seed = need(seed, "--seed")?
            .parse()
            .map_err(|_| "--seed: expected an unsigned integer".to_string())?;
        let seconds = need(seconds, "--seconds")?
            .parse()
            .ok()
            .filter(|s| (1..=600).contains(s))
            .ok_or_else(|| "--seconds: expected a whole number from 1 to 600".to_string())?;
        let trace = match need(trace, "--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace: expected 0 or 1".to_string()),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// The box and the code a run measured.
#[derive(Debug, Clone)]
pub struct Context {
    pub args: Args,
    pub nproc: usize,
    pub cpu: String,
    pub commit: String,
    /// FNV-1a over the workspace and benchmark sources.
    pub source: u64,
    pub state: PathBuf,
}

impl Context {
    pub fn new(args: Args) -> Result<Context, String> {
        let state = PathBuf::from(STATE_DIR);
        std::fs::create_dir_all(state.join("guard"))
            .map_err(|e| format!("cannot create {STATE_DIR}: {e}"))?;
        Ok(Context {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            commit: git_head().unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
            source: source_digest()?,
            state,
            args,
        })
    }

    pub fn box_line(&self) -> String {
        format!(
            "box: nproc={} cpu=\"{}\" commit={} source={:016x} workload={} seed={} seconds={} trace={}",
            self.nproc,
            self.cpu,
            self.commit,
            self.source,
            self.args.workload,
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace)
        )
    }

    /// A fresh scratch directory under the state directory.
    pub fn scratch_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.state.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Exact-repeat guard: `signature` (one value per operation, in
    /// input order) must agree with what earlier runs of the same code
    /// and seed recorded under the name `what` on their common prefix. A
    /// difference is nondeterminism, not noise.
    pub fn repeat_guard(&self, what: &str, signature: &[u64]) -> Result<(), String> {
        let path = self.state.join("guard").join(format!(
            "{what}-{}-{:016x}.txt",
            self.args.seed, self.source
        ));
        let earlier: Vec<u64> = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| u64::from_str_radix(l, 16).ok())
            .collect();
        if let Some(i) = earlier.iter().zip(signature).position(|(a, b)| a != b) {
            return Err(format!(
                "operation {i} counts differ from an earlier run with this seed ({:016x} vs {:016x})",
                signature[i], earlier[i]
            ));
        }
        if signature.len() > earlier.len() {
            let text: String = signature.iter().map(|s| format!("{s:016x}\n")).collect();
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit `.git/HEAD` points at, read without running git.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the paths and bytes of every `.rs` and `Cargo.toml` file
/// under [`SOURCE_ROOTS`], in sorted path order.
fn source_digest() -> Result<u64, String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        walk(Path::new(root), &mut files).map_err(|e| {
            format!("cannot read sources under {root}: {e} (run from the repository root)")
        })?;
    }
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(&f).map_err(|e| format!("cannot read {}: {e}", f.display()))?);
    }
    Ok(fnv64(&all))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = args(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 7, 10, true)
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "serve",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "serve",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "serve",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "serve", "--seed", "1", "--seconds", "1"],
            &[
                "--workload",
                "serve",
                "--workload",
                "serve",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &["--workload"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn streams_are_seeded_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(5, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(5, 1).next_u64(), Rng::stream(5, 2).next_u64());
        assert_ne!(Rng::stream(5, 1).next_u64(), Rng::stream(6, 1).next_u64());
        let mut r = Rng::stream(9, 0);
        assert!((0..1000).all(|_| r.below(7) < 7 && (0.0..1.0).contains(&r.unit())));
    }
}
