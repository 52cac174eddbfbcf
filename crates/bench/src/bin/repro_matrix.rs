//! Scenario-matrix sweep: runs the (bus model × platform heterogeneity ×
//! deadline tightness × graph shape × message load × fault load × cell
//! size) matrix through the MIN/MAX/OPT design strategies on the parallel
//! streaming runner and writes per-cell structured results.
//!
//! ```text
//! repro_matrix [--smoke] [--pr3] [--axes LIST] [--arc UNITS]
//!              [--threads N] [--out PATH]
//! repro_matrix --shard I/N --out JOURNAL [matrix flags]
//! repro_matrix --merge JOURNAL... --out PATH [matrix flags]
//! repro_matrix --serve ADDR [--addr-file PATH] [--lease-ms N]
//!              [--grace-ms N] [--journal PATH [--resume]]
//!              [matrix flags] [--out PATH]
//! repro_matrix --worker ADDR|@PATH [--chaos SPEC] [--chaos-seed N]
//!              [matrix flags]
//! repro_matrix --dist-workers N [--chaos SPEC] [--chaos-seed N]
//!              [--journal PATH [--resume]] [matrix flags] [--out PATH]
//! ```
//!
//! Defaults: the full 216-cell v2 matrix ([`ScenarioMatrix::full_v2`]),
//! acceptance evaluated at ArC = 20 units, all cores, output to
//! `BENCH_PR4.json`.
//!
//! * `--smoke` switches to the 16-cell CI matrix
//!   ([`ScenarioMatrix::smoke`], one non-default value per axis family);
//!   the harness is exercised end to end, the timings are not meaningful.
//! * `--pr3` reruns the PR 3 sweep (36 cells, v2 axes at their defaults).
//! * `--axes bus,platform,util,shape,message,fault` restricts which v2
//!   axes are swept; unlisted axes collapse to their first value. E.g.
//!   `--axes shape,message` sweeps graph shape × message load only.
//! * `--threads N` caps the **total** core budget (cell pool × per-cell
//!   app fan-out share it; results are bit-identical for any value,
//!   0 = all cores).
//! * `--shard I/N` runs only every N-th cell starting at I (stride
//!   sharding keeps each shard covering all axis values) and writes
//!   them to `--out` as a journal: the checksummed record format of the
//!   coordinator's `--journal`, under a header that pins the matrix
//!   fingerprint, the engine version and the full run's cell count.
//!   `--out` is required, so a shard never overwrites the committed
//!   artifact.
//! * `--merge JOURNAL...` joins journals into the document at `--out`.
//!   It takes the same matrix flags as the runs that wrote them (the
//!   journal headers refuse any other sweep). Every cell must be in
//!   exactly one journal: a cell in two is an overlap, a cell in none a
//!   gap, and either aborts the merge. The merged document is
//!   byte-identical to an unsharded run's (up to the measured
//!   `wall_seconds`).
//! * `--serve ADDR` runs the **distributed coordinator**: workers
//!   connect, receive cells as deadline-bearing leases, stream back
//!   checksummed results; lost/expired/corrupt leases are re-queued, and
//!   with no workers around the coordinator degrades to local execution
//!   after `--grace-ms`. The document is byte-identical to a local run
//!   (up to `wall_seconds` and the `dist_*` header stats).
//!   `--addr-file PATH` publishes the actually bound address (use port
//!   `0` for an ephemeral port).
//! * `--worker ADDR|@PATH` runs a worker against a coordinator (with
//!   `@PATH`, the address is polled from the file `--addr-file` writes).
//!   Matrix flags must match the coordinator's — a fingerprint mismatch
//!   is rejected at registration. `--chaos kill:N,hang:N,corrupt:N,dup:N`
//!   injects a seeded (`--chaos-seed`) fault schedule for harness tests.
//! * `--dist-workers N` runs the whole distributed stack in one process
//!   over loopback (N worker threads; `--chaos` applies to worker 0) —
//!   the quickest way to exercise the fault-tolerance machinery.
//! * `--journal PATH` (coordinator modes only) attaches a write-ahead
//!   journal: every verified result is fsync'd to PATH before it counts,
//!   so a coordinator crash loses nothing completed. `--resume` replays
//!   the journal (guarded by the matrix fingerprint and the engine
//!   version), runs only the remaining cells under a bumped epoch, and
//!   assembles the final document from the journal — byte-identical to
//!   an uninterrupted run. `--chaos ckill:N` kills the coordinator
//!   crash-equivalently after N verified results (exit 1, journal
//!   retained) to rehearse exactly that.
//!
//! Cells are streamed: each finished cell is rendered and appended to the
//! output file in deterministic cell order while later cells are still
//! running, so memory stays bounded at any matrix size. The per-app costs
//! and worst-case schedule lengths in the JSON are deterministic for a
//! fixed seed; two consecutive runs differ only in `wall_seconds`.

use std::io::Write as _;

use ftes_bench::cli::{parse_value, resolve_addr, take_value, write_addr_file};
use ftes_bench::dist::{
    load_journals, matrix_fingerprint, run_dist_local_opts, ChaosPlan, Coordinator, Journal,
    LocalWorkerSpec, RunOpts,
};
use ftes_bench::{
    cell_json, json_footer, json_header, render_table_row, run_cells_streaming, run_worker,
    BenchMeta, DistConfig, MatrixRunConfig, Shard, Strategy, WorkerConfig, WorkerOutcome,
    ENGINE_VERSION,
};
use ftes_gen::ScenarioMatrix;
use ftes_model::Cost;
use ftes_opt::{CoreBudget, Threads};

/// The usage block printed (to stderr) with every CLI error.
const USAGE: &str = "usage: repro_matrix [--smoke] [--pr3] [--axes LIST] [--arc UNITS] \
     [--threads N] [--out PATH]\n       \
     repro_matrix --shard I/N --out JOURNAL [matrix flags]\n       \
     repro_matrix --merge JOURNAL... --out PATH [matrix flags]\n       \
     repro_matrix --serve ADDR [--addr-file PATH] [--lease-ms N] [--grace-ms N] \
     [--journal PATH [--resume]]\n       \
     repro_matrix --worker ADDR|@PATH [--chaos SPEC] [--chaos-seed N]\n       \
     repro_matrix --dist-workers N [--chaos SPEC] [--chaos-seed N] \
     [--journal PATH [--resume]]";

/// The whole command line, parsed and validated.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    smoke: bool,
    pr3: bool,
    axes: Option<String>,
    arc: u64,
    threads: Threads,
    shard: Option<Shard>,
    merge: Vec<String>,
    out: Option<String>,
    serve: Option<String>,
    addr_file: Option<String>,
    worker: Option<String>,
    dist_workers: Option<usize>,
    chaos: ChaosPlan,
    chaos_seed: u64,
    lease_ms: Option<u64>,
    grace_ms: Option<u64>,
    journal: Option<String>,
    resume: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            smoke: false,
            pr3: false,
            axes: None,
            arc: 20,
            threads: Threads(0),
            shard: None,
            merge: Vec::new(),
            out: None,
            serve: None,
            addr_file: None,
            worker: None,
            dist_workers: None,
            chaos: ChaosPlan::default(),
            chaos_seed: 0,
            lease_ms: None,
            grace_ms: None,
            journal: None,
            resume: false,
        }
    }
}

/// Parses and validates the whole command line. Every rejection — an
/// unknown flag, a missing or malformed value, contradictory modes — is
/// a one-line error; the caller prints it plus [`USAGE`] and exits 2.
fn parse_cli(raw: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = raw.iter().cloned().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--pr3" => cli.pr3 = true,
            "--serve" => cli.serve = Some(take_value(&mut args, "--serve", "host:port")?),
            "--addr-file" => {
                cli.addr_file = Some(take_value(&mut args, "--addr-file", "a path")?);
            }
            "--worker" => {
                cli.worker = Some(take_value(&mut args, "--worker", "host:port or @path")?);
            }
            "--dist-workers" => {
                cli.dist_workers =
                    Some(parse_value(&mut args, "--dist-workers", "a worker count")?);
            }
            "--chaos" => {
                let spec = take_value(
                    &mut args,
                    "--chaos",
                    "kill:N,hang:N,corrupt:N,dup:N,ckill:N",
                )?;
                cli.chaos = ChaosPlan::parse(&spec).map_err(|e| format!("--chaos: {e}"))?;
            }
            "--chaos-seed" => {
                cli.chaos_seed = parse_value(&mut args, "--chaos-seed", "a number")?;
            }
            "--lease-ms" => {
                cli.lease_ms = Some(parse_value(&mut args, "--lease-ms", "milliseconds")?);
            }
            "--grace-ms" => {
                cli.grace_ms = Some(parse_value(&mut args, "--grace-ms", "milliseconds")?);
            }
            "--journal" => {
                cli.journal = Some(take_value(&mut args, "--journal", "a path")?);
            }
            "--resume" => cli.resume = true,
            "--axes" => {
                let list = take_value(&mut args, "--axes", "a comma-separated list")?;
                for name in list.split(',').map(str::trim) {
                    if !["bus", "platform", "util", "shape", "message", "fault"].contains(&name) {
                        return Err(format!(
                            "--axes: unknown axis {name:?} (expected bus, platform, util, \
                             shape, message or fault)"
                        ));
                    }
                }
                cli.axes = Some(list);
            }
            "--arc" => cli.arc = parse_value(&mut args, "--arc", "a number of cost units")?,
            "--threads" => {
                cli.threads = Threads(parse_value(
                    &mut args,
                    "--threads",
                    "a core count (0 = all)",
                )?);
            }
            "--shard" => {
                let spec = take_value(&mut args, "--shard", "I/N with 0 <= I < N")?;
                cli.shard = Some(parse_shard(&spec).ok_or_else(|| {
                    format!("--shard: invalid value {spec:?} (expected I/N with 0 <= I < N)")
                })?);
            }
            "--merge" => {
                // Every argument up to the next flag is a journal.
                while let Some(path) = args.next_if(|a| !a.starts_with("--")) {
                    cli.merge.push(path);
                }
                if cli.merge.is_empty() {
                    return Err("--merge: missing value (expected JOURNAL...)".to_string());
                }
            }
            "--out" => cli.out = Some(take_value(&mut args, "--out", "a path")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }

    if cli.smoke && cli.pr3 {
        // Ambiguous, and the default filename would overwrite the
        // committed full PR 3 artifact with smoke-quality data.
        return Err("--smoke and --pr3 are mutually exclusive".to_string());
    }
    let dist_modes = [
        cli.serve.is_some(),
        cli.worker.is_some(),
        cli.dist_workers.is_some(),
    ];
    if dist_modes.iter().filter(|&&m| m).count() > 1 {
        return Err("--serve, --worker and --dist-workers are mutually exclusive".to_string());
    }
    if dist_modes.contains(&true) && cli.shard.is_some() {
        return Err(
            "--shard does not combine with distributed modes (the coordinator is the shard)"
                .to_string(),
        );
    }
    if !cli.merge.is_empty()
        && (cli.shard.is_some() || cli.journal.is_some() || dist_modes.contains(&true))
    {
        return Err(
            "--merge does not combine with --shard, --journal or distributed modes".to_string(),
        );
    }
    if cli.out.is_none() && (cli.shard.is_some() || !cli.merge.is_empty()) {
        // The default path is the committed full-matrix artifact.
        return Err(format!(
            "{}: missing --out (the default {} is the full matrix's artifact)",
            if cli.shard.is_some() {
                "--shard"
            } else {
                "--merge"
            },
            default_out(cli.pr3)
        ));
    }
    if cli.journal.is_some() && cli.serve.is_none() && cli.dist_workers.is_none() {
        return Err(
            "--journal only combines with the coordinator modes (--serve or --dist-workers)"
                .to_string(),
        );
    }
    if cli.resume && cli.journal.is_none() {
        return Err("--resume: missing --journal (nothing to resume from)".to_string());
    }
    if cli.worker.is_some() && cli.chaos.ckill > 0 {
        return Err(
            "--chaos: ckill targets the coordinator; combine it with --serve or --dist-workers"
                .to_string(),
        );
    }
    Ok(cli)
}

/// The artifact path a run writes without `--out`.
fn default_out(pr3: bool) -> &'static str {
    if pr3 {
        "BENCH_PR3.json"
    } else {
        "BENCH_PR4.json"
    }
}

/// Prints a one-line error and exits 1: how every failed run ends.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

fn parse_shard(spec: &str) -> Option<Shard> {
    let (i, n) = spec.split_once('/')?;
    let shard = Shard {
        index: i.parse().ok()?,
        count: n.parse().ok()?,
    };
    (shard.count >= 1 && shard.index < shard.count).then_some(shard)
}

/// Collapses every v2 axis not named in `keep` to its first value (the
/// names were validated by [`parse_cli`]).
fn restrict_axes(mut matrix: ScenarioMatrix, keep: &str) -> ScenarioMatrix {
    let keep: Vec<&str> = keep.split(',').map(str::trim).collect();
    if !keep.contains(&"bus") {
        matrix.buses.truncate(1);
    }
    if !keep.contains(&"platform") {
        matrix.platforms.truncate(1);
    }
    if !keep.contains(&"util") {
        matrix.utilizations.truncate(1);
    }
    if !keep.contains(&"shape") {
        matrix.shapes.truncate(1);
    }
    if !keep.contains(&"message") {
        matrix.messages.truncate(1);
    }
    if !keep.contains(&"fault") {
        matrix.faults.truncate(1);
    }
    matrix
}

/// The `--worker` mode: serve leases until the coordinator says
/// shutdown. Exit code 0 covers both a clean shutdown and an injected
/// chaos kill (a *successful* fault injection — CI teardown counts on
/// that); registration refusal and exhausted reconnects are real errors.
fn run_worker_mode(
    addr_spec: &str,
    cells: &[ftes_gen::Scenario],
    arc: Cost,
    threads: Threads,
    chaos: ChaosPlan,
    seed: u64,
) -> ! {
    let addr = resolve_addr(addr_spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(4);
    });
    let cfg = WorkerConfig {
        name: format!("pid-{}", std::process::id()),
        budget: CoreBudget::new(threads.resolve()),
        chaos,
        seed,
        ..WorkerConfig::default()
    };
    let report = run_worker(&addr, cells, &Strategy::ALL, arc, &cfg);
    eprintln!(
        "worker {}: {:?} ({} cells over {} connection(s), {} fault(s) injected)",
        cfg.name, report.outcome, report.cells_completed, report.connects, report.chaos_fired
    );
    match report.outcome {
        WorkerOutcome::Shutdown | WorkerOutcome::Killed => std::process::exit(0),
        WorkerOutcome::Rejected(_) => std::process::exit(3),
        WorkerOutcome::GaveUp(_) => std::process::exit(4),
    }
}

/// Writes a document from payloads already in hand, with `extra` header
/// lines (see [`json_header`]): the merged journals, or the
/// distributed run's cells, which are buffered (the full v2 matrix
/// renders under a megabyte) because its `dist_*` header stats are only
/// final once the run completes.
fn write_doc(
    out: &str,
    arc: Cost,
    meta: BenchMeta,
    extra: &str,
    payloads: &[String],
) -> std::io::Result<()> {
    let file = std::fs::File::create(out)?;
    let mut writer = std::io::BufWriter::new(file);
    writer.write_all(json_header(arc, Some(meta), extra).as_bytes())?;
    for (i, payload) in payloads.iter().enumerate() {
        if i > 0 {
            writer.write_all(b",\n")?;
        }
        writer.write_all(payload.as_bytes())?;
    }
    writer.write_all(json_footer().as_bytes())?;
    writer.flush()
}

/// Where a local run streams its cells.
enum Sink {
    /// The artifact document.
    Doc(std::io::BufWriter<std::fs::File>),
    /// A `--shard` run's journal, and the shard that maps a run position
    /// to its matrix position.
    Journal(Journal, Shard),
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&raw).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let Cli {
        smoke,
        pr3,
        axes,
        arc,
        threads,
        shard,
        merge,
        out,
        serve,
        addr_file,
        worker,
        dist_workers,
        chaos,
        chaos_seed,
        lease_ms,
        grace_ms,
        journal,
        resume,
    } = cli;

    let mut matrix = if smoke {
        ScenarioMatrix::smoke()
    } else if pr3 {
        ScenarioMatrix::full()
    } else {
        ScenarioMatrix::full_v2()
    };
    if let Some(keep) = &axes {
        matrix = restrict_axes(matrix, keep);
    }
    let meta = BenchMeta::new(if pr3 { 3 } else { 4 }, smoke);
    let out = out.unwrap_or_else(|| default_out(pr3).to_string());
    let arc = Cost::new(arc);

    let cells = matrix.cells();
    // Every journal this binary writes or reads renders timings, so one
    // fingerprint guards them all.
    let fingerprint = matrix_fingerprint(&cells, &Strategy::ALL, arc, true);

    if let Some(addr_spec) = worker {
        run_worker_mode(&addr_spec, &cells, arc, threads, chaos, chaos_seed);
    }

    if !merge.is_empty() {
        let payloads = load_journals(&merge, &fingerprint, ENGINE_VERSION, cells.len())
            .unwrap_or_else(|e| fail(format!("merge failed: {e}")));
        write_doc(&out, arc, meta, "", &payloads)
            .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
        eprintln!(
            "merged {} journal(s) into {out} ({} cells)",
            merge.len(),
            payloads.len()
        );
        return;
    }

    if serve.is_some() || dist_workers.is_some() {
        let dist_cfg = DistConfig {
            lease_ms: lease_ms.unwrap_or(DistConfig::default().lease_ms),
            grace_ms: grace_ms.unwrap_or(DistConfig::default().grace_ms),
            progress: true,
            ..DistConfig::default()
        };
        let budget = CoreBudget::new(threads.resolve());
        // With a journal attached, the journal *is* the payload store:
        // the sink drops payloads (memory stays O(out-of-order window))
        // and the final document is assembled from the journal below.
        let opts = match &journal {
            None => RunOpts {
                ckill_after: chaos.ckill as u64,
                ..RunOpts::default()
            },
            Some(path) if resume => {
                let (j, replay) = Journal::resume(path, &fingerprint, ENGINE_VERSION, cells.len())
                    .unwrap_or_else(|e| fail(e));
                eprintln!(
                    "resuming from journal {path}: {} of {} cells durable, epoch {}",
                    replay.payloads.len(),
                    cells.len(),
                    replay.epoch
                );
                RunOpts {
                    durable: replay.payloads.keys().copied().collect(),
                    epoch: replay.epoch,
                    journal: Some(j),
                    ckill_after: chaos.ckill as u64,
                }
            }
            Some(path) => RunOpts {
                journal: Some(
                    Journal::create(path, &fingerprint, ENGINE_VERSION, cells.len())
                        .unwrap_or_else(|e| fail(e)),
                ),
                ckill_after: chaos.ckill as u64,
                ..RunOpts::default()
            },
        };
        let journaling = journal.is_some();
        let mut payloads: Vec<String> = Vec::new();
        let mut sink = |_: usize, p: &str| {
            if !journaling {
                payloads.push(p.to_string());
            }
        };
        let start = std::time::Instant::now();
        let stats = if let Some(bind_addr) = serve {
            let coordinator = Coordinator::bind(&bind_addr, dist_cfg).unwrap_or_else(|e| fail(e));
            let actual = coordinator.local_addr();
            eprintln!("coordinator listening on {actual} ({} cells)", cells.len());
            if let Some(path) = &addr_file {
                write_addr_file(path, actual)
                    .unwrap_or_else(|e| fail(format!("cannot write --addr-file {path}: {e}")));
            }
            coordinator.run(&cells, &Strategy::ALL, arc, budget, opts, sink)
        } else {
            let n = dist_workers.unwrap_or(1).max(1);
            // Worker 0 carries the chaos budget; the rest stay clean so
            // re-queued cells always have a healthy taker.
            let specs: Vec<LocalWorkerSpec> = (0..n)
                .map(|i| LocalWorkerSpec {
                    chaos: if i == 0 { chaos } else { ChaosPlan::default() },
                    seed: chaos_seed.wrapping_add(i as u64),
                })
                .collect();
            run_dist_local_opts(
                &cells,
                &Strategy::ALL,
                arc,
                &dist_cfg,
                &specs,
                budget,
                opts,
                &mut sink,
            )
            .map(|(stats, reports)| {
                for (i, r) in reports.iter().enumerate() {
                    eprintln!(
                        "worker {i}: {:?} ({} cells, {} connection(s), {} fault(s))",
                        r.outcome, r.cells_completed, r.connects, r.chaos_fired
                    );
                }
                stats
            })
        };
        let stats = stats.unwrap_or_else(|e| fail(format!("distributed run failed: {e}")));
        if let Some(path) = journal {
            // The run completed, so the journal now holds every cell
            // (resumed ones from previous lives, the rest fsync'd this
            // life before emission): replay it into the document.
            payloads = load_journals(&[path], &fingerprint, ENGINE_VERSION, cells.len())
                .unwrap_or_else(|e| fail(format!("cannot assemble document from journal: {e}")));
        }
        write_doc(&out, arc, meta, &stats.header_lines(), &payloads)
            .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
        let counters: Vec<String> = stats
            .counters()
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        eprintln!(
            "wrote {out} ({} cells in {:.1}s; {})",
            payloads.len(),
            start.elapsed().as_secs_f64(),
            counters.join(" "),
        );
        std::process::exit(0);
    }
    let config = MatrixRunConfig {
        arc,
        threads,
        shard,
        progress: true,
    };
    let owned = config.owned_count(&cells);
    eprintln!(
        "running {owned} of {} cells ({} buses x {} platforms x {} utilizations x {} shapes \
         x {} messages x {} faults x {} cell sizes) on {} core(s)",
        matrix.cell_count(),
        matrix.buses.len(),
        matrix.platforms.len(),
        matrix.utilizations.len(),
        matrix.shapes.len(),
        matrix.messages.len(),
        matrix.faults.len(),
        matrix.app_counts.len(),
        threads.resolve(),
    );

    // Stream: write each cell as it completes (in cell order), instead
    // of holding the whole report in memory. A shard journals its cells
    // under their matrix positions; a full run writes the document.
    let write_err = |e: std::io::Error| format!("cannot write {out}: {e}");
    let mut sink = match shard {
        Some(s) => Sink::Journal(
            Journal::create(&out, &fingerprint, ENGINE_VERSION, cells.len())
                .unwrap_or_else(|e| fail(e)),
            s,
        ),
        None => {
            let file = std::fs::File::create(&out)
                .map_err(write_err)
                .unwrap_or_else(|e| fail(e));
            let mut writer = std::io::BufWriter::new(file);
            writer
                .write_all(json_header(arc, Some(meta), "").as_bytes())
                .map_err(write_err)
                .unwrap_or_else(|e| fail(e));
            Sink::Doc(writer)
        }
    };
    let label_width = cells
        .iter()
        .map(|c| c.label().len())
        .max()
        .unwrap_or(8)
        .max(8);
    let mut table = format!(
        "{:<label_width$}  acceptance at ArC = {}\n",
        "cell",
        arc.units(),
        label_width = label_width
    );
    let start = std::time::Instant::now();
    // Progress lines come from the runner itself (config.progress).
    run_cells_streaming(&cells, &Strategy::ALL, &config, |i, cell| {
        let payload = cell_json(&cell, arc, true);
        match &mut sink {
            Sink::Journal(journal, s) => journal
                .append_cell(s.index + i * s.count, &payload)
                .unwrap_or_else(|e| fail(e)),
            Sink::Doc(writer) => {
                let separator: &[u8] = if i > 0 { b",\n" } else { b"" };
                writer
                    .write_all(separator)
                    .and_then(|()| writer.write_all(payload.as_bytes()))
                    .map_err(write_err)
                    .unwrap_or_else(|e| fail(e));
            }
        }
        table.push_str(&render_table_row(&cell, arc, label_width));
    });
    if let Sink::Doc(mut writer) = sink {
        writer
            .write_all(json_footer().as_bytes())
            .and_then(|()| writer.flush())
            .map_err(write_err)
            .unwrap_or_else(|e| fail(e));
    }

    print!("{table}");
    eprintln!(
        "wrote {out} ({owned} cells in {:.1}s)",
        start.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&raw)
    }

    fn parse_run(args: &[&str]) -> Cli {
        parse(args).unwrap_or_else(|e| panic!("{args:?} did not parse: {e}"))
    }

    #[test]
    fn defaults_and_happy_path_flags_parse() {
        assert_eq!(parse_run(&[]), Cli::default());
        let cli = parse_run(&[
            "--smoke",
            "--axes",
            "shape, message",
            "--arc",
            "25",
            "--threads",
            "4",
            "--shard",
            "1/3",
            "--out",
            "x.json",
        ]);
        assert!(cli.smoke);
        assert_eq!(cli.axes.as_deref(), Some("shape, message"));
        assert_eq!(cli.arc, 25);
        assert_eq!(cli.threads, Threads(4));
        assert_eq!(cli.shard, Some(Shard { index: 1, count: 3 }));
        assert_eq!(cli.out.as_deref(), Some("x.json"));
        let cli = parse_run(&[
            "--dist-workers",
            "3",
            "--chaos",
            "kill:1,hang:2",
            "--chaos-seed",
            "7",
            "--lease-ms",
            "500",
            "--grace-ms",
            "100",
        ]);
        assert_eq!(cli.dist_workers, Some(3));
        assert_eq!(cli.chaos, ChaosPlan::parse("kill:1,hang:2").unwrap());
        assert_eq!(cli.chaos_seed, 7);
        assert_eq!(cli.lease_ms, Some(500));
        assert_eq!(cli.grace_ms, Some(100));
        let cli = parse_run(&[
            "--serve",
            "127.0.0.1:0",
            "--journal",
            "run.wal",
            "--resume",
            "--chaos",
            "ckill:2",
        ]);
        assert_eq!(cli.journal.as_deref(), Some("run.wal"));
        assert!(cli.resume);
        assert_eq!(cli.chaos.ckill, 2);
        let cli = parse_run(&["--dist-workers", "2", "--journal", "run.wal"]);
        assert_eq!(cli.journal.as_deref(), Some("run.wal"));
        assert!(!cli.resume);
    }

    #[test]
    fn journal_flags_demand_a_coordinator_mode() {
        let err = parse(&["--journal", "run.wal"]).unwrap_err();
        assert!(err.contains("--serve or --dist-workers"), "{err}");
        let err = parse(&["--worker", "a:1", "--journal", "run.wal"]).unwrap_err();
        assert!(err.contains("--serve or --dist-workers"), "{err}");
        let err = parse(&["--serve", "a:1", "--resume"]).unwrap_err();
        assert!(err.starts_with("--resume"), "{err}");
        assert!(err.contains("--journal"), "{err}");
        let err = parse(&["--worker", "a:1", "--chaos", "ckill:1"]).unwrap_err();
        assert!(err.contains("ckill targets the coordinator"), "{err}");
        // ckill with a coordinator mode is fine, journal or not.
        parse_run(&["--dist-workers", "2", "--chaos", "ckill:1"]);
    }

    #[test]
    fn malformed_numeric_values_error_naming_the_flag() {
        // Each of these used to fall through `.parse().ok()` into a
        // panic or a silent default; now each is a one-line error.
        for (args, flag) in [
            (&["--threads", "abc"][..], "--threads"),
            (&["--lease-ms", "x"][..], "--lease-ms"),
            (&["--grace-ms", "soon"][..], "--grace-ms"),
            (&["--chaos-seed", "y"][..], "--chaos-seed"),
            (&["--dist-workers", "z"][..], "--dist-workers"),
            (&["--arc", "many"][..], "--arc"),
            (&["--shard", "1of2"][..], "--shard"),
            (&["--shard", "3/2"][..], "--shard"),
            (&["--shard", "2/2"][..], "--shard"),
            (&["--shard", "0/0"][..], "--shard"),
            (&["--threads", "-1"][..], "--threads"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(flag), "{args:?} error {err:?}");
            assert!(err.contains("invalid value"), "{args:?} error {err:?}");
        }
    }

    #[test]
    fn missing_flag_values_error_instead_of_panicking() {
        for flag in [
            "--serve",
            "--addr-file",
            "--worker",
            "--axes",
            "--out",
            "--chaos",
            "--threads",
            "--arc",
            "--shard",
            "--dist-workers",
            "--chaos-seed",
            "--lease-ms",
            "--grace-ms",
            "--journal",
        ] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.starts_with(flag), "{flag} error {err:?}");
            assert!(err.contains("missing value"), "{flag} error {err:?}");
        }
    }

    #[test]
    fn chaos_and_axes_values_are_validated() {
        let err = parse(&["--chaos", "kill:1,kill:2"]).unwrap_err();
        assert!(err.starts_with("--chaos"), "{err}");
        assert!(err.contains("duplicate"), "{err}");
        let err = parse(&["--chaos", "explode:1"]).unwrap_err();
        assert!(err.starts_with("--chaos"), "{err}");
        let err = parse(&["--axes", "shape,sideways"]).unwrap_err();
        assert!(err.starts_with("--axes"), "{err}");
        assert!(err.contains("sideways"), "{err}");
    }

    #[test]
    fn unknown_flags_and_conflicting_modes_are_rejected() {
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("unknown"));
        for args in [
            &["--smoke", "--pr3"][..],
            &["--serve", "a:1", "--worker", "b:2"][..],
            &["--serve", "a:1", "--dist-workers", "2"][..],
            &["--worker", "a:1", "--dist-workers", "2"][..],
            &["--dist-workers", "2", "--shard", "0/2"][..],
            &["--merge", "a.wal", "--shard", "0/2", "--out", "m.json"][..],
            &["--merge", "a.wal", "--journal", "j.wal", "--out", "m.json"][..],
            &["--merge", "a.wal", "--dist-workers", "2", "--out", "m.json"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.contains("exclusive") || err.contains("combine"),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn merge_mode_parses_and_requires_output_and_inputs() {
        // The journals run up to the next flag; matrix flags may follow.
        let cli = parse_run(&["--merge", "a.wal", "b.wal", "--smoke", "--out", "out.json"]);
        assert_eq!(cli.merge, ["a.wal", "b.wal"]);
        assert_eq!(cli.out.as_deref(), Some("out.json"));
        assert!(cli.smoke);
        assert!(parse(&["--merge"]).unwrap_err().starts_with("--merge"));
        assert!(parse(&["--merge", "--out", "out.json"])
            .unwrap_err()
            .starts_with("--merge"));
        // Neither a merge nor a shard may fall back to the committed
        // artifact's path.
        for (args, flag) in [
            (&["--merge", "a.wal"][..], "--merge"),
            (&["--shard", "0/2"][..], "--shard"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
            assert!(err.contains("missing --out"), "{args:?}: {err}");
        }
    }
}
