//! The sweep delivery layers, measured by the `explore` workload's traced
//! run on the seed's 216-cell v2 matrix: loopback sweeps under MIN only
//! through `run_dist_local` with two worker threads and the default
//! `DistConfig` (no journal), then the in-process matrix layer on the
//! same cells ([`matrix::probe`]). Cells are cheap, so registration,
//! leasing, framing, checksums, the in-order emitter and the
//! coordinator's accept poll do most of the dist work.

use std::time::Instant;

use ftes_bench::dist::protocol::{checksum, fnv64, Frame};
use ftes_bench::dist::{
    matrix_fingerprint, run_dist_local, DistConfig, DistStats, Journal, LocalWorkerSpec,
    WorkerOutcome,
};
use ftes_bench::{Strategy, ENGINE_VERSION};
use ftes_opt::CoreBudget;

use crate::env::{Context, Rng};
use crate::matrix;
use crate::report::Report;
use crate::stats::median;
use crate::sweep::{self, ARC};
use crate::trace::Tracer;

const STRATEGIES: [Strategy; 1] = [Strategy::Min];
const WORKERS: usize = 2;
const CORES: usize = 2;
/// Journal appends timed (each one is fsync'd).
const JOURNAL_APPENDS: usize = 64;
/// Loopback sweeps per probe.
const SWEEPS: usize = 8;

/// The lease counters that must repeat exactly, sweep after sweep.
fn lease_signature(s: &DistStats) -> u64 {
    let counts = [
        s.leases_granted,
        s.leases_expired,
        s.leases_requeued,
        s.results_ok,
        s.results_rejected,
        s.duplicates_dropped,
        s.local_fallback_cells,
        s.cells_emitted,
    ];
    let bytes: Vec<u8> = counts.iter().flat_map(|c| c.to_le_bytes()).collect();
    fnv64(&bytes)
}

/// Exactly-once accounting of one sweep over `cells` cells.
fn accounting(s: &DistStats, cells: u64) -> Result<(), String> {
    if s.cells_emitted != cells || s.results_ok != cells {
        return Err(format!(
            "emitted {} and accepted {} of {cells} cells",
            s.cells_emitted, s.results_ok
        ));
    }
    let lost = s.leases_requeued + s.leases_expired + s.results_rejected + s.duplicates_dropped;
    if lost != 0 || s.local_fallback_cells != 0 {
        return Err(format!(
            "requeued {} expired {} rejected {} duplicates {} local fallback {}",
            s.leases_requeued,
            s.leases_expired,
            s.results_rejected,
            s.duplicates_dropped,
            s.local_fallback_cells
        ));
    }
    Ok(())
}

#[derive(Debug, Default)]
struct Sweep {
    first_ms: f64,
    drain_ms: f64,
    stats: DistStats,
}

/// [`SWEEPS`] spanned loopback sweeps of the seed's cells, each checked
/// against the sequential reference and for exactly-once accounting,
/// then the matrix probe on the same cells. Returns the digests the
/// exact-repeat guard compares: the references and the lease counters.
pub fn probe(ctx: &Context, tracer: &mut Tracer, r: &mut Report) -> Result<Vec<u64>, String> {
    let seed = ctx.args.seed;
    let cells = sweep::cells(seed);
    let reference = sweep::reference(&cells, &STRATEGIES);
    let n = cells.len() as u64;
    let cfg = DistConfig::default();
    let mut rng = Rng::stream(seed, 3);
    let workers: Vec<LocalWorkerSpec> = (0..WORKERS)
        .map(|_| LocalWorkerSpec {
            seed: rng.next_u64(),
            ..LocalWorkerSpec::default()
        })
        .collect();

    let mut gaps_ms = Vec::new();
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut payloads: Vec<String> = Vec::new();
    let mut signature: Option<u64> = None;
    let started = Instant::now();
    for k in 0..SWEEPS {
        let mut mismatches = 0u64;
        let mut emits: Vec<Instant> = Vec::with_capacity(cells.len());
        let start = Instant::now();
        let span = tracer.open("dist.sweep", k as u64, None, start);
        let result = run_dist_local(
            &cells,
            &STRATEGIES,
            ARC,
            &cfg,
            &workers,
            CoreBudget::new(CORES),
            |i, payload| {
                let now = Instant::now();
                tracer.record(
                    "dist.emit",
                    i as u64,
                    span,
                    *emits.last().unwrap_or(&start),
                    now,
                );
                emits.push(now);
                if sweep::digest(&sweep::strip_timings(payload)) != reference[i] {
                    mismatches += 1;
                }
                if k == 0 {
                    payloads.push(payload.to_string());
                }
            },
        );
        let end = Instant::now();
        tracer.close(span, end);
        r.attempted += n;
        let (stats, reports) = match result {
            Ok(ok) => ok,
            Err(e) => {
                r.failed += n - emits.len() as u64;
                r.problem(format!("sweep {k}: run_dist_local failed: {e}"));
                continue;
            }
        };
        r.failed += mismatches + n.saturating_sub(emits.len() as u64);
        if mismatches > 0 {
            r.problem(format!(
                "sweep {k}: {mismatches} payloads differ from the sequential reference"
            ));
        }
        if let Err(e) = accounting(&stats, n) {
            r.problem(format!("sweep {k}: exactly-once accounting broken: {e}"));
        }
        if let Some(bad) = reports
            .iter()
            .find(|w| w.outcome != WorkerOutcome::Shutdown)
        {
            r.problem(format!("sweep {k}: a worker ended with {:?}", bad.outcome));
        }
        let sig = lease_signature(&stats);
        if *signature.get_or_insert(sig) != sig {
            r.problem(format!(
                "sweep {k}: lease counters differ from sweep 0 (nondeterminism): {stats:?}"
            ));
        }
        gaps_ms.extend(emits.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3));
        sweeps.push(Sweep {
            first_ms: emits
                .first()
                .map_or(0.0, |t| (*t - start).as_secs_f64() * 1e3),
            drain_ms: emits.last().map_or(0.0, |t| (end - *t).as_secs_f64() * 1e3),
            stats,
        });
    }

    let per_sweep = format!("median of {} sweeps", sweeps.len());
    let med = |f: fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    r.put(
        "dist.first_result_ms",
        med(|s| s.first_ms),
        "ms",
        per_sweep.clone(),
    );
    r.put("dist.drain_ms", med(|s| s.drain_ms), "ms", per_sweep);
    r.put(
        "dist.emit_gap_ms.p50",
        median(&gaps_ms),
        "ms",
        format!("n={}", gaps_ms.len()),
    );
    if let Some(s) = sweeps.first().map(|s| s.stats) {
        r.put("dist.cells", n as f64, "count", "cells per sweep");
        for (name, value) in [
            ("dist.leases_granted", s.leases_granted),
            ("dist.leases_requeued", s.leases_requeued),
            ("dist.leases_expired", s.leases_expired),
            ("dist.results_rejected", s.results_rejected),
            ("dist.duplicates_dropped", s.duplicates_dropped),
            ("dist.local_fallback_cells", s.local_fallback_cells),
            ("dist.workers_registered", s.workers_registered),
        ] {
            r.put(name, value as f64, "count", "first sweep");
        }
        r.put_ratio(
            "dist.lease_yield_ratio",
            s.cells_emitted,
            s.leases_granted,
            "leases yielded a cell",
        );
    }
    let wall_s = started.elapsed().as_secs_f64();
    r.note(format!(
        "dist: {} sweeps of {n} cells in {wall_s:.3} s ({:.1} cells/s)",
        sweeps.len(),
        (n * sweeps.len() as u64) as f64 / wall_s
    ));
    match frame_round_trips(&payloads) {
        Ok(us) => r.put(
            "dist.frame_us",
            median(&us),
            "us",
            format!("render + parse of a result frame, n={}", us.len()),
        ),
        Err(e) => r.problem(e),
    }
    let append_ms = journal_appends(ctx, &cells, &payloads)?;
    r.put(
        "dist.journal_append_ms",
        median(&append_ms),
        "ms",
        format!("fsync'd append_cell, n={}", append_ms.len()),
    );

    let mut guard = reference;
    guard.extend(signature);
    guard.extend(matrix::probe(&cells, tracer, r));
    Ok(guard)
}

/// Renders and parses a result frame for each payload; the parse must
/// give the frame back.
fn frame_round_trips(payloads: &[String]) -> Result<Vec<f64>, String> {
    let mut us = Vec::with_capacity(payloads.len());
    for (cell, payload) in payloads.iter().enumerate() {
        let frame = Frame::Result {
            lease: cell as u64,
            cell,
            epoch: 1,
            crc: checksum(payload),
            payload: payload.clone(),
        };
        let t = Instant::now();
        let back = Frame::parse(frame.render().trim_end())?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if back != frame {
            return Err(format!("result frame of cell {cell} does not round-trip"));
        }
    }
    Ok(us)
}

/// Times fsync'd journal appends of the first sweep's payloads in a
/// scratch journal.
fn journal_appends(
    ctx: &Context,
    cells: &[ftes_gen::Scenario],
    payloads: &[String],
) -> Result<Vec<f64>, String> {
    let dir = ctx.scratch_dir("journal")?;
    let path = dir.join("sweep.journal");
    let fingerprint = matrix_fingerprint(cells, &STRATEGIES, ARC, true);
    let mut journal = Journal::create(
        &path.to_string_lossy(),
        &fingerprint,
        ENGINE_VERSION,
        cells.len(),
    )?;
    let mut ms = Vec::new();
    for (cell, payload) in payloads.iter().enumerate().take(JOURNAL_APPENDS) {
        let t = Instant::now();
        journal.append_cell(cell, payload)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ms)
}
