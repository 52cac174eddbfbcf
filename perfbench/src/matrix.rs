//! The in-process matrix layer, measured by the `explore` workload's
//! traced run after the dist probe: the seed's 216 cells under MAX, MIN
//! and OPT through `run_cells_streaming` on a total budget of 2 cores —
//! the cell pool × application fan-out under one `CoreBudget`, as
//! `repro_matrix` runs it by default.

use std::time::Instant;

use ftes_bench::matrix::{cell_json, run_cells_streaming, MatrixRunConfig};
use ftes_bench::Strategy;
use ftes_gen::Scenario;
use ftes_opt::Threads;

use crate::report::Report;
use crate::stats::median;
use crate::sweep::{self, ARC};
use crate::trace::Tracer;

/// Total core budget of a sweep.
const CORES: usize = 2;

/// One spanned sweep of `cells` under every strategy, checked cell by
/// cell against the sequential reference. Returns the reference digests
/// for the exact-repeat guard.
pub fn probe(cells: &[Scenario], tracer: &mut Tracer, r: &mut Report) -> Vec<u64> {
    let t = Instant::now();
    let reference = sweep::reference(cells, &Strategy::ALL);
    r.note(format!(
        "matrix: sequential reference of {} cells under MAX, MIN and OPT in {:.3} s",
        cells.len(),
        t.elapsed().as_secs_f64()
    ));
    let config = MatrixRunConfig {
        arc: ARC,
        threads: Threads(CORES),
        shard: None,
        progress: false,
    };
    let mut cell_ms = Vec::new();
    let mut render_us = Vec::new();
    let mut strategy_s = [0.0f64; 3];
    let mut mismatches = 0u64;
    let start = Instant::now();
    let span = tracer.open("matrix.sweep", 0, None, start);
    let mut last_emit = start;
    run_cells_streaming(cells, &Strategy::ALL, &config, |i, cell| {
        let t = Instant::now();
        tracer.record("matrix.emit_wait", i as u64, span, last_emit, t);
        let payload = cell_json(&cell, ARC, false);
        let end = Instant::now();
        tracer.record("matrix.cell_json", i as u64, span, t, end);
        last_emit = end;
        render_us.push((end - t).as_secs_f64() * 1e6);
        if sweep::digest(&payload) != reference[i] {
            mismatches += 1;
        }
        cell_ms.push(cell.strategies.iter().map(|s| s.wall_seconds).sum::<f64>() * 1e3);
        for s in &cell.strategies {
            strategy_s[Strategy::ALL
                .iter()
                .position(|x| *x == s.strategy)
                .unwrap_or(0)] += s.wall_seconds;
        }
    });
    let end = Instant::now();
    tracer.close(span, end);
    let wall_s = (end - start).as_secs_f64();
    r.attempted += cells.len() as u64;
    r.failed += mismatches;
    if mismatches > 0 {
        r.problem(format!(
            "matrix sweep: {mismatches} cell payloads differ from the sequential reference"
        ));
    }

    let sorted = crate::stats::sorted(&cell_ms);
    for (name, p) in [("matrix.cell_ms.p50", 50.0), ("matrix.cell_ms.p95", 95.0)] {
        let (v, beyond) = crate::stats::percentile(&sorted, p).unwrap_or((0.0, 0));
        r.put(
            name,
            v,
            "ms",
            format!("n={}, {beyond} beyond", sorted.len()),
        );
    }
    for (s, total) in Strategy::ALL.iter().zip(strategy_s) {
        r.put(
            &format!("matrix.strategy_s.{}", s.label()),
            total,
            "s",
            "summed cell time of one sweep",
        );
    }
    let busy_s: f64 = strategy_s.iter().sum();
    r.put(
        "matrix.pool_busy_ratio",
        busy_s / (wall_s * CORES as f64),
        "ratio",
        format!("{busy_s:.3} s of cell time over {wall_s:.3} s x {CORES} workers"),
    );
    r.put(
        "matrix.render_us",
        median(&render_us),
        "us",
        format!("cell_json, median, n={}", render_us.len()),
    );
    reference
}
