//! Regression suite for the parallel streaming matrix runner.
//!
//! The runner's contract: for ANY thread count the emitted results are
//! **byte-for-byte identical** to the sequential run (in-order emission,
//! deterministic per-cell engine), shards partition the matrix and merge
//! back (by matrix position) into the full run, and the streaming sink
//! observes cells in matrix-expansion order.

use ftes::bench::{
    cell_json, json_footer, json_header, run_cells, run_cells_streaming, MatrixRunConfig, Shard,
    Strategy,
};
use ftes::gen::{
    BusProfile, FaultLoad, GraphShape, Heterogeneity, MessageLoad, Scenario, ScenarioMatrix,
    Utilization,
};
use ftes::model::{Cost, TimeUs};
use ftes::opt::Threads;
use proptest::prelude::prop_assert;

/// A 6-cell mini-matrix spanning the v2 axes (TDMA bus, wide platform,
/// fan shape, bulk messages, harsh fault load) with small cells.
fn mini_matrix() -> Vec<Scenario> {
    ScenarioMatrix {
        buses: vec![
            BusProfile::Ideal,
            BusProfile::Tdma {
                slot: TimeUs::from_ms(1),
            },
        ],
        platforms: vec![Heterogeneity::Wide],
        utilizations: vec![Utilization::Tight],
        shapes: vec![GraphShape::Fan],
        messages: vec![MessageLoad::Paper, MessageLoad::Bulk],
        faults: vec![
            FaultLoad::Base,
            FaultLoad::SerHpd {
                ser_h1: 1e-10,
                hpd: 1.0,
            },
        ],
        app_counts: vec![1],
        base: ftes::gen::ExperimentConfig::default(),
    }
    .cells()
    .into_iter()
    .take(6)
    .collect()
}

fn golden_of(cells: &[Scenario], threads: usize) -> String {
    let cfg = MatrixRunConfig {
        arc: Cost::new(20),
        threads: Threads(threads),
        ..MatrixRunConfig::default()
    };
    let report = run_cells(cells, &[Strategy::Opt, Strategy::Min], &cfg);
    report.golden_json()
}

#[test]
fn parallel_run_matrix_is_byte_identical_to_sequential() {
    // The acceptance criterion verbatim: threads ∈ {1, 2, 8} must render
    // the same timing-free JSON document byte for byte.
    let cells = mini_matrix();
    let sequential = golden_of(&cells, 1);
    for threads in [2usize, 8] {
        let parallel = golden_of(&cells, threads);
        assert_eq!(
            parallel, sequential,
            "threads={threads} diverged from the sequential run"
        );
    }
}

#[test]
fn streaming_sink_observes_cells_in_matrix_order() {
    let cells = mini_matrix();
    let cfg = MatrixRunConfig {
        arc: Cost::new(20),
        threads: Threads(8),
        ..MatrixRunConfig::default()
    };
    let mut seen = Vec::new();
    let mut labels = Vec::new();
    run_cells_streaming(&cells, &[Strategy::Min], &cfg, |i, cell| {
        seen.push(i);
        labels.push(cell.label());
    });
    assert_eq!(seen, (0..cells.len()).collect::<Vec<_>>());
    let expected: Vec<String> = cells.iter().map(Scenario::label).collect();
    assert_eq!(labels, expected);
}

#[test]
fn shards_partition_and_merge_to_the_full_run() {
    let cells = mini_matrix();
    let cfg = MatrixRunConfig {
        arc: Cost::new(20),
        threads: Threads(2),
        ..MatrixRunConfig::default()
    };
    let full = run_cells(&cells, &[Strategy::Min], &cfg);
    let mut merged: Vec<Option<String>> = vec![None; cells.len()];
    for index in 0..2 {
        let part = run_cells(
            &cells,
            &[Strategy::Min],
            &MatrixRunConfig {
                shard: Some(Shard { index, count: 2 }),
                ..cfg
            },
        );
        for cell in &part.cells {
            let at = cells
                .iter()
                .position(|c| c.label() == cell.label())
                .expect("shard produced an unknown cell");
            assert!(
                merged[at]
                    .replace(cell_json(cell, cfg.arc, false))
                    .is_none(),
                "two shards ran the same cell"
            );
        }
    }
    let expected: Vec<String> = full
        .cells
        .iter()
        .map(|c| cell_json(c, cfg.arc, false))
        .collect();
    let merged: Vec<String> = merged.into_iter().map(Option::unwrap).collect();
    assert_eq!(merged, expected);
}

#[test]
fn streamed_document_equals_the_collected_report() {
    // The streaming writer used by `repro_matrix` (header + chunks +
    // footer) and the in-memory report must render identical documents.
    let cells = mini_matrix();
    let cfg = MatrixRunConfig {
        arc: Cost::new(20),
        threads: Threads(4),
        ..MatrixRunConfig::default()
    };
    let mut streamed = json_header(cfg.arc, None, "");
    let mut first = true;
    run_cells_streaming(&cells, &[Strategy::Opt], &cfg, |_, cell| {
        if !first {
            streamed.push_str(",\n");
        }
        first = false;
        streamed.push_str(&cell_json(&cell, cfg.arc, false));
    });
    streamed.push_str(&json_footer());
    let report = run_cells(&cells, &[Strategy::Opt], &cfg);
    assert_eq!(streamed, report.golden_json());
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// A worker panicking at ANY cell position, under ANY worker count,
    /// must propagate out of the streaming run instead of deadlocking
    /// the pool — the `AbortOnPanic` guards wake whoever is parked on
    /// the pool's condvars. (The fixed-position variant lives in the
    /// matrix module's unit tests; this drives the poison through the
    /// claim/emit window interleavings that position and thread count
    /// select.)
    #[test]
    fn worker_panic_at_any_cell_aborts_without_deadlock(
        poison_at in 0usize..6,
        threads in 1usize..5,
    ) {
        let mut cells = mini_matrix();
        cells.truncate(5);
        let mut poison = cells[0].clone();
        poison.base.node_types = 0; // generate_platform asserts >= 1
        cells.insert(poison_at.min(cells.len()), poison);
        let cfg = MatrixRunConfig {
            arc: Cost::new(20),
            threads: Threads(threads),
            ..MatrixRunConfig::default()
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cells_streaming(&cells, &[Strategy::Min], &cfg, |_, _| {});
        }));
        // Reaching this assertion at all is the liveness half of the
        // property; the Err is the propagation half.
        prop_assert!(outcome.is_err(), "the worker panic was swallowed");
    }
}
