//! # ftes-bench — experiment harness for the DATE'09 evaluation
//!
//! Regenerates every table and figure of the paper's Section 7:
//!
//! * [`experiment`] — the acceptance-rate machinery (strategies, parallel
//!   condition runner, ArC filtering);
//! * [`figures`] — one function per figure: [`figures::fig6a`]–
//!   [`figures::fig6d`] and [`figures::cruise_controller`];
//! * [`matrix`] — the scenario-matrix runner: expands a
//!   [`ScenarioMatrix`](ftes_gen::ScenarioMatrix) (bus model × platform
//!   heterogeneity × deadline tightness × graph shape × message load ×
//!   fault load × cell size) and runs every cell through the same engine
//!   on a parallel streaming worker pool (in-order emission, bounded
//!   memory, one shared core budget, bit-identical to sequential),
//!   emitting a summary table, a byte-stable golden snapshot and the
//!   `BENCH_PR<N>.json` artifacts;
//! * [`dist`] — fault-tolerant distributed execution of the same matrix:
//!   a lease-based coordinator/worker protocol over loopback/LAN TCP
//!   with retry, timeout, backoff and a seeded fault-injection harness,
//!   merging to the byte-identical document.
//!
//! The `repro_fig6`, `repro_cc` and `repro_matrix` binaries print the
//! regenerated figures/tables; `EXPERIMENTS.md` records measured-vs-paper
//! values. [`cli`] holds the flag and address helpers the binaries share.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod dist;
pub mod experiment;
pub mod figures;
pub mod matrix;

/// Version of the cell-evaluation engine. Bump on any change that
/// alters rendered cell payloads for identical inputs: it guards both
/// the server's persistent result cache and the coordinator's
/// write-ahead journal against replaying results a newer engine would
/// compute differently.
pub const ENGINE_VERSION: u32 = 1;

pub use dist::{
    load_journal, run_dist_local, run_dist_local_opts, run_worker, ChaosPlan, Coordinator,
    DistConfig, DistStats, Journal, JournalReplay, LocalWorkerSpec, RunOpts, WorkerConfig,
    WorkerOutcome, WorkerReport,
};
pub use experiment::{
    acceptance_row, run_condition, run_strategy_over, sweep_opt_config, AcceptanceRow,
    ConditionResult, Strategy,
};
pub use figures::{cruise_controller, fig6a, fig6b, fig6c, fig6d, CcOutcome};
pub use matrix::{
    cell_json, json_footer, json_header, render_table_row, run_cell_budgeted, run_cells,
    run_cells_streaming, run_matrix, BenchMeta, CellResult, MatrixReport, MatrixRunConfig, Shard,
    StrategyCell,
};
