//! Fault-tolerant distributed matrix execution.
//!
//! Dynamic sharding: instead of static `--shard I/N` partitions (each
//! written as a [`journal`]), a [`Coordinator`] hands out cells off the
//! shared cursor as deadline-bearing *leases* over a line-delimited JSON
//! TCP protocol ([`protocol`]), re-queues whatever its workers lose, and
//! feeds verified results through the same in-order sink discipline as
//! the local streaming runner — so the merged document is
//! **byte-identical to a local sequential run no matter which workers
//! die** (up to the measured `wall_seconds`, exactly like shard merges).
//!
//! The paper's premise — transient faults are survived by re-execution
//! — applied to the harness itself: [`chaos`] injects seeded kill /
//! hang / corrupt / duplicate faults into [`worker`] loops, and the
//! integration suite asserts the artifact is unchanged under every
//! schedule. See the README's *Distributed execution* section for the
//! protocol sketch and the chaos how-to.
//!
//! Everything here is std-only (`TcpListener`/`TcpStream` plus the
//! existing hand-rendered JSON), per the workspace's offline-deps
//! constraint.

pub mod chaos;
pub mod coordinator;
pub mod journal;
pub mod protocol;
pub mod worker;

pub use chaos::{ChaosAction, ChaosPlan, ChaosState};
pub use coordinator::{Coordinator, RunOpts};
pub use journal::{load_journal, load_journals, Journal, JournalReplay, JOURNAL_VERSION};
pub use protocol::{matrix_fingerprint, Frame, PROTO_VERSION};
pub use worker::{run_worker, Backoff, WorkerConfig, WorkerOutcome, WorkerReport};

use ftes_gen::Scenario;
use ftes_model::Cost;
use ftes_opt::CoreBudget;
use serde::{Deserialize, Serialize};

use crate::Strategy;

/// Configuration of a coordinator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistConfig {
    /// Lease deadline (milliseconds): a worker that has not answered a
    /// lease within this window is presumed lost, the cell re-queued.
    pub lease_ms: u64,
    /// Local-fallback grace (milliseconds): with no worker connected
    /// for this long (none ever registered, or all died), the
    /// coordinator starts running pending cells itself. `0` falls back
    /// immediately; `u64::MAX` never does, so a fully deserted
    /// coordinator waits for workers indefinitely.
    pub grace_ms: u64,
    /// Socket read slice (milliseconds): frame reads re-check their
    /// deadline and the end of the run this often, and no read or write
    /// blocks longer than a few of these. Accepts do not wait on it;
    /// they block until a worker connects or the emitter's end-of-run
    /// self-connect wakes them.
    pub io_poll_ms: u64,
    /// Render `wall_seconds` into cell payloads (fingerprinted, so
    /// workers must be launched to match).
    pub timings: bool,
    /// Print one progress line per emitted cell to stderr.
    pub progress: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            lease_ms: 30_000,
            grace_ms: 2_000,
            io_poll_ms: 100,
            timings: true,
            progress: false,
        }
    }
}

/// Counters of one coordinator run, surfaced in the artifact's JSON
/// header (as `dist_*` lines) so every re-queue and dropped duplicate
/// is visible in the document it could have corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DistStats {
    /// Workers that completed registration.
    pub workers_registered: u64,
    /// Worker connections that ended (gracefully or not).
    pub workers_disconnected: u64,
    /// Registrations refused (fingerprint/protocol mismatch).
    pub workers_rejected: u64,
    /// Leases granted off the cursor.
    pub leases_granted: u64,
    /// Leases whose deadline passed unanswered.
    pub leases_expired: u64,
    /// Cells put back on the cursor (expiry, disconnect, corruption).
    pub leases_requeued: u64,
    /// Verified results accepted.
    pub results_ok: u64,
    /// Frames rejected (checksum failure, malformed, out of range).
    pub results_rejected: u64,
    /// Verified results for already-done cells, dropped.
    pub duplicates_dropped: u64,
    /// Cells the coordinator ran itself (deserted fallback).
    pub local_fallback_cells: u64,
    /// Cells emitted to the sink **this life** — the exactly-once
    /// invariant makes `resumed_cells + cells_emitted` equal the matrix
    /// size on success (a fresh run has `resumed_cells == 0`).
    pub cells_emitted: u64,
    /// Results fsync'd to the write-ahead journal this life (0 when no
    /// journal is attached).
    pub journaled_cells: u64,
    /// Cells seeded durable from a replayed journal — completed by a
    /// previous coordinator life, never re-leased or re-emitted.
    pub resumed_cells: u64,
    /// Result frames stamped with a previous life's epoch, dropped.
    pub stale_results: u64,
}

impl DistStats {
    /// Every counter as a `(name, value)` pair, in header order.
    pub fn counters(&self) -> [(&'static str, u64); 14] {
        [
            ("workers_registered", self.workers_registered),
            ("workers_disconnected", self.workers_disconnected),
            ("workers_rejected", self.workers_rejected),
            ("leases_granted", self.leases_granted),
            ("leases_expired", self.leases_expired),
            ("leases_requeued", self.leases_requeued),
            ("results_ok", self.results_ok),
            ("results_rejected", self.results_rejected),
            ("duplicates_dropped", self.duplicates_dropped),
            ("local_fallback_cells", self.local_fallback_cells),
            ("cells_emitted", self.cells_emitted),
            ("journaled_cells", self.journaled_cells),
            ("resumed_cells", self.resumed_cells),
            ("stale_results", self.stale_results),
        ]
    }

    /// The `dist_*` header lines (each `"  \"dist_<name>\": v,\n"`),
    /// ready for [`json_header`](crate::matrix::json_header). They are
    /// one-key-per-line so byte comparisons against a local run can
    /// strip them with `grep -v '"dist_'`.
    pub fn header_lines(&self) -> String {
        self.counters()
            .iter()
            .map(|(name, value)| format!("  \"dist_{name}\": {value},\n"))
            .collect()
    }
}

/// Spec of one in-process loopback worker for [`run_dist_local`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalWorkerSpec {
    /// Fault budget for this worker.
    pub chaos: ChaosPlan,
    /// Chaos/backoff seed (give each worker a distinct one).
    pub seed: u64,
}

/// The loopback harness: binds a coordinator on `127.0.0.1:0`, spawns
/// one in-process worker thread per spec (the coordinator's core budget
/// fanned out across them via [`CoreBudget::fan_out`], so worker engines
/// never oversubscribe the box), runs the sweep and returns the stats
/// plus every worker's report. This is what `repro_matrix
/// --dist-workers N [--chaos …]` and the chaos integration suite run.
///
/// # Errors
///
/// Propagates bind failures and accounting violations from
/// [`Coordinator::run`].
pub fn run_dist_local<F>(
    cells: &[Scenario],
    strategies: &[Strategy],
    arc: Cost,
    cfg: &DistConfig,
    workers: &[LocalWorkerSpec],
    budget: CoreBudget,
    sink: F,
) -> Result<(DistStats, Vec<WorkerReport>), String>
where
    F: FnMut(usize, &str),
{
    run_dist_local_opts(
        cells,
        strategies,
        arc,
        cfg,
        workers,
        budget,
        coordinator::RunOpts::default(),
        sink,
    )
}

/// [`run_dist_local`] with coordinator [`RunOpts`] — the loopback way to
/// exercise the write-ahead journal, resume seeding and `ckill` chaos
/// in-process. A run aborted by `ckill` returns `Err` (the coordinator
/// "crashed"); its workers are still joined, so their reports are lost
/// with it — use the raw [`Coordinator`] API when a test needs both.
///
/// # Errors
///
/// Propagates bind failures, accounting violations, journal write
/// failures and the `ckill` abort from [`Coordinator::run`].
#[allow(clippy::too_many_arguments)]
pub fn run_dist_local_opts<F>(
    cells: &[Scenario],
    strategies: &[Strategy],
    arc: Cost,
    cfg: &DistConfig,
    workers: &[LocalWorkerSpec],
    budget: CoreBudget,
    opts: coordinator::RunOpts,
    sink: F,
) -> Result<(DistStats, Vec<WorkerReport>), String>
where
    F: FnMut(usize, &str),
{
    let coordinator = Coordinator::bind("127.0.0.1:0", *cfg)?;
    let addr = coordinator.local_addr().to_string();
    let (_, per_worker) = budget.fan_out(workers.len().max(1));
    let mut reports: Vec<Option<WorkerReport>> = vec![None; workers.len()];
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let addr = addr.clone();
                let worker_cfg = WorkerConfig {
                    name: format!("local-{i}"),
                    budget: per_worker,
                    seed: spec.seed,
                    chaos: spec.chaos,
                    timings: cfg.timings,
                    io_poll_ms: cfg.io_poll_ms,
                    // Loopback: reconnects are refused instantly when the
                    // coordinator is done, so keep the retry tail short.
                    backoff_base_ms: 50,
                    backoff_cap_ms: 500,
                    max_attempts: 5,
                    ..WorkerConfig::default()
                };
                scope.spawn(move || run_worker(&addr, cells, strategies, arc, &worker_cfg))
            })
            .collect();
        let stats = coordinator.run(cells, strategies, arc, budget, opts, sink);
        for (slot, handle) in reports.iter_mut().zip(handles) {
            *slot = Some(handle.join().expect("worker thread panicked"));
        }
        stats
    })?;
    Ok((stats, reports.into_iter().map(Option::unwrap).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_lines_are_pinned_byte_for_byte() {
        // Distinct values, so a swapped, dropped or doubled counter shows.
        let stats = DistStats {
            workers_registered: 1,
            workers_disconnected: 2,
            workers_rejected: 3,
            leases_granted: 4,
            leases_expired: 5,
            leases_requeued: 6,
            results_ok: 7,
            results_rejected: 8,
            duplicates_dropped: 9,
            local_fallback_cells: 10,
            cells_emitted: 11,
            journaled_cells: 12,
            resumed_cells: 13,
            stale_results: 14,
        };
        assert_eq!(
            stats.header_lines(),
            concat!(
                "  \"dist_workers_registered\": 1,\n",
                "  \"dist_workers_disconnected\": 2,\n",
                "  \"dist_workers_rejected\": 3,\n",
                "  \"dist_leases_granted\": 4,\n",
                "  \"dist_leases_expired\": 5,\n",
                "  \"dist_leases_requeued\": 6,\n",
                "  \"dist_results_ok\": 7,\n",
                "  \"dist_results_rejected\": 8,\n",
                "  \"dist_duplicates_dropped\": 9,\n",
                "  \"dist_local_fallback_cells\": 10,\n",
                "  \"dist_cells_emitted\": 11,\n",
                "  \"dist_journaled_cells\": 12,\n",
                "  \"dist_resumed_cells\": 13,\n",
                "  \"dist_stale_results\": 14,\n",
            )
        );
    }
}
