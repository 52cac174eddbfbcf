//! The lease-based coordinator of the distributed matrix runner.
//!
//! The coordinator owns the shared cell cursor. Workers register over
//! TCP ([`super::protocol`]), receive cells as **leases** with deadlines
//! and stream back verified results, which are emitted to the caller's
//! sink **in cell order** — the same in-order contract as
//! [`run_cells_streaming`](crate::run_cells_streaming), so the merged
//! document is byte-identical to a local sequential run (up to
//! `wall_seconds`) no matter which workers die, stall, corrupt frames
//! or double-send.
//!
//! Every lease decision lives in one I/O-free state machine, the
//! crate-private `lease::LeaseTable` (whose docs draw the lease
//! lifecycle); this module holds its socket adapters. The acceptor
//! asks the table before it spawns a handler thread (an excess
//! connection gets a `busy` reject on the accept thread), each handler
//! reads one frame under the deadline the table gives it and writes
//! what the table answers, and the emitter hands ready cells to the
//! sink and runs the local fallback. Every socket read and write is
//! bounded by a timeout, so a hung peer can never wedge a handler.
//!
//! ## Degraded modes
//!
//! If no worker is connected for [`DistConfig::grace_ms`], the
//! coordinator runs pending cells **locally** through the same engine:
//! distribution is only ever an accelerator. The final accounting is
//! checked: every cell emitted exactly once, or the run returns an
//! error instead of a silently wrong artifact.
//!
//! ## Crash safety
//!
//! With a write-ahead [`Journal`] attached ([`RunOpts::journal`]),
//! every verified result is fsync'd **before** the cell is marked done,
//! so a coordinator crash loses at most the result in flight. A resumed
//! run seeds [`RunOpts::durable`] and bumps [`RunOpts::epoch`]; workers
//! re-register, and results stamped with a stale epoch are counted and
//! dropped. The `ckill` knob ([`RunOpts::ckill_after`]) simulates the
//! crash: no shutdown frames, no artifact, as SIGKILL would leave it.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ftes_gen::Scenario;
use ftes_model::Cost;
use ftes_opt::CoreBudget;

use super::journal::Journal;
use super::lease::{ConnId, LeaseTable, Step, Tick};
use super::protocol::{matrix_fingerprint, wake_listener, Frame, FrameReader};
use super::{DistConfig, DistStats};
use crate::matrix::{cell_json, run_cell_budgeted};
use crate::Strategy;

/// The table and the journal behind one lock, so a fresh result is
/// journaled and committed in one critical section.
struct Core {
    table: LeaseTable,
    journal: Option<Journal>,
}

impl Core {
    /// Makes a fresh result durable, then commits it: no cell becomes
    /// `Done` before its journal record is fsync'd.
    fn settle(&mut self, cell: usize, payload: String, now_ms: u64) {
        match self.journal.as_mut().map(|j| j.append_cell(cell, &payload)) {
            Some(Err(e)) => self.table.fail(e),
            appended => self.table.commit(cell, payload, appended.is_some(), now_ms),
        }
    }
}

/// `changed` wakes whoever waits on the table: idle handlers (a requeue
/// may bring work), the emitter (results, (dis)connects, the end) and
/// the acceptor's error back-off.
struct Shared {
    core: Mutex<Core>,
    changed: Condvar,
    /// Time zero of the table's `now_ms`.
    start: Instant,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Core> {
        // A poisoned lock means a handler panicked; the table is
        // consistent between calls, so keep going rather than deadlock.
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Runs `f` on the core at the current time, then wakes every waiter.
    fn with<R>(&self, f: impl FnOnce(&mut Core, u64) -> R) -> R {
        let out = f(&mut self.lock(), self.now_ms());
        self.changed.notify_all();
        out
    }

    /// Waits up to `timeout` for a change, holding `core` until then.
    fn wait(&self, core: MutexGuard<'_, Core>, timeout: Duration) {
        drop(self.changed.wait_timeout(core, timeout));
    }
}

/// Crash-safety / chaos options for [`Coordinator::run`]. The default
/// (`RunOpts::default()`) is a plain fresh run: no journal, no durable
/// cells, epoch 1, no coordinator chaos.
#[derive(Debug)]
pub struct RunOpts {
    /// Write-ahead journal: every verified result is fsync'd to it
    /// before the cell counts as done.
    pub journal: Option<Journal>,
    /// Cells already durable from a replayed journal. They are seeded
    /// `Done`, never leased, and advanced past silently — the sink only
    /// ever sees cells completed in *this* life, so re-loading the
    /// journal afterwards is how resumed artifacts are assembled.
    pub durable: Vec<usize>,
    /// This coordinator life's epoch: 1 for a fresh run, `replay.epoch`
    /// after a [`Journal::resume`]. Stamped into every `welcome`;
    /// result frames carrying any other epoch are dropped and counted
    /// as [`DistStats::stale_results`].
    pub epoch: u64,
    /// `ckill:N` chaos — abort crash-equivalently after N verified
    /// results this life (no shutdown frames, no artifact; the journal
    /// survives). `0` disables.
    pub ckill_after: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            journal: None,
            durable: Vec::new(),
            epoch: 1,
            ckill_after: 0,
        }
    }
}

/// A bound coordinator, ready to [`run`](Coordinator::run). Binding is
/// separate from running so callers (tests, the `--addr-file` flow) can
/// learn the actual address before any worker starts.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
    cfg: DistConfig,
}

impl Coordinator {
    /// Binds the coordinator socket (`host:port`; port `0` picks a free
    /// one).
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the address cannot be bound.
    pub fn bind(addr: &str, cfg: DistConfig) -> Result<Coordinator, String> {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot bind coordinator {addr}: {e}"))?;
        Ok(Coordinator { listener, cfg })
    }

    /// The actually bound address (resolves port `0`).
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (not reachable for a
    /// freshly bound TCP listener).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener address")
    }

    /// Runs the distributed sweep: serves leases to every worker that
    /// registers, re-queues lost ones, falls back to local execution
    /// when no workers are around, and hands each verified cell payload
    /// to `sink` in cell order. Returns the final [`DistStats`] once
    /// every cell has been emitted exactly once.
    ///
    /// `budget` governs the local-fallback engine only; remote workers
    /// bring their own cores. `opts` carries the crash-safety options —
    /// an attached write-ahead journal, a durable set replayed from a
    /// previous life, the run epoch and the `ckill` crash simulation
    /// (see [`RunOpts`]); `RunOpts::default()` is a plain fresh run.
    ///
    /// The sink receives only cells completed *this* life — durable
    /// cells from `opts.durable` are advanced past silently (they are
    /// already in the journal). [`DistStats::cells_emitted`] counts
    /// sink emissions, so across a crash and a resume
    /// `resumed_cells + cells_emitted == total` is the exactly-once
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the exactly-once accounting
    /// is violated (a bug guard — the protocol is designed to make it
    /// impossible), a journal write fails (durability cannot be
    /// silently dropped), or the `ckill` simulation fires (the run
    /// "crashed": the journal is retained, nothing else is).
    pub fn run<F>(
        self,
        cells: &[Scenario],
        strategies: &[Strategy],
        arc: Cost,
        budget: CoreBudget,
        opts: RunOpts,
        mut sink: F,
    ) -> Result<DistStats, String>
    where
        F: FnMut(usize, &str),
    {
        let Coordinator { listener, cfg } = self;
        let fingerprint = matrix_fingerprint(cells, strategies, arc, cfg.timings);
        let table = LeaseTable::new(
            cells.len(),
            &opts.durable,
            opts.epoch,
            fingerprint,
            &cfg,
            opts.ckill_after,
        )?;
        let shared = Shared {
            core: Mutex::new(Core {
                table,
                journal: opts.journal,
            }),
            changed: Condvar::new(),
            start: Instant::now(),
        };
        let poll = Duration::from_millis(cfg.io_poll_ms.max(1));
        let addr = listener
            .local_addr()
            .map_err(|e| format!("coordinator listener has no address: {e}"))?;

        std::thread::scope(|scope| {
            // Acceptor: blocks in accept and asks the table before it
            // spawns a handler. The emitter wakes it with a self-connect
            // once the run is done; that connection is dropped unserved.
            scope.spawn(|| loop {
                match listener.accept() {
                    Ok((mut stream, _peer)) => {
                        let shared = &shared;
                        match shared
                            .with(|core, now| (!core.table.done()).then(|| core.table.connect(now)))
                        {
                            None => break,
                            Some(Ok(conn)) => {
                                scope.spawn(move || handle_worker(stream, shared, conn, poll));
                            }
                            Some(Err(busy)) => {
                                let _ = stream.set_write_timeout(Some(poll * 20));
                                let _ = send(&mut stream, &busy);
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    // Back off one poll slice and retry, unless the run
                    // ends meanwhile.
                    Err(_) => {
                        shared.wait(shared.lock(), poll);
                        if shared.lock().table.done() {
                            break;
                        }
                    }
                }
            });

            // This thread is the in-order emitter and the local-fallback
            // executor of last resort.
            loop {
                let mut core = shared.lock();
                match core.table.tick(shared.now_ms()) {
                    Tick::Emit(batch) => {
                        drop(core);
                        for (cell, payload) in batch {
                            if cfg.progress {
                                eprintln!("[{}/{}] {}", cell + 1, cells.len(), cells[cell].label());
                            }
                            sink(cell, &payload);
                        }
                    }
                    Tick::Fallback(cell) => {
                        drop(core);
                        let payload =
                            render_cell(&cells[cell], strategies, arc, cfg.timings, budget);
                        shared.with(|core, now| {
                            if core.table.fresh(cell) {
                                core.settle(cell, payload, now);
                            }
                        });
                    }
                    Tick::Wait => shared.wait(core, poll.min(Duration::from_millis(50))),
                    Tick::End => break,
                }
            }
            // The run is done: wake the idle handlers and the acceptor.
            shared.changed.notify_all();
            if let Err(e) = wake_listener(addr) {
                eprintln!("cannot wake the coordinator's accept loop: {e}");
            }
        });

        let core = shared.core.into_inner();
        core.unwrap_or_else(PoisonError::into_inner).table.finish()
    }
}

/// Renders one cell exactly as the worker does — shared by the local
/// fallback so degraded runs stay byte-identical.
pub(super) fn render_cell(
    scenario: &Scenario,
    strategies: &[Strategy],
    arc: Cost,
    timings: bool,
    budget: CoreBudget,
) -> String {
    cell_json(
        &run_cell_budgeted(scenario, strategies, budget),
        arc,
        timings,
    )
}

/// Serves one connection: reads a frame under the deadline the table
/// gives, feeds it in and writes what the table answers, until the
/// table ends the connection.
fn handle_worker(mut stream: TcpStream, shared: &Shared, conn: ConnId, poll: Duration) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(poll * 20));
    let mut reader = FrameReader::new();
    // Keepalive cadence for lease-starved workers: a few poll slices,
    // capped well below any sane worker `idle_ms`.
    let keepalive = (poll * 20).min(Duration::from_secs(5));
    let mut last_ping = Instant::now();
    loop {
        let mut core = shared.lock();
        match core.table.step(conn, shared.now_ms()) {
            Step::End => break,
            Step::Send(frames) => {
                drop(core);
                if frames.iter().any(|f| send(&mut stream, f).is_err()) {
                    break;
                }
            }
            Step::Read(deadline_ms) => {
                drop(core);
                let deadline = shared.start + Duration::from_millis(deadline_ms) + poll;
                let got = reader.read_line(&mut stream, deadline, poll, || {
                    shared.lock().table.abandons_read(conn)
                });
                shared.with(|core, now| {
                    if let Some((cell, payload)) = core.table.input(conn, got, now) {
                        core.settle(cell, payload, now);
                    }
                });
            }
            Step::Idle => {
                shared.wait(core, poll);
                // A worker starved of leases (every cell leased to
                // someone else) must not trip its own idle guard and
                // reconnect-loop.
                if last_ping.elapsed() >= keepalive {
                    last_ping = Instant::now();
                    if send(&mut stream, &Frame::Ping).is_err() {
                        break;
                    }
                }
            }
        }
    }
    shared.with(|core, _| core.table.disconnect(conn));
}

/// Writes one frame (write timeout set at connection setup).
fn send(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    use std::io::Write;
    stream.write_all(frame.render().as_bytes())
}
