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
//! ## Lease lifecycle
//!
//! ```text
//!            pop cursor                   verified result
//!  Pending ─────────────▶ Leased ────────────────────────▶ Done
//!     ▲                     │
//!     │   deadline miss /   │
//!     │   disconnect /      │        late/duplicate result
//!     └───── corrupt ───────┘        on a Done cell ──▶ dropped + counted
//! ```
//!
//! A lease is re-queued (back to the *front* of the cursor, so retried
//! cells finish early for the in-order sink) when its worker misses the
//! deadline, disconnects, or returns a frame that fails parsing or its
//! checksum. A verified result is accepted whenever its cell is not yet
//! `Done` — even from an expired lease — and duplicates are dropped and
//! counted. Every socket read and write is bounded by a timeout, so a
//! hung peer can never wedge a handler thread.
//!
//! ## Degraded modes
//!
//! If no worker is connected for [`DistConfig::grace_ms`] (none ever
//! registered, or all died), the coordinator starts executing pending
//! cells **locally** through the same engine — the run always
//! terminates with the same document, distribution is only ever an
//! accelerator. The final accounting is checked: every cell emitted
//! exactly once, or the run returns an error instead of a silently
//! wrong artifact.
//!
//! ## Crash safety
//!
//! With a write-ahead [`Journal`] attached ([`RunOpts::journal`]),
//! every verified result is fsync'd to disk **before** the cell is
//! marked done — so a coordinator crash loses at most the result in
//! flight, never a completed cell. A resumed run seeds the durable set
//! via [`RunOpts::durable`] (those cells are never re-leased and never
//! re-emitted) and bumps [`RunOpts::epoch`]; workers reconnecting from
//! the previous life re-register normally, while result frames stamped
//! with a stale epoch are counted and dropped, not double-emitted. The
//! `ckill` chaos knob ([`RunOpts::ckill_after`]) simulates the crash:
//! it aborts the run after N verified results without sending shutdown
//! frames or writing an artifact — exactly what SIGKILL would leave
//! behind.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ftes_gen::Scenario;
use ftes_model::Cost;
use ftes_opt::CoreBudget;

use super::journal::Journal;
use super::protocol::{
    checksum, matrix_fingerprint, wake_listener, Frame, FrameReader, RecvError, PROTO_VERSION,
};
use super::{DistConfig, DistStats};
use crate::matrix::{cell_json, run_cell_seeded};
use crate::Strategy;

/// Leases in flight per worker. Two keep a worker busy while its
/// previous result is in transit and give the shutdown drain something
/// real to drain.
const PIPELINE: usize = 2;

/// Registration deadline (milliseconds) for a fresh connection to
/// present its hello frame.
const HELLO_MS: u64 = 5_000;

/// Where a cell currently is in the lease lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    /// On the cursor, waiting to be leased.
    Pending,
    /// Leased to a worker (or claimed by the local fallback).
    Leased,
    /// A verified payload has been accepted.
    Done,
}

/// One granted, not-yet-answered lease (handler-local bookkeeping).
#[derive(Debug, Clone, Copy)]
struct ActiveLease {
    id: u64,
    cell: usize,
    deadline: Instant,
}

/// Shared coordinator state behind one mutex.
#[derive(Debug)]
struct CoordState {
    /// The shared cursor: cells waiting to be leased, front first.
    pending: VecDeque<usize>,
    cell_state: Vec<CellState>,
    /// Verified payloads waiting for in-order emission.
    done_payloads: BTreeMap<usize, String>,
    /// Cells emitted so far (`done_payloads` keys < `emitted` are gone).
    emitted: usize,
    next_lease: u64,
    next_worker: u64,
    connected: usize,
    /// Last registration or verified result — the grace clock.
    last_activity: Instant,
    /// The run is complete; everyone should wind down.
    all_emitted: bool,
    /// Write-ahead journal: results are fsync'd here before they count.
    journal: Option<Journal>,
    /// `ckill` chaos: abort after this many verified results (0 = off).
    ckill_after: u64,
    /// The crash simulation fired — die without shutdown frames.
    aborted: bool,
    /// A journal write failed — the durability contract is broken, so
    /// the run must end with this error, not a silently weaker artifact.
    fatal: Option<String>,
    stats: DistStats,
}

impl CoordState {
    /// The run is over without reaching `all_emitted` (crash or fatal).
    fn dead(&self) -> bool {
        self.aborted || self.fatal.is_some()
    }

    /// Everyone should wind down, for good reasons or bad.
    fn done(&self) -> bool {
        self.all_emitted || self.dead()
    }
}

/// The condvar pair: `work_ready` wakes handlers waiting for pending
/// cells, `completed` wakes the in-order emitter (results, worker
/// (dis)connects and re-queues all change what it can do next).
struct Shared {
    state: Mutex<CoordState>,
    work_ready: Condvar,
    completed: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, CoordState> {
        match self.state.lock() {
            Ok(g) => g,
            // A poisoned lock means a handler panicked; the state itself
            // is a bag of counters and queues that is always consistent
            // between mutations, so keep going rather than deadlock.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Re-queues every still-live lease in `outstanding` onto the front
    /// of the cursor (in cell order) and wakes everyone.
    fn requeue(&self, outstanding: &mut Vec<ActiveLease>) {
        let mut st = self.lock();
        for lease in outstanding.drain(..).rev() {
            if st.cell_state[lease.cell] == CellState::Leased {
                st.cell_state[lease.cell] = CellState::Pending;
                st.pending.push_front(lease.cell);
                st.stats.leases_requeued += 1;
            }
        }
        drop(st);
        self.work_ready.notify_all();
        self.completed.notify_all();
    }

    /// Accepts a verified payload for `cell` (unless already done, which
    /// is the duplicate path). Returns whether it was accepted.
    fn accept_result(&self, cell: usize, payload: String) -> bool {
        let mut st = self.lock();
        if st.dead() {
            // A crashed coordinator accepts nothing more.
            return false;
        }
        match st.cell_state[cell] {
            CellState::Done => {
                st.stats.duplicates_dropped += 1;
                false
            }
            state => {
                // Journal *before* the cell becomes done: a result only
                // counts once a record the loader can replay is on disk.
                if let Some(journal) = st.journal.as_mut() {
                    if let Err(e) = journal.append_cell(cell, &payload) {
                        st.fatal = Some(e);
                        drop(st);
                        self.work_ready.notify_all();
                        self.completed.notify_all();
                        return false;
                    }
                    st.stats.journaled_cells += 1;
                }
                if state == CellState::Pending {
                    // A late result for a re-queued cell: still valid
                    // work — take it off the cursor.
                    st.pending.retain(|&c| c != cell);
                }
                st.cell_state[cell] = CellState::Done;
                st.done_payloads.insert(cell, payload);
                st.stats.results_ok += 1;
                st.last_activity = Instant::now();
                if st.ckill_after > 0 && st.stats.results_ok >= st.ckill_after {
                    // The crash simulation: from here the coordinator is
                    // "dead" — no shutdown frames, no artifact, only the
                    // journal survives.
                    st.aborted = true;
                    drop(st);
                    self.work_ready.notify_all();
                    self.completed.notify_all();
                    return true;
                }
                drop(st);
                self.completed.notify_all();
                true
            }
        }
    }

    fn done(&self) -> bool {
        self.lock().done()
    }

    /// Waits up to `timeout` for the run to end; returns whether it has.
    fn wait_done(&self, timeout: Duration) -> bool {
        let st = self.lock();
        let (st, _) = self
            .completed
            .wait_timeout_while(st, timeout, |st| !st.done())
            .unwrap_or_else(|p| p.into_inner());
        st.done()
    }

    /// The run actually finished (every cell emitted, no crash) — the
    /// only state in which workers are told to shut down.
    fn completed_ok(&self) -> bool {
        let st = self.lock();
        st.all_emitted && !st.dead()
    }
}

/// Crash-safety / chaos options for [`Coordinator::run`]. The default
/// (`RunOpts::default()`) is a plain fresh run: no journal, no durable
/// cells, epoch 1, no coordinator chaos.
#[derive(Debug)]
pub struct RunOpts {
    /// Write-ahead journal: every verified result is fsync'd to it
    /// before the cell counts as done. `None` keeps PR 7 behaviour.
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
        let RunOpts {
            journal,
            durable,
            epoch,
            ckill_after,
        } = opts;
        let total = cells.len();
        let fingerprint = matrix_fingerprint(cells, strategies, arc, cfg.timings);

        let mut durable_mask = vec![false; total];
        for &cell in &durable {
            if cell >= total {
                return Err(format!(
                    "durable cell {cell} out of range (matrix has {total})"
                ));
            }
            durable_mask[cell] = true;
        }
        let mut cell_state = vec![CellState::Pending; total];
        let mut pending = VecDeque::new();
        for (cell, state) in cell_state.iter_mut().enumerate() {
            if durable_mask[cell] {
                *state = CellState::Done;
            } else {
                pending.push_back(cell);
            }
        }
        let stats = DistStats {
            resumed_cells: durable_mask.iter().filter(|&&d| d).count() as u64,
            ..DistStats::default()
        };

        let shared = Shared {
            state: Mutex::new(CoordState {
                pending,
                cell_state,
                done_payloads: BTreeMap::new(),
                emitted: 0,
                next_lease: 0,
                next_worker: 0,
                connected: 0,
                last_activity: Instant::now(),
                all_emitted: total == 0,
                journal,
                ckill_after,
                aborted: false,
                fatal: None,
                stats,
            }),
            work_ready: Condvar::new(),
            completed: Condvar::new(),
        };
        let poll = Duration::from_millis(cfg.io_poll_ms.max(1));
        let mut emit_counts = vec![0u32; total];
        let mut sink_emitted = 0u64;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("coordinator listener has no address: {e}"))?;

        std::thread::scope(|scope| {
            // Acceptor: blocks in accept, one handler thread per
            // connection. The emitter wakes it with a self-connect once
            // the run is done; that connection is dropped unserved.
            scope.spawn(|| loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if shared.done() {
                            break;
                        }
                        scope.spawn(|| {
                            handle_worker(stream, &shared, total, &cfg, &fingerprint, epoch);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    // Back off one poll slice and retry, unless the run
                    // ends meanwhile.
                    Err(_) => {
                        if shared.wait_done(poll) {
                            break;
                        }
                    }
                }
            });

            // This thread is the in-order emitter and the local-fallback
            // executor of last resort.
            let grace = Duration::from_millis(cfg.grace_ms);
            loop {
                let mut st = shared.lock();
                if st.dead() {
                    // Crashed (ckill) or a journal write failed: stop
                    // emitting — a dead coordinator writes no artifact.
                    drop(st);
                    shared.work_ready.notify_all();
                    shared.completed.notify_all();
                    break;
                }
                loop {
                    let next = st.emitted;
                    if next >= total {
                        break;
                    }
                    if durable_mask[next] {
                        // Replayed from the journal last life: counts
                        // toward in-order progress, never re-emitted.
                        st.emitted += 1;
                        emit_counts[next] += 1;
                    } else if let Some(payload) = st.done_payloads.remove(&next) {
                        st.emitted += 1;
                        emit_counts[next] += 1;
                        sink_emitted += 1;
                        if cfg.progress {
                            eprintln!("[{}/{total}] {}", next + 1, cells[next].label());
                        }
                        sink(next, &payload);
                    } else {
                        break;
                    }
                }
                if st.emitted == total {
                    st.all_emitted = true;
                    drop(st);
                    shared.work_ready.notify_all();
                    shared.completed.notify_all();
                    break;
                }
                let deserted = st.connected == 0 && st.last_activity.elapsed() >= grace;
                if deserted && !st.pending.is_empty() {
                    // Degrade gracefully: no workers around — run the
                    // next pending cell ourselves instead of hanging.
                    let cell = st.pending.pop_front().expect("checked non-empty");
                    st.cell_state[cell] = CellState::Leased;
                    st.stats.local_fallback_cells += 1;
                    drop(st);
                    let payload = render_cell(&cells[cell], strategies, arc, cfg.timings, budget);
                    shared.accept_result(cell, payload);
                    continue;
                }
                let guard = shared
                    .completed
                    .wait_timeout(st, poll.min(Duration::from_millis(50)))
                    .map(|(g, _)| g)
                    .unwrap_or_else(|p| p.into_inner().0);
                drop(guard);
            }
            // Both exits above leave the run done: wake the acceptor.
            if let Err(e) = wake_listener(addr) {
                eprintln!("cannot wake the coordinator's accept loop: {e}");
            }
        });

        let st = shared.state.into_inner().unwrap_or_else(|p| p.into_inner());
        let mut stats = st.stats;
        if let Some(fatal) = st.fatal {
            return Err(fatal);
        }
        if st.aborted {
            return Err(format!(
                "coordinator killed by ckill chaos after {} verified results \
                 (crash simulation: journal retained, no artifact)",
                stats.results_ok
            ));
        }
        stats.cells_emitted = sink_emitted;
        // The exactly-once invariant: the in-order emitter makes a
        // violation structurally impossible, so this is a guard against
        // future refactors, not a runtime hazard.
        if st.emitted != total || emit_counts.iter().any(|&c| c != 1) {
            return Err(format!(
                "lease accounting violated: {}/{} cells emitted, counts {:?}",
                st.emitted, total, emit_counts
            ));
        }
        Ok(stats)
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
        &run_cell_seeded(scenario, strategies, budget, None).0,
        arc,
        timings,
    )
}

/// Serves one worker connection: registration, lease pipelining, result
/// verification, deadline enforcement, drain-and-shutdown. `epoch` is
/// this coordinator life's number — handed out in `welcome`, required
/// on every `result` (stale-epoch results are dropped and counted, the
/// connection stays up).
fn handle_worker(
    mut stream: TcpStream,
    shared: &Shared,
    total_cells: usize,
    cfg: &DistConfig,
    fingerprint: &str,
    epoch: u64,
) {
    let _ = stream.set_nodelay(true);
    let poll = Duration::from_millis(cfg.io_poll_ms.max(1));
    let write_timeout = Duration::from_millis(cfg.io_poll_ms.max(1) * 20);
    let _ = stream.set_write_timeout(Some(write_timeout));
    let mut reader = FrameReader::new();

    // Registration.
    let hello_deadline = Instant::now() + Duration::from_millis(HELLO_MS);
    let hello = reader.read_line(&mut stream, hello_deadline, poll, || shared.done());
    let (name, _worker_id) = match hello
        .map_err(|e| format!("{e:?}"))
        .and_then(|l| Frame::parse(&l).map_err(|e| format!("bad hello: {e}")))
    {
        Ok(Frame::Hello {
            proto,
            name,
            fingerprint: theirs,
        }) => {
            if proto != PROTO_VERSION {
                let _ = send(
                    &mut stream,
                    &Frame::Reject {
                        reason: format!("protocol {proto} != {PROTO_VERSION}"),
                    },
                );
                return;
            }
            if theirs != fingerprint {
                let _ = send(
                    &mut stream,
                    &Frame::Reject {
                        reason: "matrix fingerprint mismatch (different flags?)".to_string(),
                    },
                );
                let mut st = shared.lock();
                st.stats.workers_rejected += 1;
                return;
            }
            let id = {
                let mut st = shared.lock();
                let id = st.next_worker;
                st.next_worker += 1;
                st.connected += 1;
                st.stats.workers_registered += 1;
                st.last_activity = Instant::now();
                id
            };
            shared.completed.notify_all();
            if send(
                &mut stream,
                &Frame::Welcome {
                    proto: PROTO_VERSION,
                    worker: id,
                    epoch,
                },
            )
            .is_err()
            {
                let mut st = shared.lock();
                st.connected -= 1;
                st.stats.workers_disconnected += 1;
                return;
            }
            (name, id)
        }
        _ => return, // not a hello (or none arrived): drop silently
    };
    let _ = name;

    let mut outstanding: Vec<ActiveLease> = Vec::new();
    let lease_len = Duration::from_millis(cfg.lease_ms.max(1));
    // Keepalive cadence for lease-starved workers: a few poll slices,
    // capped well below any sane worker `idle_ms`.
    let keepalive = Duration::from_millis((cfg.io_poll_ms.max(1) * 20).min(5_000));
    let mut last_ping = Instant::now();

    'serve: loop {
        // Grant leases up to the pipeline depth.
        let mut to_send = Vec::new();
        {
            let mut st = shared.lock();
            if st.done() {
                break 'serve;
            }
            while outstanding.len() + to_send.len() < PIPELINE {
                let Some(cell) = st.pending.pop_front() else {
                    break;
                };
                let id = st.next_lease;
                st.next_lease += 1;
                st.cell_state[cell] = CellState::Leased;
                st.stats.leases_granted += 1;
                to_send.push(ActiveLease {
                    id,
                    cell,
                    deadline: Instant::now() + lease_len,
                });
            }
        }
        // Every granted lease goes into `outstanding` before any send is
        // attempted: if a send fails mid-batch, the unsent leases are in
        // `outstanding` too, so the requeue below recovers all of them
        // (a cell Leased but tracked nowhere would hang the run).
        outstanding.extend(to_send.iter().copied());
        for lease in to_send {
            let frame = Frame::Lease {
                lease: lease.id,
                cell: lease.cell,
                deadline_ms: cfg.lease_ms,
            };
            if send(&mut stream, &frame).is_err() {
                shared.requeue(&mut outstanding);
                break 'serve;
            }
        }

        if outstanding.is_empty() {
            // Nothing leased to us: wait for work (or the end).
            let st = shared.lock();
            if st.done() {
                break 'serve;
            }
            if st.pending.is_empty() {
                let guard = shared
                    .work_ready
                    .wait_timeout(st, poll)
                    .map(|(g, _)| g)
                    .unwrap_or_else(|p| p.into_inner().0);
                drop(guard);
                // Keepalive: a worker starved of leases (every cell
                // leased to someone else) must not trip its own idle
                // guard and reconnect-loop.
                if last_ping.elapsed() >= keepalive {
                    last_ping = Instant::now();
                    if send(&mut stream, &Frame::Ping).is_err() {
                        break 'serve; // nothing outstanding to requeue
                    }
                }
            }
            continue 'serve;
        }

        // Wait for a result until the earliest lease deadline.
        let deadline = outstanding
            .iter()
            .map(|l| l.deadline)
            .min()
            .expect("non-empty outstanding")
            + poll;
        match reader.read_line(&mut stream, deadline, poll, || shared.done()) {
            Ok(line) => match Frame::parse(&line) {
                Ok(Frame::Result {
                    lease,
                    cell,
                    epoch: result_epoch,
                    crc,
                    payload,
                }) => {
                    if cell >= total_cells || crc != checksum(&payload) {
                        // Corrupt or impossible: this connection's stream
                        // can no longer be trusted.
                        let mut st = shared.lock();
                        st.stats.results_rejected += 1;
                        drop(st);
                        shared.requeue(&mut outstanding);
                        break 'serve;
                    }
                    if result_epoch != epoch {
                        // A lease from a previous coordinator life: that
                        // cell's fate was already settled by the journal
                        // replay, so the result is dropped — counted,
                        // never double-emitted. The connection itself is
                        // fine (it re-registered against *this* life).
                        let mut st = shared.lock();
                        st.stats.stale_results += 1;
                        continue 'serve;
                    }
                    outstanding.retain(|l| l.id != lease);
                    shared.accept_result(cell, payload);
                }
                Ok(Frame::Bye) => {
                    shared.requeue(&mut outstanding);
                    break 'serve;
                }
                Ok(_) | Err(_) => {
                    // Malformed line or a frame no worker should send.
                    let mut st = shared.lock();
                    st.stats.results_rejected += 1;
                    drop(st);
                    shared.requeue(&mut outstanding);
                    break 'serve;
                }
            },
            Err(RecvError::Timeout) => {
                if shared.done() {
                    break 'serve;
                }
                let now = Instant::now();
                let overdue = outstanding.iter().filter(|l| now >= l.deadline).count();
                if overdue > 0 {
                    // Deadline missed: the worker is hung or too slow —
                    // re-queue everything and drop the connection (it
                    // may reconnect with fresh leases).
                    let mut st = shared.lock();
                    st.stats.leases_expired += overdue as u64;
                    drop(st);
                    shared.requeue(&mut outstanding);
                    break 'serve;
                }
            }
            Err(RecvError::Closed) | Err(RecvError::Io(_)) => {
                shared.requeue(&mut outstanding);
                break 'serve;
            }
        }
    }

    // Wind-down. If the run *completed*, tell the worker to exit and
    // give it a bounded window to drain in-flight results and say bye —
    // that is what keeps CI teardown free of orphaned worker processes.
    // A ckill'd (crashed) coordinator sends nothing: its workers see the
    // connection die, exactly as a SIGKILL would leave them.
    shared.requeue(&mut outstanding);
    if shared.completed_ok() && send(&mut stream, &Frame::Shutdown).is_ok() {
        // The drain window is bounded well below the lease deadline: by
        // now every drained result is a duplicate anyway, so a hung
        // worker must not stall the artifact write for a full lease.
        let drain_deadline = Instant::now() + lease_len.min(Duration::from_secs(2));
        while let Ok(line) = reader.read_line(&mut stream, drain_deadline, poll, || false) {
            match Frame::parse(&line) {
                Ok(Frame::Bye) => break,
                Ok(Frame::Result {
                    cell,
                    epoch: result_epoch,
                    crc,
                    payload,
                    ..
                }) if cell < total_cells && result_epoch == epoch && crc == checksum(&payload) => {
                    // A drained in-flight cell; almost always a
                    // duplicate by now, but verified is verified.
                    shared.accept_result(cell, payload);
                }
                _ => break,
            }
        }
    }
    let mut st = shared.lock();
    st.connected -= 1;
    st.stats.workers_disconnected += 1;
    drop(st);
    shared.work_ready.notify_all();
    shared.completed.notify_all();
}

/// Writes one frame (write timeout set at connection setup).
fn send(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    use std::io::Write;
    stream.write_all(frame.render().as_bytes())
}
