//! The coordinator's lease policy: one I/O-free state machine.
//!
//! [`LeaseTable`] makes every lease decision of a coordinator run and
//! owns its [`DistStats`]. It holds no socket, clock, lock or journal:
//! every input carries the caller's `now_ms` (milliseconds since the
//! table was made) and every answer says what to do. The socket
//! adapters in [`super::coordinator`] and the seeded simulator in this
//! module's tests drive it through the same calls.
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
//! counted. A result stamped with another coordinator life's epoch is
//! counted as stale and dropped. A fresh result becomes `Done` only
//! through [`LeaseTable::commit`], which the adapter calls after the
//! result's journal record is durable.

use std::collections::{BTreeMap, VecDeque};

use super::protocol::{checksum, Frame, RecvError, PROTO_VERSION};
use super::{DistConfig, DistStats};

/// Leases in flight per worker. Two keep a worker busy while its
/// previous result is in transit and give the shutdown drain something
/// real to drain.
const PIPELINE: usize = 2;

/// Registration deadline (milliseconds) for a fresh connection to
/// present its hello frame.
const HELLO_MS: u64 = 5_000;

/// Live connections, registered or not. The acceptor refuses the next
/// one with a `busy` reject instead of spawning a thread for it.
const MAX_CONNS: usize = 64;

/// A connection, as the table names it.
pub(super) type ConnId = u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    Pending,
    /// Leased to a worker, or claimed by the local fallback.
    Leased,
    Done,
    /// Replayed from the journal of a previous life: never leased, and
    /// passed over silently by the emitter.
    Durable,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Hello,
    Serving,
    /// Shutdown sent; reading the worker's last results and its bye.
    Draining,
    Closed,
}

#[derive(Debug)]
struct Conn {
    phase: Phase,
    registered: bool,
    /// Read deadline of the hello or of the drain.
    deadline_ms: u64,
    /// Granted, unanswered leases: (lease id, cell, deadline).
    leases: Vec<(u64, usize, u64)>,
    /// Frames to write before anything else (welcome or reject).
    outbox: Vec<Frame>,
}

#[derive(Debug)]
enum End {
    /// Every cell emitted.
    Complete,
    /// The `ckill` crash simulation fired: no shutdown, no artifact.
    Killed,
    /// A journal write failed: durability is broken, the run errs.
    Fatal(String),
}

/// What a connection's handler does next.
#[derive(Debug)]
pub(super) enum Step {
    /// Write these frames, in order.
    Send(Vec<Frame>),
    /// Read one line, giving up at this deadline (`now_ms` scale).
    Read(u64),
    /// Nothing to send or read: wait until the table changes.
    Idle,
    /// The connection is over: call [`LeaseTable::disconnect`].
    End,
}

/// What the emitter does next.
#[derive(Debug)]
pub(super) enum Tick {
    /// Hand these `(cell, payload)` pairs to the sink, in order.
    Emit(Vec<(usize, String)>),
    /// Nobody is connected: run this cell locally, then offer its
    /// payload through [`LeaseTable::fresh`].
    Fallback(usize),
    /// Nothing to do until the table changes or time passes.
    Wait,
    /// The run is over.
    End,
}

/// The lease state of one coordinator life.
#[derive(Debug)]
pub(super) struct LeaseTable {
    epoch: u64,
    fingerprint: String,
    lease_ms: u64,
    grace_ms: u64,
    ckill_after: u64,
    /// [`MAX_CONNS`]; the simulator lowers it to exercise refusals.
    max_conns: usize,
    cells: Vec<CellState>,
    /// The cursor: cells waiting to be leased, front first.
    pending: VecDeque<usize>,
    /// Verified payloads waiting for in-order emission.
    payloads: BTreeMap<usize, String>,
    /// Cells before this one have been emitted or passed over.
    emitted: usize,
    conns: BTreeMap<ConnId, Conn>,
    next_conn: ConnId,
    /// Last registration or verified result: the grace clock.
    last_activity_ms: u64,
    end: Option<End>,
    stats: DistStats,
}

impl LeaseTable {
    /// A table for `total` cells, of which `durable` were replayed from
    /// a journal (an out-of-range one is an error). Time starts at
    /// `now_ms == 0`.
    pub(super) fn new(
        total: usize,
        durable: &[usize],
        epoch: u64,
        fingerprint: String,
        cfg: &DistConfig,
        ckill_after: u64,
    ) -> Result<LeaseTable, String> {
        let mut cells = vec![CellState::Pending; total];
        for &cell in durable {
            *cells.get_mut(cell).ok_or_else(|| {
                format!("durable cell {cell} out of range (matrix has {total})")
            })? = CellState::Durable;
        }
        let pending = (0..total)
            .filter(|&c| cells[c] == CellState::Pending)
            .collect();
        let stats = DistStats {
            resumed_cells: cells.iter().filter(|&&c| c == CellState::Durable).count() as u64,
            ..DistStats::default()
        };
        Ok(LeaseTable {
            epoch,
            fingerprint,
            lease_ms: cfg.lease_ms,
            grace_ms: cfg.grace_ms,
            ckill_after,
            max_conns: MAX_CONNS,
            cells,
            pending,
            payloads: BTreeMap::new(),
            emitted: 0,
            conns: BTreeMap::new(),
            next_conn: 0,
            last_activity_ms: 0,
            end: (total == 0).then_some(End::Complete),
            stats,
        })
    }

    /// The run is over, for good reasons or bad.
    pub(super) fn done(&self) -> bool {
        self.end.is_some()
    }

    /// A connection was accepted. Returns its id, or the `busy` reject
    /// to write on the accepting thread when the cap is reached.
    pub(super) fn connect(&mut self, now_ms: u64) -> Result<ConnId, Frame> {
        if self.conns.len() >= self.max_conns {
            self.stats.workers_rejected += 1;
            return Err(Frame::Reject {
                reason: "busy".to_string(),
            });
        }
        self.next_conn += 1;
        let conn = Conn {
            phase: Phase::Hello,
            registered: false,
            deadline_ms: now_ms.saturating_add(HELLO_MS),
            leases: Vec::new(),
            outbox: Vec::new(),
        };
        self.conns.insert(self.next_conn, conn);
        Ok(self.next_conn)
    }

    /// What `conn`'s handler does next. Leases are granted here, up to
    /// the pipeline depth, and tracked as outstanding before they are
    /// sent, so a failed send loses none of them.
    pub(super) fn step(&mut self, conn: ConnId, now_ms: u64) -> Step {
        let over = self.end.is_some();
        let complete = matches!(self.end, Some(End::Complete));
        let Some(c) = self.conns.get_mut(&conn) else {
            return Step::End;
        };
        if !c.outbox.is_empty() {
            return Step::Send(std::mem::take(&mut c.outbox));
        }
        match c.phase {
            Phase::Closed => Step::End,
            Phase::Draining => Step::Read(c.deadline_ms),
            Phase::Hello if !over => Step::Read(c.deadline_ms),
            Phase::Serving if complete => {
                // Every cell is Done: tell the worker to leave and read
                // its last frames, which keeps teardown free of orphaned
                // worker processes. Every drained result is a duplicate,
                // so a hung worker gets at most 2 s, not a full lease.
                c.phase = Phase::Draining;
                c.leases.clear();
                c.deadline_ms = now_ms.saturating_add(self.lease_ms.min(2_000));
                Step::Send(vec![Frame::Shutdown])
            }
            // A crashed coordinator sends nothing: its workers see the
            // connection die, exactly as a SIGKILL would leave them.
            _ if over => {
                self.close(conn);
                Step::End
            }
            _ => {
                let mut frames = Vec::new();
                while c.leases.len() < PIPELINE {
                    let Some(cell) = self.pending.pop_front() else {
                        break;
                    };
                    let lease = self.stats.leases_granted;
                    self.stats.leases_granted += 1;
                    self.cells[cell] = CellState::Leased;
                    let deadline = now_ms.saturating_add(self.lease_ms.max(1));
                    c.leases.push((lease, cell, deadline));
                    frames.push(Frame::Lease {
                        lease,
                        cell,
                        deadline_ms: self.lease_ms,
                    });
                }
                match c.leases.iter().map(|l| l.2).min() {
                    _ if !frames.is_empty() => Step::Send(frames),
                    Some(deadline) => Step::Read(deadline),
                    None => Step::Idle,
                }
            }
        }
    }

    /// Whether a read in progress on `conn` should give up early: the
    /// run ended and the connection is not draining.
    pub(super) fn abandons_read(&self, conn: ConnId) -> bool {
        let draining = self.conns.get(&conn).map(|c| c.phase) == Some(Phase::Draining);
        self.end.is_some() && !draining
    }

    /// Feeds what a [`Step::Read`] returned: a line, or why none came.
    /// Returns a fresh verified result; the caller makes it durable and
    /// then calls [`commit`](Self::commit), or [`fail`](Self::fail) if
    /// it cannot.
    pub(super) fn input(
        &mut self,
        conn: ConnId,
        got: Result<String, RecvError>,
        now_ms: u64,
    ) -> Option<(usize, String)> {
        let phase = self.conns.get(&conn)?.phase;
        let frame = match (phase, got) {
            (Phase::Closed, _) => return None,
            (_, Ok(line)) => Frame::parse(&line),
            (Phase::Serving, Err(RecvError::Timeout)) => {
                self.expire(conn, now_ms);
                return None;
            }
            (_, Err(_)) => {
                self.close(conn);
                return None;
            }
        };
        let (lease, cell, epoch, payload) = match (phase, frame) {
            (
                Phase::Hello,
                Ok(Frame::Hello {
                    proto, fingerprint, ..
                }),
            ) => {
                self.hello(conn, proto, &fingerprint, now_ms);
                return None;
            }
            // Not a hello (dropped silently), or the worker's bye.
            (Phase::Hello, _) | (_, Ok(Frame::Bye)) => {
                self.close(conn);
                return None;
            }
            (
                _,
                Ok(Frame::Result {
                    lease,
                    cell,
                    epoch,
                    crc,
                    payload,
                }),
            ) if cell < self.cells.len() && crc == checksum(&payload) => {
                (lease, cell, epoch, payload)
            }
            // Corrupt, out of range, malformed, or a frame no worker
            // sends: this connection's stream can no longer be trusted.
            _ => {
                self.stats.results_rejected += 1;
                self.close(conn);
                return None;
            }
        };
        if epoch != self.epoch {
            // A lease from a previous coordinator life: the journal
            // replay already settled that cell, so the result is dropped
            // and counted, never double-emitted. The connection itself
            // is fine (it registered against *this* life).
            self.stats.stale_results += 1;
            return None;
        }
        if let Some(c) = self.conns.get_mut(&conn) {
            c.leases.retain(|l| l.0 != lease);
        }
        self.fresh(cell).then_some((cell, payload))
    }

    /// Registration: a protocol or fingerprint mismatch is refused and
    /// counted on one path.
    fn hello(&mut self, conn: ConnId, proto: u32, fingerprint: &str, now_ms: u64) {
        let refusal = if proto != PROTO_VERSION {
            Some(format!("protocol {proto} != {PROTO_VERSION}"))
        } else if fingerprint != self.fingerprint {
            Some("matrix fingerprint mismatch (different flags?)".to_string())
        } else {
            None
        };
        let c = self.conns.get_mut(&conn).expect("live connection");
        if let Some(reason) = refusal {
            self.stats.workers_rejected += 1;
            c.phase = Phase::Closed;
            c.outbox.push(Frame::Reject { reason });
            return;
        }
        c.phase = Phase::Serving;
        c.registered = true;
        c.outbox.push(Frame::Welcome {
            proto: PROTO_VERSION,
            worker: self.stats.workers_registered,
            epoch: self.epoch,
        });
        self.stats.workers_registered += 1;
        self.last_activity_ms = now_ms;
    }

    /// Whether a verified result for `cell` is new work. A result for a
    /// cell already done is a duplicate: counted and dropped. A crashed
    /// coordinator accepts nothing.
    pub(super) fn fresh(&mut self, cell: usize) -> bool {
        let dead = matches!(self.end, Some(End::Killed | End::Fatal(_)));
        let done = matches!(self.cells[cell], CellState::Done | CellState::Durable);
        self.stats.duplicates_dropped += u64::from(done && !dead);
        !dead && !done
    }

    /// Marks a fresh result `Done`, once the caller has made it durable
    /// (`journaled`: its record is in the write-ahead journal).
    pub(super) fn commit(&mut self, cell: usize, payload: String, journaled: bool, now_ms: u64) {
        if self.cells[cell] == CellState::Pending {
            // A late result for a re-queued cell: still valid work.
            self.pending.retain(|&c| c != cell);
        }
        self.cells[cell] = CellState::Done;
        self.payloads.insert(cell, payload);
        self.stats.results_ok += 1;
        self.stats.journaled_cells += u64::from(journaled);
        self.last_activity_ms = now_ms;
        if self.ckill_after > 0 && self.stats.results_ok >= self.ckill_after {
            self.end = Some(End::Killed);
        }
    }

    /// A fresh result could not be made durable: the run must end with
    /// this error, not a silently weaker artifact.
    pub(super) fn fail(&mut self, error: String) {
        self.end = Some(End::Fatal(error));
    }

    /// A read on a serving connection timed out: a missed deadline means
    /// the worker is hung or too slow, so everything it holds goes back
    /// (it may reconnect for fresh leases).
    fn expire(&mut self, conn: ConnId, now_ms: u64) {
        let leases = &self.conns[&conn].leases;
        let overdue = leases.iter().filter(|l| now_ms >= l.2).count();
        if overdue > 0 && self.end.is_none() {
            self.stats.leases_expired += overdue as u64;
            self.close(conn);
        }
    }

    /// Closes a connection: its unanswered leases go back to the front
    /// of the cursor, in grant order.
    fn close(&mut self, conn: ConnId) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        c.phase = Phase::Closed;
        for (_, cell, _) in c.leases.drain(..).rev() {
            if self.cells[cell] == CellState::Leased {
                self.cells[cell] = CellState::Pending;
                self.pending.push_front(cell);
                self.stats.leases_requeued += 1;
            }
        }
    }

    /// The connection's handler is gone: requeue what it held and
    /// forget it.
    pub(super) fn disconnect(&mut self, conn: ConnId) {
        self.close(conn);
        if self.conns.remove(&conn).is_some_and(|c| c.registered) {
            self.stats.workers_disconnected += 1;
        }
    }

    /// The emitter's turn: emit what is ready in cell order, end the run
    /// once every cell is out, or fall back to local execution once no
    /// worker has been connected for the grace window.
    pub(super) fn tick(&mut self, now_ms: u64) -> Tick {
        if self.end.is_some() {
            return Tick::End;
        }
        let mut batch = Vec::new();
        while let Some(&state) = self.cells.get(self.emitted) {
            let cell = self.emitted;
            match state {
                CellState::Durable => {}
                CellState::Done => {
                    let payload = self.payloads.remove(&cell);
                    batch.push((cell, payload.expect("a Done cell keeps its payload")));
                }
                CellState::Pending | CellState::Leased => break,
            }
            self.emitted += 1;
        }
        if !batch.is_empty() {
            self.stats.cells_emitted += batch.len() as u64;
            return Tick::Emit(batch);
        }
        if self.emitted == self.cells.len() {
            self.end = Some(End::Complete);
            return Tick::End;
        }
        let deserted = !self.conns.values().any(|c| c.registered)
            && now_ms.saturating_sub(self.last_activity_ms) >= self.grace_ms;
        if deserted {
            if let Some(cell) = self.pending.pop_front() {
                self.cells[cell] = CellState::Leased;
                self.stats.local_fallback_cells += 1;
                return Tick::Fallback(cell);
            }
        }
        Tick::Wait
    }

    /// The run's final accounting, or why it has none.
    ///
    /// # Errors
    ///
    /// The journal error, the `ckill` crash, or a violated exactly-once
    /// invariant (a guard against future refactors: in-order emission
    /// makes it impossible).
    pub(super) fn finish(self) -> Result<DistStats, String> {
        let (stats, total) = (self.stats, self.cells.len() as u64);
        match self.end {
            Some(End::Fatal(error)) => Err(error),
            Some(End::Killed) => Err(format!(
                "coordinator killed by ckill chaos after {} verified results \
                 (crash simulation: journal retained, no artifact)",
                stats.results_ok
            )),
            _ if stats.resumed_cells + stats.cells_emitted == total => Ok(stats),
            _ => Err(format!(
                "lease accounting violated: {} resumed + {} emitted of {total} cells",
                stats.resumed_cells, stats.cells_emitted
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The seeded simulator. Virtual workers and virtual connections on
    //! a virtual clock drive the table through the calls the socket
    //! adapters make; at each step one enabled actor (a connection's
    //! handler, a worker, or the emitter) is picked at random, and the
    //! clock jumps to the next timer when none is enabled. Workers draw
    //! their faults from the real [`ChaosState`], and their result lines
    //! go through the real `Frame::render`, [`corrupt_frame`] and
    //! `Frame::parse`. After every schedule the simulator checks exactly-once
    //! in-order emission, the payload bytes, the front-requeue order, and
    //! every counter whose cause it can tally.

    use std::collections::{BTreeMap, BTreeSet, VecDeque};
    use std::sync::OnceLock;

    use rand::{Rng, RngCore};

    use super::*;
    use crate::dist::chaos::{corrupt_frame, ChaosAction, ChaosPlan, ChaosState};

    const FINGERPRINT: &str = "sim-matrix";
    const MAX_CELLS: usize = 6;
    const JOURNAL_ERROR: &str = "cannot write journal sim: disk full";

    /// SplitMix64: the simulator's own choices need speed, not a
    /// cryptographic stream (the workers' faults still come from the
    /// real ChaCha-based [`ChaosState`]).
    struct Mix(u64);

    impl RngCore for Mix {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The cells' payloads, computed once. Quotes, backslashes, a
    /// newline and a multi-byte character exercise the frame escaping.
    fn payloads() -> &'static [String] {
        static PAYLOADS: OnceLock<Vec<String>> = OnceLock::new();
        PAYLOADS.get_or_init(|| {
            (0..MAX_CELLS)
                .map(|i| format!("{{\n  \"cell\": {i}, \"label\": \"é \\\"{i}\\\" \\\\\"\n}}"))
                .collect()
        })
    }

    /// A placeholder between lives.
    fn empty_table() -> LeaseTable {
        LeaseTable::new(0, &[], 0, String::new(), &DistConfig::default(), 0).expect("empty")
    }

    /// What the simulator knows about a line a worker wrote.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Line {
        Hello { accepted: bool },
        Bye,
        Corrupt,
        Stale,
        Valid(usize),
    }

    /// One virtual TCP connection.
    #[derive(Debug, Default)]
    struct Wire {
        up: VecDeque<(String, Line)>,
        down: VecDeque<Frame>,
        worker_gone: bool,
        coord_gone: bool,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Honest,
        WrongFingerprint,
        WrongProto,
        /// Answers every lease twice: stamped with the previous epoch,
        /// then correctly.
        TimeTraveller,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Life {
        /// Reconnects at this time.
        Offline(u64),
        Online(ConnId),
        Gone,
    }

    #[derive(Debug)]
    struct Worker {
        kind: Kind,
        chaos: ChaosState,
        life: Life,
        epoch: Option<u64>,
        /// The lease being computed: (lease, cell, fault, ready at).
        busy: Option<(u64, usize, Option<ChaosAction>, u64)>,
        draining: bool,
    }

    /// A handler thread as the simulator runs it.
    #[derive(Debug, Clone, Copy)]
    enum Handler {
        /// About to call `step`.
        Stepping,
        /// Blocked in a read until this deadline.
        Reading(u64),
        /// Waiting for a change after this many.
        Idle(u64),
    }

    /// Counts of causes, tallied by the simulator as it delivers them.
    #[derive(Debug, Default)]
    struct Tally {
        corrupt: u64,
        stale: u64,
        dup: u64,
        welcomes: u64,
        rejects: u64,
        grants: u64,
        fallbacks: u64,
        commits: u64,
    }

    /// A schedule's fixed parameters.
    #[derive(Debug, Clone)]
    struct Setup {
        cells: usize,
        workers: Vec<(Kind, ChaosPlan)>,
        cfg: DistConfig,
        max_conns: usize,
        journal: bool,
        ckill: u64,
        /// The journal append (counted from 0) that fails, if any.
        fail_append: Option<usize>,
    }

    struct Sim {
        rng: Mix,
        table: LeaseTable,
        now: u64,
        /// The adapters' read slack past a deadline (their poll slice).
        slack: u64,
        wires: BTreeMap<ConnId, Wire>,
        handlers: BTreeMap<ConnId, Handler>,
        workers: Vec<Worker>,
        /// A local fallback in progress: (cell, ready at).
        fallback: Option<(usize, u64)>,
        emitter_done: bool,
        /// `(changes, now)` when the emitter last found nothing to do.
        /// `changes` counts table calls that can unblock a waiter.
        emitter_seen: (u64, u64),
        changes: u64,
        /// The journal image (`None`: no journal attached).
        image: Option<Vec<(usize, String)>>,
        fail_append: Option<usize>,
        /// Cells the table committed this life (or replayed durable).
        settled: BTreeSet<usize>,
        sunk: Vec<usize>,
        tally: Tally,
        /// Requeue-order model: when each cell last joined the cursor,
        /// whether it came back from a lease, and whether it is there.
        since: Vec<u64>,
        requeued: Vec<bool>,
        queued: Vec<bool>,
        events: u64,
    }

    #[derive(Debug, Clone, Copy)]
    enum Actor {
        Handler(ConnId),
        Worker(usize),
        Emitter,
    }

    impl Sim {
        fn new(setup: &Setup, seed: u64) -> Sim {
            let mut rng = Mix(seed ^ 0x5EED_5150);
            let workers = setup
                .workers
                .iter()
                .map(|&(kind, plan)| Worker {
                    kind,
                    chaos: ChaosState::new(plan, rng.gen()),
                    life: Life::Offline(rng.gen_range(0..=20)),
                    epoch: None,
                    busy: None,
                    draining: false,
                })
                .collect();
            let mut sim = Sim {
                slack: rng.gen_range(1..=10),
                rng,
                table: empty_table(),
                now: 0,
                wires: BTreeMap::new(),
                handlers: BTreeMap::new(),
                workers,
                fallback: None,
                emitter_done: false,
                emitter_seen: (u64::MAX, 0),
                changes: 0,
                image: setup.journal.then(Vec::new),
                fail_append: setup.fail_append,
                settled: BTreeSet::new(),
                sunk: Vec::new(),
                tally: Tally::default(),
                since: Vec::new(),
                requeued: Vec::new(),
                queued: Vec::new(),
                events: 0,
            };
            sim.begin_life(Vec::new(), 1, setup);
            sim
        }

        /// Starts a coordinator life over the durable cells `durable`.
        fn begin_life(&mut self, durable: Vec<usize>, epoch: u64, setup: &Setup) {
            let ckill = if epoch == 1 { setup.ckill } else { 0 };
            self.table = LeaseTable::new(
                setup.cells,
                &durable,
                epoch,
                FINGERPRINT.into(),
                &setup.cfg,
                ckill,
            )
            .expect("durable cells are in range");
            self.table.max_conns = setup.max_conns;
            self.wires.clear();
            self.handlers.clear();
            self.fallback = None;
            self.emitter_done = false;
            self.emitter_seen = (u64::MAX, 0);
            self.settled = durable.into_iter().collect();
            self.sunk.clear();
            self.tally = Tally::default();
            self.queued = vec![false; setup.cells];
            self.since = vec![0; setup.cells];
            self.requeued = vec![false; setup.cells];
            for &c in &self.table.pending {
                self.queued[c] = true;
            }
            // Whoever was connected saw the old life's sockets die.
            for w in &mut self.workers {
                if let Life::Online(_) = w.life {
                    w.life = Life::Offline(self.now + 1);
                }
                w.busy = None;
                w.epoch = None;
                w.draining = false;
            }
        }

        /// The life is over: crashed, or completed with every handler
        /// gone.
        fn life_over(&self) -> bool {
            match self.table.end {
                Some(End::Killed | End::Fatal(_)) => true,
                Some(End::Complete) => self.emitter_done && self.handlers.is_empty(),
                None => false,
            }
        }

        fn enabled(&self) -> Vec<Actor> {
            let mut actors = Vec::new();
            for (&conn, &h) in &self.handlers {
                let wire = &self.wires[&conn];
                let ready = match h {
                    Handler::Stepping => true,
                    Handler::Reading(deadline) => {
                        !wire.up.is_empty()
                            || wire.worker_gone
                            || self.table.abandons_read(conn)
                            || self.now >= deadline.saturating_add(self.slack)
                    }
                    Handler::Idle(seen) => seen != self.changes,
                };
                if ready {
                    actors.push(Actor::Handler(conn));
                }
            }
            for (i, w) in self.workers.iter().enumerate() {
                let ready = match w.life {
                    Life::Offline(at) => self.now >= at,
                    Life::Online(conn) => {
                        let wire = &self.wires[&conn];
                        match w.busy {
                            Some((.., ready_at)) => self.now >= ready_at,
                            None => !wire.down.is_empty() || wire.coord_gone || w.draining,
                        }
                    }
                    Life::Gone => false,
                };
                if ready {
                    actors.push(Actor::Worker(i));
                }
            }
            // The emitter waits for a change, or for time to pass the
            // grace window.
            let (seen, at) = self.emitter_seen;
            let grace = self
                .table
                .last_activity_ms
                .saturating_add(self.table.grace_ms);
            let emitter = match self.fallback {
                Some((_, ready_at)) => self.now >= ready_at,
                None => {
                    !self.emitter_done
                        && (seen != self.changes || (at != self.now && self.now >= grace))
                }
            };
            if emitter {
                actors.push(Actor::Emitter);
            }
            actors
        }

        /// Moves the clock to the next timer; a schedule with none left
        /// has hung.
        fn advance(&mut self) {
            let mut timers = Vec::new();
            for h in self.handlers.values() {
                if let Handler::Reading(deadline) = h {
                    timers.push(deadline.saturating_add(self.slack));
                }
            }
            for w in &self.workers {
                match (w.life, w.busy) {
                    (Life::Offline(at), _) => timers.push(at),
                    (Life::Online(_), Some((.., ready_at))) => timers.push(ready_at),
                    _ => {}
                }
            }
            if let Some((_, ready_at)) = self.fallback {
                timers.push(ready_at);
            }
            timers.push(
                self.table
                    .last_activity_ms
                    .saturating_add(self.table.grace_ms),
            );
            let next = timers.into_iter().filter(|&t| t > self.now).min();
            self.now = next.unwrap_or_else(|| panic!("simulation hung at {} ms", self.now));
        }

        fn act(&mut self, actor: Actor) {
            match actor {
                Actor::Handler(conn) => self.handler(conn),
                Actor::Worker(i) => self.worker(i),
                Actor::Emitter => self.emitter(),
            }
            self.observe();
        }

        /// One iteration of `handle_worker`'s loop.
        fn handler(&mut self, conn: ConnId) {
            let now = self.now;
            if let Handler::Reading(_) = self.handlers[&conn] {
                let wire = self.wires.get_mut(&conn).expect("wire");
                let got = match wire.up.pop_front() {
                    Some((line, what)) => {
                        self.expect(what);
                        Ok(line)
                    }
                    None if wire.worker_gone && !self.table.abandons_read(conn) => {
                        Err(RecvError::Closed)
                    }
                    None => Err(RecvError::Timeout),
                };
                let fresh = self.table.input(conn, got, now);
                if let Some((cell, payload)) = fresh {
                    assert!(!self.settled.contains(&cell), "cell {cell} accepted twice");
                    self.settle(cell, payload);
                }
                self.handlers.insert(conn, Handler::Stepping);
                self.changes += 1;
                return;
            }
            match self.table.step(conn, now) {
                Step::End => self.hang_up(conn),
                Step::Send(frames) => {
                    for frame in &frames {
                        if let Frame::Lease { cell, .. } = frame {
                            self.tally.grants += 1;
                            self.granted(*cell);
                        }
                    }
                    let wire = self.wires.get_mut(&conn).expect("wire");
                    if wire.worker_gone && self.rng.gen_bool(0.5) {
                        // The write hit the dead peer's reset.
                        self.hang_up(conn);
                    } else {
                        if !wire.worker_gone {
                            wire.down.extend(frames);
                        }
                        self.handlers.insert(conn, Handler::Stepping);
                        self.changes += 1;
                    }
                }
                Step::Read(deadline) => {
                    self.handlers.insert(conn, Handler::Reading(deadline));
                }
                Step::Idle => {
                    self.handlers.insert(conn, Handler::Idle(self.changes));
                }
            }
        }

        fn hang_up(&mut self, conn: ConnId) {
            self.table.disconnect(conn);
            self.wires.get_mut(&conn).expect("wire").coord_gone = true;
            self.handlers.remove(&conn);
            self.changes += 1;
        }

        /// Tallies the cause a delivered line stands for.
        fn expect(&mut self, what: Line) {
            match what {
                Line::Hello { accepted: true } => self.tally.welcomes += 1,
                Line::Hello { accepted: false } => self.tally.rejects += 1,
                Line::Bye => {}
                Line::Corrupt => self.tally.corrupt += 1,
                Line::Stale => self.tally.stale += 1,
                Line::Valid(cell) => {
                    if self.settled.contains(&cell) {
                        self.tally.dup += 1;
                    }
                }
            }
        }

        /// The adapter's `Core::settle` over the in-memory journal image.
        fn settle(&mut self, cell: usize, payload: String) {
            assert_eq!(
                payload,
                payloads()[cell],
                "cell {cell} bytes changed in flight"
            );
            let journaled = match &mut self.image {
                Some(image) if self.fail_append == Some(image.len()) => {
                    self.fail_append = None;
                    self.table.fail(JOURNAL_ERROR.to_string());
                    return;
                }
                Some(image) => {
                    image.push((cell, payload.clone()));
                    true
                }
                None => false,
            };
            self.settled.insert(cell);
            self.tally.commits += 1;
            self.table.commit(cell, payload, journaled, self.now);
        }

        /// One step of `run_worker`.
        fn worker(&mut self, i: usize) {
            let now = self.now;
            let lease_ms = self.table.lease_ms;
            let w = &mut self.workers[i];
            let conn = match w.life {
                Life::Gone => unreachable!("gone workers are never enabled"),
                Life::Offline(_) if self.table.done() => {
                    // The acceptor is gone: connection refused.
                    w.life = Life::Offline(now + self.rng.gen_range(1..=50));
                    return;
                }
                Life::Offline(_) => {
                    match self.table.connect(now) {
                        Ok(conn) => {
                            let (proto, fingerprint) = match w.kind {
                                Kind::WrongProto => (PROTO_VERSION + 1, FINGERPRINT),
                                Kind::WrongFingerprint => (PROTO_VERSION, "other-matrix"),
                                Kind::Honest | Kind::TimeTraveller => (PROTO_VERSION, FINGERPRINT),
                            };
                            let hello = Frame::Hello {
                                proto,
                                name: format!("w{i}"),
                                fingerprint: fingerprint.to_string(),
                            };
                            let accepted = matches!(w.kind, Kind::Honest | Kind::TimeTraveller);
                            let mut wire = Wire::default();
                            wire.up
                                .push_back((hello.render(), Line::Hello { accepted }));
                            self.wires.insert(conn, wire);
                            self.handlers.insert(conn, Handler::Stepping);
                            w.life = Life::Online(conn);
                        }
                        Err(Frame::Reject { reason }) => {
                            assert_eq!(reason, "busy");
                            self.tally.rejects += 1;
                            w.life = Life::Gone;
                        }
                        Err(other) => panic!("connect answered {other:?}"),
                    }
                    self.changes += 1;
                    return;
                }
                Life::Online(conn) => conn,
            };
            let wire = self.wires.get_mut(&conn).expect("wire");
            if let Some((lease, cell, action, _)) = w.busy.take() {
                let epoch = w.epoch.expect("leases follow the welcome");
                let payload = &payloads()[cell];
                let line = |epoch| {
                    Frame::Result {
                        lease,
                        cell,
                        epoch,
                        crc: checksum(payload),
                        payload: payload.clone(),
                    }
                    .render()
                };
                let mut lines = Vec::new();
                if w.kind == Kind::TimeTraveller {
                    lines.push((line(epoch - 1), Line::Stale));
                }
                match action {
                    Some(a @ (ChaosAction::CorruptFlip | ChaosAction::CorruptTruncate)) => {
                        lines.push((corrupt_frame(a, &line(epoch), &mut w.chaos), Line::Corrupt));
                    }
                    Some(ChaosAction::Duplicate) => {
                        lines.push((line(epoch), Line::Valid(cell)));
                        lines.push((line(epoch), Line::Valid(cell)));
                    }
                    _ => lines.push((line(epoch), Line::Valid(cell))),
                }
                if !wire.coord_gone {
                    wire.up.extend(lines);
                }
            } else if let Some(frame) = wire.down.pop_front() {
                match frame {
                    Frame::Welcome { epoch, .. } => {
                        assert_eq!(epoch, self.table.epoch, "welcome under another epoch");
                        w.epoch = Some(epoch);
                    }
                    Frame::Reject { .. } => {
                        wire.worker_gone = true;
                        w.life = Life::Gone;
                    }
                    Frame::Lease {
                        lease,
                        cell,
                        deadline_ms,
                    } => {
                        let action = w.chaos.next_action();
                        let compute = match action {
                            Some(ChaosAction::Kill) => {
                                wire.worker_gone = true;
                                w.life = Life::Gone;
                                return;
                            }
                            Some(ChaosAction::Hang) => deadline_ms + 250,
                            _ if self.rng.gen_bool(0.75) => self.rng.gen_range(0..=lease_ms / 3),
                            _ => self.rng.gen_range(0..=lease_ms),
                        };
                        w.busy = Some((lease, cell, action, now + compute));
                    }
                    Frame::Ping => {}
                    Frame::Shutdown => w.draining = true,
                    other => panic!("worker received {other:?}"),
                }
            } else if w.draining {
                // Drained every lease queued behind the shutdown.
                if !wire.coord_gone {
                    wire.up.push_back((Frame::Bye.render(), Line::Bye));
                }
                wire.worker_gone = true;
                w.life = Life::Gone;
            } else {
                // The coordinator hung up: reconnect after a backoff.
                wire.worker_gone = true;
                w.life = Life::Offline(now + self.rng.gen_range(1..=50));
                w.epoch = None;
            }
        }

        /// One iteration of the emitter loop.
        fn emitter(&mut self) {
            let now = self.now;
            if let Some((cell, _)) = self.fallback.take() {
                let fresh = self.table.fresh(cell);
                assert_eq!(fresh, !self.settled.contains(&cell), "fallback cell {cell}");
                if fresh {
                    self.settle(cell, payloads()[cell].clone());
                } else {
                    self.tally.dup += 1;
                }
                self.changes += 1;
                return;
            }
            match self.table.tick(now) {
                Tick::Emit(batch) => {
                    for (cell, payload) in batch {
                        assert_eq!(payload, payloads()[cell], "cell {cell} emitted wrong bytes");
                        assert!(
                            self.sunk.last().map_or(true, |&last| last < cell),
                            "cell {cell} emitted after {:?}",
                            self.sunk.last()
                        );
                        if let Some(image) = &self.image {
                            assert!(
                                image.iter().any(|(c, _)| *c == cell),
                                "cell {cell} emitted before it was journaled"
                            );
                        }
                        self.sunk.push(cell);
                    }
                    self.changes += 1;
                }
                Tick::Fallback(cell) => {
                    self.tally.fallbacks += 1;
                    self.granted(cell);
                    let lease_ms = self.table.lease_ms;
                    self.fallback = Some((cell, now + self.rng.gen_range(0..=lease_ms)));
                    self.changes += 1;
                }
                Tick::Wait => self.emitter_seen = (self.changes, now),
                Tick::End => {
                    self.emitter_done = true;
                    self.changes += 1;
                }
            }
        }

        /// `cell` just left the cursor: no cell that came back to it
        /// after `cell` joined may still be waiting there.
        fn granted(&self, cell: usize) {
            for &other in &self.table.pending {
                assert!(
                    !(self.requeued[other] && self.since[other] > self.since[cell]),
                    "cell {cell} was leased while {other}, requeued after it was queued, \
                     still waited"
                );
            }
        }

        /// Updates the requeue-order model after a table call.
        fn observe(&mut self) {
            self.events += 1;
            let was = std::mem::replace(&mut self.queued, vec![false; self.since.len()]);
            for &c in &self.table.pending {
                self.queued[c] = true;
                if !was[c] {
                    self.since[c] = self.events;
                    self.requeued[c] = true;
                }
            }
        }

        /// Runs one life to its end; returns the table's verdict and its
        /// counters.
        fn run_life(&mut self) -> (Result<DistStats, String>, DistStats) {
            for _ in 0..200_000 {
                if self.life_over() {
                    let stats = self.table.stats;
                    let table = std::mem::replace(&mut self.table, empty_table());
                    return (table.finish(), stats);
                }
                let actors = self.enabled();
                if actors.is_empty() {
                    self.advance();
                } else {
                    let pick = actors[self.rng.gen_range(0..actors.len())];
                    self.act(pick);
                }
            }
            panic!("simulation made no progress");
        }

        /// Checks the counters of a finished life against the tally.
        fn check_counters(&self, stats: &DistStats, resumed: usize) {
            let t = &self.tally;
            assert_eq!(stats.results_rejected, t.corrupt, "results_rejected");
            assert_eq!(stats.stale_results, t.stale, "stale_results");
            assert_eq!(stats.duplicates_dropped, t.dup, "duplicates_dropped");
            assert_eq!(stats.workers_registered, t.welcomes, "workers_registered");
            assert_eq!(stats.workers_rejected, t.rejects, "workers_rejected");
            assert_eq!(stats.resumed_cells, resumed as u64, "resumed_cells");
            assert_eq!(stats.leases_granted, t.grants, "leases_granted");
            assert_eq!(
                stats.local_fallback_cells, t.fallbacks,
                "local_fallback_cells"
            );
            assert_eq!(stats.results_ok, t.commits, "results_ok");
            let journaled = if self.image.is_some() { t.commits } else { 0 };
            assert_eq!(stats.journaled_cells, journaled, "journaled_cells");
            assert_eq!(stats.cells_emitted, self.sunk.len() as u64, "cells_emitted");
        }
    }

    /// Runs a schedule through every coordinator life it takes and
    /// checks it. Returns each life's counters.
    fn run_schedule(setup: &Setup, seed: u64) -> Vec<DistStats> {
        let mut sim = Sim::new(setup, seed);
        let mut durable: Vec<usize> = Vec::new();
        let mut sunk_before: BTreeSet<usize> = BTreeSet::new();
        let mut lives = Vec::new();
        for life in 1.. {
            let (verdict, stats) = sim.run_life();
            sim.check_counters(&stats, durable.len());
            lives.push(stats);
            for &cell in &sim.sunk {
                assert!(sunk_before.insert(cell), "cell {cell} emitted in two lives");
            }
            match verdict {
                Ok(_) => {
                    // The last life emits exactly what no earlier life
                    // made durable, in order.
                    let rest: Vec<usize> =
                        (0..setup.cells).filter(|c| !durable.contains(c)).collect();
                    assert_eq!(sim.sunk, rest, "emission of the last life");
                    assert_eq!(
                        stats.resumed_cells + stats.cells_emitted,
                        setup.cells as u64
                    );
                    if let Some(image) = &sim.image {
                        let mut cells: Vec<usize> = image.iter().map(|(c, _)| *c).collect();
                        cells.sort_unstable();
                        assert_eq!(cells, (0..setup.cells).collect::<Vec<_>>(), "journal");
                        for (cell, payload) in image {
                            assert_eq!(payload, &payloads()[*cell]);
                        }
                    }
                    return lives;
                }
                Err(error) => {
                    let image = sim.image.as_ref().expect("only journaled runs crash");
                    if error == JOURNAL_ERROR {
                        assert!(setup.fail_append.is_some());
                    } else {
                        assert!(error.contains("ckill"), "{error}");
                        assert_eq!(stats.results_ok, setup.ckill, "ckill fired late");
                    }
                    // Resume: the journal image is the durable set, the
                    // epoch moves on, the workers reconnect.
                    durable = image.iter().map(|(c, _)| *c).collect();
                    for cell in &sim.sunk {
                        assert!(
                            durable.contains(cell),
                            "cell {cell} emitted but not durable"
                        );
                    }
                    sim.begin_life(durable.clone(), life as u64 + 1, setup);
                }
            }
        }
        unreachable!()
    }

    /// A random schedule: matrix size, workers and their faults, timing,
    /// connection cap, journal, crash point and journal failure.
    fn random_setup(seed: u64) -> Setup {
        let mut rng = Mix(seed);
        let cells = rng.gen_range(1..=MAX_CELLS);
        let workers = (0..rng.gen_range(1..=3))
            .map(|_| {
                let kind = match rng.gen_range(0..10) {
                    0 => Kind::WrongFingerprint,
                    1 => Kind::WrongProto,
                    2 | 3 => Kind::TimeTraveller,
                    _ => Kind::Honest,
                };
                let plan = ChaosPlan {
                    kill: rng.gen_range(0..=1),
                    hang: rng.gen_range(0..=1),
                    corrupt: rng.gen_range(0..=2),
                    dup: rng.gen_range(0..=2),
                    ckill: 0,
                };
                (kind, plan)
            })
            .collect();
        let journal = rng.gen_bool(0.5);
        Setup {
            cells,
            workers,
            cfg: DistConfig {
                lease_ms: rng.gen_range(10..=100),
                grace_ms: rng.gen_range(0..=200),
                ..DistConfig::default()
            },
            max_conns: if rng.gen_bool(0.2) {
                rng.gen_range(1..=3)
            } else {
                MAX_CONNS
            },
            journal,
            ckill: if journal && rng.gen_bool(0.4) {
                rng.gen_range(1..=cells as u64)
            } else {
                0
            },
            fail_append: (journal && rng.gen_bool(0.1)).then(|| rng.gen_range(0..cells)),
        }
    }

    /// Runs `setup(seed)` for every seed, naming the seed that fails.
    fn sweep(seeds: std::ops::Range<u64>) {
        for seed in seeds {
            let setup = random_setup(seed);
            let run = std::panic::catch_unwind(|| run_schedule(&setup, seed));
            assert!(run.is_ok(), "schedule {seed} failed: {setup:?}");
        }
    }

    #[test]
    fn every_chaos_schedule_preserves_the_artifact_bytes() {
        // The socket suite's former schedules first: worker 0 follows
        // the plan, worker 1 is clean, six cells.
        for spec in [
            "kill:1",
            "hang:1",
            "corrupt:2",
            "dup:2",
            "kill:1,hang:1,corrupt:2,dup:1",
        ] {
            for seed in [3u64, 11] {
                let setup = Setup {
                    cells: 6,
                    workers: vec![
                        (Kind::Honest, ChaosPlan::parse(spec).unwrap()),
                        (Kind::Honest, ChaosPlan::default()),
                    ],
                    cfg: DistConfig {
                        lease_ms: 1_500,
                        grace_ms: 300,
                        ..DistConfig::default()
                    },
                    max_conns: MAX_CONNS,
                    journal: false,
                    ckill: 0,
                    fail_append: None,
                };
                assert_eq!(run_schedule(&setup, seed).len(), 1, "{spec} seed {seed}");
            }
        }
        sweep(0..10_000);
    }

    #[test]
    fn every_ckill_point_resumes_exactly_once() {
        for cells in 1..=MAX_CELLS {
            for ckill in 1..=cells as u64 {
                for seed in 0..10 {
                    let mut rng = Mix(seed);
                    let chaos = ChaosPlan {
                        kill: rng.gen_range(0..=1),
                        hang: rng.gen_range(0..=1),
                        corrupt: rng.gen_range(0..=2),
                        dup: rng.gen_range(0..=2),
                        ckill: 0,
                    };
                    let mut setup = Setup {
                        cells,
                        // A lone time traveller: each of its results is
                        // preceded by a previous-epoch copy, and with no
                        // fallback it does every cell, so both lives see
                        // stale frames.
                        workers: vec![(Kind::TimeTraveller, ChaosPlan::default())],
                        cfg: DistConfig {
                            lease_ms: 50,
                            grace_ms: u64::MAX,
                            ..DistConfig::default()
                        },
                        max_conns: MAX_CONNS,
                        journal: true,
                        ckill,
                        fail_append: None,
                    };
                    let lives = run_schedule(&setup, seed);
                    assert_eq!(lives.len(), 2, "cells {cells} ckill {ckill} seed {seed}");
                    assert!(
                        lives[0].stale_results > 0,
                        "no stale frame in the first life"
                    );
                    if ckill < cells as u64 {
                        assert!(
                            lives[1].stale_results > 0,
                            "no stale frame after the resume"
                        );
                    }
                    // The same crash point among faults and a fallback.
                    setup.workers.push((Kind::Honest, chaos));
                    setup.cfg.grace_ms = 100;
                    assert_eq!(run_schedule(&setup, seed).len(), 2);
                }
            }
        }
    }

    #[test]
    fn connection_cap_refuses_busy_and_counts_it() {
        let cfg = DistConfig::default();
        let mut table = LeaseTable::new(1, &[], 1, FINGERPRINT.into(), &cfg, 0).unwrap();
        let conns: Vec<ConnId> = (0..MAX_CONNS)
            .map(|_| table.connect(0).expect("under the cap"))
            .collect();
        let busy = table.connect(0).expect_err("over the cap");
        assert_eq!(
            busy,
            Frame::Reject {
                reason: "busy".to_string()
            }
        );
        assert_eq!(table.stats.workers_rejected, 1);
        table.disconnect(conns[0]);
        assert!(table.connect(0).is_ok(), "a freed slot is reusable");
        assert_eq!(table.stats.workers_disconnected, 0, "nobody had registered");
    }

    #[test]
    fn protocol_and_fingerprint_mismatches_are_refused_and_counted() {
        let cfg = DistConfig::default();
        let mut table = LeaseTable::new(1, &[], 1, FINGERPRINT.into(), &cfg, 0).unwrap();
        for (proto, fingerprint, why) in [
            (PROTO_VERSION + 1, FINGERPRINT, "protocol"),
            (PROTO_VERSION, "other-matrix", "fingerprint"),
        ] {
            let conn = table.connect(0).unwrap();
            let hello = Frame::Hello {
                proto,
                name: "w".to_string(),
                fingerprint: fingerprint.to_string(),
            };
            assert_eq!(table.input(conn, Ok(hello.render()), 0), None);
            match table.step(conn, 0) {
                Step::Send(frames) => match &frames[..] {
                    [Frame::Reject { reason }] => assert!(reason.contains(why), "{reason}"),
                    other => panic!("expected one reject, got {other:?}"),
                },
                other => panic!("expected the reject, got {other:?}"),
            }
            assert!(matches!(table.step(conn, 0), Step::End));
            table.disconnect(conn);
        }
        assert_eq!(table.stats.workers_rejected, 2);
        assert_eq!(table.stats.workers_registered, 0);
        assert_eq!(table.stats.leases_granted, 0);
    }

    #[test]
    #[ignore = "deep sweep; run in release with --ignored"]
    fn deep_simulator_sweep() {
        sweep(10_000..210_000);
    }
}
