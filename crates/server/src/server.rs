//! The connection handlers: reusable handler threads over one shared
//! [`ResultCache`], engine runs gated through a core-budget slot pool.
//!
//! Concurrency model:
//!
//! * Idle handler threads block in `accept()` on the shared listener;
//!   `Shared::idle` counts them. A handler that accepts a connection
//!   while it was the last idle one first spawns a replacement, so a
//!   long-lived connection never holds up later accepts, and every
//!   connection is served at once by its own thread. When its
//!   connection ends the handler goes back to `accept()`, or exits if
//!   [`IDLE_HANDLERS`] are already idle, so a burst does not leave its
//!   threads behind. The live handler count is not bounded.
//! * A `shutdown` request sets the stop flag under the idle-count lock
//!   and, if a handler is idle, connects to the listener to wake it
//!   ([`wake_listener`]). A handler that wakes to a set flag drops that
//!   connection unserved, leaves the idle count and wakes the next idle
//!   handler, so every handler exits and [`Server::run`] returns. A
//!   failed accept stops the run the same way.
//! * A handler reads line-framed requests with the distributed runner's
//!   [`FrameReader`] (partial lines accumulate across reads; a slow
//!   client can stall its own connection, never corrupt a frame).
//! * Cache lookups take a short mutex; engine runs happen *outside* it,
//!   gated by a counting semaphore sized by [`CoreBudget::fan_out`] so
//!   `slots × per-slot budget ≤ total budget` — a burst of cache misses
//!   queues instead of oversubscribing the machine. The slot permit is
//!   an RAII guard: a panicking engine run returns its slot on unwind
//!   instead of deadlocking the miss path.
//! * Identical concurrent misses coalesce on an in-flight table keyed
//!   by cache key: the first request (the leader) runs the engine,
//!   followers block on its condvar and are handed the same bytes —
//!   one engine run per key, no matter how many requests race to it
//!   (`coalesced` in stats counts the followers).
//! * A miss that finds a near-miss donor entry (same canonical spec,
//!   different goal or ArC) seeds the engine run from the donor's
//!   winning design points and reports `cache=warm` plus the donor key.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Scope;
use std::time::{Duration, Instant};

use ftes_bench::dist::protocol::{wake_listener, FrameReader, RecvError};
use ftes_bench::matrix::{cell_json, run_cell_seeded};
use ftes_gen::Scenario;
use ftes_model::Cost;
use ftes_opt::{CoreBudget, Threads};

use crate::cache::{cache_key, CacheStats, EntryMeta, ResultCache};
use crate::protocol::{Request, Response};
use crate::ENGINE_VERSION;

/// How many handlers may wait in `accept()` once their connection ends;
/// a handler finishing while this many are idle exits. Two serves a
/// client that opens a fresh connection per request without spawning:
/// one handler serves while the other waits, and the finished handler
/// rejoins the waiting one, so the next accept still leaves one idle.
const IDLE_HANDLERS: usize = 2;

/// Tuning knobs for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Memory-tier capacity in entries (0 disables the memory tier).
    pub mem_cap: usize,
    /// Disk-tier directory; `None` keeps the cache memory-only (no
    /// persistence across restarts).
    pub cache_dir: Option<PathBuf>,
    /// Disk-tier size cap in bytes (`None` = unbounded); every store
    /// sweeps the oldest-mtime entries until the tier fits.
    pub disk_cap_bytes: Option<u64>,
    /// Total core budget shared by all concurrent engine runs
    /// (`Threads(0)` = all cores).
    pub threads: Threads,
    /// Maximum concurrent engine runs; the total budget is split over
    /// these slots via [`CoreBudget::fan_out`].
    pub engine_slots: usize,
    /// Read slice for frame reads: a handler waiting for a request line
    /// re-checks its idle deadline and the stop flag this often. Accepts
    /// do not wait on it; they block until a connection arrives.
    pub io_poll_ms: u64,
    /// Per-connection idle limit: a connection with no complete request
    /// line for this long is closed (the client can reconnect).
    pub idle_ms: u64,
    /// Log one stderr line per served request.
    pub progress: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            mem_cap: 256,
            cache_dir: None,
            disk_cap_bytes: None,
            threads: Threads(0),
            engine_slots: 2,
            io_poll_ms: 25,
            idle_ms: 60_000,
            progress: false,
        }
    }
}

/// A counting semaphore over engine slots (std has none; a mutexed
/// counter plus a condvar is enough at this request rate).
#[derive(Debug)]
struct Gate {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new(slots: usize) -> Gate {
        Gate {
            free: Mutex::new(slots.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut free = self.free.lock().expect("gate poisoned");
        while *free == 0 {
            free = self.cv.wait(free).expect("gate poisoned");
        }
        *free -= 1;
    }

    fn release(&self) {
        *self.free.lock().expect("gate poisoned") += 1;
        self.cv.notify_one();
    }
}

/// An RAII engine-slot permit: the slot goes back to the [`Gate`] on
/// drop, *including* an unwind — a panicking engine run must never
/// shrink the slot pool for the rest of the process.
struct Permit<'a>(&'a Gate);

impl<'a> Permit<'a> {
    fn acquire(gate: &'a Gate) -> Permit<'a> {
        gate.acquire();
        Permit(gate)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// One in-flight engine run: the leader publishes its result here and
/// wakes the followers.
#[derive(Debug, Default)]
struct InflightRun {
    state: Mutex<Option<Result<String, String>>>,
    cv: Condvar,
    /// How many followers are (or will be) blocked on this run —
    /// observable by the leader's compute closure, which the
    /// counter-exact coalescing test uses to hold the engine "running"
    /// until every follower has joined.
    waiters: AtomicUsize,
}

/// The in-flight table: at most one engine run per cache key at any
/// moment; identical concurrent misses join the running one.
#[derive(Debug, Default)]
struct Inflight {
    runs: Mutex<HashMap<u64, Arc<InflightRun>>>,
}

/// How a request obtained its bytes from [`coalesce_compute`].
#[derive(Debug, PartialEq)]
enum CoalesceOutcome {
    /// This request was the leader: `compute` ran here.
    Led(Result<String, String>),
    /// This request joined another request's in-flight run.
    Joined(Result<String, String>),
}

/// Runs `compute` at most once per key across concurrent callers: the
/// first caller becomes the leader and computes; every concurrent
/// caller with the same key blocks until the leader publishes and gets
/// the same result. A panicking leader publishes an error (followers
/// fail fast instead of hanging) and the panic unwinds onward; once
/// the run is published the key is removed, so later callers — who
/// will find the leader's result in the cache — start fresh.
fn coalesce_compute(
    inflight: &Inflight,
    key: u64,
    compute: impl FnOnce(&InflightRun) -> Result<String, String>,
) -> CoalesceOutcome {
    let (run, leader) = {
        let mut runs = inflight.runs.lock().expect("inflight poisoned");
        match runs.get(&key) {
            Some(run) => (Arc::clone(run), false),
            None => {
                let run = Arc::new(InflightRun::default());
                runs.insert(key, Arc::clone(&run));
                (run, true)
            }
        }
    };
    if !leader {
        run.waiters.fetch_add(1, Ordering::SeqCst);
        let mut state = run.state.lock().expect("inflight run poisoned");
        while state.is_none() {
            state = run.cv.wait(state).expect("inflight run poisoned");
        }
        return CoalesceOutcome::Joined(state.clone().expect("loop exits on Some"));
    }

    /// Publishes on every exit path: a leader that unwinds mid-compute
    /// hands its followers an error instead of a hang, and always
    /// clears the in-flight slot.
    struct LeaderGuard<'a> {
        inflight: &'a Inflight,
        run: &'a InflightRun,
        key: u64,
        published: bool,
    }
    impl Drop for LeaderGuard<'_> {
        fn drop(&mut self) {
            if !self.published {
                if let Ok(mut state) = self.run.state.lock() {
                    *state = Some(Err("engine run panicked".to_string()));
                }
                self.run.cv.notify_all();
            }
            if let Ok(mut runs) = self.inflight.runs.lock() {
                runs.remove(&self.key);
            }
        }
    }

    let mut guard = LeaderGuard {
        inflight,
        run: &run,
        key,
        published: false,
    };
    let result = compute(&run);
    *run.state.lock().expect("inflight run poisoned") = Some(result.clone());
    guard.published = true;
    run.cv.notify_all();
    drop(guard);
    CoalesceOutcome::Led(result)
}

/// A bound listener ready to serve.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    cfg: ServerConfig,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and prepares the
    /// cache directory.
    ///
    /// # Errors
    ///
    /// Returns a message when the bind or the cache-dir creation fails.
    pub fn bind(addr: &str, cfg: ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        Ok(Server { listener, cfg })
    }

    /// The actually bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Serves until a `shutdown` request arrives, then returns the
    /// final cache counters. Every connection error is contained to its
    /// handler; the handlers only stop on shutdown or a failed accept.
    ///
    /// # Errors
    ///
    /// Returns a message when the cache cannot be initialized.
    pub fn run(self) -> Result<CacheStats, String> {
        let cache = ResultCache::new(self.cfg.mem_cap, self.cfg.cache_dir.as_deref())?
            .with_disk_cap(self.cfg.disk_cap_bytes);
        let budget = CoreBudget::new(self.cfg.threads.resolve());
        let (slots, per_slot) = budget.fan_out(self.cfg.engine_slots.max(1));
        let shared = Shared {
            cache: Mutex::new(cache),
            inflight: Inflight::default(),
            gate: Gate::new(slots),
            per_slot,
            stop: AtomicBool::new(false),
            // The calling thread is the first idle handler.
            idle: Mutex::new(1),
            addr: self.local_addr(),
            listener: self.listener,
            cfg: self.cfg,
        };
        std::thread::scope(|scope| run_handler(scope, &shared));
        Ok(shared.cache.into_inner().expect("cache poisoned").stats())
    }
}

/// What every connection handler shares.
struct Shared {
    cache: Mutex<ResultCache>,
    inflight: Inflight,
    gate: Gate,
    /// Core budget of one engine slot.
    per_slot: CoreBudget,
    /// Set only under the `idle` lock, so a handler deciding to wait in
    /// `accept()` either sees it or is counted before the wake chain
    /// starts.
    stop: AtomicBool,
    /// Handlers blocked in (or about to enter) `accept()`.
    idle: Mutex<usize>,
    /// The listener's address: connecting to it wakes an idle handler.
    addr: SocketAddr,
    listener: TcpListener,
    cfg: ServerConfig,
}

impl Shared {
    /// Sets the stop flag and wakes one idle handler.
    fn shut_down(&self) {
        let idle = self.idle.lock().expect("idle count poisoned");
        self.stop.store(true, Ordering::SeqCst);
        self.wake_next(idle);
    }

    /// Wakes one idle handler, if any, after releasing the lock: each
    /// woken handler that sees the stop flag wakes the next.
    fn wake_next(&self, idle: MutexGuard<'_, usize>) {
        let anyone = *idle > 0;
        drop(idle);
        if anyone {
            if let Err(e) = wake_listener(self.addr) {
                eprintln!("cannot wake an idle handler: {e}");
            }
        }
    }
}

/// One handler thread: accepts a connection, serves it, and repeats
/// until the server stops or enough other handlers are idle. The caller
/// has already counted this handler in `Shared::idle`.
fn run_handler<'scope>(scope: &'scope Scope<'scope, '_>, shared: &'scope Shared) {
    loop {
        let stream = match shared.listener.accept() {
            Ok((stream, _peer)) => Some(stream),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                eprintln!("accept failed: {e}");
                None
            }
        };
        let mut idle = shared.idle.lock().expect("idle count poisoned");
        *idle -= 1;
        let mut stream = match stream {
            Some(stream) if !shared.stop.load(Ordering::SeqCst) => stream,
            // Stopping: this connection (often the wake itself) is
            // dropped unserved. A broken listener stops the run too, as
            // it cannot serve anyone.
            _ => {
                shared.stop.store(true, Ordering::SeqCst);
                shared.wake_next(idle);
                return;
            }
        };
        if *idle == 0 {
            *idle += 1;
            let spawned =
                std::thread::Builder::new().spawn_scoped(scope, move || run_handler(scope, shared));
            if let Err(e) = spawned {
                *idle -= 1;
                eprintln!("cannot start a connection handler: {e}");
            }
        }
        drop(idle);
        handle_connection(&mut stream, shared);
        let mut idle = shared.idle.lock().expect("idle count poisoned");
        if shared.stop.load(Ordering::SeqCst) || *idle >= IDLE_HANDLERS {
            return;
        }
        *idle += 1;
        drop(idle);
        // Closed only once counted: a client that reads EOF on this
        // connection knows its handler is idle again or gone.
        drop(stream);
    }
}

/// Serves one connection until the peer closes, the idle limit passes
/// or the server stops. Malformed requests get an `error` response and
/// the connection stays open — the peer is told exactly what was wrong.
fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    use std::io::Write as _;

    let Shared {
        cache, stop, cfg, ..
    } = shared;

    let poll = Duration::from_millis(cfg.io_poll_ms.max(1));
    let idle = Duration::from_millis(cfg.idle_ms.max(1));
    let mut reader = FrameReader::new();
    loop {
        let deadline = Instant::now() + idle;
        let line = match reader.read_line(stream, deadline, poll, || stop.load(Ordering::SeqCst)) {
            Ok(line) => line,
            // Idle, stopped, or gone — either way this connection is done.
            Err(RecvError::Timeout | RecvError::Closed | RecvError::Io(_)) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::parse(line.trim_end()) {
            Ok(Request::Optimize {
                scenario,
                goal,
                arc,
            }) => serve_optimize(&scenario, goal, arc, shared),
            Ok(Request::Stats) => Response::Stats(cache.lock().expect("cache poisoned").stats()),
            Ok(Request::Flush) => {
                let (mem, disk) = cache.lock().expect("cache poisoned").flush();
                Response::Flushed {
                    mem: mem as u64,
                    disk: disk as u64,
                }
            }
            Ok(Request::Evict { key }) => Response::Evicted {
                removed: cache.lock().expect("cache poisoned").evict(key),
            },
            Ok(Request::Shutdown) => {
                shared.shut_down();
                Response::Ok
            }
            // Malformed lines don't touch the cache or its counters.
            Err(reason) => Response::Error(reason),
        };
        if stream.write_all(response.render().as_bytes()).is_err() {
            return;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Answers one `optimize` request: cache lookup under the lock; on a
/// miss, the engine run coalesces with identical in-flight requests,
/// warm-starts from a near-miss donor when one exists, and happens
/// outside the cache lock behind an RAII slot permit.
fn serve_optimize(scenario: &str, goal: crate::Goal, arc: u64, shared: &Shared) -> Response {
    let Shared {
        cache,
        inflight,
        gate,
        per_slot,
        cfg,
        ..
    } = shared;
    let parsed = match Scenario::parse_spec(scenario) {
        Ok(s) => s,
        Err(reason) => return Response::Error(reason),
    };
    let canonical = parsed.canonical_spec();
    let key = cache_key(&canonical, goal.label(), arc, ENGINE_VERSION);

    let (cached, tier) = cache.lock().expect("cache poisoned").lookup(key);
    let (payload, label, engine_ms, donor) = match cached {
        Some(payload) => (payload, tier.label().to_string(), 0, None),
        None => {
            let mut donor_key: Option<u64> = None;
            let mut engine_ms = 0u64;
            let outcome = coalesce_compute(inflight, key, |_run| {
                let donor = cache.lock().expect("cache poisoned").find_warm(
                    &canonical,
                    goal.label(),
                    arc,
                    key,
                );
                let seeds = donor.as_ref().map(|(_, seeds)| seeds);
                let permit = Permit::acquire(gate);
                let started = Instant::now();
                let (cell, winners) = run_cell_seeded(&parsed, goal.strategies(), *per_slot, seeds);
                // timings=false keeps the payload deterministic: the same
                // request always caches (and serves) identical bytes.
                let payload = cell_json(&cell, Cost::new(arc), false);
                engine_ms = started.elapsed().as_millis() as u64;
                drop(permit);
                let mut cache = cache.lock().expect("cache poisoned");
                if donor.is_some() {
                    cache.note_warm_start();
                }
                cache.store(
                    key,
                    &payload,
                    &EntryMeta {
                        spec: canonical.clone(),
                        goal: goal.label().to_string(),
                        arc,
                        seeds: winners,
                    },
                );
                donor_key = donor.map(|(k, _)| k);
                Ok(payload)
            });
            match outcome {
                CoalesceOutcome::Led(Ok(payload)) => {
                    let label = if donor_key.is_some() { "warm" } else { "miss" };
                    (
                        payload,
                        label.to_string(),
                        engine_ms,
                        donor_key.map(|k| format!("{k:016x}")),
                    )
                }
                CoalesceOutcome::Joined(Ok(payload)) => {
                    cache.lock().expect("cache poisoned").note_coalesced();
                    (payload, "coalesced".to_string(), 0, None)
                }
                CoalesceOutcome::Led(Err(reason)) | CoalesceOutcome::Joined(Err(reason)) => {
                    return Response::Error(reason)
                }
            }
        }
    };
    let stats = cache.lock().expect("cache poisoned").stats();
    if cfg.progress {
        eprintln!(
            "served {key:016x} ({label}, {engine_ms} ms) goal={} arc={arc}",
            goal.label(),
        );
    }
    Response::Result {
        cache: label,
        key: format!("{key:016x}"),
        engine_ms,
        donor,
        mem_hits: stats.mem_hits,
        disk_hits: stats.disk_hits,
        misses: stats.misses,
        payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_caps_concurrency_at_its_slot_count() {
        let gate = Gate::new(2);
        gate.acquire();
        gate.acquire();
        // Both slots taken: a third acquire must block until a release.
        let blocked = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                gate.acquire();
                blocked.store(false, Ordering::SeqCst);
                gate.release();
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(blocked.load(Ordering::SeqCst), "third acquire ran early");
            gate.release();
        });
        assert!(!blocked.load(Ordering::SeqCst));
        gate.release();
    }

    #[test]
    fn fan_out_never_exceeds_the_total_budget() {
        for total in [1usize, 2, 3, 8, 64] {
            for slots in [1usize, 2, 4] {
                let (workers, per) = CoreBudget::new(total).fan_out(slots);
                assert!(workers * per.get() <= total, "{total}/{slots}");
            }
        }
    }

    #[test]
    fn panicking_engine_run_returns_its_slot_to_the_gate() {
        // The pre-fix code paired a bare acquire with a release after
        // the engine call: a panicking run skipped the release and
        // shrank the pool forever. The RAII permit releases on unwind.
        let gate = Gate::new(1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = Permit::acquire(&gate);
            panic!("engine blew up");
        }));
        assert!(unwound.is_err());
        assert_eq!(*gate.free.lock().unwrap(), 1, "slot leaked on unwind");
        // And the slot is genuinely usable again.
        let _permit = Permit::acquire(&gate);
        assert_eq!(*gate.free.lock().unwrap(), 0);
    }

    #[test]
    fn concurrent_identical_misses_share_exactly_one_compute() {
        const N: usize = 4;
        let inflight = Inflight::default();
        let computes = AtomicUsize::new(0);
        let led = AtomicUsize::new(0);
        let joined = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..N {
                let (inflight, computes, led, joined) = (&inflight, &computes, &led, &joined);
                scope.spawn(move || {
                    let outcome = coalesce_compute(inflight, 7, |run| {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the "engine" until every other request
                        // has joined this run — proves the followers
                        // coalesce instead of queuing behind it.
                        while run.waiters.load(Ordering::SeqCst) < N - 1 {
                            std::thread::yield_now();
                        }
                        Ok("bytes".to_string())
                    });
                    match outcome {
                        CoalesceOutcome::Led(Ok(p)) => {
                            assert_eq!(p, "bytes");
                            led.fetch_add(1, Ordering::SeqCst);
                        }
                        CoalesceOutcome::Joined(Ok(p)) => {
                            assert_eq!(p, "bytes");
                            joined.fetch_add(1, Ordering::SeqCst);
                        }
                        other => panic!("unexpected outcome {other:?}"),
                    }
                });
            }
        });
        // Counter-exact: one engine run, one leader, N−1 coalesced.
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert_eq!(led.load(Ordering::SeqCst), 1);
        assert_eq!(joined.load(Ordering::SeqCst), N - 1);
        // The in-flight table is empty again: the next miss leads anew.
        assert!(inflight.runs.lock().unwrap().is_empty());
    }

    #[test]
    fn different_keys_never_coalesce() {
        let inflight = Inflight::default();
        for key in [1u64, 2, 3] {
            match coalesce_compute(&inflight, key, |_| Ok(format!("k{key}"))) {
                CoalesceOutcome::Led(Ok(p)) => assert_eq!(p, format!("k{key}")),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn panicking_leader_fails_followers_fast_instead_of_hanging_them() {
        let inflight = Arc::new(Inflight::default());
        // The follower is spawned only once the leader's closure runs, so
        // the key is already in the in-flight table when it arrives: the
        // roles never depend on which thread the scheduler starts first.
        let (running_tx, running_rx) = std::sync::mpsc::channel();
        let leader = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || {
                coalesce_compute(&inflight, 9, |run| {
                    running_tx.send(()).expect("test thread waits for this");
                    while run.waiters.load(Ordering::SeqCst) < 1 {
                        std::thread::yield_now();
                    }
                    panic!("engine blew up");
                })
            })
        };
        running_rx.recv().expect("leader never ran its compute");
        let follower = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || coalesce_compute(&inflight, 9, |_| unreachable!()))
        };
        assert!(leader.join().is_err(), "leader panic must propagate");
        match follower.join().unwrap() {
            CoalesceOutcome::Joined(Err(reason)) => {
                assert!(reason.contains("panicked"), "{reason:?}")
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // The dead run was cleared: the key is retryable.
        assert!(inflight.runs.lock().unwrap().is_empty());
    }
}
