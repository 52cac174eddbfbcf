//! The worker loop of the distributed matrix runner.
//!
//! A worker connects to the coordinator (reconnecting with **capped
//! exponential backoff and deterministic, seedable jitter** whenever the
//! connection is refused or lost), registers with the matrix
//! fingerprint, then serves leases: compute the cell through the same
//! engine the local runner uses, render it, send it back with a
//! checksum. Every socket read and write is bounded by a timeout, so a
//! hung coordinator can never wedge the worker — it reconnects instead.
//!
//! A `shutdown` frame drains first: any leases already received (queued
//! in the read buffer behind the shutdown frame) are computed and their
//! results sent before the worker answers `bye` and exits, so CI
//! teardown never leaves orphaned worker processes behind.
//!
//! The [`ChaosPlan`] hooks sit right where real faults would bite:
//! before a result is sent (kill, hang) and on the rendered frame bytes
//! (corrupt, duplicate). See [`super::chaos`].

use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use ftes_gen::Scenario;
use ftes_model::Cost;
use ftes_opt::CoreBudget;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::chaos::{corrupt_frame, ChaosAction, ChaosPlan, ChaosState};
use super::protocol::{checksum, matrix_fingerprint, Frame, FrameReader, RecvError, PROTO_VERSION};
use crate::Strategy;

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Name reported in the hello frame.
    pub name: String,
    /// Engine budget for computing leased cells.
    pub budget: CoreBudget,
    /// First reconnect delay (milliseconds).
    pub backoff_base_ms: u64,
    /// Reconnect delay cap (milliseconds).
    pub backoff_cap_ms: u64,
    /// Consecutive failed connect attempts before giving up — keeps a
    /// worker whose coordinator is gone from spinning forever.
    pub max_attempts: u32,
    /// Socket poll slice (milliseconds).
    pub io_poll_ms: u64,
    /// Reconnect if no frame arrives while idle for this long
    /// (milliseconds) — the hung-coordinator guard. A healthy
    /// coordinator pings lease-starved workers every few poll slices,
    /// so this only fires when the peer is genuinely gone.
    pub idle_ms: u64,
    /// Seed of the backoff jitter and the chaos schedule.
    pub seed: u64,
    /// Fault-injection budget (empty = a well-behaved worker).
    pub chaos: ChaosPlan,
    /// Render `wall_seconds` into payloads (must match the coordinator;
    /// part of the fingerprint).
    pub timings: bool,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".to_string(),
            budget: CoreBudget::default(),
            backoff_base_ms: 100,
            backoff_cap_ms: 3_000,
            max_attempts: 10,
            io_poll_ms: 100,
            idle_ms: 15_000,
            seed: 0,
            chaos: ChaosPlan::default(),
            timings: true,
        }
    }
}

/// How a worker run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The coordinator said shutdown; the worker drained and left.
    Shutdown,
    /// An injected kill fault fired (simulated crash).
    Killed,
    /// The coordinator refused registration (mismatched flags).
    Rejected(String),
    /// Reconnect attempts were exhausted.
    GaveUp(String),
}

/// What one worker did, for logs and assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// How the run ended.
    pub outcome: WorkerOutcome,
    /// Verified results sent (as far as the worker knows).
    pub cells_completed: u64,
    /// Successful (re)connections.
    pub connects: u64,
    /// Chaos faults fired.
    pub chaos_fired: u64,
}

/// Capped exponential backoff with seeded full jitter: delay `n` is
/// uniform in `[base·2ⁿ/2, base·2ⁿ]`, capped — deterministic per seed,
/// so chaos runs are reproducible while concurrent workers still spread
/// their retries.
#[derive(Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
    rng: ChaCha8Rng,
}

impl Backoff {
    /// A fresh backoff schedule.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            attempt: 0,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xB0FF_5EED),
        }
    }

    /// The next delay (advances the schedule).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << self.attempt.min(20))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        let low = (exp / 2).max(1);
        Duration::from_millis(self.rng.gen_range(low..=exp.max(low)))
    }

    /// Consecutive attempts since the last [`reset`](Backoff::reset).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Back to the base delay (call after a successful connection).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Why one served connection ended.
enum ServeEnd {
    /// Coordinator sent shutdown; drained and said bye.
    Shutdown,
    /// Chaos kill fired.
    Killed,
    /// Connection lost / idle timeout / protocol error — reconnect.
    /// `registered` distinguishes a loss after a completed registration
    /// (backoff restarts: the coordinator was demonstrably sane) from a
    /// connection that never welcomed us (backoff keeps growing towards
    /// the give-up bound, or a half-open peer would retry us forever).
    Lost {
        /// Registration had completed before the loss.
        registered: bool,
    },
    /// Terminal registration refusal.
    Rejected(String),
}

/// Runs a worker against `addr` until shutdown, a kill fault, or
/// exhausted reconnects. `cells`/`strategies`/`arc` must describe the
/// same matrix the coordinator serves (checked via the fingerprint).
pub fn run_worker(
    addr: &str,
    cells: &[Scenario],
    strategies: &[Strategy],
    arc: Cost,
    cfg: &WorkerConfig,
) -> WorkerReport {
    let fingerprint = matrix_fingerprint(cells, strategies, arc, cfg.timings);
    let mut backoff = Backoff::new(cfg.backoff_base_ms, cfg.backoff_cap_ms, cfg.seed);
    let mut chaos = ChaosState::new(cfg.chaos, cfg.seed);
    let mut report = WorkerReport {
        outcome: WorkerOutcome::Shutdown,
        cells_completed: 0,
        connects: 0,
        chaos_fired: 0,
    };
    loop {
        let stream = match connect(addr, Duration::from_millis(cfg.io_poll_ms.max(1) * 10)) {
            Ok(stream) => stream,
            Err(e) => {
                if backoff.attempts() >= cfg.max_attempts {
                    report.outcome = WorkerOutcome::GaveUp(format!(
                        "no connection after {} attempts: {e}",
                        backoff.attempts()
                    ));
                    return report;
                }
                std::thread::sleep(backoff.next_delay());
                continue;
            }
        };
        report.connects += 1;
        report.outcome = match serve(
            stream,
            cells,
            strategies,
            arc,
            cfg,
            &fingerprint,
            &mut chaos,
            &mut report,
        ) {
            ServeEnd::Shutdown => WorkerOutcome::Shutdown,
            ServeEnd::Killed => WorkerOutcome::Killed,
            ServeEnd::Rejected(reason) => WorkerOutcome::Rejected(reason),
            ServeEnd::Lost { registered } => {
                if registered {
                    // Registration succeeded: restart the backoff
                    // schedule for the reconnect.
                    backoff.reset();
                } else if backoff.attempts() >= cfg.max_attempts {
                    report.outcome = WorkerOutcome::GaveUp(format!(
                        "registration never completed after {} attempts",
                        backoff.attempts()
                    ));
                    return report;
                }
                std::thread::sleep(backoff.next_delay());
                continue;
            }
        };
        return report;
    }
}

fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let mut last = format!("cannot resolve {addr}");
    for sock in addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
    {
        match TcpStream::connect_timeout(&sock, timeout) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => last = format!("cannot connect {sock}: {e}"),
        }
    }
    Err(last)
}

/// Serves one connection until it ends.
#[allow(clippy::too_many_arguments)]
fn serve(
    mut stream: TcpStream,
    cells: &[Scenario],
    strategies: &[Strategy],
    arc: Cost,
    cfg: &WorkerConfig,
    fingerprint: &str,
    chaos: &mut ChaosState,
    report: &mut WorkerReport,
) -> ServeEnd {
    let poll = Duration::from_millis(cfg.io_poll_ms.max(1));
    let _ = stream.set_write_timeout(Some(poll * 20));
    let mut reader = FrameReader::new();

    if send(
        &mut stream,
        &Frame::Hello {
            proto: PROTO_VERSION,
            name: cfg.name.clone(),
            fingerprint: fingerprint.to_string(),
        },
    )
    .is_err()
    {
        return ServeEnd::Lost { registered: false };
    }
    let welcome_deadline = Instant::now() + Duration::from_millis(cfg.idle_ms);
    // The welcome carries the coordinator's run epoch: a worker that
    // reconnects to a resumed (restarted) coordinator re-registers under
    // the new epoch, and every result it sends is stamped with it — so
    // the coordinator can tell live work from a previous life's leases.
    let epoch = match read_frame(&mut reader, &mut stream, welcome_deadline, poll) {
        Ok(Frame::Welcome { proto, epoch, .. }) if proto == PROTO_VERSION => epoch,
        Ok(Frame::Reject { reason }) => return ServeEnd::Rejected(reason),
        _ => return ServeEnd::Lost { registered: false },
    };

    let mut draining = false;
    loop {
        let next = if draining {
            let Some(line) = reader.buffered_line() else {
                let _ = send(&mut stream, &Frame::Bye);
                return ServeEnd::Shutdown;
            };
            Frame::parse(&line).map_err(RecvError::Io)
        } else {
            let idle_deadline = Instant::now() + Duration::from_millis(cfg.idle_ms);
            read_frame(&mut reader, &mut stream, idle_deadline, poll)
        };
        let (lease, cell, deadline_ms) = match next {
            Ok(Frame::Lease {
                lease,
                cell,
                deadline_ms,
            }) => (lease, cell, deadline_ms),
            // A keepalive from a lease-starved coordinator: the loop
            // recomputes the idle deadline, nothing else to do.
            Ok(Frame::Ping) => continue,
            Ok(Frame::Shutdown) => {
                draining = true;
                continue;
            }
            // The drain computes leases and skips anything else.
            _ if draining => continue,
            // Unexpected frame, idle too long, or transport gone: drop
            // the connection and let the backoff loop decide.
            _ => return ServeEnd::Lost { registered: true },
        };
        if cell >= cells.len() {
            // A lease outside the matrix: the two sides disagree after
            // all — drop the connection rather than compute garbage.
            return ServeEnd::Lost { registered: true };
        }
        // Any scheduled chaos fault strikes here, where a real one would.
        let action = chaos.next_action();
        report.chaos_fired += u64::from(action.is_some());
        match action {
            // Simulated crash mid-cell: the lease dies with us.
            Some(ChaosAction::Kill) => return ServeEnd::Killed,
            // Stall past the lease deadline, then proceed: the
            // coordinator will have expired the lease; the stale send
            // exercises the late/duplicate path (and usually finds the
            // socket closed).
            Some(ChaosAction::Hang) => {
                std::thread::sleep(Duration::from_millis(deadline_ms.saturating_add(250)));
            }
            _ => {}
        }
        let payload =
            super::coordinator::render_cell(&cells[cell], strategies, arc, cfg.timings, cfg.budget);
        let frame = Frame::Result {
            lease,
            cell,
            epoch,
            crc: checksum(&payload),
            payload,
        }
        .render();
        let wire = match action {
            Some(a @ (ChaosAction::CorruptFlip | ChaosAction::CorruptTruncate)) => {
                corrupt_frame(a, &frame, chaos)
            }
            Some(ChaosAction::Duplicate) => format!("{frame}{frame}"),
            _ => frame,
        };
        if send_raw(&mut stream, &wire).is_err() {
            return ServeEnd::Lost { registered: true };
        }
        report.cells_completed += 1;
    }
}

fn read_frame(
    reader: &mut FrameReader,
    stream: &mut TcpStream,
    deadline: Instant,
    poll: Duration,
) -> Result<Frame, RecvError> {
    let line = reader.read_line(stream, deadline, poll, || false)?;
    Frame::parse(&line).map_err(RecvError::Io)
}

fn send(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    send_raw(stream, &frame.render())
}

fn send_raw(stream: &mut TcpStream, wire: &str) -> std::io::Result<()> {
    use std::io::Write;
    stream.write_all(wire.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let delays = |seed: u64| {
            let mut b = Backoff::new(100, 1_000, seed);
            (0..8)
                .map(|_| b.next_delay().as_millis() as u64)
                .collect::<Vec<_>>()
        };
        let a = delays(1);
        assert_eq!(a, delays(1), "same seed, same jitter");
        assert_ne!(a, delays(2), "different seed, different jitter");
        // Each delay stays within [exp/2, exp] with exp capped at 1000.
        let mut exp = 100u64;
        for &d in &a {
            assert!(
                d >= exp / 2 && d <= exp,
                "delay {d} outside [{}, {exp}]",
                exp / 2
            );
            exp = (exp * 2).min(1_000);
        }
        // Cap reached: later delays never exceed the cap.
        assert!(a[4..].iter().all(|&d| d <= 1_000));
        let mut b = Backoff::new(100, 1_000, 1);
        for _ in 0..6 {
            let _ = b.next_delay();
        }
        b.reset();
        assert_eq!(b.attempts(), 0);
        // After a reset the exponent restarts at the base (the jitter
        // draw itself continues the stream).
        let d = b.next_delay().as_millis() as u64;
        assert!((50..=100).contains(&d), "post-reset delay {d} not at base");
    }

    #[test]
    fn pings_keep_a_lease_starved_worker_from_idling_out() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let coordinator = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut lines = BufReader::new(stream.try_clone().unwrap());
            let mut hello = String::new();
            lines.read_line(&mut hello).unwrap();
            assert!(matches!(Frame::parse(&hello), Ok(Frame::Hello { .. })));
            stream
                .write_all(
                    Frame::Welcome {
                        proto: PROTO_VERSION,
                        worker: 0,
                        epoch: 1,
                    }
                    .render()
                    .as_bytes(),
                )
                .unwrap();
            // Starve the worker of leases for ~1s — several times its
            // idle_ms below — with only pings flowing.
            for _ in 0..10 {
                std::thread::sleep(Duration::from_millis(100));
                stream.write_all(Frame::Ping.render().as_bytes()).unwrap();
            }
            stream
                .write_all(Frame::Shutdown.render().as_bytes())
                .unwrap();
            let mut bye = String::new();
            let _ = lines.read_line(&mut bye);
        });
        let cfg = WorkerConfig {
            idle_ms: 300,
            io_poll_ms: 10,
            ..WorkerConfig::default()
        };
        let report = run_worker(&addr, &[], &[], ftes_model::Cost::new(20), &cfg);
        coordinator.join().unwrap();
        assert_eq!(report.outcome, WorkerOutcome::Shutdown);
        assert_eq!(report.connects, 1, "pings must reset the idle clock");
    }

    #[test]
    fn worker_gives_up_after_bounded_attempts_when_nobody_listens() {
        // Port 1 on localhost: connection refused immediately.
        let cfg = WorkerConfig {
            backoff_base_ms: 1,
            backoff_cap_ms: 2,
            max_attempts: 3,
            ..WorkerConfig::default()
        };
        let start = Instant::now();
        let report = run_worker("127.0.0.1:1", &[], &[], ftes_model::Cost::new(20), &cfg);
        assert!(matches!(report.outcome, WorkerOutcome::GaveUp(_)));
        assert_eq!(report.connects, 0);
        assert!(start.elapsed() < Duration::from_secs(30));
    }
}
