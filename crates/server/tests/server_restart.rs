//! End-to-end server tests over loopback: cache-hit semantics within
//! one process lifetime, and — the tentpole guarantee — the disk tier
//! surviving a restart with byte-identical responses.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ftes_opt::Threads;
use ftes_server::{Goal, Request, Response, Server, ServerConfig};

/// A unique scratch directory per test (pid + test name), pre-cleaned.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftes-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds an ephemeral-port server over `cache_dir` and runs it on a
/// background thread; returns the address and the join handle (which
/// yields the final stats after a shutdown request).
fn spawn_server(
    cache_dir: &std::path::Path,
) -> (
    String,
    std::thread::JoinHandle<Result<ftes_server::CacheStats, String>>,
) {
    let cfg = ServerConfig {
        mem_cap: 16,
        cache_dir: Some(cache_dir.to_path_buf()),
        threads: Threads(2),
        engine_slots: 1,
        io_poll_ms: 5,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// One request/response round trip on a fresh connection.
fn round_trip(addr: &str, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(request.render().as_bytes())
        .expect("send request");
    let mut line = String::new();
    BufReader::new(&mut stream)
        .read_line(&mut line)
        .expect("read response");
    Response::parse(line.trim_end()).expect("parse response")
}

/// Sends a raw (possibly malformed) line and returns the raw response.
fn round_trip_raw(addr: &str, line: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("send line");
    let mut out = String::new();
    BufReader::new(&mut stream)
        .read_line(&mut out)
        .expect("read response");
    Response::parse(out.trim_end()).expect("parse response")
}

fn optimize(scenario: &str) -> Request {
    Request::Optimize {
        scenario: scenario.to_string(),
        goal: Goal::Opt,
        arc: 20,
    }
}

#[test]
fn cache_tiers_serve_repeats_and_survive_a_restart() {
    let dir = temp_dir("restart");
    let (addr, handle) = spawn_server(&dir);

    // First request: a miss — the engine runs, both tiers are filled.
    let first = round_trip(&addr, &optimize("apps=1"));
    let Response::Result {
        cache,
        key,
        payload,
        misses,
        ..
    } = first
    else {
        panic!("first request failed: {first:?}");
    };
    assert_eq!(cache, "miss");
    assert_eq!(misses, 1);
    assert!(!payload.is_empty());

    // Same request, formatted differently: the canonical spec hashes to
    // the same key, the memory tier answers, the bytes are identical
    // and the engine did not run again.
    let second = round_trip(&addr, &optimize("  apps = 1 ; "));
    let Response::Result {
        cache: cache2,
        key: key2,
        payload: payload2,
        engine_ms,
        mem_hits,
        misses: misses2,
        ..
    } = second
    else {
        panic!("second request failed: {second:?}");
    };
    assert_eq!(cache2, "mem", "repeat must be a memory hit");
    assert_eq!(key2, key, "canonicalization must produce the same key");
    assert_eq!(payload2, payload, "cached payload must be byte-identical");
    assert_eq!(engine_ms, 0, "a hit must not run the engine");
    assert_eq!((mem_hits, misses2), (1, 1));

    // A different goal is a different content address: a miss, however
    // close the cached goal=opt entry is. Its bytes depend on the key
    // alone, so they equal the same request's on a fresh cache.
    let min_request = Request::Optimize {
        scenario: "apps=1".to_string(),
        goal: Goal::Min,
        arc: 20,
    };
    let min_payload = match round_trip(&addr, &min_request) {
        Response::Result {
            cache,
            key: k,
            donor,
            payload,
            ..
        } => {
            assert_eq!(cache, "miss", "another goal must miss");
            assert_ne!(k, key, "goal must be part of the key");
            assert_eq!(donor, None);
            assert!(payload.contains("\"strategies\""), "payload shape");
            payload
        }
        other => panic!("goal=min request failed: {other:?}"),
    };
    let fresh_dir = temp_dir("restart-fresh");
    let (fresh_addr, fresh_handle) = spawn_server(&fresh_dir);
    match round_trip(&fresh_addr, &min_request) {
        Response::Result { cache, payload, .. } => {
            assert_eq!(cache, "miss");
            assert_eq!(
                payload, min_payload,
                "a key's bytes must not depend on the requests before it"
            );
        }
        other => panic!("goal=min request on a fresh cache failed: {other:?}"),
    }
    assert_eq!(round_trip(&fresh_addr, &Request::Shutdown), Response::Ok);
    fresh_handle
        .join()
        .expect("server thread")
        .expect("server run");
    let _ = std::fs::remove_dir_all(&fresh_dir);

    // Malformed requests are rejected with the reason, and do not
    // disturb the counters.
    let rejected = round_trip_raw(&addr, "{\"req\":\"optimize\",\"scenario\":\"apps=x\"}\n");
    let Response::Error(reason) = rejected else {
        panic!("malformed scenario accepted: {rejected:?}");
    };
    assert!(reason.contains("apps"), "{reason}");
    let rejected = round_trip_raw(&addr, "{\"req\":\"stats\",\"req\":\"stats\"}\n");
    assert!(matches!(rejected, Response::Error(_)), "{rejected:?}");

    let stats = round_trip(&addr, &Request::Stats);
    let Response::Stats(s) = stats else {
        panic!("stats failed: {stats:?}");
    };
    assert_eq!(s.requests, 3, "three lookups (two specs, one goal=min)");
    assert_eq!(s.mem_hits, 1);
    assert_eq!(s.misses, 2);
    assert_eq!(s.disk_writes, 2);
    assert_eq!(s.coalesced, 0);
    assert_eq!(s.errors, 0);

    // Shutdown: acknowledged, run() returns the same counters.
    assert_eq!(round_trip(&addr, &Request::Shutdown), Response::Ok);
    let final_stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(final_stats.requests, 3);
    assert_eq!(final_stats.disk_writes, 2);

    // ── Restart: a fresh process lifetime over the same cache dir. ──
    let (addr, handle) = spawn_server(&dir);
    let restarted = round_trip(&addr, &optimize("apps=1"));
    let Response::Result {
        cache,
        key: key3,
        payload: payload3,
        engine_ms,
        disk_hits,
        ..
    } = restarted
    else {
        panic!("post-restart request failed: {restarted:?}");
    };
    assert_eq!(cache, "disk", "restart must hit the disk tier");
    assert_eq!(key3, key);
    assert_eq!(
        payload3, payload,
        "disk tier must serve byte-identical payloads across restarts"
    );
    assert_eq!(engine_ms, 0);
    assert_eq!(disk_hits, 1);

    // The disk hit was promoted: the repeat is a memory hit.
    let promoted = round_trip(&addr, &optimize("apps=1"));
    match promoted {
        Response::Result { cache, payload, .. } => {
            assert_eq!(cache, "mem");
            assert_eq!(payload, payload3);
        }
        other => panic!("promoted repeat failed: {other:?}"),
    }

    // The goal=min entry replays byte-identical across the restart too.
    match round_trip(&addr, &min_request) {
        Response::Result { cache, payload, .. } => {
            assert_eq!(cache, "disk");
            assert_eq!(
                payload, min_payload,
                "disk payload must replay byte-identical"
            );
        }
        other => panic!("post-restart goal=min failed: {other:?}"),
    }

    assert_eq!(round_trip(&addr, &Request::Shutdown), Response::Ok);
    handle.join().expect("server thread").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_requests_coalesce_onto_one_engine_run() {
    // Memory-only server: every served byte comes from the engine or
    // the coalescing/caching layers under test.
    let cfg = ServerConfig {
        mem_cap: 16,
        cache_dir: None,
        threads: Threads(2),
        engine_slots: 1,
        io_poll_ms: 5,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    const N: usize = 4;
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| scope.spawn(|| round_trip(&addr, &optimize("apps=1"))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut payloads = Vec::new();
    let mut labels = Vec::new();
    for resp in responses {
        let Response::Result { cache, payload, .. } = resp else {
            panic!("optimize failed: {resp:?}");
        };
        payloads.push(payload);
        labels.push(cache);
    }
    // Every racer gets the same bytes, however it was served.
    assert!(payloads.windows(2).all(|w| w[0] == w[1]), "{labels:?}");

    assert_eq!(round_trip(&addr, &Request::Shutdown), Response::Ok);
    let stats = handle.join().expect("server thread").expect("server run");
    // Counter-exact accounting: every lookup miss either led an engine
    // run (responses labeled miss) or joined one (coalesced) — the
    // label tally and the cache counters must agree exactly.
    let engine_runs = labels.iter().filter(|l| *l == "miss").count() as u64;
    let joined = labels.iter().filter(|l| *l == "coalesced").count() as u64;
    assert_eq!(stats.requests, N as u64);
    assert_eq!(stats.misses, engine_runs + joined);
    assert_eq!(stats.coalesced, joined);
    assert!(engine_runs >= 1, "{labels:?}");
    // How many racers reach the server while the leader's engine run is
    // still going is up to thread scheduling, so the split between
    // engine runs and coalesced joins is not asserted here. That
    // identical concurrent misses share exactly one engine run is forced
    // in-crate by `server::tests::concurrent_identical_misses_share_exactly_one_compute`,
    // which holds its leader until every follower has joined.
}

/// Serves 5 fresh-connection `stats` requests and a `shutdown` on a
/// server bound to `bind`, whose read slice (10 s) is twice the time the
/// whole exchange may take: neither the accepts nor the stop may wait
/// on it.
fn accepts_and_stops_without_waiting_on_io_poll(bind: &str) {
    let start = Instant::now();
    let cfg = ServerConfig {
        io_poll_ms: 10_000,
        ..ServerConfig::default()
    };
    let server = Server::bind(bind, cfg).expect("bind");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    let handle = std::thread::spawn(move || server.run());
    for _ in 0..5 {
        let resp = round_trip(&addr, &Request::Stats);
        assert!(matches!(resp, Response::Stats(_)), "{resp:?}");
    }
    assert_eq!(round_trip(&addr, &Request::Shutdown), Response::Ok);
    handle.join().expect("server thread").expect("server run");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "took {took:?}");
}

#[test]
fn fresh_connections_and_shutdown_do_not_wait_on_io_poll() {
    accepts_and_stops_without_waiting_on_io_poll("127.0.0.1:0");
}

#[test]
fn shutdown_wakes_a_listener_bound_to_the_unspecified_address() {
    accepts_and_stops_without_waiting_on_io_poll("0.0.0.0:0");
}

/// Sends `stats` on `stream` and checks that a stats response comes back.
fn ask_stats(stream: &mut TcpStream) {
    stream
        .write_all(Request::Stats.render().as_bytes())
        .expect("send stats");
    let mut line = String::new();
    BufReader::new(&*stream)
        .read_line(&mut line)
        .expect("read stats");
    let resp = Response::parse(line.trim_end()).expect("parse stats");
    assert!(matches!(resp, Response::Stats(_)), "{resp:?}");
}

/// Closes the client side and waits for the server to close its side:
/// the server closes a connection only after its handler has rejoined
/// the idle handlers or exited.
fn close_and_wait(mut stream: TcpStream) {
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "unexpected bytes {rest:?}");
}

#[test]
fn handlers_past_the_idle_cap_exit_and_shutdown_wakes_every_idle_one() {
    // At most 2 handlers stay idle once their connections end (the
    // server's idle cap); holding 4 connections more than that makes
    // the handlers past the cap exit when the connections close.
    const HELD: usize = 2 + 4;
    let cfg = ServerConfig {
        io_poll_ms: 10_000,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || done_tx.send(server.run()));

    // Every held connection has been answered, so each one has its own
    // live handler at the same time.
    let mut held: Vec<TcpStream> = (0..HELD)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            ask_stats(&mut stream);
            stream
        })
        .collect();
    let control = held.remove(0);
    for stream in held {
        close_and_wait(stream);
    }

    // Fresh sequential connections after the pool shrank. Each one ends
    // with its handler idle again, so 2 handlers are idle now.
    for _ in 0..3 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        ask_stats(&mut stream);
        close_and_wait(stream);
    }

    // A shutdown on the first connection, served while 2 handlers wait
    // in accept(): the wake must chain from one to the other. A missed
    // handler keeps run() blocked, and this fails instead of hanging.
    let mut control = control;
    control
        .write_all(Request::Shutdown.render().as_bytes())
        .expect("send shutdown");
    let mut line = String::new();
    BufReader::new(&control)
        .read_line(&mut line)
        .expect("read shutdown reply");
    assert_eq!(Response::parse(line.trim_end()), Ok(Response::Ok));
    let stats = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("run() did not return within 5 s of shutdown")
        .expect("server run");
    assert_eq!(stats.requests, 0, "stats requests are not cache lookups");
    runner
        .join()
        .expect("server thread")
        .expect("result received");
}
