//! End-to-end server tests over loopback: cache-hit semantics within
//! one process lifetime, and — the tentpole guarantee — the disk tier
//! surviving a restart with byte-identical responses.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
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

    // A different goal is a different content address — but the same
    // canonical spec, so the engine run warm-starts from the goal=opt
    // entry and reports it as the donor.
    let other = round_trip(
        &addr,
        &Request::Optimize {
            scenario: "apps=1".to_string(),
            goal: Goal::Min,
            arc: 20,
        },
    );
    let min_payload = match other {
        Response::Result {
            cache,
            key: k,
            donor,
            payload,
            ..
        } => {
            assert_eq!(cache, "warm", "near-miss request must warm-start");
            assert_ne!(k, key, "goal must be part of the key");
            assert_eq!(
                donor.as_deref(),
                Some(key.as_str()),
                "the goal=opt entry is the only possible donor"
            );
            assert!(payload.contains("\"strategies\""), "payload shape");
            payload
        }
        other => panic!("goal=min request failed: {other:?}"),
    };

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
    assert_eq!(s.warm_starts, 1, "the goal=min run was warm-started");
    assert_eq!(s.coalesced, 0);
    assert_eq!(s.errors, 0);

    // Shutdown: acknowledged, run() returns the same counters.
    assert_eq!(round_trip(&addr, &Request::Shutdown), Response::Ok);
    let final_stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(final_stats.requests, 3);
    assert_eq!(final_stats.disk_writes, 2);

    // ── Restart: a fresh process lifetime over the same cache dir. ──
    let (addr, handle) = spawn_server(&dir);
    let warm = round_trip(&addr, &optimize("apps=1"));
    let Response::Result {
        cache,
        key: key3,
        payload: payload3,
        engine_ms,
        disk_hits,
        ..
    } = warm
    else {
        panic!("post-restart request failed: {warm:?}");
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

    // Per-key determinism holds for the warm-started key too: the
    // first computed payload is what the disk tier serves forever,
    // byte-identical across the restart.
    let min_again = round_trip(
        &addr,
        &Request::Optimize {
            scenario: "apps=1".to_string(),
            goal: Goal::Min,
            arc: 20,
        },
    );
    match min_again {
        Response::Result { cache, payload, .. } => {
            assert_eq!(cache, "disk");
            assert_eq!(
                payload, min_payload,
                "warm-computed payload must replay byte-identical"
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
    // run (responses labeled miss/warm) or joined one (coalesced) —
    // the label tally and the cache counters must agree exactly.
    let engine_runs = labels
        .iter()
        .filter(|l| *l == "miss" || *l == "warm")
        .count() as u64;
    let joined = labels.iter().filter(|l| *l == "coalesced").count() as u64;
    assert_eq!(stats.requests, N as u64);
    assert_eq!(stats.misses, engine_runs + joined);
    assert_eq!(stats.coalesced, joined);
    assert!(engine_runs >= 1, "{labels:?}");
    // The slot gate caps the engine at one concurrent run; coalescing
    // means racers join it instead of queueing behind it, so a burst of
    // identical requests never runs the engine once each.
    assert!(engine_runs < N as u64, "{labels:?}");
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
