//! The `ftes-server` daemon and its line-mode client.
//!
//! ```text
//! repro_serve --listen ADDR [--addr-file PATH] [--cache-dir DIR]
//!             [--disk-cap-bytes N] [--mem-cap N] [--threads N] [--engine-slots N]
//! repro_serve --client ADDR|@PATH [--scenario SPEC] [--goal min|max|opt|all]
//!             [--arc UNITS] [--out PATH]
//! repro_serve --client ADDR|@PATH --stats
//! repro_serve --client ADDR|@PATH --flush
//! repro_serve --client ADDR|@PATH --evict KEY
//! repro_serve --client ADDR|@PATH --shutdown
//! ```
//!
//! Daemon mode binds `ADDR` (port 0 = ephemeral; `--addr-file`
//! publishes the actual address atomically, exactly like
//! `repro_matrix --serve`) and serves until a `shutdown` request.
//! `--cache-dir` enables the persistent disk tier — the same directory
//! across restarts means the same requests keep hitting —
//! and `--disk-cap-bytes` bounds its size (oldest entries swept first).
//!
//! Client mode sends one request and prints the response: for an
//! `optimize`, one metadata line on stdout
//! (`cache=<mem|disk|miss|coalesced> key=<16 hex> engine_ms=<N> ...`)
//! and the payload to `--out PATH` (or stdout when no `--out` is given) — CI
//! greps the metadata and byte-compares the payloads. `--stats` prints
//! the counters on one `name=value` line in the `stats` response's
//! order, then the derived `engine_runs = misses - coalesced` (actual
//! engine executions: every miss that did not join another request's
//! in-flight run); the daemon prints the same line when it shuts
//! down. `--flush` drops every cached entry from both tiers; `--evict
//! KEY` drops one entry by its 16-hex content address. Exit codes: 0
//! success, 1 server-side error response, 2 usage, 4 cannot connect.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;

use ftes_bench::cli::{parse_value, resolve_addr, take_value, write_addr_file};
use ftes_opt::Threads;
use ftes_server::{CacheStats, Goal, Request, Response, Server, ServerConfig};

/// The usage block printed (to stderr) with every CLI error.
const USAGE: &str = "usage: repro_serve --listen ADDR [--addr-file PATH] [--cache-dir DIR] \
     [--disk-cap-bytes N] [--mem-cap N] [--threads N] [--engine-slots N]\n       \
     repro_serve --client ADDR|@PATH [--scenario SPEC] [--goal min|max|opt|all] \
     [--arc UNITS] [--out PATH]\n       \
     repro_serve --client ADDR|@PATH --stats\n       \
     repro_serve --client ADDR|@PATH --flush\n       \
     repro_serve --client ADDR|@PATH --evict KEY\n       \
     repro_serve --client ADDR|@PATH --shutdown";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Listen {
        addr: String,
        addr_file: Option<String>,
        cache_dir: Option<String>,
        disk_cap_bytes: Option<u64>,
        mem_cap: usize,
        threads: Threads,
        engine_slots: usize,
    },
    Client {
        addr: String,
        action: ClientAction,
        out: Option<String>,
    },
}

/// What the client sends.
#[derive(Debug, Clone, PartialEq)]
enum ClientAction {
    Optimize {
        scenario: String,
        goal: Goal,
        arc: u64,
    },
    Stats,
    Flush,
    Evict {
        key: u64,
    },
    Shutdown,
}

/// Parses and validates the whole command line; the caller prints the
/// error plus [`USAGE`] and exits 2.
fn parse_cli(raw: &[String]) -> Result<Mode, String> {
    let mut listen: Option<String> = None;
    let mut client: Option<String> = None;
    let mut addr_file: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut disk_cap_bytes: Option<u64> = None;
    let mut mem_cap: usize = 256;
    let mut threads = Threads(0);
    let mut engine_slots: usize = 2;
    let mut scenario: Option<String> = None;
    let mut goal = Goal::Opt;
    let mut arc: u64 = 20;
    let mut out: Option<String> = None;
    let mut stats = false;
    let mut flush = false;
    let mut evict: Option<u64> = None;
    let mut shutdown = false;

    let mut args = raw.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(take_value(&mut args, "--listen", "host:port")?),
            "--client" => {
                client = Some(take_value(&mut args, "--client", "host:port or @path")?);
            }
            "--addr-file" => {
                addr_file = Some(take_value(&mut args, "--addr-file", "a path")?);
            }
            "--cache-dir" => {
                cache_dir = Some(take_value(&mut args, "--cache-dir", "a directory")?);
            }
            "--disk-cap-bytes" => {
                disk_cap_bytes = Some(parse_value(&mut args, "--disk-cap-bytes", "a byte count")?);
            }
            "--mem-cap" => mem_cap = parse_value(&mut args, "--mem-cap", "an entry count")?,
            "--threads" => {
                threads = Threads(parse_value(
                    &mut args,
                    "--threads",
                    "a core count (0 = all)",
                )?);
            }
            "--engine-slots" => {
                engine_slots = parse_value(&mut args, "--engine-slots", "a slot count")?;
            }
            "--scenario" => {
                scenario = Some(take_value(&mut args, "--scenario", "a scenario spec")?);
            }
            "--goal" => {
                let g = take_value(&mut args, "--goal", "min, max, opt or all")?;
                goal = Goal::parse(&g).map_err(|e| format!("--goal: {e}"))?;
            }
            "--arc" => arc = parse_value(&mut args, "--arc", "a number of cost units")?,
            "--out" => out = Some(take_value(&mut args, "--out", "a path")?),
            "--stats" => stats = true,
            "--flush" => flush = true,
            "--evict" => {
                let k = take_value(&mut args, "--evict", "a 16-hex cache key")?;
                evict = Some(ftes_server::parse_key(&k).map_err(|e| format!("--evict: {e}"))?);
            }
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }

    match (listen, client) {
        (Some(_), Some(_)) => Err("--listen and --client are mutually exclusive".to_string()),
        (None, None) => Err("one of --listen or --client is required".to_string()),
        (Some(addr), None) => {
            if scenario.is_some() || stats || flush || evict.is_some() || shutdown || out.is_some()
            {
                return Err(
                    "--scenario/--stats/--flush/--evict/--shutdown/--out are client flags \
                     (use --client)"
                        .to_string(),
                );
            }
            if disk_cap_bytes.is_some() && cache_dir.is_none() {
                return Err("--disk-cap-bytes needs --cache-dir (no disk tier to cap)".to_string());
            }
            Ok(Mode::Listen {
                addr,
                addr_file,
                cache_dir,
                disk_cap_bytes,
                mem_cap,
                threads,
                engine_slots,
            })
        }
        (None, Some(addr)) => {
            if addr_file.is_some() || cache_dir.is_some() || disk_cap_bytes.is_some() {
                return Err(
                    "--addr-file/--cache-dir/--disk-cap-bytes are daemon flags (use --listen)"
                        .to_string(),
                );
            }
            let picked = [scenario.is_some(), stats, flush, evict.is_some(), shutdown]
                .into_iter()
                .filter(|&b| b)
                .count();
            let action = match picked {
                0 => {
                    return Err(
                        "--client needs exactly one of --scenario, --stats, --flush, \
                                --evict or --shutdown"
                            .to_string(),
                    )
                }
                1 => {
                    if let Some(scenario) = scenario {
                        ClientAction::Optimize {
                            scenario,
                            goal,
                            arc,
                        }
                    } else if stats {
                        ClientAction::Stats
                    } else if flush {
                        ClientAction::Flush
                    } else if let Some(key) = evict {
                        ClientAction::Evict { key }
                    } else {
                        ClientAction::Shutdown
                    }
                }
                _ => {
                    return Err("--scenario, --stats, --flush, --evict and --shutdown are \
                                mutually exclusive"
                        .to_string())
                }
            };
            Ok(Mode::Client { addr, action, out })
        }
    }
}

fn run_listen(
    addr: &str,
    addr_file: Option<&str>,
    cache_dir: Option<&str>,
    disk_cap_bytes: Option<u64>,
    mem_cap: usize,
    threads: Threads,
    engine_slots: usize,
) -> ! {
    let cfg = ServerConfig {
        mem_cap,
        cache_dir: cache_dir.map(PathBuf::from),
        disk_cap_bytes,
        threads,
        engine_slots,
        progress: true,
        ..ServerConfig::default()
    };
    let server = Server::bind(addr, cfg).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let actual = server.local_addr();
    eprintln!(
        "serving on {actual} (cache dir: {})",
        cache_dir.unwrap_or("none — memory only"),
    );
    if let Some(path) = addr_file {
        if let Err(e) = write_addr_file(path, actual) {
            eprintln!("cannot write --addr-file {path}: {e}");
            std::process::exit(1);
        }
    }
    match server.run() {
        Ok(stats) => {
            eprintln!("shut down: {}", stats_line(stats));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// The counters as one `name=value` line, plus the derived
/// `engine_runs`: misses that coalesced onto an in-flight run never
/// reached the engine, so this is the dedup headline.
fn stats_line(mut stats: CacheStats) -> String {
    let engine_runs = stats.misses.saturating_sub(stats.coalesced);
    let mut line = String::new();
    for (name, value) in stats.counters() {
        line.push_str(&format!("{name}={value} "));
    }
    line + &format!("engine_runs={engine_runs}")
}

/// Sends one request line and reads one response line.
fn round_trip(addr: &str, request: &Request) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream
        .write_all(request.render().as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut line = String::new();
    BufReader::new(&mut stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if line.is_empty() {
        return Err("server closed the connection without responding".to_string());
    }
    Response::parse(line.trim_end())
}

fn run_client(addr_spec: &str, action: ClientAction, out: Option<&str>) -> ! {
    let addr = resolve_addr(addr_spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(4);
    });
    let request = match &action {
        ClientAction::Optimize {
            scenario,
            goal,
            arc,
        } => Request::Optimize {
            scenario: scenario.clone(),
            goal: *goal,
            arc: *arc,
        },
        ClientAction::Stats => Request::Stats,
        ClientAction::Flush => Request::Flush,
        ClientAction::Evict { key } => Request::Evict { key: *key },
        ClientAction::Shutdown => Request::Shutdown,
    };
    let response = round_trip(&addr, &request).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(4);
    });
    match response {
        Response::Result {
            cache,
            key,
            engine_ms,
            mem_hits,
            disk_hits,
            misses,
            payload,
            ..
        } => {
            println!(
                "cache={cache} key={key} engine_ms={engine_ms} \
                 mem_hits={mem_hits} disk_hits={disk_hits} misses={misses}"
            );
            match out {
                Some(path) => std::fs::write(path, &payload).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }),
                None => print!("{payload}"),
            }
            std::process::exit(0);
        }
        Response::Stats(s) => {
            println!("{}", stats_line(s));
            std::process::exit(0);
        }
        Response::Flushed { mem, disk } => {
            println!("flushed mem={mem} disk={disk}");
            std::process::exit(0);
        }
        Response::Evicted { removed } => {
            println!("evicted removed={}", removed as u64);
            std::process::exit(0);
        }
        Response::Ok => {
            println!("ok");
            std::process::exit(0);
        }
        Response::Error(reason) => {
            eprintln!("server rejected the request: {reason}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&raw) {
        Ok(Mode::Listen {
            addr,
            addr_file,
            cache_dir,
            disk_cap_bytes,
            mem_cap,
            threads,
            engine_slots,
        }) => run_listen(
            &addr,
            addr_file.as_deref(),
            cache_dir.as_deref(),
            disk_cap_bytes,
            mem_cap,
            threads,
            engine_slots,
        ),
        Ok(Mode::Client { addr, action, out }) => run_client(&addr, action, out.as_deref()),
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&raw)
    }

    #[test]
    fn stats_line_lists_every_counter_then_engine_runs() {
        let stats = CacheStats {
            requests: 20,
            mem_hits: 3,
            disk_hits: 2,
            misses: 15,
            disk_writes: 9,
            mem_evictions: 1,
            mem_entries: 8,
            coalesced: 4,
            disk_evictions: 6,
            errors: 7,
            admin_flushes: 10,
            admin_evictions: 11,
            ..CacheStats::default()
        };
        assert_eq!(
            stats_line(stats),
            "requests=20 mem_hits=3 disk_hits=2 misses=15 disk_writes=9 mem_evictions=1 \
             mem_entries=8 coalesced=4 disk_evictions=6 admin_flushes=10 \
             admin_evictions=11 errors=7 engine_runs=11"
        );
    }

    #[test]
    fn daemon_and_client_lines_parse() {
        assert_eq!(
            parse(&[
                "--listen",
                "127.0.0.1:0",
                "--addr-file",
                "a.txt",
                "--cache-dir",
                "cache",
                "--disk-cap-bytes",
                "65536",
                "--mem-cap",
                "16",
                "--threads",
                "2",
                "--engine-slots",
                "1",
            ])
            .unwrap(),
            Mode::Listen {
                addr: "127.0.0.1:0".to_string(),
                addr_file: Some("a.txt".to_string()),
                cache_dir: Some("cache".to_string()),
                disk_cap_bytes: Some(65536),
                mem_cap: 16,
                threads: Threads(2),
                engine_slots: 1,
            }
        );
        assert_eq!(
            parse(&[
                "--client",
                "@a.txt",
                "--scenario",
                "apps=1",
                "--goal",
                "min",
                "--arc",
                "25",
                "--out",
                "r.json",
            ])
            .unwrap(),
            Mode::Client {
                addr: "@a.txt".to_string(),
                action: ClientAction::Optimize {
                    scenario: "apps=1".to_string(),
                    goal: Goal::Min,
                    arc: 25,
                },
                out: Some("r.json".to_string()),
            }
        );
        assert_eq!(
            parse(&["--client", "h:1", "--stats"]).unwrap(),
            Mode::Client {
                addr: "h:1".to_string(),
                action: ClientAction::Stats,
                out: None,
            }
        );
        assert_eq!(
            parse(&["--client", "h:1", "--shutdown"]).unwrap(),
            Mode::Client {
                addr: "h:1".to_string(),
                action: ClientAction::Shutdown,
                out: None,
            }
        );
        assert_eq!(
            parse(&["--client", "h:1", "--flush"]).unwrap(),
            Mode::Client {
                addr: "h:1".to_string(),
                action: ClientAction::Flush,
                out: None,
            }
        );
        assert_eq!(
            parse(&["--client", "h:1", "--evict", "00ffabcd00ffabcd"]).unwrap(),
            Mode::Client {
                addr: "h:1".to_string(),
                action: ClientAction::Evict {
                    key: 0x00ff_abcd_00ff_abcd,
                },
                out: None,
            }
        );
    }

    #[test]
    fn missing_and_malformed_values_error_naming_the_flag() {
        for (args, flag) in [
            (&["--listen"][..], "--listen"),
            (&["--client"][..], "--client"),
            (&["--listen", "h:1", "--addr-file"][..], "--addr-file"),
            (&["--listen", "h:1", "--cache-dir"][..], "--cache-dir"),
            (
                &["--listen", "h:1", "--cache-dir", "d", "--disk-cap-bytes"][..],
                "--disk-cap-bytes",
            ),
            (
                &[
                    "--listen",
                    "h:1",
                    "--cache-dir",
                    "d",
                    "--disk-cap-bytes",
                    "much",
                ][..],
                "--disk-cap-bytes",
            ),
            (&["--listen", "h:1", "--mem-cap"][..], "--mem-cap"),
            (&["--listen", "h:1", "--mem-cap", "lots"][..], "--mem-cap"),
            (&["--listen", "h:1", "--threads", "abc"][..], "--threads"),
            (
                &["--listen", "h:1", "--engine-slots", "x"][..],
                "--engine-slots",
            ),
            (&["--client", "h:1", "--scenario"][..], "--scenario"),
            (&["--client", "h:1", "--goal", "best"][..], "--goal"),
            (&["--client", "h:1", "--arc", "q"][..], "--arc"),
            (&["--client", "h:1", "--out"][..], "--out"),
            (&["--client", "h:1", "--evict"][..], "--evict"),
            (&["--client", "h:1", "--evict", "xyz"][..], "--evict"),
            (
                &["--client", "h:1", "--evict", "00FFABCD00FFABCD"][..],
                "--evict",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn mode_conflicts_are_rejected() {
        for args in [
            &[][..],
            &["--listen", "a:1", "--client", "b:2"][..],
            &["--client", "h:1"][..],
            &["--client", "h:1", "--stats", "--shutdown"][..],
            &["--client", "h:1", "--scenario", "apps=1", "--stats"][..],
            &["--client", "h:1", "--flush", "--stats"][..],
            &["--client", "h:1", "--flush", "--evict", "0000000000000001"][..],
            &["--listen", "h:1", "--flush"][..],
            &["--listen", "h:1", "--evict", "0000000000000001"][..],
            &["--listen", "h:1", "--scenario", "apps=1"][..],
            &["--listen", "h:1", "--stats"][..],
            &["--client", "h:1", "--stats", "--cache-dir", "d"][..],
            &["--client", "h:1", "--stats", "--disk-cap-bytes", "9"][..],
            // --disk-cap-bytes without a disk tier to cap.
            &["--listen", "h:1", "--disk-cap-bytes", "9"][..],
            &["--frobnicate"][..],
        ] {
            assert!(parse(args).is_err(), "{args:?} accepted");
        }
    }
}
