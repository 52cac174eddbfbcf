//! `serve`: an in-process `Server` on loopback with `ServerConfig`'s
//! defaults except two capacities — a memory tier smaller than the hot
//! key set, and a disk tier in a fresh directory. One client thread runs
//! a closed loop with a fresh connection per request, as
//! `repro_serve --client` does, over a seeded mix of zipf-skewed repeats
//! (memory and disk hits), near-misses on goal or ArC (warm starts) and
//! new scenario seeds (cold misses).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use ftes_bench::dist::protocol::fnv64;
use ftes_bench::matrix::CellSeeds;
use ftes_gen::Scenario;
use ftes_server::cache::EntryMeta;
use ftes_server::{
    cache_key, CacheStats, CacheTier, Goal, Request, Response, ResultCache, Server, ServerConfig,
    ENGINE_VERSION,
};

use crate::env::{Context, Rng};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Hot keys, filled at set-up.
const HOT: usize = 32;
/// Memory-tier capacity: half the hot set, so repeats also hit disk.
const MEM_CAP: usize = 16;
/// Each block of [`BLOCK_LEN`] requests holds exactly this many of each kind,
/// in a seeded order: 85% repeats, 10% near-misses, 5% new.
const BLOCK: [(Kind, usize); 3] = [(Kind::Repeat, 17), (Kind::Near, 2), (Kind::New, 1)];
const BLOCK_LEN: u64 = 20;
/// Zipf exponent of the repeats' popularity over the hot keys.
const ZIPF_S: f64 = 1.0;
const SETUP_REPS: usize = 15;
/// Measured requests whose label and cache counts a traced run reports
/// (a fixed prefix, so the counts repeat exactly for a seed).
const COUNT_PREFIX: u64 = 600;
/// Persistent-connection hits timed by a traced run.
const PERSIST_HITS: usize = 64;
const IO_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A hot key again: a memory or disk hit.
    Repeat,
    /// A hot key's scenario under another goal or ArC: a warm start.
    Near,
    /// A scenario with a fresh seed: a cold miss.
    New,
}

impl Kind {
    fn expected(self, label: &str) -> bool {
        match self {
            Kind::Repeat => label == "mem" || label == "disk",
            // A donor whose design was infeasible carries no seeds, so
            // its near-misses run cold.
            Kind::Near => label == "warm" || label == "miss",
            Kind::New => label == "miss",
        }
    }
}

/// One optimize request of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub kind: Kind,
    /// Canonical scenario spec.
    pub spec: String,
    pub goal: Goal,
    pub arc: u64,
}

impl Req {
    pub fn line(&self) -> String {
        Request::Optimize {
            scenario: self.spec.clone(),
            goal: self.goal,
            arc: self.arc,
        }
        .render()
    }

    pub fn key(&self) -> u64 {
        cache_key(&self.spec, self.goal.label(), self.arc, ENGINE_VERSION)
    }
}

/// The seeded request mix: the hot set and every later request, each a
/// pure function of the seed and its position. Hot keys and new
/// scenarios ask for MAX and near-misses alternate MAX and MIN: an OPT
/// design's time spans three decades between instances, which would make
/// the request tail a draw over a few dozen misses per run.
#[derive(Debug, Clone)]
pub struct Mix {
    seed: u64,
    hot: Vec<Scenario>,
    zipf_cdf: Vec<f64>,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        // Hot scenarios: v2-matrix cells spread evenly over the matrix
        // (every axis value appears), one application each, seeded.
        let cells = crate::sweep::cells(seed);
        let mut rng = Rng::stream(seed, 4);
        let offset = rng.below(cells.len() as u64) as usize;
        let hot = (0..HOT)
            .map(|k| {
                let mut s = cells[(offset + k * cells.len() / HOT) % cells.len()].clone();
                s.apps = 1;
                s.base.seed = rng.next_u64();
                s
            })
            .collect();
        let weights: Vec<f64> = (0..HOT)
            .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let zipf_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Mix {
            seed,
            hot,
            zipf_cdf,
        }
    }

    /// The set-up requests: every hot key once.
    pub fn fill(&self) -> Vec<Req> {
        self.hot.iter().map(|s| hot_req(s, Kind::Repeat)).collect()
    }

    /// The `n`-th request of the measured loop.
    pub fn request(&self, n: u64) -> Req {
        let mut order = Rng::stream(self.seed ^ (n / BLOCK_LEN), 5);
        let mut slots: Vec<Kind> = BLOCK
            .iter()
            .flat_map(|&(k, c)| std::iter::repeat_n(k, c))
            .collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, order.below(i as u64 + 1) as usize);
        }
        let kind = slots[(n % BLOCK_LEN) as usize];
        let mut rng = Rng::stream(self.seed ^ n.wrapping_mul(0x9E37_79B9), 6);
        match kind {
            Kind::Repeat => {
                let u = rng.unit();
                let k = self.zipf_cdf.iter().position(|&c| u < c).unwrap_or(HOT - 1);
                hot_req(&self.hot[k], kind)
            }
            Kind::Near => {
                let base = &self.hot[rng.below(HOT as u64) as usize];
                // A goal or ArC no earlier request used: always a fresh
                // key whose scenario has a donor.
                Req {
                    kind,
                    spec: base.canonical_spec(),
                    goal: [Goal::Max, Goal::Min][(n % 2) as usize],
                    arc: 21 + n,
                }
            }
            Kind::New => {
                let mut s = self.hot[rng.below(HOT as u64) as usize].clone();
                s.base.seed = rng.next_u64();
                hot_req(&s, kind)
            }
        }
    }
}

fn hot_req(s: &Scenario, kind: Kind) -> Req {
    Req {
        kind,
        spec: s.canonical_spec(),
        goal: Goal::Max,
        arc: 20,
    }
}

/// Label counts seen by the client.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Labels {
    pub mem: u64,
    pub disk: u64,
    pub miss: u64,
    pub warm: u64,
    pub coalesced: u64,
}

impl Labels {
    pub fn add(&mut self, label: &str) -> Result<(), String> {
        match label {
            "mem" => self.mem += 1,
            "disk" => self.disk += 1,
            "miss" => self.miss += 1,
            "warm" => self.warm += 1,
            "coalesced" => self.coalesced += 1,
            other => return Err(format!("unknown cache label {other:?}")),
        }
        Ok(())
    }

    pub fn total(&self) -> u64 {
        self.mem + self.disk + self.miss + self.warm + self.coalesced
    }
}

/// The `stats` reconciliation oracle: the server's counters must match
/// the labels its client saw. Every lookup is a request; a miss that
/// ran the engine is labelled `miss` or `warm`, and one that joined an
/// in-flight run `coalesced`, so `misses` = engine runs + `coalesced`.
pub fn reconcile(s: &CacheStats, seen: &Labels) -> Result<(), String> {
    let engine_runs = seen.miss + seen.warm;
    let checks = [
        ("requests", s.requests, seen.total()),
        ("mem_hits", s.mem_hits, seen.mem),
        ("disk_hits", s.disk_hits, seen.disk),
        ("misses", s.misses, engine_runs + seen.coalesced),
        ("warm_starts", s.warm_starts, seen.warm),
        ("coalesced", s.coalesced, seen.coalesced),
        ("errors", s.errors, 0),
    ];
    let bad: Vec<String> = checks
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name} {got} (client saw {want})"))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("stats do not reconcile: {}", bad.join(", ")))
    }
}

/// One answered optimize request.
#[derive(Debug, Clone)]
struct Answer {
    label: String,
    key: String,
    engine_ms: u64,
    payload: String,
}

fn answer(resp: Response) -> Result<Answer, String> {
    match resp {
        Response::Result {
            cache,
            key,
            engine_ms,
            payload,
            ..
        } => Ok(Answer {
            label: cache,
            key,
            engine_ms,
            payload,
        }),
        Response::Error(reason) => Err(format!("error response: {reason}")),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// Reads one response line (without parsing it).
fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if line.is_empty() {
        return Err("server closed the connection without responding".to_string());
    }
    Ok(line)
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("cannot set a read timeout: {e}"))?;
    Ok(stream)
}

/// One request on a fresh connection: the response, the connect time
/// and the latency from connect to the full response line.
fn round_trip(addr: &str, line: &str) -> Result<(Response, Duration, Duration), String> {
    let t0 = Instant::now();
    let mut stream = connect(addr)?;
    let t1 = Instant::now();
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("cannot send: {e}"))?;
    let text = read_line(&mut BufReader::new(stream))?;
    let t2 = Instant::now();
    Ok((Response::parse(text.trim_end())?, t1 - t0, t2 - t0))
}

/// The server's counters, from a `stats` request.
fn cache_stats(addr: &str) -> Result<CacheStats, String> {
    match round_trip(addr, &Request::Stats.render())?.0 {
        Response::Stats(stats) => Ok(stats),
        other => Err(format!("stats request answered {other:?}")),
    }
}

/// Sends `requests` in order on one persistent connection.
fn persistent(addr: &str, lines: &[String]) -> Result<Vec<(Response, Duration)>, String> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|line| {
            let t = Instant::now();
            writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("cannot send: {e}"))?;
            let line = read_line(&mut reader)?;
            Ok((Response::parse(line.trim_end())?, t.elapsed()))
        })
        .collect()
}

/// Binds a server on a fresh cache directory, runs `client` against it,
/// then shuts it down and waits for it. `client` errors still shut the
/// server down.
fn with_server<T>(dir: &Path, client: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let cfg = ServerConfig {
        mem_cap: MEM_CAP,
        cache_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg)?;
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || server.run());
        let out = client(&addr);
        let stop = round_trip(&addr, &Request::Shutdown.render());
        let ran = handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        ran?;
        match stop {
            Ok((Response::Ok, _, _)) => out,
            Ok((other, _, _)) => Err(format!("shutdown answered {other:?}")),
            Err(e) => Err(format!("shutdown failed: {e}")),
        }
    })
}

/// The set-up: fill the hot set through sequential misses on one
/// connection.
fn fill(
    addr: &str,
    mix: &Mix,
    labels: &mut Labels,
    sig: &mut Vec<u64>,
) -> Result<Vec<Answer>, String> {
    let lines: Vec<String> = mix.fill().iter().map(Req::line).collect();
    let mut answers = Vec::new();
    for (resp, _) in persistent(addr, &lines)? {
        let a = answer(resp)?;
        if a.label != "miss" {
            return Err(format!(
                "set-up request answered {:?}, expected a miss",
                a.label
            ));
        }
        labels.add(&a.label)?;
        sig.push(fnv64(a.label.as_bytes()));
        answers.push(a);
    }
    Ok(answers)
}

/// One more set-up, on a server and cache directory of its own: bind,
/// then fill. Returns its duration in seconds.
fn timed_setup(ctx: &Context, mix: &Mix) -> Result<f64, String> {
    let dir = ctx.scratch_dir("serve-setup")?;
    let t = Instant::now();
    let took = with_server(&dir, |addr| {
        fill(addr, mix, &mut Labels::default(), &mut Vec::new()).map(|_| t.elapsed())
    });
    let _ = std::fs::remove_dir_all(&dir);
    Ok(took?.as_secs_f64())
}

/// Everything the measured loop saw.
#[derive(Debug, Default)]
struct Loop {
    latency_ms: Vec<f64>,
    traced_hit_ms: Vec<f64>,
    plain_hit_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    by_label: HashMap<String, (Vec<f64>, Vec<f64>)>,
    /// Requests answered correctly.
    served: u64,
    /// The server's counters after the first [`COUNT_PREFIX`] requests.
    prefix_stats: CacheStats,
    fill: Vec<Answer>,
    requests: Vec<Req>,
    answers: Vec<Answer>,
}

pub fn run(ctx: &Context, r: &mut Report) -> Result<(), String> {
    let traced = ctx.args.trace;
    let mix = Mix::new(ctx.args.seed);
    let mut setup_s = Vec::new();
    let dir = ctx.scratch_dir("serve")?;
    let mut tracer = Tracer::new(false);
    let mut labels = Labels::default();
    let mut sig: Vec<u64> = Vec::new();
    let budget = ctx.args.budget();
    let t = Instant::now();
    let result = with_server(&dir, |addr| {
        let mut seen = Loop {
            fill: fill(addr, &mix, &mut labels, &mut sig)?,
            ..Loop::default()
        };
        setup_s.push(t.elapsed().as_secs_f64());
        let mut digests: HashMap<String, u64> = seen
            .fill
            .iter()
            .map(|a| (a.key.clone(), fnv64(a.payload.as_bytes())))
            .collect();
        let started = Instant::now();
        let mut n = 0u64;
        let mut prefix_stats = None;
        while started.elapsed() < budget || (traced && n < COUNT_PREFIX) {
            // The other set-ups are spread over the run: their median then
            // samples the host over the whole run, not in one burst.
            if setup_s.len() < SETUP_REPS
                && started.elapsed() >= budget.mul_f64(setup_s.len() as f64 / SETUP_REPS as f64)
            {
                setup_s.push(timed_setup(ctx, &mix)?);
            }
            if traced && n == COUNT_PREFIX {
                prefix_stats = Some(cache_stats(addr)?);
            }
            let req = mix.request(n);
            // Traced runs trace every other request.
            let on = traced && n.is_multiple_of(2);
            tracer.set_enabled(on);
            r.attempted += 1;
            let (resp, connect, took) = round_trip(addr, &req.line())?;
            let end = Instant::now();
            let span = tracer.record("serve.request", n, None, end - took, end);
            tracer.record("serve.connect", n, span, end - took, end - took + connect);
            tracer.set_enabled(false);
            let a = match answer(resp) {
                Ok(a) => a,
                Err(e) => {
                    r.failed += 1;
                    r.problem(format!("request {n}: {e}"));
                    sig.push(fnv64(b"error"));
                    n += 1;
                    continue;
                }
            };
            let digest = fnv64(a.payload.as_bytes());
            let problem = if *digests.entry(a.key.clone()).or_insert(digest) != digest {
                Some(format!("key {} served different bytes than before", a.key))
            } else if a.key != format!("{:016x}", req.key()) || !req.kind.expected(&a.label) {
                Some(format!(
                    "{:?} request answered {:?} for key {}",
                    req.kind, a.label, a.key
                ))
            } else {
                None
            };
            match problem {
                Some(p) => {
                    r.failed += 1;
                    r.problem(format!("request {n}: {p}"));
                }
                None => seen.served += 1,
            }
            labels.add(&a.label)?;
            sig.push(fnv64(a.label.as_bytes()));
            let ms = took.as_secs_f64() * 1e3;
            seen.latency_ms.push(ms);
            seen.connect_ms.push(connect.as_secs_f64() * 1e3);
            seen.overhead_ms.push(ms - a.engine_ms as f64);
            if req.kind == Kind::Repeat {
                if on {
                    &mut seen.traced_hit_ms
                } else {
                    &mut seen.plain_hit_ms
                }
                .push(ms);
            }
            let slot = seen.by_label.entry(a.label.clone()).or_default();
            slot.0.push(ms);
            slot.1.push(a.engine_ms as f64);
            seen.requests.push(req);
            seen.answers.push(a);
            n += 1;
        }
        while setup_s.len() < SETUP_REPS {
            setup_s.push(timed_setup(ctx, &mix)?);
        }
        let stats = cache_stats(addr)?;
        seen.prefix_stats = prefix_stats.unwrap_or(stats);
        if traced {
            let hot = mix.fill()[0].line();
            let hits = persistent(addr, &vec![hot; PERSIST_HITS])?;
            let us: Vec<f64> = hits
                .iter()
                .skip(1)
                .map(|(_, d)| d.as_secs_f64() * 1e6)
                .collect();
            r.put(
                "serve.persist_hit_us",
                median(&us),
                "us",
                format!("hits on one persistent connection, n={}", us.len()),
            );
        }
        Ok((seen, stats))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let (seen, stats) = result?;

    if let Err(e) = reconcile(&stats, &labels) {
        r.problem(e);
    }
    if let Err(e) = ctx.repeat_guard("serve", &sig) {
        r.problem(e);
    }
    let total_s: f64 = seen.latency_ms.iter().sum::<f64>() / 1e3;
    r.put(
        "throughput_per_s",
        seen.served as f64 / total_s.max(1e-9),
        "1/s",
        format!(
            "{} requests served correctly of {} answered in {total_s:.3} s, one client, fresh connection each",
            seen.served,
            seen.latency_ms.len()
        ),
    );
    r.put_latency("latency_p50_ms", "latency_p95_ms", &seen.latency_ms);
    r.put_setup(
        &setup_s,
        &format!("bind, then {HOT} sequential misses on one connection"),
    );
    r.note(format!(
        "serve: labels mem={} disk={} warm={} miss={} coalesced={} (set-up included); final stats {stats:?}",
        labels.mem, labels.disk, labels.warm, labels.miss, labels.coalesced
    ));

    if traced {
        if let Err(e) = per_layer(ctx, r, &mix, &seen, &stats) {
            r.problem(e);
        }
        let (t, p) = (median(&seen.traced_hit_ms), median(&seen.plain_hit_ms));
        r.put_overhead(
            t,
            p,
            &format!(
                "median hit latency, {} traced vs {} untraced hits",
                seen.traced_hit_ms.len(),
                seen.plain_hit_ms.len()
            ),
        );
        crate::write_spans(ctx, &tracer, r);
    }
    Ok(())
}

fn per_layer(
    ctx: &Context,
    r: &mut Report,
    mix: &Mix,
    seen: &Loop,
    stats: &CacheStats,
) -> Result<(), String> {
    let prefix = &seen.answers[..seen.answers.len().min(COUNT_PREFIX as usize)];
    for label in ["mem", "disk", "warm", "miss"] {
        let (lat, engine) = seen.by_label.get(label).cloned().unwrap_or_default();
        r.put(
            &format!("serve.lat_ms.{label}"),
            median(&lat),
            "ms",
            format!("p50, n={}", lat.len()),
        );
        let count = prefix.iter().filter(|a| a.label == label).count();
        r.put(
            &format!("serve.count.{label}"),
            count as f64,
            "count",
            format!("among the first {} measured requests", prefix.len()),
        );
        if label == "warm" || label == "miss" {
            r.put(
                &format!("serve.engine_ms.{label}"),
                median(&engine),
                "ms",
                format!("engine_ms p50, n={}", engine.len()),
            );
        }
    }
    r.put(
        "serve.overhead_ms",
        median(&seen.overhead_ms),
        "ms",
        format!("latency - engine_ms, p50, n={}", seen.overhead_ms.len()),
    );
    r.put(
        "serve.connect_ms",
        median(&seen.connect_ms),
        "ms",
        format!("p50, n={}", seen.connect_ms.len()),
    );

    let lines: Vec<String> = seen.requests.iter().map(Req::line).collect();
    let mut parse_us = Vec::new();
    for line in &lines {
        let t = Instant::now();
        let parsed = Request::parse(line.trim_end())?;
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        if parsed.render() != *line {
            return Err(format!("request line does not round-trip: {line}"));
        }
    }
    r.put(
        "protocol.parse_us",
        median(&parse_us),
        "us",
        format!("Request::parse, n={}", parse_us.len()),
    );
    let mut render_us = Vec::new();
    for a in &seen.answers {
        let resp = Response::Result {
            cache: a.label.clone(),
            key: a.key.clone(),
            engine_ms: a.engine_ms,
            donor: None,
            mem_hits: stats.mem_hits,
            disk_hits: stats.disk_hits,
            misses: stats.misses,
            payload: a.payload.clone(),
        };
        let t = Instant::now();
        std::hint::black_box(resp.render());
        render_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    r.put(
        "protocol.render_us",
        median(&render_us),
        "us",
        format!("Response::render of a result, n={}", render_us.len()),
    );

    let mut spec_us = Vec::new();
    let mut gen_ms = Vec::new();
    for req in mix.fill().iter().chain(&seen.requests) {
        let t = Instant::now();
        let s = Scenario::parse_spec(&req.spec)?;
        let canonical = s.canonical_spec();
        spec_us.push(t.elapsed().as_secs_f64() * 1e6);
        if canonical != req.spec {
            return Err(format!("spec does not round-trip: {}", req.spec));
        }
        if gen_ms.len() < HOT {
            let t = Instant::now();
            std::hint::black_box(s.generate(0));
            gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    r.put(
        "gen.spec_parse_us",
        median(&spec_us),
        "us",
        format!("parse_spec + canonical_spec, n={}", spec_us.len()),
    );
    r.put(
        "gen.instance_ms",
        median(&gen_ms),
        "ms",
        format!("Scenario::generate of the hot set, n={}", gen_ms.len()),
    );

    replay_cache(ctx, r, mix, seen)?;

    let p = &seen.prefix_stats;
    let basis =
        format!("server stats after the first {COUNT_PREFIX} measured requests and the set-up");
    for (name, value) in [
        ("cache.requests", p.requests),
        ("cache.mem_hits", p.mem_hits),
        ("cache.disk_hits", p.disk_hits),
        ("cache.misses", p.misses),
        ("cache.warm_starts", p.warm_starts),
        ("cache.coalesced", p.coalesced),
        ("cache.errors", p.errors),
    ] {
        r.put(name, value as f64, "count", basis.clone());
    }
    r.put_ratio(
        "cache.hit_ratio",
        p.mem_hits + p.disk_hits,
        p.requests,
        "lookups hit memory or disk",
    );
    Ok(())
}

/// Replays the run's key trace against a standalone `ResultCache` with
/// the server's capacities: a lookup per request and a store per miss,
/// timed by the tier that answered.
fn replay_cache(ctx: &Context, r: &mut Report, mix: &Mix, seen: &Loop) -> Result<(), String> {
    let dir = ctx.scratch_dir("serve-replay")?;
    let mut cache = ResultCache::new(MEM_CAP, Some(&dir))?;
    let fill = mix.fill();
    let answers = seen.fill.iter().chain(&seen.answers);
    let (mut mem_us, mut disk_us, mut store_us) = (Vec::new(), Vec::new(), Vec::new());
    for (req, a) in fill.iter().chain(&seen.requests).zip(answers) {
        let key = req.key();
        let t = Instant::now();
        let (hit, tier) = cache.lookup(key);
        let us = t.elapsed().as_secs_f64() * 1e6;
        match (hit, tier) {
            (Some(_), CacheTier::Mem) => mem_us.push(us),
            (Some(_), _) => disk_us.push(us),
            (None, _) => {
                let meta = EntryMeta {
                    spec: req.spec.clone(),
                    goal: req.goal.label().to_string(),
                    arc: req.arc,
                    seeds: CellSeeds::default(),
                };
                let t = Instant::now();
                cache.store(key, &a.payload, &meta);
                store_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    r.put(
        "cache.lookup_us.mem",
        median(&mem_us),
        "us",
        format!("standalone replay, n={}", mem_us.len()),
    );
    r.put(
        "cache.lookup_us.disk",
        median(&disk_us),
        "us",
        format!("standalone replay, n={}", disk_us.len()),
    );
    r.put(
        "cache.store_us",
        median(&store_us),
        "us",
        format!("standalone replay, n={}", store_us.len()),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        let (a, b) = (Mix::new(11), Mix::new(11));
        assert_eq!(a.fill(), b.fill());
        let run = |m: &Mix| (0..400).map(|n| m.request(n)).collect::<Vec<_>>();
        assert_eq!(run(&a), run(&b));
        assert_ne!(run(&a), run(&Mix::new(12)));
    }

    #[test]
    fn every_block_holds_the_stated_shares() {
        let m = Mix::new(3);
        for block in 0..10u64 {
            let kinds: Vec<Kind> = (0..BLOCK_LEN)
                .map(|i| m.request(block * BLOCK_LEN + i).kind)
                .collect();
            for (kind, want) in BLOCK {
                assert_eq!(kinds.iter().filter(|k| **k == kind).count(), want);
            }
        }
        let hot: Vec<u64> = m.fill().iter().map(Req::key).collect();
        for n in 0..200 {
            let q = m.request(n);
            let known = hot.contains(&q.key());
            assert_eq!(known, q.kind == Kind::Repeat, "request {n}: {:?}", q.kind);
            assert!(Scenario::parse_spec(&q.spec).is_ok());
        }
    }

    #[test]
    fn stats_reconcile_with_the_client_labels() {
        let seen = Labels {
            mem: 5,
            disk: 3,
            miss: 2,
            warm: 1,
            coalesced: 1,
        };
        let stats = CacheStats {
            requests: 12,
            mem_hits: 5,
            disk_hits: 3,
            misses: 4,
            warm_starts: 1,
            coalesced: 1,
            ..CacheStats::default()
        };
        assert_eq!(reconcile(&stats, &seen), Ok(()));
        for broken in [
            CacheStats {
                requests: 11,
                ..stats
            },
            CacheStats {
                mem_hits: 4,
                disk_hits: 4,
                ..stats
            },
            CacheStats { misses: 3, ..stats },
            CacheStats {
                warm_starts: 0,
                ..stats
            },
            CacheStats { errors: 1, ..stats },
        ] {
            assert!(reconcile(&broken, &seen).is_err(), "{broken:?}");
        }
        let mut l = Labels::default();
        assert!(l.add("mem").is_ok() && l.add("bogus").is_err());
        assert_eq!(l.total(), 1);
    }
}
