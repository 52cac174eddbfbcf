//! # ftes-server — cache-backed design-space-exploration daemon
//!
//! The batch binaries re-run the optimization engine for every request;
//! this crate turns the same engine into a long-running service in the
//! std-only discipline of `ftes_bench::dist`: a [`TcpListener`], one
//! line-delimited hand-rendered JSON object per request/response, no
//! external dependencies.
//!
//! * [`protocol`] — the strict request/response line format. Every
//!   request is a flat JSON object; unknown keys, duplicate keys and
//!   malformed values are one-line errors, never silent defaults.
//! * [`cache`] — the two-tier result cache: a segmented-LRU memory
//!   front ([`ftes_opt::SlruCache`]) over a disk filecache whose
//!   entries are written atomically (temp + rename), keyed by the
//!   FNV-1a hash of (canonical scenario spec, goal, ArC, engine
//!   version). Each disk entry is one checksummed record naming the
//!   request it answers, served only under that request's key. The
//!   disk tier survives process restarts; hit/miss/evict counters are
//!   surfaced in every response and via a `stats` request.
//! * [`server`] — reusable connection handler threads, one per open
//!   connection, over one shared cache, engine runs gated through a
//!   [`CoreBudget`](ftes_opt::CoreBudget)-derived slot pool so a burst
//!   of misses cannot oversubscribe the machine.
//!
//! The `repro_serve` binary wraps this as a daemon plus a line-mode
//! client for smokes and CI.
//!
//! [`TcpListener`]: std::net::TcpListener

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod protocol;
pub mod server;

pub use cache::{cache_key, CacheStats, CacheTier, ResultCache};
pub use protocol::{parse_key, Goal, Request, Response};
pub use server::{Server, ServerConfig};

/// Version of the optimization engine baked into cache keys: bump it
/// whenever the engine's output for a given (scenario, goal, ArC) can
/// change, so stale disk entries miss instead of serving old results.
/// Shared with the coordinator's write-ahead journal (which guards
/// resumes with it), so it lives in `ftes_bench` and is re-exported
/// here for the cache-key callers.
pub use ftes_bench::ENGINE_VERSION;
