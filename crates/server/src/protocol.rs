//! The server's line protocol: one flat JSON object per line, parsed
//! strictly.
//!
//! Strict means the same discipline [`ChaosPlan::parse`] and the
//! scenario spec parser follow: unknown keys, duplicate keys, wrong
//! value types and trailing garbage are all one-line errors — a
//! long-running service must never guess what a malformed request
//! meant. The parser is `ftes_bench::dist::protocol`'s `parse_object`,
//! the one the distributed runner's frames and journal use, with its
//! typed field helpers and `json_escape`, so every line format in the
//! workspace agrees.
//!
//! Requests:
//!
//! ```text
//! {"req":"optimize","scenario":"<spec>","goal":"opt","arc":20}
//! {"req":"stats"}
//! {"req":"flush"}
//! {"req":"evict","key":"<16 hex>"}
//! {"req":"shutdown"}
//! ```
//!
//! (`goal` defaults to `opt`, `arc` to 20.) Responses:
//!
//! ```text
//! {"resp":"result","cache":"mem|disk|miss|coalesced","key":"<16 hex>","engine_ms":N,
//!  "mem_hits":N,"disk_hits":N,"misses":N,"payload":"<escaped cell JSON>"}
//! {"resp":"stats","requests":N,...,"errors":N}
//! {"resp":"flushed","mem":N,"disk":N}
//! {"resp":"evicted","removed":0|1}
//! {"resp":"error","reason":"<message>"}
//! {"resp":"ok"}
//! ```
//!
//! [`ChaosPlan::parse`]: ftes_bench::ChaosPlan::parse

use ftes_bench::dist::protocol::{
    json_escape, need_int, need_str, parse_object, reject_unknown, take_int, take_str,
};
use ftes_bench::Strategy;

use crate::cache::CacheStats;

/// Which strategies an `optimize` request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Goal {
    /// Minimum hardening only.
    Min,
    /// Maximum hardening only.
    Max,
    /// The paper's optimization only.
    Opt,
    /// All three strategies (the batch binaries' behaviour).
    All,
}

impl Goal {
    /// Wire label, also part of the cache key.
    pub fn label(self) -> &'static str {
        match self {
            Goal::Min => "min",
            Goal::Max => "max",
            Goal::Opt => "opt",
            Goal::All => "all",
        }
    }

    /// Parses a wire label.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted labels.
    pub fn parse(s: &str) -> Result<Goal, String> {
        match s {
            "min" => Ok(Goal::Min),
            "max" => Ok(Goal::Max),
            "opt" => Ok(Goal::Opt),
            "all" => Ok(Goal::All),
            other => Err(format!(
                "unknown goal {other:?} (expected min, max, opt or all)"
            )),
        }
    }

    /// The strategy set the engine runs for this goal.
    pub fn strategies(self) -> &'static [Strategy] {
        match self {
            Goal::Min => &[Strategy::Min],
            Goal::Max => &[Strategy::Max],
            Goal::Opt => &[Strategy::Opt],
            Goal::All => &Strategy::ALL,
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or answer from cache) one scenario under one goal.
    Optimize {
        /// The scenario spec, as sent (canonicalized by the server).
        scenario: String,
        /// Strategy set to run.
        goal: Goal,
        /// Acceptance threshold (ArC cost units) for the rendered cell.
        arc: u64,
    },
    /// Report the cache counters.
    Stats,
    /// Drop every cached entry from both tiers (admin).
    Flush,
    /// Drop one cached entry from both tiers (admin).
    Evict {
        /// The content address to drop.
        key: u64,
    },
    /// Acknowledge, then stop accepting connections and exit.
    Shutdown,
}

/// One parsed response line (what the client sees).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// An `optimize` answer.
    Result {
        /// How the request was served: `mem`/`disk` (cache hit), `miss`
        /// (engine run) or `coalesced` (joined another request's
        /// in-flight engine run).
        cache: String,
        /// The content address, 16 hex digits.
        key: String,
        /// Engine wall time (0 on a cache hit or a coalesced join).
        engine_ms: u64,
        /// Always `None`: never rendered, and a `donor` key is rejected
        /// on parse. Kept only because the benchmark package
        /// (`perfbench/`) sets it.
        #[doc(hidden)]
        donor: Option<String>,
        /// Running memory-hit counter after this request.
        mem_hits: u64,
        /// Running disk-hit counter after this request.
        disk_hits: u64,
        /// Running miss counter after this request.
        misses: u64,
        /// The rendered cell JSON (deterministic bytes).
        payload: String,
    },
    /// A `stats` answer.
    Stats(CacheStats),
    /// A `flush` acknowledgement.
    Flushed {
        /// Entries dropped from the memory tier.
        mem: u64,
        /// Entries removed from the disk tier.
        disk: u64,
    },
    /// An `evict` acknowledgement.
    Evicted {
        /// Whether the key was resident in either tier.
        removed: bool,
    },
    /// A rejected request.
    Error(
        /// Why the request was rejected.
        String,
    ),
    /// A `shutdown` acknowledgement.
    Ok,
}

impl Request {
    /// Parses one request line, strictly.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first problem; the server
    /// sends it back verbatim as an `error` response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut fields = parse_object(line)?;
        let req = take_str(&mut fields, "req")?
            .ok_or_else(|| "request is missing the \"req\" key".to_string())?;
        match req.as_str() {
            "optimize" => {
                let scenario = take_str(&mut fields, "scenario")?
                    .ok_or_else(|| "\"optimize\" request is missing \"scenario\"".to_string())?;
                let goal = match take_str(&mut fields, "goal")? {
                    Some(g) => Goal::parse(&g)?,
                    None => Goal::Opt,
                };
                let arc = take_int(&mut fields, "arc")?.unwrap_or(20);
                reject_unknown(&fields, "optimize")?;
                Ok(Request::Optimize {
                    scenario,
                    goal,
                    arc,
                })
            }
            "stats" => {
                reject_unknown(&fields, "stats")?;
                Ok(Request::Stats)
            }
            "flush" => {
                reject_unknown(&fields, "flush")?;
                Ok(Request::Flush)
            }
            "evict" => {
                let key = take_str(&mut fields, "key")?
                    .ok_or_else(|| "\"evict\" request is missing \"key\"".to_string())?;
                let key = parse_key(&key)?;
                reject_unknown(&fields, "evict")?;
                Ok(Request::Evict { key })
            }
            "shutdown" => {
                reject_unknown(&fields, "shutdown")?;
                Ok(Request::Shutdown)
            }
            other => Err(format!(
                "unknown request {other:?} (expected optimize, stats, flush, evict or shutdown)"
            )),
        }
    }

    /// Renders the request as one line (used by the client).
    pub fn render(&self) -> String {
        match self {
            Request::Optimize {
                scenario,
                goal,
                arc,
            } => format!(
                "{{\"req\":\"optimize\",\"scenario\":\"{}\",\"goal\":\"{}\",\"arc\":{arc}}}\n",
                json_escape(scenario),
                goal.label(),
            ),
            Request::Stats => "{\"req\":\"stats\"}\n".to_string(),
            Request::Flush => "{\"req\":\"flush\"}\n".to_string(),
            Request::Evict { key } => format!("{{\"req\":\"evict\",\"key\":\"{key:016x}\"}}\n"),
            Request::Shutdown => "{\"req\":\"shutdown\"}\n".to_string(),
        }
    }
}

/// Parses a content address: exactly 16 lowercase hex digits, the same
/// format the `result` response and the disk-tier filenames use.
pub fn parse_key(s: &str) -> Result<u64, String> {
    let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
    if s.len() == 16 && s.bytes().all(lower_hex) {
        Ok(u64::from_str_radix(s, 16).expect("validated hex"))
    } else {
        Err(format!(
            "cache key {s:?} must be exactly 16 lowercase hex digits"
        ))
    }
}

impl Response {
    /// Renders the response as one line (used by the server).
    pub fn render(&self) -> String {
        match self {
            Response::Result {
                cache,
                key,
                engine_ms,
                mem_hits,
                disk_hits,
                misses,
                payload,
                ..
            } => format!(
                "{{\"resp\":\"result\",\"cache\":\"{}\",\"key\":\"{}\",\"engine_ms\":{engine_ms},\
                 \"mem_hits\":{mem_hits},\"disk_hits\":{disk_hits},\"misses\":{misses},\
                 \"payload\":\"{}\"}}\n",
                json_escape(cache),
                json_escape(key),
                json_escape(payload),
            ),
            Response::Stats(s) => {
                let mut s = *s;
                let mut line = String::from("{\"resp\":\"stats\"");
                for (name, value) in s.counters() {
                    line.push_str(&format!(",\"{name}\":{value}"));
                }
                line.push_str("}\n");
                line
            }
            Response::Flushed { mem, disk } => {
                format!("{{\"resp\":\"flushed\",\"mem\":{mem},\"disk\":{disk}}}\n")
            }
            Response::Evicted { removed } => {
                format!("{{\"resp\":\"evicted\",\"removed\":{}}}\n", *removed as u64)
            }
            Response::Error(reason) => {
                format!(
                    "{{\"resp\":\"error\",\"reason\":\"{}\"}}\n",
                    json_escape(reason)
                )
            }
            Response::Ok => "{\"resp\":\"ok\"}\n".to_string(),
        }
    }

    /// Parses one response line (used by the client), as strictly as
    /// the server parses requests.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first problem.
    pub fn parse(line: &str) -> Result<Response, String> {
        let mut fields = parse_object(line)?;
        let resp = take_str(&mut fields, "resp")?
            .ok_or_else(|| "response is missing the \"resp\" key".to_string())?;
        match resp.as_str() {
            "result" => {
                let resp = Response::Result {
                    cache: need_str(&mut fields, "cache")?,
                    key: need_str(&mut fields, "key")?,
                    engine_ms: need_int(&mut fields, "engine_ms")?,
                    donor: None,
                    mem_hits: need_int(&mut fields, "mem_hits")?,
                    disk_hits: need_int(&mut fields, "disk_hits")?,
                    misses: need_int(&mut fields, "misses")?,
                    payload: need_str(&mut fields, "payload")?,
                };
                reject_unknown(&fields, "result")?;
                Ok(resp)
            }
            "stats" => {
                let mut stats = CacheStats::default();
                for (name, slot) in stats.counters() {
                    *slot = need_int(&mut fields, name)?;
                }
                reject_unknown(&fields, "stats")?;
                Ok(Response::Stats(stats))
            }
            "flushed" => {
                let resp = Response::Flushed {
                    mem: need_int(&mut fields, "mem")?,
                    disk: need_int(&mut fields, "disk")?,
                };
                reject_unknown(&fields, "flushed")?;
                Ok(resp)
            }
            "evicted" => {
                let removed = match need_int::<u64>(&mut fields, "removed")? {
                    0 => false,
                    1 => true,
                    n => return Err(format!("\"removed\" must be 0 or 1, not {n}")),
                };
                reject_unknown(&fields, "evicted")?;
                Ok(Response::Evicted { removed })
            }
            "error" => {
                let reason = need_str(&mut fields, "reason")?;
                reject_unknown(&fields, "error")?;
                Ok(Response::Error(reason))
            }
            "ok" => {
                reject_unknown(&fields, "ok")?;
                Ok(Response::Ok)
            }
            other => Err(format!("unknown response {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_render_and_parse() {
        let reqs = [
            Request::Optimize {
                scenario: "apps=2;bus=tdma:500".to_string(),
                goal: Goal::All,
                arc: 25,
            },
            Request::Optimize {
                scenario: "spec with \"quotes\"\nand newline".to_string(),
                goal: Goal::Min,
                arc: 0,
            },
            Request::Stats,
            Request::Flush,
            Request::Evict {
                key: 0x00ff_abcd_00ff_abcd,
            },
            Request::Evict { key: 0 },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.render();
            assert_eq!(Request::parse(line.trim_end()).unwrap(), req, "{line:?}");
        }
    }

    #[test]
    fn evict_keys_must_be_exactly_sixteen_lowercase_hex_digits() {
        for line in [
            "{\"req\":\"evict\"}",
            "{\"req\":\"evict\",\"key\":\"abc\"}",
            "{\"req\":\"evict\",\"key\":\"00FFABCD00FFABCD\"}",
            "{\"req\":\"evict\",\"key\":\"00ffabcd00ffabcg\"}",
            "{\"req\":\"evict\",\"key\":\"00ffabcd00ffabcd0\"}",
            "{\"req\":\"evict\",\"key\":7}",
        ] {
            assert!(Request::parse(line).is_err(), "{line:?} accepted");
        }
        assert_eq!(
            Request::parse("{\"req\":\"evict\",\"key\":\"00000000000000ff\"}").unwrap(),
            Request::Evict { key: 0xff }
        );
    }

    #[test]
    fn optimize_defaults_goal_and_arc() {
        assert_eq!(
            Request::parse("{\"req\":\"optimize\",\"scenario\":\"\"}").unwrap(),
            Request::Optimize {
                scenario: String::new(),
                goal: Goal::Opt,
                arc: 20,
            }
        );
    }

    #[test]
    fn whitespace_and_key_order_are_immaterial() {
        let canonical = Request::parse("{\"req\":\"optimize\",\"scenario\":\"x\"}").unwrap();
        for line in [
            "  { \"scenario\" : \"x\" , \"req\" : \"optimize\" }  ",
            "{\"scenario\":\"x\",\"req\":\"optimize\"}",
        ] {
            assert_eq!(Request::parse(line).unwrap(), canonical, "{line:?}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_not_defaulted() {
        for line in [
            // Duplicate keys — the ChaosPlan lesson applied to the wire.
            "{\"req\":\"stats\",\"req\":\"stats\"}",
            "{\"req\":\"optimize\",\"scenario\":\"x\",\"scenario\":\"y\"}",
            // Unknown keys.
            "{\"req\":\"stats\",\"bonus\":1}",
            "{\"req\":\"optimize\",\"scenario\":\"x\",\"lease\":5}",
            // Wrong types.
            "{\"req\":\"optimize\",\"scenario\":7}",
            "{\"req\":\"optimize\",\"scenario\":\"x\",\"arc\":\"20\"}",
            // Unknown request / goal.
            "{\"req\":\"explode\"}",
            "{\"req\":\"optimize\",\"scenario\":\"x\",\"goal\":\"best\"}",
            // Structural garbage.
            "",
            "stats",
            "{\"req\":\"stats\"} extra",
            "{\"req\":\"stats\"",
            "{\"req\":}",
            "{\"req\":\"optimize\"}",
        ] {
            assert!(Request::parse(line).is_err(), "{line:?} accepted");
        }
    }

    #[test]
    fn responses_round_trip_through_render_and_parse() {
        // Distinct values, so two swapped counters cannot round-trip
        // unnoticed; the exact line pins the wire order.
        let stats = CacheStats {
            requests: 101,
            mem_hits: 102,
            disk_hits: 103,
            misses: 104,
            disk_writes: 105,
            mem_evictions: 106,
            mem_entries: 107,
            coalesced: 108,
            disk_evictions: 110,
            errors: 111,
            admin_flushes: 112,
            admin_evictions: 113,
            ..CacheStats::default()
        };
        assert_eq!(
            Response::Stats(stats).render(),
            "{\"resp\":\"stats\",\"requests\":101,\"mem_hits\":102,\"disk_hits\":103,\
             \"misses\":104,\"disk_writes\":105,\"mem_evictions\":106,\"mem_entries\":107,\
             \"coalesced\":108,\"disk_evictions\":110,\
             \"admin_flushes\":112,\"admin_evictions\":113,\"errors\":111}\n"
        );
        let resps = [
            Response::Result {
                cache: "disk".to_string(),
                key: "00ffabcd00ffabcd".to_string(),
                engine_ms: 1234,
                donor: None,
                mem_hits: 1,
                disk_hits: 2,
                misses: 3,
                payload: "{\n  \"cell\": 1\n}".to_string(),
            },
            Response::Result {
                cache: "coalesced".to_string(),
                key: "00ffabcd00ffabcd".to_string(),
                engine_ms: 0,
                donor: None,
                mem_hits: 1,
                disk_hits: 2,
                misses: 3,
                payload: "{}".to_string(),
            },
            Response::Stats(stats),
            Response::Flushed { mem: 4, disk: 9 },
            Response::Evicted { removed: true },
            Response::Evicted { removed: false },
            Response::Error("spec key \"apps\" has invalid value \"x\"".to_string()),
            Response::Ok,
        ];
        for resp in resps {
            let line = resp.render();
            assert!(
                line.ends_with('\n') && !line.trim_end().contains('\n'),
                "{line:?}"
            );
            assert_eq!(Response::parse(line.trim_end()).unwrap(), resp, "{line:?}");
        }
    }

    #[test]
    fn result_lines_with_a_donor_key_are_rejected() {
        let line = "{\"resp\":\"result\",\"cache\":\"miss\",\"key\":\"00ffabcd00ffabcd\",\
                    \"engine_ms\":77,\"donor\":\"1234567890abcdef\",\"mem_hits\":1,\
                    \"disk_hits\":2,\"misses\":3,\"payload\":\"{}\"}";
        let err = Response::parse(line).unwrap_err();
        assert!(err.contains("\"donor\""), "{err}");
        // The same line without the key parses.
        let line = line.replace("\"donor\":\"1234567890abcdef\",", "");
        assert!(matches!(
            Response::parse(&line),
            Ok(Response::Result { donor: None, .. })
        ));
    }
}
