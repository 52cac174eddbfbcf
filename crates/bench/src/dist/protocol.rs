//! Wire protocol of the distributed matrix runner.
//!
//! Frames are **line-delimited flat JSON objects** over TCP — one frame
//! per `\n`-terminated line, no nesting (a cell's rendered JSON travels
//! as an *escaped string* payload), hand-rendered (std-only, per the
//! real-deps constraint). Every `result` frame carries an FNV-1a
//! checksum of its payload so a corrupted or truncated frame is detected
//! before its bytes can reach the merged document.
//!
//! This module also holds the workspace's one flat-JSON line parser,
//! [`parse_object`], and its typed field helpers. Frames, the
//! coordinator's journal records ([`super::journal`]), and the server's
//! requests, responses and cache-entry headers all go through it, so
//! every line format rejects duplicate, unknown, missing and mistyped
//! keys and trailing garbage the same way.
//!
//! ```text
//! worker → coordinator
//!   {"frame":"hello","proto":3,"name":"w1","fingerprint":"<hex>"}
//!   {"frame":"result","lease":7,"cell":12,"epoch":1,"crc":"<hex>","payload":"<escaped cell JSON>"}
//!   {"frame":"bye"}
//! coordinator → worker
//!   {"frame":"welcome","proto":3,"worker":3,"epoch":1}
//!   {"frame":"reject","reason":"<escaped text>"}
//!   {"frame":"lease","lease":7,"cell":12,"deadline_ms":30000}
//!   {"frame":"ping"}
//!   {"frame":"shutdown"}
//! ```
//!
//! The `fingerprint` hashes everything both sides must agree on for the
//! cell indices in leases to mean the same work (cell labels, strategy
//! set, acceptance threshold, timing rendering), so a worker launched
//! with mismatched matrix flags is rejected instead of silently
//! computing the wrong cells.
//!
//! The `epoch` identifies one coordinator *life*: a coordinator resumed
//! from a crash-recovery journal announces a fresh epoch in its
//! `welcome`, workers stamp every `result` with the epoch they
//! registered under, and the coordinator drops results from any other
//! epoch — a lease granted by a previous (dead) life can never be
//! double-emitted into the resumed run's artifact.

use std::io::{ErrorKind, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Protocol version; bumped on any incompatible frame change (v2 added
/// the `ping` keepalive, which a v1 worker would treat as a lost
/// connection; v3 added the run `epoch` to `welcome` and `result` for
/// crash-safe coordinator resume — a v2 result has no epoch and would
/// be indistinguishable from a stale previous-life send).
pub const PROTO_VERSION: u32 = 3;

/// One parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Worker registration: name plus the matrix fingerprint.
    Hello {
        /// Protocol version the worker speaks.
        proto: u32,
        /// Human-readable worker name (progress lines, stats).
        name: String,
        /// Matrix fingerprint (see [`matrix_fingerprint`]).
        fingerprint: String,
    },
    /// Registration accepted; `worker` is the coordinator-assigned id.
    Welcome {
        /// Protocol version the coordinator speaks.
        proto: u32,
        /// Assigned worker id.
        worker: u64,
        /// The coordinator's run epoch (1 for a fresh run, +1 per
        /// journal resume); the worker stamps its results with it.
        epoch: u64,
    },
    /// Registration refused (fingerprint/version mismatch); terminal.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// A cell lease: compute `cell` and report back within `deadline_ms`.
    Lease {
        /// Lease id (unique per coordinator run).
        lease: u64,
        /// Index into the shared cell list.
        cell: usize,
        /// Deadline hint in milliseconds (the coordinator enforces it).
        deadline_ms: u64,
    },
    /// A completed cell: the rendered cell JSON plus its checksum.
    Result {
        /// The lease this result answers.
        lease: u64,
        /// The cell index the payload belongs to.
        cell: usize,
        /// The epoch the worker registered under; results from any
        /// other coordinator life are dropped as stale.
        epoch: u64,
        /// FNV-1a-64 of the payload bytes, lowercase hex.
        crc: String,
        /// The rendered cell JSON (unescaped).
        payload: String,
    },
    /// Coordinator keepalive to an idle worker: no work right now, but
    /// the connection is alive — resets the worker's idle clock so a
    /// worker starved of leases (all cells leased elsewhere) does not
    /// reconnect-loop through its `idle_ms` guard.
    Ping,
    /// Coordinator: all cells are done — drain and exit.
    Shutdown,
    /// Worker: graceful goodbye after a shutdown drain.
    Bye,
}

impl Frame {
    /// Renders the frame as its wire line (trailing `\n` included).
    pub fn render(&self) -> String {
        match self {
            Frame::Hello {
                proto,
                name,
                fingerprint,
            } => format!(
                "{{\"frame\":\"hello\",\"proto\":{proto},\"name\":\"{}\",\"fingerprint\":\"{}\"}}\n",
                json_escape(name),
                json_escape(fingerprint)
            ),
            Frame::Welcome {
                proto,
                worker,
                epoch,
            } => format!(
                "{{\"frame\":\"welcome\",\"proto\":{proto},\"worker\":{worker},\"epoch\":{epoch}}}\n"
            ),
            Frame::Reject { reason } => format!(
                "{{\"frame\":\"reject\",\"reason\":\"{}\"}}\n",
                json_escape(reason)
            ),
            Frame::Lease {
                lease,
                cell,
                deadline_ms,
            } => format!(
                "{{\"frame\":\"lease\",\"lease\":{lease},\"cell\":{cell},\"deadline_ms\":{deadline_ms}}}\n"
            ),
            Frame::Result {
                lease,
                cell,
                epoch,
                crc,
                payload,
            } => format!(
                "{{\"frame\":\"result\",\"lease\":{lease},\"cell\":{cell},\"epoch\":{epoch},\"crc\":\"{}\",\"payload\":\"{}\"}}\n",
                json_escape(crc),
                json_escape(payload)
            ),
            Frame::Ping => "{\"frame\":\"ping\"}\n".to_string(),
            Frame::Shutdown => "{\"frame\":\"shutdown\"}\n".to_string(),
            Frame::Bye => "{\"frame\":\"bye\"}\n".to_string(),
        }
    }

    /// Parses one wire line (with or without the trailing `\n`),
    /// strictly: see [`parse_object`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem — a structural error,
    /// an unknown frame kind, a missing, duplicate, unknown or
    /// out-of-range field, a bad escape. Corrupted frames land here;
    /// the caller treats that as a faulty result, never as data.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let mut f = parse_object(line)?;
        let kind = need_str(&mut f, "frame")?;
        let frame = match kind.as_str() {
            "hello" => Frame::Hello {
                proto: need_int(&mut f, "proto")?,
                name: need_str(&mut f, "name")?,
                fingerprint: need_str(&mut f, "fingerprint")?,
            },
            "welcome" => Frame::Welcome {
                proto: need_int(&mut f, "proto")?,
                worker: need_int(&mut f, "worker")?,
                epoch: need_int(&mut f, "epoch")?,
            },
            "reject" => Frame::Reject {
                reason: need_str(&mut f, "reason")?,
            },
            "lease" => Frame::Lease {
                lease: need_int(&mut f, "lease")?,
                cell: need_int(&mut f, "cell")?,
                deadline_ms: need_int(&mut f, "deadline_ms")?,
            },
            "result" => Frame::Result {
                lease: need_int(&mut f, "lease")?,
                cell: need_int(&mut f, "cell")?,
                epoch: need_int(&mut f, "epoch")?,
                crc: need_str(&mut f, "crc")?,
                payload: need_str(&mut f, "payload")?,
            },
            "ping" => Frame::Ping,
            "shutdown" => Frame::Shutdown,
            "bye" => Frame::Bye,
            other => return Err(format!("unknown frame kind {other:?}")),
        };
        reject_unknown(&f, &kind)?;
        Ok(frame)
    }
}

/// A parsed flat-JSON value: every line format in the workspace uses
/// only strings and unsigned integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A string, unescaped.
    Str(String),
    /// An unsigned integer that fits in a `u64`.
    Int(u64),
}

/// The fields of one parsed line, in line order.
pub type Fields = Vec<(String, Value)>;

/// Parses one line as a flat JSON object, strictly: `{"k":v,...}` with
/// string or unsigned-integer values, no nesting, no duplicate keys, no
/// trailing garbage (surrounding whitespace, the line's own `\n`
/// included, is allowed). The typed `take_*`/`need_*` helpers consume
/// the fields and [`reject_unknown`] rejects whatever is left over.
/// Errors are one-line descriptions of the first problem.
pub fn parse_object(line: &str) -> Result<Fields, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let eat = |i: &mut usize, c: u8| -> Result<(), String> {
        if bytes.get(*i) == Some(&c) {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *i))
        }
    };
    let string = |i: &mut usize| -> Result<String, String> {
        eat(i, b'"')?;
        let start = *i;
        while *i < bytes.len() {
            match bytes[*i] {
                b'\\' => *i += 2,
                b'"' => {
                    let inner = &line[start..*i];
                    *i += 1;
                    return json_unescape(inner);
                }
                _ => *i += 1,
            }
        }
        Err("unterminated string".to_string())
    };
    let int = |i: &mut usize| -> Result<u64, String> {
        let start = *i;
        while *i < bytes.len() && bytes[*i].is_ascii_digit() {
            *i += 1;
        }
        line[start..*i]
            .parse()
            .map_err(|_| format!("invalid number at byte {start}"))
    };

    let mut fields = Fields::new();
    skip_ws(&mut i);
    eat(&mut i, b'{')?;
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'}') {
        i += 1;
    } else {
        loop {
            let key = string(&mut i)?;
            skip_ws(&mut i);
            eat(&mut i, b':')?;
            skip_ws(&mut i);
            let value = match bytes.get(i) {
                Some(b'"') => Value::Str(string(&mut i)?),
                Some(b) if b.is_ascii_digit() => Value::Int(int(&mut i)?),
                _ => {
                    return Err(format!(
                        "value of {key:?} must be a string or an unsigned integer"
                    ))
                }
            };
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            fields.push((key, value));
            skip_ws(&mut i);
            match bytes.get(i) {
                Some(b',') => {
                    i += 1;
                    skip_ws(&mut i);
                }
                Some(b'}') => {
                    i += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {i}")),
            }
        }
    }
    skip_ws(&mut i);
    if i != bytes.len() {
        return Err(format!("trailing garbage after the object at byte {i}"));
    }
    Ok(fields)
}

/// Removes `key` from `fields`, if present.
fn take(fields: &mut Fields, key: &str) -> Option<Value> {
    let pos = fields.iter().position(|(k, _)| k == key)?;
    Some(fields.remove(pos).1)
}

/// Consumes an optional string field; any other value type is an error.
pub fn take_str(fields: &mut Fields, key: &str) -> Result<Option<String>, String> {
    match take(fields, key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(Value::Int(_)) => Err(format!("{key:?} must be a string")),
    }
}

/// Consumes an optional integer field as a `T`; a string or a value
/// outside `T`'s range is an error, never a truncation.
pub fn take_int<T: TryFrom<u64>>(fields: &mut Fields, key: &str) -> Result<Option<T>, String> {
    match take(fields, key) {
        None => Ok(None),
        Some(Value::Int(n)) => T::try_from(n)
            .map(Some)
            .map_err(|_| format!("{key:?} value {n} is out of range")),
        Some(Value::Str(_)) => Err(format!("{key:?} must be an unsigned integer")),
    }
}

/// [`take_str`] for a required field.
pub fn need_str(fields: &mut Fields, key: &str) -> Result<String, String> {
    take_str(fields, key)?.ok_or_else(|| format!("missing key {key:?}"))
}

/// [`take_int`] for a required field.
pub fn need_int<T: TryFrom<u64>>(fields: &mut Fields, key: &str) -> Result<T, String> {
    take_int(fields, key)?.ok_or_else(|| format!("missing key {key:?}"))
}

/// Rejects whatever fields a line of kind `kind` did not consume.
pub fn reject_unknown(fields: &Fields, kind: &str) -> Result<(), String> {
    match fields.first() {
        None => Ok(()),
        Some((key, _)) => Err(format!("unknown key {key:?} in a {kind:?} line")),
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`json_escape`].
///
/// # Errors
///
/// Returns a description of the first invalid escape sequence (which is
/// how a corrupted payload string surfaces).
pub fn json_unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return Err("truncated \\u escape".to_string());
                }
                let code =
                    u32::from_str_radix(&hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
            }
            Some(other) => return Err(format!("invalid escape \\{other}")),
            None => return Err("dangling backslash".to_string()),
        }
    }
    Ok(out)
}

/// FNV-1a 64-bit over `bytes` — the result-payload checksum. Chosen for
/// being tiny, dependency-free and byte-order independent; it is an
/// integrity check against transport corruption, not an adversarial MAC.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The payload checksum as it travels on the wire (lowercase hex).
pub fn checksum(payload: &str) -> String {
    format!("{:016x}", fnv64(payload.as_bytes()))
}

/// Fingerprint of everything a lease's `cell` index implies: the ordered
/// cell labels, the strategy set, the acceptance threshold and whether
/// payloads include wall-clock timings. Coordinator and worker compute
/// it independently from their own flags; a mismatch is rejected at
/// registration.
pub fn matrix_fingerprint(
    cells: &[ftes_gen::Scenario],
    strategies: &[crate::Strategy],
    arc: ftes_model::Cost,
    timings: bool,
) -> String {
    let mut acc = String::new();
    acc.push_str(&format!("arc={};timings={timings};", arc.units()));
    for s in strategies {
        acc.push_str(s.label());
        acc.push(',');
    }
    acc.push(';');
    for c in cells {
        acc.push_str(&c.label());
        acc.push('\n');
    }
    format!("{:016x}", fnv64(acc.as_bytes()))
}

/// Why a frame read ended without a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// No full line arrived before the caller's deadline.
    Timeout,
    /// The peer closed the connection (EOF).
    Closed,
    /// A transport error.
    Io(String),
}

/// A line reader over a [`TcpStream`] that survives socket read
/// timeouts: partial lines accumulate across calls (a slow or hung peer
/// can stall a frame, never corrupt it) and multiple lines arriving in
/// one segment are handed out one at a time.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of a line already scanned for `\n` (avoid rescanning).
    scanned: usize,
}

impl FrameReader {
    /// A fresh reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader {
            buf: Vec::with_capacity(4096),
            scanned: 0,
        }
    }

    /// Pops the next complete line already sitting in the buffer
    /// without touching the socket — how the worker drains leases that
    /// arrived behind a `shutdown` frame.
    pub fn buffered_line(&mut self) -> Option<String> {
        self.pop_line()
    }

    /// Pops the first buffered complete line, if any.
    fn pop_line(&mut self) -> Option<String> {
        let nl = self.buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| p + self.scanned);
        match nl {
            Some(nl) => {
                let rest = self.buf.split_off(nl + 1);
                let line = std::mem::replace(&mut self.buf, rest);
                self.scanned = 0;
                Some(String::from_utf8_lossy(&line).into_owned())
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Reads until one full line is available or `deadline` passes,
    /// polling the socket in `poll`-sized read-timeout slices; `stop`
    /// is consulted between slices so the caller can abandon the wait
    /// early (e.g. the run completed elsewhere).
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] when the deadline passes (or `stop`
    /// returns true), [`RecvError::Closed`] on EOF, [`RecvError::Io`]
    /// on any other transport error.
    pub fn read_line(
        &mut self,
        stream: &mut TcpStream,
        deadline: Instant,
        poll: Duration,
        mut stop: impl FnMut() -> bool,
    ) -> Result<String, RecvError> {
        loop {
            if let Some(line) = self.pop_line() {
                return Ok(line);
            }
            if stop() || Instant::now() >= deadline {
                return Err(RecvError::Timeout);
            }
            let slice = deadline
                .saturating_duration_since(Instant::now())
                .min(poll)
                .max(Duration::from_millis(1));
            stream
                .set_read_timeout(Some(slice))
                .map_err(|e| RecvError::Io(e.to_string()))?;
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF: a final unterminated fragment is a truncated
                    // frame — surface Closed, the fragment dies with us.
                    return Err(RecvError::Closed);
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(RecvError::Io(e.to_string())),
            }
        }
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

/// Wakes a thread blocked in `accept()` on the listener bound at `addr`
/// by connecting to it and hanging up. The woken loop re-checks its
/// stop condition and drops the connection unserved. A listener bound
/// to an unspecified address (`0.0.0.0`, `[::]`) is reached through
/// loopback of the same family on the same port.
///
/// # Errors
///
/// Returns the connect error; the accept loop then stays blocked until
/// the next real connection.
pub fn wake_listener(addr: SocketAddr) -> std::io::Result<()> {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&target, Duration::from_secs(1)).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_render_and_parse() {
        let frames = [
            Frame::Hello {
                proto: 1,
                name: "w-1 \"quoted\"\n".to_string(),
                fingerprint: "00ff".to_string(),
            },
            Frame::Welcome {
                proto: 1,
                worker: 42,
                epoch: 2,
            },
            Frame::Reject {
                reason: "fingerprint mismatch: \\ and \t".to_string(),
            },
            Frame::Lease {
                lease: 7,
                cell: 12,
                deadline_ms: 30_000,
            },
            Frame::Result {
                lease: 7,
                cell: 12,
                epoch: 1,
                crc: checksum("{\n  \"x\": 1\n}"),
                payload: "{\n  \"x\": 1\n}".to_string(),
            },
            Frame::Ping,
            Frame::Shutdown,
            Frame::Bye,
        ];
        for frame in frames {
            let line = frame.render();
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            assert_eq!(Frame::parse(&line).unwrap(), frame);
        }
        // Whitespace and key order are immaterial.
        assert_eq!(
            Frame::parse(
                " { \"cell\" : 12 , \"deadline_ms\":30000,\"frame\":\"lease\",\"lease\":7 } \n"
            )
            .unwrap(),
            Frame::Lease {
                lease: 7,
                cell: 12,
                deadline_ms: 30_000,
            }
        );
    }

    #[test]
    fn malformed_frames_are_rejected_not_defaulted() {
        for line in [
            // Duplicate key: the first one must not silently win.
            "{\"frame\":\"lease\",\"lease\":1,\"lease\":9,\"cell\":0,\"deadline_ms\":5}",
            // Unknown keys, before or after the kind.
            "{\"frame\":\"bye\",\"junk\":1}",
            "{\"x\":\"y\",\"frame\":\"bye\"}",
            // A second object after the first.
            "{\"frame\":\"ping\"}{\"frame\":\"bye\"}",
            // Wrong type.
            "{\"frame\":\"lease\",\"lease\":1,\"cell\":\"3\",\"deadline_ms\":5}",
            // Out of range for the field (proto is a u32).
            "{\"frame\":\"hello\",\"proto\":4294967296,\"name\":\"w\",\"fingerprint\":\"0\"}",
            // Missing key.
            "{\"frame\":\"lease\",\"lease\":1,\"cell\":0}",
        ] {
            assert!(Frame::parse(line).is_err(), "{line:?} accepted");
        }
    }

    #[test]
    fn corrupted_frames_parse_to_errors_not_panics() {
        let good = Frame::Result {
            lease: 1,
            cell: 3,
            epoch: 1,
            crc: checksum("payload"),
            payload: "payload".to_string(),
        }
        .render();
        // Truncate at every byte boundary: never a panic, and any prefix
        // that still parses must fail the checksum contract instead.
        // (`len - 1` strips only the newline — that is a complete frame
        // by construction, since the newline is the transport delimiter,
        // not part of the frame.)
        for cut in 0..good.len() - 1 {
            if !good.is_char_boundary(cut) {
                continue;
            }
            let t = &good[..cut];
            if let Ok(Frame::Result { crc, payload, .. }) = Frame::parse(t) {
                assert_ne!(crc, checksum(&payload), "undetected truncation at {cut}");
            }
        }
        // A flipped payload byte flips the checksum.
        let flipped = good.replace(":\"payload\"}", ":\"paYload\"}");
        if let Frame::Result { crc, payload, .. } = Frame::parse(&flipped).unwrap() {
            assert_ne!(crc, checksum(&payload));
        } else {
            panic!("flip changed the frame kind");
        }
        assert!(Frame::parse("{\"frame\":\"nope\"}").is_err());
        assert!(Frame::parse("not json at all").is_err());
        assert!(Frame::parse("{\"frame\":\"lease\",\"lease\":x}").is_err());
    }

    #[test]
    fn escape_round_trips_and_rejects_bad_escapes() {
        for s in [
            "",
            "plain",
            "quotes \" backslash \\ newline \n tab \t cr \r",
            "control \u{1} \u{1f} high \u{263a}",
        ] {
            assert_eq!(json_unescape(&json_escape(s)).unwrap(), s);
        }
        assert!(json_unescape("dangling \\").is_err());
        assert!(json_unescape("\\q").is_err());
        assert!(json_unescape("\\u12").is_err());
        assert!(json_unescape("\\ud800").is_err());
    }

    #[test]
    fn fnv_is_stable_and_discriminating() {
        // Pinned reference values (FNV-1a 64 test vectors).
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"payload"), fnv64(b"paYload"));
        assert_eq!(checksum("x").len(), 16);
    }

    #[test]
    fn frame_reader_splits_lines_across_partial_reads() {
        use std::io::Write;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Two frames split awkwardly across three segments.
            s.write_all(b"{\"frame\":\"shut").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(30));
            s.write_all(b"down\"}\n{\"frame\":").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(30));
            s.write_all(b"\"bye\"}\n").unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let poll = Duration::from_millis(10);
        let a = reader
            .read_line(&mut stream, deadline, poll, || false)
            .unwrap();
        assert_eq!(Frame::parse(&a).unwrap(), Frame::Shutdown);
        let b = reader
            .read_line(&mut stream, deadline, poll, || false)
            .unwrap();
        assert_eq!(Frame::parse(&b).unwrap(), Frame::Bye);
        // Writer is done: the next read observes EOF.
        writer.join().unwrap();
        let end = reader.read_line(
            &mut stream,
            Instant::now() + Duration::from_millis(200),
            poll,
            || false,
        );
        assert_eq!(end, Err(RecvError::Closed));
    }

    #[test]
    fn wake_listener_unblocks_accept_on_an_unspecified_address() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let addr = listener.local_addr().unwrap();
        assert!(addr.ip().is_unspecified());
        let woken = std::thread::spawn(move || listener.accept().map(|(_, peer)| peer));
        wake_listener(addr).unwrap();
        let peer = woken.join().unwrap().unwrap();
        assert!(
            peer.ip().is_loopback(),
            "woken through loopback, got {peer}"
        );
    }

    #[test]
    fn frame_reader_honors_deadline_and_stop() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _quiet = TcpStream::connect(addr).unwrap(); // never writes
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new();
        let start = Instant::now();
        let out = reader.read_line(
            &mut stream,
            start + Duration::from_millis(80),
            Duration::from_millis(10),
            || false,
        );
        assert_eq!(out, Err(RecvError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(80));
        // stop() abandons the wait long before the deadline.
        let start = Instant::now();
        let out = reader.read_line(
            &mut stream,
            start + Duration::from_secs(30),
            Duration::from_millis(10),
            || true,
        );
        assert_eq!(out, Err(RecvError::Timeout));
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
