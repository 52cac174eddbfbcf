//! Wire protocol of the distributed matrix runner.
//!
//! Frames are **line-delimited flat JSON objects** over TCP — one frame
//! per `\n`-terminated line, no nesting (a cell's rendered JSON travels
//! as an *escaped string* payload), hand-rendered and hand-parsed like
//! the shard-merge tooling in [`crate::merge`] (std-only, per the
//! real-deps constraint). Every `result` frame carries an FNV-1a
//! checksum of its payload so a corrupted or truncated frame is detected
//! before its bytes can reach the merged document.
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

    /// Parses one wire line (with or without the trailing `\n`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem — an
    /// unknown frame kind, a missing or malformed field, a bad escape.
    /// Corrupted frames land here; the caller treats that as a faulty
    /// result, never as data.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let line = line.trim_end_matches(['\n', '\r']);
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err("frame line is not a braced JSON object".to_string());
        }
        let kind = str_field(line, "frame")?;
        match kind.as_str() {
            "hello" => Ok(Frame::Hello {
                proto: num_field(line, "proto")?,
                name: str_field(line, "name")?,
                fingerprint: str_field(line, "fingerprint")?,
            }),
            "welcome" => Ok(Frame::Welcome {
                proto: num_field(line, "proto")?,
                worker: num_field(line, "worker")?,
                epoch: num_field(line, "epoch")?,
            }),
            "reject" => Ok(Frame::Reject {
                reason: str_field(line, "reason")?,
            }),
            "lease" => Ok(Frame::Lease {
                lease: num_field(line, "lease")?,
                cell: num_field(line, "cell")?,
                deadline_ms: num_field(line, "deadline_ms")?,
            }),
            "result" => Ok(Frame::Result {
                lease: num_field(line, "lease")?,
                cell: num_field(line, "cell")?,
                epoch: num_field(line, "epoch")?,
                crc: str_field(line, "crc")?,
                payload: str_field(line, "payload")?,
            }),
            "ping" => Ok(Frame::Ping),
            "shutdown" => Ok(Frame::Shutdown),
            "bye" => Ok(Frame::Bye),
            other => Err(format!("unknown frame kind {other:?}")),
        }
    }
}

/// Extracts a number field from a flat frame line (shared with the
/// journal's checksummed records, which use the same flat-JSON idiom).
pub(super) fn num_field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("missing frame field {key:?}"))?;
    let rest = &line[at + pat.len()..];
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| format!("unterminated frame field {key:?}"))?;
    rest[..end]
        .trim()
        .parse()
        .map_err(|_| format!("frame field {key:?} is not a number"))
}

/// Extracts and unescapes a string field from a flat frame line (shared
/// with the journal's checksummed records).
pub(super) fn str_field(line: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\":\"");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("missing frame field {key:?}"))?;
    let rest = &line[at + pat.len()..];
    // Scan to the closing unescaped quote.
    let mut end = None;
    let mut escaped = false;
    for (i, b) in rest.bytes().enumerate() {
        if escaped {
            escaped = false;
        } else if b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            end = Some(i);
            break;
        }
    }
    let end = end.ok_or_else(|| format!("unterminated string field {key:?}"))?;
    json_unescape(&rest[..end])
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
