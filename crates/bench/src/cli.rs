//! Command-line helpers shared by the `repro_*` binaries.
//!
//! Every binary parses its flags into a plain struct inside a
//! `parse_cli` function that returns a one-line error naming the flag
//! on a missing or malformed value; `main` prints that error and the
//! usage block and exits 2. The daemon modes publish their bound
//! address through [`write_addr_file`], and the client modes read it
//! back through [`resolve_addr`].

use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The flag's value argument, or a one-line error naming the flag.
pub fn take_value(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{flag}: missing value (expected {expected})"))
}

/// The flag's value argument parsed as `T`; a missing *or malformed*
/// value is a one-line error naming the flag — malformed numbers must
/// never fall through to a default silently.
pub fn parse_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
) -> Result<T, String> {
    let v = take_value(args, flag, expected)?;
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?} (expected {expected})"))
}

/// Resolves an address argument: either a literal `host:port`, or
/// `@PATH`, polling the file a daemon's `--addr-file` writes (briefly,
/// so a client started a moment before its daemon still connects).
/// Content that does not parse as a socket address — e.g. a
/// half-written file from a non-atomic writer — is treated as not yet
/// there, never handed to the connect loop. Gives up after 15 s.
pub fn resolve_addr(spec: &str) -> Result<String, String> {
    let Some(path) = spec.strip_prefix('@') else {
        return Ok(spec.to_string());
    };
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match std::fs::read_to_string(path) {
            Ok(s) if s.trim().parse::<SocketAddr>().is_ok() => {
                return Ok(s.trim().to_string());
            }
            _ if Instant::now() >= deadline => {
                return Err(format!("no address appeared in {path}"));
            }
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Publishes a bound address atomically: write to a sibling temp file,
/// then rename into place — a polling client never observes a
/// truncated address.
pub fn write_addr_file(path: &str, addr: SocketAddr) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, format!("{addr}\n"))?;
    std::fs::rename(&tmp, path)
}
