//! The write-ahead journal of cell results: the distributed
//! coordinator's crash recovery, and the output of `--shard` runs.
//!
//! PR 7 made the *workers* expendable; this module makes the
//! coordinator expendable too. Every verified cell result is appended
//! to an on-disk journal — fsync'd **before** it becomes eligible for
//! in-order emission — so a coordinator crash loses at most the result
//! currently in flight, never a completed cell. A resumed coordinator
//! ([`Journal::resume`]) replays the journal, seeds its cell state from
//! the durable set, and only leases the remaining cells.
//!
//! ## Record format
//!
//! Line-delimited flat JSON, read by the same strict parser as the wire
//! protocol ([`parse_object`]): one record per `\n`-terminated line, no
//! nesting, payloads travel as escaped strings, and a duplicate,
//! unknown, missing or mistyped key makes the record bad. Every record
//! ends in a `crc` field holding the FNV-1a-64 checksum (lowercase hex,
//! [`checksum`]) of everything before `,"crc":` on that line:
//!
//! ```text
//! {"journal":"repro_matrix","v":1,"fingerprint":"<hex>","engine":1,"cells":16,"crc":"<hex>"}
//! {"cell":3,"payload":"<escaped cell JSON>","crc":"<hex>"}
//! {"epoch":2,"crc":"<hex>"}
//! ```
//!
//! * The **header** (always the first record) pins the matrix
//!   fingerprint, the engine version and the cell count — a journal can
//!   never be replayed against a different sweep, a different engine,
//!   or a differently sized matrix.
//! * A **cell record** is one durable verified result.
//! * An **epoch record** marks a resume: life `N` of the coordinator
//!   runs under epoch `N`, which is `1 +` the number of epoch records.
//!
//! ## Torn-tail semantics
//!
//! A crash can tear only the *last* record (appends are sequential and
//! fsync'd). The loader therefore:
//!
//! * **truncates and continues** when the final line is torn — no
//!   trailing newline, not UTF-8, failing its checksum, or otherwise
//!   unparseable ([`JournalReplay::truncated_bytes`] reports how much
//!   was dropped);
//! * **hard-errors** on any bad *interior* record — that is not a torn
//!   write, it is corruption, and silently skipping it would drop a
//!   completed cell from the resumed artifact.
//!
//! ## One record format for cell results
//!
//! The journal is the only on-disk form of cell results. A coordinator
//! run (`--journal`) writes one journal holding every cell; a
//! `repro_matrix --shard I/N` run writes a journal under the same
//! header that holds only the cells of its stride. [`load_journals`]
//! replays any set of such journals of one sweep into the full payload
//! list: it is how `--merge` joins shard journals and how a coordinator
//! assembles its document, and it refuses a union that overlaps or
//! leaves a gap.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};

use super::protocol::{
    checksum, json_escape, need_int, need_str, parse_object, reject_unknown, take_int, take_str,
};

/// Journal format version; bumped on any incompatible record change.
pub const JOURNAL_VERSION: u32 = 1;

/// The durable state replayed from a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReplay {
    /// Verified payloads by cell index — the exact set of durable cells.
    pub payloads: BTreeMap<usize, String>,
    /// The epoch of the journal's latest life (`1 +` epoch records).
    pub epoch: u64,
    /// Bytes dropped from a torn trailing record (`0` = clean tail).
    pub truncated_bytes: u64,
}

/// An open, append-only journal. Every append is written and fsync'd
/// before it returns, so a record that [`Journal::append_cell`]
/// acknowledged survives any subsequent crash.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: String,
}

/// Renders one record line: `body` (an unclosed flat JSON object) plus
/// its checksum field and the closing brace.
fn seal(body: &str) -> String {
    format!("{body},\"crc\":\"{}\"}}\n", checksum(body))
}

fn header_body(fingerprint: &str, engine: u32, cells: usize) -> String {
    format!(
        "{{\"journal\":\"repro_matrix\",\"v\":{JOURNAL_VERSION},\"fingerprint\":\"{}\",\"engine\":{engine},\"cells\":{cells}",
        json_escape(fingerprint)
    )
}

impl Journal {
    /// Creates (truncating) a fresh journal and writes the fsync'd
    /// header record. The new run's epoch is `1`.
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the file cannot be created
    /// or the header cannot be made durable.
    pub fn create(
        path: &str,
        fingerprint: &str,
        engine: u32,
        cells: usize,
    ) -> Result<Journal, String> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| format!("cannot create journal {path}: {e}"))?;
        let line = seal(&header_body(fingerprint, engine, cells));
        file.write_all(line.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("cannot write journal {path}: {e}"))?;
        Ok(Journal {
            file,
            path: path.to_string(),
        })
    }

    /// Opens an existing journal for resumption: replays it (validating
    /// the fingerprint/engine/cells guard), physically truncates any
    /// torn trailing record, appends the fsync'd epoch record of the
    /// new life, and returns the journal alongside the replayed state
    /// (whose `epoch` is the *new* life's epoch).
    ///
    /// # Errors
    ///
    /// Returns a one-line description on an unreadable journal, a guard
    /// mismatch (different sweep, engine or cell count), or interior
    /// corruption.
    pub fn resume(
        path: &str,
        fingerprint: &str,
        engine: u32,
        cells: usize,
    ) -> Result<(Journal, JournalReplay), String> {
        let mut replay = load_journal(path, fingerprint, engine, cells)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {path}: {e}"))?;
        if replay.truncated_bytes > 0 {
            let len = file
                .metadata()
                .map_err(|e| format!("cannot stat journal {path}: {e}"))?
                .len();
            file.set_len(len.saturating_sub(replay.truncated_bytes))
                .map_err(|e| format!("cannot truncate torn journal tail {path}: {e}"))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("cannot seek journal {path}: {e}"))?;
        replay.epoch += 1;
        let line = seal(&format!("{{\"epoch\":{}", replay.epoch));
        file.write_all(line.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("cannot write journal {path}: {e}"))?;
        Ok((
            Journal {
                file,
                path: path.to_string(),
            },
            replay,
        ))
    }

    /// Appends one verified cell result and fsyncs it. On return the
    /// record is durable: the caller may treat the cell as recoverable
    /// across a crash.
    ///
    /// # Errors
    ///
    /// Returns a one-line description when the append or the fsync
    /// fails — the caller must treat the cell as *not* durable.
    pub fn append_cell(&mut self, cell: usize, payload: &str) -> Result<(), String> {
        let line = seal(&format!(
            "{{\"cell\":{cell},\"payload\":\"{}\"",
            json_escape(payload)
        ));
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("cannot write journal {}: {e}", self.path))
    }
}

/// One parsed journal record.
enum Record {
    Header {
        fingerprint: String,
        engine: u32,
        cells: usize,
    },
    Cell {
        cell: usize,
        payload: String,
    },
    Epoch(u64),
}

/// Parses and checksum-verifies one record line (without its trailing
/// newline). Any error here on the *final* line means a torn tail.
fn parse_record(line: &str) -> Result<Record, String> {
    let mut fields = parse_object(line)?;
    let crc = need_str(&mut fields, "crc")?;
    let body = line
        .strip_suffix("\"}")
        .and_then(|l| l.strip_suffix(crc.as_str()))
        .and_then(|l| l.strip_suffix(",\"crc\":\""))
        .ok_or("crc is not the last field")?;
    if crc != checksum(body) {
        return Err("record checksum mismatch".to_string());
    }
    let record = if let Some(kind) = take_str(&mut fields, "journal")? {
        if kind != "repro_matrix" {
            return Err(format!("unknown journal kind {kind:?}"));
        }
        let v: u32 = need_int(&mut fields, "v")?;
        if v != JOURNAL_VERSION {
            return Err(format!("journal version {v} != {JOURNAL_VERSION}"));
        }
        Record::Header {
            fingerprint: need_str(&mut fields, "fingerprint")?,
            engine: need_int(&mut fields, "engine")?,
            cells: need_int(&mut fields, "cells")?,
        }
    } else if let Some(cell) = take_int(&mut fields, "cell")? {
        Record::Cell {
            cell,
            payload: need_str(&mut fields, "payload")?,
        }
    } else if let Some(epoch) = take_int(&mut fields, "epoch")? {
        Record::Epoch(epoch)
    } else {
        return Err("unknown record kind".to_string());
    };
    reject_unknown(&fields, "journal record")?;
    Ok(record)
}

/// Replays a journal without modifying it: verifies the header guard
/// against the caller's sweep, collects the durable payload set, and
/// applies the torn-tail semantics described in the module docs.
///
/// # Errors
///
/// Returns a one-line description on an unreadable file, a missing or
/// mismatched header (different fingerprint, engine version or cell
/// count), or a corrupt *interior* record — trailing corruption is
/// reported via [`JournalReplay::truncated_bytes`] instead.
pub fn load_journal(
    path: &str,
    fingerprint: &str,
    engine: u32,
    cells_total: usize,
) -> Result<JournalReplay, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read journal {path}: {e}"))?;
    // Split into (start offset, line bytes, terminated) — a final
    // fragment without a newline is by definition a torn append.
    let mut lines: Vec<(usize, &[u8], bool)> = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            lines.push((start, &bytes[start..i], true));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        lines.push((start, &bytes[start..], false));
    }

    let mut replay = JournalReplay {
        payloads: BTreeMap::new(),
        epoch: 1,
        truncated_bytes: 0,
    };
    let mut header_seen = false;
    for (i, &(offset, raw, terminated)) in lines.iter().enumerate() {
        let is_last = i + 1 == lines.len();
        // Torn-tail detection happens in order: an unterminated or
        // non-UTF-8 or checksum-failing *last* line truncates; the same
        // problem anywhere else is interior corruption.
        let parsed = if !terminated {
            Err("torn record (no trailing newline)".to_string())
        } else {
            std::str::from_utf8(raw)
                .map_err(|e| {
                    format!(
                        "not UTF-8 (invalid byte at offset {} of the line)",
                        e.valid_up_to()
                    )
                })
                .and_then(parse_record)
        };
        let record = match parsed {
            Ok(record) => record,
            Err(_torn) if is_last => {
                replay.truncated_bytes = (bytes.len() - offset) as u64;
                break;
            }
            Err(reason) => {
                return Err(format!(
                    "journal {path}: corrupt interior record at line {}: {reason}",
                    i + 1
                ));
            }
        };
        match record {
            Record::Header {
                fingerprint: theirs,
                engine: their_engine,
                cells: their_cells,
            } => {
                if header_seen {
                    return Err(format!(
                        "journal {path}: corrupt interior record at line {}: duplicate header",
                        i + 1
                    ));
                }
                if i != 0 {
                    return Err(format!(
                        "journal {path}: header record is not first (line {})",
                        i + 1
                    ));
                }
                if theirs != fingerprint {
                    return Err(format!(
                        "journal {path} was written for a different sweep \
                         (matrix fingerprint {theirs} != {fingerprint}; \
                         same matrix flags required to resume or merge)"
                    ));
                }
                if their_engine != engine {
                    return Err(format!(
                        "journal {path} was written by engine version {their_engine}, \
                         this binary is version {engine}: refusing to replay it"
                    ));
                }
                if their_cells != cells_total {
                    return Err(format!(
                        "journal {path} covers {their_cells} cells, this sweep has \
                         {cells_total}: refusing to replay it"
                    ));
                }
                header_seen = true;
            }
            Record::Cell { cell, payload } => {
                if !header_seen {
                    return Err(format!("journal {path}: cell record before header"));
                }
                if cell >= cells_total {
                    return Err(format!(
                        "journal {path}: cell {cell} out of range (matrix has {cells_total})"
                    ));
                }
                if replay.payloads.insert(cell, payload).is_some() {
                    return Err(format!(
                        "journal {path}: duplicate record for cell {cell} \
                         (exactly-once journaling violated)"
                    ));
                }
            }
            Record::Epoch(n) => {
                if !header_seen {
                    return Err(format!("journal {path}: epoch record before header"));
                }
                let expected = replay.epoch + 1;
                if n != expected {
                    return Err(format!(
                        "journal {path}: epoch record {n} out of order (expected {expected})"
                    ));
                }
                replay.epoch = n;
            }
        }
    }
    if !header_seen {
        return Err(format!(
            "journal {path} has no valid header record (empty, torn at creation, \
             or not a repro_matrix journal)"
        ));
    }
    Ok(replay)
}

/// Replays the journals of one sweep — a coordinator's journal, or the
/// journals of `--shard` runs — and returns every cell's payload in cell
/// order. Each file goes through [`load_journal`] under the same guard,
/// so all of them must come from the same matrix flags and engine.
///
/// # Errors
///
/// Returns a one-line description of the first problem: any file
/// [`load_journal`] refuses, a cell found in two files (an overlap,
/// naming both) or a cell found in none (a gap, naming the cell).
pub fn load_journals(
    paths: &[String],
    fingerprint: &str,
    engine: u32,
    cells_total: usize,
) -> Result<Vec<String>, String> {
    let mut found: Vec<Option<(String, &str)>> = vec![None; cells_total];
    for path in paths {
        for (cell, payload) in load_journal(path, fingerprint, engine, cells_total)?.payloads {
            if let Some((_, first)) = found[cell].replace((payload, path)) {
                return Err(format!(
                    "overlap: cell {cell} is in both {first} and {path}"
                ));
            }
        }
    }
    found
        .into_iter()
        .enumerate()
        .map(|(cell, slot)| {
            slot.map(|(payload, _)| payload).ok_or_else(|| {
                format!("gap: cell {cell} of {cells_total} is in none of the journals")
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("ftes-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    const FP: &str = "00aa11bb22cc33dd";

    #[test]
    fn create_append_load_round_trips_payloads_exactly() {
        let path = tmp("round-trip");
        let mut j = Journal::create(&path, FP, 1, 4).unwrap();
        j.append_cell(2, "{\n  \"x\": 1\n}").unwrap();
        j.append_cell(0, "plain").unwrap();
        let replay = load_journal(&path, FP, 1, 4).unwrap();
        assert_eq!(replay.epoch, 1);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.payloads.len(), 2);
        assert_eq!(replay.payloads[&2], "{\n  \"x\": 1\n}");
        assert_eq!(replay.payloads[&0], "plain");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_bumps_the_epoch_and_preserves_the_durable_set() {
        let path = tmp("epoch");
        let mut j = Journal::create(&path, FP, 1, 3).unwrap();
        j.append_cell(1, "one").unwrap();
        drop(j);
        let (mut j2, replay) = Journal::resume(&path, FP, 1, 3).unwrap();
        assert_eq!(replay.epoch, 2, "first resume is life 2");
        assert_eq!(replay.payloads.len(), 1);
        j2.append_cell(0, "zero").unwrap();
        drop(j2);
        let (_, replay) = Journal::resume(&path, FP, 1, 3).unwrap();
        assert_eq!(replay.epoch, 3, "epoch records accumulate");
        assert_eq!(replay.payloads.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_record_is_truncated_and_resume_continues() {
        let path = tmp("torn-tail");
        let mut j = Journal::create(&path, FP, 1, 3).unwrap();
        j.append_cell(0, "kept").unwrap();
        j.append_cell(1, "doomed").unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Tear the last record at every byte boundary: the loader must
        // drop exactly the torn record and keep everything before it.
        let tail_start = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        for cut in tail_start..full.len() - 1 {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay =
                load_journal(&path, FP, 1, 3).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(replay.payloads.len(), 1, "cut at {cut}");
            assert_eq!(replay.payloads[&0], "kept");
            assert_eq!(
                replay.truncated_bytes as usize,
                cut - tail_start,
                "cut at {cut}"
            );
        }
        // Resume over a torn tail physically truncates the file, so the
        // next load sees a clean journal (plus the epoch record).
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (_, replay) = Journal::resume(&path, FP, 1, 3).unwrap();
        assert_eq!(replay.payloads.len(), 1);
        let reloaded = load_journal(&path, FP, 1, 3).unwrap();
        assert_eq!(reloaded.truncated_bytes, 0);
        assert_eq!(reloaded.epoch, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_a_hard_error_never_a_silent_skip() {
        let path = tmp("interior");
        let mut j = Journal::create(&path, FP, 1, 3).unwrap();
        j.append_cell(0, "alpha").unwrap();
        j.append_cell(1, "beta").unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a payload byte in the *first* cell record: its checksum
        // breaks, and because a valid record follows it this is
        // interior corruption, not a torn tail.
        let corrupted = text.replacen("alpha", "alphA", 1);
        assert_ne!(corrupted, text);
        std::fs::write(&path, &corrupted).unwrap();
        let err = load_journal(&path, FP, 1, 3).unwrap_err();
        assert!(err.contains("corrupt interior record"), "{err}");
        assert!(err.contains("line 2"), "{err}");
        // A record whose checksum is right but which carries a
        // duplicate key is just as bad: an error in the interior, a
        // torn tail at the end.
        let lines: Vec<&str> = text.lines().collect();
        let dup = seal("{\"cell\":1,\"cell\":2,\"payload\":\"dup\"");
        std::fs::write(&path, format!("{}\n{dup}{}\n", lines[0], lines[1])).unwrap();
        let err = load_journal(&path, FP, 1, 3).unwrap_err();
        assert!(err.contains("corrupt interior record"), "{err}");
        assert!(err.contains("line 2"), "{err}");
        std::fs::write(&path, format!("{}\n{}\n{dup}", lines[0], lines[1])).unwrap();
        let replay = load_journal(&path, FP, 1, 3).unwrap();
        assert_eq!(replay.payloads.len(), 1);
        assert_eq!(replay.payloads[&0], "alpha");
        assert_eq!(replay.truncated_bytes as usize, dup.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flipped_checksum_on_the_tail_truncates_cleanly() {
        let path = tmp("crc-flip");
        let mut j = Journal::create(&path, FP, 1, 2).unwrap();
        j.append_cell(0, "safe").unwrap();
        j.append_cell(1, "flipped").unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Mangle the final record's crc hex: a torn-tail truncation,
        // not an error — the record was never acknowledged as durable
        // in a state the checksum can vouch for.
        let crc_at = text.rfind("\"crc\":\"").unwrap() + "\"crc\":\"".len();
        let old = text.as_bytes()[crc_at];
        let new = if old == b'0' { b'1' } else { b'0' };
        unsafe { text.as_bytes_mut()[crc_at] = new };
        std::fs::write(&path, &text).unwrap();
        let replay = load_journal(&path, FP, 1, 2).unwrap();
        assert_eq!(replay.payloads.len(), 1);
        assert!(replay.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn guard_mismatches_are_one_line_errors() {
        let path = tmp("guards");
        let mut j = Journal::create(&path, FP, 1, 5).unwrap();
        j.append_cell(3, "x").unwrap();
        drop(j);
        let err = load_journal(&path, "ffffffffffffffff", 1, 5).unwrap_err();
        assert!(err.contains("different sweep"), "{err}");
        let err = load_journal(&path, FP, 2, 5).unwrap_err();
        assert!(err.contains("engine version"), "{err}");
        let err = load_journal(&path, FP, 1, 6).unwrap_err();
        assert!(err.contains("cells"), "{err}");
        let err = load_journal("/nonexistent/journal-xyz.wal", FP, 1, 5).unwrap_err();
        assert!(err.contains("cannot read journal"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_interior_record_errors_and_non_utf8_tail_truncates() {
        let path = tmp("non-utf8");
        let mut j = Journal::create(&path, FP, 1, 2).unwrap();
        j.append_cell(0, "good").unwrap();
        drop(j);
        let clean = std::fs::read(&path).unwrap();
        // Non-UTF-8 garbage as a *terminated interior* line: hard
        // error naming the problem.
        let mut bad = clean.clone();
        let cell_at = bad
            .windows("{\"cell\"".len())
            .position(|w| w == b"{\"cell\"")
            .unwrap();
        bad.splice(cell_at..cell_at, [0xffu8, 0xfe, b'\n']);
        std::fs::write(&path, &bad).unwrap();
        let err = load_journal(&path, FP, 1, 2).unwrap_err();
        assert!(err.contains("corrupt interior record"), "{err}");
        assert!(err.contains("not UTF-8"), "{err}");
        // The same garbage as the unterminated tail: truncate-and-go.
        let mut torn = clean.clone();
        torn.extend_from_slice(&[0x7b, 0xff, 0xfe]);
        std::fs::write(&path, &torn).unwrap();
        let replay = load_journal(&path, FP, 1, 2).unwrap();
        assert_eq!(replay.payloads.len(), 1);
        assert_eq!(replay.truncated_bytes, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_garbage_headers_are_rejected() {
        let path = tmp("headers");
        std::fs::write(&path, "").unwrap();
        let err = load_journal(&path, FP, 1, 1).unwrap_err();
        assert!(err.contains("no valid header"), "{err}");
        std::fs::write(&path, "not a journal at all\n").unwrap();
        // A single garbage line is a torn tail by position — but with
        // no header underneath it, the journal is still unusable.
        let err = load_journal(&path, FP, 1, 1).unwrap_err();
        assert!(err.contains("no valid header"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    // --- Shard journals joined by `load_journals` (`--merge`). ---

    use crate::matrix::{cell_json, json_footer, json_header, run_cells, BenchMeta};
    use crate::{Strategy, ENGINE_VERSION};
    use ftes_gen::{BusProfile, Heterogeneity, Scenario, ScenarioMatrix, Utilization};
    use ftes_opt::Threads;

    /// A small real run (5 cells, MIN only): its fingerprint, the cells
    /// rendered as a `--shard` run journals them, and the unsharded
    /// document of the same run.
    fn small_run() -> (String, Vec<String>, String) {
        let mut cells: Vec<Scenario> = ScenarioMatrix::smoke().cells();
        cells.truncate(4);
        let mut extra = Scenario::new(
            BusProfile::Ideal,
            Heterogeneity::Wide,
            Utilization::Relaxed,
            1,
        );
        extra.base.seed = 0x5EED;
        cells.push(extra);
        for c in cells.iter_mut() {
            c.apps = 1;
        }
        let cfg = crate::MatrixRunConfig {
            threads: Threads(1),
            ..crate::MatrixRunConfig::default()
        };
        let report = run_cells(&cells, &[Strategy::Min], &cfg);
        let payloads = report
            .cells
            .iter()
            .map(|c| cell_json(c, cfg.arc, true))
            .collect();
        let fingerprint = crate::dist::matrix_fingerprint(&cells, &[Strategy::Min], cfg.arc, true);
        (fingerprint, payloads, report.bench_json(5, false))
    }

    /// Writes the journal a `--shard index/count` run writes for
    /// `payloads` and returns its path.
    fn shard_journal(
        name: &str,
        fp: &str,
        payloads: &[String],
        index: usize,
        count: usize,
    ) -> String {
        let path = tmp(&format!("{name}-{index}of{count}"));
        let mut j = Journal::create(&path, fp, ENGINE_VERSION, payloads.len()).unwrap();
        for (cell, payload) in payloads.iter().enumerate().skip(index).step_by(count) {
            j.append_cell(cell, payload).unwrap();
        }
        path
    }

    /// `load_journals` that must fail, with a one-line error.
    fn merge_err(paths: &[String], fp: &str, cells: usize) -> String {
        let err = load_journals(paths, fp, ENGINE_VERSION, cells).unwrap_err();
        assert!(!err.is_empty() && !err.contains('\n'), "{err:?}");
        err
    }

    fn remove_all(paths: &[String]) {
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn two_and_three_way_merges_reproduce_the_unsharded_file_byte_for_byte() {
        let (fp, payloads, reference) = small_run();
        for count in [2usize, 3] {
            let mut paths: Vec<String> = (0..count)
                .map(|i| shard_journal("merge", &fp, &payloads, i, count))
                .collect();
            // Merge in scrambled input order: order must not matter.
            paths.reverse();
            let merged = load_journals(&paths, &fp, ENGINE_VERSION, payloads.len()).unwrap();
            let doc = format!(
                "{}{}{}",
                json_header(
                    crate::MatrixRunConfig::default().arc,
                    Some(BenchMeta::new(5, false)),
                    "",
                ),
                merged.join(",\n"),
                json_footer()
            );
            assert_eq!(doc, reference, "{count}-way merge diverged");
            remove_all(&paths);
        }
    }

    #[test]
    fn gaps_and_overlaps_are_rejected() {
        let (fp, payloads, _) = small_run();
        let n = payloads.len();
        let s: Vec<String> = (0..3)
            .map(|i| shard_journal("gaps", &fp, &payloads, i, 3))
            .collect();
        let gap = merge_err(&[s[0].clone(), s[2].clone()], &fp, n);
        assert!(gap.starts_with("gap: cell 1 "), "{gap}");
        let overlap = merge_err(&[s[0].clone(), s[0].clone(), s[1].clone()], &fp, n);
        assert!(overlap.starts_with("overlap: cell 0 "), "{overlap}");
        assert_eq!(overlap.matches(s[0].as_str()).count(), 2, "{overlap}");
        // A shard that lost a cell (run stopped early) is a gap too.
        let short = tmp("gaps-short");
        let mut j = Journal::create(&short, &fp, ENGINE_VERSION, n).unwrap();
        j.append_cell(1, &payloads[1]).unwrap();
        let gap = merge_err(&[s[0].clone(), short.clone(), s[2].clone()], &fp, n);
        assert!(gap.starts_with("gap: cell 4 "), "{gap}");
        remove_all(&s);
        remove_all(&[short]);
    }

    #[test]
    fn header_disagreement_is_rejected() {
        let (fp, payloads, _) = small_run();
        let n = payloads.len();
        let a = shard_journal("hdr", &fp, &payloads, 0, 2);
        let b = tmp("hdr-other");
        for (fingerprint, engine, cells, why) in [
            ("ffffffffffffffff", ENGINE_VERSION, n, "different sweep"),
            (fp.as_str(), ENGINE_VERSION + 1, n, "engine version"),
            (fp.as_str(), ENGINE_VERSION, n + 1, "covers 6 cells"),
        ] {
            let mut j = Journal::create(&b, fingerprint, engine, cells).unwrap();
            j.append_cell(1, &payloads[1]).unwrap();
            let err = merge_err(&[a.clone(), b.clone()], &fp, n);
            assert!(err.contains(why) && err.contains(b.as_str()), "{err}");
        }
        // A header that would agree if read leniently — first key wins
        // — is rejected: a duplicate key breaks the record.
        let dup = seal(&format!(
            "{{\"journal\":\"repro_matrix\",\"v\":1,\"fingerprint\":\"{fp}\",\"engine\":{ENGINE_VERSION},\"cells\":{n},\"cells\":{}",
            n + 1
        ));
        let cell = seal(&format!(
            "{{\"cell\":1,\"payload\":\"{}\"",
            json_escape(&payloads[1])
        ));
        std::fs::write(&b, format!("{dup}{cell}")).unwrap();
        let err = merge_err(&[a.clone(), b.clone()], &fp, n);
        assert!(err.contains("line 1") && err.contains("duplicate"), "{err}");
        remove_all(&[a, b]);
    }

    #[test]
    fn truncated_shard_journals_error_at_every_cut_instead_of_panicking() {
        let (fp, payloads, _) = small_run();
        let n = payloads.len();
        let s0 = shard_journal("cut", &fp, &payloads, 0, 2);
        let s1 = shard_journal("cut", &fp, &payloads, 1, 2);
        let good = std::fs::read(&s1).unwrap();
        // A shard journal cut off mid-write (dead run, full disk) loses
        // at least its last cell: a gap, or no header at all — an
        // error at every cut, never a panic or a short merge.
        let cut_path = tmp("cut-torn");
        for cut in 0..good.len() {
            std::fs::write(&cut_path, &good[..cut]).unwrap();
            let err = merge_err(&[s0.clone(), cut_path.clone()], &fp, n);
            assert!(
                err.starts_with("gap: ") || err.contains("no valid header"),
                "cut at {cut}: {err}"
            );
        }
        std::fs::write(&cut_path, &good).unwrap();
        assert_eq!(
            load_journals(&[s0.clone(), cut_path.clone()], &fp, ENGINE_VERSION, n).unwrap(),
            payloads
        );
        remove_all(&[s0, s1, cut_path]);
    }

    #[test]
    fn unreadable_and_non_utf8_shard_journals_error_cleanly() {
        let (fp, payloads, _) = small_run();
        let n = payloads.len();
        let s0 = shard_journal("utf8", &fp, &payloads, 0, 2);
        let err = merge_err(
            &[s0.clone(), "/nonexistent/shard-xyz.wal".to_string()],
            &fp,
            n,
        );
        assert!(
            err.contains("cannot read journal /nonexistent/shard-xyz.wal"),
            "{err}"
        );
        // 0xFF 0xFE is never valid UTF-8.
        let binary = tmp("utf8-binary");
        std::fs::write(&binary, [0x7b, 0xff, 0xfe, 0x7d, b'\n', b'{', b'\n']).unwrap();
        let err = merge_err(&[s0.clone(), binary.clone()], &fp, n);
        assert!(
            err.contains("not UTF-8") && err.contains("offset 1"),
            "{err}"
        );
        remove_all(&[s0, binary]);
    }

    #[test]
    fn shard_documents_are_rejected_as_journals() {
        // The pretty-printed document older `--shard` runs wrote is not
        // a journal: `--merge` refuses it instead of splicing it in.
        let (fp, payloads, reference) = small_run();
        let doc = tmp("old-doc");
        std::fs::write(&doc, reference).unwrap();
        let err = merge_err(std::slice::from_ref(&doc), &fp, payloads.len());
        assert!(err.contains("corrupt interior record at line 1"), "{err}");
        remove_all(&[doc]);
    }
}
