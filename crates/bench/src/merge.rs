//! Collect/merge tool for sharded `repro_matrix` outputs.
//!
//! `repro_matrix --shard I/N` writes every N-th cell (stride sharding)
//! as a complete JSON document tagged with `shard_index`, `shard_count`
//! and `cells_total`. Merging re-interleaves the shards' cell chunks by
//! their matrix position — merged cell `k` comes from shard `k mod N` at
//! local position `k div N` — and emits an **unsharded** document: for
//! runs of the same matrix, the merged output is byte-identical to what
//! a single unsharded run would have written (up to the `wall_seconds`
//! values, which are the shard runs' real timings).
//!
//! Validation is strict, because silently mis-stitching a multi-machine
//! sweep corrupts the artifact: headers must agree (`bench`, `pr`,
//! `smoke`, `arc`, `shard_count`, `cells_total` — the axes selection is
//! implied by `cells_total` and the per-cell labels), every shard index
//! must appear exactly once (a duplicate is an overlap, a missing one a
//! gap), and each shard must carry exactly the cell count its stride
//! owns.
//!
//! The merge is purely textual (header parse + brace-balanced cell
//! splitting), so it never re-runs or re-renders cells — what a shard
//! measured is what the merged document contains.
//!
//! The header reader here is the workspace's one flat-JSON reader that
//! is not [`crate::dist::protocol::parse_object`]: a shard document is
//! pretty-printed, multi-line JSON with a boolean (`smoke`) and a
//! nested cells array, which the strict line parser does not accept.
//! It is as strict on what it reads: a header key that appears twice
//! and a `smoke` that is neither `true` nor `false` are errors. Making
//! the coordinator's journal the shard format (ROADMAP, "journal as
//! shard format") would turn `--merge` into a union of journals and
//! delete this reader.

use crate::matrix::BenchMeta;
use crate::Shard;
use ftes_model::Cost;

/// One parsed shard document: validated header fields plus the raw cell
/// chunks in shard-local order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDoc {
    /// PR number from the header.
    pub pr: u32,
    /// Smoke flag from the header.
    pub smoke: bool,
    /// Acceptance threshold from the header.
    pub arc: u64,
    /// This document's shard coordinates.
    pub shard: Shard,
    /// Cell count of the full (unsharded) run.
    pub cells_total: usize,
    /// The raw cell chunks, byte-exact as rendered by the run.
    pub cells: Vec<String>,
}

fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let at = text
        .find(&pat)
        .ok_or_else(|| format!("missing header field {key:?} (not a shard document?)"))?;
    let rest = &text[at + pat.len()..];
    if rest.contains(&pat) {
        return Err(format!("duplicate header field {key:?}"));
    }
    let rest = rest.trim_start();
    let end = rest
        .find([',', '\n', '}'])
        .ok_or_else(|| format!("unterminated header field {key:?}"))?;
    Ok(rest[..end].trim())
}

fn num_field<T: std::str::FromStr>(text: &str, key: &str) -> Result<T, String> {
    field(text, key)?
        .parse()
        .map_err(|_| format!("header field {key:?} is not a number"))
}

/// Parses one `repro_matrix --shard` output document.
///
/// # Errors
///
/// Returns a description of the first structural problem: missing shard
/// metadata (an unsharded document), malformed header fields, or an
/// unbalanced cells array.
pub fn parse_shard_doc(text: &str) -> Result<ShardDoc, String> {
    let cells_at = text.find("\"cells\": [").ok_or("missing \"cells\" array")?;
    let header = &text[..cells_at];
    let bench = field(header, "bench")?;
    if bench != "\"repro_matrix\"" {
        return Err(format!("not a repro_matrix document (bench = {bench})"));
    }
    let shard = Shard {
        index: num_field(header, "shard_index")?,
        count: num_field(header, "shard_count")?,
    };
    if shard.count == 0 || shard.index >= shard.count {
        return Err(format!(
            "invalid shard {}/{} in header",
            shard.index, shard.count
        ));
    }
    let doc = ShardDoc {
        pr: num_field(header, "pr")?,
        smoke: match field(header, "smoke")? {
            "true" => true,
            "false" => false,
            other => return Err(format!("header field \"smoke\" is not a boolean: {other}")),
        },
        arc: num_field(header, "arc")?,
        shard,
        cells_total: num_field(header, "cells_total")?,
        cells: split_cells(&text[cells_at + "\"cells\": [".len()..])?,
    };
    Ok(doc)
}

/// Splits the body of a cells array into brace-balanced chunks, keeping
/// each chunk's bytes exactly as rendered (indentation included). The
/// rendered values never contain `{`/`}` inside strings, so plain brace
/// counting is exact for these documents.
fn split_cells(body: &str) -> Result<Vec<String>, String> {
    let mut cells = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, b) in body.bytes().enumerate() {
        match b {
            // The first `]` at depth 0 closes the cells array; the
            // document footer follows.
            b']' if depth == 0 => break,
            b'{' => {
                if depth == 0 {
                    // A chunk starts at its indentation, matching the
                    // writer's "    {" rendering.
                    let line_start = body[..i].rfind('\n').map_or(0, |n| n + 1);
                    start = Some(line_start);
                }
                depth += 1;
            }
            b'}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or("unbalanced braces in cells array")?;
                if depth == 0 {
                    let s = start.take().ok_or("unbalanced braces in cells array")?;
                    cells.push(body[s..=i].to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err("unterminated cell object".to_string());
    }
    Ok(cells)
}

/// Merges parsed shard documents into the unsharded artifact text.
///
/// # Errors
///
/// Returns a description of the first consistency violation: header
/// disagreement, duplicate shard (overlap), missing shard or short shard
/// (gap), or a shard carrying more cells than its stride owns.
pub fn merge_shards(docs: &[ShardDoc]) -> Result<String, String> {
    let first = docs.first().ok_or("no shard documents to merge")?;
    let count = first.shard.count;
    for doc in docs {
        if (doc.pr, doc.smoke, doc.arc, doc.shard.count, doc.cells_total)
            != (first.pr, first.smoke, first.arc, count, first.cells_total)
        {
            return Err(format!(
                "shard {}/{} header disagrees with shard {}/{} \
                 (pr/smoke/arc/shard_count/cells_total must match)",
                doc.shard.index, doc.shard.count, first.shard.index, count
            ));
        }
    }

    let mut by_index: Vec<Option<&ShardDoc>> = vec![None; count];
    for doc in docs {
        let slot = &mut by_index[doc.shard.index];
        if slot.is_some() {
            return Err(format!(
                "overlap: shard {}/{} appears more than once",
                doc.shard.index, count
            ));
        }
        *slot = Some(doc);
    }
    let total = first.cells_total;
    for (i, slot) in by_index.iter().enumerate() {
        let Some(doc) = slot else {
            return Err(format!("gap: shard {i}/{count} is missing"));
        };
        // Stride ownership: shard i owns cells {i, i+N, …} < total.
        let owned = (total + count - 1 - i) / count;
        if doc.cells.len() != owned {
            return Err(format!(
                "gap/overlap inside shard {i}/{count}: carries {} cells, stride owns {owned}",
                doc.cells.len()
            ));
        }
    }

    let mut out = crate::matrix::json_header(
        Cost::new(first.arc),
        Some(BenchMeta::new(first.pr, first.smoke)),
    );
    for k in 0..total {
        if k > 0 {
            out.push_str(",\n");
        }
        let doc = by_index[k % count].expect("validated above");
        out.push_str(&doc.cells[k / count]);
    }
    out.push_str(&crate::matrix::json_footer());
    Ok(out)
}

/// Reads a file's raw bytes, mapping a missing or unreadable file to a
/// one-line description naming `what` (e.g. "shard file", "journal")
/// and the io error. The byte-level half of the record reader shared by
/// `--merge` and the distributed journal loader
/// ([`crate::dist::journal`]), so both reject unreadable input with
/// identical messages.
///
/// # Errors
///
/// Returns the one-line description.
pub(crate) fn read_file_bytes(path: &str, what: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {what} {path}: {e}"))
}

/// Decodes record bytes as UTF-8, mapping binary garbage (a partially
/// written page, a non-document file) to a one-line description naming
/// the byte offset where decoding broke. The text-level half of the
/// shared record reader — the journal loader applies it per record line
/// (so only a *torn trailing* record may be dropped), the shard merge
/// applies it to the whole document.
///
/// # Errors
///
/// Returns the one-line description.
pub(crate) fn utf8_or_error(
    bytes: Vec<u8>,
    path: &str,
    what: &str,
    hint: &str,
) -> Result<String, String> {
    String::from_utf8(bytes).map_err(|e| {
        format!(
            "{what} {path} is not UTF-8 (invalid byte at offset {}): {hint}",
            e.utf8_error().valid_up_to()
        )
    })
}

/// Reads one shard file for merging, mapping every failure mode to a
/// one-line description instead of a panic — built on the same
/// [`read_file_bytes`]/[`utf8_or_error`] reader the distributed journal
/// loader uses, so both tools reject unreadable or non-UTF-8 input
/// identically.
///
/// # Errors
///
/// Returns the one-line description; `repro_matrix --merge` prints it
/// and exits nonzero.
pub fn read_shard_file(path: &str) -> Result<String, String> {
    let bytes = read_file_bytes(path, "shard file")?;
    utf8_or_error(bytes, path, "shard file", "not a repro_matrix document")
}

/// Parses and merges raw shard documents — the `repro_matrix --merge`
/// entry point.
///
/// # Errors
///
/// Propagates the first parse or consistency error, prefixed with the
/// offending document's position.
pub fn merge_shard_texts(texts: &[String]) -> Result<String, String> {
    let docs: Vec<ShardDoc> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| parse_shard_doc(t).map_err(|e| format!("shard file #{}: {e}", i + 1)))
        .collect::<Result<_, _>>()?;
    merge_shards(&docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{cell_json, json_footer, json_header, run_cells, MatrixRunConfig};
    use crate::Strategy;
    use ftes_gen::{BusProfile, Heterogeneity, Scenario, ScenarioMatrix, Utilization};
    use ftes_opt::Threads;

    /// Renders the exact document a `--shard index/count` run writes for
    /// `cells`, by slicing a full report — the writer and the runner
    /// share `json_header`/`cell_json`/`json_footer`, so this is the
    /// same byte stream.
    fn shard_text(
        full: &[String],
        arc: Cost,
        index: usize,
        count: usize,
        pr: u32,
        smoke: bool,
    ) -> String {
        let meta = BenchMeta {
            pr,
            smoke,
            shard: Some((Shard { index, count }, full.len())),
        };
        let mut out = json_header(arc, Some(meta));
        let mut first = true;
        for (i, cell) in full.iter().enumerate() {
            if i % count != index {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            out.push_str(cell);
            first = false;
        }
        out.push_str(&json_footer());
        out
    }

    /// A small real run (5 cells, MIN only) rendered per cell.
    fn small_run() -> (Vec<String>, Cost) {
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
        let cfg = MatrixRunConfig {
            threads: Threads(1),
            ..MatrixRunConfig::default()
        };
        let report = run_cells(&cells, &[Strategy::Min], &cfg);
        let rendered = report
            .cells
            .iter()
            .map(|c| cell_json(c, cfg.arc, true))
            .collect();
        (rendered, cfg.arc)
    }

    fn unsharded_text(full: &[String], arc: Cost, pr: u32, smoke: bool) -> String {
        let mut out = json_header(arc, Some(BenchMeta::new(pr, smoke)));
        out.push_str(&full.join(",\n"));
        out.push_str(&json_footer());
        out
    }

    #[test]
    fn two_and_three_way_merges_reproduce_the_unsharded_file_byte_for_byte() {
        let (full, arc) = small_run();
        let reference = unsharded_text(&full, arc, 5, false);
        for count in [2usize, 3] {
            let shards: Vec<String> = (0..count)
                .map(|i| shard_text(&full, arc, i, count, 5, false))
                .collect();
            // Merge in scrambled input order: order must not matter.
            let mut scrambled = shards.clone();
            scrambled.reverse();
            let merged = merge_shard_texts(&scrambled).unwrap();
            assert_eq!(merged, reference, "{count}-way merge diverged");
        }
    }

    #[test]
    fn header_disagreement_is_rejected() {
        let (full, arc) = small_run();
        let a = shard_text(&full, arc, 0, 2, 5, false);
        let mut b = shard_text(&full, arc, 1, 2, 5, false);
        b = b.replace("\"arc\": 20", "\"arc\": 25");
        let err = merge_shard_texts(&[a.clone(), b]).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
        // A header that would agree if read leniently — first key wins,
        // anything but `true` is `false` — is rejected on its own.
        let b = shard_text(&full, arc, 1, 2, 5, false);
        let dup = b.replacen("  \"arc\": 20,\n", "  \"arc\": 20,\n  \"arc\": 25,\n", 1);
        let err = merge_shard_texts(&[a.clone(), dup]).unwrap_err();
        assert!(err.contains("duplicate header field \"arc\""), "{err}");
        let maybe = b.replacen("\"smoke\": false", "\"smoke\": maybe", 1);
        let err = merge_shard_texts(&[a, maybe]).unwrap_err();
        assert!(err.contains("\"smoke\" is not a boolean"), "{err}");
    }

    #[test]
    fn gaps_and_overlaps_are_rejected() {
        let (full, arc) = small_run();
        let s0 = shard_text(&full, arc, 0, 3, 5, false);
        let s1 = shard_text(&full, arc, 1, 3, 5, false);
        let s2 = shard_text(&full, arc, 2, 3, 5, false);

        let gap = merge_shard_texts(&[s0.clone(), s2.clone()]).unwrap_err();
        assert!(gap.contains("gap"), "{gap}");

        let overlap = merge_shard_texts(&[s0.clone(), s0.clone(), s1.clone()]).unwrap_err();
        assert!(overlap.contains("overlap"), "{overlap}");

        // A shard that lost a cell (truncated run) is an internal gap.
        let doc = parse_shard_doc(&s1).unwrap();
        let mut short = doc.clone();
        short.cells.pop();
        let full_docs = [
            parse_shard_doc(&s0).unwrap(),
            short,
            parse_shard_doc(&s2).unwrap(),
        ];
        let err = merge_shards(&full_docs).unwrap_err();
        assert!(err.contains("inside shard"), "{err}");
    }

    #[test]
    fn unsharded_documents_are_rejected() {
        let (full, arc) = small_run();
        let plain = unsharded_text(&full, arc, 5, false);
        let err = merge_shard_texts(&[plain]).unwrap_err();
        assert!(err.contains("shard"), "{err}");
    }

    #[test]
    fn truncated_shard_documents_error_at_every_cut_instead_of_panicking() {
        let (full, arc) = small_run();
        let good = shard_text(&full, arc, 0, 2, 5, false);
        // A shard file cut off mid-write (dead worker, full disk) must
        // produce a merge error at any truncation point — parse_shard_doc
        // and merge_shard_texts may not panic or silently succeed.
        for frac in 1..10 {
            let cut = good.len() * frac / 10;
            let cut = (0..=cut).rev().find(|&i| good.is_char_boundary(i)).unwrap();
            let t = good[..cut].to_string();
            let err = merge_shard_texts(&[t]).unwrap_err();
            assert!(!err.is_empty(), "empty error for cut at {cut}");
        }
        // And the whole file merged with itself is an overlap, not a
        // crash — the truncation tests above must not be passing merely
        // because a single shard of two is always a gap.
        let err = merge_shard_texts(&[good.clone(), good]).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn unreadable_and_non_utf8_shard_files_error_cleanly() {
        let err = read_shard_file("/nonexistent/shard-xyz.json").unwrap_err();
        assert!(
            err.contains("cannot read shard file"),
            "missing-file error should name the problem: {err}"
        );

        let dir = std::env::temp_dir().join("ftes-merge-harden-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("binary.json");
        // 0xFF 0xFE is never valid UTF-8.
        std::fs::write(&path, [0x7b, 0xff, 0xfe, 0x7d]).unwrap();
        let err = read_shard_file(path.to_str().unwrap()).unwrap_err();
        assert!(
            err.contains("not UTF-8") && err.contains("offset 1"),
            "non-UTF-8 error should name the offset: {err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
