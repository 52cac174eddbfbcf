//! The two-tier result cache: segmented-LRU memory front over a disk
//! filecache, with solution-bearing entries and a per-scenario donor
//! index for warm starts.
//!
//! Keys are content addresses: the FNV-1a hash of the canonical
//! scenario spec, the goal, the acceptance threshold and the engine
//! version ([`cache_key`]). The canonical spec makes the address
//! insensitive to request formatting (field order, whitespace); the
//! engine version makes a deployed engine change miss instead of
//! serving stale results.
//!
//! The memory tier is the same [`SlruCache`] the tabu search memoizes
//! with — bounded, O(1), recently-used entries guaranteed resident. The
//! disk tier is one file per entry (`<key as 16 hex digits>.json`)
//! under a cache directory, written atomically (temp + rename, the
//! `--addr-file` discipline) so a crash mid-write never poisons the
//! cache: a reader either sees the complete entry or no entry. Disk
//! hits are promoted into the memory tier and have their mtime bumped,
//! so the size-cap sweep ([`ResultCache::with_disk_cap`]) evicts in
//! LRU order.
//!
//! # Entry format
//!
//! A **v2** entry is one flat-JSON header line followed by the raw
//! payload bytes, verbatim:
//!
//! ```text
//! {"v":2,"goal":"opt","arc":20,"spec":"<escaped canonical spec>","seeds":"<escaped seed codec>"}
//! <rendered cell JSON>
//! ```
//!
//! The header carries what a *different* request on the same scenario
//! needs to warm-start from this entry: the canonical spec (donor
//! index), the goal and ArC (donor ranking) and the winning design
//! points ([`CellSeeds`], encoded by `encode_seeds`).
//!
//! Entries are validated on read: an empty or structurally truncated
//! entry (external tampering, disk-full artifact), an unknown version
//! or a headerless file — such as a bare-payload v1 entry from before
//! the header existed — is counted as an error, deleted, and the lookup
//! falls through to a miss. A torn file must never be served as a hit.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use ftes_bench::dist::protocol::{fnv64, json_escape, parse_object, take_int, take_str};
use ftes_bench::{CellSeeds, Strategy};
use ftes_model::{NodeId, NodeTypeId};
use ftes_opt::{SlruCache, WarmStart};

/// Content address of one result: FNV-1a over the canonical scenario
/// spec plus everything else that determines the payload bytes — the
/// goal, the ArC acceptance threshold and the engine version.
pub fn cache_key(canonical_spec: &str, goal: &str, arc: u64, engine_version: u32) -> u64 {
    fnv64(format!("v{engine_version};goal={goal};arc={arc};{canonical_spec}").as_bytes())
}

/// Which tier served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Memory-tier hit (no I/O, no engine run).
    Mem,
    /// Disk-tier hit (one file read, no engine run); promoted to memory.
    Disk,
    /// Not cached — the caller must run the engine and [`store`] the
    /// result.
    ///
    /// [`store`]: ResultCache::store
    Miss,
}

impl CacheTier {
    /// Wire label (`mem`, `disk`, `miss`).
    pub fn label(self) -> &'static str {
        match self {
            CacheTier::Mem => "mem",
            CacheTier::Disk => "disk",
            CacheTier::Miss => "miss",
        }
    }
}

/// Lifetime counters of one [`ResultCache`], surfaced in responses and
/// the `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups performed.
    pub requests: u64,
    /// Lookups answered by the memory tier.
    pub mem_hits: u64,
    /// Lookups answered by the disk tier.
    pub disk_hits: u64,
    /// Lookups answered by neither tier (engine runs).
    pub misses: u64,
    /// Entries written to the disk tier.
    pub disk_writes: u64,
    /// Memory-tier entries dropped by LRU rotation.
    pub mem_evictions: u64,
    /// Entries currently resident in the memory tier.
    pub mem_entries: u64,
    /// Misses answered by joining another request's in-flight engine
    /// run instead of running the engine again.
    pub coalesced: u64,
    /// Engine runs seeded from a near-miss donor entry.
    pub warm_starts: u64,
    /// Disk-tier entries removed by the size-cap sweep.
    pub disk_evictions: u64,
    /// Disk-tier I/O failures *and* corrupt entries rejected on read
    /// (reads fall back to miss, writes are skipped; the server keeps
    /// answering either way).
    pub errors: u64,
    /// Admin `flush` requests served (each clears both tiers).
    pub admin_flushes: u64,
    /// Entries removed by admin `evict` requests (a targeted eviction
    /// of an absent key counts nothing).
    pub admin_evictions: u64,
}

/// What [`ResultCache::store`] records beyond the payload bytes: the
/// v2 header fields that make the entry usable as a warm-start donor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// Canonical scenario spec (the donor index groups entries by it).
    pub spec: String,
    /// Goal label the entry was computed under.
    pub goal: String,
    /// ArC threshold the payload was rendered against.
    pub arc: u64,
    /// The winning design points of the engine run.
    pub seeds: CellSeeds,
}

/// One memory-tier entry: the served bytes plus the design points a
/// warm start can seed from.
#[derive(Debug, Clone)]
struct CacheEntry {
    payload: String,
    seeds: CellSeeds,
}

/// One donor-index row: a cache entry known to carry seeds for its
/// canonical spec.
#[derive(Debug, Clone)]
struct Donor {
    key: u64,
    goal: String,
    arc: u64,
}

/// The two-tier cache. Not internally synchronized — the server wraps
/// it in a mutex; engine runs happen *outside* that lock.
#[derive(Debug)]
pub struct ResultCache {
    mem: SlruCache<u64, CacheEntry>,
    disk: Option<PathBuf>,
    disk_cap: Option<u64>,
    /// fnv64(canonical spec) → entries that can donate seeds for it.
    donors: HashMap<u64, Vec<Donor>>,
    requests: u64,
    mem_hits: u64,
    disk_hits: u64,
    misses: u64,
    disk_writes: u64,
    coalesced: u64,
    warm_starts: u64,
    disk_evictions: u64,
    errors: u64,
    admin_flushes: u64,
    admin_evictions: u64,
}

impl ResultCache {
    /// A cache with a memory tier of at most `mem_cap` entries (0
    /// disables it) and, when `disk_dir` is given, a disk tier under
    /// that directory (created if absent). Existing v2 entries are
    /// scanned into the donor index so a restarted daemon warm-starts
    /// from its previous life's results.
    ///
    /// # Errors
    ///
    /// Returns a message when the cache directory cannot be created.
    pub fn new(mem_cap: usize, disk_dir: Option<&Path>) -> Result<ResultCache, String> {
        if let Some(dir) = disk_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        }
        let mut cache = ResultCache {
            mem: SlruCache::new(mem_cap),
            disk: disk_dir.map(Path::to_path_buf),
            disk_cap: None,
            donors: HashMap::new(),
            requests: 0,
            mem_hits: 0,
            disk_hits: 0,
            misses: 0,
            disk_writes: 0,
            coalesced: 0,
            warm_starts: 0,
            disk_evictions: 0,
            errors: 0,
            admin_flushes: 0,
            admin_evictions: 0,
        };
        cache.scan_donors();
        Ok(cache)
    }

    /// Caps the disk tier at `cap_bytes` total entry bytes (`None` =
    /// unbounded): every store sweeps the directory and removes the
    /// oldest-mtime entries until the tier fits.
    #[must_use]
    pub fn with_disk_cap(mut self, cap_bytes: Option<u64>) -> ResultCache {
        self.disk_cap = cap_bytes;
        self
    }

    fn entry_path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.json"))
    }

    /// Parses `<16 hex>.json` back into a key.
    fn path_key(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let hex = name.strip_suffix(".json")?;
        (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
    }

    /// Builds the donor index from the disk tier's entry headers
    /// (unreadable or malformed files are left for `lookup` to reject
    /// and count).
    fn scan_donors(&mut self) {
        let Some(dir) = &self.disk else { return };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut found = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(key) = Self::path_key(&path) else {
                continue;
            };
            let Ok(raw) = std::fs::read_to_string(&path) else {
                continue;
            };
            if let Some((header, _)) = parse_entry(&raw) {
                found.push((key, header));
            }
        }
        for (key, header) in found {
            self.remember_donor(key, &header.spec, &header.goal, header.arc);
        }
    }

    fn remember_donor(&mut self, key: u64, spec: &str, goal: &str, arc: u64) {
        let row = self.donors.entry(fnv64(spec.as_bytes())).or_default();
        row.retain(|d| d.key != key);
        row.push(Donor {
            key,
            goal: goal.to_string(),
            arc,
        });
    }

    fn forget_donor(&mut self, key: u64) {
        for row in self.donors.values_mut() {
            row.retain(|d| d.key != key);
        }
    }

    /// Looks `key` up: memory first, then disk (promoting a disk hit
    /// into memory and bumping its mtime so the size-cap sweep sees it
    /// as recently used). A corrupt disk entry is counted as an error,
    /// deleted and treated as a miss. The caller is expected to run
    /// the engine and [`store`](ResultCache::store) the result.
    pub fn lookup(&mut self, key: u64) -> (Option<String>, CacheTier) {
        self.requests += 1;
        if let Some(entry) = self.mem.get(&key) {
            self.mem_hits += 1;
            return (Some(entry.payload.clone()), CacheTier::Mem);
        }
        if let Some(dir) = self.disk.clone() {
            let path = Self::entry_path(&dir, key);
            match std::fs::read_to_string(&path) {
                Ok(raw) => match parse_entry(&raw) {
                    Some((header, payload)) => {
                        self.disk_hits += 1;
                        touch(&path);
                        let payload = payload.to_string();
                        self.mem.insert(
                            key,
                            CacheEntry {
                                payload: payload.clone(),
                                seeds: header.seeds,
                            },
                        );
                        return (Some(payload), CacheTier::Disk);
                    }
                    None => {
                        // Empty, torn, or tampered with: never serve
                        // it — drop the file and recompute.
                        self.errors += 1;
                        let _ = std::fs::remove_file(&path);
                        self.forget_donor(key);
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => self.errors += 1,
            }
        }
        self.misses += 1;
        (None, CacheTier::Miss)
    }

    /// Stores a freshly computed result in both tiers as a v2 entry
    /// and registers it in the donor index. The disk write is atomic:
    /// the entry is written to a sibling temp file (unique per store,
    /// so concurrent same-key stores never interleave) and renamed
    /// into place — a concurrent reader (or a crash) never observes a
    /// partial entry. Disk failures are counted and swallowed; the
    /// memory tier still serves the entry.
    pub fn store(&mut self, key: u64, payload: &str, meta: &EntryMeta) {
        self.mem.insert(
            key,
            CacheEntry {
                payload: payload.to_string(),
                seeds: meta.seeds.clone(),
            },
        );
        self.remember_donor(key, &meta.spec, &meta.goal, meta.arc);
        if let Some(dir) = self.disk.clone() {
            static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let tmp = dir.join(format!(".tmp-{key:016x}-{}-{seq}", std::process::id()));
            let result = std::fs::write(&tmp, render_entry(payload, meta))
                .and_then(|()| std::fs::rename(&tmp, Self::entry_path(&dir, key)));
            match result {
                Ok(()) => {
                    self.disk_writes += 1;
                    self.sweep_disk(&dir, key);
                }
                Err(_) => {
                    self.errors += 1;
                    let _ = std::fs::remove_file(&tmp);
                }
            }
        }
    }

    /// Removes the oldest-mtime entries until the disk tier fits the
    /// cap. The just-stored entry (`keep`) is never removed, so a cap
    /// smaller than one entry still serves the latest result.
    fn sweep_disk(&mut self, dir: &Path, keep: u64) {
        let Some(cap) = self.disk_cap else { return };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<(SystemTime, u64, u64, PathBuf)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(key) = Self::path_key(&path) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            files.push((mtime, key, meta.len(), path));
        }
        let mut total: u64 = files.iter().map(|(_, _, len, _)| len).sum();
        files.sort_by_key(|f| (f.0, f.1));
        for (_, key, len, path) in files {
            if total <= cap {
                break;
            }
            if key == keep {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.disk_evictions += 1;
                self.forget_donor(key);
            }
        }
    }

    /// Finds a warm-start donor for a miss: an entry with the same
    /// canonical spec but a different key, preferring the same goal
    /// (then `all`, then any), then the nearest ArC, then the smallest
    /// key. Donors whose entry no longer loads (evicted, corrupted)
    /// are dropped from the index and the next candidate tried.
    pub fn find_warm(
        &mut self,
        spec: &str,
        goal: &str,
        arc: u64,
        exclude: u64,
    ) -> Option<(u64, CellSeeds)> {
        let spec_hash = fnv64(spec.as_bytes());
        let mut candidates: Vec<Donor> = self
            .donors
            .get(&spec_hash)?
            .iter()
            .filter(|d| d.key != exclude)
            .cloned()
            .collect();
        candidates.sort_by_key(|d| {
            let goal_rank = if d.goal == goal {
                0u8
            } else if d.goal == "all" {
                1
            } else {
                2
            };
            (goal_rank, d.arc.abs_diff(arc), d.key)
        });
        for donor in candidates {
            match self.read_seeds(donor.key) {
                Some(seeds) if seeds.seed_count() > 0 => return Some((donor.key, seeds)),
                _ => self.forget_donor(donor.key),
            }
        }
        None
    }

    /// Loads one entry's seeds without touching the hit/miss counters
    /// (a donor read is bookkeeping, not a served request).
    fn read_seeds(&mut self, key: u64) -> Option<CellSeeds> {
        if let Some(entry) = self.mem.get(&key) {
            return Some(entry.seeds.clone());
        }
        let dir = self.disk.as_ref()?;
        let raw = std::fs::read_to_string(Self::entry_path(dir, key)).ok()?;
        parse_entry(&raw).map(|(header, _)| header.seeds)
    }

    /// Admin flush: drops every entry from both tiers and the donor
    /// index. Returns `(memory entries dropped, disk entries removed)`.
    /// Lifetime counters survive — a flush resets the *contents*, not
    /// the history — and the flush itself is counted.
    pub fn flush(&mut self) -> (usize, usize) {
        let mem_dropped = self.mem.clear();
        let mut disk_removed = 0usize;
        if let Some(dir) = self.disk.clone() {
            if let Ok(entries) = std::fs::read_dir(&dir) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if Self::path_key(&path).is_some() && std::fs::remove_file(&path).is_ok() {
                        disk_removed += 1;
                    }
                }
            }
        }
        self.donors.clear();
        self.admin_flushes += 1;
        (mem_dropped, disk_removed)
    }

    /// Admin eviction of one key from both tiers (and the donor index).
    /// Returns whether anything was actually removed; evicting an
    /// absent key is a no-op and counts nothing.
    pub fn evict(&mut self, key: u64) -> bool {
        let mut removed = self.mem.remove(&key).is_some();
        if let Some(dir) = &self.disk {
            removed |= std::fs::remove_file(Self::entry_path(dir, key)).is_ok();
        }
        if removed {
            self.forget_donor(key);
            self.admin_evictions += 1;
        }
        removed
    }

    /// Counts one coalesced miss (a request that joined an in-flight
    /// engine run instead of starting its own).
    pub fn note_coalesced(&mut self) {
        self.coalesced += 1;
    }

    /// Counts one warm-started engine run.
    pub fn note_warm_start(&mut self) {
        self.warm_starts += 1;
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            requests: self.requests,
            mem_hits: self.mem_hits,
            disk_hits: self.disk_hits,
            misses: self.misses,
            disk_writes: self.disk_writes,
            mem_evictions: self.mem.evicted(),
            mem_entries: self.mem.len() as u64,
            coalesced: self.coalesced,
            warm_starts: self.warm_starts,
            disk_evictions: self.disk_evictions,
            errors: self.errors,
            admin_flushes: self.admin_flushes,
            admin_evictions: self.admin_evictions,
        }
    }
}

/// Refreshes a disk entry's mtime (LRU rank for the size-cap sweep).
/// Best-effort: a read-only cache directory still serves hits.
fn touch(path: &Path) {
    if let Ok(file) = std::fs::File::options().write(true).open(path) {
        let _ = file.set_modified(SystemTime::now());
    }
}

/// A parsed v2 entry header.
#[derive(Debug, Clone, PartialEq)]
struct EntryHeader {
    spec: String,
    goal: String,
    arc: u64,
    seeds: CellSeeds,
}

/// Renders one v2 disk entry: header line + payload bytes, verbatim.
fn render_entry(payload: &str, meta: &EntryMeta) -> String {
    format!(
        "{{\"v\":2,\"goal\":\"{}\",\"arc\":{},\"spec\":\"{}\",\"seeds\":\"{}\"}}\n{payload}",
        json_escape(&meta.goal),
        meta.arc,
        json_escape(&meta.spec),
        json_escape(&encode_seeds(&meta.seeds)),
    )
}

/// Parses a v2 entry into `(header, payload)`. Returns `None` for
/// anything else: the caller treats it as corrupt.
fn parse_entry(raw: &str) -> Option<(EntryHeader, &str)> {
    let (header_line, payload) = raw.split_once('\n')?;
    let mut fields = parse_object(header_line).ok()?;
    let version: u64 = take_int(&mut fields, "v").ok()??;
    if version != 2 {
        return None;
    }
    let goal = take_str(&mut fields, "goal").ok()??;
    let arc = take_int(&mut fields, "arc").ok()??;
    let spec = take_str(&mut fields, "spec").ok()??;
    let seeds = decode_seeds(&take_str(&mut fields, "seeds").ok()??)?;
    if !fields.is_empty() || !payload_shape_ok(payload) {
        return None;
    }
    Some((
        EntryHeader {
            spec,
            goal,
            arc,
            seeds,
        },
        payload,
    ))
}

/// Structural validation of served payload bytes: non-empty and
/// brace-delimited. Catches zero-length and truncated entries without
/// re-parsing the full cell JSON on every hit.
fn payload_shape_ok(payload: &str) -> bool {
    let trimmed = payload.trim();
    !trimmed.is_empty() && trimmed.starts_with('{') && trimmed.ends_with('}')
}

/// Encodes a [`CellSeeds`] as a compact line-safe string: strategy
/// rows joined by `|`, each `LABEL>app;app;…`, an app either `-` (no
/// feasible solution) or `types:mapping` with dot-separated indices.
fn encode_seeds(seeds: &CellSeeds) -> String {
    seeds
        .strategies
        .iter()
        .map(|(strategy, apps)| {
            let apps = apps
                .iter()
                .map(|app| match app {
                    None => "-".to_string(),
                    Some(w) => format!(
                        "{}:{}",
                        w.types
                            .iter()
                            .map(|t| t.index().to_string())
                            .collect::<Vec<_>>()
                            .join("."),
                        w.mapping
                            .iter()
                            .map(|n| n.index().to_string())
                            .collect::<Vec<_>>()
                            .join("."),
                    ),
                })
                .collect::<Vec<_>>()
                .join(";");
            format!("{}>{apps}", strategy.label())
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// Reverses [`encode_seeds`]; `None` on any malformed input (a corrupt
/// seeds field invalidates the whole entry rather than seeding the
/// engine with garbage).
fn decode_seeds(encoded: &str) -> Option<CellSeeds> {
    let mut seeds = CellSeeds::default();
    if encoded.is_empty() {
        return Some(seeds);
    }
    for row in encoded.split('|') {
        let (label, apps) = row.split_once('>')?;
        let strategy = match label {
            "MIN" => Strategy::Min,
            "MAX" => Strategy::Max,
            "OPT" => Strategy::Opt,
            _ => return None,
        };
        let mut decoded = Vec::new();
        if !apps.is_empty() {
            for app in apps.split(';') {
                if app == "-" {
                    decoded.push(None);
                    continue;
                }
                let (types, mapping) = app.split_once(':')?;
                let parse_ids = |s: &str| -> Option<Vec<u32>> {
                    s.split('.').map(|n| n.parse::<u32>().ok()).collect()
                };
                decoded.push(Some(WarmStart {
                    types: parse_ids(types)?.into_iter().map(NodeTypeId::new).collect(),
                    mapping: parse_ids(mapping)?.into_iter().map(NodeId::new).collect(),
                }));
            }
        }
        seeds.strategies.push((strategy, decoded));
    }
    Some(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ENGINE_VERSION;
    use ftes_gen::Scenario;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ftes-cache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta(spec: &str, goal: &str, arc: u64) -> EntryMeta {
        EntryMeta {
            spec: spec.to_string(),
            goal: goal.to_string(),
            arc,
            seeds: CellSeeds {
                strategies: vec![(
                    Strategy::Opt,
                    vec![Some(WarmStart {
                        types: vec![NodeTypeId::new(0), NodeTypeId::new(2)],
                        mapping: vec![NodeId::new(0), NodeId::new(1), NodeId::new(0)],
                    })],
                )],
            },
        }
    }

    const PAYLOAD: &str = "    {\n      \"cell\": 1\n    }";

    #[test]
    fn key_ignores_request_formatting_but_not_content() {
        // Field order and whitespace canonicalize away...
        let a = Scenario::parse_spec("apps=2;bus=tdma:500").unwrap();
        let b = Scenario::parse_spec("  bus = tdma:500 ; apps = 2 ").unwrap();
        assert_eq!(
            cache_key(&a.canonical_spec(), "opt", 20, ENGINE_VERSION),
            cache_key(&b.canonical_spec(), "opt", 20, ENGINE_VERSION),
        );
        // ...while every real input difference changes the key.
        let base = cache_key(&a.canonical_spec(), "opt", 20, ENGINE_VERSION);
        let c = Scenario::parse_spec("apps=3;bus=tdma:500").unwrap();
        assert_ne!(
            cache_key(&c.canonical_spec(), "opt", 20, ENGINE_VERSION),
            base
        );
        assert_ne!(
            cache_key(&a.canonical_spec(), "min", 20, ENGINE_VERSION),
            base
        );
        assert_ne!(
            cache_key(&a.canonical_spec(), "opt", 25, ENGINE_VERSION),
            base
        );
        // An engine-version bump invalidates everything.
        assert_ne!(
            cache_key(&a.canonical_spec(), "opt", 20, ENGINE_VERSION + 1),
            base
        );
    }

    #[test]
    fn memory_tier_serves_repeats_without_disk() {
        let mut cache = ResultCache::new(8, None).unwrap();
        assert_eq!(cache.lookup(7), (None, CacheTier::Miss));
        cache.store(7, PAYLOAD, &meta("spec", "opt", 20));
        assert_eq!(cache.lookup(7), (Some(PAYLOAD.to_string()), CacheTier::Mem));
        let stats = cache.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.mem_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.disk_writes, 0);
    }

    #[test]
    fn disk_tier_survives_a_cache_rebuild() {
        let dir = temp_dir("restart");
        {
            let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
            assert_eq!(cache.lookup(42).1, CacheTier::Miss);
            cache.store(42, PAYLOAD, &meta("spec", "opt", 20));
            assert_eq!(cache.stats().disk_writes, 1);
        }
        // A fresh cache over the same directory models a restarted
        // process: the memory tier is cold, the disk tier answers.
        let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
        assert_eq!(
            cache.lookup(42),
            (Some(PAYLOAD.to_string()), CacheTier::Disk)
        );
        // The disk hit was promoted: the repeat is a memory hit.
        assert_eq!(cache.lookup(42).1, CacheTier::Mem);
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.mem_hits, 1);
        assert_eq!(stats.errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_only_miss_after_eviction_falls_back_to_disk() {
        let dir = temp_dir("evict");
        let mut cache = ResultCache::new(2, Some(&dir)).unwrap();
        cache.lookup(1);
        cache.store(1, PAYLOAD, &meta("one", "opt", 20));
        // Flood the tiny memory tier until entry 1 rotates out.
        for k in 2..10u64 {
            cache.lookup(k);
            cache.store(k, PAYLOAD, &meta("fill", "opt", 20));
        }
        assert!(cache.stats().mem_evictions > 0);
        // Entry 1 is gone from memory but still on disk.
        assert_eq!(
            cache.lookup(1),
            (Some(PAYLOAD.to_string()), CacheTier::Disk)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_codec_round_trips_and_rejects_garbage() {
        let seeds = CellSeeds {
            strategies: vec![
                (
                    Strategy::Max,
                    vec![
                        None,
                        Some(WarmStart {
                            types: vec![NodeTypeId::new(3)],
                            mapping: vec![NodeId::new(0), NodeId::new(0)],
                        }),
                    ],
                ),
                (Strategy::Min, vec![None]),
            ],
        };
        let encoded = encode_seeds(&seeds);
        assert_eq!(encoded, "MAX>-;3:0.0|MIN>-");
        assert_eq!(decode_seeds(&encoded).unwrap(), seeds);
        assert_eq!(decode_seeds("").unwrap(), CellSeeds::default());
        for bad in ["BEST>-", "OPT>1", "OPT>x:0", "OPT>1:y", "OPT", "|"] {
            assert!(decode_seeds(bad).is_none(), "{bad:?} accepted");
        }
    }

    #[test]
    fn v2_entries_round_trip_header_and_payload_verbatim() {
        let m = meta("apps=2;bus=tdma:500", "all", 25);
        let rendered = render_entry(PAYLOAD, &m);
        let (header, payload) = parse_entry(&rendered).unwrap();
        assert_eq!(payload, PAYLOAD);
        assert_eq!(header.spec, m.spec);
        assert_eq!(header.goal, m.goal);
        assert_eq!(header.arc, m.arc);
        assert_eq!(header.seeds, m.seeds);
    }

    #[test]
    fn corrupt_disk_entries_are_rejected_deleted_and_counted() {
        for corrupt in [
            "",                          // zero-length (disk-full artifact)
            "{\"v\":2,\"goal\":\"opt\"", // truncated header, no payload
            "{\"v\":2,\"goal\":\"opt\",\"arc\":20,\"spec\":\"s\",\"seeds\":\"\"}\n    {\"trunc", // torn payload
            "{\"v\":9,\"goal\":\"opt\",\"arc\":20,\"spec\":\"s\",\"seeds\":\"\"}\n    {}", // unknown version
            PAYLOAD, // bare payload, no header line (the pre-v2 format)
        ] {
            let dir = temp_dir("corrupt");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("{:016x}.json", 7u64));
            std::fs::write(&path, corrupt).unwrap();
            let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
            assert_eq!(cache.lookup(7), (None, CacheTier::Miss), "{corrupt:?}");
            assert_eq!(cache.stats().errors, 1, "{corrupt:?}");
            assert!(!path.exists(), "{corrupt:?} not deleted");
            // The slot is reusable: a store then serves normally.
            cache.store(7, PAYLOAD, &meta("spec", "opt", 20));
            assert_eq!(cache.lookup(7).1, CacheTier::Mem);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn concurrent_same_key_stores_never_tear_the_entry() {
        let dir = temp_dir("race");
        let cache = std::sync::Mutex::new(ResultCache::new(8, Some(&dir)).unwrap());
        // The pre-fix temp name was `.tmp-{key}-{pid}` — identical for
        // every thread of one process, so two stores could interleave
        // writes and rename a torn file into place. The per-store
        // sequence number makes each temp file private.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        cache
                            .lock()
                            .unwrap()
                            .store(3, PAYLOAD, &meta("spec", "opt", 20));
                    }
                });
            }
        });
        let mut cache = cache.into_inner().unwrap();
        assert_eq!(cache.lookup(3).0.as_deref(), Some(PAYLOAD));
        assert_eq!(cache.stats().errors, 0);
        // No temp litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cap_evicts_oldest_entries_first_and_mem_still_hits() {
        let dir = temp_dir("cap");
        let entry_len = render_entry(PAYLOAD, &meta("spec", "opt", 20)).len() as u64;
        let mut cache = ResultCache::new(8, Some(&dir))
            .unwrap()
            .with_disk_cap(Some(entry_len * 2));
        cache.store(1, PAYLOAD, &meta("spec", "opt", 20));
        cache.store(2, PAYLOAD, &meta("spec", "opt", 21));
        // Age the first two entries so mtime order is unambiguous.
        for (key, secs) in [(1u64, 100u64), (2, 200)] {
            let file = std::fs::File::options()
                .write(true)
                .open(ResultCache::entry_path(&dir, key))
                .unwrap();
            file.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs))
                .unwrap();
        }
        // The third store exceeds the two-entry cap: entry 1 (oldest
        // mtime) is swept, 2 and 3 stay.
        cache.store(3, PAYLOAD, &meta("spec", "opt", 22));
        assert_eq!(cache.stats().disk_evictions, 1);
        assert!(!ResultCache::entry_path(&dir, 1).exists());
        assert!(ResultCache::entry_path(&dir, 2).exists());
        assert!(ResultCache::entry_path(&dir, 3).exists());
        // The evicted entry is still memory-resident: lookups hit.
        assert_eq!(cache.lookup(1), (Some(PAYLOAD.to_string()), CacheTier::Mem));
        // But a rebuilt cache (cold memory) must recompute it.
        let mut rebuilt = ResultCache::new(8, Some(&dir)).unwrap();
        assert_eq!(rebuilt.lookup(1), (None, CacheTier::Miss));
        assert_eq!(rebuilt.lookup(2).1, CacheTier::Disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_donor_prefers_same_goal_then_nearest_arc() {
        let mut cache = ResultCache::new(8, None).unwrap();
        cache.store(10, PAYLOAD, &meta("specA", "opt", 10));
        cache.store(11, PAYLOAD, &meta("specA", "opt", 30));
        cache.store(12, PAYLOAD, &meta("specA", "all", 20));
        cache.store(13, PAYLOAD, &meta("specB", "opt", 20));
        // Same goal wins over the goal=all entry even at a worse ArC.
        let (donor, seeds) = cache.find_warm("specA", "opt", 20, 99).unwrap();
        assert_eq!(donor, 10, "nearest-arc same-goal donor");
        assert!(seeds.seed_count() > 0);
        // ArC 29: entry 11 is nearer.
        assert_eq!(cache.find_warm("specA", "opt", 29, 99).unwrap().0, 11);
        // A goal with no same-goal donor falls back to goal=all first.
        assert_eq!(cache.find_warm("specA", "min", 20, 99).unwrap().0, 12);
        // The requesting key itself is never its own donor.
        assert_eq!(cache.find_warm("specB", "opt", 20, 13), None);
        // An unknown spec has no donors at all.
        assert_eq!(cache.find_warm("specC", "opt", 20, 99), None);
    }

    #[test]
    fn flush_clears_both_tiers_and_the_donor_index() {
        let dir = temp_dir("flush");
        let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
        cache.store(1, PAYLOAD, &meta("specA", "opt", 20));
        cache.store(2, PAYLOAD, &meta("specB", "opt", 20));
        let (mem_dropped, disk_removed) = cache.flush();
        assert_eq!(mem_dropped, 2);
        assert_eq!(disk_removed, 2);
        assert_eq!(cache.lookup(1), (None, CacheTier::Miss));
        assert_eq!(cache.lookup(2), (None, CacheTier::Miss));
        assert!(cache.find_warm("specA", "opt", 20, 99).is_none());
        let stats = cache.stats();
        assert_eq!(stats.admin_flushes, 1);
        assert_eq!(stats.disk_writes, 2, "flush keeps lifetime history");
        // The cache still works after a flush.
        cache.store(3, PAYLOAD, &meta("specC", "opt", 20));
        assert_eq!(cache.lookup(3).1, CacheTier::Mem);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_removes_one_key_everywhere_and_counts_only_real_removals() {
        let dir = temp_dir("admin-evict");
        let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
        cache.store(5, PAYLOAD, &meta("specA", "opt", 20));
        cache.store(6, PAYLOAD, &meta("specB", "opt", 20));
        assert!(cache.evict(5));
        assert!(!cache.evict(5), "second eviction finds nothing");
        assert!(!cache.evict(999), "absent key is a no-op");
        assert_eq!(cache.lookup(5), (None, CacheTier::Miss));
        assert!(!ResultCache::entry_path(&dir, 5).exists());
        assert!(cache.find_warm("specA", "opt", 20, 99).is_none());
        // The untouched neighbour still serves.
        assert_eq!(cache.lookup(6).1, CacheTier::Mem);
        assert_eq!(cache.stats().admin_evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_rebuilds_the_donor_index_from_disk_headers() {
        let dir = temp_dir("donor-scan");
        {
            let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
            cache.store(21, PAYLOAD, &meta("specA", "opt", 20));
        }
        let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
        let (donor, seeds) = cache.find_warm("specA", "min", 25, 99).unwrap();
        assert_eq!(donor, 21);
        assert!(seeds.seed_count() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
