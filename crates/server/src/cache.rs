//! The two-tier result cache: segmented-LRU memory front over a disk
//! filecache of checksummed entries, each bound to its key.
//!
//! Keys are content addresses: the FNV-1a hash of the canonical
//! scenario spec, the goal, the acceptance threshold and the engine
//! version ([`cache_key`]). The canonical spec makes the address
//! insensitive to request formatting (field order, whitespace); the
//! engine version makes a deployed engine change miss instead of
//! serving stale results. The payload for a key is a function of the key
//! alone: every miss runs the engine cold.
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
//! A disk entry is one line in the write-ahead journal's record codec
//! ([`seal`]/[`unseal`]): the request the payload answers, the escaped
//! payload, then the checksum of everything before it:
//!
//! ```text
//! {"goal":"opt","arc":20,"spec":"<escaped canonical spec>","payload":"<escaped cell JSON>","crc":"<16 hex>"}
//! ```
//!
//! A disk read is served only when the checksum matches and
//! `cache_key(spec, goal, arc, ENGINE_VERSION)` equals the key the file
//! is named after. Anything else is a corrupt entry: an empty or torn
//! file, a changed byte, a valid entry copied under another key's name,
//! or a file in an older format (the bare-payload v1 and the
//! header-line v2 entries). A corrupt entry is counted as an error,
//! deleted, and the lookup falls through to a miss; it is never served.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use ftes_bench::dist::protocol::{
    fnv64, json_escape, need_int, need_str, reject_unknown, seal, unseal,
};
use ftes_bench::matrix::CellSeeds;
use ftes_opt::SlruCache;

use crate::ENGINE_VERSION;

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
    /// Always 0 and not listed in [`counters`](CacheStats::counters).
    /// Kept only because the benchmark package (`perfbench/`) reads it.
    #[doc(hidden)]
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

impl CacheStats {
    /// Every counter as a `(name, slot)` pair, in the `stats` response's
    /// wire order. The one list the response's render and parse and the
    /// client's `--stats` line all walk; the `&mut` slots let a parser
    /// fill the counters in place.
    pub fn counters(&mut self) -> [(&'static str, &mut u64); 12] {
        [
            ("requests", &mut self.requests),
            ("mem_hits", &mut self.mem_hits),
            ("disk_hits", &mut self.disk_hits),
            ("misses", &mut self.misses),
            ("disk_writes", &mut self.disk_writes),
            ("mem_evictions", &mut self.mem_evictions),
            ("mem_entries", &mut self.mem_entries),
            ("coalesced", &mut self.coalesced),
            ("disk_evictions", &mut self.disk_evictions),
            ("admin_flushes", &mut self.admin_flushes),
            ("admin_evictions", &mut self.admin_evictions),
            ("errors", &mut self.errors),
        ]
    }
}

/// What [`ResultCache::store`] records beside the payload: the request
/// the payload answers, which binds the disk entry to its key.
#[derive(Debug)]
pub struct EntryMeta {
    /// Canonical scenario spec.
    pub spec: String,
    /// Goal label the entry was computed under.
    pub goal: String,
    /// ArC threshold the payload was rendered against.
    pub arc: u64,
    /// Ignored. Kept only because the benchmark package (`perfbench/`)
    /// sets it.
    #[doc(hidden)]
    pub seeds: CellSeeds,
}

/// The two-tier cache. Not internally synchronized — the server wraps
/// it in a mutex; engine runs happen *outside* that lock.
#[derive(Debug)]
pub struct ResultCache {
    mem: SlruCache<u64, String>,
    disk: Option<PathBuf>,
    disk_cap: Option<u64>,
    /// Lifetime counters; `mem_evictions` and `mem_entries` stay 0 here
    /// and are read off the memory tier by [`stats`](ResultCache::stats).
    stats: CacheStats,
}

impl ResultCache {
    /// A cache with a memory tier of at most `mem_cap` entries (0
    /// disables it) and, when `disk_dir` is given, a disk tier under
    /// that directory (created if absent). Entries already there are
    /// served once looked up, so a restarted daemon answers from its
    /// previous life's results.
    ///
    /// # Errors
    ///
    /// Returns a message when the cache directory cannot be created.
    pub fn new(mem_cap: usize, disk_dir: Option<&Path>) -> Result<ResultCache, String> {
        if let Some(dir) = disk_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        }
        Ok(ResultCache {
            mem: SlruCache::new(mem_cap),
            disk: disk_dir.map(Path::to_path_buf),
            disk_cap: None,
            stats: CacheStats::default(),
        })
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

    /// Looks `key` up: memory first, then disk (promoting a disk hit
    /// into memory and bumping its mtime so the size-cap sweep sees it
    /// as recently used). A corrupt disk entry is counted as an error,
    /// deleted and treated as a miss. The caller is expected to run
    /// the engine and [`store`](ResultCache::store) the result.
    pub fn lookup(&mut self, key: u64) -> (Option<String>, CacheTier) {
        self.stats.requests += 1;
        if let Some(payload) = self.mem.get(&key) {
            self.stats.mem_hits += 1;
            return (Some(payload.clone()), CacheTier::Mem);
        }
        if let Some(dir) = &self.disk {
            let path = Self::entry_path(dir, key);
            match std::fs::read_to_string(&path) {
                Ok(line) => match entry_payload(&line, key) {
                    Ok(payload) => {
                        self.stats.disk_hits += 1;
                        touch(&path);
                        self.mem.insert(key, payload.clone());
                        return (Some(payload), CacheTier::Disk);
                    }
                    Err(_) => {
                        // Torn, tampered with or filed under another
                        // key: never serve it — drop the file and
                        // recompute.
                        self.stats.errors += 1;
                        let _ = std::fs::remove_file(&path);
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => self.stats.errors += 1,
            }
        }
        self.stats.misses += 1;
        (None, CacheTier::Miss)
    }

    /// Stores a freshly computed result in both tiers. The disk write
    /// is atomic: the entry is written to a sibling temp file (unique
    /// per store, so concurrent same-key stores never interleave) and
    /// renamed into place — a concurrent reader (or a crash) never
    /// observes a partial entry. Disk failures are counted and
    /// swallowed; the memory tier still serves the entry.
    pub fn store(&mut self, key: u64, payload: &str, meta: &EntryMeta) {
        self.mem.insert(key, payload.to_string());
        if let Some(dir) = self.disk.clone() {
            static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let tmp = dir.join(format!(".tmp-{key:016x}-{}-{seq}", std::process::id()));
            let result = std::fs::write(&tmp, entry_line(payload, meta))
                .and_then(|()| std::fs::rename(&tmp, Self::entry_path(&dir, key)));
            match result {
                Ok(()) => {
                    self.stats.disk_writes += 1;
                    self.sweep_disk(&dir, key);
                }
                Err(_) => {
                    self.stats.errors += 1;
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
                self.stats.disk_evictions += 1;
            }
        }
    }

    /// Admin flush: drops every entry from both tiers. Returns `(memory
    /// entries dropped, disk entries removed)`. Lifetime counters
    /// survive — a flush resets the *contents*, not the history — and
    /// the flush itself is counted.
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
        self.stats.admin_flushes += 1;
        (mem_dropped, disk_removed)
    }

    /// Admin eviction of one key from both tiers. Returns whether
    /// anything was actually removed; evicting an absent key is a no-op
    /// and counts nothing.
    pub fn evict(&mut self, key: u64) -> bool {
        let mut removed = self.mem.remove(&key).is_some();
        if let Some(dir) = &self.disk {
            removed |= std::fs::remove_file(Self::entry_path(dir, key)).is_ok();
        }
        if removed {
            self.stats.admin_evictions += 1;
        }
        removed
    }

    /// Counts one coalesced miss (a request that joined an in-flight
    /// engine run instead of starting its own).
    pub fn note_coalesced(&mut self) {
        self.stats.coalesced += 1;
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_evictions: self.mem.evicted(),
            mem_entries: self.mem.len() as u64,
            ..self.stats
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

/// One disk entry: the request fields and the escaped payload, sealed.
fn entry_line(payload: &str, meta: &EntryMeta) -> String {
    seal(&format!(
        "{{\"goal\":\"{}\",\"arc\":{},\"spec\":\"{}\",\"payload\":\"{}\"",
        json_escape(&meta.goal),
        meta.arc,
        json_escape(&meta.spec),
        json_escape(payload),
    ))
}

/// The payload of a disk entry read back under `key`, or why the entry
/// is corrupt: it fails its checksum, lacks a field or has an unknown
/// one, or answers a request whose content address is not `key`.
fn entry_payload(line: &str, key: u64) -> Result<String, String> {
    let mut fields = unseal(line)?;
    let goal = need_str(&mut fields, "goal")?;
    let arc = need_int(&mut fields, "arc")?;
    let spec = need_str(&mut fields, "spec")?;
    let payload = need_str(&mut fields, "payload")?;
    reject_unknown(&fields, "cache entry")?;
    if cache_key(&spec, &goal, arc, ENGINE_VERSION) != key {
        return Err(format!("entry does not answer key {key:016x}"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
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
            seeds: CellSeeds::default(),
        }
    }

    /// The content address of the request `m` describes.
    fn key_of(m: &EntryMeta) -> u64 {
        cache_key(&m.spec, &m.goal, m.arc, ENGINE_VERSION)
    }

    const PAYLOAD: &str = "    {\n      \"best_cost\": [5, 4]\n    }";

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
        let m = meta("spec", "opt", 20);
        let key = key_of(&m);
        let mut cache = ResultCache::new(8, None).unwrap();
        assert_eq!(cache.lookup(key), (None, CacheTier::Miss));
        cache.store(key, PAYLOAD, &m);
        assert_eq!(
            cache.lookup(key),
            (Some(PAYLOAD.to_string()), CacheTier::Mem)
        );
        let stats = cache.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.mem_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.disk_writes, 0);
    }

    #[test]
    fn disk_tier_survives_a_cache_rebuild() {
        let dir = temp_dir("restart");
        let m = meta("spec", "opt", 20);
        let key = key_of(&m);
        {
            let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
            assert_eq!(cache.lookup(key).1, CacheTier::Miss);
            cache.store(key, PAYLOAD, &m);
            assert_eq!(cache.stats().disk_writes, 1);
        }
        // A fresh cache over the same directory models a restarted
        // process: the memory tier is cold, the disk tier answers.
        let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
        assert_eq!(
            cache.lookup(key),
            (Some(PAYLOAD.to_string()), CacheTier::Disk)
        );
        // The disk hit was promoted: the repeat is a memory hit.
        assert_eq!(cache.lookup(key).1, CacheTier::Mem);
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
        let first = meta("one", "opt", 20);
        cache.lookup(key_of(&first));
        cache.store(key_of(&first), PAYLOAD, &first);
        // Flood the tiny memory tier until the first entry rotates out.
        for arc in 21..29 {
            let m = meta("fill", "opt", arc);
            cache.lookup(key_of(&m));
            cache.store(key_of(&m), PAYLOAD, &m);
        }
        assert!(cache.stats().mem_evictions > 0);
        // The first entry is gone from memory but still on disk.
        assert_eq!(
            cache.lookup(key_of(&first)),
            (Some(PAYLOAD.to_string()), CacheTier::Disk)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_entries_round_trip_header_and_payload_verbatim() {
        let m = meta("apps=2;bus=tdma:500", "all", 25);
        let line = entry_line(PAYLOAD, &m);
        assert!(line.ends_with("\"}\n") && !line.trim_end().contains('\n'));
        assert_eq!(entry_payload(&line, key_of(&m)).unwrap(), PAYLOAD);
        // The record names its request, so it answers that key only.
        let other = meta("apps=2;bus=tdma:500", "all", 26);
        assert!(entry_payload(&line, key_of(&other)).is_err());
    }

    #[test]
    fn corrupt_disk_entries_are_rejected_deleted_and_counted() {
        let m = meta("apps=1", "opt", 20);
        let key = key_of(&m);
        let valid = entry_line(PAYLOAD, &m);
        let another = entry_line(PAYLOAD, &meta("apps=2", "opt", 20));
        let stored = {
            // What `store` writes for `key`: the fixture under test.
            let dir = temp_dir("corrupt-src");
            let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
            cache.store(key, PAYLOAD, &m);
            let raw = std::fs::read_to_string(ResultCache::entry_path(&dir, key)).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            raw
        };
        assert_eq!(stored, valid);
        assert!(valid.contains("[5, 4]"));
        for (what, corrupt) in [
            ("zero-length (disk-full artifact)", String::new()),
            ("torn record", valid[..valid.len() / 2].to_string()),
            ("one payload digit changed", valid.replace("[5, 4]", "[5, 9]")),
            ("another key's valid entry under this key's name", another),
            ("bare payload (the v1 format)", PAYLOAD.to_string()),
            (
                "header line then payload (the v2 format)",
                format!("{{\"v\":2,\"goal\":\"opt\",\"arc\":20,\"spec\":\"apps=1\",\"seeds\":\"\"}}\n{PAYLOAD}"),
            ),
        ] {
            let dir = temp_dir("corrupt");
            std::fs::create_dir_all(&dir).unwrap();
            let path = ResultCache::entry_path(&dir, key);
            std::fs::write(&path, &corrupt).unwrap();
            let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
            assert_eq!(cache.lookup(key), (None, CacheTier::Miss), "{what}");
            assert_eq!(cache.stats().errors, 1, "{what}");
            assert!(!path.exists(), "{what}: not deleted");
            // The slot is reusable: a store then serves normally.
            cache.store(key, PAYLOAD, &m);
            assert_eq!(cache.lookup(key).1, CacheTier::Mem, "{what}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn concurrent_same_key_stores_never_tear_the_entry() {
        let dir = temp_dir("race");
        let m = meta("spec", "opt", 20);
        let key = key_of(&m);
        let cache = std::sync::Mutex::new(ResultCache::new(8, Some(&dir)).unwrap());
        // The pre-fix temp name was `.tmp-{key}-{pid}` — identical for
        // every thread of one process, so two stores could interleave
        // writes and rename a torn file into place. The per-store
        // sequence number makes each temp file private.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        cache.lock().unwrap().store(key, PAYLOAD, &m);
                    }
                });
            }
        });
        let mut cache = cache.into_inner().unwrap();
        assert_eq!(cache.lookup(key).0.as_deref(), Some(PAYLOAD));
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
        let metas = [20, 21, 22].map(|arc| meta("spec", "opt", arc));
        let [k1, k2, k3] = [0, 1, 2].map(|i| key_of(&metas[i]));
        let entry_len = entry_line(PAYLOAD, &metas[0]).len() as u64;
        let mut cache = ResultCache::new(8, Some(&dir))
            .unwrap()
            .with_disk_cap(Some(entry_len * 2));
        cache.store(k1, PAYLOAD, &metas[0]);
        cache.store(k2, PAYLOAD, &metas[1]);
        // Age the first two entries so mtime order is unambiguous.
        for (key, secs) in [(k1, 100u64), (k2, 200)] {
            let file = std::fs::File::options()
                .write(true)
                .open(ResultCache::entry_path(&dir, key))
                .unwrap();
            file.set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs))
                .unwrap();
        }
        // The third store exceeds the two-entry cap: the first entry
        // (oldest mtime) is swept, the other two stay.
        cache.store(k3, PAYLOAD, &metas[2]);
        assert_eq!(cache.stats().disk_evictions, 1);
        assert!(!ResultCache::entry_path(&dir, k1).exists());
        assert!(ResultCache::entry_path(&dir, k2).exists());
        assert!(ResultCache::entry_path(&dir, k3).exists());
        // The evicted entry is still memory-resident: lookups hit.
        assert_eq!(
            cache.lookup(k1),
            (Some(PAYLOAD.to_string()), CacheTier::Mem)
        );
        // But a rebuilt cache (cold memory) must recompute it.
        let mut rebuilt = ResultCache::new(8, Some(&dir)).unwrap();
        assert_eq!(rebuilt.lookup(k1), (None, CacheTier::Miss));
        assert_eq!(rebuilt.lookup(k2).1, CacheTier::Disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_clears_both_tiers_and_the_donor_index() {
        let dir = temp_dir("flush");
        let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
        let (a, b) = (meta("specA", "opt", 20), meta("specB", "opt", 20));
        cache.store(key_of(&a), PAYLOAD, &a);
        cache.store(key_of(&b), PAYLOAD, &b);
        let (mem_dropped, disk_removed) = cache.flush();
        assert_eq!(mem_dropped, 2);
        assert_eq!(disk_removed, 2);
        assert_eq!(cache.lookup(key_of(&a)), (None, CacheTier::Miss));
        assert_eq!(cache.lookup(key_of(&b)), (None, CacheTier::Miss));
        let stats = cache.stats();
        assert_eq!(stats.admin_flushes, 1);
        assert_eq!(stats.disk_writes, 2, "flush keeps lifetime history");
        // The cache still works after a flush.
        let c = meta("specC", "opt", 20);
        cache.store(key_of(&c), PAYLOAD, &c);
        assert_eq!(cache.lookup(key_of(&c)).1, CacheTier::Mem);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_removes_one_key_everywhere_and_counts_only_real_removals() {
        let dir = temp_dir("admin-evict");
        let mut cache = ResultCache::new(8, Some(&dir)).unwrap();
        let (a, b) = (meta("specA", "opt", 20), meta("specB", "opt", 20));
        let (ka, kb) = (key_of(&a), key_of(&b));
        cache.store(ka, PAYLOAD, &a);
        cache.store(kb, PAYLOAD, &b);
        assert!(cache.evict(ka));
        assert!(!cache.evict(ka), "second eviction finds nothing");
        let absent = key_of(&meta("specC", "opt", 20));
        assert!(!cache.evict(absent), "absent key is a no-op");
        assert_eq!(cache.lookup(ka), (None, CacheTier::Miss));
        assert!(!ResultCache::entry_path(&dir, ka).exists());
        // The untouched neighbour still serves.
        assert_eq!(cache.lookup(kb).1, CacheTier::Mem);
        assert_eq!(cache.stats().admin_evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
