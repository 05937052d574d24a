//! The memo cache: canonical-netlist-hash → finished result payload.
//!
//! Same durability protocol as the corpus checkpoint
//! (`crates/bench/src/corpus.rs`): a JSONL file opened in append mode,
//! one `sync_data` per line, and a torn-tail repair on open — if the
//! process died mid-append (SIGKILL, power loss, the `cache.torn`
//! fault), the last line has no trailing newline; open detects that,
//! terminates it, and the parse pass skips the mangled record. Every
//! entry that *was* fully appended survives any crash, so a restarted
//! daemon serves byte-identical cache hits.
//!
//! ## What is cached
//!
//! Only **proved-optimal** results. A proved placement is a pure
//! function of the canonical netlist and the result-shaping options —
//! independent of the deadline, job count, and engine-bisection flags —
//! so the key deliberately excludes those speed-only knobs. Degraded
//! (deadline-expired) and hierarchical results depend on the budget
//! that produced them and are never cached.
//!
//! ## Key
//!
//! FNV-1a 64 over the canonical SPICE rendering of the parsed circuit
//! (`spice::write`, which normalizes whitespace, card order, and net
//! spelling) concatenated with the result-shaping options — including
//! the full effective objective parameterization, since a different
//! objective or height geometry is a different result. 16 hex digits,
//! same shape as `clip_corpus::work_hash`.
//!
//! ## Size bound
//!
//! An optional entry cap turns the cache into a FIFO: when an insert
//! pushes past the cap, the oldest entry (by insertion order) is
//! evicted from memory. The backing file keeps growing by appends until
//! the dead weight reaches the live size, then a **compaction** rewrites
//! it: live entries stream to `<path>.tmp`, the tmp file is synced and
//! atomically renamed over the original. A crash at any point leaves
//! either the old file (possibly with a stale tmp, removed on next
//! open) or the complete new one — never a half-compacted cache.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use clip_layout::jsonio::{self, Json};

use crate::protocol::SynthSpec;

/// Hashes the canonical deck + result-shaping options into a 16-hex-digit
/// cache key.
pub fn canonical_key(canonical_deck: &str, spec: &SynthSpec) -> String {
    // The *effective* objective name, so the legacy `height` flag and
    // its modern spelling `"objective":"width-height"` share an entry.
    let objective = spec.objective.clone().unwrap_or_else(|| {
        if spec.height {
            "width-height".into()
        } else {
            "width".into()
        }
    });
    let defaults = clip_core::ObjectiveSpec::default();
    let opts = format!(
        "|rows={};auto={};max_rows={};stacking={};obj={};pitch={};diff={};rail={};ir={};crit={}",
        spec.rows,
        spec.auto_rows,
        spec.max_rows,
        spec.stacking,
        objective,
        spec.track_pitch.unwrap_or(defaults.track_pitch),
        spec.diffusion_overhead
            .unwrap_or(defaults.diffusion_overhead),
        spec.rail_overhead.unwrap_or(defaults.rail_overhead),
        spec.interrow_weight.unwrap_or(defaults.interrow_weight),
        spec.critical.join(","),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for bytes in [canonical_deck.as_bytes(), opts.as_bytes()] {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A durable memo cache: in-memory map plus its append-only JSONL file,
/// optionally bounded to a maximum entry count (FIFO eviction).
#[derive(Debug)]
pub struct MemoCache {
    path: PathBuf,
    file: File,
    entries: HashMap<String, Json>,
    /// Live hashes in insertion order; front = oldest = next evicted.
    order: VecDeque<String>,
    /// Entry cap (None → unbounded).
    cap: Option<usize>,
    /// Lines in the backing file, live or dead — drives compaction.
    file_lines: usize,
    /// True when open found and repaired a torn final line.
    repaired_torn_tail: bool,
}

impl MemoCache {
    /// Opens an unbounded cache at `path` — see
    /// [`MemoCache::open_capped`].
    ///
    /// # Errors
    ///
    /// Only real I/O failures (permissions, disk). A missing file is
    /// created; a mangled file is loaded best-effort.
    pub fn open(path: &Path) -> io::Result<MemoCache> {
        MemoCache::open_capped(path, None)
    }

    /// Opens (creating if absent) the cache at `path`, repairing a torn
    /// tail, removing any stale compaction temp file left by a crash,
    /// and loading every intact record. With `cap` set, the oldest
    /// entries beyond the cap are evicted on load (and the file
    /// compacted), so a reopened cache holds exactly what the bounded
    /// in-memory cache held.
    ///
    /// Records are one JSON object per line: `{"hash":"…","result":{…}}`.
    /// Unparseable lines are skipped, not fatal — a torn or corrupt
    /// record costs one cache miss, never the daemon.
    ///
    /// # Errors
    ///
    /// Only real I/O failures (permissions, disk). A missing file is
    /// created; a mangled file is loaded best-effort.
    pub fn open_capped(path: &Path, cap: Option<usize>) -> io::Result<MemoCache> {
        // A tmp file here means a compaction died before its rename; the
        // original is still authoritative.
        let _ = std::fs::remove_file(tmp_path(path));
        let mut text = String::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_string(&mut text)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut repaired = false;
        if !text.is_empty() && !text.ends_with('\n') {
            // Torn tail: the writer died mid-append. Terminate the line
            // so future appends start clean; the parse below skips it.
            file.write_all(b"\n")?;
            file.sync_data()?;
            repaired = true;
        }
        let mut entries = HashMap::new();
        let mut order = VecDeque::new();
        let mut file_lines = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            file_lines += 1;
            let Ok(v) = jsonio::parse(line) else { continue };
            let (Some(hash), Some(result)) = (
                v.get("hash").and_then(Json::as_str).map(str::to_owned),
                v.get("result"),
            ) else {
                continue;
            };
            if entries.insert(hash.clone(), result.clone()).is_none() {
                order.push_back(hash);
            }
        }
        let mut cache = MemoCache {
            path: path.to_owned(),
            file,
            entries,
            order,
            cap,
            file_lines,
            repaired_torn_tail: repaired,
        };
        let evicted = cache.evict_to_cap();
        if evicted > 0 {
            cache.compact()?;
        }
        Ok(cache)
    }

    /// Drops oldest entries until the cap holds. Returns how many went.
    fn evict_to_cap(&mut self) -> usize {
        let Some(cap) = self.cap else { return 0 };
        let mut evicted = 0;
        while self.entries.len() > cap {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }

    /// Rewrites the backing file to exactly the live entries: stream to
    /// `<path>.tmp`, sync, atomically rename over the original, reopen
    /// the append handle. A crash mid-compaction leaves the original
    /// file plus a stale tmp (removed on next open); a crash after the
    /// rename leaves the complete new file — no in-between state exists.
    fn compact(&mut self) -> io::Result<()> {
        let tmp = tmp_path(&self.path);
        let mut out = File::create(&tmp)?;
        for hash in &self.order {
            let Some(result) = self.entries.get(hash) else {
                continue;
            };
            out.write_all(entry_line(hash, result).as_bytes())?;
        }
        out.sync_data()?;
        drop(out);
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.file_lines = self.entries.len();
        Ok(())
    }

    /// The cached result payload for `hash`, if present.
    pub fn get(&self, hash: &str) -> Option<&Json> {
        self.entries.get(hash)
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when [`MemoCache::open`] repaired a torn final line.
    pub fn repaired_torn_tail(&self) -> bool {
        self.repaired_torn_tail
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The entry cap (None → unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.cap
    }

    /// Appends `result` under `hash`: one JSONL line, synced to disk
    /// before the insert is visible in memory — a crash after `insert`
    /// returns can never lose the entry.
    ///
    /// `torn` simulates the crash *during* the append (the `cache.torn`
    /// fault site): half the line is written with no newline and the
    /// entry is **not** inserted in memory, exactly the state a real
    /// mid-write SIGKILL leaves behind.
    ///
    /// # Errors
    ///
    /// I/O failures writing or syncing the backing file.
    pub fn insert(&mut self, hash: &str, result: &Json, torn: bool) -> io::Result<()> {
        let line = entry_line(hash, result);
        if torn {
            let half = &line.as_bytes()[..line.len() / 2];
            self.file.write_all(half)?;
            self.file.sync_data()?;
            return Ok(());
        }
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        self.file_lines += 1;
        if self
            .entries
            .insert(hash.to_owned(), result.clone())
            .is_none()
        {
            self.order.push_back(hash.to_owned());
        }
        self.evict_to_cap();
        // Compact once the dead weight (evicted or superseded lines)
        // reaches the live size — amortized O(1) per insert.
        if let Some(cap) = self.cap {
            if self.file_lines >= cap.max(1) * 2 && self.file_lines > self.entries.len() {
                self.compact()?;
            }
        }
        Ok(())
    }

    /// Flushes the backing file (shutdown path; appends are already
    /// synced per line, so this is belt and braces).
    ///
    /// # Errors
    ///
    /// I/O failures syncing the backing file.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// The compaction temp file: same directory (so the rename stays on one
/// filesystem), deterministic name (so a crashed compaction's leftover
/// is recognized and removed on the next open).
fn tmp_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".tmp");
    PathBuf::from(p)
}

fn entry_line(hash: &str, result: &Json) -> String {
    format!(
        "{}\n",
        Json::obj([
            ("hash", Json::Str(hash.to_owned())),
            ("result", result.clone()),
        ])
        .to_compact()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Source;

    fn spec() -> SynthSpec {
        SynthSpec {
            source: Source::Cell("nand2".into()),
            rows: 2,
            auto_rows: false,
            max_rows: 4,
            hier: false,
            stacking: false,
            height: false,
            objective: None,
            track_pitch: None,
            diffusion_overhead: None,
            rail_overhead: None,
            interrow_weight: None,
            critical: Vec::new(),
            pareto: false,
            limit_ms: 60_000,
            jobs: None,
            no_cache: false,
            faults: Vec::new(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("clip_serve_cache_{name}_{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn key_depends_on_deck_and_shaping_options_only() {
        let base = spec();
        let k = canonical_key("* deck\n", &base);
        assert_eq!(k.len(), 16);
        assert_eq!(k, canonical_key("* deck\n", &base));
        // Speed-only knobs don't move the key…
        let mut speedy = base.clone();
        speedy.jobs = Some(8);
        speedy.limit_ms = 1;
        assert_eq!(k, canonical_key("* deck\n", &speedy));
        // …result-shaping ones do.
        let mut taller = base.clone();
        taller.rows = 3;
        assert_ne!(k, canonical_key("* deck\n", &taller));
        assert_ne!(k, canonical_key("* other deck\n", &base));
        // Objective parameters are result-shaping too.
        let mut hw = base.clone();
        hw.objective = Some("height-width".into());
        assert_ne!(k, canonical_key("* deck\n", &hw));
        let mut pitched = base.clone();
        pitched.track_pitch = Some(2);
        assert_ne!(k, canonical_key("* deck\n", &pitched));
        let mut crit = base.clone();
        crit.critical = vec!["z".into()];
        assert_ne!(k, canonical_key("* deck\n", &crit));
        // The legacy `height` flag and its modern spelling share a key.
        let mut legacy = base.clone();
        legacy.height = true;
        let mut modern = base.clone();
        modern.objective = Some("width-height".into());
        assert_eq!(
            canonical_key("* deck\n", &legacy),
            canonical_key("* deck\n", &modern)
        );
        // Explicitly spelling out a default matches omitting it.
        let mut explicit = base.clone();
        explicit.track_pitch = Some(1);
        assert_eq!(k, canonical_key("* deck\n", &explicit));
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = tmp("roundtrip");
        let payload = Json::obj([("width", Json::Int(4)), ("cell", Json::Str("x".into()))]);
        {
            let mut c = MemoCache::open(&path).unwrap();
            assert!(c.is_empty());
            c.insert("abc123", &payload, false).unwrap();
            assert_eq!(c.get("abc123"), Some(&payload));
        }
        let c = MemoCache::open(&path).unwrap();
        assert!(!c.repaired_torn_tail());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("abc123"), Some(&payload));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_repaired_and_intact_entries_survive() {
        let path = tmp("torn");
        let payload = Json::obj([("width", Json::Int(7))]);
        {
            let mut c = MemoCache::open(&path).unwrap();
            c.insert("good", &payload, false).unwrap();
            // Simulated mid-append crash: half a line, no newline, and
            // the entry never becomes visible.
            c.insert("lost", &payload, true).unwrap();
            assert!(c.get("lost").is_none());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.ends_with('\n'), "fixture must end torn");
        {
            let mut c = MemoCache::open(&path).unwrap();
            assert!(c.repaired_torn_tail());
            assert_eq!(c.len(), 1, "only the intact entry loads");
            assert_eq!(c.get("good"), Some(&payload));
            // Appends after repair land on a clean newline boundary.
            c.insert("next", &payload, false).unwrap();
        }
        let c = MemoCache::open(&path).unwrap();
        assert!(!c.repaired_torn_tail());
        assert_eq!(c.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    fn payload(n: i64) -> Json {
        Json::obj([("width", Json::Int(n))])
    }

    #[test]
    fn capped_cache_evicts_oldest_first_and_survives_reopen() {
        let path = tmp("evict");
        {
            let mut c = MemoCache::open_capped(&path, Some(2)).unwrap();
            assert_eq!(c.capacity(), Some(2));
            for i in 0..3 {
                c.insert(&format!("k{i}"), &payload(i), false).unwrap();
            }
            assert_eq!(c.len(), 2);
            assert!(c.get("k0").is_none(), "oldest entry is evicted");
            assert!(c.get("k1").is_some() && c.get("k2").is_some());
        }
        // A reopen under the same cap reconstructs the identical state:
        // newest entries win, in file order.
        let c = MemoCache::open_capped(&path, Some(2)).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get("k0").is_none());
        assert!(c.get("k1").is_some() && c.get("k2").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_bounds_the_backing_file() {
        let path = tmp("compact");
        let mut c = MemoCache::open_capped(&path, Some(2)).unwrap();
        for i in 0..20 {
            c.insert(&format!("k{i}"), &payload(i), false).unwrap();
        }
        assert_eq!(c.len(), 2);
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(
            lines < 4,
            "file must be compacted to about the live size, found {lines} lines"
        );
        // The survivors are the newest inserts and still round-trip.
        let c = MemoCache::open_capped(&path, Some(2)).unwrap();
        assert_eq!(c.get("k18"), Some(&payload(18)));
        assert_eq!(c.get("k19"), Some(&payload(19)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_kill_during_compaction_leaves_a_recoverable_cache() {
        let path = tmp("killed_compaction");
        {
            let mut c = MemoCache::open(&path).unwrap();
            c.insert("good", &payload(1), false).unwrap();
            // The crash: a half-written compaction tmp file AND a torn
            // append on the original — the worst state a SIGKILL during
            // compact-then-append can leave behind.
            c.insert("lost", &payload(2), true).unwrap();
        }
        let tmp_file = super::tmp_path(&path);
        std::fs::write(&tmp_file, "{\"hash\":\"half").unwrap();
        {
            let c = MemoCache::open_capped(&path, Some(8)).unwrap();
            assert!(c.repaired_torn_tail());
            assert_eq!(c.len(), 1, "only the intact entry survives");
            assert_eq!(c.get("good"), Some(&payload(1)));
            assert!(
                !tmp_file.exists(),
                "the stale compaction tmp is removed on open"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
