//! Durable content-addressed result store.
//!
//! A [`crate::Runner`]'s memo cache dies with its process, so repeat
//! sweeps re-simulate every point. This module persists finished point
//! results on disk, keyed by *what produced them* rather than where they
//! ran: the store key is FNV-1a-64 over
//!
//! ```text
//! "<spec fingerprint>/<point index>/<result-affecting RunOptions JSON>"
//! ```
//!
//! so any machine sweeping the same manifest under the same options
//! computes the same keys — and a warm sweep becomes a run of cache
//! reads. Sharding does not enter the key: a store warmed by a sharded
//! sweep serves an unsharded one and vice versa. Neither do the
//! [`RunOptions`] knobs that cannot change a result — `serial`/`threads`
//! (CI pins serial == parallel byte identity) and the `bench_date` stamp
//! — so a store warmed serially serves a parallel sweep.
//!
//! Results live in append-only segment files, `<pid>-<n>.seg`, one per
//! writing handle; each record is a checksummed 24-byte header and the
//! point's [`PointResult`] in the [`xloops_stats::binary`] format, whose
//! trailing checksum covers it. [`ResultStore::save`] appends without
//! syncing and [`ResultStore::commit`] makes a sweep durable with one
//! fsync. [`ResultStore::open`] indexes the segment headers and keeps the
//! files open, so a load is one `pread`. A scan stops at the first torn
//! or corrupt header and never writes: another process may be appending.
//! Results are deterministic, so any intact record of a key serves it;
//! damage costs a re-simulation, never a wrong result or a panic.
//!
//! `XLOOPS_STORE` is not a [`RunOptions`] field, so where the cache lives
//! never enters a key. Errored points are never written: a transient
//! failure (cycle budget, fault injection) must not become permanent.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockWriteGuard};

use xloops_sim::RunOptions;
use xloops_stats::{binary, JsonValue, StatSet};

use crate::manifest::{PointResult, ShardDoc};

pub use crate::sched::run_shard_stored;

const SEGMENT_EXT: &str = ".seg";
const HEADER_LEN: usize = 24;

/// A directory of durable point results. Opening scans the segment
/// headers; all traffic counters are monotonic and thread-safe,
/// mirroring [`crate::runner::Runner::cache_stats`] one layer down.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    segs: RwLock<Segments>,
    quiet: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// Each key's record payloads as (segment, offset, length), the scan
/// report, and this handle's own segment with its written and synced
/// lengths once it has saved anything.
#[derive(Debug, Default)]
struct Segments {
    index: HashMap<u64, Vec<(Arc<File>, u64, u32)>>,
    scans: Vec<SegmentScan>,
    own: Option<(Arc<File>, u64, u64)>,
}

/// One segment as [`ResultStore::open`] found it (`xloops store stat`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentScan {
    /// File name.
    pub name: String,
    /// Records with an intact header.
    pub records: u64,
    /// File length.
    pub bytes: u64,
    /// Where the scan stopped short of `bytes`: a torn tail, a damaged
    /// header, or a record still being appended.
    pub stopped_at: Option<u64>,
}

/// Snapshot of a store's traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Probes that found no (usable) entry.
    pub misses: u64,
    /// The subset of misses caused by a *damaged* entry (torn write,
    /// bit rot, schema drift) rather than an absent one.
    pub corrupt: u64,
    /// Total bytes of entries read.
    pub bytes_read: u64,
    /// Total bytes of entries written.
    pub bytes_written: u64,
}

impl StoreStats {
    /// The snapshot as a JSON object (the `store` section of
    /// `BENCH_<date>.json`).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("hits", JsonValue::UInt(self.hits)),
            ("misses", JsonValue::UInt(self.misses)),
            ("corrupt", JsonValue::UInt(self.corrupt)),
            ("bytes_read", JsonValue::UInt(self.bytes_read)),
            ("bytes_written", JsonValue::UInt(self.bytes_written)),
        ])
    }
}

/// How a [`ResultStore::load_classified`] probe resolved. The scheduler
/// needs the three-way split — an absent entry is normal cold-cache
/// behavior, a corrupt one is worth a warning and a
/// `profile.store.corrupt` count — while plain [`ResultStore::load`]
/// callers still see both as a miss.
#[derive(Debug)]
pub(crate) enum Loaded {
    /// A usable entry: the decoded result and its size in bytes.
    Hit(PointResult, u64),
    /// No record of the key on disk.
    Absent,
    /// Records exist but none can be used (I/O error, failed checksum,
    /// schema mismatch); the point must re-simulate and a fresh record
    /// will be appended.
    Corrupt,
}

/// Report of a [`ResultStore::prune`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Entries whose key is live under some given manifest.
    pub kept: u64,
    /// Records not carried over (dead, superseded or damaged), plus
    /// legacy `.dxr` and `.tmp-*` files deleted.
    pub pruned: u64,
    /// How much smaller the store's files got.
    pub bytes_freed: u64,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir` and indexes
    /// its segments.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let quiet = std::env::var("XLOOPS_STORE_QUIET").is_ok_and(|v| v == "1");
        Ok(ResultStore {
            segs: RwLock::new(scan(&dir)?),
            dir,
            quiet: AtomicBool::new(quiet),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// Silences (or re-enables) the store's stderr warnings. Initialized
    /// from `XLOOPS_STORE_QUIET=1`; the serve daemon also sets it, because
    /// a daemon's corruption diagnostics belong in its own log stream, not
    /// interleaved with whatever client happens to be connected. Damage is
    /// still *counted* (`StoreStats::corrupt`, `profile.store.corrupt`)
    /// either way — quiet mutes the messenger, never the measurement.
    pub fn set_quiet(&self, quiet: bool) {
        self.quiet.store(quiet, Ordering::Relaxed);
    }

    /// One store warning on stderr, unless the store is quiet.
    pub(crate) fn warn(&self, message: std::fmt::Arguments<'_>) {
        if !self.quiet.load(Ordering::Relaxed) {
            eprintln!("[store] warning: {message}");
        }
    }

    /// The store named by `XLOOPS_STORE`, if set. An unopenable directory
    /// is a warning and `None` (the sweep still runs, just cold), keeping
    /// the knob's failure mode consistent with the corruption policy.
    pub fn from_env() -> Option<ResultStore> {
        let dir = std::env::var("XLOOPS_STORE").ok().filter(|d| !d.is_empty())?;
        match ResultStore::open(&dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("[store] warning: cannot open {dir}: {e}; running without a store");
                None
            }
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The segments as this handle last scanned them.
    pub fn segments(&self) -> Vec<SegmentScan> {
        self.segs.read().unwrap_or_else(PoisonError::into_inner).scans.clone()
    }

    fn segs_mut(&self) -> RwLockWriteGuard<'_, Segments> {
        self.segs.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The content-addressed key of one point: FNV-1a-64 (the manifest
    /// fingerprint hash) over `"<fingerprint>/<index>/<options JSON>"`,
    /// formatted as 16 hex digits. The options JSON keeps only the
    /// result-affecting knobs of the canonical
    /// [`RunOptions::to_json_value`] rendering — supervision changes
    /// degradation behaviour, `profile` adds stat nodes, `sample`
    /// changes the timing estimate — while pure scheduling/metadata
    /// knobs (`serial`, `threads`, `bench_date`) are dropped so they
    /// cannot fragment the cache.
    pub fn point_key(fingerprint: &str, index: usize, options: &RunOptions) -> String {
        keyed(fingerprint, index, &key_options(options))
    }

    /// Loads the entry under `key`, returning the result and the entry's
    /// size in bytes. Any failure — absent key, I/O error, failed
    /// checksum, schema mismatch — is a miss; only the non-absent kinds
    /// warn on stderr (through the quiet-respecting path) and count as
    /// corruption.
    pub fn load(&self, key: &str) -> Option<(PointResult, u64)> {
        match self.load_classified(key) {
            Loaded::Hit(result, bytes) => Some((result, bytes)),
            Loaded::Absent | Loaded::Corrupt => None,
        }
    }

    /// [`ResultStore::load`] with the miss cause preserved — the
    /// scheduler's probe wants to know a damaged entry from a cold one.
    /// A key's records are tried newest first, one at a time: the read
    /// lock covers copying out one record's location, never the disk
    /// read or the decode, so a concurrent save waits for neither.
    pub(crate) fn load_classified(&self, key: &str) -> Loaded {
        let bits = key_bits(key);
        // The newest record below index `below`, with its index.
        let older = |below: usize| {
            let segs = self.segs.read().unwrap_or_else(PoisonError::into_inner);
            let records = bits.and_then(|k| segs.index.get(&k)).map_or(&[][..], Vec::as_slice);
            let i = below.min(records.len()).checked_sub(1)?;
            Some((i, records[i].clone()))
        };
        let (mut below, mut why) = (usize::MAX, None);
        while let Some((i, (file, at, len))) = older(below) {
            below = i;
            match read_record(&file, at, len) {
                Ok(result) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.bytes_read.fetch_add(u64::from(len), Ordering::Relaxed);
                    return Loaded::Hit(result, u64::from(len));
                }
                Err(e) => why = Some(e),
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let Some(why) = why else { return Loaded::Absent };
        self.warn(format_args!("{}: entry {key}: {why}; treating as a miss", self.dir.display()));
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        Loaded::Corrupt
    }

    /// Appends `result` under `key` to this handle's segment, created on
    /// first use, and returns the encoded payload size. The record is
    /// visible to this handle at once but is durable only after
    /// [`ResultStore::commit`]; a crash before that loses it, and its
    /// point re-simulates.
    pub fn save(&self, key: &str, result: &PointResult) -> io::Result<u64> {
        let bits = key_bits(key).ok_or_else(|| io::Error::other(format!("bad key {key:?}")))?;
        let payload = result.to_binary();
        let len = u32::try_from(payload.len()).map_err(io::Error::other)?;
        let mut segs = self.segs_mut();
        if segs.own.is_none() {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let file = loop {
                let n = NEXT.fetch_add(1, Ordering::Relaxed);
                let path = self.dir.join(format!("{}-{n}{SEGMENT_EXT}", std::process::id()));
                match OpenOptions::new().read(true).write(true).create_new(true).open(path) {
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                    file => break file?,
                }
            };
            segs.own = Some((Arc::new(file), 0, 0));
        }
        let Some((file, end, _)) = segs.own.as_mut() else { unreachable!() };
        let (file, at) = (Arc::clone(file), *end);
        file.write_all_at(&[&header(bits, len)[..], &payload].concat(), at)?;
        *end += (HEADER_LEN + payload.len()) as u64;
        let loc = (file, at + HEADER_LEN as u64, len);
        segs.index.entry(bits).or_insert_with(|| Vec::with_capacity(1)).push(loc);
        self.bytes_written.fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(payload.len() as u64)
    }

    /// Makes every record this handle saved durable: one fsync of its
    /// segment, plus the directory the first time so the segment's name
    /// survives a crash. A no-op when nothing was saved since the last.
    pub fn commit(&self) -> io::Result<()> {
        let mut segs = self.segs_mut();
        let Some((file, end, synced)) = segs.own.as_mut().filter(|o| o.2 < o.1) else {
            return Ok(());
        };
        file.sync_all()?;
        if *synced == 0 {
            File::open(&self.dir)?.sync_all()?;
        }
        *synced = *end;
        Ok(())
    }

    /// Copies a shard document's results into the store — how
    /// `merge --store` turns a pile of shard files into a warm cache —
    /// and commits them. Usable entries already present are left alone
    /// (a corrupt one is a load miss and gets rewritten); errored points
    /// are never stored.
    pub fn backfill(&self, doc: &ShardDoc) {
        for (i, pr) in &doc.results {
            if pr.error.is_some() {
                continue;
            }
            let key = ResultStore::point_key(&doc.fingerprint, *i, &doc.options);
            if self.load(&key).is_some() {
                continue;
            }
            if let Err(e) = self.save(&key, pr) {
                self.warn(format_args!("cannot backfill entry {key}: {e}"));
            }
        }
        if let Err(e) = self.commit() {
            self.warn(format_args!("cannot commit backfilled entries: {e}"));
        }
    }

    /// Compacts the store: one intact record of each key in `live` is
    /// appended to a fresh segment and committed, then every older
    /// segment and any legacy `.dxr`/`.tmp-*` file is deleted. A crash
    /// midway leaves only duplicate records. Other files are not the
    /// store's to touch. The caller assembles `live` from manifests via
    /// [`ResultStore::point_key`] — see `xloops store prune`.
    pub fn prune(&self, live: &HashSet<String>) -> io::Result<PruneReport> {
        let old = scan(&self.dir)?;
        *self.segs_mut() = Segments::default();
        let mut keys: Vec<&String> = live.iter().collect();
        keys.sort();
        let mut report = PruneReport::default();
        for key in keys {
            let records = key_bits(key).and_then(|k| old.index.get(&k)).into_iter().flatten();
            if let Some(result) = records.rev().find_map(|r| read_record(&r.0, r.1, r.2).ok()) {
                self.save(key, &result)?;
                report.kept += 1;
            }
        }
        self.commit()?;
        let mut freed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let (path, name) = entry.map(|e| (e.path(), e.file_name()))?;
            let name = name.to_string_lossy();
            let legacy = name.ends_with(".dxr") || name.starts_with(".tmp-");
            if legacy || old.scans.iter().any(|s| s.name == name) {
                freed += fs::metadata(&path)?.len();
                fs::remove_file(&path)?;
                report.pruned += u64::from(legacy);
            }
        }
        report.pruned += old.scans.iter().map(|s| s.records).sum::<u64>() - report.kept;
        let written = self.segs_mut().own.as_ref().map_or(0, |own| own.1);
        report.bytes_freed = freed.saturating_sub(written);
        *self.segs_mut() = scan(&self.dir)?;
        Ok(report)
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// The options part of [`ResultStore::point_key`], rendered once for
/// every key a sweep computes under the same options.
pub(crate) fn key_options(options: &RunOptions) -> String {
    match options.to_json_value() {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .into_iter()
                .filter(|(k, _)| matches!(k.as_str(), "supervisor" | "profile" | "sample"))
                .collect(),
        ),
        v => v,
    }
    .render()
}

/// [`ResultStore::point_key`] with its options part already rendered by
/// [`key_options`].
pub(crate) fn keyed(fingerprint: &str, index: usize, options: &str) -> String {
    let text = format!("{fingerprint}/{index}/{options}");
    format!("{:016x}", binary::fnv1a64(text.as_bytes()))
}

/// A store key as the 64-bit value its 16 lowercase hex digits spell.
fn key_bits(key: &str) -> Option<u64> {
    let digits = key.len() == 16 && key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    digits.then(|| u64::from_str_radix(key, 16).ok()).flatten()
}

/// Reads and decodes one record payload.
fn read_record(file: &File, at: u64, len: u32) -> Result<PointResult, String> {
    let mut bytes = vec![0; len as usize];
    file.read_exact_at(&mut bytes, at).map_err(|e| e.to_string())?;
    PointResult::from_binary(&bytes).map_err(|e| e.to_string())
}

/// A record header, which the payload follows (integers little-endian):
///
/// ```text
/// header := "XLR2" key:u64 len:u32 fnv1a64(previous 16 bytes):u64
/// ```
///
/// The magic's last byte is the store generation; the one-file-per-entry
/// `.dxr` layout was generation 1, and its files are never read.
fn header(key: u64, len: u32) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    h[..4].copy_from_slice(b"XLR2");
    h[4..12].copy_from_slice(&key.to_le_bytes());
    h[12..16].copy_from_slice(&len.to_le_bytes());
    let sum = binary::fnv1a64(&h[..16]);
    h[16..].copy_from_slice(&sum.to_le_bytes());
    h
}

/// Indexes every segment in `dir` up to its length at open time, each
/// until its first record with a torn or corrupt header.
fn scan(dir: &Path) -> io::Result<Segments> {
    let mut names: Vec<String> = fs::read_dir(dir)?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(SEGMENT_EXT))
        .collect();
    names.sort();
    let mut segs = Segments::default();
    for name in names {
        let file = match File::open(dir.join(&name)) {
            Ok(file) => Arc::new(file),
            // A segment pruned since the listing is skipped.
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let bytes = file.metadata()?.len();
        let mut reader = BufReader::new(&*file);
        let (mut at, mut records, mut h) = (0, 0, [0; HEADER_LEN]);
        while at + HEADER_LEN as u64 <= bytes && reader.read_exact(&mut h).is_ok() {
            let key = u64::from_le_bytes(h[4..12].try_into().unwrap_or_default());
            let len = u32::from_le_bytes(h[12..16].try_into().unwrap_or_default());
            let end = at + (HEADER_LEN as u64) + u64::from(len);
            if header(key, len) != h || end > bytes {
                break;
            }
            // Most keys have one record; don't reserve room for four.
            let loc = (Arc::clone(&file), end - u64::from(len), len);
            segs.index.entry(key).or_insert_with(|| Vec::with_capacity(1)).push(loc);
            reader.seek_relative(i64::from(len))?;
            (at, records) = (end, records + 1);
        }
        let stopped_at = (at < bytes).then_some(at);
        segs.scans.push(SegmentScan { name, records, bytes, stopped_at });
    }
    Ok(segs)
}

/// Grafts a `store` child onto the result's `profile` node (creating the
/// node if the tree has none) so per-point cache traffic rides in the
/// non-deterministic profile stat family, never in golden artifacts.
/// Called by the scheduler's assembly pass ([`crate::sched`]).
pub(crate) fn attach_store_counters(stats: &mut StatSet, hit: bool, bytes: u64, corrupt: bool) {
    let mut store = StatSet::new("store");
    store.set("hits", hit as u64);
    store.set("misses", !hit as u64);
    store.set("corrupt", corrupt as u64);
    store.set("bytes_read", if hit { bytes } else { 0 });
    store.set("bytes_written", if hit { 0 } else { bytes });
    match stats.child_mut("profile") {
        Some(profile) => {
            profile.push_child(store);
        }
        None => {
            let mut profile = StatSet::new("profile");
            profile.push_child(store);
            stats.push_child(profile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{merge, render_spec, run_shard, ExperimentSpec};

    fn store_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("xloops-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The store's segment files, in name order.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut segs: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().ends_with(SEGMENT_EXT))
            .collect();
        segs.sort();
        segs
    }

    /// Every record of a segment file as (key, payload offset, payload
    /// length), in file order.
    fn records(bytes: &[u8]) -> Vec<(u64, usize, usize)> {
        let mut out = Vec::new();
        let mut at = 0;
        while at + HEADER_LEN <= bytes.len() {
            let key = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
            let len = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().unwrap());
            assert_eq!(bytes[at..at + HEADER_LEN], header(key, len), "intact header at {at}");
            out.push((key, at + HEADER_LEN, len as usize));
            at += HEADER_LEN + len as usize;
        }
        out
    }

    fn fig9ish_spec() -> ExperimentSpec {
        // Small but real: two points sharing a kernel, one baseline.
        crate::experiments::all_specs()
            .into_iter()
            .find(|s| s.name == "table2")
            .map(|mut s| {
                s.points.truncate(3);
                s.sections.clear();
                s
            })
            .expect("table2 spec exists")
    }

    #[test]
    fn cold_sweep_populates_and_warm_sweep_reads() {
        let dir = store_dir("warm");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions::default();

        let cold = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));
        let s = store.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses as usize, spec.points.len());
        assert!(s.bytes_written > 0);

        let warm_store = ResultStore::open(&dir).unwrap();
        let warm = run_shard_stored(&spec, 0, 1, options.clone(), Some(&warm_store));
        let w = warm_store.stats();
        assert_eq!(w.hits as usize, spec.points.len());
        assert_eq!(w.misses, 0);
        assert_eq!(w.bytes_written, 0);
        assert_eq!(cold, warm, "warm shard doc must equal the cold one");
        // And both equal the storeless run.
        assert_eq!(warm, run_shard(&spec, 0, 1, options));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_change_misses_the_cache() {
        let dir = store_dir("options");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let plain = RunOptions::default();
        let _ = run_shard_stored(&spec, 0, 1, plain.clone(), Some(&store));

        let sampled = RunOptions {
            sample: Some(xloops_sim::SampleSpec::new(500, 100, 500).unwrap()),
            ..RunOptions::default()
        };
        let fp = spec.fingerprint();
        for i in 0..spec.points.len() {
            assert_ne!(
                ResultStore::point_key(&fp, i, &plain),
                ResultStore::point_key(&fp, i, &sampled),
            );
            assert!(store.load(&ResultStore::point_key(&fp, i, &sampled)).is_none());
        }

        // Scheduling/metadata knobs are proven result-neutral (CI pins
        // serial == parallel byte identity) and must not fragment the
        // cache: same keys, and the warm entries still serve.
        let relabeled = RunOptions {
            serial: true,
            threads: Some(7),
            bench_date: Some("2026-08-08".into()),
            ..RunOptions::default()
        };
        for i in 0..spec.points.len() {
            let key = ResultStore::point_key(&fp, i, &relabeled);
            assert_eq!(ResultStore::point_key(&fp, i, &plain), key);
            assert!(store.load(&key).is_some());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses_and_get_rewritten() {
        let dir = store_dir("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions::default();
        let cold = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));

        // One sweep, one segment, one record per point. Flip a payload
        // byte of the first record and tear the last one off mid-payload;
        // leave the rest alone.
        let segs = segment_files(&dir);
        assert_eq!(segs.len(), 1);
        let mut bytes = fs::read(&segs[0]).unwrap();
        let recs = records(&bytes);
        assert_eq!(recs.len(), spec.points.len());
        bytes[recs[0].1 + 7] ^= 0x20;
        let (_, last_at, last_len) = recs[recs.len() - 1];
        bytes.truncate(last_at + last_len / 2);
        fs::write(&segs[0], &bytes).unwrap();

        let warm_store = ResultStore::open(&dir).unwrap();
        let warm = run_shard_stored(&spec, 0, 1, options, Some(&warm_store));
        let w = warm_store.stats();
        assert_eq!(w.misses, 2, "both damaged entries must re-simulate");
        assert_eq!(w.hits as usize, spec.points.len() - 2);
        assert_eq!(warm, cold, "recovery must reproduce the cold results");
        // The damaged entries were rewritten whole, into a new segment.
        assert_eq!(segment_files(&dir).len(), 2);
        let again = ResultStore::open(&dir).unwrap();
        let rewarm = run_shard_stored(&spec, 0, 1, cold.options.clone(), Some(&again));
        assert_eq!(again.stats().hits as usize, spec.points.len());
        assert_eq!(again.stats().corrupt, 0, "an intact record outranks a damaged one");
        assert_eq!(rewarm, cold);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_mode_grafts_store_counters() {
        let dir = store_dir("profile");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions { profile: true, ..RunOptions::default() };
        let cold = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));
        for (_, pr) in &cold.results {
            let miss = pr.stats.lookup("profile.store.misses").unwrap().as_counter();
            assert_eq!(miss, Some(1));
        }
        let warm_store = ResultStore::open(&dir).unwrap();
        let warm = run_shard_stored(&spec, 0, 1, options, Some(&warm_store));
        for (_, pr) in &warm.results {
            assert_eq!(pr.stats.lookup("profile.store.hits").unwrap().as_counter(), Some(1));
            assert!(pr.stats.lookup("profile.store.bytes_read").unwrap().as_counter().unwrap() > 0);
        }
        // Store entries themselves never carry the grafted counters: the
        // warm read's trees differ from the cold ones only in the graft.
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_multi_spec_sweep_matches_plain_render_and_dedups() {
        let dir = store_dir("specs");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions::default();
        let specs = vec![spec.clone(), spec.clone()];
        let swept = crate::sched::Scheduler::new(options.clone(), Some(&store))
            .with_pool(None)
            .run(&crate::sched::all_points(&specs));
        assert!(swept.failures.is_empty());
        // Identical specs: each unique point simulates once even though
        // the store records misses for both spec copies.
        assert!(swept.prefill.unique_points <= spec.points.len());
        let direct = run_shard(&spec, 0, 1, options.clone());
        let (merged_spec, merged) = merge(&[direct]).unwrap();
        for outcomes in &swept.outcomes {
            let rendered: Vec<_> = outcomes.iter().map(|o| o.result.clone()).collect();
            assert_eq!(
                render_spec(&spec, &rendered),
                render_spec(&merged_spec, &merged),
                "store-backed render must match the plain one"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Golden keys: `point_key` is the on-disk address of every stored
    /// result, so changing it silently orphans every existing store. This
    /// pins the exact hash for a representative options spread; if it
    /// fails, either restore compatibility or document the store
    /// generation bump in DESIGN.md and bump `FORMAT_VERSION`.
    #[test]
    fn point_key_is_pinned() {
        let fp = "0123456789abcdef";
        let sampled = RunOptions {
            sample: Some(xloops_sim::SampleSpec::new(10000, 2000, 10000).unwrap()),
            ..RunOptions::default()
        };
        let supervised = RunOptions {
            supervisor: Some(xloops_sim::SupervisorConfig::protected()),
            ..RunOptions::default()
        };
        let keys = [
            ResultStore::point_key(fp, 7, &RunOptions::default()),
            ResultStore::point_key(fp, 7, &sampled),
            ResultStore::point_key(fp, 7, &supervised),
            ResultStore::point_key(fp, 8, &RunOptions::default()),
        ];
        assert_eq!(
            keys,
            [
                "3bbd390446adcd6c".to_string(),
                "98f07319880c7d9b".to_string(),
                "c2c3c6d55398b2bf".to_string(),
                "2ab873f2b7d076d5".to_string(),
            ]
        );
    }

    #[test]
    fn prune_keeps_live_entries_and_sweeps_the_rest() {
        let dir = store_dir("prune");
        let store = ResultStore::open(&dir).unwrap();
        let spec = fig9ish_spec();
        let options = RunOptions::default();
        let cold = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));

        // A dead record (stale key) in a second segment, a live key saved
        // twice, a legacy generation-1 entry, an orphaned temp file, and a
        // foreign file that prune must not touch.
        let other = ResultStore::open(&dir).unwrap();
        let fp = spec.fingerprint();
        other.save(&format!("{:016x}", 0xdeadu64), &cold.results[0].1).unwrap();
        other.save(&ResultStore::point_key(&fp, 0, &options), &cold.results[0].1).unwrap();
        other.commit().unwrap();
        fs::write(dir.join(format!("{:016x}.dxr", 0xbeefu64)), b"stale").unwrap();
        fs::write(dir.join(".tmp-feedface-99999"), b"orphan").unwrap();
        fs::write(dir.join("README.txt"), b"not a store entry").unwrap();
        assert_eq!(segment_files(&dir).len(), 2);

        let live: HashSet<String> =
            (0..spec.points.len()).map(|i| ResultStore::point_key(&fp, i, &options)).collect();
        let report = store.prune(&live).unwrap();
        assert_eq!(report.kept as usize, spec.points.len());
        assert_eq!(report.pruned, 4, "stale + duplicate record, legacy entry, temp file");
        assert!(report.bytes_freed > 0);
        assert!(dir.join("README.txt").exists(), "foreign files survive prune");
        let segs = segment_files(&dir);
        assert_eq!(segs.len(), 1, "compaction leaves one segment");
        assert_eq!(records(&fs::read(&segs[0]).unwrap()).len(), spec.points.len());
        assert_eq!(store.segments().len(), 1, "the pruning handle sees the new layout");

        // Every live entry still serves, from a fresh handle and the
        // pruning one alike.
        let warm = ResultStore::open(&dir).unwrap();
        let _ = run_shard_stored(&spec, 0, 1, options.clone(), Some(&warm));
        assert_eq!(warm.stats().hits as usize, spec.points.len());
        assert_eq!(warm.stats().misses, 0);
        for i in 0..spec.points.len() {
            assert!(store.load(&ResultStore::point_key(&fp, i, &options)).is_some());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_loads_are_counted_and_quiet_suppresses_nothing_else() {
        let dir = store_dir("quietcorrupt");
        fs::create_dir_all(&dir).unwrap();
        let key = ResultStore::point_key("feedfacefeedface", 0, &RunOptions::default());
        // An intact header over a garbled payload.
        let garbage = b"\xd8XLS garbage";
        let record = [&header(key_bits(&key).unwrap(), garbage.len() as u32)[..], garbage];
        fs::write(dir.join(format!("0-0{SEGMENT_EXT}")), record.concat()).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        store.set_quiet(true); // keep the damage warning out of test output
        assert!(store.load(&key).is_none());
        let s = store.stats();
        assert_eq!(s.corrupt, 1, "damaged entry must be counted, not just missed");
        assert_eq!(s.misses, 1);
        assert_eq!(s.to_json_value().get("corrupt").and_then(JsonValue::as_f64), Some(1.0));
        // An absent key is a plain miss, not corruption.
        assert!(store.load("0000000000000000").is_none());
        assert_eq!(store.stats().corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
