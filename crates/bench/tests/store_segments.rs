//! Damage and concurrency properties of the segment store.
//!
//! A store directory is a set of append-only segments of checksummed
//! records. Whatever happens to a segment's bytes — a torn tail at any
//! offset, any one byte flipped — reopening must not panic, every probe
//! must be a hit with the original result or a miss, and every record
//! wholly before the damage must still hit. Writers sharing a process,
//! through separate handles or threads on one handle, must never tear
//! each other's records.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use proptest::prelude::*;
use xloops_bench::manifest::PointResult;
use xloops_bench::ResultStore;
use xloops_sim::RunOptions;
use xloops_stats::StatSet;

/// A fresh, empty directory for one store; removed on drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(tag: &str) -> StoreDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("xloops-segments-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key(i: usize) -> String {
    ResultStore::point_key("0123456789abcdef", i, &RunOptions::default())
}

/// A small, distinct stat tree per point, shaped like a real result.
fn result(i: usize) -> PointResult {
    let mut stats = StatSet::new("system");
    stats.set("cycles", 1000 + 37 * i as u64);
    stats.set("instret", 800 + i as u64);
    stats.set_metric("ipc", 0.8 + i as f64 / 100.0);
    let mut lpsu = StatSet::new("lpsu");
    lpsu.set("lanes", 4 + (i as u64 % 2) * 4);
    stats.push_child(lpsu);
    PointResult { stats, error: None }
}

fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list store")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs
}

const POINTS: usize = 4;

/// Saves [`POINTS`] results through one handle and commits, returning
/// the segment's path and the end offset of each record.
fn committed_segment(dir: &Path) -> (PathBuf, Vec<usize>) {
    let store = ResultStore::open(dir).expect("open store");
    let mut ends = Vec::new();
    let mut end = 0;
    for i in 0..POINTS {
        end += 24 + store.save(&key(i), &result(i)).expect("save") as usize;
        ends.push(end);
    }
    store.commit().expect("commit");
    let segs = segments(dir);
    assert_eq!(segs.len(), 1);
    assert_eq!(std::fs::metadata(&segs[0]).expect("segment").len() as usize, end);
    (segs[0].clone(), ends)
}

/// Reopens the damaged store and checks every probe against the rules;
/// `intact` is the offset of the first damaged byte.
fn check_damaged(dir: &Path, ends: &[usize], intact: usize) -> Result<(), TestCaseError> {
    let store = ResultStore::open(dir).expect("reopen damaged store");
    store.set_quiet(true);
    for (i, &end) in ends.iter().enumerate() {
        match store.load(&key(i)) {
            Some((got, _)) => prop_assert_eq!(got, result(i), "point {} misread", i),
            None => prop_assert!(
                end > intact,
                "point {} ends at {} before damage at {}",
                i,
                end,
                intact
            ),
        }
    }
    let s = store.stats();
    prop_assert_eq!(s.hits + s.misses, POINTS as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn truncated_segment_reads_only_whole_records(cut in 0usize..1 << 20) {
        let dir = StoreDir::new("cut");
        let (seg, ends) = committed_segment(&dir.0);
        let cut = cut % ends[POINTS - 1];
        let bytes = std::fs::read(&seg).expect("read segment");
        std::fs::write(&seg, &bytes[..cut]).expect("truncate segment");
        check_damaged(&dir.0, &ends, cut)?;
        let scan = &ResultStore::open(&dir.0).expect("reopen").segments()[0];
        prop_assert_eq!(scan.stopped_at.is_some(), !ends.contains(&cut) && cut > 0);
    }

    #[test]
    fn flipped_byte_is_a_miss_never_a_wrong_result(at in 0usize..1 << 20, mask in 1u8..=255) {
        let dir = StoreDir::new("flip");
        let (seg, ends) = committed_segment(&dir.0);
        let at = at % ends[POINTS - 1];
        let mut bytes = std::fs::read(&seg).expect("read segment");
        bytes[at] ^= mask;
        std::fs::write(&seg, &bytes).expect("flip byte");
        check_damaged(&dir.0, &ends, at)?;
        // A flipped payload byte loses exactly its record. A flipped
        // header byte stops the scan at that record, losing it and every
        // record after it in the segment.
        let store = ResultStore::open(&dir.0).expect("reopen");
        store.set_quiet(true);
        let hits = (0..POINTS).filter(|&i| store.load(&key(i)).is_some()).count();
        let damaged = ends.iter().position(|&end| end > at).expect("byte inside a record");
        let start = if damaged == 0 { 0 } else { ends[damaged - 1] };
        if at < start + 24 {
            prop_assert_eq!(store.segments()[0].stopped_at, Some(start as u64));
            prop_assert_eq!(hits, damaged);
        } else {
            prop_assert_eq!(store.segments()[0].stopped_at, None);
            prop_assert_eq!(hits, POINTS - 1);
        }
    }
}

#[test]
fn concurrent_handles_and_threads_never_tear_records() {
    const KEYS: usize = 64;
    let dir = StoreDir::new("concurrent");
    let a = ResultStore::open(&dir.0).expect("open handle a");
    let b = ResultStore::open(&dir.0).expect("open handle b");
    // Two threads per handle, each saving an overlapping window of 40 keys;
    // together the windows cover every key at least once. The barrier
    // releases all four writers at once.
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for (store, first) in [(&a, 0), (&a, 16), (&b, 32), (&b, 8)] {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for i in first..first + 40 {
                    store.save(&key(i % KEYS), &result(i % KEYS)).expect("save");
                }
                store.commit().expect("commit");
            });
        }
    });
    assert_eq!(segments(&dir.0).len(), 2, "one segment per writing handle");

    let reopened = ResultStore::open(&dir.0).expect("reopen");
    for i in 0..KEYS {
        let got = reopened.load(&key(i)).map(|(r, _)| r);
        assert_eq!(got, Some(result(i)), "key {i}");
    }
    let s = reopened.stats();
    assert_eq!((s.hits, s.misses, s.corrupt), (KEYS as u64, 0, 0));
    let scans = reopened.segments();
    assert_eq!(scans.iter().map(|s| s.records).sum::<u64>(), 4 * 40);
    assert!(scans.iter().all(|s| s.stopped_at.is_none()), "{scans:?}");
}
