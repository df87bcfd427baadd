//! End-to-end test of the durable result store against the committed
//! artifacts: a cold Figure 9 sweep populates the store, a warm rerun is
//! served entirely from disk, and both render `results/fig9.txt` byte
//! for byte. Also pins the cache-key discipline (changing [`RunOptions`]
//! must miss), corruption recovery (a damaged segment record is a miss
//! that gets rewritten, never a panic), and the binary shard format's
//! size bound.

use xloops::bench::experiments::fig9_spec;
use xloops::bench::manifest::render_spec;
use xloops::bench::store::run_shard_stored;
use xloops::bench::ResultStore;
use xloops::sim::{RunOptions, SampleSpec};

fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A fresh store directory under the target-local temp dir; removed on
/// drop so repeated test runs stay cold.
struct StoreDir(std::path::PathBuf);

impl StoreDir {
    fn new(tag: &str) -> StoreDir {
        let dir =
            std::env::temp_dir().join(format!("xloops-store-rt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cold_then_warm_fig9_sweep_is_byte_identical_and_fully_cached() {
    let spec = fig9_spec();
    let options = RunOptions::default();
    let dir = StoreDir::new("fig9");
    let golden = committed("fig9");

    // Cold: every point simulates and is written to the store.
    let store = ResultStore::open(&dir.0).expect("open store");
    let cold = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "a fresh store has nothing to serve");
    assert_eq!(stats.misses as usize, spec.points.len());
    assert!(stats.bytes_written > 0);
    let results: Vec<_> = cold.results.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(render_spec(&spec, &results), golden);

    // Warm: a fresh store handle on the same directory serves every
    // point from disk — zero simulations, identical artifact.
    let store = ResultStore::open(&dir.0).expect("reopen store");
    let warm = run_shard_stored(&spec, 0, 1, options.clone(), Some(&store));
    let stats = store.stats();
    assert_eq!(stats.hits as usize, spec.points.len(), "warm run must be fully store-served");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.bytes_written, 0);
    let results: Vec<_> = warm.results.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(render_spec(&spec, &results), golden);

    // The two shard documents agree byte for byte in both file formats.
    assert_eq!(warm.to_json(), cold.to_json());
    assert_eq!(warm.to_binary(), cold.to_binary());

    // Size bound pinned by the issue: the binary shard encoding stays at
    // or under a third of the pretty-JSON file format.
    let json = cold.to_json().len();
    let binary = cold.to_binary().len();
    assert!(
        binary * 3 <= json,
        "binary shard must be <= 1/3 of pretty JSON, got {binary} vs {json}"
    );

    // Changed RunOptions derive different keys: a sampled sweep finds
    // none of the unsampled entries (pure key probes, no simulation).
    let sampled = RunOptions {
        sample: Some(SampleSpec::new(1000, 100, 1000).expect("valid sample spec")),
        ..RunOptions::default()
    };
    for i in 0..spec.points.len() {
        let unsampled = ResultStore::point_key(&spec.fingerprint(), i, &options);
        let resampled = ResultStore::point_key(&spec.fingerprint(), i, &sampled);
        assert_ne!(unsampled, resampled);
        assert!(store.load(&unsampled).is_some(), "point {i} must be stored");
        assert!(store.load(&resampled).is_none(), "sampled options must miss");
    }

    // Corruption recovery: flip a payload byte of one record and garble
    // another's whole payload in place; the next sweep treats both as
    // misses, re-simulates, appends fresh records, and still renders the
    // committed artifact.
    let key0 = ResultStore::point_key(&spec.fingerprint(), 0, &options);
    let key1 = ResultStore::point_key(&spec.fingerprint(), 1, &options);
    let cold_segment = only_segment(&dir.0, &[]);
    let mut bytes = std::fs::read(&cold_segment).expect("read segment");
    let (at0, len0) = record_of(&bytes, &key0).expect("record of point 0");
    let (at1, len1) = record_of(&bytes, &key1).expect("record of point 1");
    let original = bytes[at0..at0 + len0].to_vec();
    bytes[at0 + len0 / 2] ^= 0x01;
    bytes[at1..at1 + len1].fill(0x5a);
    std::fs::write(&cold_segment, &bytes).expect("damage records");

    let store = ResultStore::open(&dir.0).expect("reopen store");
    let healed = run_shard_stored(&spec, 0, 1, options, Some(&store));
    let stats = store.stats();
    assert_eq!(stats.misses, 2, "both damaged entries must read as misses");
    assert_eq!(stats.hits as usize, spec.points.len() - 2);
    let results: Vec<_> = healed.results.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(render_spec(&spec, &results), golden);
    let healed_segment = std::fs::read(only_segment(&dir.0, &[cold_segment])).expect("new segment");
    let (at, len) = record_of(&healed_segment, &key0).expect("rewritten record");
    assert_eq!(healed_segment[at..at + len], original, "entry must be rewritten");
}

/// The one `.seg` file in `dir` other than those in `except`.
fn only_segment(dir: &std::path::Path, except: &[std::path::PathBuf]) -> std::path::PathBuf {
    let segs: Vec<_> = std::fs::read_dir(dir)
        .expect("list store")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg") && !except.contains(p))
        .collect();
    assert_eq!(segs.len(), 1, "expected one segment, found {segs:?}");
    segs[0].clone()
}

/// The payload offset and length of `key`'s record in a segment. The
/// header layout is the store's on-disk contract (DESIGN.md §4.9): magic
/// "XLR2", key u64, payload length u32, header checksum u64, all
/// little-endian.
fn record_of(segment: &[u8], key: &str) -> Option<(usize, usize)> {
    let want = u64::from_str_radix(key, 16).expect("hex key");
    let mut at = 0;
    while at + 24 <= segment.len() {
        assert_eq!(&segment[at..at + 4], b"XLR2", "record magic at {at}");
        let key = u64::from_le_bytes(segment[at + 4..at + 12].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(segment[at + 12..at + 16].try_into().expect("4 bytes"));
        if key == want {
            return Some((at + 24, len as usize));
        }
        at += 24 + len as usize;
    }
    None
}
