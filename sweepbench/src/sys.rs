//! Process plumbing the standard library lacks: a tap on this process's
//! stderr that counts the library's in-process fallback warnings, child
//! CPU and memory accounting, and `/proc` readings.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::os::fd::{AsRawFd, FromRawFd};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

extern "C" {
    fn dup(fd: i32) -> i32;
    fn dup2(old: i32, new: i32) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn sync();
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first. Only the kernel writes the
/// fields this program does not read.
#[repr(C)]
#[derive(Default)]
#[allow(dead_code)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;
const STDERR: i32 = 2;

/// Marker the tap writes to its own pipe to learn that every earlier
/// stderr line has been scanned.
const SYNC: &str = "\u{1}sweepbench-sync ";

/// Text of the library's degradation warnings: a worker pool that could
/// not spawn ("...; running in-process") and a remote dispatcher that ran
/// a point itself ("...; running point N in-process"). Either means the
/// sweep did not take the route the workload names.
const FALLBACK: &str = "in-process";

#[derive(Default)]
struct TapState {
    fallbacks: u64,
    synced: u64,
}

/// Redirects fd 2 into a pipe; a reader thread echoes every line to the
/// original stderr and counts fallback warnings. Children spawned with an
/// inherited stderr write into the same pipe.
pub struct StderrTap {
    state: Arc<(Mutex<TapState>, Condvar)>,
    saved: i32,
    next_sync: u64,
    reader: Option<JoinHandle<()>>,
}

impl StderrTap {
    pub fn install() -> Result<StderrTap, String> {
        let (read, write) = std::io::pipe().map_err(|e| format!("stderr pipe: {e}"))?;
        // SAFETY: dup/dup2 only manipulate this process's descriptor table;
        // fd 2 is open for the whole process and `write` is a live pipe end.
        let saved = unsafe { dup(STDERR) };
        if saved < 0 || unsafe { dup2(write.as_raw_fd(), STDERR) } < 0 {
            return Err("cannot redirect stderr".to_string());
        }
        drop(write);
        // SAFETY: `dup` returns a fresh descriptor that nothing else owns.
        let echo_fd = unsafe { dup(saved) };
        if echo_fd < 0 {
            return Err("cannot duplicate stderr".to_string());
        }
        // SAFETY: `echo_fd` is a fresh, owned, open descriptor.
        let mut echo = unsafe { File::from_raw_fd(echo_fd) };
        let state = Arc::new((Mutex::new(TapState::default()), Condvar::new()));
        let shared = Arc::clone(&state);
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(read);
            let mut line = Vec::new();
            while lines.read_until(b'\n', &mut line).map(|n| n > 0).unwrap_or(false) {
                let text = String::from_utf8_lossy(&line);
                let (lock, cond) = &*shared;
                if let Some(n) = text.strip_prefix(SYNC) {
                    let mut st = lock.lock().expect("tap state lock");
                    st.synced = n.trim().parse().unwrap_or(st.synced);
                    cond.notify_all();
                } else {
                    if text.contains(FALLBACK) {
                        lock.lock().expect("tap state lock").fallbacks += 1;
                    }
                    let _ = echo.write_all(&line);
                }
                line.clear();
            }
        });
        Ok(StderrTap { state, saved, next_sync: 0, reader: Some(reader) })
    }

    /// Fallback warnings seen so far, counting every line written to
    /// stderr by this process before the call.
    pub fn fallbacks(&mut self) -> u64 {
        self.next_sync += 1;
        eprintln!("{SYNC}{}", self.next_sync);
        let (lock, cond) = &*self.state;
        let mut st = lock.lock().expect("tap state lock");
        while st.synced < self.next_sync {
            st = cond.wait(st).expect("tap state lock");
        }
        st.fallbacks
    }

    /// Restores the original stderr and waits for the reader to drain.
    /// Every child that inherited the pipe must have exited by now.
    pub fn finish(mut self) {
        // SAFETY: `saved` is the original stderr, still open.
        unsafe { dup2(self.saved, STDERR) };
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Flushes every filesystem's dirty data, so write-back left by earlier
/// work (a previous run's deleted store, say) is not billed to the fsyncs
/// of the next timed region.
pub fn flush_disks() {
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of the largest child this process has reaped, in
/// MiB (`getrusage(RUSAGE_CHILDREN).ru_maxrss`).
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a writable `struct rusage` of the Linux layout.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

/// Fields of `/proc/<pid>/stat` from field 4 (`ppid`) on, so field N of
/// the full line is at index N - 4.
fn stat_fields(pid: &str) -> Vec<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
    tail.split_whitespace().skip(1).map(|f| f.parse().unwrap_or(0)).collect()
}

/// CPU ticks of the children this process has reaped (`cutime+cstime`).
pub fn reaped_children_cpu() -> u64 {
    let f = stat_fields("self");
    f.get(12).copied().unwrap_or(0) + f.get(13).copied().unwrap_or(0)
}

/// CPU ticks a live process has used (`utime+stime`).
pub fn process_cpu(pid: u32) -> u64 {
    let f = stat_fields(&pid.to_string());
    f.get(10).copied().unwrap_or(0) + f.get(11).copied().unwrap_or(0)
}

/// Kills and reaps every live child of this process, returning their
/// command lines. A clean run has none left when it ends.
pub fn reap_children() -> Vec<String> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    let pids: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|pid| pid.bytes().all(|b| b.is_ascii_digit()))
        .filter(|pid| {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
            status.lines().any(|l| l.strip_prefix("PPid:").is_some_and(|p| p.trim() == me))
        })
        .collect();
    pids.into_iter()
        .map(|pid| {
            let cmd = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
            if let Ok(n) = pid.parse::<i32>() {
                let mut status = 0;
                // SAFETY: `n` is a child of this process, so signalling and
                // reaping it touches nothing else; `status` is writable.
                unsafe {
                    kill(n, SIGKILL);
                    waitpid(n, &mut status, 0);
                }
            }
            String::from_utf8_lossy(&cmd).replace('\0', " ").trim().to_string()
        })
        .collect()
}
