//! Counted work: what the process did, as numbers that repeat exactly.
//!
//! Wall time on a shared two-core container wobbles; allocation counts,
//! syscall counts and context switches per operation do not (or wobble for
//! a reason worth knowing). This module holds the counting allocator and
//! the `/proc` readers the workloads bracket their measured regions with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts calls while counting is
/// switched on. Off (the state of every untraced run) it costs one relaxed
/// load of a read-mostly flag per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (process-wide, all threads).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocation calls (alloc, alloc_zeroed, realloc) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Hands `f` the contents of a small `/proc` file, read with one `read`
/// into a fixed buffer: the same allocations and syscalls whatever the
/// file holds. (`read_to_string` grows its buffer by the content's
/// length, which made one reading in a few hundred cost one allocation
/// more than the calibrated one.)
fn with_file<T>(path: &str, f: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    use std::io::Read;
    let mut buf = [0u8; 4096];
    let n = std::fs::File::open(path).ok()?.read(&mut buf).ok()?;
    f(std::str::from_utf8(&buf[..n]).ok()?)
}

/// The value after `key` on the line of a `/proc` key-value file that
/// starts with it (`VmHWM:   1816 kB` → 1816).
fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn task_dirs() -> Vec<std::path::PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default()
}

/// User+system CPU time of every live thread of this process, in
/// nanoseconds (`/proc/self/task/*/schedstat`, first field). Falls back
/// to the 10 ms ticks of `/proc/self/stat` where schedstat is absent.
pub fn cpu_ns() -> u64 {
    let mut total = 0u64;
    let mut seen = false;
    for dir in task_dirs() {
        if let Some(ns) = with_file(&format!("{}/schedstat", dir.display()), |t| {
            t.split_whitespace().next()?.parse::<u64>().ok()
        }) {
            total += ns;
            seen = true;
        }
    }
    if seen {
        return total;
    }
    // utime and stime are fields 14 and 15; the command name (field 2)
    // may contain spaces, so count from the closing parenthesis.
    with_file("/proc/self/stat", |t| {
        let mut f = t.rsplit_once(')')?.1.split_whitespace().skip(11);
        let ticks = f.next()?.parse::<u64>().ok()? + f.next()?.parse::<u64>().ok()?;
        Some(ticks * 10_000_000)
    })
    .unwrap_or(0)
}

/// Voluntary plus involuntary context switches over every live thread.
pub fn ctx_switches() -> u64 {
    task_dirs()
        .iter()
        .filter_map(|d| {
            with_file(&format!("{}/status", d.display()), |t| {
                Some(
                    field(t, "voluntary_ctxt_switches:").unwrap_or(0)
                        + field(t, "nonvoluntary_ctxt_switches:").unwrap_or(0),
                )
            })
        })
        .sum()
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    with_file("/proc/self/status", |t| field(t, "VmHWM:")).map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// One reading of every process-wide counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub allocs: u64,
    /// `read`-family syscalls (`syscr` of `/proc/self/io`).
    pub read_syscalls: u64,
    /// `write`-family syscalls (`syscw`).
    pub write_syscalls: u64,
    pub ctx_switches: u64,
    pub cpu_ns: u64,
}

impl Counters {
    /// Reads all counters now.
    pub fn now() -> Counters {
        let (read_syscalls, write_syscalls) = with_file("/proc/self/io", |t| {
            Some((field(t, "syscr:")?, field(t, "syscw:")?))
        })
        .unwrap_or((0, 0));
        Counters {
            allocs: allocs(),
            read_syscalls,
            write_syscalls,
            ctx_switches: ctx_switches(),
            cpu_ns: cpu_ns(),
        }
    }

    fn minus(&self, base: &Counters) -> Counters {
        Counters {
            allocs: self.allocs.saturating_sub(base.allocs),
            read_syscalls: self.read_syscalls.saturating_sub(base.read_syscalls),
            write_syscalls: self.write_syscalls.saturating_sub(base.write_syscalls),
            ctx_switches: self.ctx_switches.saturating_sub(base.ctx_switches),
            cpu_ns: self.cpu_ns.saturating_sub(base.cpu_ns),
        }
    }
}

/// Brackets measured regions and takes the instrument's own work out of
/// them. A reading allocates (file contents, paths) and issues `read`
/// syscalls (one `/proc` file per live thread and counter), and part of
/// that lands inside the region it opens; [`Probe::calibrate`] measures
/// that part with two back-to-back readings. The cost depends on the live
/// thread count, so calibrate where the region is measured.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    own: Counters,
}

impl Probe {
    pub fn calibrate() -> Probe {
        let a = Counters::now();
        let b = Counters::now();
        Probe { own: b.minus(&a) }
    }

    /// What the region between the readings `base` and `end` did.
    /// Allocations and syscalls have the instrument's share removed; CPU
    /// time and context switches are left as read.
    pub fn region(&self, base: &Counters, end: &Counters) -> Counters {
        let mut d = end.minus(base);
        d.allocs = d.allocs.saturating_sub(self.own.allocs);
        d.read_syscalls = d.read_syscalls.saturating_sub(self.own.read_syscalls);
        d.write_syscalls = d.write_syscalls.saturating_sub(self.own.write_syscalls);
        d
    }
}

/// Self-test: an empty measured region counts 0 allocations and 0
/// syscalls, i.e. the instrument's own cost is constant and fully removed.
/// Run before any other thread exists.
pub fn selftest() -> Result<(), String> {
    let was = COUNTING.swap(true, Ordering::SeqCst);
    let probe = Probe::calibrate();
    let a = Counters::now();
    let b = Counters::now();
    COUNTING.store(was, Ordering::SeqCst);
    let d = probe.region(&a, &b);
    if d.allocs != 0 || d.read_syscalls != 0 || d.write_syscalls != 0 {
        return Err(format!(
            "empty region counted {} allocations, {} reads, {} writes",
            d.allocs, d.read_syscalls, d.write_syscalls
        ));
    }
    Ok(())
}

/// Cost of one `Instant::now()` pair in nanoseconds (median of many).
pub fn timer_ns() -> f64 {
    let mut v: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Instant::now());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut v)
}
