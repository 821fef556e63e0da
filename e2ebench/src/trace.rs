//! Measurement plumbing: the counting allocator, `/proc` readers, spans
//! and the statistics the report is made of.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::sys;

/// Counts heap allocations while [`count_allocations`] is on. Off, it
/// costs one relaxed load per allocation; only the traced run turns it
/// on.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// SAFETY: every call forwards unchanged to the system allocator; the
// counter update has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn tick() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turns allocation counting on or off (process-wide).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn proc_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim_start_matches(':').split_whitespace().next()?.parse::<u64>().ok()
        })
        .unwrap_or(0)
}

/// CPU time (user plus system) of every live thread of the process, from
/// the nanosecond run-time counters of `/proc/self/task/*/schedstat`.
/// Threads that have ended no longer count, so only differences taken
/// while the same threads live are meaningful.
pub fn cpu_time() -> Duration {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Duration::ZERO };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| {
            read_proc(&format!("{}/schedstat", t.path().display()))
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum();
    Duration::from_nanos(ns)
}

/// Peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field(&read_proc("/proc/self/status"), "VmHWM") as f64 / 1024.0
}

/// Current resident memory (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    proc_field(&read_proc("/proc/self/status"), "VmRSS") as f64 / 1024.0
}

/// Voluntary plus involuntary context switches of every live thread.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .map(|t| {
            let status = read_proc(&format!("{}/status", t.path().display()));
            proc_field(&status, "voluntary_ctxt_switches")
                + proc_field(&status, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// A moment on the wall clock and on the recording thread's CPU clock
/// (`cpu_ns` is 0 where the CPU clock was not read).
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub at: Instant,
    pub cpu_ns: u64,
}

impl Stamp {
    /// Now, on both clocks.
    pub fn now() -> Stamp {
        Stamp { at: Instant::now(), cpu_ns: sys::thread_cpu_ns() }
    }

    /// A wall-clock moment only.
    pub fn wall(at: Instant) -> Stamp {
        Stamp { at, cpu_ns: 0 }
    }
}

/// One timed interval of a round trip. `rt` groups the spans of one round
/// trip; `parent` names the enclosing span of the same round trip; `note`
/// qualifies the span (a gateway leg, an idle drive, a wake).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub rt: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub note: &'static str,
    pub start: Stamp,
    pub end: Stamp,
}

impl Span {
    /// Wall-clock length.
    pub fn wall(&self) -> Duration {
        self.end.at.saturating_duration_since(self.start.at)
    }

    /// CPU time the recording thread spent inside the span.
    pub fn cpu(&self) -> Duration {
        Duration::from_nanos(self.end.cpu_ns.saturating_sub(self.start.cpu_ns))
    }
}

/// Shared state of a traced socket pass: the round trip in flight and the
/// spans the worker thread hands over when its sessions end.
#[derive(Debug)]
pub struct Tracer {
    rt: AtomicU64,
    worker_spans: Mutex<Vec<Span>>,
}

/// Most round trips a traced pass records spans for; later round trips
/// still run, unrecorded.
pub const MAX_TRACED_RTS: u64 = 20_000;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { rt: AtomicU64::new(0), worker_spans: Mutex::default() }
    }

    /// Round trip in flight (0: none is being recorded).
    pub fn current(&self) -> u64 {
        self.rt.load(Ordering::Relaxed)
    }

    pub fn set_current(&self, rt: u64) {
        self.rt.store(rt, Ordering::Relaxed);
    }

    pub fn hand_over(&self, spans: &mut Vec<Span>) {
        self.worker_spans.lock().unwrap_or_else(|e| e.into_inner()).append(spans);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.worker_spans.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Writes spans as JSON lines: `pass`, `rt`, `name`, `parent`, `note`,
/// `start_ns`, `end_ns` (wall clock, nanoseconds since `epoch`) and
/// `cpu_ns` (the recording thread's CPU time inside the span; 0 where not
/// read). Only the first `max_rts` round trips of the pass are written.
pub fn write_spans(
    out: &mut impl Write,
    pass: &str,
    spans: &[Span],
    epoch: Instant,
    max_rts: u64,
) -> std::io::Result<()> {
    let ns = |s: Stamp| s.at.saturating_duration_since(epoch).as_nanos();
    for s in spans.iter().filter(|s| s.rt <= max_rts) {
        writeln!(
            out,
            "{{\"pass\":\"{pass}\",\"rt\":{},\"name\":\"{}\",\"parent\":\"{}\",\"note\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
            s.rt,
            s.name,
            s.parent,
            s.note,
            ns(s.start),
            ns(s.end),
            s.cpu().as_nanos()
        )?;
    }
    Ok(())
}

/// The `q` quantile (0..=1) of `values`, by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let med = quantile(values, 0.5);
    if med == 0.0 {
        0.0
    } else {
        (quantile(values, 0.75) - quantile(values, 0.25)) / med
    }
}
