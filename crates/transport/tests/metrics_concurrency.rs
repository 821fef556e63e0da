//! Concurrency contract of [`protoobf_transport::Metrics`]: eight writer
//! threads hammer the counters and the latency histogram while a reader
//! snapshots continuously — snapshots must be internally consistent
//! (counts conserved, monotone over time, percentiles inside the
//! recorded value range) without ever blocking a writer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use protoobf_transport::metrics::{LatencyHistogram, HISTOGRAM_BUCKETS};
use protoobf_transport::Metrics;

const WRITERS: u64 = 8;
const RECORDS_PER_WRITER: u64 = 20_000;

/// All records land, none duplicated: the final histogram count equals
/// the number of `record` calls and each bucket holds exactly the values
/// steered at it.
#[test]
fn histogram_conserves_records_across_eight_threads() {
    let metrics = Arc::new(Metrics::new());
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let metrics = Arc::clone(&metrics);
            scope.spawn(move || {
                for i in 0..RECORDS_PER_WRITER {
                    // Spread values across buckets deterministically:
                    // value = 1 << (record index % 8), plus thread skew.
                    metrics.wake_latency.record(1u64 << ((i + t) % 8));
                    metrics.bytes_in.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let snap = metrics.snapshot();
    assert_eq!(snap.wake_latency.count(), WRITERS * RECORDS_PER_WRITER);
    assert_eq!(snap.bytes_in, WRITERS * RECORDS_PER_WRITER);
    // Every value was a power of two in [1, 128] → buckets 1..=8 only,
    // and the per-bucket totals are exact (each (t + i) % 8 residue is
    // hit the same number of times across the full grid).
    let expected_per_bucket = WRITERS * RECORDS_PER_WRITER / 8;
    for (b, &n) in snap.wake_latency.buckets.iter().enumerate() {
        if (1..=8).contains(&b) {
            assert_eq!(n, expected_per_bucket, "bucket {b}");
        } else {
            assert_eq!(n, 0, "bucket {b} must be untouched");
        }
    }
    // Percentiles come from the recorded range.
    assert!(snap.wake_latency.p50() >= 1);
    assert!(snap.wake_latency.p99() <= LatencyHistogram::bucket_ceiling(8));
}

/// A reader snapshotting mid-flight sees consistent, monotone data:
/// counts only grow, every per-bucket count is below the eventual total,
/// and percentile queries never panic or step outside the value range.
#[test]
fn snapshots_are_monotone_and_bounded_while_writers_run() {
    let metrics = Arc::new(Metrics::new());
    let stop = Arc::new(AtomicBool::new(false));
    let observed = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let metrics = Arc::clone(&metrics);
            scope.spawn(move || {
                for i in 0..RECORDS_PER_WRITER {
                    metrics.wake_latency.record(i % 1_000 + t);
                    metrics.messages_in.fetch_add(1, Ordering::Relaxed);
                    metrics.messages_out.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let reader = {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            scope.spawn(move || {
                let mut last_count = 0u64;
                let mut last_msgs = 0u64;
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = metrics.snapshot();
                    let count = snap.wake_latency.count();
                    assert!(count >= last_count, "histogram count went backwards");
                    assert!(snap.messages_in >= last_msgs, "counter went backwards");
                    assert!(count <= WRITERS * RECORDS_PER_WRITER);
                    assert_eq!(
                        snap.wake_latency.buckets.len(),
                        HISTOGRAM_BUCKETS,
                        "snapshot carries every bucket"
                    );
                    if count > 0 {
                        let (p50, p99) = (snap.wake_latency.p50(), snap.wake_latency.p99());
                        assert!(p50 <= p99, "p50 {p50} above p99 {p99}");
                        // Values were < 1000 + 8 → ceiling of bucket 10.
                        assert!(p99 <= LatencyHistogram::bucket_ceiling(10));
                    }
                    last_count = count;
                    last_msgs = snap.messages_in;
                    observations += 1;
                    observed.store(true, Ordering::Relaxed);
                }
                observations
            })
        };
        // Writers finish when the scope's non-reader threads join; tell
        // the reader afterwards. (Scope join order: we must signal stop
        // before the scope can join the reader.) The stopper also waits
        // for the reader's first snapshot, so a reader scheduled late
        // still observes at least once.
        scope.spawn({
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            move || {
                while metrics.snapshot().wake_latency.count() < WRITERS * RECORDS_PER_WRITER
                    || !observed.load(Ordering::Relaxed)
                {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            }
        });
        let observations = reader.join().unwrap();
        assert!(observations > 0, "reader never observed a snapshot");
    });
    let final_snap = metrics.snapshot();
    assert_eq!(final_snap.wake_latency.count(), WRITERS * RECORDS_PER_WRITER);
    assert_eq!(final_snap.messages_in, WRITERS * RECORDS_PER_WRITER);
    assert_eq!(final_snap.messages_out, WRITERS * RECORDS_PER_WRITER);
}
