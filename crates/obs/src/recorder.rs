//! Near-zero-cost in-engine latency recording.
//!
//! The engine wants latency distributions for operations that run millions
//! of times per second (commits, reads), which rules out an unconditional
//! `Instant::now()` pair per operation. [`SampledHist`] therefore samples:
//! a per-thread tick counter decides — *before* any clock is read — whether
//! this occurrence is measured, keeping the unsampled path to one
//! thread-local increment and a mask test. Sampled durations land in one of
//! a small number of sharded [`LatencyHistogram`]s (shard picked by a
//! per-thread index, so concurrent recorders almost never contend on a
//! shard lock), merged on demand by [`SampledHist::snapshot`].
//!
//! Sampling is 1-in-2^shift (power-of-two, so the decision is a mask test).
//! Quantiles are unaffected by uniform sampling; only `count()` shrinks by
//! the sampling factor. Rare events (fsync batches, checkpoints, GC passes)
//! bypass sampling via [`SampledHist::record`], which always records.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::hist::LatencyHistogram;

/// Number of histogram shards. Threads hash onto shards round-robin; with
/// typical worker counts near the core count, contention on a shard mutex
/// is negligible (and the critical section is an O(1) bucket increment).
const SHARDS: usize = 8;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Round-robin shard assignment, fixed per thread.
    static THREAD_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    /// The global sampling tick, shared by every `SampledHist` on this
    /// thread. Sharing one counter keeps the unsampled path to a single
    /// cell bump regardless of how many histograms the engine carries.
    static TICK: Cell<u64> = const { Cell::new(0) };
}

/// A latency histogram behind a power-of-two sampling gate.
pub struct SampledHist {
    /// `tick & mask == 0` selects a sample; 0 means "record everything".
    mask: u64,
    shards: [Mutex<LatencyHistogram>; SHARDS],
}

impl SampledHist {
    /// Creates a recorder sampling 1 in `2^shift` occurrences (`shift` 0
    /// records everything).
    pub fn new(shift: u32) -> Self {
        SampledHist {
            mask: (1u64 << shift.min(63)) - 1,
            shards: std::array::from_fn(|_| Mutex::new(LatencyHistogram::default())),
        }
    }

    /// Opens a sampled measurement: returns a start instant only for the
    /// occurrences the sampling gate selects. The decision is made before
    /// the clock is read, so unsampled occurrences cost one thread-local
    /// increment and a mask test.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.mask == 0 {
            return Some(Instant::now());
        }
        let sampled = TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v & self.mask == 0
        });
        sampled.then(Instant::now)
    }

    /// Closes a measurement opened by [`SampledHist::start`].
    #[inline]
    pub fn finish(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.record(t0.elapsed());
        }
    }

    /// Records a duration unconditionally (rare events that want every
    /// occurrence counted).
    pub fn record(&self, d: Duration) {
        let shard = THREAD_SHARD.with(|s| *s);
        self.shards[shard].lock().record(d);
    }

    /// Merges every shard into one histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::default();
        for shard in &self.shards {
            merged.merge(&shard.lock());
        }
        merged
    }

    /// The sampling factor (occurrences per recorded sample).
    pub fn sample_every(&self) -> u64 {
        self.mask + 1
    }
}

/// The engine's shared observability state: one sampled recorder per traced
/// operation plus the (optional) event trace. `Database` owns one behind an
/// `Arc`; the WAL holds a clone.
pub struct EngineMetrics {
    /// Whole `Transaction::commit()` latency (sampled).
    pub commit: SampledHist,
    /// Serialized commit-section latency (sampled).
    pub commit_section: SampledHist,
    /// Point-read latency (sampled).
    pub read: SampledHist,
    /// Range-scan latency (sampled).
    pub scan: SampledHist,
    /// WAL fsync-batch latency (unsampled — fsyncs are rare).
    pub fsync: SampledHist,
    /// Checkpoint latency (unsampled).
    pub checkpoint: SampledHist,
    /// GC-pass latency (unsampled).
    pub gc_pass: SampledHist,
    /// The event trace; disabled unless `Options::with_tracing` was set.
    pub trace: crate::trace::TraceHandle,
}

impl EngineMetrics {
    /// Builds the engine's recorders. `sample_shift` gates the hot-path
    /// histograms at 1-in-2^shift; rare-event histograms always record.
    pub fn new(sample_shift: u32, trace: crate::trace::TraceHandle) -> EngineMetrics {
        EngineMetrics {
            commit: SampledHist::new(sample_shift),
            commit_section: SampledHist::new(sample_shift),
            read: SampledHist::new(sample_shift),
            scan: SampledHist::new(sample_shift),
            fsync: SampledHist::new(0),
            checkpoint: SampledHist::new(0),
            gc_pass: SampledHist::new(0),
            trace,
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new(6, crate::trace::TraceHandle::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsampled_recorder_records_everything() {
        let h = SampledHist::new(0);
        for _ in 0..100 {
            let t = h.start();
            assert!(t.is_some());
            h.finish(t);
        }
        assert_eq!(h.snapshot().count(), 100);
    }

    #[test]
    fn sampling_gate_selects_one_in_two_to_the_shift() {
        let h = SampledHist::new(3);
        assert_eq!(h.sample_every(), 8);
        let mut sampled = 0;
        for _ in 0..800 {
            if let Some(t) = h.start() {
                sampled += 1;
                h.finish(Some(t));
            }
        }
        // The tick is thread-local and shared, so this thread's phase is
        // arbitrary — but the rate over 800 ticks is exactly 100.
        assert_eq!(sampled, 100);
        assert_eq!(h.snapshot().count(), 100);
    }

    #[test]
    fn record_bypasses_the_gate() {
        let h = SampledHist::new(10);
        for i in 0..50u64 {
            h.record(Duration::from_nanos(i + 1));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 50);
        assert!(snap.max() >= Duration::from_nanos(50));
    }

    #[test]
    fn concurrent_records_merge_losslessly() {
        let h = SampledHist::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        h.record(Duration::from_nanos(i));
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 4000);
    }
}
