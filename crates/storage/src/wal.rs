//! Write-ahead log with group commit and simulated flush latency.
//!
//! The Berkeley DB evaluation (Sec. 6.1) distinguishes two regimes:
//!
//! * **no flush at commit** — commits return as soon as the log record is in
//!   memory; transactions take ~100 µs and the system is CPU bound;
//! * **flush at commit** — every commit waits for its log record to reach
//!   stable storage (~10 ms on the 2008 hardware); throughput then *grows*
//!   with MPL because group commit lets many transactions share one flush.
//!
//! Real disks are replaced by a configurable per-flush latency. Committers
//! append a record, then wait until a flush that covers their LSN has
//! completed; whichever committer finds no flush in progress becomes the
//! flusher for everything appended so far (classic group commit). This
//! preserves the shape of the paper's figures without requiring actual I/O.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// Configuration of the write-ahead log.
#[derive(Clone, Debug, Default)]
pub struct WalConfig {
    /// Simulated device latency per flush. `None` means commits do not wait
    /// for durability (the "no flush" regime).
    pub flush_latency: Option<Duration>,
}

#[derive(Default)]
struct WalState {
    /// LSN of the last appended record.
    appended_lsn: u64,
    /// LSN up to which records are durable.
    durable_lsn: u64,
    /// True while some thread is performing a flush.
    flush_in_progress: bool,
}

/// In-memory write-ahead log.
pub struct WriteAheadLog {
    config: WalConfig,
    state: Mutex<WalState>,
    flushed: Condvar,
    /// Total commit records appended.
    records: AtomicU64,
    /// Number of physical (simulated) flushes performed.
    flushes: AtomicU64,
}

impl WriteAheadLog {
    /// Creates a log with the given configuration.
    pub fn new(config: WalConfig) -> Self {
        WriteAheadLog {
            config,
            state: Mutex::new(WalState::default()),
            flushed: Condvar::new(),
            records: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    /// True if commits wait for a (simulated) flush.
    pub fn flushes_on_commit(&self) -> bool {
        self.config.flush_latency.is_some()
    }

    /// Appends a commit record and, if the log is configured with a flush
    /// latency, blocks until the record is durable. Returns the record's
    /// LSN.
    pub fn commit_record(&self) -> u64 {
        let Some(latency) = self.config.flush_latency else {
            // No flush to wait for and so nothing to order: the record
            // count is the LSN, and the group-commit state stays untouched.
            return self.records.fetch_add(1, Ordering::Relaxed) + 1;
        };
        self.records.fetch_add(1, Ordering::Relaxed);

        let mut state = self.state.lock();
        state.appended_lsn += 1;
        let my_lsn = state.appended_lsn;

        loop {
            if state.durable_lsn >= my_lsn {
                return my_lsn;
            }
            if !state.flush_in_progress {
                // Become the flusher for everything appended so far.
                state.flush_in_progress = true;
                let flush_to = state.appended_lsn;
                drop(state);

                // Simulated device write.
                std::thread::sleep(latency);
                self.flushes.fetch_add(1, Ordering::Relaxed);

                state = self.state.lock();
                state.durable_lsn = state.durable_lsn.max(flush_to);
                state.flush_in_progress = false;
                self.flushed.notify_all();
            } else {
                self.flushed.wait(&mut state);
            }
        }
    }

    /// Number of commit records appended so far.
    pub fn record_count(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Number of simulated device flushes performed so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }
}

impl Default for WriteAheadLog {
    fn default() -> Self {
        Self::new(WalConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn no_flush_mode_is_immediate() {
        let wal = WriteAheadLog::new(WalConfig {
            flush_latency: None,
        });
        let start = Instant::now();
        for _ in 0..100 {
            wal.commit_record();
        }
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(wal.record_count(), 100);
        assert_eq!(wal.flush_count(), 0);
        assert!(!wal.flushes_on_commit());
    }

    #[test]
    fn lsns_are_monotonic() {
        let wal = WriteAheadLog::default();
        let a = wal.commit_record();
        let b = wal.commit_record();
        let c = wal.commit_record();
        assert!(a < b && b < c);
    }

    #[test]
    fn flush_mode_waits_for_durability() {
        let latency = Duration::from_millis(20);
        let wal = WriteAheadLog::new(WalConfig {
            flush_latency: Some(latency),
        });
        let start = Instant::now();
        wal.commit_record();
        assert!(start.elapsed() >= latency);
        assert_eq!(wal.flush_count(), 1);
        assert!(wal.flushes_on_commit());
    }

    #[test]
    fn group_commit_shares_flushes() {
        // 8 threads each commit 5 records with a 10 ms flush. Without group
        // commit that would need 40 flushes (>=400 ms of device time); with
        // group commit concurrent committers share flushes, so the flush
        // count must be clearly smaller than the record count.
        let wal = Arc::new(WriteAheadLog::new(WalConfig {
            flush_latency: Some(Duration::from_millis(10)),
        }));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let wal = wal.clone();
                s.spawn(move || {
                    for _ in 0..5 {
                        wal.commit_record();
                    }
                });
            }
        });
        assert_eq!(wal.record_count(), 40);
        assert!(
            wal.flush_count() < 40,
            "expected group commit to batch flushes, got {}",
            wal.flush_count()
        );
    }
}
