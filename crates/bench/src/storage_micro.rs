//! Multi-threaded storage-layer microbenchmark harness.
//!
//! Drives N reader threads against M writer threads on one table — point
//! reads, point writes (install + commit-stamp) and optional range scans —
//! and reports operations per second. The same harness runs against the
//! sharded [`ssi_storage::Table`] and the pre-sharding
//! [`BaselineTable`](crate::baseline::BaselineTable), so the
//! `storage_concurrent` bench and the `storage_bench` binary measure the
//! speedup rather than asserting it.

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ssi_common::encoding::{KeyBuilder, ValueWriter};
use ssi_common::{TableId, TxnId};
use ssi_storage::{as_ref_bound, decode_entry, entry_range, Index, Table};

use crate::baseline::BaselineTable;

/// Storage implementations the harness can drive.
pub trait StorageUnderTest: Sync {
    fn install_committed(&self, key: &[u8], txn: TxnId, value: Vec<u8>, commit_ts: u64);
    /// Returns the visible value's length (0 when invisible); forces the
    /// value to be materialized so both implementations do comparable work.
    fn read_len(&self, key: &[u8], reader: TxnId, snapshot_ts: u64) -> usize;
    /// Full-table scan; returns the number of visible rows.
    fn scan_count(&self, reader: TxnId, snapshot_ts: u64) -> usize;
    /// Garbage-collects versions no snapshot at or after `horizon` can see.
    fn purge(&self, horizon: u64);
}

impl StorageUnderTest for Table {
    fn install_committed(&self, key: &[u8], txn: TxnId, value: Vec<u8>, commit_ts: u64) {
        let v = self.install_version(key, txn, Some(value));
        v.mark_committed(commit_ts);
    }

    fn read_len(&self, key: &[u8], reader: TxnId, snapshot_ts: u64) -> usize {
        self.read(key, reader, snapshot_ts)
            .value
            .map_or(0, |v| v.len())
    }

    fn scan_count(&self, reader: TxnId, snapshot_ts: u64) -> usize {
        self.scan(Bound::Unbounded, Bound::Unbounded, reader, snapshot_ts)
            .iter()
            .filter(|e| e.value.is_some())
            .count()
    }

    fn purge(&self, horizon: u64) {
        self.purge_old_versions(horizon);
    }
}

impl StorageUnderTest for BaselineTable {
    fn install_committed(&self, key: &[u8], txn: TxnId, value: Vec<u8>, commit_ts: u64) {
        let v = self.install_version(key, txn, Some(value));
        v.mark_committed(commit_ts);
    }

    fn read_len(&self, key: &[u8], reader: TxnId, snapshot_ts: u64) -> usize {
        self.read(key, reader, snapshot_ts)
            .value
            .map_or(0, |v| v.len())
    }

    fn scan_count(&self, reader: TxnId, snapshot_ts: u64) -> usize {
        self.scan_all(reader, snapshot_ts).len()
    }

    fn purge(&self, horizon: u64) {
        self.purge_versions(horizon);
    }
}

/// Builds a sharded table preloaded with `rows` committed 64-byte values.
pub fn setup_sharded(rows: u64) -> Table {
    let table = Table::new(TableId(1), "storage_micro");
    preload(&table, rows);
    table
}

/// Builds a baseline table with the same contents.
pub fn setup_baseline(rows: u64) -> BaselineTable {
    let table = BaselineTable::new();
    preload(&table, rows);
    table
}

fn preload<T: StorageUnderTest>(table: &T, rows: u64) {
    for i in 0..rows {
        table.install_committed(&i.to_be_bytes(), TxnId(1), vec![i as u8; 64], 10);
    }
}

/// Workload shape of one harness run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadShape {
    /// Point-reader threads.
    pub readers: usize,
    /// Writer threads (install + commit-stamp).
    pub writers: usize,
    /// Scanning threads (full-table snapshot scans).
    pub scanners: usize,
    /// Keys in the table.
    pub rows: u64,
    /// Measured wall-clock duration.
    pub duration: Duration,
}

/// Result of one harness run.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageThroughput {
    pub reads: u64,
    pub writes: u64,
    pub scans: u64,
    pub elapsed: Duration,
}

impl StorageThroughput {
    pub fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / self.elapsed.as_secs_f64()
    }

    pub fn writes_per_sec(&self) -> f64 {
        self.writes as f64 / self.elapsed.as_secs_f64()
    }

    pub fn scans_per_sec(&self) -> f64 {
        self.scans as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs the workload shape against `table` and reports throughput.
pub fn run_storage_workload<T: StorageUnderTest>(
    table: &T,
    shape: WorkloadShape,
) -> StorageThroughput {
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let scans = AtomicU64::new(0);
    let start = Instant::now();

    std::thread::scope(|s| {
        for r in 0..shape.readers {
            let (stop, reads) = (&stop, &reads);
            s.spawn(move || {
                let reader = TxnId(1_000_000 + r as u64);
                // Each thread strides through the key space from its own
                // offset so readers do not touch the same cache lines in step.
                let mut i = (r as u64) * 7919;
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        i = i.wrapping_add(7919);
                        let key = (i % shape.rows).to_be_bytes();
                        std::hint::black_box(table.read_len(&key, reader, u64::MAX - 2));
                        local += 1;
                    }
                }
                reads.fetch_add(local, Ordering::Relaxed);
            });
        }
        for w in 0..shape.writers {
            let (stop, writes) = (&stop, &writes);
            s.spawn(move || {
                let mut i = (w as u64) * 104_729;
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..16 {
                        i = i.wrapping_add(104_729);
                        let key = (i % shape.rows).to_be_bytes();
                        let txn = TxnId(2_000_000 + w as u64 * 1_000_000_000 + n);
                        table.install_committed(&key, txn, vec![w as u8; 64], 100 + n);
                        n += 1;
                        // Keep chains short, as the engine's version GC
                        // would: purge everything older than the newest
                        // commit every few thousand writes.
                        if n.is_multiple_of(4096) {
                            table.purge(100 + n);
                        }
                    }
                }
                writes.fetch_add(n, Ordering::Relaxed);
            });
        }
        for c in 0..shape.scanners {
            let (stop, scans) = (&stop, &scans);
            s.spawn(move || {
                let reader = TxnId(3_000_000 + c as u64);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(table.scan_count(reader, u64::MAX - 2));
                    local += 1;
                }
                scans.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(shape.duration);
        stop.store(true, Ordering::Relaxed);
    });

    StorageThroughput {
        reads: reads.load(Ordering::Relaxed),
        writes: writes.load(Ordering::Relaxed),
        scans: scans.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

// ---------------------------------------------------------------------
// Indexed reads: secondary-index point lookup vs scan-and-filter.
// ---------------------------------------------------------------------

/// Builds a table of `rows` rows whose single-string values cycle through
/// `names` distinct names, with a secondary index over the name registered
/// *before* the preload so every version is indexed on install.
pub fn setup_indexed(rows: u64, names: u64) -> (Table, std::sync::Arc<Index>) {
    use ssi_storage::{FieldKind, IndexDef, IndexKeyPart, IndexKeySpec};
    let table = Table::new(TableId(1), "storage_micro_indexed");
    let index = std::sync::Arc::new(Index::new(IndexDef {
        id: TableId(2),
        name: "by_name".to_string(),
        table: TableId(1),
        unique: false,
        spec: IndexKeySpec {
            layout: vec![FieldKind::Str],
            parts: vec![IndexKeyPart::ValueField(0)],
        },
    }));
    table.register_index(index.clone());
    for i in 0..rows {
        let value = ValueWriter::new().str(&name_of(i % names)).build();
        let v = table.install_version(&i.to_be_bytes(), TxnId(1), Some(value));
        v.mark_committed(10);
    }
    (table, index)
}

fn name_of(n: u64) -> String {
    format!("name-{n:05}")
}

/// Resolves every row claiming `name` through the index: entry-range probe,
/// decode, chain read. Returns the number of rows surfaced.
pub fn indexed_lookup(table: &Table, index: &Index, name: &str, snapshot_ts: u64) -> usize {
    let ik = KeyBuilder::new().str(name).build();
    let (lo, hi) = entry_range(Bound::Included(&ik), Bound::Included(&ik));
    let mut hits = 0usize;
    for entry in index.entries_in_range(as_ref_bound(&lo), as_ref_bound(&hi), None) {
        let Some((_, pk)) = decode_entry(&entry) else {
            continue;
        };
        if table.read(&pk, TxnId(900_000), snapshot_ts).value.is_some() {
            hits += 1;
        }
    }
    hits
}

/// The same predicate answered without the index: scan the whole table and
/// keep the rows whose value matches `name` — what the TPC-C customer
/// lookup did before the engine grew secondary indexes.
pub fn scan_filter_lookup(table: &Table, name: &str, snapshot_ts: u64) -> usize {
    let needle = ValueWriter::new().str(name).build();
    table
        .scan(
            Bound::Unbounded,
            Bound::Unbounded,
            TxnId(900_001),
            snapshot_ts,
        )
        .iter()
        .filter(|e| e.value.as_deref() == Some(needle.as_slice()))
        .count()
}

/// Runs `threads` lookup threads for `duration`, each resolving random
/// names via `lookup`; returns total lookups and elapsed time.
pub fn run_lookup_workload(
    threads: usize,
    names: u64,
    duration: Duration,
    lookup: impl Fn(&str) -> usize + Sync,
) -> (u64, Duration) {
    let stop = AtomicBool::new(false);
    let lookups = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (stop, lookups, lookup) = (&stop, &lookups, &lookup);
            s.spawn(move || {
                let mut i = (t as u64) * 7919;
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i = i.wrapping_add(7919);
                    let hits = lookup(&name_of(i % names));
                    std::hint::black_box(hits);
                    local += 1;
                }
                lookups.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    (lookups.load(Ordering::Relaxed), start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_drives_both_implementations() {
        let shape = WorkloadShape {
            readers: 2,
            writers: 1,
            scanners: 1,
            rows: 128,
            duration: Duration::from_millis(50),
        };
        let sharded = setup_sharded(shape.rows);
        let out = run_storage_workload(&sharded, shape);
        assert!(out.reads > 0 && out.writes > 0 && out.scans > 0);

        let baseline = setup_baseline(shape.rows);
        let out = run_storage_workload(&baseline, shape);
        assert!(out.reads > 0 && out.writes > 0 && out.scans > 0);
    }

    #[test]
    fn indexed_and_scan_filter_lookups_agree() {
        let (table, index) = setup_indexed(256, 16);
        for n in 0..16 {
            let name = name_of(n);
            let via_index = indexed_lookup(&table, &index, &name, u64::MAX - 2);
            let via_scan = scan_filter_lookup(&table, &name, u64::MAX - 2);
            assert_eq!(via_index, via_scan, "lookup paths disagree for {name}");
            assert_eq!(via_index, 16, "256 rows over 16 names: 16 each");
        }
        let (lookups, elapsed) = run_lookup_workload(2, 16, Duration::from_millis(30), |name| {
            indexed_lookup(&table, &index, name, u64::MAX - 2)
        });
        assert!(lookups > 0 && elapsed.as_millis() > 0);
    }
}
