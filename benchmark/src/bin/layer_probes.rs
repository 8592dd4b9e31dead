//! Layer probes: one thread, a fixed operation count, calling the layer
//! crates' own public functions — the cost of a layer with nothing around it.
//!
//! This is the only file in the benchmark allowed to import
//! `serializable_si::{lock, storage, wal, server::proto}`. A traced run
//! builds and runs it as a separate binary, so a refactor that changes one of
//! these signatures costs the `*.probe_*` numbers and nothing else.
//!
//! Prints one `name value` line per probe; names are per-layer metric names.

use std::hint::black_box;
use std::ops::Bound;
use std::time::Instant;

use serializable_si::common::{TableId, TxnId};
use serializable_si::lock::{LockKey, LockManager, LockMode};
use serializable_si::server::proto::{Request, Response};
use serializable_si::storage::Table;
use serializable_si::wal::{SyncPolicy, WalWriter, WriteEntry};

const ROWS: u64 = 100_000;
const POINT_OPS: u64 = 400_000;
const SCAN_ROWS: u64 = 100;
const SCANS: u64 = 20_000;
const WAL_RECORDS: u64 = 100_000;
const FSYNCS: usize = 200;

const ROUNDS: u64 = 5;

/// Nanoseconds per operation of `ops` runs of `op`: the median of
/// [`ROUNDS`] equal rounds, so one descheduling does not set the number.
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let per_round = ops / ROUNDS;
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            let started = Instant::now();
            for i in round * per_round..(round + 1) * per_round {
                op(i);
            }
            started.elapsed().as_nanos() as f64 / per_round as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

fn loaded_table(rows: u64) -> Table {
    let table = Table::new(TableId(1), "probe");
    for i in 0..rows {
        table
            .install_version(&i.to_be_bytes(), TxnId(1), Some(i.to_be_bytes().to_vec()))
            .mark_committed(10);
    }
    table
}

fn storage_probes() {
    let table = loaded_table(ROWS);
    let reader = TxnId(2);
    // A stride coprime with the row count visits every key, out of order.
    let key = |i: u64| ((i * 7919) % ROWS).to_be_bytes();
    let read = ns_per_op(POINT_OPS, |i| {
        black_box(table.read(&key(i), reader, 20).value);
    });
    println!("storage.probe_read_ns {read}");

    let install = ns_per_op(POINT_OPS, |i| {
        table
            .install_version(&key(i), TxnId(3 + i), Some(i.to_be_bytes().to_vec()))
            .mark_committed(21 + i);
        // Keep chains as short as the engine's own version GC would.
        if i % 4096 == 4095 {
            table.purge_old_versions(21 + i);
        }
    });
    println!("storage.probe_install_ns {install}");

    let small = loaded_table(SCAN_ROWS);
    let scan = ns_per_op(SCANS, |_| {
        black_box(small.scan(Bound::Unbounded, Bound::Unbounded, reader, 20));
    });
    println!("storage.probe_scan_row_ns {}", scan / SCAN_ROWS as f64);
}

fn lock_probe() {
    let locks = LockManager::with_defaults();
    let keys: Vec<LockKey> = (0..1024u64)
        .map(|i| LockKey::record(TableId(1), i.to_be_bytes()))
        .collect();
    let ns = ns_per_op(POINT_OPS, |i| {
        let key = &keys[(i % 1024) as usize];
        black_box(locks.lock(TxnId(1), key, LockMode::Exclusive).is_ok());
        locks.unlock(TxnId(1), key, LockMode::Exclusive);
    });
    println!("lock.probe_acquire_release_ns {ns}");
}

fn wal_entry(i: u64) -> Vec<WriteEntry> {
    vec![WriteEntry {
        table: TableId(1),
        key: i.to_be_bytes().to_vec(),
        value: Some(i.to_be_bytes().to_vec()),
    }]
}

fn wal_probes(scratch: &std::path::Path) -> Result<(), String> {
    let err = |e| format!("wal probe: {e}");
    let dir = scratch.join(format!("probe-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let buffered = WalWriter::open(&dir, 1, SyncPolicy::Never).map_err(err)?;
    let mut failed = None;
    let ns = ns_per_op(WAL_RECORDS, |i| {
        buffered.submit(i + 1, TxnId(i + 1), wal_entry(i));
        if let Err(e) = buffered.seal_upto(i + 1) {
            failed.get_or_insert(e);
        }
    });
    drop(buffered);
    if let Some(e) = failed {
        return Err(err(e));
    }
    println!("wal.probe_submit_seal_ns {ns}");

    let synced = WalWriter::open(&dir, 2, SyncPolicy::GroupCommit).map_err(err)?;
    let mut waits_us = Vec::with_capacity(FSYNCS);
    for i in 0..FSYNCS as u64 {
        synced.submit(i + 1, TxnId(i + 1), wal_entry(i));
        synced.seal_upto(i + 1).map_err(err)?;
        let started = Instant::now();
        synced.wait_durable(i + 1).map_err(err)?;
        waits_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(synced);
    waits_us.sort_by(f64::total_cmp);
    println!("wal.probe_fsync_us {}", waits_us[FSYNCS / 2]);

    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn proto_probe() -> Result<(), String> {
    let request = Request::Put {
        handle: 7,
        table: "checking".to_string(),
        key: 42u64.to_be_bytes().to_vec(),
        value: 10_000i64.to_be_bytes().to_vec(),
    };
    let mut failed = false;
    let ns = ns_per_op(POINT_OPS, |_| {
        let decoded = Request::decode(&black_box(&request).encode());
        let reply = Response::decode(&black_box(Response::Ok).encode());
        failed |= decoded.is_err() || reply.is_err();
    });
    if failed {
        return Err("proto probe: a frame did not decode".to_string());
    }
    println!("server.probe_proto_roundtrip_ns {ns}");
    Ok(())
}

fn main() -> std::process::ExitCode {
    let scratch = ssi_benchmark::single::out_dir();
    storage_probes();
    lock_probe();
    let result = wal_probes(&scratch).and_then(|()| proto_probe());
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            std::process::ExitCode::FAILURE
        }
    }
}
