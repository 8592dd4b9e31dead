//! # Serializable Snapshot Isolation
//!
//! A from-scratch Rust implementation of the concurrency-control algorithm
//! from *"Serializable Isolation for Snapshot Databases"* (Cahill, Röhm,
//! Fekete — SIGMOD 2008; extended in Cahill's 2009 PhD thesis), together
//! with the classic algorithms it is evaluated against.
//!
//! The crate exposes an embedded, in-memory multi-version database:
//!
//! * [`Database`] owns the catalog, lock manager, transaction manager and
//!   (with [`Durability`] on) the redo log;
//! * [`Transaction`] is the client handle with `get` / `get_for_update` /
//!   `put` / `delete` / `scan` operations and `commit` / `rollback`, plus
//!   `index_scan` / `index_lookup` over secondary indexes declared with
//!   [`Database::create_index`] — index predicates get the same SSI
//!   phantom protection as primary-key scans, and unique indexes abort
//!   duplicate claims with a typed violation at every isolation level
//!   (protocol in the `access` module docs);
//! * [`Options`] selects the isolation level and the experimental knobs the
//!   paper studies: row- vs page-granularity locking, basic vs enhanced
//!   conflict tracking, abort-early, flush at commit
//!   ([`Durability::GroupCommit`]) and the SI-queries/SSI-updates mixed mode.
//!
//! Three isolation levels matter for the paper's evaluation (a fourth,
//! read-committed, exists for completeness):
//!
//! | level | reads | writes | serializable? |
//! |---|---|---|---|
//! | `SnapshotIsolation` | snapshot, no locks | exclusive locks + first-committer-wins | no (write skew) |
//! | `SerializableSnapshotIsolation` | snapshot + SIREAD locks | as SI + rw-antidependency tracking | **yes** |
//! | `StrictTwoPhaseLocking` | shared locks held to commit | exclusive locks held to commit | yes |
//!
//! ## Example: write skew is prevented
//!
//! ```
//! use ssi_core::{Database, Options};
//! use ssi_common::{AbortKind, Error};
//!
//! let db = Database::open(Options::default());
//! let t = db.create_table("duty").unwrap();
//!
//! // Two doctors are on call.
//! let mut setup = db.begin();
//! setup.put(&t, b"alice", b"on").unwrap();
//! setup.put(&t, b"bob", b"on").unwrap();
//! setup.commit().unwrap();
//!
//! // Each transaction checks that the *other* doctor is still on call and
//! // then takes its own doctor off call — the classic write-skew pattern.
//! let mut t1 = db.begin();
//! let mut t2 = db.begin();
//! assert_eq!(t1.get(&t, b"bob").unwrap().as_deref(), Some(b"on".as_slice()));
//! assert_eq!(t2.get(&t, b"alice").unwrap().as_deref(), Some(b"on".as_slice()));
//!
//! // Under Serializable SI one of the two must abort with the "unsafe"
//! // error (possibly as early as the write); under plain SI both would
//! // commit and the invariant would break.
//! let r1 = t1.put(&t, b"alice", b"off").and_then(|_| t1.commit());
//! let r2 = t2.put(&t, b"bob", b"off").and_then(|_| t2.commit());
//! let unsafe_aborts = [&r1, &r2]
//!     .iter()
//!     .filter(|r| matches!(r, Err(Error::Aborted { kind: AbortKind::Unsafe, .. })))
//!     .count();
//! assert_eq!(unsafe_aborts, 1);
//! assert!(r1.is_ok() || r2.is_ok());
//! ```

pub mod db;
pub mod health;
pub mod manager;
pub mod options;
pub mod ssi;
pub mod txn;
pub mod txn_shared;
pub mod verify;

mod access;

#[cfg(test)]
mod engine_tests;

pub use db::{Database, IndexRef, TableRef};
pub use health::DbHealth;
pub use manager::{CommitPauseHook, GcPin, ManagerStats, TransactionManager};
pub use options::{
    Durability, DurabilityOptions, LockGranularity, Options, SsiOptions, SsiVariant, VfsHandle,
};
pub use ssi::CallerRole;
pub use txn::Transaction;
pub use txn_shared::{TxnShared, TxnStatus};
pub use verify::{
    CommittedTxn, DanglingRead, HistoryRecorder, LostRead, MvsgReport, ReadRecord, WriteRecordEntry,
};

pub use ssi_common::{
    AbortKind, AbortReason, DegradedReason, Error, IsolationLevel, Result, TxnId,
};
pub use ssi_obs::{
    EngineMetrics, EventKind, GcMetrics, HistSummary, LatencyMetrics, LockMetrics, MetricsSnapshot,
    TableMetrics, TraceBatch, TraceEvent, TxnMetrics, WalMetrics,
};
pub use ssi_storage::{FieldKind, IndexKeyPart, IndexKeySpec, PurgeStats, Value};
pub use ssi_wal::{
    CheckpointStats, FaultMode, FaultOp, FaultRule, FaultVfs, Recovered, StdVfs, Vfs, WalStats,
};
