//! Multi-version storage substrate for the Serializable SI reproduction.
//!
//! The paper implements its algorithm inside two existing storage engines
//! (Berkeley DB and InnoDB). This crate provides the equivalent substrate the
//! concurrency-control layer in `ssi-core` builds on:
//!
//! * [`Table`] — an ordered key/value table whose entries are *version
//!   chains*: every write creates a new [`Version`] instead of overwriting,
//!   and readers pick the version visible to their snapshot (Sec. 2.4/2.5);
//! * [`Catalog`] — the set of named tables of one database;
//! * [`PageMap`] — a mapping from keys to page numbers so the engine can lock
//!   and detect conflicts at Berkeley-DB-style page granularity (Sec. 4.2)
//!   instead of InnoDB-style row granularity;
//! * [`Index`] — an ordered secondary-index tier over a table (InnoDB keeps
//!   its secondary indexes in the same B-tree machinery its primary
//!   key-space uses; we mirror that with a dedicated entry tree).
//!
//! ## Secondary-index maintenance protocol
//!
//! Index entries are `(escaped index key, primary key)` pairs (see
//! [`encode_entry`]) held in an ordered map of *reference counts*, one
//! reference per resident version whose payload extracts to the entry's
//! index key:
//!
//! * [`Table::install`] adds a reference for the new version's
//!   extraction inside the shard-lock critical section, so a concurrent
//!   backfill ([`Table::register_index`]) can never double- or un-count it;
//! * [`Table::unlink_version`] (rollback) and version GC — the purge pass
//!   and the pruning a writer does inside `install` — release references;
//!   an entry disappears when its count reaches zero;
//! * entries are therefore *conservative*: a stale entry may linger until
//!   GC reaps the versions that fed it, and readers re-extract from the
//!   row's visible value to filter. An entry can never be *missing* for a
//!   resident version — that is the invariant scans rely on.
//!
//! The substrate is deliberately free of concurrency-control policy: it knows
//! nothing about SI, S2PL or SSI: it keeps the registrations a reader asks
//! for (a row's SIREAD on its chain, a range scan's in [`range`]) and reports
//! them to the writer they concern. All policy (who registers what, blocking
//! record and unique-marker locks, waiting for a range's holder, rw-conflict
//! flagging) lives in `ssi-core`.

pub mod catalog;
pub mod index;
pub mod page;
pub mod range;
pub mod table;
pub mod version;

pub use catalog::Catalog;
pub use index::{
    decode_entry, encode_entry, entry_range, FieldKind, Index, IndexDef, IndexKeyPart, IndexKeySpec,
};
pub use page::PageMap;
pub use range::{RangeHandle, RangeMode};
pub use table::{
    as_ref_bound, clone_bound, ForUpdateProbe, Installed, PurgeStats, RowHandle, RowReaders,
    ScanCursor, ScanEntries, ScanEntry, ScanPage, ScanRow, Siread, Table, VisibleRead, WriteProbe,
    SCAN_PAGE_SIZE, SHARD_COUNT,
};
pub use version::{Version, VersionState};
