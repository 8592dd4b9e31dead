//! Lock manager substrate for the Serializable SI reproduction.
//!
//! The lock manager provides the three lock modes the paper's algorithm needs
//! (Sec. 3.2):
//!
//! * `SHARED` — blocking read locks used by strict two-phase locking;
//! * `EXCLUSIVE` — blocking write locks used by every isolation level (they
//!   implement the first-updater-wins rule under SI/SSI);
//! * `SIREAD` — the new non-blocking mode introduced by Serializable SI. An
//!   SIREAD lock never delays anyone and is never delayed; its only purpose is
//!   to make read-write conflicts discoverable when an `EXCLUSIVE` lock on the
//!   same item is requested (or already held).
//!
//! Locks can name a *record*, a *gap* before a record (next-key locking for
//! phantom prevention, Sec. 3.5), or a *page* (Berkeley-DB-style coarse
//! granularity, Sec. 4.2). Gap locks only conflict with other gap locks;
//! record and page locks only conflict with their own kind.
//!
//! Blocking requests participate in deadlock detection via a wait-for graph;
//! the transaction that closes a cycle is chosen as the victim, mirroring the
//! inline detection used by InnoDB.
//!
//! ## What the engine keeps here, and what it does not
//!
//! Every `SHARED` and `EXCLUSIVE` lock of every isolation level lives in this
//! table: those are the modes that block, and the wait queue and the
//! deadlock detector are here. Of the `SIREAD` locks, the ones a
//! Serializable-SI transaction takes *at row granularity on rows and on
//! ranges* — of a table's keys or of a secondary index's entries — do not.
//! A row's point readers are kept on the row's version chain in
//! `ssi-storage`, where the row's next writer pushes its version and collects
//! them in the same critical section; a second table keyed by the same row
//! would only add a visit. A scan is kept as what it is, `(lower, upper,
//! holder)` in the range list of the table or index it scanned, where every
//! install compares its key with the live ranges: a predicate covers a key
//! inserted later by containment, whereas a gap SIREAD kept under a lock
//! *name* has to be handed on to every key inserted into the gap (InnoDB's
//! `lock_rec_inherit_to_gap`) to stay sound. What remains here is:
//!
//! * **S2PL's gap locks**, of table keys and of index entries: a `SHARED`
//!   gap lock has to make an inserter *wait*, and waiting is done here. That
//!   is also why a Serializable-SI inserter or deleter still requests
//!   `EXCLUSIVE` on the gap above its key or entry: the request is what
//!   queues it behind an S2PL scanner. It finds no Serializable-SI scan
//!   there any more (it is told of those by the install);
//! * **pages**, at page granularity (one name covers many rows);
//! * **rows with no chain yet**: a point read of a key that does not exist
//!   leaves its `SIREAD` on the record name, and the key's first insert finds
//!   it when it takes the `EXCLUSIVE` lock on that name.
//!
//! Writers meet all of these through the `rw_conflicts` of their own
//! `EXCLUSIVE` grants, as they always have.

pub mod key;
pub mod manager;
pub mod mode;

mod fxhash;
mod waitfor;

pub use fxhash::{FxBuildHasher, FxHasher};
pub use key::{LockKey, LockTarget};
pub use manager::{LockConfig, LockManager, LockOutcome, LockStats, SireadBatch};
pub use mode::{LockMode, ModeSet};
