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
//! Locks can name a *record*, a *gap* before a record (next-key locking,
//! Sec. 3.5), or a *page* (Berkeley-DB-style coarse granularity, Sec. 4.2).
//! Gap locks only conflict with other gap locks; record and page locks only
//! conflict with their own kind.
//!
//! Blocking requests participate in deadlock detection via a wait-for graph;
//! the transaction that closes a cycle is chosen as the victim, mirroring the
//! inline detection used by InnoDB.
//!
//! ## What the engine keeps here, and what it does not
//!
//! Every `SHARED` and `EXCLUSIVE` lock of every isolation level lives in this
//! table: those are the modes that block, and the wait queue and the
//! deadlock detector are here. No predicate does. A scan at Serializable SI
//! or S2PL is kept as what it is, `(lower, upper, holder)` in the range list
//! of the table or index it scanned (`ssi-storage`), where every install
//! compares its key with the live ranges: a predicate covers a key inserted
//! later by containment, whereas a gap lock kept under a lock *name* has to
//! be handed on to every key inserted into the gap (InnoDB's
//! `lock_rec_inherit_to_gap`) to stay sound. Nor does a Serializable-SI
//! transaction's `SIREAD` on a row at row granularity: it is kept on the
//! row's version chain, where the row's next writer pushes its version and
//! collects it in the same critical section. What the engine keeps here is:
//!
//! * **record locks**, `SHARED` (S2PL reads) and `EXCLUSIVE` (every write,
//!   `get_for_update`), and the `EXCLUSIVE` **unique-marker** lock of an
//!   index key a write claims;
//! * **the wait target of an S2PL transaction**
//!   ([`LockKey::transaction`]): held `EXCLUSIVE` by the transaction from
//!   before its first range until it finishes, and requested `SHARED` by a
//!   writer whose new key or index entry fell into that range. A writer waits
//!   for a scanner here, so the wait is in the wait-for graph like any other;
//! * **pages**, at page granularity (one name covers many rows), `SIREAD`
//!   locks included;
//! * **rows with no chain yet**: a point read of a key that does not exist
//!   leaves its `SIREAD` on the record name, and the key's first insert finds
//!   it when it takes the `EXCLUSIVE` lock on that name.
//!
//! Writers meet the `SIREAD`s among these through the `rw_conflicts` of
//! their own `EXCLUSIVE` grants, as they always have.

pub mod key;
pub mod manager;
pub mod mode;

mod fxhash;
mod waitfor;

pub use fxhash::{FxBuildHasher, FxHasher};
pub use key::{LockKey, LockTarget};
pub use manager::{LockConfig, LockManager, LockOutcome, LockStats, SireadBatch};
pub use mode::{LockMode, ModeSet};
