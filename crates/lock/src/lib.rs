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

pub mod key;
pub mod manager;
pub mod mode;

mod fxhash;
mod waitfor;

pub use fxhash::{FxBuildHasher, FxHasher};
pub use key::{LockKey, LockTarget};
pub use manager::{LockConfig, LockManager, LockOutcome, LockStats, SireadBatch};
pub use mode::{LockMode, ModeSet};
