//! Shared building blocks for the Serializable Snapshot Isolation reproduction.
//!
//! This crate contains the vocabulary types used by every other crate in the
//! workspace: transaction and timestamp identifiers, the error taxonomy of the
//! engine (deadlock, first-committer-wins conflict, "unsafe" SSI abort, …),
//! order-preserving binary encoding helpers used to build composite keys for
//! the benchmark schemas, random-distribution helpers (uniform, Zipf and the
//! TPC-C NURand generator) and the statistics accumulators used by the
//! benchmark driver.
//!
//! Nothing in this crate depends on the storage engine or the concurrency
//! control algorithms; it is deliberately small and allocation-conscious so it
//! can be used from the hottest paths of the engine.

pub mod encoding;
pub mod error;
pub mod ids;
pub mod inline_vec;
pub mod rng;
pub mod stats;

pub use error::{AbortKind, AbortReason, DegradedReason, Error, Result};
pub use ids::{IsolationLevel, TableId, Timestamp, TxnId, TS_INFINITY, TS_ZERO};
pub use inline_vec::InlineVec;
