//! Umbrella crate for the *Serializable Isolation for Snapshot Databases*
//! reproduction.
//!
//! This crate simply re-exports the workspace members so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`core`](ssi_core) — the embedded database with SI, S2PL and
//!   Serializable SI concurrency control (the paper's contribution);
//! * [`storage`](ssi_storage) — the multi-version storage substrate;
//! * [`lock`](ssi_lock) — the lock manager: SHARED and EXCLUSIVE locks,
//!   and the SIREAD locks of pages and of reads that find no row (a row's
//!   SIREAD lives on its version chain in `storage`);
//! * [`server`](ssi_server) — the TCP service layer (framed protocol,
//!   session registry, blocking client SDK);
//! * [`workloads`](ssi_workloads) — SmallBank, sibench and TPC-C++ plus the
//!   benchmark driver;
//! * [`common`](ssi_common) — shared types, errors, encoding and statistics.
//!
//! `ROADMAP.md` holds the system inventory (which crate owns which layer,
//! with the last measured numbers); `benchmark/README.md` describes the
//! repository's benchmark; `experiments list` (in `crates/bench`) prints the
//! mapping from the thesis's figures to the harness.

pub use ssi_common as common;
pub use ssi_core as core;
pub use ssi_lock as lock;
pub use ssi_obs as obs;
pub use ssi_server as server;
pub use ssi_storage as storage;
pub use ssi_wal as wal;
pub use ssi_workloads as workloads;

pub use ssi_common::{
    AbortKind, AbortReason, DegradedReason, Error, IsolationLevel, Result, TxnId,
};
pub use ssi_core::{
    Database, DbHealth, Durability, DurabilityOptions, FaultMode, FaultOp, FaultRule, FaultVfs,
    FieldKind, GcPin, IndexKeyPart, IndexKeySpec, IndexRef, LockGranularity, Options, PurgeStats,
    SsiOptions, SsiVariant, TableRef, Transaction,
};
pub use ssi_obs::{EventKind, MetricsSnapshot, TraceBatch, TraceEvent};
pub use ssi_server::{Client, ClientTxn, Server, ServerOptions};
pub use ssi_workloads::{run_workload, RunConfig, SiBench, SmallBank, TpccConfig, TpccWorkload};
