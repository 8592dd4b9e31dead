//! The repository's benchmark: SmallBank and sibench at SI vs Serializable
//! SI, embedded, durable and over TCP, with a per-layer ledger. See
//! `README.md` for the workloads, the metrics and how to read a trace.
//!
//! Only `src/bin/layer_probes.rs` reaches below the engine's public handle;
//! everything here obeys the import rule stated in [`backend`].

pub mod backend;
pub mod json;
pub mod manifest;
pub mod programs;
pub mod runner;
pub mod scenario;
pub mod single;
pub mod spans;
pub mod stats;
pub mod suite;
