//! Network service layer for the SSI engine: a TCP server speaking a
//! length-framed binary protocol, and a blocking client SDK.
//!
//! Built entirely on `std::net` + worker threads — no async runtime. The
//! engine's concurrency control (SSI conflict detection, group-commit
//! durability) lives below this layer; the server contributes session
//! lifecycle, admission control, and the wire format.
//!
//! # Architecture
//!
//! - One **acceptor** thread owns the listener; each accepted connection
//!   gets a dedicated **worker** thread (capped at
//!   [`ServerOptions::max_connections`]; excess connections are refused
//!   with a typed `busy` error frame).
//! - Each connection is a **session** holding a map from transaction
//!   handle to an open engine [`Transaction`](ssi_core::Transaction), so
//!   one interactive transaction spans many request frames.
//! - A **reaper** thread rolls back transactions of sessions idle past
//!   [`ServerOptions::idle_timeout`] and closes their connections: a
//!   silently dead client must not pin the GC horizon or hold SIREAD/row
//!   locks indefinitely. Disconnects (clean or torn) roll back the
//!   session's open transactions immediately on every worker exit path.
//! - **Admission control**: at most
//!   [`ServerOptions::max_inflight_commits`] requests may be executing a
//!   commit at once. Beyond that, commit-carrying requests are shed with
//!   `busy` — under group-commit durability, commits block on fsync, so
//!   this cap is the backpressure valve for a saturated flush pipeline.
//! - **Graceful drain** ([`Server::shutdown`], also run on drop): stop
//!   accepting, harvest idle sessions, let in-flight requests finish —
//!   a commit whose acknowledgement has been written is never abandoned —
//!   then join every thread before returning. The server's `Database`
//!   handle outlives all workers, so the engine's close (its final log
//!   sync and the release of its directory lock) cannot race server
//!   threads.
//!
//! # Framing
//!
//! Every message (both directions) is one frame:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload (len bytes) |
//! +----------------+---------------------+
//! ```
//!
//! The length prefix is bounds-checked against a configurable cap
//! ([`ServerOptions::max_frame_bytes`], default 4 MiB) *before* any
//! allocation; an oversized prefix earns one `frame-too-large` error frame
//! and connection close (the stream cannot be re-synchronized once the
//! prefix is distrusted). Reads and writes loop until the full frame is
//! transferred. A payload that arrives whole but fails to decode earns a
//! `bad-request` error and the connection stays usable.
//!
//! Clients may **pipeline**: any number of request frames may be on the
//! wire before the first response is read. The server processes one
//! connection's frames serially and answers strictly in request order.
//!
//! # Request payloads
//!
//! First byte is the opcode; multi-byte integers are little-endian;
//! strings are `u16 len + UTF-8 bytes`; byte strings are `u32 len + bytes`;
//! range bounds are `tag u8 (0 unbounded / 1 included / 2 excluded)
//! [+ bytes]`. Trailing bytes after a well-formed body are rejected.
//!
//! | op | name | body | response |
//! |------|--------------|------|----------|
//! | 0x01 | begin        | `iso u8 (0xff = server default), read_only u8` | `handle(u64)` |
//! | 0x02 | get          | `handle u64, table str, key bytes` | `value(opt bytes)` |
//! | 0x03 | put          | `handle u64, table str, key bytes, value bytes` | `ok` |
//! | 0x04 | delete       | `handle u64, table str, key bytes` | `ok` |
//! | 0x05 | scan         | `handle u64, table str, lower bound, upper bound, limit u32 (0 = all)` | `rows` |
//! | 0x06 | commit       | `handle u64` | `ok` (= durable under group commit) |
//! | 0x07 | rollback     | `handle u64` | `ok` |
//! | 0x08 | create_table | `name str` | `ok` |
//! | 0x09 | metrics      | — | `text` (Prometheus exposition) |
//! | 0x0a | ping         | — | `ok` |
//!
//! Isolation wire codes: `0` read committed, `1` snapshot isolation,
//! `2` strict two-phase locking, `3` serializable SI, `0xff` server
//! default.
//!
//! Handle `0` ([`proto::AUTOCOMMIT`]) on get/put/delete/scan runs the
//! operation in a one-shot transaction (begin + op + commit server-side).
//!
//! # Response payloads
//!
//! First byte is a status (`0` = ok); errors carry a code byte and a
//! `u16`-prefixed message. Ok responses carry a kind tag:
//! `0` empty, `1` handle (`u64`), `2` value (`present u8 [+ bytes]`),
//! `3` rows (`count u32, (key bytes, value bytes)*`), `4` text (`u32 len +
//! UTF-8`).
//!
//! Error codes ([`proto::ErrorCode`]): `1` aborted (SSI/deadlock victim —
//! retry the transaction), `2` txn-closed, `3` no-such-table,
//! `4` table-exists, `5` lock-timeout, `6` internal, `7` durability,
//! `8` degraded, `9` closed, `10` busy (admission shed — back off and
//! retry), `11` bad-request, `12` frame-too-large. `aborted`,
//! `lock-timeout` and `busy` are retryable; the rest are not.
//!
//! # Connection-lifecycle contract
//!
//! Every transaction opened over the wire is owned by exactly one
//! session's handle map, and every way a session can end — clean
//! disconnect, torn connection, decode-poisoned stream, idle reaping,
//! server drain — drains that map, rolling back the survivors. Combined
//! with the engine's own `Transaction: Drop` rollback, no network event
//! can leak an active transaction that would pin the transaction
//! registry's GC horizon or strand row/SIREAD locks.

pub mod client;
pub mod proto;
mod server;

pub use client::{Client, ClientError, ClientResult, ClientTxn};
pub use proto::{ErrorCode, Request, Response, AUTOCOMMIT, DEFAULT_MAX_FRAME_BYTES};
pub use server::{Server, ServerOptions};
