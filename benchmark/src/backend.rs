//! The two ways the benchmark reaches the engine, behind one small trait so
//! that the embedded and the wire workloads run the same programs.
//!
//! Import rule: this file and the rest of the end-to-end path use only
//! `Database`, `Options::default()/innodb_like()`, `.with_isolation`,
//! `.with_durability`, `Transaction::{get, put, scan, commit, rollback}`,
//! `Database::{begin_with, create_table, table, purge, metrics}`,
//! `Server::{start, local_addr, metrics, session_count, shutdown}`,
//! `ServerOptions::default()` and `Client`/`ClientTxn` — no per-PR knob, so
//! a PR that deletes one cannot break the benchmark.

use std::ops::Bound;

use serializable_si::server::{ClientError, ErrorCode};
use serializable_si::{Client, ClientTxn, Database, IsolationLevel, TableRef, Transaction};

use crate::spans::{Recorder, SpanKind};

/// Index into the running program's table list (see
/// [`crate::programs::Program::tables`]).
pub type TableIx = usize;

/// Why a call failed, as far as the retry loop cares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnError {
    /// A concurrency-control abort, lock timeout or admission shed: run the
    /// program again in a fresh transaction.
    Retryable(String),
    /// Anything else; the transaction counts as failed.
    Fatal(String),
}

pub type TxnResult<T> = Result<T, TxnError>;

impl From<serializable_si::Error> for TxnError {
    fn from(e: serializable_si::Error) -> Self {
        if e.is_retryable() {
            TxnError::Retryable(e.to_string())
        } else {
            TxnError::Fatal(e.to_string())
        }
    }
}

impl From<ClientError> for TxnError {
    fn from(e: ClientError) -> Self {
        if e.is_retryable() {
            TxnError::Retryable(e.to_string())
        } else {
            TxnError::Fatal(e.to_string())
        }
    }
}

/// One open transaction. Every value in both schemas is one big-endian
/// `i64`, so the trait speaks `i64` and each backend decodes in place.
pub trait Txn {
    fn get(&mut self, table: TableIx, key: &[u8]) -> TxnResult<Option<i64>>;
    fn put(&mut self, table: TableIx, key: &[u8], value: i64) -> TxnResult<()>;
    /// Full-table scan in key order.
    fn scan(&mut self, table: TableIx, visit: &mut dyn FnMut(&[u8], i64)) -> TxnResult<()>;
    fn commit(self) -> TxnResult<()>;
    fn rollback(self) -> TxnResult<()>;
}

/// One client's handle on the system.
pub trait Backend {
    /// Layer the spans around this backend's calls are charged to.
    const LAYER: &'static str;
    type Txn<'a>: Txn
    where
        Self: 'a;
    fn begin(&mut self) -> TxnResult<Self::Txn<'_>>;
}

fn decode(value: &[u8]) -> TxnResult<i64> {
    value
        .try_into()
        .map(i64::from_be_bytes)
        .map_err(|_| TxnError::Fatal(format!("value of {} bytes, expected 8", value.len())))
}

// ---- embedded ------------------------------------------------------------

/// Calls straight into the embedded [`Database`].
pub struct Embedded {
    pub db: Database,
    pub tables: Vec<TableRef>,
    pub isolation: IsolationLevel,
}

pub struct EmbeddedTxn<'a> {
    txn: Transaction,
    tables: &'a [TableRef],
}

impl Backend for Embedded {
    const LAYER: &'static str = "core";
    type Txn<'a> = EmbeddedTxn<'a>;

    fn begin(&mut self) -> TxnResult<EmbeddedTxn<'_>> {
        Ok(EmbeddedTxn {
            txn: self.db.begin_with(self.isolation),
            tables: &self.tables,
        })
    }
}

impl Txn for EmbeddedTxn<'_> {
    fn get(&mut self, table: TableIx, key: &[u8]) -> TxnResult<Option<i64>> {
        match self.txn.get(&self.tables[table], key)? {
            Some(value) => decode(&value).map(Some),
            None => Ok(None),
        }
    }

    fn put(&mut self, table: TableIx, key: &[u8], value: i64) -> TxnResult<()> {
        Ok(self
            .txn
            .put(&self.tables[table], key, &value.to_be_bytes())?)
    }

    fn scan(&mut self, table: TableIx, visit: &mut dyn FnMut(&[u8], i64)) -> TxnResult<()> {
        let rows = self
            .txn
            .scan(&self.tables[table], Bound::Unbounded, Bound::Unbounded)?;
        for (key, value) in &rows {
            visit(key, decode(value)?);
        }
        Ok(())
    }

    fn commit(self) -> TxnResult<()> {
        Ok(self.txn.commit()?)
    }

    fn rollback(self) -> TxnResult<()> {
        self.txn.rollback();
        Ok(())
    }
}

// ---- wire ------------------------------------------------------------------

/// One TCP connection: an interactive transaction, one round trip per
/// begin/op/commit, no pipelining.
pub struct Wire {
    pub client: Client,
    pub tables: &'static [&'static str],
    pub isolation: IsolationLevel,
    /// Request frames this connection has sent; the run checks the sum
    /// against the server's own request counter.
    pub round_trips: u64,
}

pub struct WireTxn<'a> {
    txn: ClientTxn<'a>,
    tables: &'static [&'static str],
    round_trips: &'a mut u64,
}

impl WireTxn<'_> {
    /// Counts the request just sent, and the rollback `ClientTxn`'s drop will
    /// send when an operation failed without the server closing the
    /// transaction (the SDK marks only `aborted`/`txn-closed` as closed).
    fn sent<T>(&mut self, result: Result<T, ClientError>) -> TxnResult<T> {
        *self.round_trips += 1;
        result.map_err(|e| {
            if !matches!(e.code(), Some(ErrorCode::Aborted | ErrorCode::TxnClosed)) {
                *self.round_trips += 1;
            }
            e.into()
        })
    }
}

impl Backend for Wire {
    const LAYER: &'static str = "client";
    type Txn<'a> = WireTxn<'a>;

    fn begin(&mut self) -> TxnResult<WireTxn<'_>> {
        self.round_trips += 1;
        Ok(WireTxn {
            txn: self.client.begin_with(self.isolation)?,
            tables: self.tables,
            round_trips: &mut self.round_trips,
        })
    }
}

impl Txn for WireTxn<'_> {
    fn get(&mut self, table: TableIx, key: &[u8]) -> TxnResult<Option<i64>> {
        let result = self.txn.get(self.tables[table], key);
        match self.sent(result)? {
            Some(value) => decode(&value).map(Some),
            None => Ok(None),
        }
    }

    fn put(&mut self, table: TableIx, key: &[u8], value: i64) -> TxnResult<()> {
        let result = self.txn.put(self.tables[table], key, &value.to_be_bytes());
        self.sent(result)
    }

    fn scan(&mut self, table: TableIx, visit: &mut dyn FnMut(&[u8], i64)) -> TxnResult<()> {
        let result = self
            .txn
            .scan(self.tables[table], Bound::Unbounded, Bound::Unbounded, 0);
        for (key, value) in &self.sent(result)? {
            visit(key, decode(value)?);
        }
        Ok(())
    }

    // Commit and rollback consume the SDK handle, which then sends nothing
    // on drop whatever the outcome: exactly one request each.
    fn commit(self) -> TxnResult<()> {
        *self.round_trips += 1;
        Ok(self.txn.commit()?)
    }

    fn rollback(self) -> TxnResult<()> {
        *self.round_trips += 1;
        Ok(self.txn.rollback()?)
    }
}

// ---- span recording ----------------------------------------------------------

/// A transaction whose every call goes through a [`Recorder`].
pub struct Recorded<'r, T, R> {
    pub inner: T,
    pub layer: &'static str,
    pub recorder: &'r mut R,
}

impl<T: Txn, R: Recorder> Txn for Recorded<'_, T, R> {
    fn get(&mut self, table: TableIx, key: &[u8]) -> TxnResult<Option<i64>> {
        let inner = &mut self.inner;
        self.recorder
            .span(SpanKind::Get, self.layer, || inner.get(table, key))
    }

    fn put(&mut self, table: TableIx, key: &[u8], value: i64) -> TxnResult<()> {
        let inner = &mut self.inner;
        self.recorder
            .span(SpanKind::Put, self.layer, || inner.put(table, key, value))
    }

    fn scan(&mut self, table: TableIx, visit: &mut dyn FnMut(&[u8], i64)) -> TxnResult<()> {
        let inner = &mut self.inner;
        self.recorder
            .span(SpanKind::Scan, self.layer, || inner.scan(table, visit))
    }

    fn commit(self) -> TxnResult<()> {
        let inner = self.inner;
        self.recorder
            .span(SpanKind::Commit, self.layer, || inner.commit())
    }

    fn rollback(self) -> TxnResult<()> {
        let inner = self.inner;
        self.recorder
            .span(SpanKind::Rollback, self.layer, || inner.rollback())
    }
}
